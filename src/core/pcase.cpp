#include "core/pcase.hpp"

#include "core/env.hpp"
#include "util/check.hpp"

namespace force::core {

PcaseBuilder::PcaseBuilder(ForceEnvironment& env, int me0, int width,
                           std::string site_key)
    : env_(env), me0_(me0), width_(width), site_key_(std::move(site_key)) {
  FORCE_CHECK(width_ > 0 && me0_ >= 0 && me0_ < width_,
              "bad pcase process id");
}

PcaseBuilder& PcaseBuilder::sect(std::function<void()> fn) {
  FORCE_CHECK(fn != nullptr, "pcase block must not be null");
  blocks_.push_back({true, std::move(fn)});
  return *this;
}

PcaseBuilder& PcaseBuilder::sect_if(bool cond, std::function<void()> fn) {
  FORCE_CHECK(fn != nullptr, "pcase block must not be null");
  blocks_.push_back({cond, std::move(fn)});
  return *this;
}

void PcaseBuilder::execute(const Block& b) {
  if (!b.enabled) return;
  env_.stats().pcase_blocks.fetch_add(1, std::memory_order_relaxed);
  b.fn();
}

void PcaseBuilder::run_presched() {
  // "The prescheduled version allocates the blocks sequentially to the
  // processes and is thus completely machine independent."
  for (std::size_t i = static_cast<std::size_t>(me0_); i < blocks_.size();
       i += static_cast<std::size_t>(width_)) {
    execute(blocks_[i]);
  }
}

void PcaseBuilder::run_selfsched() {
  // "A selfscheduled Pcase is similar to the selfscheduled DO loop in that
  // an asynchronous variable is needed for work distribution." We reuse
  // exactly that machinery: the shared dispatch state lives at this site.
  const std::string key = site_key_ + "%pcase";
  auto& loop = env_.sites().get_or_create<SelfschedLoop>(key, [this, &key] {
    return std::make_unique<SelfschedLoop>(env_, width_, key);
  });
  FORCE_CHECK(loop.width() == width_,
              "pcase site reused from a team of a different width");
  loop.run(me0_, 0, static_cast<std::int64_t>(blocks_.size()) - 1, 1,
           [this](std::int64_t i) {
             execute(blocks_[static_cast<std::size_t>(i)]);
           });
}

}  // namespace force::core
