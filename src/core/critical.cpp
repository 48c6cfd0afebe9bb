#include "core/critical.hpp"

#include "core/env.hpp"

namespace force::core {

CriticalSection::CriticalSection(ForceEnvironment& env, std::string label)
    : lock_(env.new_critical_lock(std::move(label))),
      env_(env) {}

void CriticalSection::enter(const std::function<void()>& body) {
  Guard g(*this);
  ++entries_;
  env_.stats().critical_entries.fetch_add(1, std::memory_order_relaxed);
  body();
}

}  // namespace force::core
