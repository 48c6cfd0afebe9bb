#include "machdep/fullempty.hpp"

namespace force::machdep {

FullEmptyGate::FullEmptyGate(std::unique_ptr<BasicLock> e,
                             std::unique_ptr<BasicLock> f,
                             std::unique_ptr<BasicLock> void_guard)
    : e_(std::move(e)), f_(std::move(f)), void_guard_(std::move(void_guard)) {
  e_->acquire();  // empty: E locked, F unlocked
}

void FullEmptyGate::make_empty() {
  if (hardware()) {
    cell_.make_empty();
    return;
  }
  void_guard_->acquire();
  if (full_.load(std::memory_order_acquire)) {
    e_->acquire();  // consume the token without reading the value
    full_.store(false, std::memory_order_release);
    f_->release();
  }
  void_guard_->release();
}

}  // namespace force::machdep
