#include "machdep/fullempty.hpp"

namespace force::machdep {

FullEmptyGate::FullEmptyGate(std::atomic<std::uint32_t>& cell,
                             std::unique_ptr<BasicLock> e,
                             std::unique_ptr<BasicLock> f,
                             std::unique_ptr<BasicLock> void_guard)
    : cell_(&cell),
      e_(std::move(e)),
      f_(std::move(f)),
      void_guard_(std::move(void_guard)) {
  e_->acquire();  // empty: E locked, F unlocked
}

void FullEmptyGate::make_empty() {
  if (hardware()) {
    cell_make_empty(*cell_, scope_);
    return;
  }
  void_guard_->acquire();
  if (cell_is_full(*cell_)) {
    e_->acquire();  // consume the token without reading the value
    cell_->store(kCellEmpty, std::memory_order_release);
    f_->release();
  }
  void_guard_->release();
}

}  // namespace force::machdep
