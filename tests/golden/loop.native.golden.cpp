// Generated by forcepp from tests/golden/loop.force
// Target machine: native (Modern default: ticket locks, run-time sharing, std::jthread)
// Do not edit; regenerate with:
//   forcepp tests/golden/loop.force --machine native
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include "theforce.hpp"

// Reference program for the golden translations: one of everything small.
// Force main program LOOPDEMO
static void LOOPDEMO_body(force::core::Ctx& ctx) {
  (void)ctx;
  auto& TOTAL = ctx.shared<std::int64_t>("TOTAL");  // run-time shared pages (padded)
  auto& GRID = ctx.shared<std::array<double, 16>>("GRID");  // run-time shared pages (padded)
  auto& TOKEN = ctx.async_named<std::int64_t>("TOKEN");  // full/empty cell word (atomic RMW)
  std::int64_t I{};  // private to this process
  std::int64_t LOCALSUM{};  // private to this process
  // end of declarations

  ctx.barrier([&] {
    TOTAL = 0;
  });

  ctx.selfsched_do(FORCE_SITE_TAGGED("L100"), (0), (15), (1), [&](std::int64_t I) {
    GRID[I] = 2.0 * I;
  });

  LOCALSUM = 0;
  ctx.presched_do((0), (15), (1), [&](std::int64_t I) {
    LOCALSUM += (std::int64_t)GRID[I];
  });

  ctx.critical(FORCE_SITE_TAGGED("SUMLK"), [&] {
    TOTAL += LOCALSUM;
  });

  ctx.barrier([&] {
    TOKEN.produce(TOTAL);
  });

  {
    auto pcase__ = ctx.pcase(FORCE_SITE);
    pcase__.sect([&] {
    LOCALSUM = TOKEN.consume();
    });
      pcase__.run_presched();
  }

  // Join: the driver joins the force when the body returns.
}


// Startup routines: each module reports its shared variables so the
// driver can establish sharing before the force is created (the
// Sequent two-run linkage / Encore run-time pages of the paper).
static void LOOPDEMO_startup(force::machdep::SharedArena& arena) {
  arena.declare("TOTAL", sizeof(std::int64_t), alignof(std::int64_t), force::machdep::VarClass::kShared);
  arena.declare("GRID", sizeof(std::array<double, 16>), alignof(std::array<double, 16>), force::machdep::VarClass::kShared);
}

// ------------------------------------------------------------
// Force driver (generated; paper section 4.1.1). Creates the
// force of processes with the hep-create model and joins at the end.
// ------------------------------------------------------------
int main(int argc, char** argv) {
  force::ForceConfig config;
  config.machine = "native";
  config.nproc = argc > 1 ? std::atoi(argv[1]) : 4;
  force::Force force_(config);
  force_.env().linkage().register_module("LOOPDEMO", LOOPDEMO_startup);
  force_.run(LOOPDEMO_body);
  return 0;
}
