// Quickstart: a guided tour of the Force API.
//
// Computes pi by numerical integration three ways - prescheduled DOALL,
// selfscheduled DOALL and Askfor - on any of the seven machine models, and
// demonstrates barrier sections, critical sections and async variables.
//
//   ./quickstart --machine encore --nproc 8
#include <cmath>
#include <cstdio>

#include "theforce.hpp"
#include "util/cli.hpp"

namespace {

double integrand(double x) { return 4.0 / (1.0 + x * x); }

}  // namespace

int main(int argc, char** argv) {
  force::util::CliParser cli;
  cli.option("machine", "native", "machine model to run on")
      .option("nproc", "4", "force size")
      .option("steps", "100000", "integration steps");
  if (!cli.parse(argc, argv)) return 0;

  force::ForceConfig config;
  config.machine = cli.get("machine");
  config.nproc = static_cast<int>(cli.get_int("nproc"));
  const std::int64_t steps = cli.get_int("steps");
  const double h = 1.0 / static_cast<double>(steps);

  force::Force f(config);
  // Shared variables live in the machine's shared arena, like Force
  // `Shared` declarations.
  auto& pi_presched = f.shared<double>("pi_presched");
  auto& pi_selfsched = f.shared<double>("pi_selfsched");
  auto& pi_askfor = f.shared<double>("pi_askfor");

  f.run([&](force::Ctx& ctx) {
    // --- prescheduled DOALL: iteration k to process k mod NP -------------
    double local = 0.0;
    ctx.presched_do(0, steps - 1, 1, [&](std::int64_t i) {
      local += h * integrand((static_cast<double>(i) + 0.5) * h);
    });
    // Critical section: sum the private partials into the shared result.
    ctx.critical(FORCE_SITE, [&] { pi_presched += local; });

    // Barrier with a section: one arbitrary process reports.
    ctx.barrier([&] {
      std::printf("presched  pi ~= %.9f (err %.2e)\n", pi_presched,
                  std::fabs(pi_presched - M_PI));
    });

    // --- selfscheduled DOALL: dynamic index claims ------------------------
    local = 0.0;
    ctx.selfsched_do(
        FORCE_SITE, 0, steps - 1, 1,
        [&](std::int64_t i) {
          local += h * integrand((static_cast<double>(i) + 0.5) * h);
        },
        /*chunk=*/256);
    ctx.critical(FORCE_SITE, [&] { pi_selfsched += local; });
    ctx.barrier([&] {
      std::printf("selfsched pi ~= %.9f (err %.2e)\n", pi_selfsched,
                  std::fabs(pi_selfsched - M_PI));
    });

    // --- Askfor: work generated at run time -------------------------------
    struct Strip {
      std::int64_t begin, end;
    };
    auto& monitor = ctx.askfor<Strip>(FORCE_SITE);
    if (ctx.leader()) {
      monitor.put({0, steps});  // one big strip; workers split it
    }
    ctx.barrier();
    local = 0.0;
    monitor.work([&](Strip& s, force::core::Askfor<Strip>& self) {
      if (s.end - s.begin > steps / 64) {
        const std::int64_t mid = s.begin + (s.end - s.begin) / 2;
        self.put({mid, s.end});  // new concurrent instance, at run time
        s.end = mid;
      }
      for (std::int64_t i = s.begin; i < s.end; ++i) {
        local += h * integrand((static_cast<double>(i) + 0.5) * h);
      }
    });
    ctx.critical(FORCE_SITE, [&] { pi_askfor += local; });
    ctx.barrier([&] {
      std::printf("askfor    pi ~= %.9f (err %.2e)\n", pi_askfor,
                  std::fabs(pi_askfor - M_PI));
    });

    // --- async variables: produce/consume ---------------------------------
    auto& token = ctx.async_var<int>(FORCE_SITE);
    if (ctx.me() == 1) token.produce(ctx.np());
    ctx.barrier([&] {
      int v = token.consume();
      std::printf("async token consumed: %d (full/empty cell word: %s)\n", v,
                  token.uses_hardware_path() ? "yes" : "no");
    });
  });

  const auto& machine = f.env().machine();
  std::printf("ran on machine '%s' (%s locks, %s sharing, %s processes)\n",
              machine.name().c_str(),
              force::machdep::lock_kind_name(machine.spec().lock_kind),
              force::machdep::sharing_strategy_name(machine.spec().sharing),
              force::machdep::process_model_name(
                  machine.spec().process_model));
  return 0;
}
