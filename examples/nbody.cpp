// Direct-summation N-body step with DOALL + reductions, and optional
// execution tracing.
//
// Demonstrates the extension constructs working together: a guided DOALL
// over the O(n^2) force computation (triangular, so guided scheduling
// matters), tournament reductions for the energy diagnostics, and the
// tracer exporting a chrome://tracing timeline of the whole run.
//
//   ./nbody --machine native --nproc 8 --n 256 --steps 4 --trace nbody.json
#include <cmath>
#include <cstdio>
#include <vector>

#include "theforce.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace {

struct Body {
  double x, y, z;
  double vx, vy, vz;
  double m;
};

constexpr double kDt = 1e-3;
constexpr double kSoftening = 1e-3;

double total_energy(const std::vector<Body>& bodies) {
  double e = 0.0;
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const Body& a = bodies[i];
    e += 0.5 * a.m * (a.vx * a.vx + a.vy * a.vy + a.vz * a.vz);
    for (std::size_t j = i + 1; j < bodies.size(); ++j) {
      const Body& b = bodies[j];
      const double dx = a.x - b.x, dy = a.y - b.y, dz = a.z - b.z;
      e -= a.m * b.m /
           std::sqrt(dx * dx + dy * dy + dz * dz + kSoftening);
    }
  }
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  force::util::CliParser cli;
  cli.option("machine", "native", "machine model")
      .option("nproc", "4", "force size")
      .option("n", "256", "bodies")
      .option("steps", "4", "time steps")
      .option("trace", "", "write a chrome://tracing JSON here");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  const int steps = static_cast<int>(cli.get_int("steps"));
  const std::string trace_path = cli.get("trace");

  // A cold Plummer-ish blob with zero net momentum.
  force::util::Xoshiro256 rng(7);
  std::vector<Body> bodies(n);
  for (auto& b : bodies) {
    b = {rng.normal(), rng.normal(), rng.normal(), 0, 0, 0, 1.0 / n};
  }
  std::vector<double> ax(n), ay(n), az(n);
  const double e0 = total_energy(bodies);

  force::ForceConfig config;
  config.machine = cli.get("machine");
  config.nproc = static_cast<int>(cli.get_int("nproc"));
  config.trace = !trace_path.empty();
  force::Force f(config);
  auto& kinetic = f.shared<double>("kinetic");

  force::util::WallTimer timer;
  timer.start();
  f.run([&](force::Ctx& ctx) {
    for (int step = 0; step < steps; ++step) {
      // Accelerations: row i costs O(n - i) with the symmetric trick
      // unavailable (writes would race), so each row does the full O(n)
      // inner loop; guided scheduling balances the tail.
      ctx.guided_do(FORCE_SITE, 0, static_cast<std::int64_t>(n) - 1, 1,
                    [&](std::int64_t i) {
        const Body& a = bodies[static_cast<std::size_t>(i)];
        double fx = 0, fy = 0, fz = 0;
        for (std::size_t j = 0; j < n; ++j) {
          const Body& b = bodies[j];
          const double dx = b.x - a.x, dy = b.y - a.y, dz = b.z - a.z;
          const double r2 = dx * dx + dy * dy + dz * dz + kSoftening;
          const double inv_r3 = 1.0 / (r2 * std::sqrt(r2));
          fx += b.m * dx * inv_r3;
          fy += b.m * dy * inv_r3;
          fz += b.m * dz * inv_r3;
        }
        ax[static_cast<std::size_t>(i)] = fx;
        ay[static_cast<std::size_t>(i)] = fy;
        az[static_cast<std::size_t>(i)] = fz;
      });
      ctx.barrier();

      // Kick + drift, prescheduled; local kinetic energy reduced.
      double local_ke = 0.0;
      ctx.presched_do(0, static_cast<std::int64_t>(n) - 1, 1,
                      [&](std::int64_t i) {
        Body& b = bodies[static_cast<std::size_t>(i)];
        b.vx += kDt * ax[static_cast<std::size_t>(i)];
        b.vy += kDt * ay[static_cast<std::size_t>(i)];
        b.vz += kDt * az[static_cast<std::size_t>(i)];
        b.x += kDt * b.vx;
        b.y += kDt * b.vy;
        b.z += kDt * b.vz;
        local_ke += 0.5 * b.m *
                    (b.vx * b.vx + b.vy * b.vy + b.vz * b.vz);
      });
      ctx.reduce_into<double>(
          FORCE_SITE, local_ke, kinetic,
          [](double a, double b) { return a + b; });
      ctx.barrier();
    }
  });
  timer.stop();

  const double e1 = total_energy(bodies);
  const double drift = std::fabs(e1 - e0) / std::fabs(e0);
  std::printf(
      "nbody n=%zu steps=%d machine=%s np=%d: %s  KE=%.6f  |dE|/E=%.2e\n",
      n, steps, config.machine.c_str(), config.nproc,
      force::util::format_duration_ns(static_cast<double>(timer.elapsed_ns()))
          .c_str(),
      kinetic, drift);
  if (!trace_path.empty() && f.env().tracer() != nullptr) {
    if (f.env().tracer()->write_chrome_json(trace_path)) {
      std::printf("trace written to %s (%llu events); open in "
                  "chrome://tracing or ui.perfetto.dev\n",
                  trace_path.c_str(),
                  static_cast<unsigned long long>(
                      f.env().tracer()->total_recorded()));
    }
  }
  // Sanity: with a small dt the total energy must be roughly conserved.
  return drift < 0.05 ? 0 : 1;
}
