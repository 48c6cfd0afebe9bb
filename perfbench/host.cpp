#include "host.hpp"

#include <linux/futex.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <thread>
#include <vector>

#include "util/timing.hpp"

namespace perfbench {

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

long futex(std::atomic<std::uint32_t>* word, int op, std::uint32_t val) {
  return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op, val,
                 nullptr, nullptr, 0);
}

}  // namespace

HostStamp host_stamp() {
  HostStamp h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? CPU_COUNT(&set)
                : static_cast<int>(std::thread::hardware_concurrency());
  h.cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(std::min(colon + 2, line.size()));
      }
      break;
    }
  }
  return h;
}

double steal_cpu_seconds() {
  // "cpu  user nice system idle iowait irq softirq steal ...", in clock ticks.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0;
  std::uint64_t steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  const long hz = sysconf(_SC_CLK_TCK);
  return cpu == "cpu" && hz > 0 ? static_cast<double>(steal) / hz : 0.0;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

double probe_atomic_rmw_ns(int threads) {
  constexpr int kOps = 200000;
  std::vector<double> per_op;
  for (int rep = 0; rep < 3; ++rep) {
    alignas(64) std::atomic<std::uint64_t> counter{0};
    std::atomic<int> ready{0};
    std::vector<double> mine(static_cast<std::size_t>(threads), 0.0);
    {
      std::vector<std::jthread> team;
      for (int t = 0; t < threads; ++t) {
        team.emplace_back([&, t] {
          ready.fetch_add(1);
          while (ready.load() < threads) {
          }
          const std::int64_t t0 = force::util::now_ns();
          for (int i = 0; i < kOps; ++i) counter.fetch_add(1);
          mine[static_cast<std::size_t>(t)] =
              static_cast<double>(force::util::now_ns() - t0) / kOps;
        });
      }
    }
    per_op.insert(per_op.end(), mine.begin(), mine.end());
  }
  return median(per_op);
}

double probe_futex_handoff_ns() {
  constexpr int kTrips = 2000;
  std::vector<double> handoff;
  for (int rep = 0; rep < 3; ++rep) {
    // turn: 0 = ping may run, 1 = pong may run. Each side sleeps in the
    // kernel until the other hands the turn over and wakes it.
    std::atomic<std::uint32_t> turn{0};
    const auto take = [&](std::uint32_t mine) {
      std::uint32_t v = turn.load();
      while (v != mine) {
        futex(&turn, FUTEX_WAIT_PRIVATE, v);
        v = turn.load();
      }
    };
    const auto give = [&](std::uint32_t other) {
      turn.store(other);
      futex(&turn, FUTEX_WAKE_PRIVATE, 1);
    };
    std::jthread pong([&] {
      for (int i = 0; i < kTrips; ++i) {
        take(1);
        give(0);
      }
    });
    const std::int64_t t0 = force::util::now_ns();
    for (int i = 0; i < kTrips; ++i) {
      take(0);
      give(1);
    }
    take(0);
    handoff.push_back(static_cast<double>(force::util::now_ns() - t0) /
                      (2.0 * kTrips));
  }
  return median(handoff);
}

double probe_socket_rtt_ns() {
  constexpr int kTrips = 2000;
  std::vector<double> rtt;
  for (int rep = 0; rep < 3; ++rep) {
    int fds[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 0.0;
    std::jthread echo([fd = fds[1]] {
      char c = 0;
      for (int i = 0; i < kTrips; ++i) {
        if (read(fd, &c, 1) != 1 || write(fd, &c, 1) != 1) return;
      }
    });
    char c = 'x';
    const std::int64_t t0 = force::util::now_ns();
    bool ok = true;
    for (int i = 0; i < kTrips && ok; ++i) {
      ok = write(fds[0], &c, 1) == 1 && read(fds[0], &c, 1) == 1;
    }
    const std::int64_t t1 = force::util::now_ns();
    close(fds[0]);  // EOF releases the echo thread on an early exit
    echo.join();
    close(fds[1]);
    if (!ok) return 0.0;
    rtt.push_back(static_cast<double>(t1 - t0) / kTrips);
  }
  return median(rtt);
}

}  // namespace perfbench
