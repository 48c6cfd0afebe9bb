// Host stamp, peak memory and the raw-primitive probes: the floor of the
// layer ladder (host primitive -> machdep lock/engine -> core construct),
// measured by the benchmark itself and not movable by a change to src/.
#pragma once

#include <string>

namespace perfbench {

struct HostStamp {
  int nproc = 0;          ///< CPUs in this process's affinity mask
  std::string cpu_model;  ///< /proc/cpuinfo "model name", or "unknown"
};

[[nodiscard]] HostStamp host_stamp();

/// CPU time stolen from this VM by its hypervisor so far, summed over all
/// CPUs (/proc/stat); 0 where the kernel does not report it.
[[nodiscard]] double steal_cpu_seconds();

/// Peak RSS of this process plus that of its largest reaped child, in MB.
[[nodiscard]] double peak_rss_mb();

/// Median ns per fetch_add seen by each of `threads` threads hammering one
/// shared counter (the cache-line transfer a barrier arrival pays).
[[nodiscard]] double probe_atomic_rmw_ns(int threads);
/// Median ns for one futex wake handed to a sleeping thread (half a
/// ping-pong round trip between two threads).
[[nodiscard]] double probe_futex_handoff_ns();
/// Median ns for a one-byte AF_UNIX socketpair round trip between two
/// threads (the cluster transport's floor).
[[nodiscard]] double probe_socket_rtt_ns();

}  // namespace perfbench
