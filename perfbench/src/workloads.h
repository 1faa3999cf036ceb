// The benchmark's four workloads behind one interface. A run sets the
// workload up, restarts its server node(s) over the log set-up wrote,
// drives closed-loop rounds from one thread per workstation, and checks
// the program's outputs against the ledger it kept.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "trace.h"

namespace perfbench {

inline constexpr size_t kWorkstations = 4;

/// One workstation's share of a timed phase.
struct WsSamples {
  std::vector<double> dop_us;       // measured DOPs, Begin to commit ack
  std::vector<double> checkout_us;  // measured DOPs' checkouts
  std::vector<double> commit_us;    // measured DOPs' commits
  uint64_t attempted = 0;           // every DOP started
  uint64_t failed = 0;
  uint64_t committed = 0;           // every DOP committed
  std::vector<std::string> check_failures;
};

/// Program counters read around each traced slice. Where a
/// value comes from a program stats() accessor, the README says which.
struct Counters {
  uint64_t calls = 0;  // TransactionalRpc or RpcChannel calls
  uint64_t retries = 0;
  uint64_t messages = 0;
  uint64_t cache_hits = 0;
  uint64_t wal_flushes = 0;
  uint64_t wal_bytes = 0;  // data directories on disk
  uint64_t deliveries = 0;
  uint64_t reconnects = 0;
  std::vector<uint64_t> partition_ops;
  uint64_t queue_high_water = 0;
};

struct Options {
  uint64_t seed = 1;
  bool traced = false;
  std::string dir;       // fresh directory for this run's data
  std::string concordd;  // server binary (socket_commit)
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Plane build plus pre-load (and the concordd start).
  virtual concord::Status Setup() = 0;
  /// Restart of the server node(s) over set-up's log; returns the WAL
  /// records replayed.
  virtual concord::Result<size_t> Restart() = 0;
  /// Workstations plus warm-up rounds (caches filled before timing).
  virtual concord::Status Prepare() = 0;
  /// One closed-loop round of workstation `ws`.
  virtual void Round(size_t ws, WsSamples* out) = 0;
  /// After the timed phase: the probe and the ledger checks.
  virtual std::vector<std::string> Verify() = 0;

  virtual Counters Read() = 0;
  /// A memory figure of the process hosting the servers, in MiB, read
  /// from its /proc status: "VmHWM" (peak resident) or "VmRSS".
  virtual double MemoryMb(const std::string& field) = 0;
  /// Every ServerService decorator (traced runs).
  virtual std::vector<TracedService*> Decorators() = 0;
  /// True when Execute spans carry the server's own dispatch spans.
  virtual bool InProcess() const { return true; }
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
