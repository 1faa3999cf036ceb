// The in-process server plane the benchmark drives, assembled from the
// program's public constructors the way sim::ScalePlane does, but with
// every repository on the file-backed WAL (coalesced fsyncs, the policy
// concordd ships with) and with a restart that closes the repositories
// and reopens them from their data directories.

#ifndef PERFBENCH_PLANE_H_
#define PERFBENCH_PLANE_H_

#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common/clock.h"
#include "common/random.h"
#include "cooperation/cooperation_manager.h"
#include "rpc/invalidation.h"
#include "rpc/network.h"
#include "rpc/transactional_rpc.h"
#include "storage/repository.h"
#include "trace.h"
#include "txn/client_tm.h"
#include "txn/placement.h"
#include "txn/remote_server_stub.h"
#include "txn/server_tm.h"

namespace perfbench {

class Plane {
 public:
  struct Shard {
    concord::NodeId node;
    std::string dir;
    std::unique_ptr<concord::storage::Repository> repo;
    std::unique_ptr<concord::txn::ServerTm> tm;
  };

  struct Workstation {
    concord::NodeId node;
    std::vector<std::unique_ptr<concord::txn::RemoteServerStub>> stubs;
    std::vector<std::unique_ptr<TracedService>> traced;  // traced runs only
    std::unique_ptr<concord::txn::PlacementClient> placement;
    std::unique_ptr<concord::txn::ClientTm> client;
  };

  /// `nodes` server nodes of `partitions` executors each, repositories
  /// under `dir`/shard<i>. `traced` interposes the span decorators.
  Plane(size_t nodes, int partitions, const std::string& dir, bool traced);
  ~Plane();

  /// Opens empty repositories and starts the server-TMs and the CM.
  concord::Status Start();
  /// Restart of every server node: close the repositories, reopen them
  /// from their directories, re-stage persisted 2PC participants and
  /// recover the CM. Returns the WAL records replayed.
  concord::Result<size_t> Restart();

  /// A workstation (ClientTm) wired to every shard.
  Workstation& AddWorkstation();

  size_t node_count() const { return shards_.size(); }
  Shard& shard(size_t s) { return *shards_[s]; }
  Workstation& workstation(size_t w) { return *workstations_[w]; }
  size_t workstation_count() const { return workstations_.size(); }
  concord::cooperation::CooperationManager& cm() { return *cm_; }
  concord::rpc::Network& network() { return network_; }
  concord::rpc::TransactionalRpc& rpc() { return rpc_; }
  concord::rpc::InvalidationBus& bus() { return *bus_; }
  concord::DotId cell_dot() const { return cell_dot_; }

  /// Creates and starts a sub-DA of the design root, homed on `shard`.
  concord::Result<concord::DaId> CreateDa(size_t shard);

  /// The program's view for the output checks.
  Observed Observe();

 private:
  class CmScope : public concord::txn::ScopeAuthority {
   public:
    explicit CmScope(Plane* plane) : plane_(plane) {}
    bool InScope(concord::DaId da, concord::DovId dov) override {
      return plane_->cm_->InScope(da, dov);
    }

   private:
    Plane* plane_;
  };

  concord::Status OpenServers();
  void StopServers();

  bool traced_;
  int partitions_;
  concord::SimClock clock_;
  concord::rpc::Network network_;
  concord::rpc::TransactionalRpc rpc_;
  concord::txn::PlacementMap placement_;
  std::unique_ptr<concord::rpc::InvalidationBus> bus_;
  CmScope cm_scope_{this};
  TracedScope traced_scope_{&cm_scope_};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<concord::cooperation::CooperationManager> cm_;
  std::vector<std::unique_ptr<Workstation>> workstations_;
  concord::DaId root_da_;
  concord::DotId cell_dot_;
  concord::DotId root_dot_;
};

/// One pre-loaded design history: `count` DOVs of `da` in derivation
/// chains (DOV k derives from DOV k - `chains`), written straight into
/// the shard's repository in batched transactions, with the scope
/// ownership a history of checkins leaves. Every `propagate_stride`-th
/// DOV (0 = none) is written propagated, with a usage grant for each of
/// `grant_to` — the grant CooperationManager::Propagate would record,
/// persisted under the same `cm/grant/<dov>/<da>` key so that the CM
/// restores it at recovery.
struct PreloadSpec {
  concord::DaId da;
  size_t count = 0;
  size_t chains = 8;
  size_t propagate_stride = 0;
  std::vector<concord::DaId> grant_to;
};

/// Writes the history; returns the ids in order and fills `ledger`
/// (values drawn from `rng`).
std::vector<concord::DovId> Preload(concord::storage::Repository* repo,
                                    concord::txn::ServerLockTable* locks,
                                    concord::DotId type,
                                    const PreloadSpec& spec, concord::Rng* rng,
                                    Ledger* ledger);

/// The design object a checkin carries: one "value" attribute.
concord::storage::DesignObject MakeObject(concord::DotId type, int64_t value);
/// The "value" attribute of a design object, if it has one.
std::optional<int64_t> ValueOf(const concord::storage::DesignObject& object);

}  // namespace perfbench

#endif  // PERFBENCH_PLANE_H_
