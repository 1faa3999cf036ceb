#include "plane.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "storage/object.h"
#include "storage/schema.h"

namespace perfbench {

using concord::DaId;
using concord::DotId;
using concord::DovId;
using concord::NodeId;
using concord::Result;
using concord::Status;
namespace storage = concord::storage;
namespace txn = concord::txn;

namespace {

constexpr size_t kPreloadTxnBatch = 256;

}  // namespace

Plane::Plane(size_t nodes, int partitions, const std::string& dir, bool traced)
    : traced_(traced),
      partitions_(partitions),
      network_(&clock_, /*seed=*/1),
      rpc_(&network_) {
  for (size_t s = 0; s < nodes; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->node = network_.AddNode("server" + std::to_string(s));
    shard->dir = dir + "/shard" + std::to_string(s);
    placement_.RegisterNode(shard->node);
    shards_.push_back(std::move(shard));
  }
  placement_.SetLivenessProbe(
      [this](NodeId node) { return network_.IsUp(node); });
  txn::RegisterPlacementService(&placement_, &rpc_, shards_[0]->node);
  bus_ = std::make_unique<concord::rpc::InvalidationBus>(&network_,
                                                         shards_[0]->node);
}

Plane::~Plane() {
  workstations_.clear();
  StopServers();
}

Status Plane::OpenServers() {
  std::vector<storage::Repository*> repos;
  std::vector<txn::ServerLockTable*> lock_tables;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    shard.repo = std::make_unique<storage::Repository>(&clock_);
    shard.repo->set_dov_id_shard(static_cast<uint32_t>(s));
    // The schema of sim::ScalePlane: "cell" versions carry the value,
    // the design root is a "chip" made of cells.
    auto* cell = shard.repo->schema().DefineType("cell");
    cell->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1e9});
    auto* chip = shard.repo->schema().DefineType("chip");
    chip->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1e9});
    chip->AddPart({cell->id(), 0, 1 << 20});
    cell_dot_ = cell->id();
    root_dot_ = chip->id();
    storage::WalOptions wal;
    wal.coalesce_fsyncs = true;
    CONCORD_RETURN_NOT_OK(shard.repo->Open(shard.dir, wal));
    txn::ScopeAuthority* scope =
        traced_ ? static_cast<txn::ScopeAuthority*>(&traced_scope_)
                : &cm_scope_;
    shard.tm = std::make_unique<txn::ServerTm>(shard.repo.get(), &network_,
                                               shard.node, scope, bus_.get(),
                                               partitions_);
    if (shards_.size() > 1) shard.tm->JoinPlane(&placement_);
    if (traced_) {
      RegisterTracedServerService(shard.tm.get(), &rpc_);
    } else {
      txn::RegisterServerService(shard.tm.get(), &rpc_);
    }
    repos.push_back(shard.repo.get());
    lock_tables.push_back(&shard.tm->locks());
  }
  cm_ = std::make_unique<concord::cooperation::CooperationManager>(
      storage::RepositoryRouter(std::move(repos)),
      txn::LockRouter(std::move(lock_tables)), &placement_, &clock_);
  cm_->SetEventSink([](DaId, const concord::workflow::Event&) {});
  // Withdrawals push to every workstation cache from the node owning
  // the DOV (the ConcordSystem wiring).
  cm_->SetWithdrawalSink([this](DaId da, DovId dov, bool invalidated,
                                DovId replacement) {
    concord::rpc::InvalidationMessage message;
    message.kind = invalidated
                       ? concord::rpc::InvalidationMessage::Kind::kInvalidated
                       : concord::rpc::InvalidationMessage::Kind::kWithdrawn;
    message.dov = dov;
    message.origin_da = da;
    message.replacement = replacement;
    message.origin_node =
        shards_[concord::DovShardClamped(dov, shards_.size())]->node;
    bus_->Publish(message);
  });
  return Status::OK();
}

void Plane::StopServers() {
  cm_.reset();
  for (auto& shard : shards_) {
    shard->tm.reset();
    if (shard->repo) shard->repo->Close();
    shard->repo.reset();
    rpc_.ClearNodeState(shard->node);
  }
}

Status Plane::Start() {
  CONCORD_RETURN_NOT_OK(OpenServers());
  concord::cooperation::DaDescription root;
  root.dot = root_dot_;
  root.designer = concord::DesignerId(1);
  root.workstation = shards_[0]->node;
  CONCORD_ASSIGN_OR_RETURN(root_da_, cm_->InitDesign(root));
  return cm_->Start(root_da_);
}

Result<size_t> Plane::Restart() {
  StopServers();
  CONCORD_RETURN_NOT_OK(OpenServers());
  size_t replayed = 0;
  for (auto& shard : shards_) {
    shard->tm->RestagePreparedFromStable();
    replayed += shard->repo->wal().size();
  }
  CONCORD_RETURN_NOT_OK(cm_->Recover());
  return replayed;
}

Result<DaId> Plane::CreateDa(size_t shard) {
  concord::cooperation::DaDescription desc;
  desc.dot = cell_dot_;
  desc.designer = concord::DesignerId(2 + cm_->AllDas().size());
  desc.workstation = shards_[0]->node;
  CONCORD_ASSIGN_OR_RETURN(DaId da, cm_->CreateSubDa(root_da_, desc));
  CONCORD_RETURN_NOT_OK(cm_->Start(da));
  CONCORD_RETURN_NOT_OK(placement_.Assign(da, shards_[shard]->node));
  return da;
}

Plane::Workstation& Plane::AddWorkstation() {
  auto ws = std::make_unique<Workstation>();
  ws->node = network_.AddNode("ws" + std::to_string(workstations_.size()));
  std::vector<std::pair<NodeId, txn::ServerService*>> routes;
  for (auto& shard : shards_) {
    ws->stubs.push_back(
        std::make_unique<txn::RemoteServerStub>(&rpc_, ws->node, shard->node));
    txn::ServerService* service = ws->stubs.back().get();
    if (traced_) {
      ws->traced.push_back(std::make_unique<TracedService>(service));
      service = ws->traced.back().get();
    }
    routes.emplace_back(shard->node, service);
  }
  ws->placement = std::make_unique<txn::PlacementClient>(&rpc_, ws->node,
                                                         shards_[0]->node);
  ws->client = std::make_unique<txn::ClientTm>(
      txn::ShardRouter(std::move(routes), ws->placement.get()), &network_,
      ws->node, &clock_, bus_.get());
  workstations_.push_back(std::move(ws));
  return *workstations_.back();
}

Observed Plane::Observe() {
  Observed observed;
  observed.get = [this](DovId dov) -> std::optional<ObservedDov> {
    Shard& shard = *shards_[concord::DovShardClamped(dov, shards_.size())];
    auto record = shard.repo->Get(dov);
    if (!record.ok()) return std::nullopt;
    return ObservedDov{record->owner_da, ValueOf(record->data).value_or(-1),
                       record->predecessors};
  };
  observed.dovs_of = [this](DaId da) {
    size_t count = 0;
    for (auto& shard : shards_) count += shard->repo->DovsOf(da).size();
    return count;
  };
  for (auto& shard : shards_) {
    observed.prepared_per_shard.push_back(shard->tm->PreparedTxns().size());
  }
  return observed;
}

std::vector<DovId> Preload(storage::Repository* repo,
                           txn::ServerLockTable* locks, DotId type,
                           const PreloadSpec& spec, concord::Rng* rng,
                           Ledger* ledger) {
  std::vector<DovId> ids;
  ids.reserve(spec.count);
  auto must = [](const Status& status, const char* what) {
    if (status.ok()) return;
    std::fprintf(stderr, "pre-load %s failed: %s\n", what,
                 status.ToString().c_str());
    std::abort();
  };
  concord::TxnId txn = repo->Begin();
  for (size_t k = 0; k < spec.count; ++k) {
    storage::DovRecord record;
    record.id = repo->NextDovId();
    record.owner_da = spec.da;
    record.type = type;
    int64_t value = rng->Uniform(0, 999999999);
    record.data = MakeObject(type, value);
    if (k >= spec.chains) record.predecessors = {ids[k - spec.chains]};
    bool propagated =
        spec.propagate_stride != 0 && k % spec.propagate_stride == 0;
    record.propagated = propagated;
    DovId id = record.id;
    ledger->preload[id.value()] =
        LedgerDov{spec.da, value, record.predecessors};
    must(repo->Put(txn, std::move(record)), "put");
    locks->SetScopeOwner(id, spec.da);
    if (propagated) {
      for (DaId requirer : spec.grant_to) {
        locks->GrantUsageRead(id, requirer);
        must(repo->PutMeta(txn,
                           "cm/grant/" + std::to_string(id.value()) + "/" +
                               std::to_string(requirer.value()),
                           "1"),
             "grant");
      }
    }
    ids.push_back(id);
    if ((k + 1) % kPreloadTxnBatch == 0) {
      must(repo->Commit(txn), "commit");
      txn = repo->Begin();
    }
  }
  must(repo->Commit(txn), "commit");
  return ids;
}

storage::DesignObject MakeObject(DotId type, int64_t value) {
  storage::DesignObject object(type);
  object.SetAttr("value", value);
  return object;
}

std::optional<int64_t> ValueOf(const storage::DesignObject& object) {
  auto value = object.GetAttr("value");
  if (!value.ok() || !value->is_int()) return std::nullopt;
  return value->as_int();
}

}  // namespace perfbench
