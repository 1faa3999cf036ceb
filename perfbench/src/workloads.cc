#include "workloads.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "checks.h"
#include "common/random.h"
#include "net/address.h"
#include "net/net_server_service.h"
#include "net/rpc_client.h"
#include "plane.h"
#include "tools/plane_schema.h"

extern char** environ;

namespace perfbench {
namespace {

using concord::DaId;
using concord::DopId;
using concord::DovId;
using concord::NodeId;
using concord::Result;
using concord::Rng;
using concord::Status;
namespace txn = concord::txn;

using ValueMap = std::unordered_map<uint64_t, int64_t>;

constexpr size_t kFailureLogCap = 5;

// --- Shared pieces ------------------------------------------------------

double UsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e3; }

bool Fail(WsSamples* out, const char* what, const Status& status) {
  if (out->failed++ < kFailureLogCap) {
    std::fprintf(stderr, "DOP failed at %s: %s\n", what,
                 status.ToString().c_str());
  }
  return false;
}

void NoteCheck(WsSamples* out, std::vector<std::string> messages) {
  for (std::string& message : messages) {
    if (out->check_failures.size() < kCheckMessageCap) {
      out->check_failures.push_back(std::move(message));
    }
  }
}

/// Benchmark-side DOP id shared by all spans of one DOP.
uint64_t TraceDopId(size_t ws, uint64_t* seq) {
  return (static_cast<uint64_t>(ws + 1) << 40) | ++*seq;
}

/// One ClientTm::Checkout, timed into `sink` (null: not measured), and
/// the served value compared with the ledger's.
bool Checkout(txn::ClientTm& client, DopId dop, DovId dov, bool lock,
              const ValueMap& values, std::vector<double>* sink,
              WsSamples* out) {
  int64_t start = NowNs();
  Status status = [&] {
    ScopedSpan span(SpanKind::kCheckout, lock ? kFlagLocking : 0);
    return client.Checkout(dop, dov, lock);
  }();
  if (sink != nullptr) sink->push_back(UsSince(start));
  if (!status.ok()) return Fail(out, "checkout", status);
  auto input = client.Input(dop, dov);
  auto wrote = values.find(dov.value());
  std::optional<int64_t> served;
  if (input.ok()) served = ValueOf(*input);
  NoteCheck(out, CheckCheckoutValue(
                     dov,
                     wrote == values.end() ? std::nullopt
                                           : std::optional<int64_t>(wrote->second),
                     served));
  return true;
}

/// A designer's own DA and its recent history (dop_commit and
/// socket_commit).
struct DesignWs {
  DaId da;
  DovId newest;
  std::deque<DovId> recent;  // last kRecent versions, newest at the back
  ValueMap values;
  Rng rng{1};
  uint64_t trace_seq = 0;
  std::vector<std::pair<uint64_t, LedgerDov>> commits;

  static constexpr size_t kRecent = 64;

  void Committed(DovId dov, int64_t value, std::vector<DovId> preds) {
    values[dov.value()] = value;
    commits.emplace_back(dov.value(), LedgerDov{da, value, std::move(preds)});
    newest = dov;
    recent.push_back(dov);
    if (recent.size() > kRecent) recent.pop_front();
  }
};

/// The commit DOP: Begin, checkout of the DA's newest version under a
/// derivation lock, checkout of one earlier version among its last 64
/// (the cache-resident working set), then CheckinCommit with both as
/// predecessors.
void RunCommitDop(txn::ClientTm& client, DesignWs& st, concord::DotId type,
                  size_t ws, WsSamples* out) {
  ++out->attempted;
  SetCurrentDop(TraceDopId(ws, &st.trace_seq));
  int64_t start = NowNs();
  ScopedSpan dop_span(SpanKind::kDop, kFlagMeasured);
  Result<DopId> dop = [&] {
    ScopedSpan span(SpanKind::kBegin);
    return client.BeginDop(st.da);
  }();
  if (!dop.ok()) {
    Fail(out, "BeginDop", dop.status());
    return;
  }
  // The back of `recent` is `newest`.
  std::vector<DovId> inputs{st.newest,
                            st.recent[st.rng.Index(st.recent.size() - 1)]};
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!Checkout(client, *dop, inputs[i], i == 0, st.values,
                  &out->checkout_us, out)) {
      client.AbortDop(*dop).ok();
      return;
    }
  }
  int64_t value = st.rng.Uniform(0, 999999999);
  int64_t commit_start = NowNs();
  Result<DovId> dov = [&] {
    ScopedSpan span(SpanKind::kCommit);
    return client.CheckinCommit(*dop, MakeObject(type, value), inputs);
  }();
  out->commit_us.push_back(UsSince(commit_start));
  if (!dov.ok()) {
    Fail(out, "CheckinCommit", dov.status());
    client.AbortDop(*dop).ok();
    return;
  }
  out->dop_us.push_back(UsSince(start));
  ++out->committed;
  st.Committed(*dov, value, std::move(inputs));
}

/// Begins a DOP of `da`, checks out `dov` (a version never propagated
/// to `da`) and expects a refusal. Not counted among the DOPs.
std::vector<std::string> ProbeRefused(txn::ClientTm& client, DaId da,
                                      DovId dov) {
  auto dop = client.BeginDop(da);
  if (!dop.ok()) return {"probe DOP could not begin: " + dop.status().ToString()};
  Status status = client.Checkout(*dop, dov, false);
  client.AbortDop(*dop).ok();
  if (status.ok()) {
    return {"probe checkout of DOV " + std::to_string(dov.value()) +
            ", never propagated to DA " + std::to_string(da.value()) +
            ", was served"};
  }
  return {};
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return bytes;
}

/// One kB field of a process's /proc status, in MiB.
double MemoryMbOf(const std::string& pid, const std::string& field) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  std::string prefix = field + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// A plain history: chains, no propagation.
PreloadSpec HistoryOf(DaId da, size_t count) {
  PreloadSpec spec;
  spec.da = da;
  spec.count = count;
  return spec;
}

void Merge(Ledger* into, Ledger&& from) {
  into->preload.merge(from.preload);
  for (auto& commit : from.commits) into->commits.push_back(std::move(commit));
}

// --- In-process workloads ------------------------------------------------

class InProcessWorkload : public Workload {
 public:
  InProcessWorkload(const Options& options, size_t nodes, int partitions)
      : options_(options), plane_(nodes, partitions, options.dir, options.traced) {}

  Result<size_t> Restart() override { return plane_.Restart(); }

  Counters Read() override {
    Counters c;
    c.calls = plane_.rpc().stats().calls.load();
    c.retries = plane_.rpc().stats().retries.load();
    c.messages = plane_.network().stats().messages_sent;
    c.deliveries = plane_.bus().stats().deliveries;
    for (size_t w = 0; w < plane_.workstation_count(); ++w) {
      c.cache_hits += plane_.workstation(w).client->cache().stats().hits.load();
    }
    for (size_t s = 0; s < plane_.node_count(); ++s) {
      Plane::Shard& shard = plane_.shard(s);
      c.wal_flushes += shard.repo->wal().flushes();
      c.wal_bytes += DirBytes(shard.dir);
      for (size_t p = 0; p < shard.tm->partition_count(); ++p) {
        txn::ServerTmStats st = shard.tm->partition_stats(p);
        c.partition_ops.push_back(st.checkouts + st.checkins + st.dops_begun +
                                  st.dops_committed + st.dops_aborted +
                                  st.txns_prepared + st.txns_decided_commit +
                                  st.txns_decided_abort);
        c.queue_high_water =
            std::max(c.queue_high_water,
                     shard.tm->partition_queue_stats(p).queue_high_water);
      }
    }
    return c;
  }

  double MemoryMb(const std::string& field) override {
    return MemoryMbOf("self", field);
  }

  std::vector<TracedService*> Decorators() override {
    std::vector<TracedService*> all;
    for (size_t w = 0; w < plane_.workstation_count(); ++w) {
      for (auto& traced : plane_.workstation(w).traced) {
        all.push_back(traced.get());
      }
    }
    return all;
  }

 protected:
  /// The ledger checks against the plane, plus the workload's probe.
  std::vector<std::string> VerifyPlane(DaId probe_da, DovId probe_dov) {
    std::vector<std::string> failures =
        ProbeRefused(*plane_.workstation(0).client, probe_da, probe_dov);
    for (std::string& message : RunLedgerChecks(ledger_, plane_.Observe())) {
      failures.push_back(std::move(message));
    }
    return failures;
  }

  Options options_;
  Plane plane_;
  Ledger ledger_;
};

/// dop_commit: one node, four partitions; each workstation commits
/// derivations in its own DA (write path, lock table, WAL).
class DopCommit : public InProcessWorkload {
 public:
  explicit DopCommit(const Options& options)
      : InProcessWorkload(options, /*nodes=*/1, /*partitions=*/4) {}

  static constexpr size_t kPreloadPerDa = 3000;
  static constexpr size_t kWarmupRounds = 64;

  Status Setup() override {
    CONCORD_RETURN_NOT_OK(plane_.Start());
    for (size_t w = 0; w < kWorkstations; ++w) {
      CONCORD_ASSIGN_OR_RETURN(DaId da, plane_.CreateDa(0));
      ws_[w].da = da;
      ws_[w].rng = Rng(options_.seed * 1000003 + w);
    }
    Plane::Shard& shard = plane_.shard(0);
    std::vector<std::thread> loaders;
    std::vector<Ledger> ledgers(kWorkstations);
    for (size_t w = 0; w < kWorkstations; ++w) {
      loaders.emplace_back([&, w] {
        Rng rng(options_.seed * 7919 + w);
        PreloadSpec spec = HistoryOf(ws_[w].da, kPreloadPerDa);
        std::vector<DovId> ids = Preload(shard.repo.get(), &shard.tm->locks(),
                                         plane_.cell_dot(), spec, &rng,
                                         &ledgers[w]);
        for (const auto& [id, entry] : ledgers[w].preload) {
          ws_[w].values[id] = entry.value;
        }
        ws_[w].newest = ids.back();
        ws_[w].recent.assign(ids.end() - DesignWs::kRecent, ids.end());
      });
    }
    for (auto& loader : loaders) loader.join();
    for (auto& ledger : ledgers) Merge(&ledger_, std::move(ledger));
    return Status::OK();
  }

  Status Prepare() override {
    for (size_t w = 0; w < kWorkstations; ++w) plane_.AddWorkstation();
    WsSamples warmup;
    for (size_t w = 0; w < kWorkstations; ++w) {
      for (size_t r = 0; r < kWarmupRounds; ++r) Round(w, &warmup);
    }
    return warmup.failed == 0 ? Status::OK()
                              : Status::Internal("warm-up DOPs failed");
  }

  void Round(size_t w, WsSamples* out) override {
    RunCommitDop(*plane_.workstation(w).client, ws_[w], plane_.cell_dot(), w,
                 out);
  }

  std::vector<std::string> Verify() override {
    for (auto& st : ws_) {
      for (auto& commit : st.commits) ledger_.commits.push_back(commit);
    }
    // Workstation 0's DA asks for a version of workstation 1's DA.
    return VerifyPlane(ws_[0].da, *ws_[1].recent.begin());
  }

 private:
  DesignWs ws_[kWorkstations];
};

/// review_scan: one node, four partitions; reviewers read propagated
/// versions of 64 designer DAs, Zipf-skewed over a pool far larger than
/// the workstation DOV cache (read path, cache, CM scope test).
class ReviewScan : public InProcessWorkload {
 public:
  explicit ReviewScan(const Options& options)
      : InProcessWorkload(options, /*nodes=*/1, /*partitions=*/4) {}

  static constexpr size_t kDesigners = 64;
  static constexpr size_t kPreloadPerDa = 4688;  // 300,032 DOVs in all
  static constexpr size_t kPropagateStride = 5;  // 938 propagated per DA
  static constexpr size_t kCheckoutsPerDop = 8;
  static constexpr double kZipfExponent = 1.0;
  static constexpr size_t kWarmupRounds = 300;

  Status Setup() override {
    CONCORD_RETURN_NOT_OK(plane_.Start());
    std::vector<DaId> designers;
    std::vector<DaId> reviewers;
    for (size_t d = 0; d < kDesigners; ++d) {
      CONCORD_ASSIGN_OR_RETURN(DaId da, plane_.CreateDa(0));
      designers.push_back(da);
    }
    for (size_t w = 0; w < kWorkstations; ++w) {
      CONCORD_ASSIGN_OR_RETURN(DaId da, plane_.CreateDa(0));
      reviewers.push_back(da);
      ws_[w].rng = Rng(options_.seed * 1000003 + w);
      // One direction only: the reviewer requires each designer.
      for (DaId designer : designers) {
        CONCORD_RETURN_NOT_OK(plane_.cm().Require(da, designer, {}));
      }
    }
    for (size_t w = 0; w < kWorkstations; ++w) ws_[w].da = reviewers[w];

    Plane::Shard& shard = plane_.shard(0);
    std::vector<std::thread> loaders;
    std::vector<Ledger> ledgers(kDesigners);
    std::vector<std::vector<DovId>> ids(kDesigners);
    for (size_t t = 0; t < kWorkstations; ++t) {
      loaders.emplace_back([&, t] {
        for (size_t d = t; d < kDesigners; d += kWorkstations) {
          Rng rng(options_.seed * 7919 + d);
          PreloadSpec spec = HistoryOf(designers[d], kPreloadPerDa);
          spec.propagate_stride = kPropagateStride;
          spec.grant_to = reviewers;
          ids[d] = Preload(shard.repo.get(), &shard.tm->locks(),
                           plane_.cell_dot(), spec, &rng, &ledgers[d]);
        }
      });
    }
    for (auto& loader : loaders) loader.join();
    for (size_t d = 0; d < kDesigners; ++d) {
      for (size_t k = 0; k < ids[d].size(); k += kPropagateStride) {
        pool_.push_back(ids[d][k]);
      }
      Merge(&ledger_, std::move(ledgers[d]));
    }
    for (const auto& [id, entry] : ledger_.preload) values_[id] = entry.value;
    probe_dov_ = ids[0][1];  // 1 % kPropagateStride != 0: never propagated

    // Zipf ranks over a seeded permutation of the propagated pool.
    Rng rng(options_.seed);
    std::shuffle(pool_.begin(), pool_.end(), rng.engine());
    zipf_cdf_.resize(pool_.size());
    double total = 0.0;
    for (size_t i = 0; i < pool_.size(); ++i) {
      total += std::pow(static_cast<double>(i + 1), -kZipfExponent);
      zipf_cdf_[i] = total;
    }
    for (double& entry : zipf_cdf_) entry /= total;
    return Status::OK();
  }

  Status Prepare() override {
    for (size_t w = 0; w < kWorkstations; ++w) plane_.AddWorkstation();
    WsSamples warmup;
    for (size_t w = 0; w < kWorkstations; ++w) {
      for (size_t r = 0; r < kWarmupRounds; ++r) Round(w, &warmup);
    }
    return warmup.failed == 0 ? Status::OK()
                              : Status::Internal("warm-up DOPs failed");
  }

  void Round(size_t w, WsSamples* out) override {
    ReviewWs& st = ws_[w];
    txn::ClientTm& client = *plane_.workstation(w).client;
    ++out->attempted;
    SetCurrentDop(TraceDopId(w, &st.trace_seq));
    int64_t start = NowNs();
    ScopedSpan dop_span(SpanKind::kDop, kFlagMeasured);
    Result<DopId> dop = [&] {
      ScopedSpan span(SpanKind::kBegin);
      return client.BeginDop(st.da);
    }();
    if (!dop.ok()) {
      Fail(out, "BeginDop", dop.status());
      return;
    }
    for (size_t i = 0; i < kCheckoutsPerDop; ++i) {
      double draw = st.rng.NextDouble();
      size_t rank = std::min<size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), draw) -
              zipf_cdf_.begin(),
          pool_.size() - 1);
      if (!Checkout(client, *dop, pool_[rank], false, values_,
                    &out->checkout_us, out)) {
        client.AbortDop(*dop).ok();
        return;
      }
    }
    int64_t commit_start = NowNs();
    Status committed = [&] {
      ScopedSpan span(SpanKind::kCommit);
      return client.CommitDop(*dop);
    }();
    out->commit_us.push_back(UsSince(commit_start));
    if (!committed.ok()) {
      Fail(out, "CommitDop", committed);
      return;
    }
    out->dop_us.push_back(UsSince(start));
    ++out->committed;
  }

  std::vector<std::string> Verify() override {
    return VerifyPlane(ws_[0].da, probe_dov_);
  }

 private:
  struct ReviewWs {
    DaId da;
    Rng rng{1};
    uint64_t trace_seq = 0;
  };

  ReviewWs ws_[kWorkstations];
  std::vector<DovId> pool_;
  std::vector<double> zipf_cdf_;
  ValueMap values_;
  DovId probe_dov_;
};

/// cross_shard_commit: four nodes of one partition; workstation i
/// commits in a_i (home shard i) from its own newest version and the
/// version supporter b_i (home shard i+1) just propagated, so every
/// measured commit is a two-participant 2PC.
class CrossShardCommit : public InProcessWorkload {
 public:
  explicit CrossShardCommit(const Options& options)
      : InProcessWorkload(options, /*nodes=*/4, /*partitions=*/1) {}

  static constexpr size_t kPreloadPerDa = 12500;  // 100,000 DOVs in all
  static constexpr size_t kPropagatedWindow = 4;  // withdrawn 4 rounds later
  static constexpr size_t kWarmupRounds = 16;

  Status Setup() override {
    CONCORD_RETURN_NOT_OK(plane_.Start());
    for (size_t i = 0; i < kWorkstations; ++i) {
      CONCORD_ASSIGN_OR_RETURN(ws_[i].a, plane_.CreateDa(i));
      CONCORD_ASSIGN_OR_RETURN(ws_[i].b,
                               plane_.CreateDa((i + 1) % kWorkstations));
      CONCORD_RETURN_NOT_OK(plane_.cm().Require(ws_[i].a, ws_[i].b, {}));
      ws_[i].rng = Rng(options_.seed * 1000003 + i);
    }
    // One loader per shard: shard s holds a_s and b_{s-1}.
    std::vector<std::thread> loaders;
    std::vector<Ledger> ledgers(kWorkstations);
    std::vector<std::vector<DovId>> a_ids(kWorkstations), b_ids(kWorkstations);
    for (size_t s = 0; s < kWorkstations; ++s) {
      loaders.emplace_back([&, s] {
        Plane::Shard& shard = plane_.shard(s);
        size_t prev = (s + kWorkstations - 1) % kWorkstations;
        Rng rng(options_.seed * 7919 + s);
        a_ids[s] = Preload(shard.repo.get(), &shard.tm->locks(),
                           plane_.cell_dot(), HistoryOf(ws_[s].a, kPreloadPerDa),
                           &rng, &ledgers[s]);
        b_ids[prev] = Preload(shard.repo.get(), &shard.tm->locks(),
                              plane_.cell_dot(),
                              HistoryOf(ws_[prev].b, kPreloadPerDa), &rng,
                              &ledgers[s]);
      });
    }
    for (auto& loader : loaders) loader.join();
    for (auto& ledger : ledgers) Merge(&ledger_, std::move(ledger));
    for (size_t i = 0; i < kWorkstations; ++i) {
      CrossWs& st = ws_[i];
      st.a_newest = a_ids[i].back();
      st.b_newest = b_ids[i].back();
      for (const auto& [id, entry] : ledger_.preload) {
        if (entry.da == st.a || entry.da == st.b) st.values[id] = entry.value;
      }
      // The window of versions b_i has out, propagated through the CM.
      for (size_t k = kPropagatedWindow; k > 0; --k) {
        DovId dov = b_ids[i][b_ids[i].size() - 1 - k];
        CONCORD_RETURN_NOT_OK(plane_.cm().Propagate(st.b, dov));
        st.propagated.push_back(dov);
      }
    }
    probe_dov_ = b_ids[1].front();  // b_1's: a_0 neither requires b_1 nor sees it
    return Status::OK();
  }

  Status Prepare() override {
    for (size_t w = 0; w < kWorkstations; ++w) plane_.AddWorkstation();
    WsSamples warmup;
    for (size_t w = 0; w < kWorkstations; ++w) {
      for (size_t r = 0; r < kWarmupRounds; ++r) Round(w, &warmup);
    }
    return warmup.failed == 0 ? Status::OK()
                              : Status::Internal("warm-up rounds failed");
  }

  void Round(size_t w, WsSamples* out) override {
    CrossWs& st = ws_[w];
    txn::ClientTm& client = *plane_.workstation(w).client;
    auto& cm = plane_.cm();

    // The supporter: a new version of b_i, propagated; the version it
    // propagated kPropagatedWindow rounds earlier is withdrawn.
    ++out->attempted;
    SetCurrentDop(TraceDopId(w, &st.trace_seq));
    DovId fresh;
    {
      ScopedSpan dop_span(SpanKind::kDop);
      auto dop = client.BeginDop(st.b);
      if (!dop.ok()) {
        Fail(out, "supporter BeginDop", dop.status());
        return;
      }
      if (!Checkout(client, *dop, st.b_newest, true, st.values, nullptr, out)) {
        client.AbortDop(*dop).ok();
        return;
      }
      int64_t value = st.rng.Uniform(0, 999999999);
      Result<DovId> dov = [&] {
        ScopedSpan span(SpanKind::kCheckin);
        return client.CheckinCommit(*dop, MakeObject(plane_.cell_dot(), value),
                                    {st.b_newest});
      }();
      if (!dov.ok()) {
        Fail(out, "supporter CheckinCommit", dov.status());
        client.AbortDop(*dop).ok();
        return;
      }
      ++out->committed;
      st.Committed(st.b, *dov, value, {st.b_newest});
      st.b_newest = fresh = *dov;
    }
    Status propagated = [&] {
      ScopedSpan span(SpanKind::kPropagate);
      return cm.Propagate(st.b, fresh);
    }();
    if (!propagated.ok()) {
      Fail(out, "Propagate", propagated);
      return;
    }
    st.propagated.push_back(fresh);
    Status withdrawn = [&] {
      ScopedSpan span(SpanKind::kWithdraw);
      return cm.WithdrawPropagation(st.b, st.propagated.front());
    }();
    if (!withdrawn.ok()) {
      Fail(out, "WithdrawPropagation", withdrawn);
      return;
    }
    st.propagated.pop_front();

    // The measured DOP of a_i: its own newest version under a
    // derivation lock, b_i's fresh version from the other shard, and a
    // CheckinCommit that runs two-participant 2PC.
    ++out->attempted;
    SetCurrentDop(TraceDopId(w, &st.trace_seq));
    int64_t start = NowNs();
    ScopedSpan dop_span(SpanKind::kDop, kFlagMeasured);
    Result<DopId> dop = [&] {
      ScopedSpan span(SpanKind::kBegin);
      return client.BeginDop(st.a);
    }();
    if (!dop.ok()) {
      Fail(out, "BeginDop", dop.status());
      return;
    }
    std::vector<DovId> inputs{st.a_newest, fresh};
    for (size_t i = 0; i < inputs.size(); ++i) {
      if (!Checkout(client, *dop, inputs[i], i == 0, st.values,
                    &out->checkout_us, out)) {
        client.AbortDop(*dop).ok();
        return;
      }
    }
    int64_t value = st.rng.Uniform(0, 999999999);
    int64_t commit_start = NowNs();
    Result<DovId> dov = [&] {
      ScopedSpan span(SpanKind::kCommit);
      return client.CheckinCommit(*dop, MakeObject(plane_.cell_dot(), value),
                                  inputs);
    }();
    out->commit_us.push_back(UsSince(commit_start));
    if (!dov.ok()) {
      Fail(out, "CheckinCommit", dov.status());
      client.AbortDop(*dop).ok();
      return;
    }
    out->dop_us.push_back(UsSince(start));
    ++out->committed;
    st.Committed(st.a, *dov, value, std::move(inputs));
    st.a_newest = *dov;
  }

  std::vector<std::string> Verify() override {
    for (auto& st : ws_) {
      for (auto& commit : st.commits) ledger_.commits.push_back(commit);
    }
    return VerifyPlane(ws_[0].a, probe_dov_);
  }

 private:
  struct CrossWs {
    DaId a;
    DaId b;
    DovId a_newest;
    DovId b_newest;
    std::deque<DovId> propagated;
    ValueMap values;
    Rng rng{1};
    uint64_t trace_seq = 0;
    std::vector<std::pair<uint64_t, LedgerDov>> commits;

    void Committed(DaId da, DovId dov, int64_t value,
                   std::vector<DovId> preds) {
      values[dov.value()] = value;
      commits.emplace_back(dov.value(), LedgerDov{da, value, std::move(preds)});
    }
  };

  CrossWs ws_[kWorkstations];
  DovId probe_dov_;
};

// --- socket_commit ----------------------------------------------------------

/// A concordd child process and the pipe its stdout handshake arrives on.
struct Server {
  pid_t pid = -1;
  int out_fd = -1;
};

constexpr int kServerStartTimeoutMs = 60000;

/// Starts concordd and waits for READY; `restaged` gets its RESTAGED count.
Result<Server> StartServer(const std::vector<std::string>& argv,
                           size_t* restaged) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  Server server;
  int rc = posix_spawn(&server.pid, args[0], &actions, nullptr, args.data(),
                       environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return Status::Internal("cannot start " + argv[0]);
  }
  server.out_fd = fds[0];
  std::string buffer;
  int64_t deadline = NowNs() + int64_t{kServerStartTimeoutMs} * 1000000;
  while (NowNs() < deadline) {
    pollfd pfd{server.out_fd, POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) continue;
    char chunk[256];
    ssize_t n = read(server.out_fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos = buffer.find("RESTAGED ");
    if (pos != std::string::npos && restaged != nullptr) {
      *restaged = std::strtoull(buffer.c_str() + pos + 9, nullptr, 10);
    }
    if (buffer.find("READY\n") != std::string::npos) return server;
  }
  kill(server.pid, SIGKILL);
  waitpid(server.pid, nullptr, 0);
  close(server.out_fd);
  return Status::Internal("concordd did not become READY: " + buffer);
}

void StopServer(Server* server, int signo) {
  if (server->pid <= 0) return;
  kill(server->pid, signo);
  waitpid(server->pid, nullptr, 0);
  close(server->out_fd);
  server->pid = -1;
}

/// socket_commit: the dop_commit DOP mix against one concordd process
/// over a Unix-domain socket, one RpcChannel per workstation.
class SocketCommit : public Workload {
 public:
  explicit SocketCommit(const Options& options)
      : options_(options), server_node_(network_.AddNode("concordd")) {}

  ~SocketCommit() override {
    workstations_.clear();
    StopServer(&server_, SIGKILL);
  }

  static constexpr size_t kPreloadPerDa = 3000;
  static constexpr size_t kWarmupRounds = 64;

  Status Setup() override {
    storage_dir_ = options_.dir + "/concordd";
    concord::storage::Repository repo(&clock_);
    repo.set_dov_id_shard(0);
    dot_ = concord::tools::DefinePlaneSchema(&repo.schema());
    concord::storage::WalOptions wal;
    wal.coalesce_fsyncs = true;
    CONCORD_RETURN_NOT_OK(repo.Open(storage_dir_, wal));
    for (size_t w = 0; w < kWorkstations; ++w) {
      ws_[w].da = DaId(100 + w);
      ws_[w].rng = Rng(options_.seed * 1000003 + w);
      Rng rng(options_.seed * 7919 + w);
      Ledger ledger;
      // No server-TM here: scope locks live in concordd's own tables.
      concord::txn::ServerLockTable locks(1);
      std::vector<DovId> ids = Preload(&repo, &locks, dot_,
                                       HistoryOf(ws_[w].da, kPreloadPerDa),
                                       &rng, &ledger);
      for (const auto& [id, entry] : ledger.preload) {
        ws_[w].values[id] = entry.value;
      }
      ws_[w].newest = ids.back();
      ws_[w].recent.assign(ids.end() - DesignWs::kRecent, ids.end());
      Merge(&ledger_, std::move(ledger));
    }
    wal_records_ = repo.wal().size();
    repo.Close();
    return Launch(nullptr);
  }

  Result<size_t> Restart() override {
    StopServer(&server_, SIGKILL);
    CONCORD_RETURN_NOT_OK(Launch(nullptr));
    return wal_records_;
  }

  Status Prepare() override {
    for (size_t w = 0; w < kWorkstations; ++w) {
      auto ws = std::make_unique<Station>();
      ws->node = network_.AddNode("ws" + std::to_string(w));
      CONCORD_ASSIGN_OR_RETURN(concord::net::Address address,
                               concord::net::Address::Parse(kSocket));
      ws->channel = std::make_shared<concord::net::RpcChannel>(100 + w, address);
      ws->service = std::make_unique<concord::net::NetServerService>(
          server_node_, ws->channel);
      txn::ServerService* service = ws->service.get();
      if (options_.traced) {
        ws->traced = std::make_unique<TracedService>(service);
        service = ws->traced.get();
      }
      ws->client = std::make_unique<txn::ClientTm>(service, &network_, ws->node,
                                                   &clock_);
      workstations_.push_back(std::move(ws));
    }
    WsSamples warmup;
    for (size_t w = 0; w < kWorkstations; ++w) {
      for (size_t r = 0; r < kWarmupRounds; ++r) Round(w, &warmup);
    }
    return warmup.failed == 0 ? Status::OK()
                              : Status::Internal("warm-up DOPs failed");
  }

  void Round(size_t w, WsSamples* out) override {
    RunCommitDop(*workstations_[w]->client, ws_[w], dot_, w, out);
  }

  std::vector<std::string> Verify() override {
    for (auto& st : ws_) {
      for (auto& commit : st.commits) ledger_.commits.push_back(commit);
    }
    // A graceful stop and a restart: RESTAGED counts the prepared
    // stages the server persisted, admin/dump_da lists each DA's DOVs.
    workstations_.clear();
    StopServer(&server_, SIGTERM);
    size_t restaged = 0;
    Status launched = Launch(&restaged);
    if (!launched.ok()) return {launched.ToString()};
    std::unordered_map<uint64_t, ObservedDov> dovs;
    std::unordered_map<uint64_t, size_t> per_da;
    {
      auto address = concord::net::Address::Parse(kSocket);
      concord::net::RpcChannel channel(900, *address);
      for (const DesignWs& st : ws_) {
        auto dump = channel.Call("admin/dump_da", std::to_string(st.da.value()));
        if (!dump.ok()) return {"admin/dump_da failed: " + dump.status().ToString()};
        std::istringstream lines(*dump);
        uint64_t id = 0;
        int64_t value = 0;
        while (lines >> id >> value) {
          dovs[id] = ObservedDov{st.da, value, {}};
          ++per_da[st.da.value()];
        }
      }
      channel.Shutdown();
    }
    StopServer(&server_, SIGTERM);
    Observed observed;
    observed.get = [&](DovId dov) -> std::optional<ObservedDov> {
      auto it = dovs.find(dov.value());
      if (it == dovs.end()) return std::nullopt;
      return it->second;
    };
    observed.dovs_of = [&](DaId da) { return per_da[da.value()]; };
    observed.prepared_per_shard = {restaged};
    observed.has_preds = false;
    return RunLedgerChecks(ledger_, observed);
  }

  Counters Read() override {
    Counters c;
    for (auto& ws : workstations_) {
      concord::net::RpcChannelStats stats = ws->channel->stats();
      c.calls += stats.calls;
      c.retries += stats.retries;
      c.reconnects += stats.reconnects;
      c.cache_hits += ws->client->cache().stats().hits.load();
    }
    c.messages = 2 * c.calls;  // one request and one reply frame per call
    c.wal_bytes = DirBytes(storage_dir_);
    return c;
  }

  double MemoryMb(const std::string& field) override {
    return MemoryMbOf(std::to_string(server_.pid), field);
  }

  std::vector<TracedService*> Decorators() override {
    std::vector<TracedService*> all;
    for (auto& ws : workstations_) {
      if (ws->traced) all.push_back(ws->traced.get());
    }
    return all;
  }

  bool InProcess() const override { return false; }

 private:
  // Relative to the run directory (the working directory), which keeps
  // the path inside the sockaddr_un limit wherever the checkout lives.
  static constexpr const char* kSocket = "unix:concordd.sock";

  struct Station {
    NodeId node;
    std::shared_ptr<concord::net::RpcChannel> channel;
    std::unique_ptr<concord::net::NetServerService> service;
    std::unique_ptr<TracedService> traced;
    std::unique_ptr<txn::ClientTm> client;
  };

  Status Launch(size_t* restaged) {
    CONCORD_ASSIGN_OR_RETURN(
        server_, StartServer({options_.concordd, std::string("--listen=") + kSocket,
                              "--data-dir=" + storage_dir_, "--shard=0",
                              "--partitions=4"},
                             restaged));
    return Status::OK();
  }

  Options options_;
  concord::SimClock clock_;
  concord::rpc::Network network_{&clock_, /*seed=*/1};
  NodeId server_node_;
  concord::DotId dot_;
  std::string storage_dir_;
  size_t wal_records_ = 0;
  Server server_;
  DesignWs ws_[kWorkstations];
  std::vector<std::unique_ptr<Station>> workstations_;
  Ledger ledger_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& options) {
  if (name == "dop_commit") return std::make_unique<DopCommit>(options);
  if (name == "review_scan") return std::make_unique<ReviewScan>(options);
  if (name == "cross_shard_commit") {
    return std::make_unique<CrossShardCommit>(options);
  }
  if (name == "socket_commit") return std::make_unique<SocketCommit>(options);
  return nullptr;
}

}  // namespace perfbench
