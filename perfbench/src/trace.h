// In-memory span recording for the traced benchmark run.
//
// Every span is recorded by the benchmark's own code, around a call
// into one layer's public interface: the workload wraps the ClientTm
// and CooperationManager calls it makes, TracedService wraps each
// workstation's per-shard txn::ServerService, TracedScope wraps the
// txn::ScopeAuthority the server-TMs consult, and the in-process server
// handler (RegisterTracedServerService) wraps the three calls that
// txn::RegisterServerService is made of. Nothing inside src/ is touched.
//
// Spans go to a per-thread buffer (no lock on the hot path), carry the
// benchmark's DOP id and the index of their parent span on the same
// thread, and are analysed and written out after the run has ended.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rpc/transactional_rpc.h"
#include "txn/scope_authority.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kDop,         // one DOP, Begin to commit acknowledged (workload)
  kBegin,       // ClientTm::BeginDop
  kCheckout,    // ClientTm::Checkout
  kCommit,      // ClientTm::CheckinCommit or ClientTm::CommitDop
  kCheckin,     // supporter DOP's CheckinCommit (cross_shard_commit)
  kPropagate,   // CooperationManager::Propagate
  kWithdraw,    // CooperationManager::WithdrawPropagation
  kExecute,     // ServerService::Execute (one envelope)
  kHandler,     // in-process server handler, whole
  kDecode,      // DecodeBatchRequest
  kDispatch,    // DispatchBatch
  kEncode,      // EncodeBatchReply
  kInScope,     // ScopeAuthority::InScope
};

inline const char* SpanKindName(SpanKind kind) {
  static const char* const kNames[] = {
      "dop",     "begin",   "checkout", "commit", "checkin",
      "propagate", "withdraw", "execute", "handler", "decode",
      "dispatch", "encode",  "in_scope"};
  return kNames[static_cast<size_t>(kind)];
}

// Span flags. Envelope flags describe the BatchRequest an Execute or
// Dispatch span carried.
inline constexpr uint8_t kFlagLocking = 1;     // checkout took a lock
inline constexpr uint8_t kFlagMeasured = 2;    // DOP counts in the metrics
inline constexpr uint8_t kFlagHasCheckin = 4;
inline constexpr uint8_t kFlagHasCheckout = 8;
inline constexpr uint8_t kFlagPhase1 = 16;     // [Prepare, ops...]
inline constexpr uint8_t kFlagDecideOnly = 32;  // [Decide]

uint8_t EnvelopeFlags(const concord::txn::BatchRequest& batch);

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  SpanKind kind;
  uint8_t flags;
  uint16_t node;    // server node of an Execute span
  uint32_t parent;  // index in the same thread's buffer
  uint64_t dop;     // benchmark DOP id (0 outside a DOP)
  int64_t start_ns;
  int64_t end_ns;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ThreadSpans {
  std::vector<Span> spans;
  std::vector<uint32_t> open;
  uint64_t dop = 0;
};

/// Process-wide span store: one buffer per thread that ever recorded.
class Tracer {
 public:
  static Tracer& Get();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_release); }

  /// The calling thread's buffer (registered on first use).
  ThreadSpans& Local();

  /// All buffers; call only while no thread records.
  const std::vector<std::unique_ptr<ThreadSpans>>& buffers() const {
    return buffers_;
  }

  /// Writes every span as one tab-separated line.
  bool WriteTsv(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;
};

/// Marks the calling thread's following spans as part of DOP `dop`.
inline void SetCurrentDop(uint64_t dop) {
  if (Tracer::Get().on()) Tracer::Get().Local().dop = dop;
}

/// RAII span; records nothing while the tracer is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind, uint8_t flags = 0, uint16_t node = 0) {
    Tracer& tracer = Tracer::Get();
    if (!tracer.on()) return;
    local_ = &tracer.Local();
    uint32_t parent = local_->open.empty() ? kNoParent : local_->open.back();
    index_ = static_cast<uint32_t>(local_->spans.size());
    local_->spans.push_back(
        Span{kind, flags, node, parent, local_->dop, NowNs(), 0});
    local_->open.push_back(index_);
  }
  ~ScopedSpan() {
    if (local_ == nullptr) return;
    local_->spans[index_].end_ns = NowNs();
    local_->open.pop_back();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* local_ = nullptr;
  uint32_t index_ = 0;
};

/// One envelope and its reply, kept for the codec measurement.
struct CapturedEnvelope {
  concord::txn::BatchRequest request;
  concord::txn::BatchReply reply;
};

/// Decorator on a workstation's per-shard ServerService: one Execute
/// span per envelope, an envelope counter, and a bounded sample of
/// envelopes for the codec measurement.
class TracedService : public concord::txn::ServerService {
 public:
  explicit TracedService(concord::txn::ServerService* inner) : inner_(inner) {}

  concord::NodeId server_node() const override { return inner_->server_node(); }
  concord::Result<concord::txn::BatchReply> Execute(
      const concord::txn::BatchRequest& batch) override;

  uint64_t envelopes() const {
    return envelopes_.load(std::memory_order_relaxed);
  }
  std::vector<CapturedEnvelope>& captured() { return captured_; }

  static constexpr size_t kCaptureLimit = 512;

 private:
  concord::txn::ServerService* inner_;
  std::atomic<uint64_t> envelopes_{0};
  std::vector<CapturedEnvelope> captured_;  // owning workstation thread only
};

/// Decorator on the scope authority the server-TMs consult.
class TracedScope : public concord::txn::ScopeAuthority {
 public:
  explicit TracedScope(concord::txn::ScopeAuthority* inner) : inner_(inner) {}
  bool InScope(concord::DaId da, concord::DovId dov) override {
    ScopedSpan span(SpanKind::kInScope);
    return inner_->InScope(da, dov);
  }

 private:
  concord::txn::ScopeAuthority* inner_;
};

/// The handler txn::RegisterServerService installs, rebuilt from the
/// same three public calls with a span around each.
void RegisterTracedServerService(concord::txn::ServerTm* server,
                                 concord::rpc::TransactionalRpc* rpc);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
