#include "trace.h"

#include <cstdio>
#include <string>
#include <variant>

namespace perfbench {

using concord::Result;
using concord::txn::BatchReply;
using concord::txn::BatchRequest;

uint8_t EnvelopeFlags(const BatchRequest& batch) {
  bool prepare = false;
  bool decide = false;
  uint8_t flags = 0;
  for (const auto& op : batch.ops) {
    if (std::holds_alternative<concord::txn::CheckinRequest>(op)) {
      flags |= kFlagHasCheckin;
    } else if (std::holds_alternative<concord::txn::CheckoutRequest>(op)) {
      flags |= kFlagHasCheckout;
    } else if (std::holds_alternative<concord::txn::PrepareRequest>(op)) {
      prepare = true;
    } else if (std::holds_alternative<concord::txn::DecideRequest>(op)) {
      decide = true;
    }
  }
  if (prepare && !decide) flags |= kFlagPhase1;
  if (decide && batch.ops.size() == 1) flags |= kFlagDecideOnly;
  return flags;
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

ThreadSpans& Tracer::Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadSpans>());
    buffers_.back()->spans.reserve(1 << 16);
    local = buffers_.back().get();
  }
  return *local;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread\tindex\tkind\tflags\tnode\tparent\tdop\tstart_ns\tend_ns\n");
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const auto& spans = buffers_[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%zu\t%zu\t%s\t%u\t%u\t%ld\t%lu\t%ld\t%ld\n", t, i,
                   SpanKindName(s.kind), unsigned{s.flags}, unsigned{s.node},
                   s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
                   static_cast<unsigned long>(s.dop),
                   static_cast<long>(s.start_ns), static_cast<long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

Result<BatchReply> TracedService::Execute(const BatchRequest& batch) {
  if (!Tracer::Get().on()) return inner_->Execute(batch);
  envelopes_.fetch_add(1, std::memory_order_relaxed);
  Result<BatchReply> reply = [&] {
    ScopedSpan span(SpanKind::kExecute, EnvelopeFlags(batch),
                    static_cast<uint16_t>(inner_->server_node().value()));
    return inner_->Execute(batch);
  }();
  if (reply.ok() && captured_.size() < kCaptureLimit) {
    captured_.push_back(CapturedEnvelope{batch, *reply});
  }
  return reply;
}

void RegisterTracedServerService(concord::txn::ServerTm* server,
                                 concord::rpc::TransactionalRpc* rpc) {
  rpc->RegisterHandler(
      server->node(), concord::txn::kServerServiceMethod,
      [server](const std::string& request) -> Result<std::string> {
        ScopedSpan handler(SpanKind::kHandler);
        Result<BatchRequest> batch = [&] {
          ScopedSpan span(SpanKind::kDecode);
          return concord::txn::DecodeBatchRequest(request);
        }();
        if (!batch.ok()) return batch.status();
        BatchReply reply = [&] {
          ScopedSpan span(SpanKind::kDispatch, EnvelopeFlags(*batch));
          return concord::txn::DispatchBatch(*server, *batch);
        }();
        ScopedSpan span(SpanKind::kEncode);
        return concord::txn::EncodeBatchReply(reply);
      });
}

}  // namespace perfbench
