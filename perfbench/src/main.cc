// concord_bench: one run of one CONCORD benchmark workload.
//
//   concord_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --concordd PATH
//
// Runs in the current directory, which must be an empty scratch
// directory (repositories, the concordd socket and the trace go there).
// Set-up time is measured from the entry to main(). The last line of
// stdout is the result object; perfbench/README.md describes every
// metric.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string concordd;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 == 0) return false;  // every flag takes one value
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--concordd") {
      args->concordd = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

/// Nearest-rank percentile (q in [0, 1]); 0 for no samples.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * values.size());
  return values[std::min(rank, values.size() - 1)];
}

struct Phase {
  double elapsed_s = 0;
  WsSamples total;  // all workstations merged

  void Absorb(WsSamples& s) {
    auto append = [](std::vector<double>* into, const std::vector<double>& from) {
      into->insert(into->end(), from.begin(), from.end());
    };
    append(&total.dop_us, s.dop_us);
    append(&total.checkout_us, s.checkout_us);
    append(&total.commit_us, s.commit_us);
    total.attempted += s.attempted;
    total.failed += s.failed;
    total.committed += s.committed;
    for (auto& message : s.check_failures) {
      total.check_failures.push_back(std::move(message));
    }
  }
};

/// One closed-loop timed phase: one thread per workstation, each runs
/// whole rounds until the deadline.
Phase RunPhase(Workload& workload, double seconds) {
  std::vector<WsSamples> samples(kWorkstations);
  std::vector<int64_t> ends(kWorkstations);
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkstations; ++w) {
    threads.emplace_back([&, w] {
      int64_t now = start;
      while (now < deadline) {
        workload.Round(w, &samples[w]);
        now = NowNs();
      }
      ends[w] = now;
    });
  }
  for (auto& thread : threads) thread.join();
  Phase phase;
  phase.elapsed_s = (*std::max_element(ends.begin(), ends.end()) - start) / 1e9;
  for (WsSamples& s : samples) phase.Absorb(s);
  return phase;
}

/// Adds the counter growth from `before` to `after` to `sum`; the queue
/// high-water mark is a running maximum and is taken as it stands.
void AddGrowth(const Counters& before, const Counters& after, Counters* sum) {
  sum->calls += after.calls - before.calls;
  sum->retries += after.retries - before.retries;
  sum->messages += after.messages - before.messages;
  sum->cache_hits += after.cache_hits - before.cache_hits;
  sum->wal_flushes += after.wal_flushes - before.wal_flushes;
  sum->wal_bytes += after.wal_bytes - before.wal_bytes;
  sum->deliveries += after.deliveries - before.deliveries;
  sum->reconnects += after.reconnects - before.reconnects;
  sum->partition_ops.resize(after.partition_ops.size(), 0);
  for (size_t p = 0; p < after.partition_ops.size(); ++p) {
    sum->partition_ops[p] += after.partition_ops[p] - before.partition_ops[p];
  }
  sum->queue_high_water = after.queue_high_water;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Shortest decimal that reads back as `value`.
std::string Number(double value) {
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

// --- Per-layer analysis of the traced phase ------------------------------

/// Where one commit call's time went: client-side self time, transport
/// (Execute minus the server handler), the handler's own glue, and the
/// handler's three calls.
struct CommitBreakdown {
  double total_us = 0, client_us = 0, transport_us = 0, handler_self_us = 0,
         decode_us = 0, dispatch_us = 0, encode_us = 0;
};

struct SpanStats {
  uint64_t measured_dops = 0;
  double dop_self_us = 0;  // sum over measured DOPs
  uint64_t envelopes_in_dops = 0;
  uint64_t participants_in_dops = 0;
  uint64_t lookups = 0;  // non-locking checkouts
  uint64_t inferred_hits = 0;
  // kCommit spans belong to measured DOPs only.
  std::vector<CommitBreakdown> commits;
  std::vector<double> transport_self_us, execute_us, checkin_dispatch_us,
      checkout_dispatch_us, in_scope_us, propagate_us, phase1_us, decide_us;
};

double DurationUs(const Span& s) { return (s.end_ns - s.start_ns) / 1e3; }

SpanStats AnalyzeSpans() {
  SpanStats st;
  struct DopAcc {
    double dur_us = 0;
    double execute_us = 0;
    uint64_t envelopes = 0;
    std::set<uint16_t> nodes;
    bool measured = false;
  };
  std::unordered_map<uint64_t, DopAcc> dops;
  for (const auto& buffer : Tracer::Get().buffers()) {
    const std::vector<Span>& spans = buffer->spans;
    // The server handler runs on the calling thread, so a span's
    // children are in the same buffer, after it.
    std::vector<std::vector<uint32_t>> children(spans.size());
    for (uint32_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent != kNoParent) children[spans[i].parent].push_back(i);
    }
    auto child_us = [&](uint32_t i, SpanKind kind) {
      double us = 0;
      for (uint32_t c : children[i]) {
        if (spans[c].kind == kind) us += DurationUs(spans[c]);
      }
      return us;
    };
    for (uint32_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      double us = DurationUs(s);
      switch (s.kind) {
        case SpanKind::kDop: {
          DopAcc& acc = dops[s.dop];
          acc.dur_us = us;
          acc.measured = (s.flags & kFlagMeasured) != 0;
          break;
        }
        case SpanKind::kExecute: {
          DopAcc& acc = dops[s.dop];
          acc.execute_us += us;
          ++acc.envelopes;
          acc.nodes.insert(s.node);
          st.execute_us.push_back(us);
          st.transport_self_us.push_back(us - child_us(i, SpanKind::kHandler));
          if (s.flags & kFlagPhase1) st.phase1_us.push_back(us);
          if (s.flags & kFlagDecideOnly) st.decide_us.push_back(us);
          break;
        }
        case SpanKind::kCheckout:
          if ((s.flags & kFlagLocking) == 0) {
            ++st.lookups;
            if (children[i].empty()) ++st.inferred_hits;
          }
          break;
        case SpanKind::kCommit: {
          CommitBreakdown b;
          b.total_us = b.client_us = us;
          for (uint32_t e : children[i]) {
            if (spans[e].kind != SpanKind::kExecute) continue;
            b.client_us -= DurationUs(spans[e]);
            b.transport_us += DurationUs(spans[e]);
            for (uint32_t h : children[e]) {
              if (spans[h].kind != SpanKind::kHandler) continue;
              double decode = child_us(h, SpanKind::kDecode);
              double dispatch = child_us(h, SpanKind::kDispatch);
              double encode = child_us(h, SpanKind::kEncode);
              b.transport_us -= DurationUs(spans[h]);
              b.handler_self_us +=
                  DurationUs(spans[h]) - decode - dispatch - encode;
              b.decode_us += decode;
              b.dispatch_us += dispatch;
              b.encode_us += encode;
            }
          }
          st.commits.push_back(b);
          break;
        }
        case SpanKind::kDispatch:
          if (s.flags & kFlagHasCheckin) {
            st.checkin_dispatch_us.push_back(us);
          } else if (s.flags & kFlagHasCheckout) {
            st.checkout_dispatch_us.push_back(us);
          }
          break;
        case SpanKind::kInScope:
          st.in_scope_us.push_back(us);
          break;
        case SpanKind::kPropagate:
          st.propagate_us.push_back(us);
          break;
        default:
          break;
      }
    }
  }
  for (const auto& [id, acc] : dops) {
    if (!acc.measured) continue;
    ++st.measured_dops;
    st.dop_self_us += acc.dur_us - acc.execute_us;
    st.envelopes_in_dops += acc.envelopes;
    st.participants_in_dops += acc.nodes.size();
  }
  return st;
}

/// Encode + decode time and sizes of the envelopes the decorators kept.
void MeasureCodec(Workload& workload, double* request_bytes,
                  double* reply_bytes, double* us_per_envelope) {
  std::vector<const CapturedEnvelope*> captured;
  for (TracedService* decorator : workload.Decorators()) {
    for (const CapturedEnvelope& envelope : decorator->captured()) {
      captured.push_back(&envelope);
    }
  }
  *request_bytes = *reply_bytes = *us_per_envelope = 0;
  if (captured.empty()) return;
  constexpr int kRepeats = 5;
  std::vector<double> per_pass;
  for (int r = 0; r < kRepeats; ++r) {
    double req = 0, rep = 0;
    int64_t start = NowNs();
    for (const CapturedEnvelope* envelope : captured) {
      std::string request = concord::txn::EncodeBatchRequest(envelope->request);
      std::string reply = concord::txn::EncodeBatchReply(envelope->reply);
      bool decoded = concord::txn::DecodeBatchRequest(request).ok() &&
                     concord::txn::DecodeBatchReply(reply).ok();
      if (!decoded) std::fprintf(stderr, "codec round trip failed\n");
      req += request.size();
      rep += reply.size();
    }
    per_pass.push_back((NowNs() - start) / 1e3 / captured.size());
    *request_bytes = req / captured.size();
    *reply_bytes = rep / captured.size();
  }
  *us_per_envelope = Percentile(per_pass, 0.5);
}

/// `growth` is the counters' growth over the traced slices; the overhead
/// is the untraced over the traced slices' median throughput.
std::vector<Metric> PerLayer(Workload& workload, const Counters& growth,
                             double overhead_ratio,
                             double replay_records_per_s,
                             std::vector<std::string>* failures) {
  SpanStats st = AnalyzeSpans();
  double dops = std::max<double>(1.0, st.measured_dops);
  auto per_dop = [&](uint64_t count) { return count / dops; };

  // Two totals reached by independent paths must agree.
  uint64_t decorated = 0;
  for (TracedService* decorator : workload.Decorators()) {
    decorated += decorator->envelopes();
  }
  if (decorated != growth.calls) {
    failures->push_back("trace: " + std::to_string(decorated) +
                        " envelopes seen by the ServerService decorators, " +
                        std::to_string(growth.calls) +
                        " calls counted by the transport");
  }
  if (st.inferred_hits != growth.cache_hits) {
    failures->push_back("trace: " + std::to_string(st.inferred_hits) +
                        " checkouts without an envelope, " +
                        std::to_string(growth.cache_hits) +
                        " hits counted by the DOV caches");
  }

  double ops_max_over_mean = 0;
  if (!growth.partition_ops.empty()) {
    double max = 0, sum = 0;
    for (uint64_t ops : growth.partition_ops) {
      max = std::max<double>(max, ops);
      sum += ops;
    }
    if (sum > 0) ops_max_over_mean = max / (sum / growth.partition_ops.size());
  }

  // The commits between the 45th and 55th percentile, averaged: where
  // the median commit's time goes.
  std::sort(st.commits.begin(), st.commits.end(),
            [](const CommitBreakdown& x, const CommitBreakdown& y) {
              return x.total_us < y.total_us;
            });
  size_t lo = st.commits.size() * 45 / 100, hi = st.commits.size() * 55 / 100;
  if (hi > lo) {
    CommitBreakdown m;
    for (size_t i = lo; i < hi; ++i) {
      const CommitBreakdown& c = st.commits[i];
      m.total_us += c.total_us;
      m.client_us += c.client_us;
      m.transport_us += c.transport_us;
      m.handler_self_us += c.handler_self_us;
      m.decode_us += c.decode_us;
      m.dispatch_us += c.dispatch_us;
      m.encode_us += c.encode_us;
    }
    double n = static_cast<double>(hi - lo);
    std::printf(
        "median commit (mean of %zu around p50 of %zu): %.1f us = client_tm "
        "self %.1f + transport self %.1f + handler self %.1f + decode %.1f + "
        "dispatch %.1f + encode %.1f\n",
        hi - lo, st.commits.size(), m.total_us / n, m.client_us / n,
        m.transport_us / n, m.handler_self_us / n, m.decode_us / n,
        m.dispatch_us / n, m.encode_us / n);
  }

  double request_bytes, reply_bytes, codec_us;
  MeasureCodec(workload, &request_bytes, &reply_bytes, &codec_us);
  bool in_process = workload.InProcess();

  return {
      {"client_tm.self_us_per_dop", st.dop_self_us / dops, "us"},
      {"client_tm.envelopes_per_dop", per_dop(st.envelopes_in_dops), "count"},
      {"dov_cache.hit_ratio",
       st.lookups == 0 ? 0.0 : static_cast<double>(st.inferred_hits) / st.lookups,
       "ratio"},
      {"dov_cache.lookups", static_cast<double>(st.lookups), "count"},
      {"codec.request_bytes_per_envelope", request_bytes, "B"},
      {"codec.reply_bytes_per_envelope", reply_bytes, "B"},
      {"codec.us_per_envelope", codec_us, "us"},
      {"rpc.transport_self_p50_us", Percentile(st.transport_self_us, 0.5), "us"},
      {"rpc.messages_per_dop", per_dop(growth.messages), "count"},
      {"rpc.retries", static_cast<double>(growth.retries), "count"},
      {"net.execute_p50_us", in_process ? 0.0 : Percentile(st.execute_us, 0.5),
       "us"},
      {"net.reconnects", static_cast<double>(growth.reconnects),
       "count"},
      {"server_tm.checkin_commit_dispatch_p50_us",
       Percentile(st.checkin_dispatch_us, 0.5), "us"},
      {"server_tm.checkout_dispatch_p50_us",
       Percentile(st.checkout_dispatch_us, 0.5), "us"},
      {"partition.ops_max_over_mean", ops_max_over_mean, "ratio"},
      {"partition.queue_high_water", static_cast<double>(growth.queue_high_water),
       "count"},
      {"cooperation.in_scope_p50_us", Percentile(st.in_scope_us, 0.5), "us"},
      {"cooperation.in_scope_calls_per_dop", per_dop(st.in_scope_us.size()),
       "count"},
      {"cooperation.propagate_p50_us", Percentile(st.propagate_us, 0.5), "us"},
      {"twopc.participants_per_dop", per_dop(st.participants_in_dops), "count"},
      {"twopc.phase1_p50_us", Percentile(st.phase1_us, 0.5), "us"},
      {"twopc.decide_p50_us", Percentile(st.decide_us, 0.5), "us"},
      {"wal.bytes_per_dop", per_dop(growth.wal_bytes), "B"},
      {"wal.fsyncs_per_dop", per_dop(growth.wal_flushes),
       "count"},
      {"wal.replay_records_per_s", replay_records_per_s, "1/s"},
      {"invalidation.deliveries_per_dop",
       per_dop(growth.deliveries), "count"},
      {"trace.overhead_ratio", overhead_ratio, "ratio"},
  };
}

constexpr int kRestarts = 7;

int Run(const Args& args, int64_t process_start_ns) {
  Options options;
  options.seed = args.seed;
  options.traced = args.trace;
  options.dir = "data";
  options.concordd = args.concordd;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, options);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  auto must = [](const concord::Status& status, const char* what) {
    if (status.ok()) return;
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  };

  must(workload->Setup(), "set-up");
  double setup_s = (NowNs() - process_start_ns) / 1e9;
  // The servers' footprint once they hold the design data. Read before
  // the restarts: each frees and rebuilds the whole repository, and
  // where the allocator puts the rebuilt one varies from run to run.
  double peak_rss_mb = workload->MemoryMb("VmHWM");

  // Every restart replays the log set-up wrote; the median of a few
  // keeps one slow reopen from setting the figure.
  std::vector<double> restarts;
  size_t replayed = 0;
  for (int r = 0; r < kRestarts; ++r) {
    int64_t restart_start = NowNs();
    concord::Result<size_t> records = workload->Restart();
    must(records.status(), "restart");
    restarts.push_back((NowNs() - restart_start) / 1e9);
    replayed = *records;
  }
  double recover_s = Percentile(restarts, 0.5);
  std::printf("restarts over %zu WAL records:", replayed);
  for (double r : restarts) std::printf(" %.4f s", r);
  std::printf("\n");

  must(workload->Prepare(), "warm-up");
  double rss_before_timed_mb = workload->MemoryMb("VmRSS");

  std::vector<Metric> metrics;
  Phase phase;
  std::vector<std::string> failures;
  if (!args.trace) {
    phase = RunPhase(*workload, args.seconds);
  } else {
    // Untraced and traced slices alternate, so that drift in the
    // machine's speed falls on both alike; the ratio of their median
    // throughputs is the tracing overhead.
    size_t pairs = std::max<size_t>(1, std::lround(args.seconds / 2));
    double slice_s = args.seconds / (2.0 * pairs);
    std::vector<double> untraced_rate, traced_rate;
    Counters growth;
    for (size_t i = 0; i < pairs; ++i) {
      Phase untraced = RunPhase(*workload, slice_s);
      untraced_rate.push_back(untraced.total.committed / untraced.elapsed_s);
      phase.Absorb(untraced.total);
      Counters before = workload->Read();
      Tracer::Get().set_on(true);
      Phase traced = RunPhase(*workload, slice_s);
      Tracer::Get().set_on(false);
      AddGrowth(before, workload->Read(), &growth);
      traced_rate.push_back(traced.total.committed / traced.elapsed_s);
      phase.Absorb(traced.total);
    }
    double traced_median = Percentile(traced_rate, 0.5);
    metrics = PerLayer(*workload, growth,
                       traced_median > 0
                           ? Percentile(untraced_rate, 0.5) / traced_median
                           : 0.0,
                       replayed / recover_s, &failures);
    std::string path = "../trace-" + args.workload + ".tsv";
    if (!Tracer::Get().WriteTsv(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  for (auto& message : phase.total.check_failures) {
    failures.push_back(std::move(message));
  }

  if (!args.trace) {
    const WsSamples& t = phase.total;
    metrics = {
        {"dops_per_s", t.committed / phase.elapsed_s, "DOP/s"},
        {"dop_p50_us", Percentile(t.dop_us, 0.50), "us"},
        {"commit_p50_us", Percentile(t.commit_us, 0.50), "us"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
    std::printf("samples: %zu DOPs, %zu checkouts, %zu commits in %.3f s\n",
                t.dop_us.size(), t.checkout_us.size(), t.commit_us.size(),
                phase.elapsed_s);
    // Shown, not gated: their run-to-run spread exceeds any usable bound.
    std::printf("recover_s: %.4f s (median of %d restarts)\n", recover_s,
                kRestarts);
    std::printf("checkout p50: %.3f us\n", Percentile(t.checkout_us, 0.50));
    std::printf("p99: DOP %.3f us, checkout %.3f us, commit %.3f us\n",
                Percentile(t.dop_us, 0.99), Percentile(t.checkout_us, 0.99),
                Percentile(t.commit_us, 0.99));
    // Growth of the footprint during the timed phase, which peak_rss_mb
    // leaves out.
    std::printf("after the timed phase: peak RSS %.2f MiB, RSS %+.4f MiB "
                "per 1k DOPs committed\n",
                workload->MemoryMb("VmHWM"),
                (workload->MemoryMb("VmRSS") - rss_before_timed_mb) * 1000.0 /
                    std::max<uint64_t>(1, t.committed));
  }
  for (auto& message : workload->Verify()) failures.push_back(std::move(message));
  for (const std::string& message : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", message.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-42s %14.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " +
                     std::string(failures.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(phase.total.attempted) +
                     ", \"failed\": " + std::to_string(phase.total.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + Number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  int64_t process_start_ns = perfbench::NowNs();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--concordd PATH\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args, process_start_ns);
}
