#include "checks.h"

#include <algorithm>
#include <set>

namespace perfbench {

using concord::DaId;
using concord::DovId;

namespace {

void Add(std::vector<std::string>* out, std::string message) {
  if (out->size() < kCheckMessageCap) out->push_back(std::move(message));
}

std::string Id(DovId dov) { return std::to_string(dov.value()); }

std::string PredsText(const std::vector<DovId>& preds) {
  std::string text = "[";
  for (DovId dov : preds) text += (text.size() > 1 ? "," : "") + Id(dov);
  return text + "]";
}

}  // namespace

std::vector<std::string> CheckCommitsReadable(const Ledger& ledger,
                                              const Observed& observed) {
  std::vector<std::string> out;
  for (const auto& [id, want] : ledger.commits) {
    DovId dov(id);
    std::optional<ObservedDov> got = observed.get(dov);
    if (!got) {
      Add(&out, "acknowledged DOV " + Id(dov) + " is missing");
      continue;
    }
    if (got->value != want.value) {
      Add(&out, "DOV " + Id(dov) + " reads value " + std::to_string(got->value) +
                    ", wrote " + std::to_string(want.value));
    }
    if (got->da != want.da) {
      Add(&out, "DOV " + Id(dov) + " is owned by DA " +
                    std::to_string(got->da.value()) + ", wrote it for DA " +
                    std::to_string(want.da.value()));
    }
    if (observed.has_preds && got->preds != want.preds) {
      Add(&out, "DOV " + Id(dov) + " has predecessors " +
                    PredsText(got->preds) + ", checked in with " +
                    PredsText(want.preds));
    }
  }
  return out;
}

std::vector<std::string> CheckDovCounts(const Ledger& ledger,
                                        const Observed& observed) {
  std::map<uint64_t, size_t> expected;
  for (const auto& [id, entry] : ledger.preload) ++expected[entry.da.value()];
  for (const auto& [id, entry] : ledger.commits) ++expected[entry.da.value()];
  std::vector<std::string> out;
  for (const auto& [da, count] : expected) {
    size_t got = observed.dovs_of(DaId(da));
    if (got != count) {
      Add(&out, "DA " + std::to_string(da) + " holds " + std::to_string(got) +
                    " DOVs, expected " + std::to_string(count) +
                    " (pre-load plus acknowledged commits)");
    }
  }
  return out;
}

std::vector<std::string> CheckPreloadPresent(const Ledger& ledger,
                                             const Observed& observed) {
  std::vector<std::string> out;
  for (const auto& [id, want] : ledger.preload) {
    std::optional<ObservedDov> got = observed.get(DovId(id));
    if (!got) {
      Add(&out, "pre-loaded DOV " + std::to_string(id) + " is missing");
    } else if (got->value != want.value || got->da != want.da) {
      Add(&out, "pre-loaded DOV " + std::to_string(id) + " changed");
    }
  }
  return out;
}

std::vector<std::string> CheckNoPreparedStages(const Observed& observed) {
  std::vector<std::string> out;
  for (size_t s = 0; s < observed.prepared_per_shard.size(); ++s) {
    if (observed.prepared_per_shard[s] != 0) {
      Add(&out, "shard " + std::to_string(s) + " holds " +
                    std::to_string(observed.prepared_per_shard[s]) +
                    " prepared stage(s) after the run");
    }
  }
  return out;
}

std::vector<std::string> CheckFreshIds(const Ledger& ledger) {
  std::map<uint32_t, uint64_t> preload_max;  // shard -> highest local id
  for (const auto& [id, entry] : ledger.preload) {
    uint64_t& high = preload_max[concord::DovShardOf(DovId(id))];
    high = std::max(high, concord::DovLocalOf(DovId(id)));
  }
  std::vector<std::string> out;
  std::set<uint64_t> seen;
  for (const auto& [id, entry] : ledger.commits) {
    DovId dov(id);
    if (ledger.preload.count(id) != 0 || !seen.insert(id).second) {
      Add(&out, "DOV id " + Id(dov) + " was issued twice");
      continue;
    }
    auto high = preload_max.find(concord::DovShardOf(dov));
    if (high != preload_max.end() && concord::DovLocalOf(dov) <= high->second) {
      Add(&out, "new DOV id " + Id(dov) +
                    " is not above the highest id seen before the restart");
    }
  }
  return out;
}

std::vector<std::string> CheckCheckoutValue(DovId dov,
                                            std::optional<int64_t> wrote,
                                            std::optional<int64_t> served) {
  if (wrote && served && *wrote == *served) return {};
  return {"checkout of DOV " + Id(dov) + " served " +
          (served ? std::to_string(*served) : std::string("no value")) +
          ", ledger holds " +
          (wrote ? std::to_string(*wrote) : std::string("no such id"))};
}

std::vector<std::string> RunLedgerChecks(const Ledger& ledger,
                                         const Observed& observed) {
  std::vector<std::string> out;
  for (const std::vector<std::string>& messages :
       {CheckCommitsReadable(ledger, observed), CheckDovCounts(ledger, observed),
        CheckPreloadPresent(ledger, observed), CheckNoPreparedStages(observed),
        CheckFreshIds(ledger)}) {
    out.insert(out.end(), messages.begin(), messages.end());
  }
  return out;
}

}  // namespace perfbench
