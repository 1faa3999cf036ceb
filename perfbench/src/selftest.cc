// The benchmark's own test: every output check passes on a faithful
// copy of its ledger, and the check that owns each planted fault (a
// wrong value, a missing and an extra DOV, a leftover prepared stage, a
// reissued id) reports it.
//
//   perfbench_selftest    (exit 0 when every fault is caught)

#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "checks.h"

namespace perfbench {
namespace {

using concord::DaId;
using concord::DovId;

/// A store the checks read, built from the ledger and then broken.
struct FakeStore {
  std::unordered_map<uint64_t, ObservedDov> dovs;
  std::vector<size_t> prepared{0, 0};

  Observed View() const {
    Observed observed;
    observed.get = [this](DovId dov) -> std::optional<ObservedDov> {
      auto it = dovs.find(dov.value());
      if (it == dovs.end()) return std::nullopt;
      return it->second;
    };
    observed.dovs_of = [this](DaId da) {
      size_t count = 0;
      for (const auto& [id, dov] : dovs) count += dov.da == da;
      return count;
    };
    observed.prepared_per_shard = prepared;
    return observed;
  }
};

uint64_t Id(uint32_t shard, uint64_t local) {
  return (static_cast<uint64_t>(shard) << concord::kDovShardShift) | local;
}

Ledger MakeLedger() {
  Ledger ledger;
  for (uint32_t shard = 0; shard < 2; ++shard) {
    DaId da(10 + shard);
    for (uint64_t k = 1; k <= 5; ++k) {
      std::vector<DovId> preds;
      if (k > 1) preds.push_back(DovId(Id(shard, k - 1)));
      ledger.preload[Id(shard, k)] =
          LedgerDov{da, static_cast<int64_t>(100 * shard + k), preds};
    }
    for (uint64_t k = 6; k <= 8; ++k) {
      ledger.commits.emplace_back(
          Id(shard, k), LedgerDov{da, static_cast<int64_t>(1000 + k),
                                  {DovId(Id(shard, k - 1)), DovId(Id(1 - shard, 2))}});
    }
  }
  return ledger;
}

FakeStore Faithful(const Ledger& ledger) {
  FakeStore store;
  for (const auto& [id, entry] : ledger.preload) {
    store.dovs[id] = ObservedDov{entry.da, entry.value, entry.preds};
  }
  for (const auto& [id, entry] : ledger.commits) {
    store.dovs[id] = ObservedDov{entry.da, entry.value, entry.preds};
  }
  return store;
}

using Check = std::function<std::vector<std::string>(const Ledger&,
                                                     const Observed&)>;

/// A planted fault and the check that must report it.
struct Case {
  const char* fault;
  std::function<void(Ledger*, FakeStore*)> plant;
  Check check;
};

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  const Ledger clean = MakeLedger();
  int failures = 0;

  std::vector<std::string> baseline = RunLedgerChecks(clean, Faithful(clean).View());
  if (!baseline.empty()) {
    std::printf("FAIL faithful store rejected: %s\n", baseline.front().c_str());
    ++failures;
  }

  const uint64_t committed = clean.commits.front().first;
  const Check readable = CheckCommitsReadable;
  const Check counts = CheckDovCounts;
  const Check preload = CheckPreloadPresent;
  const Check stages = [](const Ledger&, const Observed& observed) {
    return CheckNoPreparedStages(observed);
  };
  const Check fresh = [](const Ledger& ledger, const Observed&) {
    return CheckFreshIds(ledger);
  };
  std::vector<Case> cases = {
      {"wrong value",
       [&](Ledger*, FakeStore* s) { s->dovs[committed].value += 1; }, readable},
      {"wrong owning DA",
       [&](Ledger*, FakeStore* s) { s->dovs[committed].da = DaId(99); },
       readable},
      {"wrong predecessors",
       [&](Ledger*, FakeStore* s) { s->dovs[committed].preds.pop_back(); },
       readable},
      {"missing committed DOV",
       [&](Ledger*, FakeStore* s) { s->dovs.erase(committed); }, readable},
      {"missing pre-loaded DOV",
       [&](Ledger*, FakeStore* s) { s->dovs.erase(Id(1, 3)); }, preload},
      {"extra DOV",
       [&](Ledger*, FakeStore* s) {
         s->dovs[Id(0, 77)] = ObservedDov{DaId(10), 5, {}};
       },
       counts},
      {"leftover prepared stage",
       [&](Ledger*, FakeStore* s) { s->prepared[1] = 1; }, stages},
      {"reissued id (twice in the commits)",
       [&](Ledger* l, FakeStore*) { l->commits.push_back(l->commits.front()); },
       fresh},
      {"reissued id (below the pre-load)",
       [&](Ledger* l, FakeStore* s) {
         uint64_t stale = Id(0, 3);
         l->preload.erase(stale);
         l->commits.emplace_back(stale, LedgerDov{DaId(10), 103, {}});
         s->dovs[stale] = ObservedDov{DaId(10), 103, {}};
       },
       fresh},
  };
  for (const Case& c : cases) {
    Ledger ledger = clean;
    FakeStore store = Faithful(clean);
    c.plant(&ledger, &store);
    std::vector<std::string> messages = c.check(ledger, store.View());
    bool caught = !messages.empty();
    std::printf("%s planted %-36s %s\n", caught ? "ok  " : "FAIL", c.fault,
                caught ? messages.front().c_str() : "(not detected)");
    failures += caught ? 0 : 1;
  }

  // The online checkout check.
  concord::DovId dov(Id(0, 2));
  bool same_ok = CheckCheckoutValue(dov, 102, 102).empty();
  bool wrong_caught = !CheckCheckoutValue(dov, 102, 103).empty();
  bool unknown_caught = !CheckCheckoutValue(dov, std::nullopt, 102).empty();
  std::printf("%s checkout value check\n",
              same_ok && wrong_caught && unknown_caught ? "ok  " : "FAIL");
  failures += same_ok && wrong_caught && unknown_caught ? 0 : 1;

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
