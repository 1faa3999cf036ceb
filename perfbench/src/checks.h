// Output checks: the benchmark's own ledger of what it wrote, compared
// against what the program serves back. Each check returns one message
// per violation (empty = pass). The checks read the program through the
// `Observed` callbacks, so the self-test can plant faults in a fake.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"

namespace perfbench {

/// At most this many messages per check, so a broken run stays readable.
inline constexpr size_t kCheckMessageCap = 8;

struct LedgerDov {
  concord::DaId da;
  int64_t value = 0;
  std::vector<concord::DovId> preds;
};

/// Everything the benchmark wrote: the pre-load and every acknowledged
/// commit (id, owning DA, value, predecessors).
struct Ledger {
  std::unordered_map<uint64_t, LedgerDov> preload;
  std::vector<std::pair<uint64_t, LedgerDov>> commits;
};

struct ObservedDov {
  concord::DaId da;
  int64_t value = 0;
  std::vector<concord::DovId> preds;
};

/// The program's view, read after the run.
struct Observed {
  std::function<std::optional<ObservedDov>(concord::DovId)> get;
  std::function<size_t(concord::DaId)> dovs_of;
  /// Prepared 2PC stages each shard still holds.
  std::vector<size_t> prepared_per_shard;
  /// False where the read path cannot show predecessors (admin/dump_da).
  bool has_preds = true;
};

/// Every acknowledged commit is readable with the value, owning DA and
/// predecessors the benchmark wrote.
std::vector<std::string> CheckCommitsReadable(const Ledger& ledger,
                                              const Observed& observed);
/// DOVs per DA equal the pre-load plus acknowledged commits.
std::vector<std::string> CheckDovCounts(const Ledger& ledger,
                                        const Observed& observed);
/// Every pre-loaded DOV is present with its value.
std::vector<std::string> CheckPreloadPresent(const Ledger& ledger,
                                             const Observed& observed);
/// No shard holds a prepared stage.
std::vector<std::string> CheckNoPreparedStages(const Observed& observed);
/// New checkins got ids above every pre-loaded id of their shard, and
/// no id was issued twice.
std::vector<std::string> CheckFreshIds(const Ledger& ledger);
/// A checkout of `dov` served `served`; the ledger holds `wrote`.
std::vector<std::string> CheckCheckoutValue(concord::DovId dov,
                                            std::optional<int64_t> wrote,
                                            std::optional<int64_t> served);

/// Runs every ledger check; messages of all failures.
std::vector<std::string> RunLedgerChecks(const Ledger& ledger,
                                         const Observed& observed);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
