#ifndef FLEETBENCH_ORACLE_H_
#define FLEETBENCH_ORACLE_H_

// The benchmark's output oracle. It never runs a query engine: it keeps its
// own copy of every row it generated (or read back from storage at set-up)
// and answers each checked query with plain loops over that copy — counts,
// sums, membership and distinctness.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/probe.h"
#include "exec/result_set.h"
#include "types/schema.h"
#include "types/value.h"

namespace fleetbench {

using agentfirst::QueryAnswer;
using agentfirst::ResultSet;
using agentfirst::ResultSetPtr;
using agentfirst::Row;
using agentfirst::Schema;
using agentfirst::Value;

enum class Verdict {
  kCorrect,    // exact answer, matches the oracle
  kApproxOk,   // approximate answer that carries the flag, a rate and a CI
  kSkipped,    // the system chose not to run it (satisficing); no answer
  kUnchecked,  // a query shape the oracle does not model
  kWrong,      // wrong, failed, truncated, or an approximation without a CI
};

const char* VerdictName(Verdict v);

struct Check {
  Verdict verdict = Verdict::kUnchecked;
  std::string reason;  // why kWrong (or what was unchecked)
};

/// Structural checks every approximate answer must pass: the approximate
/// flag on answer and result, a sample rate below 1, and a 95% CI for at
/// least one output column.
Check CheckApproximate(const QueryAnswer& answer);

// ---------------------------------------------------------------------------
// Generated analytic data: facts(id, dim_id, grp, qty, touch) with id equal
// to the row index, plus dims(dim_id, region, tier).
// ---------------------------------------------------------------------------

inline constexpr int64_t kGroups = 16;
inline constexpr int64_t kRegions = 8;
inline constexpr int64_t kTiers = 4;

struct FactData {
  size_t fact_rows = 0;
  size_t dim_rows = 0;
  std::vector<int64_t> dim_id;  // per fact row
  std::vector<int64_t> grp;     // per fact row, [0, kGroups)
  std::vector<int64_t> qty;     // per fact row, [1, 1000]
  std::vector<int64_t> region;  // per dim row, [0, kRegions)
  std::vector<int64_t> tier;    // per dim row, [0, kTiers)

  static FactData Generate(size_t fact_rows, size_t dim_rows, uint64_t seed);
  static Schema FactSchema();
  static Schema DimSchema();
  Row FactRow(size_t i) const;
  Row DimRow(size_t d) const;
};

std::string RegionName(int64_t region);

enum class Shape { kFilterAgg, kRangeGroupBy, kJoinAgg };

/// One read probe over the generated data. Every field is a literal of the
/// SQL text, so two queries with different fields never share a plan.
struct AnalyticQuery {
  Shape shape = Shape::kFilterAgg;
  int64_t lo = 0;  // facts.id >= lo
  int64_t hi = 0;  // facts.id < hi
  // The filters exclude one group / one tier, so every shape aggregates most
  // rows of its id range and latency scales with the range for all three.
  int64_t grp = 0;   // kFilterAgg: facts.grp <> grp
  int64_t tier = 0;  // kJoinAgg: dims.tier <> tier
  bool exploratory = false;  // sent with an exploration brief (AQP may sample)
  std::string Sql() const;
};

/// The k-th query of a run. Distinct k (below the id space) give distinct
/// (shape, lo) pairs, hence distinct plans; `seed` varies the stream.
AnalyticQuery MakeAnalyticQuery(uint64_t k, const FactData& data,
                                uint64_t seed);

/// Expected answer: group key -> (COUNT(*), SUM(qty)); the single-row
/// filter aggregate uses key "" and may have count 0 (SUM is then NULL).
struct Expected {
  std::map<std::string, std::pair<int64_t, int64_t>> groups;
  bool single_row = false;
};

Expected Evaluate(const AnalyticQuery& q, const FactData& data);

/// Compares an exact result set with the expected groups.
Check CheckExactResult(const ResultSet& rs, const Expected& expected);

/// Full check of one probe answer against the expected groups.
Check CheckAnalyticAnswer(const QueryAnswer& answer, const Expected& expected);

// ---------------------------------------------------------------------------
// MiniBird: rows read back from the catalog at set-up; the probe shapes the
// simulated agents send are recognised by their SQL text.
// ---------------------------------------------------------------------------

struct TableCopy {
  std::string name;
  Schema schema;
  std::vector<Row> rows;
};

class MiniBirdOracle {
 public:
  void AddTable(TableCopy table);
  /// The task's reference answer for its gold SQL (computed by the MiniBird
  /// generator, not by the benchmark; used only for exact gold re-asks).
  void AddGold(const std::string& sql, ResultSetPtr answer);

  Check CheckAnswer(const QueryAnswer& answer) const;

 private:
  /// A table copy with the per-column facts the checks need, built once in
  /// AddTable so that each check costs in proportion to its result, not to
  /// the table: checks run on the client threads inside the timed phase.
  struct Indexed {
    TableCopy copy;
    std::unordered_multiset<std::string> row_keys;  // rendered rows
    std::vector<int64_t> nulls;                     // per column
    // Per column: non-null value text -> rows holding it (equality probes).
    std::vector<std::unordered_map<std::string, size_t>> value_counts;
    // Per column: rendered distinct values, NULL included (DISTINCT probes).
    std::vector<std::unordered_set<std::string>> distinct_keys;
  };
  Check CheckExact(const std::string& sql, const ResultSet& rs) const;
  const Indexed* Table(const std::string& name) const;

  std::map<std::string, Indexed> tables_;
  std::map<std::string, ResultSetPtr> gold_;
};

}  // namespace fleetbench

#endif  // FLEETBENCH_ORACLE_H_
