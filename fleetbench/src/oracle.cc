#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <regex>
#include <set>

#include "common/rng.h"
#include "workload/minibird.h"

namespace fleetbench {

using agentfirst::ColumnDef;
using agentfirst::DataType;
using agentfirst::Rng;

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kCorrect: return "correct";
    case Verdict::kApproxOk: return "approximate";
    case Verdict::kSkipped: return "skipped";
    case Verdict::kUnchecked: return "unchecked";
    case Verdict::kWrong: return "wrong";
  }
  return "?";
}

namespace {

Check Wrong(std::string reason) { return {Verdict::kWrong, std::move(reason)}; }

/// Common prefix of every answer check: skipped / failed / truncated /
/// approximate answers are decided here; nullopt means "exact result to
/// compare".
std::optional<Check> Triage(const QueryAnswer& answer) {
  if (answer.skipped) {
    if (!answer.status.ok()) return Wrong("skipped with " + answer.status.ToString());
    return Check{Verdict::kSkipped, answer.skip_reason};
  }
  if (!answer.status.ok()) return Wrong("status " + answer.status.ToString());
  if (answer.result == nullptr) return Wrong("OK answer without a result");
  if (answer.truncated || answer.result->truncated) {
    return Wrong("truncated answer");
  }
  if (answer.approximate || answer.result->approximate) {
    return CheckApproximate(answer);
  }
  return std::nullopt;
}

bool IsInteger(const Value& v, int64_t expected) {
  if (v.type() == DataType::kInt64) return v.int_value() == expected;
  if (v.type() == DataType::kFloat64) {
    return v.double_value() == static_cast<double>(expected);
  }
  return false;
}

}  // namespace

Check CheckApproximate(const QueryAnswer& answer) {
  if (!answer.approximate || answer.result == nullptr ||
      !answer.result->approximate) {
    return Wrong("approximate flag missing on answer or result");
  }
  if (!(answer.sample_rate > 0.0 && answer.sample_rate < 1.0)) {
    return Wrong("approximate answer with sample rate " +
                 std::to_string(answer.sample_rate));
  }
  bool has_ci = false;
  for (const auto& ci : answer.relative_ci95) {
    if (ci.has_value()) has_ci = true;
  }
  if (!has_ci) return Wrong("approximate answer without a confidence interval");
  return {Verdict::kApproxOk, ""};
}

// ---------------------------------------------------------------------------
// Generated analytic data.
// ---------------------------------------------------------------------------

FactData FactData::Generate(size_t fact_rows, size_t dim_rows, uint64_t seed) {
  FactData d;
  d.fact_rows = fact_rows;
  d.dim_rows = dim_rows;
  Rng rng(seed ^ 0xfac75eedull);
  d.dim_id.resize(fact_rows);
  d.grp.resize(fact_rows);
  d.qty.resize(fact_rows);
  for (size_t i = 0; i < fact_rows; ++i) {
    d.dim_id[i] = static_cast<int64_t>(rng.NextUint(dim_rows));
    d.grp[i] = static_cast<int64_t>(rng.NextUint(kGroups));
    d.qty[i] = 1 + static_cast<int64_t>(rng.NextUint(1000));
  }
  d.region.resize(dim_rows);
  d.tier.resize(dim_rows);
  for (size_t j = 0; j < dim_rows; ++j) {
    d.region[j] = static_cast<int64_t>(rng.NextUint(kRegions));
    d.tier[j] = static_cast<int64_t>(rng.NextUint(kTiers));
  }
  return d;
}

Schema FactData::FactSchema() {
  return Schema({ColumnDef("id", DataType::kInt64),
                 ColumnDef("dim_id", DataType::kInt64),
                 ColumnDef("grp", DataType::kInt64),
                 ColumnDef("qty", DataType::kInt64),
                 ColumnDef("touch", DataType::kInt64)});
}

Schema FactData::DimSchema() {
  return Schema({ColumnDef("dim_id", DataType::kInt64),
                 ColumnDef("region", DataType::kString),
                 ColumnDef("tier", DataType::kInt64)});
}

Row FactData::FactRow(size_t i) const {
  return {Value::Int(static_cast<int64_t>(i)), Value::Int(dim_id[i]),
          Value::Int(grp[i]), Value::Int(qty[i]), Value::Int(0)};
}

Row FactData::DimRow(size_t d) const {
  return {Value::Int(static_cast<int64_t>(d)), Value::String(RegionName(region[d])),
          Value::Int(tier[d])};
}

std::string RegionName(int64_t region) { return "r" + std::to_string(region); }

std::string AnalyticQuery::Sql() const {
  const std::string range = "facts.id >= " + std::to_string(lo) +
                            " AND facts.id < " + std::to_string(hi);
  switch (shape) {
    case Shape::kFilterAgg:
      return "SELECT COUNT(*), SUM(facts.qty) FROM facts WHERE " + range +
             " AND facts.grp <> " + std::to_string(grp);
    case Shape::kRangeGroupBy:
      return "SELECT facts.grp, COUNT(*), SUM(facts.qty) FROM facts WHERE " +
             range + " GROUP BY facts.grp";
    case Shape::kJoinAgg:
      return "SELECT dims.region, COUNT(*), SUM(facts.qty) FROM facts JOIN "
             "dims ON facts.dim_id = dims.dim_id WHERE " +
             range + " AND dims.tier <> " + std::to_string(tier) +
             " GROUP BY dims.region";
  }
  return "";
}

AnalyticQuery MakeAnalyticQuery(uint64_t k, const FactData& data,
                                uint64_t seed) {
  const uint64_t n = data.fact_rows;
  // Ranges cover 2%..25% of the table; lo walks a full-period permutation
  // of [0, span) so no two k below `span` share a start.
  const uint64_t wmin = std::max<uint64_t>(1, n / 50);
  const uint64_t wmax = std::max<uint64_t>(wmin + 1, n / 4);
  const uint64_t span = std::max<uint64_t>(1, n - wmax);
  uint64_t a = 2654435761ull % span;
  if (a == 0) a = 1;
  while (std::gcd(a, span) != 1) ++a;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + k);
  AnalyticQuery q;
  q.lo = static_cast<int64_t>((a * (k % span) + seed) % span);
  q.hi = q.lo + static_cast<int64_t>(wmin + rng.NextUint(wmax - wmin));
  q.shape = static_cast<Shape>(k % 3);
  q.grp = static_cast<int64_t>(rng.NextUint(kGroups));
  q.tier = static_cast<int64_t>(rng.NextUint(kTiers));
  q.exploratory = rng.NextUint(4) == 0;
  return q;
}

Expected Evaluate(const AnalyticQuery& q, const FactData& data) {
  Expected e;
  const size_t lo = static_cast<size_t>(std::max<int64_t>(0, q.lo));
  const size_t hi = std::min(static_cast<size_t>(std::max<int64_t>(0, q.hi)),
                             data.fact_rows);
  switch (q.shape) {
    case Shape::kFilterAgg: {
      e.single_row = true;
      int64_t count = 0, sum = 0;
      for (size_t i = lo; i < hi; ++i) {
        if (data.grp[i] != q.grp) {
          ++count;
          sum += data.qty[i];
        }
      }
      e.groups[""] = {count, sum};
      break;
    }
    case Shape::kRangeGroupBy:
      for (size_t i = lo; i < hi; ++i) {
        auto& g = e.groups[std::to_string(data.grp[i])];
        ++g.first;
        g.second += data.qty[i];
      }
      break;
    case Shape::kJoinAgg:
      for (size_t i = lo; i < hi; ++i) {
        size_t d = static_cast<size_t>(data.dim_id[i]);
        if (data.tier[d] == q.tier) continue;
        auto& g = e.groups[RegionName(data.region[d])];
        ++g.first;
        g.second += data.qty[i];
      }
      break;
  }
  return e;
}

Check CheckExactResult(const ResultSet& rs, const Expected& expected) {
  if (expected.single_row) {
    if (rs.rows.size() != 1 || rs.rows[0].size() != 2) {
      return Wrong("expected one row of (count, sum), got " +
                   std::to_string(rs.rows.size()) + " rows");
    }
    const auto& [count, sum] = expected.groups.at("");
    const Row& row = rs.rows[0];
    if (!IsInteger(row[0], count)) {
      return Wrong("count " + row[0].ToString() + " != " + std::to_string(count));
    }
    bool sum_ok = count == 0 ? row[1].is_null() : IsInteger(row[1], sum);
    if (!sum_ok) {
      return Wrong("sum " + row[1].ToString() + " != " + std::to_string(sum));
    }
    return {Verdict::kCorrect, ""};
  }
  if (rs.rows.size() != expected.groups.size()) {
    return Wrong("expected " + std::to_string(expected.groups.size()) +
                 " groups, got " + std::to_string(rs.rows.size()));
  }
  std::set<std::string> seen;
  for (const Row& row : rs.rows) {
    if (row.size() != 3) return Wrong("expected (key, count, sum) rows");
    std::string key = row[0].ToString();
    auto it = expected.groups.find(key);
    if (it == expected.groups.end()) return Wrong("unexpected group " + key);
    if (!seen.insert(key).second) return Wrong("duplicate group " + key);
    if (!IsInteger(row[1], it->second.first) ||
        !IsInteger(row[2], it->second.second)) {
      return Wrong("group " + key + ": got (" + row[1].ToString() + ", " +
                   row[2].ToString() + "), want (" +
                   std::to_string(it->second.first) + ", " +
                   std::to_string(it->second.second) + ")");
    }
  }
  return {Verdict::kCorrect, ""};
}

Check CheckAnalyticAnswer(const QueryAnswer& answer, const Expected& expected) {
  if (auto triaged = Triage(answer)) {
    if (triaged->verdict != Verdict::kApproxOk || expected.single_row) {
      return *triaged;
    }
    // Sampled group-bys may miss groups but must not invent them.
    for (const Row& row : answer.result->rows) {
      if (row.empty() || expected.groups.count(row[0].ToString()) == 0) {
        return Wrong("approximate answer invents group " +
                     (row.empty() ? std::string("<empty>") : row[0].ToString()));
      }
    }
    return *triaged;
  }
  return CheckExactResult(*answer.result, expected);
}

// ---------------------------------------------------------------------------
// MiniBird.
// ---------------------------------------------------------------------------

namespace {

/// Renders a row as a comparison key (type-insensitive for numerics).
std::string RowKey(const Row& row) {
  std::string key;
  for (const Value& v : row) {
    if (v.type() == DataType::kFloat64 || v.type() == DataType::kInt64) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.9g", v.AsDouble());
      key += buf;
    } else {
      key += v.ToString();
    }
    key += '\x1f';
  }
  return key;
}

}  // namespace

void MiniBirdOracle::AddTable(TableCopy table) {
  Indexed& slot = tables_[table.name];
  const size_t columns = table.schema.NumColumns();
  slot.nulls.assign(columns, 0);
  slot.value_counts.assign(columns, {});
  slot.distinct_keys.assign(columns, {});
  for (const Row& r : table.rows) {
    slot.row_keys.insert(RowKey(r));
    for (size_t c = 0; c < columns && c < r.size(); ++c) {
      slot.distinct_keys[c].insert(RowKey({r[c]}));
      if (r[c].is_null()) {
        ++slot.nulls[c];
      } else {
        ++slot.value_counts[c][r[c].ToString()];
      }
    }
  }
  slot.copy = std::move(table);
}

void MiniBirdOracle::AddGold(const std::string& sql, ResultSetPtr answer) {
  gold_[sql] = std::move(answer);
}

const MiniBirdOracle::Indexed* MiniBirdOracle::Table(
    const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

Check MiniBirdOracle::CheckAnswer(const QueryAnswer& answer) const {
  if (auto triaged = Triage(answer)) return *triaged;
  return CheckExact(answer.sql, *answer.result);
}

Check MiniBirdOracle::CheckExact(const std::string& sql,
                                 const ResultSet& rs) const {
  static const std::regex kTables(
      R"(SELECT table_name, num_rows FROM information_schema\.tables)",
      std::regex::icase);
  static const std::regex kColumns(
      R"(SELECT column_name, data_type FROM information_schema\.columns WHERE table_name = '(\w+)')",
      std::regex::icase);
  static const std::regex kColumnStats(
      R"(SELECT column_name, num_distinct, num_nulls, most_common_value FROM information_schema\.column_stats WHERE table_name = '(\w+)')",
      std::regex::icase);
  static const std::regex kSample(R"(SELECT \* FROM (\w+) LIMIT (\d+))",
                                  std::regex::icase);
  static const std::regex kEquals(
      R"(SELECT (\w+) FROM (\w+) WHERE (\w+) = '([^']*)' LIMIT (\d+))",
      std::regex::icase);
  static const std::regex kDistinct(R"(SELECT DISTINCT (\w+) FROM (\w+) LIMIT (\d+))",
                                    std::regex::icase);
  static const std::regex kCount(R"(SELECT count\(\*\) FROM (\w+))",
                                 std::regex::icase);
  std::smatch m;
  // A cheap prefix test picks the one pattern worth matching: the checks run
  // on the client threads between probes, beside the server's threads.
  auto has_prefix = [&](const char* prefix) { return sql.rfind(prefix, 0) == 0; };
  auto table = [&](const std::string& name) { return Table(name); };
  auto column_index = [](const TableCopy& t, const std::string& col) -> int {
    for (size_t i = 0; i < t.schema.NumColumns(); ++i) {
      if (t.schema.column(i).name == col) return static_cast<int>(i);
    }
    return -1;
  };

  if (has_prefix("SELECT table_name, num_rows ") && std::regex_match(sql, kTables)) {
    size_t found = 0;
    for (const Row& row : rs.rows) {
      if (row.size() != 2) return Wrong("tables listing: bad row width");
      const Indexed* t = table(row[0].ToString());
      if (t == nullptr) continue;  // not a data table of this database
      ++found;
      if (!IsInteger(row[1], static_cast<int64_t>(t->copy.rows.size()))) {
        return Wrong("num_rows of " + t->copy.name + " is " + row[1].ToString());
      }
    }
    if (found != tables_.size()) return Wrong("tables listing misses a table");
    return {Verdict::kCorrect, ""};
  }
  if (has_prefix("SELECT column_name, data_type ") &&
      std::regex_match(sql, m, kColumns)) {
    const Indexed* t = table(m[1]);
    if (t == nullptr) return Wrong("columns of unknown table");
    if (rs.rows.size() != t->copy.schema.NumColumns()) {
      return Wrong("columns listing has " + std::to_string(rs.rows.size()) +
                   " rows");
    }
    for (size_t i = 0; i < rs.rows.size(); ++i) {
      const auto& col = t->copy.schema.column(i);
      if (rs.rows[i].size() != 2 || rs.rows[i][0].ToString() != col.name ||
          rs.rows[i][1].ToString() != agentfirst::DataTypeName(col.type)) {
        return Wrong("columns listing row " + std::to_string(i) + " differs");
      }
    }
    return {Verdict::kCorrect, ""};
  }
  if (has_prefix("SELECT column_name, num_distinct") &&
      std::regex_match(sql, m, kColumnStats)) {
    const Indexed* t = table(m[1]);
    if (t == nullptr) return Wrong("column_stats of unknown table");
    if (rs.rows.size() != t->copy.schema.NumColumns()) {
      return Wrong("column_stats has " + std::to_string(rs.rows.size()) + " rows");
    }
    for (const Row& row : rs.rows) {
      if (row.size() != 4) return Wrong("column_stats: bad row width");
      int c = column_index(t->copy, row[0].ToString());
      if (c < 0) return Wrong("column_stats names unknown column");
      const int64_t nulls = t->nulls[c];
      if (!IsInteger(row[2], nulls)) {
        return Wrong("num_nulls of " + row[0].ToString() + " is " +
                     row[2].ToString() + ", want " + std::to_string(nulls));
      }
    }
    return {Verdict::kCorrect, ""};
  }
  if (has_prefix("SELECT * FROM ") && std::regex_match(sql, m, kSample)) {
    const Indexed* t = table(m[1]);
    if (t == nullptr) return Wrong("sample of unknown table");
    size_t limit = std::stoul(m[2]);
    if (rs.rows.size() != std::min(limit, t->copy.rows.size())) {
      return Wrong("sample has " + std::to_string(rs.rows.size()) + " rows");
    }
    for (const Row& row : rs.rows) {
      if (t->row_keys.count(RowKey(row)) == 0) {
        return Wrong("sample row not in table " + t->copy.name);
      }
    }
    return {Verdict::kCorrect, ""};
  }
  if (sql.find(" LIMIT ") != std::string::npos &&
      std::regex_match(sql, m, kEquals) && m[1] == m[3]) {
    const Indexed* t = table(m[2]);
    int c = t == nullptr ? -1 : column_index(t->copy, m[1]);
    if (c < 0) return Wrong("equality probe on unknown column");
    const std::string value = m[4];
    auto hit = t->value_counts[c].find(value);
    const size_t matches = hit == t->value_counts[c].end() ? 0 : hit->second;
    size_t limit = std::stoul(m[5]);
    if (rs.rows.size() != std::min(limit, matches)) {
      return Wrong("equality probe has " + std::to_string(rs.rows.size()) +
                   " rows, want " + std::to_string(std::min(limit, matches)));
    }
    for (const Row& row : rs.rows) {
      if (row.size() != 1 || row[0].ToString() != value) {
        return Wrong("equality probe returned another value");
      }
    }
    return {Verdict::kCorrect, ""};
  }
  if (has_prefix("SELECT DISTINCT ") && std::regex_match(sql, m, kDistinct)) {
    const Indexed* t = table(m[2]);
    int c = t == nullptr ? -1 : column_index(t->copy, m[1]);
    if (c < 0) return Wrong("distinct probe on unknown column");
    const auto& values = t->distinct_keys[c];
    size_t limit = std::stoul(m[3]);
    if (rs.rows.size() != std::min(limit, values.size())) {
      return Wrong("distinct probe has " + std::to_string(rs.rows.size()) +
                   " rows, want " + std::to_string(std::min(limit, values.size())));
    }
    std::set<std::string> seen;
    for (const Row& row : rs.rows) {
      std::string key = RowKey(row);
      if (values.count(key) == 0) return Wrong("distinct value not in column");
      if (!seen.insert(key).second) return Wrong("distinct value repeated");
    }
    return {Verdict::kCorrect, ""};
  }
  if (has_prefix("SELECT count(*) FROM ") && std::regex_match(sql, m, kCount)) {
    const Indexed* t = table(m[1]);
    if (t == nullptr) return Wrong("count of unknown table");
    if (rs.rows.size() != 1 || rs.rows[0].size() != 1 ||
        !IsInteger(rs.rows[0][0], static_cast<int64_t>(t->copy.rows.size()))) {
      return Wrong("count(*) of " + t->copy.name + " differs");
    }
    return {Verdict::kCorrect, ""};
  }
  auto gold = gold_.find(sql);
  if (gold != gold_.end()) {
    if (gold->second == nullptr || !agentfirst::ResultsEquivalent(rs, *gold->second)) {
      return Wrong("gold query answer differs from the task's reference");
    }
    return {Verdict::kCorrect, ""};
  }
  return {Verdict::kUnchecked, "agent-mutated attempt"};
}

}  // namespace fleetbench
