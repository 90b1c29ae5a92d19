// Tests of the benchmark's own code: the tail-percentile rule, ratio bases,
// and the output oracle (passes real answers on a tiny fixture, flags
// deliberately wrong ones).
//
//   python3 fleetbench/run.py --self-test

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>

#include "core/system.h"
#include "oracle.h"
#include "report.h"

namespace fleetbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, ReportsP99WhenTenSamplesLieBeyondIt) {
  Tail t = TailPercentile(OneTo(1000));
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_TRUE(t.meets_rule);
}

TEST(TailPercentile, StopsAtP99) {
  Tail t = TailPercentile(OneTo(100000));
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 99000);
}

TEST(TailPercentile, FallsBackToTheHighestPercentileWithTenBeyond) {
  // 999 samples: only 9 lie beyond p99, 19 beyond p98.
  EXPECT_EQ(TailPercentile(OneTo(999)).pct, 98);
  Tail t = TailPercentile(OneTo(100));
  EXPECT_EQ(t.pct, 90);
  EXPECT_EQ(t.value, 90);
  EXPECT_EQ(TailPercentile(OneTo(40)).pct, 75);
}

TEST(TailPercentile, TooFewSamplesReportTheMedianAndSaySo) {
  Tail t = TailPercentile(OneTo(19));
  EXPECT_EQ(t.pct, 50);
  EXPECT_FALSE(t.meets_rule);
  EXPECT_EQ(t.samples, 19u);
  Report r;
  r.AddTail("x_ms", t, "ms");
  EXPECT_NE(r.RenderLines().find("p50 of 19 samples"), std::string::npos);
  EXPECT_NE(r.RenderLines().find("fewer than 10"), std::string::npos);
}

TEST(SummarizeWindows, FewSamplesAreOneWholeRunWindow) {
  std::vector<double> values = OneTo(999);
  std::vector<double> ends(values.size(), 1.0);
  Windowed w = SummarizeWindows(ends, values, 4.0);
  EXPECT_EQ(w.windows, 1u);
  EXPECT_EQ(w.p50, Median(values));
  EXPECT_EQ(w.p90, Percentile(values, 90));
  EXPECT_EQ(w.tail.value, TailPercentile(values).value);
  EXPECT_EQ(w.tail.pct, 98);
  EXPECT_DOUBLE_EQ(w.rate, 999 / 4.0);
}

TEST(SummarizeWindows, OneNoisyWindowDoesNotMoveTheMedians) {
  // 2,000 samples a second for 10 s, except that second 3 is ten times
  // slower and half as busy.
  std::vector<double> ends, values;
  for (size_t w = 0; w < 10; ++w) {
    const size_t n = w == 3 ? 1000 : 2000;
    for (size_t i = 0; i < n; ++i) {
      ends.push_back(static_cast<double>(w) + (i + 0.5) / n);
      values.push_back((w == 3 ? 10.0 : 1.0) * (1.0 + i % 100));
    }
  }
  Windowed w = SummarizeWindows(ends, values, 10.0);
  EXPECT_EQ(w.windows, 9u);  // 19,000 samples / 2,000
  EXPECT_EQ(w.tail.windows, 9u);
  EXPECT_EQ(w.tail.pct, 99);
  EXPECT_EQ(w.tail.samples, 19000u);
  EXPECT_LT(w.tail.value, 101);
  EXPECT_LT(w.p50, 52);
  EXPECT_LT(w.p90, 92);
  EXPECT_GT(w.rate, 1800);
  Report r;
  r.AddTail("x_ms", w.tail, "ms");
  EXPECT_NE(r.RenderLines().find("median of 9 windows' tails"), std::string::npos);
}

TEST(Ratio, EveryRatioLineStatesItsBase) {
  Report r;
  r.AddRatio("hit_ratio", {3, 30, "queries"});
  r.AddRatio("empty_ratio", {0, 0, "writes"});
  ASSERT_NE(r.Find("hit_ratio"), nullptr);
  EXPECT_DOUBLE_EQ(r.Find("hit_ratio")->value, 0.1);
  EXPECT_DOUBLE_EQ(r.Find("empty_ratio")->value, 0.0);
  for (const Metric& m : r.metrics()) {
    EXPECT_EQ(m.unit, "ratio");
    EXPECT_EQ(m.note.rfind("base ", 0), 0u) << m.name;
  }
  EXPECT_NE(r.RenderLines().find("base 30 queries"), std::string::npos);
  EXPECT_NE(r.RenderLines().find("base 0 writes"), std::string::npos);
}

TEST(Report, JsonHasExactlyTheRequestedMetrics) {
  Report r;
  r.Add("a_ms", 1.5, "ms");
  r.Add("b", 2, "count");
  std::string json = r.RenderJson(true, 7, 0, {"a_ms"});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": "
            "{\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
}

// ---- Oracle on a tiny fixture served by the real system. ------------------

class OracleFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = FactData::Generate(/*fact_rows=*/600, /*dim_rows=*/12, /*seed=*/7);
    auto facts = db_.catalog()->CreateTable("facts", FactData::FactSchema());
    ASSERT_TRUE(facts.ok());
    for (size_t i = 0; i < data_.fact_rows; ++i) {
      ASSERT_TRUE((*facts)->AppendRow(data_.FactRow(i)).ok());
    }
    auto dims = db_.catalog()->CreateTable("dims", FactData::DimSchema());
    ASSERT_TRUE(dims.ok());
    for (size_t d = 0; d < data_.dim_rows; ++d) {
      ASSERT_TRUE((*dims)->AppendRow(data_.DimRow(d)).ok());
    }
  }

  agentfirst::QueryAnswer Ask(const AnalyticQuery& q) {
    agentfirst::Probe probe;
    probe.agent_id = "test";
    probe.queries = {q.Sql()};
    probe.brief.phase = agentfirst::ProbePhase::kValidation;
    auto response = db_.HandleProbe(probe);
    EXPECT_TRUE(response.ok());
    return response->answers.at(0);
  }

  FactData data_;
  agentfirst::AgentFirstSystem db_;
};

TEST_F(OracleFixture, PassesEveryShapeOnRealAnswers) {
  for (uint64_t k = 0; k < 12; ++k) {
    AnalyticQuery q = MakeAnalyticQuery(k, data_, /*seed=*/3);
    Check c = CheckAnalyticAnswer(Ask(q), Evaluate(q, data_));
    EXPECT_EQ(c.verdict, Verdict::kCorrect) << q.Sql() << ": " << c.reason;
  }
}

TEST_F(OracleFixture, DistinctQueriesHaveDistinctText) {
  std::set<std::string> seen;
  for (uint64_t k = 0; k < 300; ++k) {
    EXPECT_TRUE(seen.insert(MakeAnalyticQuery(k, data_, 3).Sql()).second) << k;
  }
}

TEST_F(OracleFixture, FlagsADeliberatelyWrongAnswer) {
  AnalyticQuery q = MakeAnalyticQuery(1, data_, 3);  // k % 3 == 1: group-by
  ASSERT_EQ(q.shape, Shape::kRangeGroupBy);
  agentfirst::QueryAnswer answer = Ask(q);
  ASSERT_EQ(CheckAnalyticAnswer(answer, Evaluate(q, data_)).verdict,
            Verdict::kCorrect);
  auto wrong = std::make_shared<agentfirst::ResultSet>(*answer.result);
  wrong->rows[0][1] = Value::Int(wrong->rows[0][1].AsInt() + 1);  // count off by one
  answer.result = wrong;
  Check c = CheckAnalyticAnswer(answer, Evaluate(q, data_));
  EXPECT_EQ(c.verdict, Verdict::kWrong);
  EXPECT_NE(c.reason.find("group"), std::string::npos) << c.reason;
}

TEST_F(OracleFixture, ApproximateAnswersNeedTheFlagAndACi) {
  AnalyticQuery q = MakeAnalyticQuery(0, data_, 3);
  agentfirst::QueryAnswer answer = Ask(q);
  auto sampled = std::make_shared<agentfirst::ResultSet>(*answer.result);
  sampled->approximate = true;
  sampled->sample_rate = 0.05;
  answer.result = sampled;
  answer.approximate = true;
  answer.sample_rate = 0.05;
  EXPECT_EQ(CheckAnalyticAnswer(answer, Evaluate(q, data_)).verdict,
            Verdict::kWrong);  // no CI
  answer.relative_ci95 = {0.1, 0.2};
  EXPECT_EQ(CheckAnalyticAnswer(answer, Evaluate(q, data_)).verdict,
            Verdict::kApproxOk);
}

TEST(MiniBirdOracle, ChecksCountsAndFlagsAWrongOne) {
  MiniBirdOracle oracle;
  TableCopy t{"orders", FactData::DimSchema(), {}};
  FactData d = FactData::Generate(0, 5, 1);
  for (size_t i = 0; i < 5; ++i) t.rows.push_back(d.DimRow(i));
  oracle.AddTable(t);

  agentfirst::QueryAnswer answer;
  answer.sql = "SELECT count(*) FROM orders";
  auto rs = std::make_shared<agentfirst::ResultSet>();
  rs->rows = {{Value::Int(5)}};
  answer.result = rs;
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kCorrect);

  auto bad = std::make_shared<agentfirst::ResultSet>();
  bad->rows = {{Value::Int(6)}};
  answer.result = bad;
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kWrong);

  answer.sql = "SELECT * FROM orders LIMIT 5";
  auto sample = std::make_shared<agentfirst::ResultSet>();
  sample->rows = {t.rows[2], t.rows[4]};
  answer.result = sample;
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kWrong);  // 2 of 5
  sample->rows = t.rows;
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kCorrect);
  sample->rows[0][2] = Value::Int(99);  // a row the table does not hold
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kWrong);
}

TEST(MiniBirdOracle, ChecksEqualityDistinctAndNullCounts) {
  MiniBirdOracle oracle;
  TableCopy t{"orders", FactData::DimSchema(), {}};
  FactData d = FactData::Generate(0, 5, 1);
  for (size_t i = 0; i < 5; ++i) t.rows.push_back(d.DimRow(i));
  t.rows[4][1] = Value::Null();  // one NULL region
  oracle.AddTable(t);
  const std::string region = t.rows[0][1].ToString();
  size_t with_region = 0;
  std::set<std::string> regions;
  for (const Row& r : t.rows) {
    if (!r[1].is_null() && r[1].ToString() == region) ++with_region;
    regions.insert(r[1].ToString());
  }

  agentfirst::QueryAnswer answer;
  auto rs = std::make_shared<agentfirst::ResultSet>();
  answer.result = rs;
  answer.sql = "SELECT region FROM orders WHERE region = '" + region + "' LIMIT 10";
  rs->rows.assign(with_region, Row{Value::String(region)});
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kCorrect);
  rs->rows.push_back(Row{Value::String(region)});  // one match too many
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kWrong);

  answer.sql = "SELECT DISTINCT region FROM orders LIMIT 10";
  rs->rows.clear();
  for (const Row& r : t.rows) {
    bool seen = false;
    for (const Row& got : rs->rows) seen = seen || got[0].ToString() == r[1].ToString();
    if (!seen) rs->rows.push_back(Row{r[1]});
  }
  ASSERT_EQ(rs->rows.size(), regions.size());
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kCorrect);
  rs->rows.push_back(rs->rows[0]);  // a repeated value
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kWrong);

  answer.sql =
      "SELECT column_name, num_distinct, num_nulls, most_common_value FROM "
      "information_schema.column_stats WHERE table_name = 'orders'";
  rs->rows.clear();
  for (const char* col : {"dim_id", "region", "tier"}) {
    const int64_t nulls = std::string(col) == "region" ? 1 : 0;
    rs->rows.push_back({Value::String(col), Value::Int(0), Value::Int(nulls),
                        Value::Null()});
  }
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kCorrect);
  rs->rows[1][2] = Value::Int(0);  // the NULL region not counted
  EXPECT_EQ(oracle.CheckAnswer(answer).verdict, Verdict::kWrong);
}

}  // namespace
}  // namespace fleetbench
