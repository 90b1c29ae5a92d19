#include "workloads.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "common/rng.h"
#include "storage/table.h"
#include "wal/wal.h"

namespace fleetbench {

using agentfirst::AgentFirstSystem;
using agentfirst::Probe;
using agentfirst::ProbePhase;
using agentfirst::Result;
using agentfirst::Rng;
using agentfirst::Status;
using agentfirst::TablePtr;

namespace {

constexpr size_t kFactRows = 250000;
constexpr size_t kDimRows = 1000;
constexpr double kPoolFraction = 0.4;
constexpr size_t kLoadChunk = 8192;

Status LoadTable(AgentFirstSystem* db, const std::string& name,
                 const Schema& schema, size_t rows,
                 const std::function<Row(size_t)>& row_at) {
  auto table = db->catalog()->CreateTable(name, schema);
  if (!table.ok()) return table.status();
  std::vector<Row> chunk;
  chunk.reserve(kLoadChunk);
  for (size_t i = 0; i < rows; ++i) {
    chunk.push_back(row_at(i));
    if (chunk.size() == kLoadChunk || i + 1 == rows) {
      AF_RETURN_IF_ERROR((*table)->AppendRows(chunk));
      chunk.clear();
    }
  }
  return Status::OK();
}

/// Estimated in-memory bytes of the facts + dims tables, from a prefix.
uint64_t EstimateTableBytes(const FactData& facts) {
  const size_t sample = std::min<size_t>(facts.fact_rows, 32768);
  agentfirst::Table probe("estimate", FactData::FactSchema());
  for (size_t i = 0; i < sample; ++i) (void)probe.AppendRow(facts.FactRow(i));
  agentfirst::Table dims("estimate_dims", FactData::DimSchema());
  for (size_t d = 0; d < facts.dim_rows; ++d) (void)dims.AppendRow(facts.DimRow(d));
  double per_row = static_cast<double>(probe.TotalBytes()) /
                   static_cast<double>(std::max<size_t>(1, sample));
  return static_cast<uint64_t>(per_row * static_cast<double>(facts.fact_rows)) +
         dims.TotalBytes();
}

/// Builds lazily computed state (table statistics) and runs one probe of
/// each read shape in-process, so the timed phase starts warm.
Status Warm(AgentFirstSystem* db, const FactData& facts) {
  for (const std::string& name : db->catalog()->ListTables()) {
    AF_RETURN_IF_ERROR(db->catalog()->GetStats(name).status());
  }
  if (facts.fact_rows == 0) return Status::OK();
  for (Shape shape : {Shape::kFilterAgg, Shape::kRangeGroupBy, Shape::kJoinAgg}) {
    AnalyticQuery q;
    q.shape = shape;
    q.lo = 0;
    q.hi = static_cast<int64_t>(facts.fact_rows);
    Probe probe;
    probe.agent_id = "warmup";
    probe.queries = {q.Sql()};
    probe.brief.phase = ProbePhase::kValidation;
    auto response = db->HandleProbe(probe);
    if (!response.ok()) return response.status();
    Check check = CheckAnalyticAnswer(response->answers.at(0), Evaluate(q, facts));
    if (check.verdict != Verdict::kCorrect) {
      return Status::Internal("warm-up answer wrong: " + check.reason);
    }
  }
  return Status::OK();
}

Status LoadFacts(AgentFirstSystem* db, const FactData& facts) {
  AF_RETURN_IF_ERROR(LoadTable(db, "facts", FactData::FactSchema(),
                               facts.fact_rows,
                               [&](size_t i) { return facts.FactRow(i); }));
  return LoadTable(db, "dims", FactData::DimSchema(), facts.dim_rows,
                   [&](size_t d) { return facts.DimRow(d); });
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "fleet_minibird" || name == "analytic_unshared" ||
         IsPaged(name);
}

size_t SetupCount(const std::string& workload) {
  return workload == "fleet_minibird" ? 101 : 7;
}

bool IsPaged(const std::string& workload) {
  return workload == "paged_read" || workload == "paged_mixed";
}

bool HasWrites(const std::string& workload) { return workload == "paged_mixed"; }

Inputs MakeInputs(const Config& config) {
  Inputs inputs;
  if (config.workload != "fleet_minibird") {
    inputs.facts = FactData::Generate(kFactRows, kDimRows, config.seed);
  }
  return inputs;
}

Result<std::unique_ptr<Fixture>> BuildFixture(const Config& config,
                                              const Inputs& inputs,
                                              const std::string& data_dir) {
  auto fixture = std::make_unique<Fixture>();
  if (config.workload == "fleet_minibird") {
    agentfirst::MiniBirdOptions options;
    options.num_databases = 1;  // default sizes and generator seed
    fixture->minibird = agentfirst::GenerateMiniBird(options);
    if (fixture->minibird.empty()) return Status::Internal("no MiniBird database");
    fixture->db = fixture->minibird[0].system.get();
    size_t largest = 0;
    for (const std::string& name : fixture->db->catalog()->ListTables()) {
      AF_ASSIGN_OR_RETURN(TablePtr table, fixture->db->catalog()->GetTable(name));
      if (table->NumRows() >= largest) {
        largest = table->NumRows();
        fixture->largest_table = name;
      }
    }
    AF_RETURN_IF_ERROR(Warm(fixture->db, FactData()));
    return fixture;
  }

  fixture->owned = std::make_unique<AgentFirstSystem>();
  fixture->db = fixture->owned.get();
  fixture->largest_table = "facts";
  if (IsPaged(config.workload)) {
    fixture->data_dir = data_dir;
    agentfirst::wal::DurabilityOptions durability;
    durability.data_dir = data_dir;
    AF_RETURN_IF_ERROR(fixture->db->EnableDurability(durability));
    fixture->pool_budget_bytes = static_cast<uint64_t>(
        kPoolFraction * static_cast<double>(EstimateTableBytes(inputs.facts)));
    agentfirst::storage::StorageOptions paging;
    paging.dir = data_dir + "/pages";
    paging.max_table_bytes = fixture->pool_budget_bytes;
    AF_RETURN_IF_ERROR(fixture->db->EnableStorage(paging));
  }
  AF_RETURN_IF_ERROR(LoadFacts(fixture->db, inputs.facts));
  AF_RETURN_IF_ERROR(fixture->db->DurabilityBarrier());
  for (const std::string& name : fixture->db->catalog()->ListTables()) {
    AF_ASSIGN_OR_RETURN(TablePtr table, fixture->db->catalog()->GetTable(name));
    fixture->table_bytes += table->TotalBytes();
  }
  AF_RETURN_IF_ERROR(Warm(fixture->db, inputs.facts));
  return fixture;
}

Result<std::unique_ptr<MiniBirdOracle>> BuildMiniBirdOracle(const Fixture& fixture) {
  auto oracle = std::make_unique<MiniBirdOracle>();
  for (const std::string& name : fixture.db->catalog()->ListTables()) {
    AF_ASSIGN_OR_RETURN(TablePtr table, fixture.db->catalog()->GetTable(name));
    TableCopy copy{name, table->schema(), {}};
    copy.rows.reserve(table->NumRows());
    for (size_t r = 0; r < table->NumRows(); ++r) {
      AF_ASSIGN_OR_RETURN(Row row, table->GetRow(r));
      copy.rows.push_back(std::move(row));
    }
    oracle->AddTable(std::move(copy));
  }
  for (const auto& task : fixture.minibird.at(0).tasks) {
    oracle->AddGold(task.gold_sql, task.gold_answer);
  }
  return oracle;
}

Result<std::unique_ptr<AgentFirstSystem>> ReopenPaged(const std::string& data_dir,
                                                      uint64_t pool_budget_bytes) {
  auto db = std::make_unique<AgentFirstSystem>();
  agentfirst::wal::DurabilityOptions durability;
  durability.data_dir = data_dir;
  AF_RETURN_IF_ERROR(db->EnableDurability(durability));
  agentfirst::storage::StorageOptions paging;
  paging.dir = data_dir + "/pages";
  paging.max_table_bytes = pool_budget_bytes;
  AF_RETURN_IF_ERROR(db->EnableStorage(paging));
  return db;
}

std::string WriteOp::Sql(const FactData& facts) const {
  if (insert) {
    const size_t d = static_cast<size_t>(id) % facts.dim_rows;
    return "INSERT INTO facts VALUES (" + std::to_string(id) + ", " +
           std::to_string(d) + ", " + std::to_string(id % kGroups) + ", " +
           std::to_string(qty) + ", 0)";
  }
  return "UPDATE facts SET touch = " + std::to_string(touch) +
         " WHERE id = " + std::to_string(id);
}

WriteOp MakeWrite(uint64_t w, const FactData& facts, uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + w);
  WriteOp op;
  op.insert = w % 2 == 0;
  const uint64_t n = facts.fact_rows;
  if (op.insert) {
    op.id = static_cast<int64_t>(n + w);
    op.qty = 1 + static_cast<int64_t>(rng.NextUint(1000));
  } else {
    // A full-period walk over existing ids: distinct writes never update the
    // same row, so the last acknowledged value of every row is known.
    uint64_t a = 40503;
    while (std::gcd(a, n) != 1) ++a;
    op.id = static_cast<int64_t>((a * w + seed) % n);
    op.touch = static_cast<int64_t>(w + 1);
  }
  return op;
}

bool IsWrite(uint64_t seed, size_t session, uint64_t j) {
  // Exactly every tenth op, at a seeded phase per session: a random draw per
  // op would let the write count (and with it every statistics recompute it
  // forces) vary from run to run.
  Rng rng(seed * 0xd1b54a32d192ed03ull + session);
  return (j + rng.NextUint(10)) % 10 == 9;
}

}  // namespace fleetbench
