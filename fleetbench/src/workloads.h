#ifndef FLEETBENCH_WORKLOADS_H_
#define FLEETBENCH_WORKLOADS_H_

// The three served workloads: how each builds its system (set-up) and what
// each session sends (the closed-loop op stream).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/system.h"
#include "oracle.h"
#include "workload/minibird.h"

namespace fleetbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // holds the paged data dirs; removed at exit
  std::string git_sha = "unknown";
};

/// Closed-loop sessions: one connection and one client thread each.
inline constexpr size_t kSessions = 4;
/// Set-ups per run; setup_s is their median and the first one serves. A
/// MiniBird set-up takes about 10 ms, so it gets many more repetitions than
/// the analytic ones (1-2 s each): the host's speed drifts within a run, and
/// the median must span about a second of set-ups to hold steady.
size_t SetupCount(const std::string& workload);

bool KnownWorkload(const std::string& name);

/// paged_read and paged_mixed: durable, paged, reopened after the run.
bool IsPaged(const std::string& workload);

/// paged_mixed: every tenth op is a write.
bool HasWrites(const std::string& workload);

/// Data the benchmark generates once per run, before any set-up: the
/// oracle's copy of the analytic tables.
struct Inputs {
  FactData facts;  // empty for fleet_minibird
};

Inputs MakeInputs(const Config& config);

/// One fully set-up system: loaded, warmed (statistics built), ready to be
/// served. Owns the AgentFirstSystem.
struct Fixture {
  std::vector<agentfirst::MiniBirdDatabase> minibird;  // fleet_minibird
  std::unique_ptr<agentfirst::AgentFirstSystem> owned;  // the other two
  agentfirst::AgentFirstSystem* db = nullptr;
  std::string data_dir;  // paged workloads only
  uint64_t pool_budget_bytes = 0;
  uint64_t table_bytes = 0;
  std::string largest_table;
};

/// Builds the workload's system in `data_dir` (used by paged workloads only).
agentfirst::Result<std::unique_ptr<Fixture>> BuildFixture(
    const Config& config, const Inputs& inputs, const std::string& data_dir);

/// fleet_minibird: the oracle's copy of every table of a set-up MiniBird
/// fixture, read back through Table::GetRow, plus each task's reference
/// answer. Built once per run, outside the timed set-up.
agentfirst::Result<std::unique_ptr<MiniBirdOracle>> BuildMiniBirdOracle(
    const Fixture& fixture);

/// Paged workloads: reopens the data dir the way a restarted server does
/// (durability first, then paging).
agentfirst::Result<std::unique_ptr<agentfirst::AgentFirstSystem>> ReopenPaged(
    const std::string& data_dir, uint64_t pool_budget_bytes);

/// paged_mixed write stream. Writes touch only rows and columns no read
/// predicate or aggregate uses: INSERTs add ids >= fact_rows (reads filter
/// id < fact_rows) and UPDATEs set `touch`, which no read references.
struct WriteOp {
  bool insert = false;
  int64_t id = 0;
  int64_t qty = 0;    // insert only
  int64_t touch = 0;  // update only
  std::string Sql(const FactData& facts) const;
};

WriteOp MakeWrite(uint64_t w, const FactData& facts, uint64_t seed);

/// True when op `j` of session `s` is a write (every tenth op).
bool IsWrite(uint64_t seed, size_t session, uint64_t j);

}  // namespace fleetbench

#endif  // FLEETBENCH_WORKLOADS_H_
