// Agent-fleet benchmark program.
//
//   fleetbench --workload <fleet_minibird|analytic_unshared|paged_read|
//                          paged_mixed>
//              --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//              [--git-sha <sha>]
//
// Serves one workload from an in-process net::ProbeServer on loopback at
// default system and server options, drives it with a closed loop of four
// sessions (one connection and one client thread each), checks every answer
// against the benchmark's own oracle, and prints one line per metric and,
// last, the JSON result object. See fleetbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "agents/sim_agent.h"
#include "common/rng.h"
#include "catalog/stats.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "opt/cost_model.h"
#include "opt/rules.h"
#include "oracle.h"
#include "plan/binder.h"
#include "report.h"
#include "sql/parser.h"
#include "workloads.h"

namespace fleetbench {
namespace {

using agentfirst::AgentFirstSystem;
using agentfirst::Probe;
using agentfirst::ProbePhase;
using agentfirst::ProbeResponse;
using agentfirst::ProbeService;
using agentfirst::Result;
using agentfirst::Status;
using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Server-side decorator (traced runs only): times each traced probe's
// in-process AgentFirstSystem::HandleProbe, keyed by probe id.
// ---------------------------------------------------------------------------

class TimedService : public ProbeService {
 public:
  explicit TimedService(AgentFirstSystem* db) : db_(db) {}

  Result<ProbeResponse> HandleProbe(const Probe& probe) override {
    if ((probe.id & 1) == 0) return db_->HandleProbe(probe);
    Clock::time_point t0 = Clock::now();
    auto response = db_->HandleProbe(probe);
    double ms = Ms(t0, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    wall_ms_[probe.id] = ms;
    return response;
  }
  Result<std::vector<ProbeResponse>> HandleProbeBatch(
      std::vector<Probe> probes) override {
    return db_->HandleProbeBatch(std::move(probes));
  }
  Result<agentfirst::ResultSetPtr> ExecuteSql(const std::string& sql) override {
    return db_->ExecuteSql(sql);
  }
  /// In-process wall of a traced probe; -1 when unknown.
  double WallMs(uint64_t id) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = wall_ms_.find(id);
    return it == wall_ms_.end() ? -1.0 : it->second;
  }

 private:
  AgentFirstSystem* db_;
  std::mutex mutex_;
  std::unordered_map<uint64_t, double> wall_ms_;
};

// ---------------------------------------------------------------------------
// Trace analysis: exec span time and per-operator self time.
// ---------------------------------------------------------------------------

inline const char* const kOpKinds[] = {"Scan", "Filter", "HashJoin",
                                        "Aggregate", "Project", "Other"};
constexpr size_t kNumOpKinds = 6;

size_t OpSlot(const std::string& kind) {
  for (size_t i = 0; i + 1 < kNumOpKinds; ++i) {
    if (kind == kOpKinds[i]) return i;
  }
  return kNumOpKinds - 1;
}

/// Children per operator kind. Union is n-ary in plans; the workloads here
/// never produce one, so two is a placeholder, not a measurement.
size_t OpArity(const std::string& kind) {
  if (kind == "Scan") return 0;
  if (kind == "HashJoin" || kind == "NestedLoopJoin" || kind == "Union") return 2;
  return 1;
}

struct ExecBreakdown {
  double exec_ms = 0;                    // sum of exec / retry / degrade spans
  double op_self_ms[kNumOpKinds] = {};   // operator self time by kind
  double scan_rows = 0;                  // rows produced by Scan operators
};

/// Operator spans are siblings in post-order with inclusive durations; a
/// stack rebuilds the tree to subtract each child's time from its parent.
void AddOpSpans(const agentfirst::obs::TraceSpan& attempt, ExecBreakdown* out) {
  std::vector<double> stack;
  for (const auto& child : attempt.children) {
    if (child->name.rfind("op:", 0) != 0) continue;
    const std::string kind = child->name.substr(3);
    const bool cached = child->FindNote("cached") == "true";
    double inclusive = std::max(0.0, child->duration_ms);
    double children = 0;
    for (size_t a = cached ? 0 : OpArity(kind); a > 0 && !stack.empty(); --a) {
      children += stack.back();
      stack.pop_back();
    }
    out->op_self_ms[OpSlot(kind)] += std::max(0.0, inclusive - children);
    if (kind == "Scan") {
      const std::string rows = child->FindNote("rows");
      if (!rows.empty()) out->scan_rows += std::strtod(rows.c_str(), nullptr);
    }
    stack.push_back(inclusive);
  }
}

ExecBreakdown AnalyzeTrace(const agentfirst::obs::TraceSpan& root) {
  ExecBreakdown out;
  for (const auto& query : root.children) {
    if (query->name.rfind("query[", 0) != 0) continue;
    for (const auto& span : query->children) {
      if (span->name == "exec" || span->name == "degrade" ||
          span->name.rfind("retry[", 0) == 0) {
        out.exec_ms += std::max(0.0, span->duration_ms);
        AddOpSpans(*span, &out);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-session accounting.
// ---------------------------------------------------------------------------

/// One traced probe's layer measurements.
struct ProbeSample {
  double wall_ms = 0;
  double server_ms = -1;   // in-process HandleProbe wall
  double serde_us = 0;     // benchmark-timed encode+decode of request+response
  double resp_bytes = 0;
  ExecBreakdown exec;
};

struct SessionStats {
  std::vector<double> walls;           // every probe's client wall, ms
  std::vector<double> ends;            // when each of them ended, s into the phase
  std::vector<double> untraced_walls;  // traced runs: the untraced half
  std::vector<ProbeSample> traced;     // traced runs: the traced half
  std::vector<double> write_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<Verdict, uint64_t> verdicts;
  uint64_t answers_from_memory = 0;
  uint64_t answers_approximate = 0;
  uint64_t answers_total = 0;
  std::vector<std::string> failures;  // first few reasons
  std::set<std::string> traced_sql;   // distinct query text of traced probes
  double client_trace_work_ms = 0;    // benchmark work added by tracing
  // fleet_minibird episodes
  uint64_t episodes_completed = 0;
  uint64_t episodes_solved = 0;
  // paged_mixed acknowledged writes
  std::vector<WriteOp> acked_writes;

  void Fail(const std::string& reason) {
    ++failed;
    if (failures.size() < 5) failures.push_back(reason);
  }
};

/// The client side of one session: sends over the wire, times each request
/// with one clock pair, checks every answer, and (traced runs, probes whose
/// id has its low bit set) adds the layer measurements after the latency is
/// recorded.
class SessionLink : public ProbeService {
 public:
  SessionLink(agentfirst::net::Client* client, size_t session,
              Clock::time_point start, Clock::time_point deadline,
              TimedService* timed,
              const MiniBirdOracle* minibird, SessionStats* stats)
      : client_(client),
        session_(session),
        start_(start),
        deadline_(deadline),
        timed_(timed),
        minibird_(minibird),
        stats_(stats) {}

  bool closed() const { return Clock::now() >= deadline_; }
  bool cut() const { return cut_; }

  using Checker = std::function<Check(const agentfirst::QueryAnswer&)>;

  Result<ProbeResponse> Send(Probe probe, const Checker& check) {
    if (closed()) {
      cut_ = true;
      return Status::Cancelled("benchmark window closed");
    }
    // The low id bit picks the traced half of a traced run (the server-side
    // decorator reads it too). It is a hash of the position, not its parity,
    // so the traced half does not line up with any periodic op pattern.
    ++seq_;
    const uint64_t traced_bit =
        agentfirst::Rng(seq_ * 0x9e3779b97f4a7c15ull + session_).Next() & 1;
    probe.id = (static_cast<uint64_t>(session_ + 1) << 40) | (seq_ << 1) |
               traced_bit;
    ++stats_->attempted;
    Clock::time_point t0 = Clock::now();
    auto response = client_->HandleProbe(probe);
    Clock::time_point t1 = Clock::now();
    const double wall_ms = Ms(t0, t1);
    if (!response.ok()) {
      stats_->Fail("probe: " + response.status().ToString());
      return response;
    }
    bool wrong = false;
    for (const auto& answer : response->answers) {
      Check c = check(answer);
      ++stats_->verdicts[c.verdict];
      ++stats_->answers_total;
      if (answer.from_memory) ++stats_->answers_from_memory;
      if (answer.approximate) ++stats_->answers_approximate;
      if (c.verdict == Verdict::kWrong && !wrong) {
        wrong = true;
        stats_->Fail(answer.sql + ": " + c.reason);
      }
    }
    stats_->walls.push_back(wall_ms);
    stats_->ends.push_back(Ms(start_, t1) / 1e3);
    if (timed_ != nullptr && (probe.id & 1) == 1) {
      Clock::time_point w0 = Clock::now();
      ProbeSample sample;
      sample.wall_ms = wall_ms;
      Trace(probe, *response, &sample);
      stats_->traced.push_back(sample);
      stats_->client_trace_work_ms += Ms(w0, Clock::now());
    } else if (timed_ != nullptr) {
      stats_->untraced_walls.push_back(wall_ms);
    }
    return response;
  }

  /// ProbeService surface for the simulated MiniBird agents.
  Result<ProbeResponse> HandleProbe(const Probe& probe) override {
    return Send(probe, [this](const agentfirst::QueryAnswer& a) {
      return minibird_->CheckAnswer(a);
    });
  }
  Result<std::vector<ProbeResponse>> HandleProbeBatch(
      std::vector<Probe> probes) override {
    return client_->HandleProbeBatch(std::move(probes));
  }
  Result<agentfirst::ResultSetPtr> ExecuteSql(const std::string& sql) override {
    return client_->ExecuteSql(sql);
  }

 private:
  void Trace(const Probe& probe, const ProbeResponse& response,
             ProbeSample* sample) {
    namespace net = agentfirst::net;
    Clock::time_point s0 = Clock::now();
    auto request = net::EncodeProbeRequestFrame(probe.id, probe);
    if (request.ok()) {
      auto decoded = net::DecodeProbeRequestPayload(
          std::string_view(*request).substr(net::kFrameHeaderBytes));
      (void)decoded.ok();
    }
    std::string frame =
        net::EncodeProbeResponseFrame(probe.id, Status::OK(), &response);
    auto decoded = net::DecodeProbeResponsePayload(
        std::string_view(frame).substr(net::kFrameHeaderBytes));
    (void)decoded.ok();
    sample->serde_us = Ms(s0, Clock::now()) * 1e3;
    sample->resp_bytes = static_cast<double>(frame.size());
    sample->server_ms = timed_->WallMs(probe.id);
    sample->exec = AnalyzeTrace(response.trace);
    for (const std::string& q : probe.queries) {
      if (stats_->traced_sql.size() < 256) stats_->traced_sql.insert(q);
    }
  }

  agentfirst::net::Client* client_;
  size_t session_;
  Clock::time_point start_;
  Clock::time_point deadline_;
  TimedService* timed_;
  const MiniBirdOracle* minibird_;
  SessionStats* stats_;
  uint64_t seq_ = 0;
  bool cut_ = false;
};

// ---------------------------------------------------------------------------
// Session loops.
// ---------------------------------------------------------------------------

void RunFleetSession(const Config& config, const Fixture& fixture, size_t s,
                     SessionLink* link, SessionStats* stats) {
  const auto& tasks = fixture.minibird[0].tasks;
  const agentfirst::AgentProfile profile = agentfirst::StrongAgentProfile();
  for (uint64_t e = 0; !link->closed(); ++e) {
    const auto& task = tasks[(s + e * kSessions) % tasks.size()];
    agentfirst::EpisodeOptions options;
    options.seed = config.seed * 1000003ull + s * 7919ull + e;
    agentfirst::EpisodeResult result =
        agentfirst::RunEpisode(link, task, profile, options);
    if (link->cut()) break;  // the window closed mid-episode
    ++stats->episodes_completed;
    if (result.solved) ++stats->episodes_solved;
  }
}

Probe ReadProbe(const AnalyticQuery& q, size_t s) {
  Probe probe;
  probe.agent_id = "analyst-" + std::to_string(s);
  probe.queries = {q.Sql()};
  if (q.exploratory) {
    probe.brief.text = "exploring facts qty by grp and dims region";
    probe.brief.phase = ProbePhase::kStatExploration;
  } else {
    probe.brief.text = "validating facts qty totals";
    probe.brief.phase = ProbePhase::kValidation;
  }
  return probe;
}

void RunAnalyticSession(const Config& config, const Inputs& inputs, size_t s,
                        SessionLink* link, SessionStats* stats) {
  const bool writes = HasWrites(config.workload);
  for (uint64_t j = 0; !link->closed(); ++j) {
    const uint64_t k = j * kSessions + s;
    if (writes && IsWrite(config.seed, s, j)) {
      WriteOp op = MakeWrite(k, inputs.facts, config.seed);
      ++stats->attempted;
      Clock::time_point t0 = Clock::now();
      auto result = link->ExecuteSql(op.Sql(inputs.facts));
      double ms = Ms(t0, Clock::now());
      if (!result.ok()) {
        stats->Fail("write: " + result.status().ToString());
        continue;
      }
      const auto& rs = **result;
      if (rs.rows.size() != 1 || rs.rows[0].empty() ||
          rs.rows[0][0].AsInt() != 1) {
        stats->Fail("write affected other than one row: " + op.Sql(inputs.facts));
        continue;
      }
      stats->write_ms.push_back(ms);
      stats->acked_writes.push_back(op);
      continue;
    }
    AnalyticQuery q = MakeAnalyticQuery(k, inputs.facts, config.seed);
    Expected expected = Evaluate(q, inputs.facts);
    (void)link->Send(ReadProbe(q, s), [&](const agentfirst::QueryAnswer& a) {
      return CheckAnalyticAnswer(a, expected);
    });
  }
}

// ---------------------------------------------------------------------------
// Registry deltas.
// ---------------------------------------------------------------------------

using Snapshot = std::map<std::string, agentfirst::obs::MetricsRegistry::Sample>;

Snapshot TakeSnapshot() {
  Snapshot out;
  for (auto& s : agentfirst::obs::MetricsRegistry::Default().Snapshot()) {
    out[s.name] = s;
  }
  return out;
}

struct Delta {
  const Snapshot& before;
  const Snapshot& after;
  /// Counter value (or histogram count) gained over the window.
  double Count(const std::string& name) const {
    auto a = after.find(name);
    if (a == after.end()) return 0;
    auto b = before.find(name);
    uint64_t base = b == before.end() ? 0 : b->second.count;
    return static_cast<double>(a->second.count - base);
  }
  double Gauge(const std::string& name) const {
    auto a = after.find(name);
    return a == after.end() ? 0 : static_cast<double>(a->second.gauge);
  }
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// The VM's CPU ticks from /proc/stat: {steal, all}; {0, 0} when unknown.
/// Steal is time the hypervisor gave this VM's CPUs to another guest.
std::pair<double, double> CpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0, all = 0, field = 0;
  for (int i = 0; i < 8 && cpu == "cpu" && stat >> field; ++i) {
    all += field;
    if (i == 7) steal = field;
  }
  return {steal, all};
}

/// Times ParseSelect + BindSelect + OptimizePlan + EstimatePlanCost over
/// `queries`; returns microseconds per query.
double PlanReplayUs(AgentFirstSystem* db, const std::set<std::string>& queries) {
  if (queries.empty()) return 0;
  Clock::time_point t0 = Clock::now();
  size_t planned = 0;
  for (const std::string& sql : queries) {
    auto stmt = agentfirst::ParseSelect(sql);
    if (!stmt.ok()) continue;
    agentfirst::Binder binder(db->catalog());
    auto plan = binder.BindSelect(**stmt);
    if (!plan.ok()) continue;
    auto optimized = agentfirst::OptimizePlan(*plan, db->catalog());
    (void)agentfirst::EstimatePlanCost(*optimized, db->catalog());
    ++planned;
  }
  return planned == 0 ? 0 : Ms(t0, Clock::now()) * 1e3 / planned;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Served {
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<TimedService> timed;
  std::unique_ptr<agentfirst::net::ProbeServer> server;
  std::vector<std::unique_ptr<agentfirst::net::Client>> clients;

  void Stop() {
    for (auto& c : clients) c->Close();
    clients.clear();
    if (server != nullptr) server->Stop();
  }
};

Result<Served> SetUp(const Config& config, const Inputs& inputs,
                     const std::string& data_dir) {
  Served served;
  AF_ASSIGN_OR_RETURN(served.fixture, BuildFixture(config, inputs, data_dir));
  ProbeService* service = served.fixture->db;
  if (config.trace) {
    served.timed = std::make_unique<TimedService>(served.fixture->db);
    service = served.timed.get();
  }
  served.server = std::make_unique<agentfirst::net::ProbeServer>(
      service, agentfirst::net::ProbeServer::Options());
  AF_RETURN_IF_ERROR(served.server->Start());
  for (size_t s = 0; s < kSessions; ++s) {
    agentfirst::net::Client::Options options;
    options.client_name = "agent-" + std::to_string(s);
    AF_ASSIGN_OR_RETURN(auto client,
                        agentfirst::net::Client::Connect(
                            "127.0.0.1", served.server->port(), options));
    served.clients.push_back(std::move(client));
  }
  return served;
}

/// Paged workloads: reopen the data dir and read every acknowledged write
/// back (paged_read has none; its read-back checks that nothing appeared).
/// Returns the reopen-to-verified time in seconds.
Result<double> Recover(const Fixture& fixture, const Inputs& inputs,
                       const std::vector<WriteOp>& writes, std::string* error) {
  Clock::time_point t0 = Clock::now();
  AF_ASSIGN_OR_RETURN(auto db,
                      ReopenPaged(fixture.data_dir, fixture.pool_budget_bytes));
  int64_t inserts = 0, insert_qty = 0;
  std::map<int64_t, int64_t> touched;
  for (const WriteOp& w : writes) {
    if (w.insert) {
      ++inserts;
      insert_qty += w.qty;
    } else {
      touched[w.id] = w.touch;
    }
  }
  const std::string n = std::to_string(inputs.facts.fact_rows);
  AF_ASSIGN_OR_RETURN(auto ins, db->ExecuteSql(
      "SELECT COUNT(*), SUM(facts.qty) FROM facts WHERE facts.id >= " + n));
  Expected want;
  want.single_row = true;
  want.groups[""] = {inserts, insert_qty};
  Check c = CheckExactResult(*ins, want);
  if (c.verdict != Verdict::kCorrect) *error = "inserted rows after reopen: " + c.reason;
  AF_ASSIGN_OR_RETURN(auto upd, db->ExecuteSql(
      "SELECT facts.id, facts.touch FROM facts WHERE facts.touch > 0"));
  std::map<int64_t, int64_t> got;
  for (const Row& row : upd->rows) got[row.at(0).AsInt()] = row.at(1).AsInt();
  if (error->empty() && got != touched) {
    *error = "updated rows after reopen: " + std::to_string(got.size()) +
             " rows read back, " + std::to_string(touched.size()) + " acknowledged";
  }
  double seconds = Ms(t0, Clock::now()) / 1e3;
  return seconds;
}

std::string Stamp(const Config& config) {
  std::string out = "{\"workload\": \"" + config.workload + "\"";
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": \"" + std::string(FLEETBENCH_BUILD_TYPE) + "\"";
  out += ", \"compiler\": \"" + JsonEscape(FLEETBENCH_COMPILER) + "\"";
  out += ", \"git_sha\": \"" + JsonEscape(config.git_sha) + "\"";
  out += ", \"sessions\": " + std::to_string(kSessions);
  out += ", \"seconds\": " + FormatDouble(config.seconds);
  out += ", \"trace\": " + std::string(config.trace ? "1" : "0") + "}";
  return out;
}

int Run(const Config& config) {
  std::printf("stamp %s\n", Stamp(config).c_str());
  std::fflush(stdout);
  const Inputs inputs = MakeInputs(config);

  // Set up SetupCount() times; setup_s is the median. The first set-up serves;
  // the others run after the timed phase, so the allocator garbage they
  // leave behind cannot inflate peak_rss_mb.
  std::vector<double> setup_s;
  std::error_code ec;
  auto timed_setup = [&](size_t rep) -> Result<Served> {
    const std::string dir = config.work_dir + "/setup-" + std::to_string(rep);
    std::filesystem::remove_all(dir, ec);
    Clock::time_point t0 = Clock::now();
    auto attempt = SetUp(config, inputs, dir);
    if (!attempt.ok()) {
      std::fprintf(stderr, "fleetbench: set-up failed: %s\n",
                   attempt.status().ToString().c_str());
    } else {
      setup_s.push_back(Ms(t0, Clock::now()) / 1e3);
    }
    return attempt;
  };
  auto first = timed_setup(0);
  if (!first.ok()) return 1;
  Served served = std::move(*first);
  Fixture& fixture = *served.fixture;
  std::unique_ptr<MiniBirdOracle> minibird_oracle;
  if (config.workload == "fleet_minibird") {
    auto built = BuildMiniBirdOracle(fixture);
    if (!built.ok()) {
      std::fprintf(stderr, "fleetbench: oracle set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    minibird_oracle = std::move(*built);
  }

  // Timed phase: one thread per session, closed loop until the deadline.
  std::vector<SessionStats> stats(kSessions);
  std::vector<std::unique_ptr<SessionLink>> links;
  const Snapshot before = TakeSnapshot();
  const auto ticks_before = CpuTicks();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  for (size_t s = 0; s < kSessions; ++s) {
    links.push_back(std::make_unique<SessionLink>(
        served.clients[s].get(), s, start, deadline, served.timed.get(),
        minibird_oracle.get(), &stats[s]));
  }
  {
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        if (config.workload == "fleet_minibird") {
          RunFleetSession(config, fixture, s, links[s].get(), &stats[s]);
        } else {
          RunAnalyticSession(config, inputs, s, links[s].get(), &stats[s]);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed_s = Ms(start, Clock::now()) / 1e3;
  const Snapshot after = TakeSnapshot();
  const auto ticks_after = CpuTicks();
  const Delta delta{before, after};
  const double memory_artifacts = static_cast<double>(fixture.db->memory()->size());

  // Merge sessions.
  SessionStats all;
  for (SessionStats& s : stats) {
    all.walls.insert(all.walls.end(), s.walls.begin(), s.walls.end());
    all.ends.insert(all.ends.end(), s.ends.begin(), s.ends.end());
    all.untraced_walls.insert(all.untraced_walls.end(), s.untraced_walls.begin(),
                              s.untraced_walls.end());
    all.traced.insert(all.traced.end(), s.traced.begin(), s.traced.end());
    all.write_ms.insert(all.write_ms.end(), s.write_ms.begin(), s.write_ms.end());
    all.attempted += s.attempted;
    all.failed += s.failed;
    for (auto& [v, n] : s.verdicts) all.verdicts[v] += n;
    all.answers_from_memory += s.answers_from_memory;
    all.answers_approximate += s.answers_approximate;
    all.answers_total += s.answers_total;
    for (auto& f : s.failures) {
      if (all.failures.size() < 10) all.failures.push_back(f);
    }
    all.traced_sql.insert(s.traced_sql.begin(), s.traced_sql.end());
    all.client_trace_work_ms += s.client_trace_work_ms;
    all.episodes_completed += s.episodes_completed;
    all.episodes_solved += s.episodes_solved;
    all.acked_writes.insert(all.acked_writes.end(), s.acked_writes.begin(),
                            s.acked_writes.end());
  }

  // Post-phase layer measurements on the now idle system (traced runs).
  double replay_us = 0, stats_refresh_ms = 0;
  if (config.trace) {
    auto table = fixture.db->catalog()->GetTable(fixture.largest_table);
    if (table.ok()) {
      Clock::time_point t0 = Clock::now();
      (void)agentfirst::ComputeTableStats(**table).ok();
      stats_refresh_ms = Ms(t0, Clock::now());
    }
    for (const std::string& name : fixture.db->catalog()->ListTables()) {
      (void)fixture.db->catalog()->GetStats(name).ok();
    }
    replay_us = PlanReplayUs(fixture.db, all.traced_sql);
  }
  const double resident_mb =
      fixture.db->buffer_pool() != nullptr
          ? delta.Gauge("af.storage.resident_bytes") / (1024.0 * 1024.0)
          : 0.0;
  served.Stop();

  double recovery_s = 0;
  if (IsPaged(config.workload)) {
    fixture.owned.reset();  // clean shutdown: WAL flushed and closed
    std::string error;
    auto recovered = Recover(fixture, inputs, all.acked_writes, &error);
    if (!recovered.ok()) {
      error = "reopen failed: " + recovered.status().ToString();
    } else {
      recovery_s = *recovered;
    }
    if (!error.empty()) {
      ++all.attempted;
      all.Fail("recovery: " + error);
    }
  }
  const uint64_t pool_budget_bytes = fixture.pool_budget_bytes;
  const uint64_t table_bytes = fixture.table_bytes;
  const std::string largest_table = fixture.largest_table;
  const double peak_rss_mb = PeakRssMb();
  served.fixture.reset();
  for (size_t rep = 1; rep < SetupCount(config.workload); ++rep) {
    auto extra = timed_setup(rep);
    if (!extra.ok()) return 1;
    extra->Stop();
  }
  std::filesystem::remove_all(config.work_dir, ec);

  // ---- Metrics ------------------------------------------------------------
  Report report;
  const std::vector<double>& walls = all.walls;
  const double probes = static_cast<double>(walls.size());
  const double writes = static_cast<double>(all.write_ms.size());
  const double ops = probes + writes;

  report.Add("setup_s", Median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) + " set-ups, min " +
                 FormatDouble(*std::min_element(setup_s.begin(), setup_s.end())) +
                 " max " +
                 FormatDouble(*std::max_element(setup_s.begin(), setup_s.end())));
  const Windowed windowed = SummarizeWindows(all.ends, walls, elapsed_s);
  const std::string windows = std::to_string(windowed.windows) + " windows";
  report.Add("probe_p50_ms", windowed.p50, "ms",
             "of " + std::to_string(walls.size()) + " probes, median of " +
                 windows + "' medians");
  report.Add("probe_p90_ms", windowed.p90, "ms", "median of " + windows + "' p90s");
  report.AddTail("probe_p99_ms", windowed.tail, "ms");
  report.Add("probes_per_s", windowed.rate, "1/s",
             "median of " + windows + " over " + FormatDouble(elapsed_s) + " s");
  report.AddRatio("failed_frac",
                  {static_cast<double>(all.failed),
                   static_cast<double>(all.attempted), "operations"});
  if (config.workload == "fleet_minibird") {
    report.AddRatio("episodes_solved_frac",
                    {static_cast<double>(all.episodes_solved),
                     static_cast<double>(all.episodes_completed),
                     "completed episodes"});
  }
  if (HasWrites(config.workload)) {
    report.Add("write_p50_ms", Median(all.write_ms), "ms",
               "of " + std::to_string(all.write_ms.size()) + " writes");
    report.AddTail("write_p99_ms", TailPercentile(all.write_ms), "ms");
  }
  if (IsPaged(config.workload)) {
    report.Add("recovery_s", recovery_s, "s",
               std::to_string(all.acked_writes.size()) + " acknowledged writes");
  }
  report.Add("peak_rss_mb", peak_rss_mb, "MB", "through the timed phase");
  report.AddRatio("host_steal_frac",
                  {ticks_after.first - ticks_before.first,
                   ticks_after.second - ticks_before.second,
                   "CPU ticks of the timed phase"});

  // Per-layer metrics (registry deltas are free; trace-derived ones need
  // --trace 1 and are 0 otherwise).
  const double answers = static_cast<double>(all.answers_total);
  auto per = [](double n, double base) { return base > 0 ? n / base : 0.0; };
  report.Add("net.resp_bytes_per_probe",
             per(delta.Count("af.net.bytes_out"), ops), "B",
             "server bytes out over " + FormatDouble(ops) + " ops");
  report.Add("net.loop_wakeups_per_probe",
             per(delta.Count("af.net.loop.wakeups"), ops), "count",
             "over " + FormatDouble(ops) + " ops");
  report.Add("admit.queued", delta.Count("af.admit.queued"), "count");
  report.Add("admit.shed",
             delta.Count("af.admit.shed_overload") +
                 delta.Count("af.admit.shed_tenant_quota"),
             "count");
  report.AddRatio("core.memory_hit_ratio",
                  {static_cast<double>(all.answers_from_memory), answers, "answers"});
  report.AddRatio("core.skipped_ratio",
                  {static_cast<double>(all.verdicts[Verdict::kSkipped]), answers,
                   "answers"});
  report.AddRatio("opt.mqo.cache_hit_ratio",
                  {delta.Count("af.exec.cache.hits"),
                   delta.Count("af.exec.cache.hits") +
                       delta.Count("af.exec.cache.misses"),
                   "cache lookups"});
  report.Add("opt.mqo.cache_evicted_mb_per_probe",
             per(delta.Count("af.exec.cache.evicted_bytes") / (1024.0 * 1024.0),
                 probes),
             "MB", "over " + FormatDouble(probes) + " probes");
  report.AddRatio("opt.aqp.approx_ratio",
                  {static_cast<double>(all.answers_approximate), answers, "answers"});
  report.AddRatio("exec.vec_plan_ratio",
                  {delta.Count("af.exec.vec.plans"), delta.Count("af.exec.plans"),
                   "executed plans"});
  report.Add("exec.vec_fallback_nodes", delta.Count("af.exec.vec.fallback_nodes"),
             "count");
  const double pins = delta.Count("af.storage.pins");
  const double faults = delta.Count("af.storage.faults");
  report.Add("storage.faults_per_probe", per(faults, probes), "count",
             "over " + FormatDouble(probes) + " probes");
  report.AddRatio("storage.hit_ratio", {pins - faults, pins, "segment pins"});
  report.Add("storage.evictions_per_probe",
             per(delta.Count("af.storage.evictions"), probes), "count",
             "over " + FormatDouble(probes) + " probes");
  report.Add("storage.write_backs", delta.Count("af.storage.write_backs"), "count");
  report.Add("storage.resident_mb", resident_mb, "MB",
             "pool budget " + FormatDouble(pool_budget_bytes / 1048576.0) +
                 " MB of " + FormatDouble(table_bytes / 1048576.0) +
                 " MB tables");
  const double wal_records = delta.Count("af.wal.records");
  if (HasWrites(config.workload)) {
    report.Add("wal.records_per_write", per(wal_records, writes), "count",
               "over " + FormatDouble(writes) + " writes");
    report.Add("wal.bytes_per_write", per(delta.Count("af.wal.bytes"), writes),
               "B", "all WAL bytes over " + FormatDouble(writes) + " writes");
    report.Add("wal.fsyncs_per_write", per(delta.Count("af.wal.fsyncs"), writes),
               "count", "over " + FormatDouble(writes) + " writes");
  }
  report.Add("wal.bytes_per_probe", per(delta.Count("af.wal.bytes"), probes), "B",
             "all WAL bytes over " + FormatDouble(probes) + " probes");
  report.Add("wal.group_size",
             per(wal_records, delta.Count("af.wal.group_commits")), "count",
             "records over " + FormatDouble(delta.Count("af.wal.group_commits")) +
                 " group commits");
  report.Add("memory.artifacts", memory_artifacts, "count");
  report.Add("pool.tasks_per_probe",
             per(delta.Count("af.pool.tasks_submitted"), probes), "count",
             "over " + FormatDouble(probes) + " probes");
  report.Add("pool.steals", delta.Count("af.pool.steals"), "count");

  // Trace-derived layers: self times over the probes nearest the traced
  // median, so that the parts add up to it (the residual is stated).
  std::vector<const ProbeSample*> traced;
  std::vector<double> traced_walls;
  for (const ProbeSample& p : all.traced) {
    if (p.server_ms < 0) continue;
    traced.push_back(&p);
    traced_walls.push_back(p.wall_ms);
  }
  std::vector<double> wire, non_exec, exec, serde;
  double exec_sum = 0, server_sum = 0, scan_rows = 0, op_sum[kNumOpKinds] = {};
  for (const ProbeSample* p : traced) {
    wire.push_back(p->wall_ms - p->server_ms);
    non_exec.push_back(p->server_ms - p->exec.exec_ms);
    exec.push_back(p->exec.exec_ms);
    serde.push_back(p->serde_us);
    exec_sum += p->exec.exec_ms;
    server_sum += p->server_ms;
    scan_rows += p->exec.scan_rows;
    for (size_t k = 0; k < kNumOpKinds; ++k) op_sum[k] += p->exec.op_self_ms[k];
  }
  const double n_traced = static_cast<double>(traced.size());
  double serde_mean = 0;
  for (double v : serde) serde_mean += v / std::max(1.0, n_traced);
  report.Add("net.serde_us_per_probe", serde_mean, "us",
             "mean over " + std::to_string(traced.size()) + " traced probes");
  report.Add("net.wire_overhead_ms_p50", Median(wire), "ms",
             "client wall minus in-process HandleProbe");
  report.Add("core.non_exec_ms_p50", Median(non_exec), "ms",
             "in-process wall minus exec spans");
  report.Add("exec.exec_ms_p50", Median(exec), "ms");
  report.AddRatio("exec.exec_share", {exec_sum, server_sum, "in-process ms"});
  report.Add("exec.rows_per_s", exec_sum > 0 ? scan_rows / (exec_sum / 1e3) : 0,
             "1/s", "scan rows over exec span time");
  for (size_t k = 0; k < 4; ++k) {
    report.Add(std::string("exec.op.") + kOpKinds[k] + "_ms",
               per(op_sum[k], n_traced), "ms", "self time per traced probe");
  }
  report.Add("plan.replay_us_per_query", replay_us, "us",
             std::to_string(all.traced_sql.size()) + " distinct queries");
  report.Add("catalog.stats_refresh_ms", stats_refresh_ms, "ms",
             "ComputeTableStats(" + largest_table + ")");

  // Waterfall over the band of traced probes around their median.
  const double traced_p50 = Median(traced_walls);
  std::vector<const ProbeSample*> band = traced;
  std::sort(band.begin(), band.end(), [&](auto* a, auto* b) {
    return std::abs(a->wall_ms - traced_p50) < std::abs(b->wall_ms - traced_p50);
  });
  band.resize(std::min(band.size(), std::max<size_t>(1, band.size() / 10)));
  double part_net = 0, part_core = 0, part_ops[kNumOpKinds] = {}, part_exec_other = 0;
  for (const ProbeSample* p : band) {
    const double nb = static_cast<double>(band.size());
    part_net += (p->wall_ms - p->server_ms) / nb;
    part_core += (p->server_ms - p->exec.exec_ms) / nb;
    double ops_total = 0;
    for (size_t k = 0; k < kNumOpKinds; ++k) {
      part_ops[k] += p->exec.op_self_ms[k] / nb;
      ops_total += p->exec.op_self_ms[k];
    }
    part_exec_other += (p->exec.exec_ms - ops_total) / nb;
  }
  double parts = part_net + part_core + part_exec_other;
  report.Add("layer.net_ms", part_net, "ms",
             "wire, loops, admission, pool queue, serde");
  report.Add("layer.core_ms", part_core, "ms",
             "interpret, plan, memory, steering, finalize");
  for (size_t k = 0; k < kNumOpKinds; ++k) {
    parts += part_ops[k];
    report.Add(std::string("layer.exec.") + kOpKinds[k] + "_ms", part_ops[k], "ms",
               "operator self time");
  }
  report.Add("layer.exec.unattributed_ms", part_exec_other, "ms",
             "exec span time outside operator spans");
  report.Add("layer.traced_p50_ms", traced_p50, "ms",
             "of " + std::to_string(traced_walls.size()) + " traced probes; band of " +
                 std::to_string(band.size()) + " around it");
  report.Add("layer.residual_ms", traced.empty() ? 0 : traced_p50 - parts, "ms",
             "traced p50 minus the sum of the layer parts");
  const double untraced_p50 = Median(all.untraced_walls);
  report.Add("trace.overhead_ms", traced.empty() ? 0 : traced_p50 - untraced_p50,
             "ms", "traced minus untraced probe p50, same run (untraced p50 " +
                       FormatDouble(untraced_p50) + " ms)");
  report.Add("trace.client_work_us_per_probe",
             per(all.client_trace_work_ms * 1e3, n_traced), "us",
             "benchmark work between traced probes");

  // ---- Output ---------------------------------------------------------------
  std::printf("%s", report.RenderLines().c_str());
  std::printf("answers");
  for (auto& [v, n] : all.verdicts) {
    std::printf(" %s=%llu", VerdictName(v), static_cast<unsigned long long>(n));
  }
  std::printf("\n");
  for (const std::string& f : all.failures) std::printf("failure %s\n", f.c_str());

  static const std::vector<std::string> kEndToEnd = {
      "probe_p50_ms", "probe_p90_ms", "probes_per_s", "peak_rss_mb", "setup_s"};
  std::vector<std::string> names;
  if (config.trace) {
    for (const Metric& m : report.metrics()) {
      if (m.name.find('.') != std::string::npos) names.push_back(m.name);
    }
  } else {
    names = kEndToEnd;
  }
  const bool correct = all.failed == 0;
  std::printf("%s\n", report.RenderJson(correct, std::max<uint64_t>(1, all.attempted),
                                        all.failed, names)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: fleetbench --workload <fleet_minibird|analytic_unshared|"
               "paged_read|paged_mixed> --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--git-sha SHA]\n");
  return 2;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  fleetbench::Config config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return fleetbench::Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--git-sha") {
      config.git_sha = value;
    } else {
      return fleetbench::Usage();
    }
  }
  if (!fleetbench::KnownWorkload(config.workload) || config.seconds <= 0 ||
      config.work_dir.empty()) {
    return fleetbench::Usage();
  }
  return fleetbench::Run(config);
}
