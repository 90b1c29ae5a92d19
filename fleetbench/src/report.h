#ifndef FLEETBENCH_REPORT_H_
#define FLEETBENCH_REPORT_H_

// Summary statistics and result printing for the agent-fleet benchmark.
//
// Two rules every reported number follows:
//   * Tail percentiles obey the ten-sample rule: the reported tail is the
//     highest standard percentile with at least ten samples beyond it, and
//     the line says which percentile that was and how many samples it saw.
//   * Every ratio carries its base (the denominator and what it counts), so a
//     ratio of 1.0 over 3 queries never reads like one over 30,000.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fleetbench {

/// Nearest-rank percentile of `samples` (sorted or not); 0 when empty.
double Percentile(std::vector<double> samples, double pct);

/// Median of `samples`; 0 when empty.
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

/// A tail percentile chosen by the ten-sample rule.
struct Tail {
  double pct = 0;        // the percentile actually reported, e.g. 99 or 95
  double value = 0;      // its value
  size_t samples = 0;    // how many samples it was taken from
  bool meets_rule = false;  // false when even the median lacks ten beyond it
  size_t windows = 1;    // > 1: the median of this many windows' tails
};

/// Picks the highest of {99, 98, 95, 90, 80, 75, 50} with at least ten
/// samples strictly beyond it (n * (1 - pct/100) >= 10). The list stops at
/// p99, the tail the metrics are named for: a p99.9 over a busy run measures
/// scheduler noise more than the system. With fewer than 20 samples no
/// candidate qualifies; the median is reported and `meets_rule` is false.
Tail TailPercentile(const std::vector<double>& samples);

/// A run's latency summary taken window by window.
struct Windowed {
  double p50 = 0;       // median of the windows' medians
  double p90 = 0;       // median of the windows' p90s
  Tail tail;            // median of the windows' tails; pct is the lowest used
  double rate = 0;      // median of the windows' completions per second
  size_t windows = 0;
};

/// Cuts [0, span_s) into W equal windows, W = samples / 2000 clamped to
/// [1, 10], so that each window is large enough for a p99 under the
/// ten-sample rule. Sample i ended at `end_s[i]` and measured `values[i]`.
/// The medians over windows keep a few seconds of host noise (another
/// tenant's burst) from moving a run's figures; with one window they are
/// the plain whole-run median, p90, tail and rate.
Windowed SummarizeWindows(const std::vector<double>& end_s,
                          const std::vector<double>& values, double span_s);

/// A ratio with its base. value() is 0 when the base is 0.
struct Ratio {
  double numerator = 0;
  double base = 0;
  std::string base_what;  // what the base counts, e.g. "queries"
  double value() const { return base > 0 ? numerator / base : 0.0; }
};

/// One named measurement.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // free text: base of a ratio, percentile used, ...
};

/// Collects metrics and prints them: one human-readable line per metric,
/// then (as the last line of stdout) the JSON result object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Adds a ratio; the note states its base.
  void AddRatio(const std::string& name, const Ratio& ratio);
  /// Adds a tail percentile; the note states the percentile and sample count.
  void AddTail(const std::string& name, const Tail& tail,
               const std::string& unit);

  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// "metric <name> = <value> <unit>  # <note>" for every metric.
  std::string RenderLines() const;

  /// The result object: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value":..,"unit":..}}} restricted to `names` (in that
  /// order). A name with no metric is an error the caller must not make;
  /// it is rendered with value null so that any reader rejects the output.
  std::string RenderJson(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
};

/// Formats a double with full precision (17 significant digits).
std::string FormatDouble(double v);

/// Escapes a string for a JSON string literal (without the quotes).
std::string JsonEscape(const std::string& s);

}  // namespace fleetbench

#endif  // FLEETBENCH_REPORT_H_
