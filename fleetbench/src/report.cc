#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fleetbench {

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least pct% of samples <= it.
  double rank = std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

Tail TailPercentile(const std::vector<double>& samples) {
  static const double kCandidates[] = {99, 98, 95, 90, 80, 75, 50};
  Tail tail;
  tail.samples = samples.size();
  const double n = static_cast<double>(samples.size());
  tail.pct = 50;
  for (double pct : kCandidates) {
    // Samples strictly beyond the nearest-rank position.
    double beyond = n - std::ceil(pct / 100.0 * n);
    if (beyond >= 10.0) {
      tail.pct = pct;
      tail.meets_rule = true;
      break;
    }
  }
  tail.value = Percentile(samples, tail.pct);
  return tail;
}

Windowed SummarizeWindows(const std::vector<double>& end_s,
                          const std::vector<double>& values, double span_s) {
  Windowed out;
  out.windows = std::clamp<size_t>(values.size() / 2000, 1, 10);
  if (values.empty() || span_s <= 0) return out;
  const double width = span_s / static_cast<double>(out.windows);
  std::vector<std::vector<double>> windows(out.windows);
  for (size_t i = 0; i < values.size() && i < end_s.size(); ++i) {
    size_t w = static_cast<size_t>(std::max(0.0, end_s[i]) / width);
    windows[std::min(w, out.windows - 1)].push_back(values[i]);
  }
  std::vector<double> p50s, p90s, tails, rates;
  out.tail.pct = 99;
  out.tail.meets_rule = true;
  for (const std::vector<double>& w : windows) {
    p50s.push_back(Median(w));
    p90s.push_back(Percentile(w, 90));
    rates.push_back(static_cast<double>(w.size()) / width);
    Tail t = TailPercentile(w);
    tails.push_back(t.value);
    out.tail.pct = std::min(out.tail.pct, t.pct);
    out.tail.meets_rule = out.tail.meets_rule && t.meets_rule;
  }
  out.p50 = Median(p50s);
  out.p90 = Median(p90s);
  out.rate = Median(rates);
  out.tail.value = Median(tails);
  out.tail.samples = values.size();
  out.tail.windows = out.windows;
  return out;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::AddRatio(const std::string& name, const Ratio& ratio) {
  char note[160];
  std::snprintf(note, sizeof(note), "base %.0f %s", ratio.base,
                ratio.base_what.c_str());
  Add(name, ratio.value(), "ratio", note);
}

void Report::AddTail(const std::string& name, const Tail& tail,
                     const std::string& unit) {
  char note[160];
  char windows[64] = "";
  if (tail.windows > 1) {
    std::snprintf(windows, sizeof(windows), ", median of %zu windows' tails",
                  tail.windows);
  }
  std::snprintf(note, sizeof(note), "p%g of %zu samples%s%s", tail.pct,
                tail.samples, windows,
                tail.meets_rule ? "" : " (fewer than 10 beyond the median)");
  Add(name, tail.value, unit, note);
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::RenderLines() const {
  std::string out;
  for (const Metric& m : metrics_) {
    out += "metric " + m.name + " = " + FormatDouble(m.value) + " " + m.unit;
    if (!m.note.empty()) out += "  # " + m.note;
    out += "\n";
  }
  return out;
}

std::string Report::RenderJson(bool correct, uint64_t attempted,
                               uint64_t failed,
                               const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const Metric* m = Find(names[i]);
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(names[i]) + "\": {\"value\": ";
    out += m != nullptr ? FormatDouble(m->value) : "null";
    out += ", \"unit\": \"" + JsonEscape(m != nullptr ? m->unit : "") + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace fleetbench
