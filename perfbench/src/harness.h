// Measurement plumbing shared by the workloads: clocks, percentile
// samples, the span recorder of traced runs, and the metric report.

#ifndef NDQ_PERFBENCH_HARNESS_H_
#define NDQ_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A set of observations of one quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// One timed call at a layer boundary. Spans of one query share `query`;
/// `parent` is the span that caused this one (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Records spans in memory when enabled; a disabled tracer records
/// nothing and costs one branch per span. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Reserves an id for a span that is about to start.
  uint64_t NextId();
  void Record(const Span& span);

  size_t size() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII span: starts at construction, records at destruction (or End()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t query,
             uint64_t parent = 0);
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  /// Records the span now; returns its duration in microseconds.
  double End();

 private:
  Tracer* tracer_;
  Span span_;
  bool open_ = true;
  double micros_ = 0;
};

/// Runs `fn` and returns its wall time in microseconds, recording a span
/// when the tracer is enabled.
template <typename Fn>
double TimedSpan(Tracer* tracer, const char* name, uint64_t query,
                 uint64_t parent, Fn&& fn) {
  ScopedSpan span(tracer, name, query, parent);
  fn();
  return span.End();
}

/// Every metric one run reports, plus the detail a reader needs to trust
/// it (sample counts, provenance, health flags).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples = 0);
  /// A free-form detail: recorded in the result file, not in the final
  /// JSON line.
  void Detail(const std::string& key, const std::string& value);
  void Detail(const std::string& key, double value);

  bool Has(const std::string& name) const { return metrics_.count(name) != 0; }

  /// Human-readable table on stdout.
  void PrintTable() const;
  /// The full record (provenance, details, every metric with its sample
  /// count) as one JSON object.
  std::string ToJson(bool correct, uint64_t attempted, uint64_t failed) const;
  /// The final stdout line: exactly correct/attempted/failed/metrics, the
  /// metrics restricted to `names` (all of which must exist).
  std::string ResultLine(const std::vector<std::string>& names, bool correct,
                         uint64_t attempted, uint64_t failed) const;

 private:
  struct Value {
    double value;
    std::string unit;
    size_t samples;
  };
  /// correct/attempted/failed and `names`' metrics, without the opening
  /// brace.
  std::string Result(const std::vector<std::string>& names, bool with_samples,
                     bool correct, uint64_t attempted, uint64_t failed) const;
  std::map<std::string, Value> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;  // JSON values
};

std::string JsonString(std::string_view s);
std::string JsonNumber(double v);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // NDQ_PERFBENCH_HARNESS_H_
