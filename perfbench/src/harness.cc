#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / values_.size();
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"query\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 (unsigned long long)s.id, (unsigned long long)s.parent,
                 (unsigned long long)s.query, s.name, (long long)s.start_ns,
                 (long long)s.end_ns);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t query,
                       uint64_t parent)
    : tracer_(tracer) {
  span_.name = name;
  span_.query = query;
  span_.parent = parent;
  if (tracer_ != nullptr && tracer_->enabled()) span_.id = tracer_->NextId();
  span_.start_ns = NowNs();
}

double ScopedSpan::End() {
  if (!open_) return micros_;
  open_ = false;
  span_.end_ns = NowNs();
  micros_ = (span_.end_ns - span_.start_ns) / 1e3;
  if (tracer_ != nullptr && tracer_->enabled()) tracer_->Record(span_);
  return micros_;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  metrics_[name] = Value{value, unit, samples};
}

void Report::Detail(const std::string& key, const std::string& value) {
  details_.emplace_back(key, JsonString(value));
}

void Report::Detail(const std::string& key, double value) {
  details_.emplace_back(key, JsonNumber(value));
}

void Report::PrintTable() const {
  for (const auto& [name, v] : metrics_) {
    if (v.samples > 0) {
      std::printf("  %-36s %14.4f %-6s (n=%zu)\n", name.c_str(), v.value,
                  v.unit.c_str(), v.samples);
    } else {
      std::printf("  %-36s %14.4f %s\n", name.c_str(), v.value,
                  v.unit.c_str());
    }
  }
}

std::string Report::Result(const std::vector<std::string>& names,
                           bool with_samples, bool correct,
                           uint64_t attempted, uint64_t failed) const {
  std::string out = "\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const Value& v = metrics_.at(names[i]);
    if (i > 0) out += ", ";
    out += JsonString(names[i]) + ": {\"value\": " + JsonNumber(v.value) +
           ", \"unit\": " + JsonString(v.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(v.samples);
    out += "}";
  }
  return out + "}}";
}

std::string Report::ToJson(bool correct, uint64_t attempted,
                           uint64_t failed) const {
  std::string out = "{";
  for (const auto& [key, value] : details_) {
    out += JsonString(key) + ": " + value + ", ";
  }
  std::vector<std::string> names;
  for (const auto& [name, v] : metrics_) names.push_back(name);
  out += Result(names, /*with_samples=*/true, correct, attempted, failed);
  return out;
}

std::string Report::ResultLine(const std::vector<std::string>& names,
                               bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = "{";
  out += Result(names, /*with_samples=*/false, correct, attempted, failed);
  return out;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench
