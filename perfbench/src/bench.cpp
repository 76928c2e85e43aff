#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->open_.push_back(index_);
  // Stamp last, so the span's own bookkeeping stays outside it.
  tracer_->spans_[static_cast<std::size_t>(index_)].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           tracer_->epoch_)
          .count();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           tracer_->epoch_)
          .count();
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns = now;
  tracer_->open_.pop_back();
}

void Tracer::Scope::rename(const char* name) {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].name = name;
}

std::size_t Tracer::count(const char* name, std::size_t from) const {
  std::size_t n = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) ++n;
  }
  return n;
}

double Tracer::total_ms(const char* name, std::size_t from) const {
  double total = 0.0;
  for (const double ms : durations_ms(name, from)) total += ms;
  return total;
}

std::vector<double> Tracer::durations_ms(const char* name,
                                         std::size_t from) const {
  std::vector<double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == name) {
      out.push_back(static_cast<double>(spans_[i].end_ns -
                                        spans_[i].start_ns) *
                    1e-6);
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_ms() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double self =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
        child_ns[i];
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
      return e.first == spans_[i].name;
    });
    if (it == out.end()) {
      out.emplace_back(spans_[i].name, self * 1e-6);
    } else {
      it->second += self * 1e-6;
    }
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":" << json_string(s.name)
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << "}";
  }
  os << "],\n\"self_ms\":{";
  bool first = true;
  for (const auto& [name, ms] : self_ms()) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_number(ms);
    first = false;
  }
  os << "}}\n";
}

// --- Metrics / Context -------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  entries_.emplace_back(name, std::make_pair(value, unit));
}

std::string Metrics::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& [name, vu] = entries_[i];
    out += (i ? ", " : "") + json_string(name) +
           ": {\"value\": " + json_number(vu.first) +
           ", \"unit\": " + json_string(vu.second) + "}";
  }
  return out + "}";
}

void Context::add(const std::string& key, const std::string& json_value) {
  entries_.emplace_back(key, json_value);
}

void Context::add_number(const std::string& key, double value) {
  add(key, json_number(value));
}

void Context::add_string(const std::string& key, const std::string& value) {
  add(key, json_string(value));
}

std::string Context::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out += (i ? ", " : "") + json_string(entries_[i].first) + ": " +
           entries_[i].second;
  }
  return out + "}";
}

// --- helpers -----------------------------------------------------------------

namespace {

double usage_seconds(const rusage& u) {
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

}  // namespace

double cpu_seconds() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return usage_seconds(self) + usage_seconds(children);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string load_average() {
  std::ifstream is("/proc/loadavg");
  double a = 0.0, b = 0.0, c = 0.0;
  is >> a >> b >> c;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", a, b, c);
  return buf;
}

std::string run_tag() {
  std::string tag = ".";
  tag += std::to_string(getpid());
  return tag;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void add_build_context(Context& context) {
  context.add_number("nproc", online_cpus());
  context.add_string("build_type", PERFBENCH_BUILD_TYPE);
  context.add_string("cxx_flags", PERFBENCH_CXX_FLAGS);
  context.add_string("compiler", PERFBENCH_COMPILER);
  context.add_string("loadavg_start", load_average());
}

void set_end_to_end(const EndToEnd& e2e, Outcome& out) {
  Metrics& m = out.metrics;
  m.set("setup_s", median(e2e.setup_s), "s");
  m.set("replicas_per_s", e2e.replicas_per_s, "1/s");
  m.set("time_to_ci_s", e2e.time_to_ci_s, "s");
  m.set("query_p50_ms", e2e.query_p50_ms, "ms");
  m.set("query_p99_ms", e2e.query_p99_ms, "ms");
  m.set("queries_per_s", e2e.queries_per_s, "1/s");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  out.context.add_number("setup_samples", n(e2e.setup_s.size()));
  out.context.add_number("query_samples", n(e2e.query_samples));
  out.context.add_number("query_samples_beyond_p99",
                         std::floor(0.01 * n(e2e.query_samples)));
  out.context.add_number("repetitions", n(e2e.repetitions));
}

void RepeatedTimes::add(const std::vector<double>& pass) {
  if (times_.empty()) times_.resize(pass.size());
  for (std::size_t i = 0; i < pass.size() && i < times_.size(); ++i) {
    times_[i].push_back(pass[i]);
  }
}

std::vector<double> RepeatedTimes::per_op(double q) const {
  std::vector<double> out;
  for (const std::vector<double>& op : times_) out.push_back(quantile(op, q));
  return out;
}

double tracing_overhead_ratio(
    int passes, const std::function<std::vector<double>(Tracer&)>& pass) {
  Tracer warm_up(false);
  pass(warm_up);
  RepeatedTimes off;
  RepeatedTimes on;
  for (int i = 0; i < passes; ++i) {
    Tracer disabled(false);
    off.add(pass(disabled));
    Tracer enabled(true);
    on.add(pass(enabled));
  }
  double off_ms = 0.0;
  double on_ms = 0.0;
  for (const double ms : off.per_op(0.9)) off_ms += ms;
  for (const double ms : on.per_op(0.9)) on_ms += ms;
  return on_ms / off_ms;
}

}  // namespace perfbench
