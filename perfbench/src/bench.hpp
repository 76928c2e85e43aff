// perfbench/src/bench.hpp
//
// Shared plumbing of the coopcr benchmark: run options, the in-memory span
// tracer, metric/result emission, run-context probes and small statistics
// helpers. The workloads (sweep_fig1.cpp, advisor_mix.cpp) and the
// per-layer instruments (layers.hpp) build on it.
//
// Everything here measures the library from outside: spans are recorded
// around calls into coopcr's public functions, never inside them.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: corrupt exactly one checked output so the output checks
  /// must report a failed operation.
  bool inject_mismatch = false;
  /// Scratch directory for journals and the span dump.
  std::string work_dir = ".";
};

/// The i-th input seed of a run, derived from --seed (SplitMix64), so the
/// same --seed always yields the same inputs.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

/// In-memory span recorder. A span has a name, start, end and parent (the
/// innermost span open when it started); spans are kept in memory and
/// written out once at the end of the run. Single-threaded: every traced
/// call is made from the benchmark's main thread. A disabled tracer records
/// nothing.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Rename the span (e.g. once it is known whether an advisor answer
    /// was interpolated or computed).
    void rename(const char* name);

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled);

  Scope span(const char* name) {
    return Scope(enabled_ ? this : nullptr, name);
  }

  /// Number of recorded spans; pass it back as `from` to aggregate only the
  /// spans recorded since (per-grid-point breakdowns).
  std::size_t size() const { return spans_.size(); }

  std::size_t count(const char* name, std::size_t from = 0) const;
  double total_ms(const char* name, std::size_t from = 0) const;
  std::vector<double> durations_ms(const char* name,
                                   std::size_t from = 0) const;

  /// Self time per span name: each span's duration minus the time its
  /// child spans cover, summed per name, in first-appearance order.
  std::vector<std::pair<std::string, double>> self_ms() const;

  /// Dump every span plus the self-time table as one JSON document.
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Ordered metric set printed in the result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string to_json() const;
 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// Run context: key -> JSON-encoded value, printed as one line before the
/// result so scaling numbers can be read against effective parallelism.
class Context {
 public:
  void add(const std::string& key, const std::string& json_value);
  void add_number(const std::string& key, double value);
  void add_string(const std::string& key, const std::string& value);
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// What a workload hands back to main().
struct Outcome {
  Metrics metrics;
  Context context;
  std::uint64_t attempted = 0;  ///< operations attempted
  std::uint64_t failed = 0;     ///< failed or mismatching operations
  /// Human-readable lines printed before the context and result lines
  /// (per-grid-point phase tables, self-time tables).
  std::vector<std::string> notes;
};

/// Workload entry points.
Outcome run_sweep_fig1(const Options& options);
Outcome run_advisor_mix(const Options& options);

// --- measurement helpers ----------------------------------------------------

/// coopcr::SampleSet's type-7 quantile, p in [0, 1], with an empty-input
/// guard (0) for span lists that can be empty.
inline double quantile(std::vector<double> values, double p) {
  return values.empty() ? 0.0
                        : coopcr::SampleSet(std::move(values)).quantile(p);
}
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
inline double mean(std::vector<double> values) {
  return coopcr::SampleSet(std::move(values)).mean();
}

/// User + system CPU seconds of this process plus its reaped children.
double cpu_seconds();
/// Peak resident set size in MiB: the larger of this process's and its
/// largest reaped child's high-water mark.
double peak_rss_mb();
/// Online CPUs.
int online_cpus();
/// The three load averages from /proc/loadavg ("0 0 0" when unreadable).
std::string load_average();

/// ".<pid>": keeps the scratch files of concurrent runs apart.
std::string run_tag();

/// JSON string literal with escapes.
std::string json_string(const std::string& s);
/// Full-precision JSON number (17 significant digits; finite values only).
std::string json_number(double v);

/// Context fields every workload reports: nproc, build type, flags,
/// compiler and load average at start.
void add_build_context(Context& context);

/// The end-to-end metrics of one run. Every workload repeats identical work
/// and summarises each operation by one quantile of its times over the
/// passes (RepeatedTimes); the values here are aggregated from those.
struct EndToEnd {
  std::vector<double> setup_s;  ///< one entry per repeated set-up (median)
  double replicas_per_s = 0.0;
  double time_to_ci_s = 0.0;
  double query_p50_ms = 0.0;
  double query_p99_ms = 0.0;
  double queries_per_s = 0.0;
  std::size_t query_samples = 0;  ///< samples behind query_p50/p99
  std::size_t repetitions = 0;    ///< repetitions of the identical work
};
/// Print the seven end-to-end metrics, and their sample counts as context.
void set_end_to_end(const EndToEnd& e2e, Outcome& out);

/// Times of the same operations over repeated passes of identical work:
/// add() one pass (one time per operation, same order every pass), then
/// per_op(q) gives each operation's q-quantile over the passes.
///
/// The workloads take the 0.9-quantile. The host is shared: neighbours'
/// memory traffic slows the simulator by up to 1.6x for tens of seconds at
/// a time, and the uncontended speed can be absent from a whole run while
/// the contended one never is. Over eight 25-second sweep_fig1 runs the
/// quartile distance over the median of replicas_per_s was 46% with the
/// per-operation minimum, 18% with the median and 6% with the
/// 0.9-quantile.
class RepeatedTimes {
 public:
  void add(const std::vector<double>& pass);
  std::vector<double> per_op(double q) const;

 private:
  std::vector<std::vector<double>> times_;  ///< [operation][pass]
};

/// Cost of tracing one code path: `pass` runs the same operations with the
/// tracer it is handed and returns one time per operation. After one
/// discarded warm-up pass it runs `passes` times with a disabled tracer and
/// `passes` times with a fresh enabled one, alternating; the result is the
/// sum of the per-operation 0.9-quantiles with tracing on over the same sum
/// with tracing off.
double tracing_overhead_ratio(
    int passes, const std::function<std::vector<double>(Tracer&)>& pass);

}  // namespace perfbench
