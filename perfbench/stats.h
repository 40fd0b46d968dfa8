// Shared pieces of the perfbench binary: command-line arguments, exact
// sample statistics, the closed-loop pass runner, the in-memory span
// log of a traced run, and the result line every workload prints.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupts one checked answer per run, to prove the oracle gate
  /// fails the run (the benchmark must then exit non-zero).
  bool inject_wrong_answer = false;
  /// Provenance supplied by run.py (the binary cannot know them).
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  /// Directory for the benchmark's scratch files (WALs, stores).
  std::string work_dir = ".bench_run";
};

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact percentile with linear interpolation between order statistics
/// (the same rule as numpy's default); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);
/// getrusage(RUSAGE_SELF) maximum resident set size, in MiB.
double PeakRssMb();

/// One closed-loop stream's timed window, pass by pass. The reported
/// figures are medians over passes (per request for the latencies), so
/// a pass disturbed by another tenant of the host moves them no more
/// than any other single pass.
struct StreamStats {
  std::vector<double> latency_us;  // one per completed request
  std::vector<size_t> request;     // request index of each latency_us
  /// Per pass: completed requests per second of that pass's window.
  std::vector<double> pass_qps;
  size_t attempted = 0;
  size_t failed = 0;
  double window_s = 0;  // wall time minus excluded (shadow) time
  /// Median over passes of the pass's request rate.
  double qps() const { return Median(pass_qps); }
  /// Percentile `q` over the requests of each request's median latency
  /// over the passes. Every pass sends the same requests, so this is the
  /// tail of the request mix; a stall that hits a request in a minority
  /// of passes (another tenant of the host taking the CPU) leaves it be.
  double LatencyPercentile(double q) const;
};

/// What one request of a stream reports back to the pass runner.
struct Outcome {
  bool ok = true;
  double latency_us = 0;
  /// Time spent after the request on traced per-layer calls; it is
  /// excluded from the window so traced qps stays comparable.
  double excluded_us = 0;
};

/// Runs whole passes over requests 0..n-1, one outstanding request at a
/// time, until `seconds` have elapsed at a pass boundary (at least one
/// pass). Whole passes make every run of a seed do the same work, so a
/// heavy query that happens to fall at the end cannot move qps.
StreamStats RunPasses(size_t n, double seconds,
                      const std::function<Outcome(size_t)>& one);

/// In-memory span log of a traced run: every timed public call is one
/// span (layer name, request index, start, end); counters sit beside
/// them. Nothing is written out until the run folds them at its end.
class SpanLog {
 public:
  struct Span {
    const char* layer;
    uint32_t request;
    double start_us;
    double end_us;
  };
  /// Times `fn` as one span of `layer` for request `request`.
  template <typename Fn>
  auto Time(const char* layer, uint32_t request, Fn&& fn) {
    const double start = NowUs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back({layer, request, start, NowUs()});
    } else {
      auto result = fn();
      spans_.push_back({layer, request, start, NowUs()});
      return result;
    }
  }
  /// A span whose bounds come from elsewhere (e.g. the queue wait a
  /// response reports).
  void Add(const char* layer, uint32_t request, double duration_us) {
    spans_.push_back({layer, request, 0, duration_us});
  }
  void Count(const std::string& name, double value) {
    counters_[name].push_back(value);
  }
  /// Per-request duration of `layer` (spans of one request summed), in
  /// request order; requests without a span of the layer are skipped.
  std::vector<double> PerRequest(const char* layer) const;
  double MeanPerRequest(const char* layer) const {
    return Mean(PerRequest(layer));
  }
  const std::vector<double>& Counter(const std::string& name) const;
  double CounterMean(const std::string& name) const {
    return Mean(Counter(name));
  }
  double CounterSum(const std::string& name) const;

 private:
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> counters_;
};

/// The run's result. Metrics print in insertion order; the detail
/// fields go on the line before the result line (provenance, sample
/// counts, figures that are not gated).
class Report {
 public:
  /// A metric printed without a unit (`unit` empty) takes its unit from
  /// BENCHMARK.json in run.py; the per-layer metrics are printed so.
  void Metric(const std::string& name, double value,
              const std::string& unit = "");
  void Detail(const std::string& name, double value);
  void Samples(const std::string& metric, size_t count);
  void Attempt(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records an answer that differs from the oracle: the operation
  /// counts as failed.
  void Mismatch(const std::string& what);
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  size_t mismatches() const { return mismatches_; }
  bool correct() const { return mismatches_ == 0 && failed_ == 0; }

  /// Prints the detail line and then the result line.
  void Print(const Args& args) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> detail_;  // JSON values
  std::vector<std::pair<std::string, size_t>> samples_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t mismatches_ = 0;
  std::string first_mismatch_;
};

/// Median of `reps` set-ups; `setup(i)` returns seconds for rep i.
double MedianSetup(size_t reps, const std::function<double(size_t)>& setup);

/// Counts the element start tags of an XML document.
size_t CountElements(const std::string& xml);

/// Parses one numeric field out of a MetricsRegistry::DumpText():
/// "name VALUE" for counters, "name count=N mean=M ..." for histograms
/// (`field` = "count" / "mean"). Returns 0 when absent.
double DumpValue(const std::string& dump, const std::string& name,
                 const std::string& field = "");

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
