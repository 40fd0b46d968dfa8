#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double total = 0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double StreamStats::LatencyPercentile(double q) const {
  std::map<size_t, std::vector<double>> by_request;
  for (size_t k = 0; k < latency_us.size(); ++k) {
    by_request[request[k]].push_back(latency_us[k]);
  }
  std::vector<double> medians;
  for (const auto& [index, samples] : by_request) {
    medians.push_back(Median(samples));
  }
  return Percentile(std::move(medians), q);
}

StreamStats RunPasses(size_t n, double seconds,
                      const std::function<Outcome(size_t)>& one) {
  StreamStats stats;
  const double start = NowUs();
  double excluded = 0;
  do {
    const double pass_start = NowUs();
    const double excluded_before = excluded;
    const size_t completed_before = stats.latency_us.size();
    for (size_t i = 0; i < n; ++i) {
      Outcome outcome = one(i);
      ++stats.attempted;
      excluded += outcome.excluded_us;
      if (outcome.ok) {
        stats.latency_us.push_back(outcome.latency_us);
        stats.request.push_back(i);
      } else {
        ++stats.failed;
      }
    }
    const double pass_us = NowUs() - pass_start - (excluded - excluded_before);
    stats.pass_qps.push_back(
        static_cast<double>(stats.latency_us.size() - completed_before) /
        (pass_us / 1e6));
  } while ((NowUs() - start - excluded) < seconds * 1e6);
  stats.window_s = (NowUs() - start - excluded) / 1e6;
  return stats;
}

std::vector<double> SpanLog::PerRequest(const char* layer) const {
  std::map<uint32_t, double> sums;
  const std::string name(layer);
  for (const Span& span : spans_) {
    if (name == span.layer) sums[span.request] += span.end_us - span.start_us;
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [request, sum] : sums) out.push_back(sum);
  return out;
}

const std::vector<double>& SpanLog::Counter(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = counters_.find(name);
  return it == counters_.end() ? kEmpty : it->second;
}

double SpanLog::CounterSum(const std::string& name) const {
  double total = 0;
  for (double v : Counter(name)) total += v;
  return total;
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Detail(const std::string& name, double value) {
  detail_.emplace_back(name, JsonNumber(value));
}

void Report::Samples(const std::string& metric, size_t count) {
  samples_.emplace_back(metric, count);
}

void Report::Mismatch(const std::string& what) {
  ++failed_;
  if (mismatches_++ == 0) first_mismatch_ = what;
}

void Report::Print(const Args& args) const {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "perfbench: WARNING: built without optimization (%s); "
                 "timings are not comparable\n",
                 PERFBENCH_BUILD_TYPE);
  }
  std::string line = "{\"perfbench\": {";
  line += "\"workload\": " + JsonString(args.workload);
  line += ", \"seed\": " + std::to_string(args.seed);
  line += ", \"seconds\": " + JsonNumber(args.seconds);
  line += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  line += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  line += ", \"optimized\": " + std::string(optimized ? "true" : "false");
  line += ", \"git_sha\": " + JsonString(args.git_sha);
  line += ", \"source_digest\": " + JsonString(args.source_digest);
  line += ", \"cpus\": " + std::to_string(std::thread::hardware_concurrency());
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"mismatches\": " + std::to_string(mismatches_);
  if (mismatches_ > 0) {
    line += ", \"first_mismatch\": " + JsonString(first_mismatch_);
  }
  line += ", \"samples\": {";
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(samples_[i].first) + ": " +
            std::to_string(samples_[i].second);
  }
  line += "}";
  for (const auto& [name, value] : detail_) {
    line += ", " + JsonString(name) + ": " + value;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());

  std::string result = "{\"correct\": ";
  result += correct() ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted_);
  result += ", \"failed\": " + std::to_string(failed_);
  result += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) result += ", ";
    result += JsonString(metrics_[i].name) + ": {\"value\": " +
              JsonNumber(metrics_[i].value);
    if (!metrics_[i].unit.empty()) {
      result += ", \"unit\": " + JsonString(metrics_[i].unit);
    }
    result += "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

double MedianSetup(size_t reps, const std::function<double(size_t)>& setup) {
  std::vector<double> times;
  for (size_t i = 0; i < reps; ++i) times.push_back(setup(i));
  return Median(times);
}

size_t CountElements(const std::string& xml) {
  size_t count = 0;
  for (size_t i = 0; i + 1 < xml.size(); ++i) {
    if (xml[i] == '<' && xml[i + 1] != '/' && xml[i + 1] != '?' &&
        xml[i + 1] != '!') {
      ++count;
    }
  }
  return count;
}

double DumpValue(const std::string& dump, const std::string& name,
                 const std::string& field) {
  size_t pos = 0;
  while ((pos = dump.find(name + " ", pos)) != std::string::npos) {
    if (pos == 0 || dump[pos - 1] == '\n') break;
    ++pos;
  }
  if (pos == std::string::npos) return 0;
  pos += name.size() + 1;
  if (!field.empty()) {
    const size_t end = dump.find('\n', pos);
    const size_t at = dump.find(field + "=", pos);
    if (at == std::string::npos || (end != std::string::npos && at > end)) {
      return 0;
    }
    pos = at + field.size() + 1;
  }
  return std::atof(dump.c_str() + pos);
}

}  // namespace perfbench
