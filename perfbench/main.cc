// perfbench: the repository benchmark's binary. run.py builds it
// and runs it as
//
//   perfbench --workload <topk_schema|routed_direct|live_ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--source-digest <hex>] [--work-dir <dir>]
//             [--inject-wrong-answer]
//
// and it prints a provenance/detail JSON line followed by the result
// line (correct, attempted, failed, metrics). With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones the
// workload measures, without units (run.py adds the absent ones as 0
// and the units from BENCHMARK.json). The exit code is non-zero when
// any operation failed or any answer differed from its oracle.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "util/logging.h"
#include "workload.h"

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<topk_schema|routed_direct|live_ingest> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--source-digest <hex>] [--work-dir <dir>] "
               "[--inject-wrong-answer]\n",
               message);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-wrong-answer") {
      args->inject_wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  // k-capped queries log a warning each; the benchmark counts them.
  approxql::util::SetLogLevel(approxql::util::LogLevel::kError);

  Report report;
  LayerMetrics layers;
  int status = 0;
  if (args.workload == "topk_schema") {
    status = RunTopkSchema(args, &report, &layers);
  } else if (args.workload == "routed_direct") {
    status = RunRoutedDirect(args, &report, &layers);
  } else if (args.workload == "live_ingest") {
    std::error_code ignored;
    std::filesystem::remove_all(args.work_dir, ignored);
    status = RunLiveIngest(args, &report, &layers);
    std::filesystem::remove_all(args.work_dir, ignored);
  } else {
    return Usage("unknown workload");
  }
  if (status != 0) return status;

  if (args.trace) {
    layers["trace.failed_frac"] =
        report.attempted() == 0
            ? 0
            : static_cast<double>(report.failed()) /
                  static_cast<double>(report.attempted());
    for (const auto& [name, value] : layers) report.Metric(name, value);
  }
  report.Print(args);
  if (!report.correct()) {
    std::fprintf(stderr,
                 "perfbench: %zu of %zu operations failed (%zu answers "
                 "differ from the oracle)\n",
                 report.failed(), report.attempted(), report.mismatches());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
