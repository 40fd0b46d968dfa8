#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--inject-wrong-answer]

builds the perfbench binary from source (CMake, Release) into
$CARGO_TARGET_DIR or .bench_build, runs one workload, checks that the
result line names exactly the metrics BENCHMARK.json lists (a traced
run's absent layer metrics become 0, with their units taken from
BENCHMARK.json), and prints the binary's detail line and the result
line. The exit code is 0 only for a correct run: a failed operation or
an answer that differs from the oracle exits 1 after printing, and a
build failure exits 1 without a result.

Steadiness self-check:
    python3 perfbench/run.py --steadiness [--runs 5] [--seconds <s>] \
        [--workloads a,b] [--seed <n>]

runs each workload --runs times, with seeds 1, 2, ..., --runs or, given
--seed, with that one seed every time (which separates the host's noise
from the seed-to-seed difference in work), and prints every end-to-end
metric's median, quartiles and spread ((q3 - q1) / median, the quartiles
as statistics.quantiles(n=4) gives them), flagging any spread above the
metric's bound in BENCHMARK.json and noting any above a third of it.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def build():
    """Configures and builds the binary; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no approxql sources under %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        for step in (configure,
                     ["cmake", "--build", out, "--target", "perfbench",
                      "-j", jobs]):
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S,
                                      cwd=ROOT).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build step failed: " + " ".join(step))
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no %s" % binary)
    return binary


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        result = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=ROOT, capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the program and benchmark sources (path + content), so
    results from a checkout without git history stay attributable."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run_once(binary, spec, workload, seed, seconds, trace, inject=False,
             echo=True):
    """Runs one workload; returns (exit code, result dict or None)."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--git-sha", git_sha(), "--source-digest", source_digest(),
            "--work-dir", os.path.join(ROOT, ".bench_run", workload)]
    if inject:
        args.append("--inject-wrong-answer")
    try:
        proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has keys %s" % sorted(result))
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    extra = sorted(set(got) - set(want))
    if trace:
        # The binary prints only the layer metrics its workload measures;
        # a layer the workload bypasses reports 0.
        missing = []
        result["metrics"] = {
            name: {"value": got[name]["value"] if name in got else 0,
                   "unit": unit} for name, unit in want.items()}
    else:
        missing = sorted(set(want) - set(got))
        extra += sorted(name for name in want
                        if name in got and got[name].get("unit") != want[name])
    if missing or extra:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or "
             "wrong unit %s" % (missing, extra))
    if echo:
        for line in lines[:-1]:
            print(line)
        print(json.dumps(result))
        sys.stdout.flush()
    return proc.returncode, result


def steadiness(binary, spec, options):
    names = [w["name"] for w in spec["workloads"]]
    if options.workloads:
        names = options.workloads.split(",")
    seconds = options.seconds or spec["run_seconds"]
    summary = {}
    for workload in names:
        values = {}
        for k in range(options.runs):
            seed = options.seed if options.seed is not None else k + 1
            code, result = run_once(binary, spec, workload, seed, seconds, 0,
                                    echo=False)
            if code != 0 or not result["correct"]:
                fail("%s seed %d failed" % (workload, seed))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, m["value"])
                for n, m in result["metrics"].items())))
            sys.stdout.flush()
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = metric["bound"]
            flag = ("OVER BOUND" if spread > bound else
                    "over bound/3" if spread > bound / 3 else "ok")
            summary[workload][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "flag": flag}
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                  "%6.2f%% bound %5.1f%%  %s" % (
                      metric["name"], median, q1, q3, 100 * spread,
                      100 * bound, flag))
    print(json.dumps({"steadiness": summary, "runs": options.runs,
                      "seconds": seconds, "seed": options.seed}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-answer", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads")
    options = parser.parse_args()

    spec = load_spec()
    binary = build()
    if options.steadiness:
        steadiness(binary, spec, options)
        return 0
    if options.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % options.workload)
    seconds = options.seconds or spec["run_seconds"]
    seed = options.seed if options.seed is not None else 1
    code, result = run_once(binary, spec, options.workload, seed,
                            seconds, options.trace,
                            inject=options.inject_wrong_answer)
    if code != 0 or not result["correct"] or result["failed"] != 0:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
