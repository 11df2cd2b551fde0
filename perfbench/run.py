#!/usr/bin/env python3
"""Builds and runs one workload of the repo benchmark.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload micro-scan|apps-kv|cluster-mix|all \\
      [--seed N] [--trace 0|1]

Builds perfbench/ (and the simulator sources it compiles) into the build
directory, $CARGO_TARGET_DIR or .bench_build, then runs the workload in a
fresh process for run_seconds of BENCHMARK.json. A harness that passes
--seconds must pass that same value: the bounds hold for that run length
only. Prints a readable report and, as the last line
of stdout, one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics of BENCHMARK.json with --trace 0 and the
per-layer metrics with --trace 1. The full record (provenance, every
metric, the checks, the sim-derived block) goes to
<build dir>/results/<workload>-seed<N>-trace<T>.json, and the traced run's
spans to the matching .spans.json.

Exit codes: 0 ok, 1 a correctness or determinism check failed, 2 usage,
3 build failed, 4 the benchmark program failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("micro-scan", "apps-kv", "cluster-mix")
# The default workload seed; 9973 is held out for confirming claims made
# on the default one (see README.md).
DEFAULT_SEED = 1


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed:", " ".join(cmd))
            return None
    return os.path.join(out_dir, "leapbench")


def git_commit():
    """HEAD of a git checkout, read from .git without leaving the root."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest():
    """sha256 over the simulator and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


class BenchError(Exception):
    """A failure that leaves no result to report."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def run_workload(program, workload, seed, seconds, trace, wanted):
    """Runs one workload in a fresh process; returns (record, correct)."""
    results = os.path.join(os.path.dirname(program), "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload}-seed{seed}-trace{trace}")
    cmd = [program, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", stem + ".spans.json"]
    # The last repetition may end up to half a repetition past the budget.
    timeout = 2 * seconds + 60
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(4, f"leapbench did not finish within {timeout} s")
    try:
        record = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(4, f"leapbench exited {done.returncode} "
                            "without a result")
    measured = record["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        if metric["name"] not in measured:
            raise BenchError(4, f"leapbench did not report {metric['name']}")

    release = record["build_type"] == "Release" and not record["asserts"]
    record["provenance"] = {
        "nproc": os.cpu_count(),
        "compiler": record["compiler"],
        "build_type": record["build_type"],
        "release_build": release,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    prov = record["provenance"]
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"seconds {seconds}")
    print(f"provenance: nproc {prov['nproc']}, {prov['compiler']}, "
          f"{prov['build_type']} build, commit {prov['git_commit']}, "
          f"sources {prov['source_sha256'][:16]}")
    if not release:
        print("WARNING: not a Release build with assertions off; "
              "host-time numbers are not comparable")
    print(f"repetitions: {record['untraced_reps']:.0f} untraced, "
          f"{record['traced_reps']:.0f} traced, "
          f"{record['setup_samples']:.0f} set-up samples")
    for metric in wanted:
        print(f"  {metric['name']:36s} {measured[metric['name']]:>18.6g} "
              f"{metric['unit']}")
    if trace:
        for name, why in record["unmeasured"].items():
            print(f"  not measured here: {name}: {why}")
    else:
        e2e = record["end_to_end"]
        print(f"  failed_frac {e2e['failed_frac']:g} "
              f"({record['failed']:.0f} of {record['attempted']:.0f}); "
              f"remote latency samples {e2e['remote_samples']:.0f}")
    for name, check in record["checks"].items():
        if not check["ok"]:
            print(f"CHECK FAILED {name}: {check['detail']}")
    print(f"full record: {os.path.relpath(stem + '.json', ROOT)}")
    return record, bool(record["correct"]) and done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        log("cannot read BENCHMARK.json:", err)
        return 2
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        log(f"--seconds must be run_seconds of BENCHMARK.json ({seconds})")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    program = build(build_dir())
    if program is None:
        return 3

    # With "all", each workload still runs in its own process, one after
    # another, and the metric names gain a "<workload>/" prefix.
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        try:
            record, ok = run_workload(program, workload, args.seed, seconds,
                                      args.trace, wanted)
        except BenchError as err:
            log(err)
            return err.code
        correct = correct and ok
        attempted += int(record["attempted"])
        failed += int(record["failed"])
        measured = record["per_layer" if args.trace else "end_to_end"]
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for metric in wanted:
            metrics[prefix + metric["name"]] = {
                "value": measured[metric["name"]], "unit": metric["unit"]}

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
