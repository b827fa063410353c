#!/usr/bin/env python3
"""Build and run the ldcf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of an ldcf source tree. The first call configures and
builds perfbench/ (ldcf's libraries plus the ldcf_perfbench program) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr.

A run prints ldcf_perfbench's "metric <name> <value> <unit>" and "pin" lines,
then one JSON result line: {"correct", "attempted", "failed", "metrics"}.
Before printing, it checks that the metrics are exactly the ones
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer for
--trace 1) with the same units, and that every "pin" count matches
perfbench/pins.json when that file records the seed. A mismatch counts as a
failed check. Exit status: 0 when every check passed, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("paper_sweep", "serve_mix")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build both targets; raises on failure."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out, "-j", jobs, "--target", "ldcf_perfbench",
         "perfbench_selftest"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def declared(benchmark, mode):
    key = "end_to_end" if mode == 0 else "per_layer"
    return {m["name"]: m["unit"] for m in benchmark[key]}


def metric_problems(metrics, expected):
    """Differences between emitted metrics and the declared name -> unit map."""
    problems = []
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"metric {name} not emitted")
        elif metrics[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {metrics[name].get('unit')}"
                            f", BENCHMARK.json says {unit}")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric {name} is not listed in BENCHMARK.json")
    return problems


def pin_problems(pins, workload, seed, lines):
    recorded = pins.get(workload, {}).get(str(seed))
    if not recorded:
        return []
    seen = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "pin":
            seen[parts[1]] = int(parts[2])
    return [f"pin {name}: {seen.get(name)} != recorded {value}"
            for name, value in recorded.items() if seen.get(name) != value]


def run(args):
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    out = build()
    binary = os.path.join(out, "ldcf_perfbench")
    # Scratch files (trace CSV, Unix socket) live under the build tree; the
    # program is given it as a relative path so the socket path stays short.
    work_dir = os.path.relpath(os.path.join(out, "work"), ROOT)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
            return 1
    lines = stdout.splitlines()
    if not lines:
        log(f"{args.workload} printed nothing (exit {proc.returncode})")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not a result: {lines[-1]!r}")
        return 1
    for line in lines[:-1]:
        print(line)

    problems = metric_problems(result["metrics"],
                               declared(benchmark, args.trace))
    pins_path = os.path.join(HERE, "pins.json")
    if os.path.exists(pins_path):
        problems += pin_problems(load_json(pins_path), args.workload,
                                 args.seed, lines)
    for problem in problems:
        log(f"check failed: {problem}")
    result["attempted"] += len(problems)
    result["failed"] += len(problems)
    result["correct"] = result["failed"] == 0
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


def selftest():
    """Harness unit tests, plus BENCHMARK.json against ldcf_perfbench's table."""
    out = build()
    failures = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              check=False).returncode
    benchmark = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    table = subprocess.run([os.path.join(out, "ldcf_perfbench"), "--describe"],
                           check=True, capture_output=True, text=True).stdout
    emitted = {0: {}, 1: {}}
    for line in table.splitlines():
        kind, name, unit = line.split()
        emitted[0 if kind == "end_to_end" else 1][name] = unit
    for mode in (0, 1):
        expected = declared(benchmark, mode)
        fake = {name: {"unit": unit} for name, unit in emitted[mode].items()}
        for problem in metric_problems(fake, expected):
            log(f"selftest: {problem}")
            failures += 1
    names = [w["name"] for w in benchmark["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        log(f"selftest: BENCHMARK.json workloads {names} != {WORKLOADS}")
        failures += 1
    print("perfbench selftest", "passed" if failures == 0 else "FAILED")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        if args.seed < 0 or args.seconds <= 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        return run(args)
    except (OSError, subprocess.CalledProcessError, KeyError, ValueError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
