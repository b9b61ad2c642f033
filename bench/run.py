"""opdiv benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. Each workload runs in its own process
(bench/worker.py) that issues the load from one thread. With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics, and the line
before it gives the tracing overhead. `--workload all` runs every
workload with and without tracing and prints each metric by name with
its unit. See bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("registry_sweep", "divergence_field", "large_dim")
# Set-up is measured in this many processes and reported as the median.
SETUP_RUNS = 5
# Every run ends within this many seconds.
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def worker(workload, seed, seconds, mode, deadline):
    """Run bench/worker.py to its end and return its JSON result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} run of {workload}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} run of {workload} passed the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} run of {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run(workload, seed, seconds, trace, deadline):
    """One benchmark run.

    Returns the result object printed as the last line, the tracing
    overhead of a trace run and the wall-clock figures of a measuring run.
    """
    if trace:
        res = worker(workload, seed, seconds, "trace", deadline)
        metrics = res["metrics"]
    else:
        setups = [worker(workload, seed, seconds, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        res = worker(workload, seed, seconds, "measure", deadline)
        setups.append(res["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **res["metrics"]}
    result = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return result, res.get("overhead"), res.get("wall")


def print_wall(workload, wall):
    print(
        f"wall clock {workload}: {wall['items_per_s']:.6g} item/s, "
        f"call p50 {wall['call_ms_p50']:.6g} ms"
    )


def print_overhead(workload, overhead):
    untraced = overhead["untraced_items_per_s"]
    traced = overhead["traced_items_per_s"]
    print(
        f"tracing overhead {workload}: {traced:.6g} item/s traced, {untraced:.6g} "
        f"untraced, ratio {traced / untraced:.3f}; {overhead['spans_written']} of "
        f"{overhead['spans_seen']} spans in {overhead['trace_file']}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "opdiv", "__init__.py")):
        print(f"error: no opdiv sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    if args.workload != "all":
        deadline = time.monotonic() + DEADLINE_S
        try:
            result, overhead, wall = run(args.workload, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if overhead:
            print_overhead(args.workload, overhead)
        if wall:
            print_wall(args.workload, wall)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                result, overhead, wall = run(workload, args.seed, args.seconds, trace,
                                             time.monotonic() + DEADLINE_S)
            except BenchError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            ok = ok and result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                print(f"{workload:17s} {name:42s} {metric['value']:14.6g} {metric['unit']}")
            print(f"{workload:17s} {'correct' if result['correct'] else 'INCORRECT'}: "
                  f"{result['failed']} of {result['attempted']} operations failed")
            if overhead:
                print_overhead(workload, overhead)
            if wall:
                print_wall(workload, wall)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
