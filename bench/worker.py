"""One workload in one process: set-up, eigensolver count, timed rounds,
optional traced rounds, and the output checks.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (set-up only), `measure` (end-to-end metrics) or `trace`
(per-layer metrics). The last line of standard output is a JSON object
for bench/run.py, which starts this process.
"""

import os
import sys
import time

# OpenBLAS and OpenMP are pinned to one thread before numpy loads: with
# their default threads each small LAPACK call can wait for a second
# thread the trial pool or another process is holding. opdiv's own trial
# pool keeps its default, so OPDIV_THREADS is cleared rather than set.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("OPDIV_THREADS", None)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

from tracer import NUMPY_BOUNDARIES, OPDIV_BOUNDARIES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = os.path.join(ROOT, "bench", "out")
# Check failures printed to standard error; later ones are only counted.
MAX_ERRORS = 20


class Harness:
    """Runs whole rounds of a workload and keeps the timings and errors."""

    def __init__(self, workload):
        self.workload = workload
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def op(self, i, tracer=None):
        """Prepare, time and check operation i.

        Returns the (CPU, wall) seconds of the call, or None if it raised.
        """
        call = self.workload.prepare(i)
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
            tracer.active = True
        wall = time.perf_counter()
        cpu = time.process_time()
        try:
            output = call()
        except Exception:  # an operation that raises counts as failed
            self.failed += 1
            print(f"bench: op {i} failed", file=sys.stderr)
            traceback.print_exc()
            return None
        finally:
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            if tracer is not None:
                tracer.active = False
        for message in self.workload.record(i, output):
            self._error(message)
        return cpu, wall

    def rounds(self, seconds, tracer=None):
        """Whole rounds until `seconds` of wall time have passed.

        Returns the CPU and the wall seconds of each timed call, and the
        items those calls did.
        """
        cpu, wall = [], []
        items = 0
        start = time.perf_counter()
        while True:
            for i in range(len(self.workload.ops)):
                t = self.op(i, tracer)
                if t is not None:
                    cpu.append(t[0])
                    wall.append(t[1])
                    items += self.workload.items_per_op
            if time.perf_counter() - start >= seconds:
                return cpu, wall, items

    def _error(self, message):
        if len(self.errors) < MAX_ERRORS:
            print(f"bench: {message}", file=sys.stderr)
        self.errors.append(message)


def eig_count(harness):
    """numpy.linalg eigh + eigvalsh dispatches per item over one round."""
    tracer = Tracer(NUMPY_BOUNDARIES)
    tracer.install()
    try:
        _, _, items = harness.rounds(0.0, tracer)
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    return sum(rec[0] for rec in stats.values()) / items


def layer_metrics(stats, items):
    metrics = {}
    for name, (calls, self_ns, matrices) in stats.items():
        metrics[f"{name}.calls"] = {"value": calls / items, "unit": "call/item"}
        if name.startswith("numpy.linalg."):
            metrics[f"{name}.matrices"] = {"value": matrices / items, "unit": "matrix/item"}
        metrics[f"{name}.self_us"] = {"value": self_ns / 1e3 / items, "unit": "us/item"}
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    harness = Harness(workload)
    harness.op(0)
    # CPU seconds since the process started: interpreter start, imports,
    # input generation and one warm-up operation.
    result = {"setup_s": time.process_time()}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    eig_per_item = eig_count(harness)
    if args.mode == "measure":
        cpu, wall, items = harness.rounds(args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "items_per_s": {"value": items / sum(cpu), "unit": "item/s"},
            "call_ms_p50": {"value": statistics.median(cpu) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "eig_calls_per_item": {"value": eig_per_item, "unit": "call/item"},
        }
        result["wall"] = {
            "items_per_s": items / sum(wall),
            "call_ms_p50": statistics.median(wall) * 1e3,
        }
    else:
        # Half the time untraced and half traced, to print the overhead.
        cpu, _, items = harness.rounds(args.seconds / 2)
        tracer = Tracer(NUMPY_BOUNDARIES + OPDIV_BOUNDARIES, keep_spans=True)
        tracer.install()
        try:
            traced_cpu, _, traced_items = harness.rounds(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        stats = tracer.stats()
        trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write_spans(trace_file)
        traced_eig = (stats["numpy.linalg.eigh"][0] + stats["numpy.linalg.eigvalsh"][0]) / traced_items
        if traced_eig != eig_per_item:
            harness._error(f"traced eigensolver calls {traced_eig} per item, counted {eig_per_item}")
        result["metrics"] = layer_metrics(stats, traced_items)
        result["overhead"] = {
            "untraced_items_per_s": items / sum(cpu),
            "traced_items_per_s": traced_items / sum(traced_cpu),
            "spans_seen": tracer.spans_seen(),
            "spans_written": tracer.spans_recorded(),
            "trace_file": os.path.relpath(trace_file, ROOT),
        }

    for message in workload.verify():
        harness._error(message)
    result.update(
        correct=not harness.errors,
        attempted=harness.attempted,
        failed=harness.failed,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
