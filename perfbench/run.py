"""Benchmark for nestrec: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

The program is imported from ../src; nothing is installed.  A run repeats
passes over the seeded operations until --seconds have gone by.  With
--trace 0 the last line holds the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a run that alternates untraced and traced
passes.  The line before it echoes the seed and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

SETUP_REPEATS = 9
CRITERION1_REPEATS = 2000

try:
    import workloads
    import tracing
    from speed import SpeedProbe
except ImportError as err:
    sys.exit(f"perfbench: cannot import the program from ../src: {err}")

from nestrec import tree  # noqa: E402


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.hostile_failed = 0
        self.latencies: list[float] = []  # per operation, at reference speed
        self.unscaled_walls: list[float] = []  # untraced passes only


def run_pass(workload: workloads.Workload, tally: Tally, probe: SpeedProbe) -> tuple[float, float]:
    """Run every operation once; return the pass's time at reference speed and unscaled."""
    clock = time.perf_counter
    timed = []
    pass_start, pass_spent = clock(), probe.spent
    for op in workload.ops:
        start, spent = clock(), probe.spent
        try:
            out, error = op.run(), None
        except Exception as err:  # an operation that raises is a counted failure
            out, error = None, err
        end = clock()
        timed.append((start, end, end - start - (probe.spent - spent)))
        ok = error is None and op.check(out)
        if not ok:
            print(f"perfbench: {op.name} {f'raised {error!r}' if error else 'gave a wrong result'}", file=sys.stderr)
        tally.attempted += 1
        tally.failed += not ok
    tally.hostile_failed = sum(not succeeds(op) for op in workload.hostile)
    pass_end = clock()
    busy = pass_end - pass_start - (probe.spent - pass_spent)
    tally.latencies += [op_busy * probe.speed(start, end) for start, end, op_busy in timed]
    return busy * probe.speed(pass_start, pass_end), busy


def succeeds(op: workloads.Op) -> bool:
    try:
        return op.check(op.run())
    except Exception:  # the hostile inputs are known to raise; the count is reported
        return False


def measure_setup(workload: str, seed: int) -> float:
    """Median time, at reference speed, of fresh interpreters that import the program and build the inputs.

    The child samples the speed of the core it runs on, which may be loaded
    differently from this one.
    """
    command = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py"),
               workload, str(seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        # communicate() without a timeout blocks; with one it polls in steps of up to 50 ms
        killer = threading.Timer(120, child.kill)
        killer.start()
        out, _ = child.communicate()
        elapsed = time.perf_counter() - start
        killer.cancel()
        if child.returncode:
            raise RuntimeError(f"set-up run exited with {child.returncode}")
        probe_spent, speed = map(float, out.split())
        if i:  # the first one also writes the bytecode caches
            times.append((elapsed - probe_spent) * speed)
    return statistics.median(times)


def untraced_pass(workload, tally, probe) -> float:
    leaked = tracing.leaked_wrappers()
    if leaked:
        raise RuntimeError(f"tracing wrappers left in place: {leaked}")
    scaled, unscaled = run_pass(workload, tally, probe)
    tally.unscaled_walls.append(unscaled)
    return scaled


def end_to_end(workload, tally, seconds) -> dict[str, tuple[float, str]]:
    walls = []
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            walls.append(untraced_pass(workload, tally, probe))
    deciles = statistics.quantiles(tally.latencies, n=10, method="inclusive")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_p50_ms": (statistics.median(tally.latencies) * 1000, "ms"),
        "op_p90_ms": (deciles[8] * 1000, "ms"),
    }


def criterion1_over_1ms_share() -> float:
    """Share of runs of acceptance criterion 1's timed block that exceed its 1 ms gate."""
    spec = tree.TreeSpec(2, 1, 3, 1, 2, 2)
    over = 0
    for _ in range(CRITERION1_REPEATS):
        start = time.perf_counter()
        ok = (
            tree.cell_count(spec, 16) == 9
            and tree.cell_count(spec, 31) == 17
            and tree.initial_conditions(spec, 9) == [1, 2, 3, 3, 3, 4, 5, 6, 6]
        )
        over += time.perf_counter() - start > 0.001
        if not ok:
            raise RuntimeError("criterion 1 counts are wrong")
    return over / CRITERION1_REPEATS


def per_layer(workload, tally, seconds) -> dict[str, tuple[float, str]]:
    """Alternate untraced and traced passes; report medians over the traced ones."""
    criterion1 = criterion1_over_1ms_share()
    untraced_walls, traced_walls, layers = [], [], []
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + seconds
        while not traced_walls or time.perf_counter() < deadline:
            untraced_walls.append(untraced_pass(workload, tally, probe))
            with tracing.traced(tracing.Tracer()) as tracer:
                traced_walls.append(run_pass(workload, tally, probe)[0])
            layers.append({**tracing.layer_metrics(tracer), "cli.hostile_failed": tally.hostile_failed})
    metrics = {name: (statistics.median(layer[name] for layer in layers), LAYER_UNITS[name]) for name in layers[0]}
    metrics["tree.criterion1_over_1ms_share"] = (criterion1, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return metrics


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


LAYER_UNITS = {name: _unit(name) for name in tracing.layer_metrics(tracing.Tracer())}
LAYER_UNITS["cli.hostile_failed"] = "count"


def machine() -> dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "peak_rss": "getrusage(RUSAGE_SELF).ru_maxrss of the measuring process after all passes, KiB / 1024",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.make_workload(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        metrics = per_layer(workload, tally, args.seconds)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        metrics = {"setup_s": (setup_s, "s"), **end_to_end(workload, tally, args.seconds)}

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "untraced_passes": len(tally.unscaled_walls), "operations_per_pass": len(workload.ops),
            "hostile_explore_failed": tally.hostile_failed,
            "unscaled_wall_s": statistics.median(tally.unscaled_walls), **machine()}
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
