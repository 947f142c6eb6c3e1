"""End-to-end benchmark of bundlehunt, run from the root of a checkout.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 35 --trace 0

One process, one item at a time (a closed loop with a single client): the
next item starts when the previous one has finished and been checked.  The
library is imported from this checkout's ``src``; inputs are made from
``--seed`` alone.  Every output is checked, every failure is counted with
its exception type, and a failed item counts as infinite latency.

Times are wall time (perf_counter).  An item's time ends when its
operation returns; the check runs after it, outside the item's time and
outside every span.  The loop's process and child-process CPU time are
printed beside its wall time, and a run whose CPU time falls well below
its wall time is flagged: the machine was shared or work ran elsewhere.

Times in the result are also scaled to a reference machine speed: a fixed
calibration workload runs every quarter second between items (see
bench_speed.py), and each item's time is divided by the slowdown around it,
the median calibration time of those seconds over its reference value.
The raw wall times are printed beside them.

With ``--trace 0`` the last line is the end-to-end result.  With
``--trace 1`` every item runs twice in turn, with spans around every layer
boundary (see bench_trace.py) and without, so the difference in wall time
between the two is the tracing overhead; the last line holds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from bench_speed import REFERENCE_S, Speed
from bench_trace import NullTracer, Tracer, unit_of
from bench_workloads import WORKLOADS, InputNote, digest

SRC = Path(__file__).resolve().parent.parent / "src"

LIB_MODULES = ("hunter", "qbundle", "ext1", "p1", "exactalg", "kernels", "serialize")
SETUP_REPEATS = 3
SETUP_SAMPLES = 4  # calibrations before and after each set-up repetition
CPU_SHARE_FLAG = 0.8  # flag a run whose cpu time is below this share of wall time

# name -> unit; the --trace 0 result line carries exactly these
END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# the --trace 1 result line carries exactly these (units: bench_trace.unit_of).
# Times are per item and only for a layer every gated workload reaches, so no
# time reads 0 on every run; the shares and per-item counts of a layer a
# workload does not reach read 0.
PER_LAYER = (
    "hunter.genericity_check.self_share",
    "hunter.genericity_check.calls_per_item",
    "hunter.eta_accept_frac",
    "serialize.desc_round_trip.self_share",
    "serialize.desc_round_trip.bytes_per_item",
    "qbundle.CechOracle.h.self_share",
    "qbundle.oracle_rank_calls_per_cell",
    "p1.splitting_from_transition.self_share",
    "exactalg.det_unit_order.self_share",
    "ext1.connecting_rank.self_share",
    "ext1.connecting_rank.calls_per_item",
    "ext1.splitting_of_extension.self_share",
    "kernels.rank_rows.self_share",
    "kernels.rank_rows.self_ms_per_item",
    "kernels.rank_rows.calls_per_item",
    "kernels.rank_rows.nnz_in_per_item",
    "kernels.echelon.self_share",
    "kernels.echelon.calls_per_item",
    "kernels.echelon.nnz_in_per_item",
)


class SetupError(Exception):
    """The checkout does not hold the library this benchmark measures."""


def load_library() -> SimpleNamespace:
    """Import bundlehunt afresh from this checkout's src directory."""
    if not (SRC / "bundlehunt" / "__init__.py").is_file():
        raise SetupError(f"no bundlehunt package under {SRC}")
    for name in [n for n in sys.modules if n == "bundlehunt" or n.startswith("bundlehunt.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("bundlehunt")
    if Path(pkg.__file__).resolve().parent != SRC / "bundlehunt":
        raise SetupError(f"imported bundlehunt from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"bundlehunt.{m}") for m in LIB_MODULES})


def setup(workload, seed: int, speed: Speed):
    """(library, items, input digest, set-up seconds of each repetition).

    Set-up is import plus input generation, repeated so its median is
    steady; every repetition makes the same inputs from the same seed.
    Machine speed is sampled around each repetition, outside its time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        t0 = time.perf_counter()
        lib = load_library()
        items, plain = workload.make_inputs(lib, seed)
        times.append(time.perf_counter() - t0)
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    return lib, items, digest(plain), times


def cpu_seconds() -> tuple[float, float]:
    """CPU seconds used so far by this process and by its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


@dataclass
class Measured:
    latencies: list = field(default_factory=list)  # seconds; inf for a failed item
    durations: list = field(default_factory=list)  # seconds in each item's operation
    mids: list = field(default_factory=list)  # clock at the middle of each item
    failures: Counter = field(default_factory=Counter)
    examples: dict = field(default_factory=dict)  # failure kind -> first message
    notes: Counter = field(default_factory=Counter)  # verified items with an input defect
    wall: float = 0.0
    cpu: float = 0.0
    child_cpu: float = 0.0
    sampling: float = 0.0  # seconds of machine-speed sampling in the loop

    @property
    def busy(self) -> float:
        return sum(self.durations)

    def fail(self, kind: str, message: str) -> None:
        self.latencies.append(math.inf)
        self.failures[kind] += 1
        self.examples.setdefault(kind, message)


def run_item(lib, workload, item, tracer, out: Measured) -> None:
    """Time one item's operation, then check its output outside that time."""
    error = None
    t0 = time.perf_counter()
    try:
        with tracer.span("bench.item"):
            result = workload.operate(lib, item, tracer)
    except Exception as exc:  # a failed item: counted, never fatal
        error = exc
    t1 = time.perf_counter()
    latency = t1 - t0
    out.durations.append(latency)
    out.mids.append((t0 + t1) / 2)
    if error is not None:
        out.fail(type(error).__name__, str(error))
        return
    with tracer.paused():
        try:
            problem = workload.check(lib, item, result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    if problem is None or isinstance(problem, InputNote):
        out.latencies.append(latency)
        if problem:
            out.notes[problem] += 1
    else:
        out.fail("WrongOutput", problem)


def measure(
    lib, workload, items, tracer, seconds: float = math.inf, count: int | None = None,
    speed: Speed | None = None,
):
    """Closed loop over the items (cycling) until the time or count is spent.

    With speed given, machine speed is sampled between items, outside the
    items' times.
    """
    out = Measured()
    start = time.perf_counter()
    cpu_start, child_start = cpu_seconds()
    spent_start = speed.spent if speed else 0.0
    deadline = start + seconds
    i = 0
    while True:
        tracer.item = i
        run_item(lib, workload, items[i % len(items)], tracer, out)
        i += 1
        if speed:
            speed.sample_if_due()
        if count is not None and i >= count:
            break
        if count is None and time.perf_counter() >= deadline:
            break
    out.wall = time.perf_counter() - start
    cpu_end, child_end = cpu_seconds()
    out.cpu = cpu_end - cpu_start
    out.child_cpu = child_end - child_start
    out.sampling = speed.spent - spent_start if speed else 0.0
    return out


def measure_traced(lib, workload, items, seconds: float):
    """(tracer, traced run, untraced run): every item twice until the time is spent.

    Each item runs once with the tracer installed and once without, in
    alternating order, so both runs see the same machine speed and, in turn,
    the same warm caches; the difference of their times is the tracing
    overhead.
    """
    tracer = Tracer()
    traced, untraced = Measured(), Measured()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        tracer.item = i
        item = items[i % len(items)]
        for with_spans in (True, False) if i % 2 == 0 else (False, True):
            if not with_spans:
                run_item(lib, workload, item, NullTracer(), untraced)
                continue
            tracer.install(lib)
            try:
                run_item(lib, workload, item, tracer, traced)
            finally:
                tracer.uninstall()
        i += 1
        if time.perf_counter() >= deadline:
            return tracer, traced, untraced


def tail_index(n: int) -> int | None:
    """Index, in ascending order, of the highest percentile with ten items beyond it."""
    return n - 11 if n >= 11 else None


def end_to_end(
    run: Measured, setup_times: list, speed: Speed | None = None, setup_slowdown: float = 1.0
) -> dict:
    """The end-to-end metrics; with speed, each item's times are divided by
    the slowdown around it, and set-up times by setup_slowdown."""
    if speed is None:
        factors = [1.0] * len(run.mids)
    else:
        factors = [speed.slowdown(t) for t in run.mids]
    lat = sorted(x / f for x, f in zip(run.latencies, factors))
    busy = sum(d / f for d, f in zip(run.durations, factors))
    n = len(lat)
    verified = sum(1 for x in lat if x != math.inf)
    k = tail_index(n)
    return {
        "items_per_s": verified / busy,
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_tail_ms": (lat[k] if k is not None else math.inf) * 1e3,
        "setup_s": statistics.median(setup_times) / setup_slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def finite(x):
    """JSON has no infinity: an undefined latency (too many failures) is null."""
    return x if math.isfinite(x) else None


def report_failures(name: str, run: Measured) -> None:
    n = len(run.latencies)
    failed = sum(run.failures.values())
    print(f"fail_frac {failed / n:.6f} ({failed} of {n} {name} items failed)")
    for kind, cnt in run.failures.most_common():
        print(f"  failure {kind}: {cnt} items; first: {run.examples[kind][:160]}")
    for note, cnt in run.notes.most_common():
        print(f"input defect, output verified: {cnt} items: {note[:200]}")


def report_clocks(run: Measured) -> None:
    cpu = run.cpu + run.child_cpu
    print(
        f"loop wall {run.wall:.3f} s, {run.busy:.3f} s of it in items; "
        f"cpu {run.cpu:.3f} s in this process, {run.child_cpu:.3f} s in child processes; "
        f"{run.sampling:.3f} s of machine-speed sampling"
    )
    if cpu < CPU_SHARE_FLAG * run.wall:
        print(
            f"warning: cpu time is {100 * cpu / run.wall:.0f}% of wall time: the machine "
            "was shared, or work waited on something outside this process"
        )


def result_line(run: Measured, metrics: dict, units: dict) -> str:
    failed = sum(run.failures.values())
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(run.latencies),
            "failed": failed,
            "metrics": {k: {"value": finite(metrics[k]), "unit": units[k]} for k in units},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    speed = Speed()
    try:
        lib, items, input_digest, setup_times = setup(workload, args.seed, speed)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup_slowdown = speed.slowdown()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"environment backend={lib.kernels.BACKEND} python={platform.python_version()} "
        f"nproc={os.cpu_count()}"
    )
    print(f"inputs {len(items)} {workload.item_kind} items, sha256 {input_digest}")
    print("setup_s repetitions " + " ".join(f"{t:.4f}" for t in setup_times))

    if not args.trace:
        run = measure(lib, workload, items, NullTracer(), seconds=args.seconds, speed=speed)
        metrics = end_to_end(run, setup_times, speed, setup_slowdown)
        raw = end_to_end(run, setup_times)
        report_failures(workload.name, run)
        report_clocks(run)
        print(
            f"slowdown {speed.slowdown():.4f} over the run, {setup_slowdown:.4f} over set-up: "
            f"median calibration {1e3 * statistics.median(speed.samples):.3f} ms of "
            f"{len(speed.samples)} samples, reference {1e3 * REFERENCE_S:g} ms"
        )
        n = len(run.latencies)
        k = tail_index(n)
        for name, unit in END_TO_END.items():
            note = f"  (raw {raw[name]:.6g})" if name != "peak_rss_mb" else ""
            if name == "item_tail_ms":
                note += (
                    f"  (p{100 * (n - 10) / n:.2f} of {n} items, 10 beyond)"
                    if k is not None
                    else f"  (undefined: {n} items, fewer than 11)"
                )
            print(f"{name} {metrics[name]:.6g} {unit}{note}")
        print(result_line(run, metrics, END_TO_END))
        return 0

    tracer, run, replay = measure_traced(lib, workload, items, args.seconds)
    metrics = tracer.layer_metrics()
    report_failures(workload.name, run)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    overhead = run.busy - replay.busy
    print(
        f"trace_overhead_s {overhead:.4f} (traced {run.busy:.3f} s, untraced "
        f"{replay.busy:.3f} s of the same {len(run.latencies)} items, "
        f"{100 * overhead / replay.busy:.1f}%)"
    )
    print(result_line(run, metrics, {name: unit_of(name) for name in PER_LAYER}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
