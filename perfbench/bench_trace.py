"""Spans recorded from outside the program, around calls into each layer.

A span is opened by rebinding the attribute a caller looks up at call time
(for instance ``hunter.cohomology_table``, the name ``hunter.hunt`` calls)
to a wrapper that times the original.  Nothing inside ``bundlehunt`` is
edited.  Spans stay in memory while the workload runs; the per-layer report
is computed from them afterwards, and every rebound attribute is restored
when tracing ends.
"""

from __future__ import annotations

import contextlib
import functools
import time

# (owner, attribute, span name).  The owner is the module, or the class, whose
# attribute the caller reads on every call, so rebinding it puts the span
# around every call from that caller.  The span name is the layer that
# defines the function.
WRAP_SITES = (
    ("hunter", "hunt", "hunter.hunt"),
    ("hunter", "sample_eta", "hunter.sample_eta"),
    ("hunter", "genericity_check", "hunter.genericity_check"),
    ("hunter", "cohomology_table", "qbundle.cohomology_table"),
    ("qbundle", "banded_connecting_rank", "ext1.banded_connecting_rank"),
    ("qbundle.CechOracle", "h", "qbundle.CechOracle.h"),
    ("ext1", "connecting_rank", "ext1.connecting_rank"),
    ("ext1", "splitting_of_extension", "ext1.splitting_of_extension"),
    ("ext1", "is_hn_top", "ext1.is_hn_top"),
    ("p1", "splitting_from_transition", "p1.splitting_from_transition"),
    ("p1", "det_unit_order", "exactalg.det_unit_order"),
    ("kernels", "rank_rows", "kernels.rank_rows"),
    ("kernels", "echelon", "kernels.echelon"),
    ("kernels", "det_int", "kernels.det_int"),
)

# (span name, what its amount counts) for every layer in the report
LAYERS = (
    ("hunter.hunt", None),
    ("hunter.sample_eta", None),
    ("hunter.genericity_check", "accepted"),
    ("qbundle.cohomology_table", "cells"),
    ("ext1.banded_connecting_rank", None),
    ("ext1.connecting_rank", None),
    ("ext1.splitting_of_extension", None),
    ("ext1.is_hn_top", None),
    ("qbundle.CechOracle.h", None),
    ("p1.splitting_from_transition", None),
    ("exactalg.det_unit_order", None),
    ("kernels.rank_rows", "nnz_in"),
    ("kernels.echelon", "nnz_in"),
    ("kernels.det_int", "nnz_in"),
    ("serialize.cert_round_trip", "bytes"),
    ("serialize.desc_round_trip", "bytes"),
    ("bench.item", None),
)

# span fields, in the order Tracer.spans stores them
NAME, ITEM, DEPTH, SELF_S, AMOUNT = range(5)


def resolve_owner(lib, path: str):
    """The object named by 'module' or 'module.Class', or None if it is gone."""
    module, _, cls = path.partition(".")
    owner = getattr(lib, module)
    return getattr(owner, cls, None) if cls else owner


def _sparse_nnz(rows) -> int:
    return sum(len(cols) for cols, _ in rows)


def _dense_nnz(mat) -> int:
    return sum(1 for row in mat for v in row if v)


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Each finished span is a tuple (name, item, depth, self seconds,
    amount), where self time is the span's duration minus the durations
    of the spans it directly contains, and amount is the span's own count
    (input nonzeros for a kernel, cells for a table, bytes for a round trip,
    1 for a genericity check that passed).  Nothing is recorded while
    paused, so calls made by the benchmark's own checks stay out.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.chain_keys: list[tuple] = []
        self.item = -1
        self.recording = True
        self._stack: list[list] = []  # one [child seconds] per open span
        self._saved: list[tuple] = []

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block; the block may set box[0] to the span's amount."""
        box = [0]
        if not self.recording:
            yield box
            return
        frame = [0.0]  # seconds spent in child spans
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield box
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
            # a parent closes after its children, so a span records only its
            # depth here and link_parents() finds the parent afterwards
            self.spans.append((name, self.item, len(self._stack), dur - frame[0], box[0]))

    @contextlib.contextmanager
    def paused(self):
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # -- installing wrappers ------------------------------------------------

    def _wrapper(self, name: str, fn):
        span = self.span
        if name.startswith("kernels."):
            count = _dense_nnz if name == "kernels.det_int" else _sparse_nnz

            @functools.wraps(fn)
            def kernel(rows, *args, **kwargs):
                rows = list(rows)  # an iterator would be consumed by the count
                with span(name) as box:
                    box[0] = count(rows)
                    return fn(rows, *args, **kwargs)

            return kernel
        if name == "qbundle.cohomology_table":

            @functools.wraps(fn)
            def table(*args, **kwargs):
                with span(name) as box:
                    result = fn(*args, **kwargs)
                    box[0] = len(result.cells)
                return result

            return table
        if name == "hunter.genericity_check":

            @functools.wraps(fn)
            def genericity(*args, **kwargs):
                with span(name) as box:
                    report = fn(*args, **kwargs)
                    box[0] = int(report.ok)
                return report

            return genericity
        if name == "ext1.banded_connecting_rank":
            chain_keys = self.chain_keys

            @functools.wraps(fn)
            def banded(eta0, eta1, n, m):
                # one staircase chain per (descriptor, side, twist)
                chain_keys.append((eta0, eta1, n >= 1, m))
                with span(name):
                    return fn(eta0, eta1, n, m)

            return banded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def install(self, lib) -> None:
        """Rebind every wrap site that exists in this version of the library."""
        for path, attr, name in WRAP_SITES:
            owner = resolve_owner(lib, path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-layer report -----------------------------------------------------

    def link_parents(self) -> list[int]:
        """Index of each span's parent span, or -1 for a root.

        Spans are stored in closing order, so a span's parent is the first
        later span of one smaller depth.
        """
        parents = [-1] * len(self.spans)
        open_at: dict[int, list[int]] = {}
        for idx, span in enumerate(self.spans):
            depth = span[DEPTH]
            for child in open_at.pop(depth + 1, ()):
                parents[child] = idx
            open_at.setdefault(depth, []).append(idx)
        return parents

    def layer_metrics(self) -> dict:
        """Per-layer metrics under their report names (units: unit_of).

        For every layer: calls, self_s, its amount where it has one, and
        the same per item; self_share is the layer's part of all traced
        item time.  Three ratios measure wasted or repeated work:
        eta_accept_frac is the share of sampled extension data that passed
        the genericity check.
        """
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        amount: dict[str, int] = {}
        for span in self.spans:
            name = span[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + span[SELF_S]
            amount[name] = amount.get(name, 0) + span[AMOUNT]

        def ratio(num, den):
            return num / den if den else 0.0

        items = calls.get("bench.item", 0)
        total = sum(self_s.values())
        out: dict[str, float] = {}
        for name, label in LAYERS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.self_share"] = ratio(self_s.get(name, 0.0), total)
            out[f"{name}.calls_per_item"] = ratio(calls.get(name, 0), items)
            out[f"{name}.self_ms_per_item"] = ratio(1e3 * self_s.get(name, 0.0), items)
            if label:
                out[f"{name}.{label}"] = amount.get(name, 0)
                out[f"{name}.{label}_per_item"] = ratio(amount.get(name, 0), items)

        out["hunter.eta_accept_frac"] = ratio(
            amount.get("hunter.genericity_check", 0), calls.get("hunter.sample_eta", 0)
        )
        out["ext1.staircase_unique_frac"] = ratio(
            len(set(self.chain_keys)), calls.get("ext1.banded_connecting_rank", 0)
        )
        parents = self.link_parents()
        in_oracle = 0
        for idx, span in enumerate(self.spans):
            if span[NAME] != "kernels.rank_rows":
                continue
            p = parents[idx]
            while p >= 0 and self.spans[p][NAME] != "qbundle.CechOracle.h":
                p = parents[p]
            in_oracle += p >= 0
        out["qbundle.oracle_rank_calls_per_cell"] = ratio(
            in_oracle, calls.get("qbundle.CechOracle.h", 0)
        )
        return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("_ms_per_item"):
        return "ms"
    if metric.endswith(("_share", "_frac", "_per_cell")):
        return "ratio"
    if metric.endswith((".bytes", ".bytes_per_item")):
        return "bytes"
    return "count"


class NullTracer:
    """Stands in for Tracer in an untraced run: records nothing."""

    item = -1

    @contextlib.contextmanager
    def span(self, name: str):
        yield [0]

    @contextlib.contextmanager
    def paused(self):
        yield
