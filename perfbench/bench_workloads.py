"""The three benchmark workloads: seeded inputs, the timed operation, the check.

Each workload makes a pool of items from the seed alone, in plain data where
it can, so the library receives only the generated inputs.  ``operate`` is
the user-visible operation and is what an item's latency measures;
``check`` verifies its output independently and returns a description of
what is wrong, None, or an InputNote when the output is right but the
input is not what the program promised.

Why these four (self-time shares from ``--trace 1``, pure-Python kernels):

* hunt-battery is the headline user flow, ``bundlehunt hunt`` on tuples of
  the acceptance battery followed by a certificate round trip.  When hunts
  succeed, the staircase ranks behind the cohomology table and the
  eliminations they run take over 90% of the time, and latency is
  heavy-tailed.
* hunt-generic is the same flow up to the cohomology table: hunter's
  public steps until the genericity check passes, then the descriptor's
  JSON round trip.  It keeps hunter and serialize measured on a workload
  that runs while the table stage does not (see hunt-battery's failures);
  the connecting ranks of the genericity check take most of its time.
* oracle-recheck is what ``verify --oracle`` adds: the independent Cech
  oracle, on seven cells of each rank-2 descriptor.  It never enters the
  staircase/table path; the oracle's own row assembly takes about 75% and
  its elimination matrices about 20%, so a kernel or oracle change shows
  here and a staircase change should not.
* classify is many small requests, ``ext-classify`` and ``split`` on the
  same random extension class.  The truncated section matrices of p1 take
  about 70% and many small eliminations about 25%, so a kernel change that
  adds per-call cost shows here.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

HUNT_POOL = 2000
GENERIC_POOL = 2040
# tuples of each rank in a block: about the battery's own rank mix
GENERIC_BLOCK = {2: 2, 3: 1, 4: 10, 6: 7, 8: 14}
ORACLE_RANK = 2
ORACLE_CELLS_PER_DESC = 7
ORACLE_WINDOW = 2
CLASSIFY_POOL = 4000
CLASSIFY_COEFF = 9


def battery_grid() -> list[tuple[Fraction, Fraction, Fraction, int]]:
    """Every valid tuple of the existence-theorem battery.

    Denominators <= 4, |alpha|, |beta| <= 3, gamma in {1/4, ..., 3},
    rank 2..8, alpha and beta not both integral, and rank * p(x, y) with
    integer coefficients: the grid of the acceptance suite's battery.
    """
    values = sorted({Fraction(p, q) for q in range(1, 5) for p in range(-3 * q, 3 * q + 1)})
    gammas = [Fraction(k, 4) for k in range(1, 13)]
    grid = []
    for a in values:
        for b in values:
            if a.denominator == 1 and b.denominator == 1:
                continue
            for r in range(2, 9):
                if (r * a).denominator != 1 or (r * b).denominator != 1:
                    continue
                for g in gammas:
                    if (r * (a * b - g)).denominator == 1:
                        grid.append((a, b, g, r))
    return grid


class InputNote(str):
    """Returned by check: the output is right, but the input has a defect worth reporting."""


def digest(data) -> str:
    """sha256 of a canonical JSON rendering of plain data (Fractions as p/q)."""
    text = json.dumps(data, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _cocycle_terms(e) -> list:
    return [[[x, str(c)] for x, c in p.terms()] for p in e.entries()]


# -- hunt-battery ------------------------------------------------------------


class HuntBattery:
    name = "hunt-battery"
    item_kind = "parameter tuple"

    @staticmethod
    def make_inputs(lib, seed: int) -> tuple[list, object]:
        rng = random.Random(seed)
        items = rng.sample(battery_grid(), HUNT_POOL)
        return items, items

    @staticmethod
    def operate(lib, item, tracer):
        a, b, g, r = item
        cert = lib.hunter.hunt(lib.hunter.HuntRequest(lib.qbundle.HilbertParams(a, b, g, r)))
        ser = lib.serialize
        with tracer.span("serialize.cert_round_trip") as box:
            text = ser.dump_json(ser.certificate_to_json(cert))
            back = ser.certificate_from_json(json.loads(text))
            box[0] = len(text)
        return cert, back

    @staticmethod
    def check(lib, item, out):
        cert, back = out
        params = lib.qbundle.HilbertParams(*item)
        if back != cert:
            return "certificate changed in the JSON round trip"
        if cert.params != params or lib.qbundle.hilbert_params(cert.desc) != params:
            return "descriptor does not recover the requested parameters"
        digest_ = cert.table_digest
        if not digest_.natural or digest_.cells != (2 * cert.verified_window + 1) ** 2:
            return f"table digest not natural on the window: {digest_}"
        return None


# -- oracle-recheck ------------------------------------------------------------


def build_descriptor(lib, req, rng: random.Random):
    """(descriptor, genericity report) from hunter's public steps.

    Mirrors hunt() up to genericity: normalize, solve degrees, build the
    bundles, then sample extension data until the genericity check passes.
    The descriptor is None if no sample passes within the resample budget.
    """
    h = lib.hunter
    params = req.params
    swapped, shift, alpha, beta, gamma = h.normalize_params(params)
    r1, r2, d1, d2 = h.solve_degrees(alpha, beta, gamma, params.rank)
    _, f1, f2 = h.build_bundles(r1, r2, d1, d2)
    report = None
    for _ in range(req.max_resamples + 1):
        eta = h.sample_eta(f1, f2, req.coeff_bound, rng)
        desc = lib.qbundle.ConstantBundleDesc(
            r1, r2, f1, f2, eta, shift=(shift, 0), axis_swapped=swapped
        )
        report = h.genericity_check(desc)
        if report.ok:
            return desc, report
    return None, report


# -- hunt-generic ----------------------------------------------------------------


class HuntGeneric:
    name = "hunt-generic"
    item_kind = "parameter tuple"

    @staticmethod
    def make_inputs(lib, seed: int) -> tuple[list, object]:
        # An item's cost grows steeply with rank, so every block of
        # sum(GENERIC_BLOCK) tuples holds the same number of each rank and a
        # run's rank mix does not depend on the seed; tuples are random.
        rng = random.Random(seed)
        by_rank: dict[int, list] = {r: [] for r in GENERIC_BLOCK}
        for t in battery_grid():
            by_rank[t[3]].append(t)
        for tuples in by_rank.values():
            rng.shuffle(tuples)
        items = []
        while len(items) < GENERIC_POOL:
            block = []
            for r, k in GENERIC_BLOCK.items():
                block += [by_rank[r].pop() for _ in range(k)]
            rng.shuffle(block)
            items += block
        return items, items

    @staticmethod
    def operate(lib, item, tracer):
        req = lib.hunter.HuntRequest(lib.qbundle.HilbertParams(*item))
        desc, report = build_descriptor(lib, req, random.Random(req.seed))
        if desc is None:
            raise lib.hunter.GenericityExhaustedError(
                f"no generic extension datum within {req.max_resamples} resamples", report=report
            )
        ser = lib.serialize
        with tracer.span("serialize.desc_round_trip") as box:
            text = ser.dump_json(
                {
                    "params": ser.params_to_json(req.params),
                    "eta0": ser.cocycle_to_json(desc.eta.eta0),
                    "eta1": ser.cocycle_to_json(desc.eta.eta1),
                }
            )
            data = json.loads(text)
            back = (
                ser.params_from_json(data["params"]),
                ser.cocycle_from_json(data["eta0"]),
                ser.cocycle_from_json(data["eta1"]),
            )
            box[0] = len(text)
        return desc, report, back

    @staticmethod
    def check(lib, item, out):
        desc, report, back = out
        params = lib.qbundle.HilbertParams(*item)
        if not report.ok:
            return f"accepted a descriptor with rank defects at {report.defects()}"
        if lib.qbundle.hilbert_params(desc) != params:
            return "descriptor does not recover the requested parameters"
        if back != (params, desc.eta.eta0, desc.eta.eta1):
            return "descriptor changed in the JSON round trip"
        return None


class OracleRecheck:
    name = "oracle-recheck"
    item_kind = "descriptor cell"

    @staticmethod
    def make_inputs(lib, seed: int) -> tuple[list, object]:
        # Rank 2 only, a few cells per descriptor: a cell's cost spreads
        # evenly over two decades on a log scale (wider still with rank 3
        # mixed in), so a steady median needs thousands of cells per run
        # drawn from many descriptors, not whole windows of a few.
        rng = random.Random(seed)
        tuples = [t for t in battery_grid() if t[3] == ORACLE_RANK]
        rng.shuffle(tuples)
        descs = []
        for t in tuples:
            params = lib.qbundle.HilbertParams(*t)
            req = lib.hunter.HuntRequest(params)
            desc, _ = build_descriptor(lib, req, random.Random(rng.getrandbits(64)))
            if desc is not None:
                descs.append((t, params, desc))
        window = range(-ORACLE_WINDOW, ORACLE_WINDOW + 1)
        positions = [(n, m) for n in window for m in window]
        cells = []
        while len(cells) < ORACLE_CELLS_PER_DESC * len(descs):
            rng.shuffle(positions)
            cells += positions
        items = []
        plain = []
        # each pass visits every descriptor once; the cells run on through the window
        for (t, params, desc), (n, m) in zip(descs * ORACLE_CELLS_PER_DESC, cells):
            items.append((params, desc, n, m))
            plain.append(
                [t, desc.f1.to_list(), desc.f2.to_list(), list(desc.shift), desc.axis_swapped,
                 _cocycle_terms(desc.eta.eta0), _cocycle_terms(desc.eta.eta1), n, m]
            )
        return items, plain

    @staticmethod
    def operate(lib, item, tracer):
        _, desc, n, m = item
        return lib.qbundle.CechOracle(desc).h(n, m)

    @staticmethod
    def check(lib, item, out):
        params, desc, n, m = item
        q = lib.qbundle
        h0, h1, h2 = out
        chi = q.chi_Q(desc, n, m)
        if h0 - h1 + h2 != chi:
            return f"oracle triple {out} does not sum to chi = {chi}"
        if chi == 0:
            region = q.REGION_BOUNDARY
        elif chi < 0:
            region = q.REGION_H1
        else:
            region = q.REGION_H0 if n + params.alpha > 0 else q.REGION_H2
        table = q.CohomologyTable((n, n, m, m), {(n, m): q.Cell(h0, h1, h2, chi, region)})
        report = q.check_natural(table, params)
        if report.ok:
            return None
        # The descriptor passed the genericity check but its bundle is not
        # natural here, so hunt's own table check would have refused it.
        # The oracle is still right if the pushforward route, which shares
        # no code with it, finds the same cohomology.
        n2, m2 = desc.normalized_twist(n, m)
        g0, g1 = lib.p1.h_split(q.pushforward_splitting(desc, n2), m2)
        expected = (g0, g1, 0) if n2 >= 0 else (0, g0, g1)
        if expected != out:
            return f"oracle {out} != pushforward route {expected} (cell not natural either)"
        return InputNote(f"generic-certified descriptor not natural at a cell: {report.violations[0]}")


# -- classify -------------------------------------------------------------------


class Classify:
    name = "classify"
    item_kind = "extension class"

    @staticmethod
    def make_inputs(lib, seed: int) -> tuple[list, object]:
        # Every block of 16 holds each (rank F1, rank F2) pair once, so the
        # mix of sizes is the same in every run; components and
        # coefficients are random.
        rng = random.Random(seed)
        shapes = [(s, r) for s in range(1, 5) for r in range(1, 5)]
        items = []
        while len(items) < CLASSIFY_POOL:
            rng.shuffle(shapes)
            for s, r in shapes:
                f1 = sorted((rng.randint(-6, 1) for _ in range(s)), reverse=True)
                f2 = sorted((rng.randint(-1, 6) for _ in range(r)), reverse=True)
                entries = []
                for a in f1:
                    for b in f2:
                        lo, hi = lib.ext1.entry_window(a, b)
                        entries.append(
                            [[x, rng.randint(-CLASSIFY_COEFF, CLASSIFY_COEFF)] for x in range(lo, hi + 1)]
                        )
                items.append((f1, f2, entries))
        return items, items

    @staticmethod
    def operate(lib, item, tracer):
        f1, f2, entries = item
        e = lib.ext1.ExtCocycle(
            lib.p1.SplittingType(f1),
            lib.p1.SplittingType(f2),
            [lib.exactalg.LaurentPoly("z", dict(terms)) for terms in entries],
            "z",
        )
        les = lib.ext1.splitting_of_extension(e)
        top = lib.ext1.is_hn_top(e)
        via_transition = lib.p1.splitting_from_transition(lib.ext1.assemble_transition(e))
        return les, top, via_transition

    @staticmethod
    def check(lib, item, out):
        les, top, via_transition = out
        if les != via_transition:
            return f"LES route {les} != transition route {via_transition}"
        if not isinstance(top, bool):
            return f"is_hn_top returned {top!r}"
        return None


WORKLOADS = {w.name: w for w in (HuntBattery, HuntGeneric, OracleRecheck, Classify)}
