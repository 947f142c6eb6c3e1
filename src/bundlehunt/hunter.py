"""The constructive pipeline: from Hilbert parameters to a verified bundle.

Normalize (alpha, beta, gamma, rank) by an axis swap and an integer shift so
that alpha lands in (0,1); solve the linear system for (r1, r2, d1, d2);
build the fiber type and the two natural pushforward bundles; sample integer
extension data until the pushforward connecting maps at n = 1 and n = -2
have maximal rank on every relevant twist and the cohomology table is
natural on the verified window; then emit a certificate.  The maximal ranks
at n = 1 and n = -2 are a screen, not a proof of naturality: some samples
pass them yet fail the table, and those are resampled too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    GenericityExhaustedError,
    InvalidRequestError,
    UnsupportedCaseError,
    VerificationFailedError,
)
from .exactalg import LaurentPoly
from .ext1 import ExtCocycle, connecting_rank_profile, entry_window
from .p1 import SplittingType, natural_type
from .qbundle import (
    BigradedEta,
    CechOracle,
    ConstantBundleDesc,
    CohomologyTable,
    HilbertParams,
    check_natural,
    cohomology_table,
    hilbert_params,
    pushforward_cocycle,
    square_window,
)


@dataclass(frozen=True)
class HuntRequest:
    params: HilbertParams
    seed: int = 0
    coeff_bound: int = 10
    max_resamples: int = 20
    verify_window: int = 6

    def validate(self) -> None:
        p = self.params
        if p.gamma <= 0:
            raise InvalidRequestError(f"gamma = {p.gamma} must be positive")
        if p.rank < 2:
            raise InvalidRequestError("rank 1 is excluded: no line bundle fits chi = xy - gamma")
        if p.alpha.denominator == 1 and p.beta.denominator == 1:
            raise UnsupportedCaseError(
                "alpha and beta both integral is the open case; not constructed here"
            )
        if self.coeff_bound < 0 or self.max_resamples < 0 or self.verify_window < 0:
            raise InvalidRequestError("negative sampling or window parameters")


@dataclass(frozen=True)
class TwistRankRecord:
    m: int
    rank: int
    rows: int
    cols: int

    @property
    def maximal(self) -> bool:
        return self.rank == min(self.rows, self.cols)


@dataclass(frozen=True)
class GenericityReport:
    """Per-twist connecting-map ranks for the two certifying pushforwards."""

    plus: tuple[TwistRankRecord, ...]   # c_eta(1, m)
    minus: tuple[TwistRankRecord, ...]  # c_eta(-2, m)

    @property
    def ok(self) -> bool:
        return all(r.maximal for r in self.plus + self.minus)

    def defects(self) -> list[tuple[int, int]]:
        out = [(1, r.m) for r in self.plus if not r.maximal]
        out += [(-2, r.m) for r in self.minus if not r.maximal]
        return out


@dataclass(frozen=True)
class TableDigest:
    window: int
    cells: int
    natural: bool
    region_counts: dict


@dataclass(frozen=True)
class Certificate:
    params: HilbertParams
    desc: ConstantBundleDesc
    genericity: GenericityReport
    table_digest: TableDigest
    seed: int
    resamples: int
    verified_window: int


def normalize_params(p: HilbertParams) -> tuple[bool, int, Fraction, Fraction, Fraction]:
    """(swapped, shift, alpha', beta, gamma) with alpha' in (0, 1).

    Swaps the axes when alpha is integral (beta then is not); beta itself is
    never normalized.
    """
    if p.gamma <= 0:
        raise InvalidRequestError(f"gamma = {p.gamma} must be positive")
    alpha, beta = p.alpha, p.beta
    swapped = False
    if alpha.denominator == 1:
        if beta.denominator == 1:
            raise UnsupportedCaseError(
                "alpha and beta both integral is the open case; not constructed here"
            )
        alpha, beta = beta, alpha
        swapped = True
    shift = alpha.numerator // alpha.denominator  # floor for exact rationals
    return (swapped, shift, alpha - shift, beta, p.gamma)


def solve_degrees(
    alpha: Fraction, beta: Fraction, gamma: Fraction, r: int
) -> tuple[int, int, int, int]:
    """Unique (r1, r2, d1, d2) with the prescribed Hilbert polynomial.

    r1 = r*alpha, r2 = r - r1, d1 = r1*beta - r*gamma - r1,
    d2 = r2*beta + r*gamma - r2; then d2*r1 - d1*r2 = r^2*gamma > 0.
    """
    if not (0 < alpha < 1):
        raise InvalidRequestError("alpha must lie strictly between 0 and 1")
    r1f = r * alpha
    d1f = r1f * beta - r * gamma - r1f
    if r1f.denominator != 1 or d1f.denominator != 1:
        raise InvalidRequestError(
            "rank*alpha and the degree solution must be integers; integrality violated"
        )
    r1 = int(r1f)
    r2 = r - r1
    d2f = r2 * beta + r * gamma - r2
    if d2f.denominator != 1:
        raise InvalidRequestError("degree solution d2 is not an integer")
    d1 = int(d1f)
    d2 = int(d2f)
    if d2 * r1 - d1 * r2 != r * r * gamma:
        raise InvalidRequestError("degree solution does not reproduce gamma")
    return (r1, r2, d1, d2)


def build_bundles(
    r1: int, r2: int, d1: int, d2: int
) -> tuple[SplittingType, SplittingType, SplittingType]:
    """(F, F1, F2): normalized fiber type and natural-cohomology pushforwards."""
    if r1 < 1 and r2 < 1:
        raise InvalidRequestError("need at least one positive rank")
    fiber = SplittingType([0] * r1 + [-1] * r2)
    return (fiber, natural_type(r1, d1), natural_type(r2, d2))


def sample_eta(
    f1: SplittingType, f2: SplittingType, bound: int, rng: random.Random
) -> BigradedEta:
    """Uniform integer coefficients in [-bound, bound] on every support window.

    Deterministic given the generator state: entries are filled row-major,
    exponents ascending, eta0 before eta1.
    """
    def one() -> ExtCocycle:
        entries = []
        for a in f1.components:
            for b in f2.components:
                lo, hi = entry_window(a, b)
                terms = {e: rng.randint(-bound, bound) for e in range(lo, hi + 1)}
                entries.append(LaurentPoly("w", terms))
        return ExtCocycle(f1, f2, entries, variable="w")

    eta0 = one()
    eta1 = one()
    return BigradedEta(eta0, eta1)


def _rank_records(e: ExtCocycle) -> tuple[TwistRankRecord, ...]:
    return tuple(
        TwistRankRecord(m, rk, rows, cols) for m, rk, rows, cols in connecting_rank_profile(e)
    )


def genericity_check(desc: ConstantBundleDesc) -> GenericityReport:
    """Exact ranks of c_eta(1, m) and c_eta(-2, m) on every relevant twist m.

    The report is ok when all of them are maximal.  That is what it checks
    and all it proves: it does not certify the maps for other n.  A
    descriptor can pass it and still fail to be natural (tests/test_hunter.py
    pins one), so hunt proves naturality on its window with the cohomology
    table.
    """
    return GenericityReport(
        plus=_rank_records(pushforward_cocycle(desc, 1)),
        minus=_rank_records(pushforward_cocycle(desc, -2)),
    )


def _digest(table: CohomologyTable, natural: bool, window: int) -> TableDigest:
    counts: dict[str, int] = {}
    for _, _, cell in table.iter_cells():
        counts[cell.region] = counts.get(cell.region, 0) + 1
    return TableDigest(window=window, cells=len(table.cells), natural=natural, region_counts=counts)


def hunt(req: HuntRequest) -> Certificate:
    """Run the full pipeline and return a verified certificate.

    A sample is accepted when its genericity report is ok and its cohomology
    table is natural on the verify window; otherwise the next one is drawn.
    Raises UnsupportedCaseError (both parameters integral),
    InvalidRequestError (bad gamma, rank, integrality),
    GenericityExhaustedError (resample budget exceeded), or
    VerificationFailedError (internal inconsistency; never expected).
    """
    req.validate()
    swapped, shift, alpha, beta, gamma = normalize_params(req.params)
    r = req.params.rank
    r1, r2, d1, d2 = solve_degrees(alpha, beta, gamma, r)
    _, f1, f2 = build_bundles(r1, r2, d1, d2)
    rng = random.Random(req.seed)
    w = req.verify_window
    for attempt in range(req.max_resamples + 1):
        eta = sample_eta(f1, f2, req.coeff_bound, rng)
        desc = ConstantBundleDesc(r1, r2, f1, f2, eta, shift=(shift, 0), axis_swapped=swapped)
        report = genericity_check(desc)
        if not report.ok:
            failure = f"rank defects at {report.defects()}"
            continue
        recovered = hilbert_params(desc)
        if recovered != req.params:
            raise VerificationFailedError(
                f"recovered parameters {recovered} differ from the request {req.params}"
            )
        table = cohomology_table(desc, square_window(w))
        nat = check_natural(table, req.params)
        if not nat.ok:
            failure = f"table violations at {nat.violations[:5]}"
            continue
        return Certificate(
            params=req.params,
            desc=desc,
            genericity=report,
            table_digest=_digest(table, nat.ok, w),
            seed=req.seed,
            resamples=attempt,
            verified_window=w,
        )
    raise GenericityExhaustedError(
        f"no generic extension datum within {req.max_resamples} resamples; "
        f"last {failure}",
        report=report,
    )


@dataclass(frozen=True)
class VerifyFailure:
    stage: str
    location: tuple
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failures: tuple[VerifyFailure, ...]
    window: int
    oracle_used: bool


def verify_certificate(
    cert: Certificate, window: Optional[int] = None, use_oracle: bool = False
) -> VerifyReport:
    """Recompute everything a certificate claims and report mismatches.

    Checks, in order: parameter recovery, genericity ranks, natural
    cohomology with chi = rank * p at every cell of the window, and (when
    requested) cell-by-cell agreement with the Cech oracle.
    """
    failures: list[VerifyFailure] = []
    desc = cert.desc
    w = cert.verified_window if window is None else window
    recovered = hilbert_params(desc)
    if recovered != cert.params:
        failures.append(
            VerifyFailure("params", (), f"recovered {recovered} != stated {cert.params}")
        )
    report = genericity_check(desc)
    for n, m in report.defects():
        failures.append(
            VerifyFailure("genericity", (n, m), f"connecting map c({n},{m}) is rank deficient")
        )
    table = cohomology_table(desc, square_window(w))
    nat = check_natural(table, cert.params)
    for n, m, reason in nat.violations:
        failures.append(VerifyFailure("natural", (n, m), reason))
    if use_oracle:
        oracle = CechOracle(desc)
        for n, m, cell in table.iter_cells():
            got = oracle.h(n, m)
            if got != cell.triple:
                failures.append(
                    VerifyFailure("oracle", (n, m), f"oracle {got} != table {cell.triple}")
                )
    return VerifyReport(
        ok=not failures, failures=tuple(failures), window=w, oracle_used=use_oracle
    )
