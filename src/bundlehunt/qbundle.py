"""Constant bundles on the product of two projective lines.

A constant bundle is described by a fiber type F = O^r1 + O(-1)^r2 on the
fiber line (coordinate z), two bundles F1, F2 on the base line (coordinate
w), and extension data eta = eta0*z0 + eta1*z1 pairing the two coordinates of
the fiber against cocycles in Ext^1(F2, F1).  These pieces assemble into an
automorphism-valued transition matrix lambda(w); its action on the twist
cohomology of the fiber gives the transition matrices of the derived
pushforwards, from which every cohomology group of every twist is computed
exactly.  An independent Cech/Serre-duality oracle solves the section
problem directly on the four-chart cover and never touches the pushforward
machinery.

General Hilbert parameters are handled by an integer shift and an axis swap
stored on the descriptor; the fiber type itself is always normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import kernels
from .errors import (
    DimensionError,
    InvalidRequestError,
    OracleInconclusiveError,
)
from .exactalg import LaurentMatrix, LaurentPoly, integer_rows, rat_to_str
from .ext1 import (
    ExtCocycle,
    StaircasePair,
    entry_window,
    les_h0,
)
from .p1 import (
    SplittingType,
    h_split,
    natural_type,
    splitting_from_h0_profile,
    splitting_from_transition,
)


@dataclass(frozen=True)
class HilbertParams:
    """The rationals with chi(E(x,y))/rank = (x + alpha)(y + beta) - gamma."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.rank < 1:
            raise InvalidRequestError("rank must be at least 1")
        r = self.rank
        for label, value in (
            ("rank*alpha", r * self.alpha),
            ("rank*beta", r * self.beta),
            ("rank*(alpha*beta - gamma)", r * (self.alpha * self.beta - self.gamma)),
        ):
            if value.denominator != 1:
                raise InvalidRequestError(
                    f"{label} = {value} is not an integer; rank*p(x,y) must have integer coefficients"
                )

    def chi(self, x: int, y: int) -> Fraction:
        return self.rank * ((x + self.alpha) * (y + self.beta) - self.gamma)

    def as_dict(self) -> dict:
        return {
            "alpha": rat_to_str(self.alpha),
            "beta": rat_to_str(self.beta),
            "gamma": rat_to_str(self.gamma),
            "rank": self.rank,
        }


@dataclass(frozen=True)
class BigradedEta:
    """Extension data eta = eta0*z0 + eta1*z1; both cocycles share f1, f2."""

    eta0: ExtCocycle
    eta1: ExtCocycle

    def __post_init__(self):
        if self.eta0.f1 != self.eta1.f1 or self.eta0.f2 != self.eta1.f2:
            raise DimensionError("eta0 and eta1 live in different Ext groups")
        if self.eta0.variable != "w" or self.eta1.variable != "w":
            raise DimensionError("extension data must be written in the base variable w")

    @property
    def is_zero(self) -> bool:
        return self.eta0.is_zero and self.eta1.is_zero


@dataclass(frozen=True)
class ConstantBundleDesc:
    """A constant bundle E(F, F1, F2, eta) plus interface shift and axis swap.

    The fiber type is F = O^r1 + O(-1)^r2; f1 and f2 are the splitting types
    of the two pushforward bundles on the base.
    """

    r1: int
    r2: int
    f1: SplittingType
    f2: SplittingType
    eta: BigradedEta
    shift: tuple[int, int] = (0, 0)
    axis_swapped: bool = False

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0 or self.r1 + self.r2 < 2:
            raise InvalidRequestError("constant bundles need rank r1 + r2 >= 2")
        if self.f1.rank != self.r1 or self.f2.rank != self.r2:
            raise DimensionError("splitting types do not match the stated ranks")
        if self.eta.eta0.f1 != self.f1 or self.eta.eta0.f2 != self.f2:
            raise DimensionError("extension data does not match F1, F2")

    @property
    def rank(self) -> int:
        return self.r1 + self.r2

    @property
    def fiber_type(self) -> SplittingType:
        return SplittingType([0] * self.r1 + [-1] * self.r2)

    def normalized_twist(self, n: int, m: int) -> tuple[int, int]:
        """Map a twist in interface coordinates to the normalized frame."""
        if self.axis_swapped:
            n, m = m, n
        return (n + self.shift[0], m + self.shift[1])


@dataclass(frozen=True)
class FiberAutomorphism:
    """An Aut(F)-valued Laurent matrix in w: blocks [[l1, eta(z,w)], [0, l2]].

    The unipotent part is recorded through its pairing with the two fiber
    coordinates: eta(z,w) = eta0(w)*z0 + eta1(w)*z1.
    """

    r1: int
    r2: int
    l1: LaurentMatrix
    l2: LaurentMatrix
    eta0: LaurentMatrix
    eta1: LaurentMatrix

    def __post_init__(self):
        if (self.l1.rows, self.l1.cols) != (self.r1, self.r1):
            raise DimensionError("l1 block has the wrong shape")
        if (self.l2.rows, self.l2.cols) != (self.r2, self.r2):
            raise DimensionError("l2 block has the wrong shape")
        for blk in (self.eta0, self.eta1):
            if (blk.rows, blk.cols) != (self.r1, self.r2):
                raise DimensionError("eta block has the wrong shape")

    @classmethod
    def from_desc(cls, desc: ConstantBundleDesc) -> "FiberAutomorphism":
        l1 = LaurentMatrix.diag(
            "w", [LaurentPoly.monomial("w", -a) for a in desc.f1.components]
        )
        l2 = LaurentMatrix.diag(
            "w", [LaurentPoly.monomial("w", -b) for b in desc.f2.components]
        )
        eta0 = LaurentMatrix("w", desc.r1, desc.r2, desc.eta.eta0.entries())
        eta1 = LaurentMatrix("w", desc.r1, desc.r2, desc.eta.eta1.entries())
        return cls(desc.r1, desc.r2, l1, l2, eta0, eta1)

    def compose(self, other: "FiberAutomorphism") -> "FiberAutomorphism":
        """Group law: diagonal blocks multiply, eta parts twist accordingly."""
        if (self.r1, self.r2) != (other.r1, other.r2):
            raise DimensionError("automorphisms of different fiber types")
        return FiberAutomorphism(
            self.r1,
            self.r2,
            self.l1 * other.l1,
            self.l2 * other.l2,
            self.l1 * other.eta0 + self.eta0 * other.l2,
            self.l1 * other.eta1 + self.eta1 * other.l2,
        )

    def action_size(self, n: int) -> int:
        if n >= 0:
            return self.r1 * (n + 1) + self.r2 * n
        return self.r1 * (-n - 1) + self.r2 * (-n)

    def gamma_action(self, n: int) -> LaurentMatrix:
        """Matrix of lambda(w) on H^0(F(n)) (n >= 0) or H^1(F(n)) (n <= -1).

        Basis per summand: H^0 monomials ordered by descending z0-degree
        (index = z1-degree), H^1 classes z^1, z^2, ... in the affine chart.
        """
        r1, r2 = self.r1, self.r2
        if n >= 0:
            p, q = n + 1, n
            shift_eta1 = 1  # z1 raises the z1-degree index
        else:
            p, q = -n - 1, -n
            shift_eta1 = 0  # z1 fixes the class index, z0 lowers it
        size = r1 * p + r2 * q
        zero = LaurentPoly.zero("w")
        ent = [zero] * (size * size)
        for i in range(r1):
            for i2 in range(r1):
                v = self.l1.entry(i, i2)
                if not v.is_zero:
                    for t in range(p):
                        ent[(i * p + t) * size + (i2 * p + t)] = v
        off = r1 * p
        for u in range(r2):
            for u2 in range(r2):
                v = self.l2.entry(u, u2)
                if not v.is_zero:
                    for t in range(q):
                        ent[(off + u * q + t) * size + (off + u2 * q + t)] = v
        for i in range(r1):
            for u in range(r2):
                e0 = self.eta0.entry(i, u)
                e1 = self.eta1.entry(i, u)
                for k in range(q):
                    t0 = k + (0 if shift_eta1 else -1)
                    t1 = k + shift_eta1
                    if not e0.is_zero and 0 <= t0 < p:
                        ent[(i * p + t0) * size + (off + u * q + k)] = e0
                    if not e1.is_zero and 0 <= t1 < p:
                        ent[(i * p + t1) * size + (off + u * q + k)] = e1
        return LaurentMatrix("w", size, size, ent)


def assemble_lambda(desc: ConstantBundleDesc) -> FiberAutomorphism:
    """The normalized transition representative lambda(w) of the descriptor."""
    return FiberAutomorphism.from_desc(desc)


def gamma_action(desc: ConstantBundleDesc, n: int) -> LaurentMatrix:
    """Action of lambda(w) on the twist cohomology of the fiber type."""
    return FiberAutomorphism.from_desc(desc).gamma_action(n)


def pushforward_splitting(desc: ConstantBundleDesc, n: int) -> SplittingType:
    """Splitting type of q_*E(n,0) (n >= 0) or R^1q_*E(n,0) (n <= -1).

    Computed through the transition matrix route: the other derived
    pushforward vanishes.
    """
    return splitting_from_transition(gamma_action(desc, n))


def pushforward_cocycle(desc: ConstantBundleDesc, n: int) -> ExtCocycle:
    """The class of Rq_*E(n,0) in Ext^1(F2^|n|, F1^|n+1|).

    Extracted from the upper-right block of the gamma action and reduced
    entrywise to the normal-form support windows, so the banded offsets are
    never hand-fixed.
    """
    g = gamma_action(desc, n)
    p, q = abs(n + 1), abs(n)
    f1n = desc.f1.repeat(p)
    f2n = desc.f2.repeat(q)
    s = f1n.rank
    entries = []
    for i, a in enumerate(f1n.components):
        for j, b in enumerate(f2n.components):
            lo, hi = entry_window(a, b)
            entries.append(g.entry(i, s + j).truncate_window(lo, hi))
    return ExtCocycle(f1n, f2n, entries, variable="w")


def chi_fiber(desc: ConstantBundleDesc) -> int:
    """chi of the fiber type O^r1 + O(-1)^r2."""
    return desc.r1


def chi_Q(desc: ConstantBundleDesc, x: int, y: int) -> int:
    """Exact chi(E(x,y)) in interface coordinates.

    In the normalized frame chi = r*x*y + chi(F1+F2)*x + chi(F)*y + chi(F1);
    the stored shift and axis swap are applied first.
    """
    u, v = desc.normalized_twist(x, y)
    r = desc.rank
    chi1 = desc.f1.chi
    chi12 = chi1 + desc.f2.chi
    return r * u * v + chi12 * u + chi_fiber(desc) * v + chi1


def hilbert_params(desc: ConstantBundleDesc) -> HilbertParams:
    """Recover (alpha, beta, gamma, rank) of the interface bundle."""
    r = desc.rank
    alpha = Fraction(chi_fiber(desc), r) + desc.shift[0]
    beta = Fraction(desc.f1.chi + desc.f2.chi, r) + desc.shift[1]
    gamma = Fraction(
        desc.f2.degree * desc.r1 - desc.f1.degree * desc.r2, r * r
    )
    if desc.axis_swapped:
        alpha, beta = beta, alpha
    return HilbertParams(alpha, beta, gamma, r)


REGION_H0 = "H0R"
REGION_H1 = "H1R"
REGION_H2 = "H2R"
REGION_BOUNDARY = "boundary"


@dataclass(frozen=True)
class Cell:
    h0: int
    h1: int
    h2: int
    chi: int
    region: str

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)


@dataclass(frozen=True, eq=True)
class CohomologyTable:
    window: tuple[int, int, int, int]
    cells: dict

    def cell(self, n: int, m: int) -> Cell:
        return self.cells[(n, m)]

    def iter_cells(self) -> Iterator[tuple[int, int, Cell]]:
        n_lo, n_hi, m_lo, m_hi = self.window
        for n in range(n_lo, n_hi + 1):
            for m in range(m_lo, m_hi + 1):
                yield n, m, self.cells[(n, m)]


def _region_label(params: HilbertParams, n: int, m: int, chi: int) -> str:
    if chi == 0:
        return REGION_BOUNDARY
    if chi < 0:
        return REGION_H1
    return REGION_H0 if n + params.alpha > 0 else REGION_H2


class _DescComputation:
    """Shared per-descriptor caches for table and verification work."""

    def __init__(self, desc: ConstantBundleDesc):
        self.desc = desc
        self.params = hilbert_params(desc)
        self._columns: dict[int, SplittingType] = {}
        # one staircase per descriptor, so its cached chains serve every column
        self._staircase = StaircasePair(desc.eta.eta0, desc.eta.eta1)

    def column_type(self, n: int) -> SplittingType:
        """Splitting type of the derived pushforward in normalized column n."""
        g = self._columns.get(n)
        if g is None:
            g = self._compute_column(n)
            self._columns[n] = g
        return g

    def _compute_column(self, n: int) -> SplittingType:
        desc = self.desc
        if n == 0:
            return desc.f1
        if n == -1:
            return desc.f2
        f1n = desc.f1.repeat(abs(n + 1))
        f2n = desc.f2.repeat(abs(n))
        rank_col = f1n.rank + f2n.rank
        deg_col = f1n.degree + f2n.degree
        h0 = les_h0(f1n, f2n, lambda m: self._staircase.rank(n, m))
        candidate = self._pin_natural(h0, rank_col, deg_col)
        if candidate is not None:
            return candidate
        top = max(f1n.components + f2n.components)
        return splitting_from_h0_profile(h0, rank_col, deg_col, top_bound=top)

    @staticmethod
    def _pin_natural(h0, rank_col: int, deg_col: int) -> Optional[SplittingType]:
        """Confirm the natural candidate type from two profile values.

        With q, rem = divmod(deg, rank): h^0(G(-q-2)) = 0 forces every
        component <= q+1, and h^0(G(-q-1)) = rem counts the (q+1)-components;
        the remaining r - rem components are <= q yet sum to (r - rem)q, so
        they all equal q.  Any mismatch returns None and the caller falls
        back to the full profile peel.
        """
        if rank_col == 0:
            return SplittingType(())
        q, rem = divmod(deg_col, rank_col)
        if h0(-q - 2) != 0:
            return None
        if h0(-q - 1) != rem:
            return None
        return natural_type(rank_col, deg_col)

    def cell(self, n: int, m: int) -> Cell:
        """Cohomology of E(n,m): Leray collapse onto the pushforward column."""
        n2, m2 = self.desc.normalized_twist(n, m)
        g0, g1 = h_split(self.column_type(n2), m2)
        trip = (g0, g1, 0) if n2 >= 0 else (0, g0, g1)
        chi = chi_Q(self.desc, n, m)
        return Cell(*trip, chi=chi, region=_region_label(self.params, n, m, chi))


def cohomology_table(
    desc: ConstantBundleDesc, window: tuple[int, int, int, int]
) -> CohomologyTable:
    """Exact (h^0, h^1, h^2, chi, region) on a finite window of twists."""
    n_lo, n_hi, m_lo, m_hi = window
    comp = _DescComputation(desc)
    cells = {}
    for n in range(n_lo, n_hi + 1):
        for m in range(m_lo, m_hi + 1):
            cells[(n, m)] = comp.cell(n, m)
    return CohomologyTable(window, cells)


def square_window(w: int) -> tuple[int, int, int, int]:
    """The window [-w, w]^2; a negative half-width is refused, not read as empty."""
    if w < 0:
        raise InvalidRequestError(f"window half-width {w} must be nonnegative")
    return (-w, w, -w, w)


@dataclass(frozen=True)
class NaturalReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def check_natural(table: CohomologyTable, params: HilbertParams) -> NaturalReport:
    """Verify natural cohomology cell by cell.

    A cell passes when at most one h^i is nonzero, the nonzero index matches
    the region label, the value equals |chi| there, and chi agrees with
    rank * p(n, m) exactly.  Boundary cells (chi = 0) must vanish entirely.
    """
    violations = []
    index_of = {REGION_H0: 0, REGION_H1: 1, REGION_H2: 2}
    for n, m, cell in table.iter_cells():
        expected_chi = params.chi(n, m)
        if expected_chi != cell.chi:
            violations.append((n, m, f"chi {cell.chi} != rank*p = {expected_chi}"))
            continue
        trip = cell.triple
        nonzero = [i for i, h in enumerate(trip) if h]
        if cell.region == REGION_BOUNDARY:
            if nonzero:
                violations.append((n, m, f"boundary cell with cohomology {trip}"))
            continue
        if len(nonzero) > 1:
            violations.append((n, m, f"cohomology in two degrees {trip}"))
            continue
        want = index_of[cell.region]
        if not nonzero:
            violations.append((n, m, f"all cohomology vanishes but chi = {cell.chi}"))
            continue
        if nonzero[0] != want:
            violations.append(
                (n, m, f"cohomology in degree {nonzero[0]}, region says {want}")
            )
            continue
        if trip[want] != abs(cell.chi):
            violations.append((n, m, f"h^{want} = {trip[want]} != |chi| = {abs(cell.chi)}"))
    return NaturalReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Independent Cech / Serre duality oracle
# ---------------------------------------------------------------------------


class CechOracle:
    """Direct bigraded section solving on the four-chart cover.

    h^0 is the dimension of polynomial solutions of the two gluing
    constraints; h^2 comes from the dual bundle (inverse-transpose
    transitions) by Serre duality, and h^1 closes the Euler characteristic.
    The pushforward machinery is never consulted.

    Each side is solved once, at degree caps that hold every section:

    * z: the z-transitions are diagonal, so component j of a section of the
      twist by n has z-degree <= n - zexp_j; the slice basis is exact.
    * w: a section has s+ = w^m * A^-1 * s- with s- free of positive
      w-exponents, and A^-1 is the transpose of the other side's grid, so
      the w-degree is <= m + (largest w-exponent of the other side's grid).

    A negative cap means h^0 = 0 with no elimination.
    """

    def __init__(self, desc: ConstantBundleDesc):
        self.desc = desc
        r1, r2 = desc.r1, desc.r2
        self.size = r1 + r2
        # z-direction transitions: O corresponds to 1, O(-1) to z
        self._z_primal = [0] * r1 + [1] * r2
        self._z_dual = [0] * r1 + [-1] * r2
        self._w_primal = self._primal_w()
        self._w_dual = self._dual_w()
        # largest w-exponent of each side's inverse transition A^-1
        self._w_inverse_top = {
            "primal": _max_w_exp(self._w_dual),
            "dual": _max_w_exp(self._w_primal),
        }

    # -- transition data -----------------------------------------------------

    def _primal_w(self):
        """alpha_plus as a grid of bivariate term maps {(e_z, e_w): coeff}."""
        desc = self.desc
        r1, r2, n = desc.r1, desc.r2, self.size
        grid = [[{} for _ in range(n)] for _ in range(n)]
        for i, a in enumerate(desc.f1.components):
            grid[i][i] = {(0, -a): Fraction(1)}
        for u, b in enumerate(desc.f2.components):
            grid[r1 + u][r1 + u] = {(0, -b): Fraction(1)}
        for i in range(r1):
            for u in range(r2):
                cell = grid[i][r1 + u]
                for ew, c in desc.eta.eta0.entry(i, u).terms():
                    cell[(0, ew)] = cell.get((0, ew), Fraction(0)) + c
                for ew, c in desc.eta.eta1.entry(i, u).terms():
                    cell[(1, ew)] = cell.get((1, ew), Fraction(0)) + c
        return grid

    def _dual_w(self):
        """Inverse transpose of alpha_plus, written in closed form."""
        desc = self.desc
        r1, r2, n = desc.r1, desc.r2, self.size
        grid = [[{} for _ in range(n)] for _ in range(n)]
        for i, a in enumerate(desc.f1.components):
            grid[i][i] = {(0, a): Fraction(1)}
        for u, b in enumerate(desc.f2.components):
            grid[r1 + u][r1 + u] = {(0, b): Fraction(1)}
        for i, a in enumerate(desc.f1.components):
            for u, b in enumerate(desc.f2.components):
                cell = grid[r1 + u][i]
                for ew, c in desc.eta.eta0.entry(i, u).terms():
                    key = (0, ew + a + b)
                    cell[key] = cell.get(key, Fraction(0)) - c
                for ew, c in desc.eta.eta1.entry(i, u).terms():
                    key = (1, ew + a + b)
                    cell[key] = cell.get(key, Fraction(0)) - c
        return grid

    # -- sections of one side --------------------------------------------------

    def _side_h0(self, side: str, n_tw: int, m_tw: int) -> int:
        """h^0 of one side's bundle twisted by (n_tw, m_tw): one elimination."""
        zexps = self._z_primal if side == "primal" else self._z_dual
        dz = n_tw - min(zexps)
        dw = m_tw + self._w_inverse_top[side]
        if dz < 0 or dw < 0:
            return 0
        # z-slice basis: monomial z^k in component j, k <= n_tw - zexp_j
        basis = [
            (j, k) for k in range(dz + 1) for j in range(self.size) if k <= n_tw - zexps[j]
        ]
        nb = len(basis)
        grid = self._w_primal if side == "primal" else self._w_dual
        rows: dict = {}
        for beta, (j, k) in enumerate(basis):
            for rho in range(self.size):
                cell = grid[rho][j]
                if not cell:
                    continue
                for (ez, ew), c in cell.items():
                    fprime_base = ew - m_tw
                    e = ez + k
                    for f in range(dw + 1):
                        fp = fprime_base + f
                        if fp >= 1:
                            rows.setdefault((rho, e, fp), {})[f * nb + beta] = c
        ncols = nb * (dw + 1)
        return ncols - kernels.rank_rows(integer_rows(rows.values()), ncols)

    def h(self, n: int, m: int) -> tuple[int, int, int]:
        """(h^0, h^1, h^2) of E(n, m), computed independently of Leray."""
        n2, m2 = self.desc.normalized_twist(n, m)
        h0 = self._side_h0("primal", n2, m2)
        h2 = self._side_h0("dual", -n2 - 2, -m2 - 2)
        chi = chi_Q(self.desc, n, m)
        h1 = h0 + h2 - chi
        if h1 < 0:
            raise OracleInconclusiveError(
                f"negative h^1 = {h1} at ({n},{m}); the section solve undercounted"
            )
        return (h0, h1, h2)


def _max_w_exp(grid) -> int:
    """Largest w-exponent among the terms of a transition grid."""
    return max(ew for row in grid for cell in row for _, ew in cell)


def cech_oracle_h(desc: ConstantBundleDesc, n: int, m: int) -> tuple[int, int, int]:
    """One-shot oracle evaluation; see CechOracle for window-sized work."""
    return CechOracle(desc).h(n, m)
