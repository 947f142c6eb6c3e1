"""Vector bundles on the projective line.

Splitting types, cohomology of twists, and two routes back to the splitting
type: from an h^0 profile (greedy peel of the top summand) and from an
explicit Laurent transition matrix (section solving at a proven truncation
degree plus the determinant order for the degree).

Chart convention, fixed here once and inherited everywhere: U+ carries
polynomials in z, U- polynomials in 1/z, a section is a pair (s-, s+) with
s- = gamma * s+, and O(n) has transition z**(-n).  The canonical basis of
H^1(O(n)) is the monomials z^1, ..., z^(-n-1).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from . import kernels
from .errors import DimensionError, NotABundleError, ProfileError
from .exactalg import LaurentMatrix, det_unit_order, integer_rows


class SplittingType:
    """Multiset of integers n1 >= n2 >= ... encoding O(n1) + O(n2) + ...

    The universal answer format for bundles on the line: rank is the length,
    degree the sum.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[int] = ()):
        comps = tuple(sorted((int(n) for n in components), reverse=True))
        self.components = comps

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def degree(self) -> int:
        return sum(self.components)

    @property
    def chi(self) -> int:
        """Euler characteristic: sum of (n_i + 1)."""
        return self.degree + self.rank

    def dual(self) -> "SplittingType":
        return SplittingType(-n for n in self.components)

    def twist(self, m: int) -> "SplittingType":
        return SplittingType(n + m for n in self.components)

    def merge(self, other: "SplittingType") -> "SplittingType":
        return SplittingType(self.components + other.components)

    def repeat(self, k: int) -> "SplittingType":
        """k copies of every summand (still sorted non-increasing)."""
        out = []
        for n in self.components:
            out.extend([n] * k)
        return SplittingType(out)

    def h(self, m: int = 0) -> tuple[int, int]:
        return h_split(self, m)

    def to_list(self) -> list[int]:
        return list(self.components)

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)

    def __eq__(self, other):
        if isinstance(other, SplittingType):
            return self.components == other.components
        if isinstance(other, (list, tuple)):
            return self.components == SplittingType(other).components
        return NotImplemented

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"SplittingType({list(self.components)})"


def h_line(n: int) -> tuple[int, int]:
    """(h^0, h^1) of O(n) on the line; h0 - h1 = n + 1."""
    return (max(n + 1, 0), max(-n - 1, 0))


def h_split(s: SplittingType, m: int) -> tuple[int, int]:
    """(h^0, h^1) of the twist by O(m), summed over summands."""
    h0 = 0
    h1 = 0
    for n in s.components:
        a, b = h_line(n + m)
        h0 += a
        h1 += b
    return (h0, h1)


def natural_type(r: int, d: int) -> SplittingType:
    """The unique natural-cohomology splitting type of rank r and degree d.

    Components take the two adjacent values q+1 and q where d = r*q + rem,
    0 <= rem < r.
    """
    if r == 0:
        if d != 0:
            raise ValueError("rank 0 with nonzero degree")
        return SplittingType(())
    if r < 0:
        raise ValueError("negative rank")
    q, rem = divmod(d, r)
    return SplittingType([q + 1] * rem + [q] * (r - rem))


class H0Profile:
    """Memoized evaluator m -> h^0 of the twist by O(m), defined on all integers."""

    __slots__ = ("_eval", "_memo")

    def __init__(self, evaluator: Callable[[int], int]):
        self._eval = evaluator
        self._memo: dict[int, int] = {}

    def __call__(self, m: int) -> int:
        v = self._memo.get(m)
        if v is None:
            v = self._eval(m)
            self._memo[m] = v
        return v

    @classmethod
    def of_type(cls, s: SplittingType) -> "H0Profile":
        return cls(lambda m: h_split(s, m)[0])


def _first_positive(f: Callable[[int], int], lo: int, hi: int) -> int:
    """Smallest m in (lo, hi] with f(m) > 0, assuming f(lo) == 0 < f(hi)."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def splitting_from_h0_profile(
    profile: Callable[[int], int],
    rank: int,
    degree: int,
    *,
    top_bound: Optional[int] = None,
) -> SplittingType:
    """Recover the splitting type from its h^0 profile by greedy peeling.

    The top component is max{-m : profile(m) != 0} with multiplicity
    profile(-n_top); its contribution is subtracted and the peel recurses
    until the rank is exhausted.  Inconsistent profiles (negative residual,
    multiplicity overflow, degree mismatch) raise ProfileError.
    """
    if rank < 0:
        raise ProfileError("negative rank")
    prof = profile if isinstance(profile, H0Profile) else H0Profile(profile)
    peeled: list[tuple[int, int]] = []  # (component, multiplicity)

    def resid(m: int) -> int:
        v = prof(m)
        for comp, mult in peeled:
            v -= mult * max(comp + m + 1, 0)
        if v < 0:
            raise ProfileError(f"negative residual {v} at twist {m}")
        return v

    hi = abs(degree) + rank + 2
    if rank == 0:
        if degree != 0:
            raise ProfileError("rank 0 with nonzero degree")
        if prof(hi) != 0 or prof(0) != 0:
            raise ProfileError("nonzero profile for the rank 0 bundle")
        return SplittingType(())

    remaining = rank
    if top_bound is not None:
        lo = -top_bound - 1
        if resid(lo) != 0:
            raise ProfileError("profile nonzero below the stated top bound")
    else:
        # exponential descent to a vanishing point of the residual
        lo = hi
        step = 1
        for _ in range(70):
            lo -= step
            step *= 2
            if resid(lo) == 0:
                break
        else:
            raise ProfileError("no vanishing point found; profile never vanishes")

    # every component is at most top = -lo - 1, hence at least
    # degree - (rank - 1) * top, so an honest residual is positive from
    # twist (rank - 1) * top - degree on
    sure = max((rank - 1) * (-lo - 1) - degree, lo + 1)
    while remaining > 0:
        # the degree-based guess usually suffices; components can sit below it
        if hi <= lo or resid(hi) == 0:
            hi = max(sure, lo + 1)
            if resid(hi) == 0:
                raise ProfileError("profile vanishes where remaining rank forces sections")
        m_first = _first_positive(resid, lo, hi)
        n_top = -m_first
        mult = resid(m_first)
        if mult > remaining:
            raise ProfileError(
                f"multiplicity {mult} at component {n_top} exceeds remaining rank {remaining}"
            )
        peeled.append((n_top, mult))
        remaining -= mult
        lo = m_first  # residual now vanishes at m_first again

    comps = []
    for comp, mult in peeled:
        comps.extend([comp] * mult)
    result = SplittingType(comps)
    if result.degree != degree:
        raise ProfileError(
            f"recovered degree {result.degree} does not match the stated degree {degree}"
        )
    if resid(max(hi, lo + 1)) != 0:
        raise ProfileError("profile exceeds the recovered splitting type at large twist")
    return result


def _section_degree_bound(gamma: LaurentMatrix, k: int) -> int:
    """M with deg s+ <= m + M for every section of the twist by O(m).

    A section has s+ = z^m * gamma^-1 * s- with s- free of positive exponents,
    and gamma^-1 = adj(gamma) / (c * z^k) for det(gamma) = c * z^k.  The
    cofactor omitting row i has exponents at most the sum of the other rows'
    largest exponents.  So h^0 vanishes below twist -M: M bounds the top
    splitting component.
    """
    rowmax = [
        max(e.max_exp() for e in gamma.row(i) if not e.is_zero) for i in range(gamma.rows)
    ]
    return sum(rowmax) - min(rowmax) - k


def _h0_sections(gamma: LaurentMatrix, m: int, bound: int) -> int:
    """Dimension of {s+ in Q[z]^r : gamma * z^-m * s+ has exponents <= 0}.

    Every section has degree <= m + bound (see _section_degree_bound), so one
    elimination at that truncation degree is exact.
    """
    deg_cap = m + bound
    if deg_cap < 0:
        return 0
    r = gamma.rows
    ncols = r * (deg_cap + 1)
    rows: dict[tuple[int, int], dict[int, object]] = {}
    for i in range(r):
        for j in range(r):
            entry = gamma.entry(i, j)
            if entry.is_zero:
                continue
            for e0, c in entry.terms():
                base = e0 - m
                for k in range(deg_cap + 1):
                    e = base + k
                    if e >= 1:
                        rows.setdefault((i, e), {})[k * r + j] = c
    return ncols - kernels.rank_rows(integer_rows(rows.values()), ncols)


def _unit_order(gamma: LaurentMatrix) -> int:
    """k with det(gamma) = c * z^k; raises when the determinant is not a unit."""
    if gamma.rows != gamma.cols:
        raise DimensionError("transition matrix must be square")
    unit = det_unit_order(gamma)
    if unit is None:
        raise NotABundleError("determinant is not a unit of the Laurent ring")
    return unit[0]


def h0_from_transition(gamma: LaurentMatrix, m: int) -> int:
    """h^0 of the twist by O(m) of the bundle glued by gamma."""
    k = _unit_order(gamma)
    if gamma.rows == 0:
        return 0
    return _h0_sections(gamma, m, _section_degree_bound(gamma, k))


def splitting_from_transition(gamma: LaurentMatrix) -> SplittingType:
    """Splitting type of the bundle glued by gamma.

    Rank is the matrix size, degree is minus the determinant order, and the
    components come from peeling the h^0 profile, whose top component is at
    most the proven section degree bound.
    """
    k = _unit_order(gamma)
    if gamma.rows == 0:
        return SplittingType(())
    bound = _section_degree_bound(gamma, k)
    profile = H0Profile(lambda m: _h0_sections(gamma, m, bound))
    return splitting_from_h0_profile(profile, gamma.rows, -k, top_bound=bound)
