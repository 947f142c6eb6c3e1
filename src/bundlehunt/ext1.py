"""Extension classes of split bundles on the line as Cech cocycle matrices.

An element of Ext^1(F2, F1) with F1 = + O(a_i) (rank s) and F2 = + O(b_j)
(rank r) is stored as an s x r matrix of one-variable Laurent polynomials in
normal form: entry (i, j) is a representative of H^1(O(a_i - b_j)) supported
on exponents 1 - b_j ... -a_i - 1 (row and column operations over the chart
rings kill everything else).  The connecting maps of the long exact sequence
are explicit rational matrices, and their ranks determine all cohomology of
the extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd
from typing import Callable, Iterable

from . import kernels
from .errors import DimensionError, InvalidCocycleError
from .exactalg import LaurentMatrix, LaurentPoly, RatMatrix, clear_denominators
from .p1 import H0Profile, SplittingType, h_split, splitting_from_h0_profile


def entry_window(a_i: int, b_j: int) -> tuple[int, int]:
    """Support window [lo, hi] for the cocycle entry pairing O(b_j) with O(a_i).

    Empty (lo > hi) exactly when b_j - a_i <= 1, i.e. when that Ext block
    vanishes.
    """
    return (1 - b_j, -a_i - 1)


class ExtCocycle:
    """Matrix of Cech H^1 classes representing a point of Ext^1(F2, F1)."""

    __slots__ = ("f1", "f2", "variable", "_entries", "_int_terms", "_ranks")

    def __init__(
        self,
        f1: SplittingType,
        f2: SplittingType,
        entries: Iterable,
        variable: str = "z",
    ):
        f1 = f1 if isinstance(f1, SplittingType) else SplittingType(f1)
        f2 = f2 if isinstance(f2, SplittingType) else SplittingType(f2)
        flat = []
        for x in entries:
            if isinstance(x, LaurentPoly):
                flat.append(x)
            elif isinstance(x, (int, Fraction)):
                flat.append(LaurentPoly.const(variable, x))
            else:
                raise TypeError("cocycle entries must be Laurent polynomials")
        s, r = f1.rank, f2.rank
        if len(flat) != s * r:
            raise DimensionError(f"expected {s}x{r} entries, got {len(flat)}")
        for i, a in enumerate(f1.components):
            for j, b in enumerate(f2.components):
                e = flat[i * r + j]
                if e.is_zero:
                    continue
                if e.variable != variable:
                    raise InvalidCocycleError("entry in the wrong variable")
                lo, hi = entry_window(a, b)
                if e.min_exp() < lo or e.max_exp() > hi:
                    raise InvalidCocycleError(
                        f"entry ({i},{j}) supported outside [{lo},{hi}]"
                    )
        self.f1 = f1
        self.f2 = f2
        self.variable = variable
        self._entries = tuple(flat)
        self._int_terms = None
        self._ranks: dict[int, int] = {}  # connecting_rank memo, by twist

    @classmethod
    def zero(cls, f1: SplittingType, f2: SplittingType, variable: str = "z") -> "ExtCocycle":
        z = LaurentPoly.zero(variable)
        return cls(f1, f2, [z] * (f1.rank * f2.rank), variable)

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self._entries[i * self.f2.rank + j]

    def entries(self) -> tuple:
        return self._entries

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self._entries)

    def scale(self, c) -> "ExtCocycle":
        return ExtCocycle(self.f1, self.f2, [e * c for e in self._entries], self.variable)

    def __add__(self, other: "ExtCocycle") -> "ExtCocycle":
        if self.f1 != other.f1 or self.f2 != other.f2:
            raise DimensionError("cocycles of different extension groups")
        return ExtCocycle(
            self.f1,
            self.f2,
            [a + b for a, b in zip(self._entries, other._entries)],
            self.variable,
        )

    def __eq__(self, other):
        if not isinstance(other, ExtCocycle):
            return NotImplemented
        return (
            self.f1 == other.f1
            and self.f2 == other.f2
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.f1, self.f2, self._entries))

    def __repr__(self):
        return f"ExtCocycle(f1={self.f1.to_list()}, f2={self.f2.to_list()}, {self._entries!r})"


@dataclass(frozen=True)
class TwistInterval:
    """Twists where the connecting map has both nonzero source and target."""

    lo: int
    hi: int

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __len__(self):
        return max(self.hi - self.lo + 1, 0)


def ext_dim(f2: SplittingType, f1: SplittingType) -> int:
    """dim Ext^1(F2, F1) = sum of h^1(O(a_i - b_j)) over all summand pairs."""
    total = 0
    for a in f1.components:
        for b in f2.components:
            total += max(b - a - 1, 0)
    return total


def twist_window(f1: SplittingType, f2: SplittingType) -> TwistInterval:
    """Outside this interval the source H^0(F2(m)) or target H^1(F1(m)) vanishes.

    [lo, hi] = [-max b_j, max_i(-a_i - 2)]; maximal rank is automatic outside.
    """
    if f1.rank == 0 or f2.rank == 0:
        return TwistInterval(0, -1)
    return TwistInterval(-max(f2.components), max(-a - 2 for a in f1.components))


def relevant_twists(e: ExtCocycle) -> TwistInterval:
    """Twists where the connecting map of e has nonzero source and target."""
    return twist_window(e.f1, e.f2)


def assemble_transition(e: ExtCocycle) -> LaurentMatrix:
    """Block transition matrix [[diag(v^-a_i), e], [0, diag(v^-b_j)]]."""
    var = e.variable
    s, r = e.f1.rank, e.f2.rank
    n = s + r
    z = LaurentPoly.zero(var)
    entries = [z] * (n * n)
    for i, a in enumerate(e.f1.components):
        entries[i * n + i] = LaurentPoly.monomial(var, -a)
    for j, b in enumerate(e.f2.components):
        entries[(s + j) * n + (s + j)] = LaurentPoly.monomial(var, -b)
    for i in range(s):
        for j in range(r):
            entries[i * n + (s + j)] = e.entry(i, j)
    return LaurentMatrix(var, n, n, entries)


def connecting_map(e: ExtCocycle, m: int) -> RatMatrix:
    """Matrix of the boundary map H^0(F2(m)) -> H^1(F1(m)).

    Source basis: per summand O(b_j), monomials 1, v, ..., v^(b_j + m).
    Target basis: per summand O(a_i), classes v^1, ..., v^(-a_i - m - 1).
    A monomial v^k maps to the class of e_{ij} * v^(k - m); the reduction
    discards exponents <= 0 and >= -a_i - m.
    """
    row_sizes = [max(-a - m - 1, 0) for a in e.f1.components]
    col_sizes = [max(b + m + 1, 0) for b in e.f2.components]
    nrows = sum(row_sizes)
    ncols = sum(col_sizes)
    ent = [Fraction(0)] * (nrows * ncols)
    roff = 0
    for i, a in enumerate(e.f1.components):
        hrows = row_sizes[i]
        if hrows:
            coff = 0
            for j, b in enumerate(e.f2.components):
                wcols = col_sizes[j]
                entry = e.entry(i, j)
                if wcols and not entry.is_zero:
                    for k in range(wcols):
                        # class exponents t run 1 .. hrows
                        for t0 in range(hrows):
                            c = entry.coeff(t0 + 1 - k + m)
                            if c:
                                ent[(roff + t0) * ncols + (coff + k)] = c
                coff += wcols
        roff += hrows
    return RatMatrix(nrows, ncols, ent)


def _int_term_table(e: ExtCocycle):
    """Per-entry term lists scaled to integers, cached on the cocycle.

    Denominators are cleared with one scalar per cocycle row (the F1
    summand), which only rescales rows of the connecting map and therefore
    changes no rank.  Each slot holds [(exponent, integer coefficient), ...]
    with exponents descending.
    """
    table = e._int_terms
    if table is None:
        table = []
        r = e.f2.rank
        for i in range(e.f1.rank):
            row_terms = [e.entry(i, j).terms() for j in range(r)]
            _, ints = clear_denominators(c for terms in row_terms for _, c in terms)
            scaled = iter(ints)
            for terms in row_terms:
                table.append([(exp, next(scaled)) for exp, _ in terms][::-1])
        e._int_terms = table
    return table


def _connecting_int_rows(e: ExtCocycle, m: int):
    """The connecting map as sparse integer rows: (rows, nrows, ncols).

    One row per target class, in the order of connecting_map, empty rows
    included.  Row t is a positive multiple of row t of connecting_map (one
    scalar per F1 summand clears the denominators), which changes no rank.
    This is the hot path behind every cohomology count, so entries go
    straight to integers.
    """
    col_sizes = [max(b + m + 1, 0) for b in e.f2.components]
    col_offs = [0, *accumulate(col_sizes)]
    rows = []
    r = e.f2.rank
    table = _int_term_table(e)
    for i, a in enumerate(e.f1.components):
        slots = [
            (col_offs[j], col_sizes[j], table[i * r + j])
            for j in range(r)
            if col_sizes[j] and table[i * r + j]
        ]
        for t in range(1, max(-a - m - 1, 0) + 1):
            cols = []
            vals = []
            tm = t + m
            for coff, wcols, terms in slots:
                # k = t + m - exp; exponents stored descending, so k ascends
                for exp, c in terms:
                    k = tm - exp
                    if 0 <= k < wcols:
                        cols.append(coff + k)
                        vals.append(c)
            rows.append((cols, vals))
    return rows, len(rows), col_offs[-1]


def connecting_rank(e: ExtCocycle, m: int) -> int:
    """Exact rank of the connecting map at twist m, memoized on the cocycle.

    min(rows, cols) bounds the rank, so kernels.rank_rows certifies a maximal
    rank modulo a prime and eliminates exactly only below it.
    """
    rank = e._ranks.get(m)
    if rank is None:
        rows, nrows, ncols = _connecting_int_rows(e, m)
        rank = e._ranks[m] = kernels.rank_rows(rows, ncols, stop_at=min(nrows, ncols))
    return rank


def connecting_rank_profile(e: ExtCocycle) -> list[tuple[int, int, int, int]]:
    """(m, rank, rows, cols) of the connecting map on the relevant twists."""
    out = []
    for m in relevant_twists(e):
        rows = h_split(e.f1, m)[1]
        cols = h_split(e.f2, m)[0]
        out.append((m, connecting_rank(e, m), rows, cols))
    return out


def les_h0(
    f1: SplittingType, f2: SplittingType, rank_at: Callable[[int], int]
) -> H0Profile:
    """h^0 profile of an extension G of F2 by F1, from the long exact sequence.

    h^0(G(m)) = h^0(F1(m)) + h^0(F2(m)) - rank_at(m), where rank_at gives the
    rank of the connecting map; it is consulted only inside twist_window.
    """
    window = twist_window(f1, f2)

    def h0(m: int) -> int:
        v = h_split(f1, m)[0] + h_split(f2, m)[0]
        if window.lo <= m <= window.hi:
            v -= rank_at(m)
        return v

    return H0Profile(h0)


def splitting_of_extension(e: ExtCocycle) -> SplittingType:
    """Splitting type of the total space of the extension, via the long exact sequence.

    The h^0 profile (les_h0) is peeled with rank s + r and degree
    deg F1 + deg F2.
    """
    rank_total = e.f1.rank + e.f2.rank
    if rank_total == 0:
        return SplittingType(())
    profile = les_h0(e.f1, e.f2, lambda m: connecting_rank(e, m))
    top = max(e.f1.components + e.f2.components)
    return splitting_from_h0_profile(
        profile, rank_total, e.f1.degree + e.f2.degree, top_bound=top
    )


def is_hn_top(e: ExtCocycle) -> bool:
    """True iff every connecting map has maximal rank (the generic stratum)."""
    for m in relevant_twists(e):
        rows = h_split(e.f1, m)[1]
        cols = h_split(e.f2, m)[0]
        if connecting_rank(e, m) != min(rows, cols):
            return False
    return True


# ---------------------------------------------------------------------------
# Banded (staircase) connecting maps of iterated extensions
# ---------------------------------------------------------------------------


def _sparse(vectors: list) -> list:
    """Sparse (cols, vals) rows of dense integer rows; zero rows are dropped."""
    rows = []
    for vec in vectors:
        cols = [j for j, v in enumerate(vec) if v]
        if cols:
            rows.append((cols, [vec[j] for j in cols]))
    return rows


def _dense(rows: list, ncols: int) -> list:
    """Dense integer rows of length ncols from sparse (cols, vals) rows."""
    out = []
    for cols, vals in rows:
        vec = [0] * ncols
        for c, v in zip(cols, vals):
            vec[c] = v
        out.append(vec)
    return out


def _span_rows(vectors: list, ncols: int) -> list:
    """Echelon basis (integer rows) of the span of the given integer rows."""
    return _dense(kernels.echelon(_sparse(vectors), ncols), ncols)


def _apply(mat: list, vec: list, nrows: int) -> list:
    return [sum(r[j] * vec[j] for j in range(len(vec))) for r in mat] if nrows else []


def _kernel_int(mat: list, ncols: int) -> list:
    """Integer kernel basis of an integer matrix given as dense rows.

    Forward echelon, then an upward integer elimination (Gauss-Jordan with
    cross multiplication and content stripping), so kernel vectors come out
    integral without any rational arithmetic.
    """
    pivots = kernels.echelon(_sparse(mat), ncols)
    if not pivots:
        return [[1 if j == f else 0 for j in range(ncols)] for f in range(ncols)]
    # upward pass, bottom pivot first: clear every lower pivot column
    reduced: list[tuple[int, int, dict]] = []  # (pivot col, pivot value, row)
    for cols, vals in reversed(pivots):
        row = dict(zip(cols, vals))
        for pc, pv, prow in reduced:
            c = row.get(pc)
            if not c:
                continue
            g = gcd(pv, c)
            a, b = pv // g, c // g
            if a != 1:
                for cc in row:
                    row[cc] *= a
            for cc, vv in prow.items():
                nv = row.get(cc, 0) - b * vv
                if nv:
                    row[cc] = nv
                elif cc in row:
                    del row[cc]
            g2 = 0
            for vv in row.values():
                g2 = gcd(g2, vv)
                if g2 == 1:
                    break
            if g2 > 1:
                for cc in row:
                    row[cc] //= g2
        reduced.append((cols[0], row[cols[0]], row))
    piv_set = {pc for pc, _, _ in reduced}
    basis = []
    for f in range(ncols):
        if f in piv_set:
            continue
        scale = 1
        for _, pv, prow in reduced:
            if prow.get(f):
                scale = scale * pv // gcd(scale, pv)
        vec = [0] * ncols
        vec[f] = scale
        for pc, pv, prow in reduced:
            c = prow.get(f)
            if c:
                vec[pc] = -c * (scale // pv)
        g2 = 0
        for vv in vec:
            g2 = gcd(g2, vv)
            if g2 == 1:
                break
        if g2 > 1:
            vec = [vv // g2 for vv in vec]
        basis.append(vec)
    return basis


class StaircasePair:
    """Banded connecting-map ranks for all copy counts n at once.

    A = c_{eta0}(m) and B = c_{eta1}(m) repeat along the band of the
    pushforward connecting matrix; the kernel of the staircase is the space
    of chains x with A x_1 = 0, A x_{k+1} = -B x_k (and B x_q = 0 on the
    positive side).  The reachable-endpoint subspaces S_k form a monotone
    chain, so per twist m one short recursion (cached) answers every n.
    """

    def __init__(self, eta0: ExtCocycle, eta1: ExtCocycle):
        if eta0.f1 != eta1.f1 or eta0.f2 != eta1.f2:
            raise DimensionError("staircase halves live in different Ext groups")
        self.eta0 = eta0
        self.eta1 = eta1
        self._chains: dict[tuple[int, int], dict] = {}

    def _dense_pair(self, m: int):
        """Dense integer c_{eta0}(m), c_{eta1}(m) and their shape (rows, cols)."""
        rows0, nrows, ncols = _connecting_int_rows(self.eta0, m)
        rows1 = _connecting_int_rows(self.eta1, m)[0]
        return _dense(rows0, ncols), _dense(rows1, ncols), nrows, ncols

    def _chain(self, m: int, side: int) -> dict:
        """side +1: chains starting in ker A; side -1: unconstrained start."""
        key = (m, side)
        chain = self._chains.get(key)
        if chain is not None:
            return chain
        a_mat, b_mat, nrows_r, ncols_c = self._dense_pair(m)
        if ncols_c == 0 or nrows_r == 0:
            chain = {"trivial": True, "cols": ncols_c, "rows": nrows_r}
            self._chains[key] = chain
            return chain
        im_a = _span_rows(
            [[a_mat[i][j] for i in range(nrows_r)] for j in range(ncols_c)], nrows_r
        )
        rank_a = len(im_a)
        ker_a = _kernel_int(a_mat, ncols_c)
        dim_ker_a = len(ker_a)
        if side > 0:
            dim_t = dim_ker_a
            s_basis = ker_a
        else:
            dim_t = ncols_c
            s_basis = [[1 if j == i else 0 for j in range(ncols_c)] for i in range(ncols_c)]
        dims_t = [dim_t]  # dims_t[k] = dim T_{k+1} after k steps
        dims_bs = []  # dims_bs[k] = dim B S_{k+1} with S after k steps
        delta = None
        for _ in range(ncols_c + 2):
            w = _span_rows([_apply(b_mat, v, nrows_r) for v in s_basis], nrows_r)
            dim_w = len(w)
            dims_bs.append(dim_w)
            dim_u = rank_a + dim_w - kernels.rank_rows(_sparse(im_a + w), nrows_r)
            drop = dim_w - dim_u
            if dim_w:
                aug = [
                    a_mat[i] + [w[t][i] for t in range(dim_w)] for i in range(nrows_r)
                ]
                pre = _kernel_int(aug, ncols_c + dim_w)
                s_next = _span_rows([v[:ncols_c] for v in pre], ncols_c)
            else:
                s_next = _span_rows(ker_a, ncols_c)
            new_dim_t = dim_t - drop + dim_ker_a
            if len(s_next) == len(s_basis):
                # monotone chain stabilized; record the constant increment
                delta = new_dim_t - dim_t
                dims_t.append(new_dim_t)
                s_basis = s_next
                break
            dim_t = new_dim_t
            dims_t.append(dim_t)
            s_basis = s_next
        if delta is None:
            raise RuntimeError("endpoint chain failed to stabilize")  # unreachable
        w_final = _span_rows([_apply(b_mat, v, nrows_r) for v in s_basis], nrows_r)
        dims_bs.append(len(w_final))
        chain = {
            "trivial": False,
            "cols": ncols_c,
            "dims_t": dims_t,
            "dims_bs": dims_bs,
            "delta": delta,
        }
        self._chains[key] = chain
        return chain

    def rank(self, n: int, m: int) -> int:
        if n in (0, -1):
            return 0
        q = abs(n)
        side = 1 if n >= 1 else -1
        chain = self._chain(m, side)
        if chain["trivial"]:
            return 0
        dims_t = chain["dims_t"]
        steps = q - 1
        if steps < len(dims_t):
            dim_t = dims_t[steps]
            dim_bs = chain["dims_bs"][min(steps, len(chain["dims_bs"]) - 1)]
        else:
            extra = steps - (len(dims_t) - 1)
            dim_t = dims_t[-1] + extra * chain["delta"]
            dim_bs = chain["dims_bs"][-1]
        kernel_dim = dim_t - dim_bs if side > 0 else dim_t
        return q * chain["cols"] - kernel_dim


def banded_connecting_rank(eta0: ExtCocycle, eta1: ExtCocycle, n: int, m: int) -> int:
    """One-shot staircase rank; see StaircasePair for cached batch use."""
    return StaircasePair(eta0, eta1).rank(n, m)
