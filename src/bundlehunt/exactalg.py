"""Exact arithmetic substrate: rationals, Laurent polynomials, dense matrices.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator),
re-exported as ``Rational``.  Laurent polynomials are sparse term maps with
integer exponents of either sign.  Matrices are dense row-major tuples.  All
values are immutable and every operation is a pure function; no floating
point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from . import kernels
from .errors import DimensionError

Rational = Fraction

VARIABLES = ("z", "w")


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" or "p"; decimal or exponent notation is rejected."""
    s = s.strip()
    if not s or any(ch in s for ch in ".eE"):
        raise ValueError(f"not an exact rational: {s!r}")
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rat_to_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def clear_denominators(fracs: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(mult, ints) with mult the lcm of the denominators and ints = mult * fracs."""
    fracs = list(fracs)
    mult = lcm(*[f.denominator for f in fracs])
    if mult == 1:
        return 1, [f.numerator for f in fracs]
    return mult, [f.numerator * (mult // f.denominator) for f in fracs]


def integer_rows(rows: Iterable[Mapping[int, Fraction]]) -> list[tuple[list, list]]:
    """Sparse (cols, vals) integer rows from {col: Fraction} rows, one scalar per row.

    Clearing each row's denominators rescales that row only, which changes
    no rank and no kernel.
    """
    out = []
    for row in rows:
        cols = sorted(row)
        out.append((cols, clear_denominators([row[c] for c in cols])[1]))
    return out


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


class LaurentPoly:
    """Sparse Laurent polynomial in a single tagged variable.

    Invariants: no zero coefficients are stored and the empty term map is the
    zero polynomial.  Binary operations require matching variables, except
    that constants (exponent-0-only polynomials) combine with anything.
    """

    __slots__ = ("variable", "_terms")

    def __init__(self, variable: str, terms: Mapping[int, Fraction] | None = None):
        if variable not in VARIABLES:
            raise ValueError(f"unknown variable tag {variable!r}")
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _as_fraction(c)
                if c != 0:
                    clean[int(e)] = c
        self.variable = variable
        self._terms = clean

    @classmethod
    def zero(cls, variable: str) -> "LaurentPoly":
        return cls(variable)

    @classmethod
    def const(cls, variable: str, c) -> "LaurentPoly":
        return cls(variable, {0: _as_fraction(c)})

    @classmethod
    def monomial(cls, variable: str, exp: int, coeff=1) -> "LaurentPoly":
        return cls(variable, {exp: _as_fraction(coeff)})

    @classmethod
    def from_pairs(cls, variable: str, pairs: Iterable) -> "LaurentPoly":
        """Build from [exponent, "p/q"] pairs (the serialization format)."""
        terms = {}
        for e, c in pairs:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError(f"exponent must be an integer, got {e!r}")
            c = rat_from_str(c) if isinstance(c, str) else _as_fraction(c)
            if c != 0:
                terms[e] = terms.get(e, Fraction(0)) + c
        return cls(variable, terms)

    def to_pairs(self) -> list:
        return [[e, rat_to_str(c)] for e, c in self.terms()]

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(e == 0 for e in self._terms)

    def coeff(self, e: int) -> Fraction:
        return self._terms.get(e, Fraction(0))

    def terms(self) -> list[tuple[int, Fraction]]:
        return sorted(self._terms.items())

    def min_exp(self) -> Optional[int]:
        return min(self._terms) if self._terms else None

    def max_exp(self) -> Optional[int]:
        return max(self._terms) if self._terms else None

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    # -- arithmetic --------------------------------------------------------

    def _merge_variable(self, other: "LaurentPoly") -> str:
        if self.variable == other.variable:
            return self.variable
        if self.is_constant:
            return other.variable
        if other.is_constant:
            return self.variable
        raise ValueError(f"variable mismatch: {self.variable} vs {other.variable}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.variable, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        var = self._merge_variable(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LaurentPoly(var, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.variable, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.variable, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return LaurentPoly(self.variable)
            return LaurentPoly(self.variable, {e: v * c for e, v in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        var = self._merge_variable(other)
        terms: dict[int, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly(var, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers only via shift of monomials")
        out = LaurentPoly.const(self.variable, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by variable**k."""
        return LaurentPoly(self.variable, {e + k: c for e, c in self._terms.items()})

    def truncate_window(self, lo: int, hi: int) -> "LaurentPoly":
        """Keep only the terms with exponent in [lo, hi]."""
        return LaurentPoly(
            self.variable, {e: c for e, c in self._terms.items() if lo <= e <= hi}
        )

    def evaluate(self, t: Fraction) -> Fraction:
        """Evaluate at a nonzero rational point."""
        t = _as_fraction(t)
        if t == 0 and self.min_exp() is not None and self.min_exp() < 0:
            raise ZeroDivisionError("evaluation at 0 with negative exponents")
        return sum((c * t**e for e, c in self._terms.items()), Fraction(0))

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.variable, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self._terms != other._terms:
            return False
        return self.variable == other.variable or self.is_constant

    def __hash__(self):
        if self.is_constant:
            return hash(("const", frozenset(self._terms.items())))
        return hash((self.variable, frozenset(self._terms.items())))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for e, c in self.terms():
            if e == 0:
                bits.append(rat_to_str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else rat_to_str(c) + "*")
                power = self.variable if e == 1 else f"{self.variable}^{e}"
                bits.append(f"{head}{power}")
        return " + ".join(bits).replace("+ -", "- ")


def _coerce_entry(variable: str, x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        if x.variable != variable and not x.is_constant:
            raise ValueError("matrix entry in the wrong variable")
        return x if x.variable == variable else LaurentPoly(variable, dict(x._terms))
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(variable, x)
    raise TypeError(f"cannot use {type(x).__name__} as a Laurent matrix entry")


class LaurentMatrix:
    """Dense matrix of Laurent polynomials in one variable (row-major)."""

    __slots__ = ("variable", "rows", "cols", "_entries")

    def __init__(self, variable: str, rows: int, cols: int, entries: Sequence):
        if variable not in VARIABLES:
            raise ValueError(f"unknown variable tag {variable!r}")
        entries = tuple(_coerce_entry(variable, x) for x in entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        self.variable = variable
        self.rows = rows
        self.cols = cols
        self._entries = entries

    @classmethod
    def identity(cls, variable: str, n: int) -> "LaurentMatrix":
        return cls.diag(variable, [LaurentPoly.const(variable, 1)] * n)

    @classmethod
    def zeros(cls, variable: str, rows: int, cols: int) -> "LaurentMatrix":
        z = LaurentPoly.zero(variable)
        return cls(variable, rows, cols, [z] * (rows * cols))

    @classmethod
    def diag(cls, variable: str, polys: Sequence) -> "LaurentMatrix":
        n = len(polys)
        z = LaurentPoly.zero(variable)
        entries = [z] * (n * n)
        for i, p in enumerate(polys):
            entries[i * n + i] = _coerce_entry(variable, p)
        return cls(variable, n, n, entries)

    @classmethod
    def from_rows(cls, variable: str, rows: Sequence[Sequence]) -> "LaurentMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise DimensionError("ragged rows")
            flat.extend(row)
        return cls(variable, r, c, flat)

    @classmethod
    def block(cls, variable: str, grid: Sequence[Sequence["LaurentMatrix"]]) -> "LaurentMatrix":
        """Assemble from a 2d grid of conforming blocks."""
        row_heights = [grid_row[0].rows for grid_row in grid]
        col_widths = [b.cols for b in grid[0]] if grid else []
        rows = sum(row_heights)
        cols = sum(col_widths)
        z = LaurentPoly.zero(variable)
        entries = [z] * (rows * cols)
        roff = 0
        for grid_row, h in zip(grid, row_heights):
            coff = 0
            for blockm, wdt in zip(grid_row, col_widths):
                if blockm.rows != h or blockm.cols != wdt:
                    raise DimensionError("ragged block grid")
                for i in range(h):
                    base = (roff + i) * cols + coff
                    brow = blockm._entries[i * blockm.cols : (i + 1) * blockm.cols]
                    entries[base : base + wdt] = brow
                coff += wdt
            roff += h
        return cls(variable, rows, cols, entries)

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def entries(self) -> tuple:
        return self._entries

    def transpose(self) -> "LaurentMatrix":
        ent = [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)]
        return LaurentMatrix(self.variable, self.cols, self.rows, ent)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return LaurentMatrix(
                self.variable, self.rows, self.cols, [e * other for e in self._entries]
            )
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            lrow = self.row(i)
            for j in range(other.cols):
                acc = LaurentPoly.zero(self.variable)
                for k in range(self.cols):
                    a = lrow[k]
                    if a.is_zero:
                        continue
                    b = other.entry(k, j)
                    if b.is_zero:
                        continue
                    acc = acc + a * b
                out.append(acc)
        return LaurentMatrix(self.variable, self.rows, other.cols, out)

    def __add__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch in addition")
        ent = [a + b for a, b in zip(self._entries, other._entries)]
        return LaurentMatrix(self.variable, self.rows, self.cols, ent)

    def __sub__(self, other):
        return self + (other * -1)

    def scale_exponents(self, k: int) -> "LaurentMatrix":
        """Multiply every entry by variable**k."""
        return LaurentMatrix(
            self.variable, self.rows, self.cols, [e.shift(k) for e in self._entries]
        )

    def is_upper_triangular(self) -> bool:
        return all(
            self.entry(i, j).is_zero for i in range(self.rows) for j in range(min(i, self.cols))
        )

    def is_lower_triangular(self) -> bool:
        return all(
            self.entry(i, j).is_zero
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def evaluate(self, t: Fraction) -> list[list[Fraction]]:
        return [[self.entry(i, j).evaluate(t) for j in range(self.cols)] for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.variable, self.rows, self.cols, self._entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"LaurentMatrix({self.variable}, {self.rows}x{self.cols}: [{body}])"


class RatMatrix:
    """Dense matrix of exact rationals (row-major)."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(_as_fraction(x) for x in entries)
        if len(entries) != rows * cols:
            raise DimensionError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._entries = entries

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        ent = [Fraction(0)] * (n * n)
        for i in range(n):
            ent[i * n + i] = Fraction(1)
        return cls(n, n, ent)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise DimensionError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    def entry(self, i: int, j: int) -> Fraction:
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def entries(self) -> tuple:
        return self._entries

    def transpose(self) -> "RatMatrix":
        ent = [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)]
        return RatMatrix(self.cols, self.rows, ent)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatMatrix(self.rows, self.cols, [e * other for e in self._entries])
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            lrow = self.row(i)
            for j in range(other.cols):
                out.append(sum((lrow[k] * other.entry(k, j) for k in range(self.cols)), Fraction(0)))
        return RatMatrix(self.rows, other.cols, out)

    def _sparse_int_rows(self):
        """The rows as sparse integer rows, denominators cleared row by row."""
        return integer_rows(
            {j: v for j, v in enumerate(self.row(i)) if v} for i in range(self.rows)
        )

    def rank(self) -> int:
        return kernels.rank_rows(self._sparse_int_rows(), self.cols)

    def kernel_basis(self) -> list[tuple[Fraction, ...]]:
        """Basis of the right kernel, one primitive integer vector per free column."""
        pivots = kernels.echelon(self._sparse_int_rows(), self.cols)
        piv_cols = [cols[0] for cols, _ in pivots]
        piv_set = set(piv_cols)
        free = [j for j in range(self.cols) if j not in piv_set]
        basis = []
        for f in free:
            v = {f: Fraction(1)}
            for cols, vals in reversed(pivots):
                s = Fraction(0)
                for c, a in zip(cols[1:], vals[1:]):
                    if c in v:
                        s += a * v[c]
                if s:
                    v[cols[0]] = -s / vals[0]
            _, ints = clear_denominators(v.get(j, Fraction(0)) for j in range(self.cols))
            g = 0
            for x in ints:
                g = gcd(g, x)
                if g == 1:
                    break
            if g > 1:
                ints = [x // g for x in ints]
            basis.append(tuple(Fraction(x) for x in ints))
        return basis

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(rat_to_str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: [{body}])"


def rank(m: RatMatrix) -> int:
    """Exact rank over the rationals."""
    return m.rank()


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel; length equals cols - rank."""
    return m.kernel_basis()


def _det_fraction(grid: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a dense rational matrix via integer Bareiss."""
    scale = 1
    int_rows = []
    for row in grid:
        mult, ints = clear_denominators(row)
        scale *= mult
        int_rows.append(ints)
    return Fraction(kernels.det_int(int_rows), scale)


def _newton_interpolate(points: list[Fraction], values: list[Fraction]) -> list[Fraction]:
    """Coefficients (ascending) of the unique interpolating polynomial."""
    n = len(points)
    coef = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (points[i] - points[i - j])
    # expand Newton form to the monomial basis
    poly = [Fraction(0)] * n
    poly[0] = coef[n - 1]
    deg = 0
    for k in range(n - 2, -1, -1):
        # poly <- poly * (x - points[k]) + coef[k]
        deg += 1
        for i in range(deg, 0, -1):
            poly[i] = poly[i - 1] - points[k] * poly[i]
        poly[0] = -points[k] * poly[0] + coef[k]
    return poly


def det_unit_order(m: LaurentMatrix) -> Optional[tuple[int, Fraction]]:
    """If det(m) is a unit c*v**k of the Laurent ring, return (k, c), else None.

    The degree of the bundle with transition matrix m is -k.  Triangular
    matrices are read off the diagonal; the general case interpolates the
    determinant from exact evaluations.
    """
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return (0, Fraction(1))
    if m.is_upper_triangular() or m.is_lower_triangular():
        prod = LaurentPoly.const(m.variable, 1)
        for i in range(n):
            prod = prod * m.entry(i, i)
        items = prod.terms()
        if len(items) != 1:
            return None
        return (items[0][0], items[0][1])
    shifts = []
    degs = []
    for i in range(n):
        row = m.row(i)
        mins = [e.min_exp() for e in row if not e.is_zero]
        if not mins:
            return None  # zero row: determinant vanishes
        s = min(mins)
        shifts.append(s)
        degs.append(max(e.max_exp() for e in row if not e.is_zero) - s)
    total_deg = sum(degs)
    points = [Fraction(t) for t in range(1, total_deg + 2)]
    shifted = [
        [m.entry(i, j).shift(-shifts[i]) for j in range(n)] for i in range(n)
    ]
    values = []
    for t in points:
        grid = [[p.evaluate(t) for p in row] for row in shifted]
        values.append(_det_fraction(grid))
    coeffs = _newton_interpolate(points, values)
    nonzero = [(k, c) for k, c in enumerate(coeffs) if c != 0]
    if len(nonzero) != 1:
        return None
    k, c = nonzero[0]
    return (k + sum(shifts), c)
