"""Rationals, Laurent polynomials, and exact matrices."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlehunt.errors import DimensionError
from bundlehunt.exactalg import (
    LaurentMatrix,
    LaurentPoly,
    RatMatrix,
    det_unit_order,
    kernel_basis,
    rank,
    rat_from_str,
    rat_to_str,
)

F = Fraction


# -- rationals ---------------------------------------------------------------


def test_rational_string_round_trip():
    for s in ["0", "5", "-7", "1/3", "-22/7"]:
        assert rat_to_str(rat_from_str(s)) == s
    assert rat_from_str("4/6") == F(2, 3)
    assert rat_to_str(F(4, 6)) == "2/3"


@pytest.mark.parametrize("bad", ["1.5", "2e3", "", "1/0x2", "nan"])
def test_rational_rejects_inexact(bad):
    with pytest.raises((ValueError, ZeroDivisionError)):
        rat_from_str(bad)


@pytest.mark.parametrize("bad", ["1/0", "0/0", "-3/00"])
def test_rational_rejects_zero_denominator(bad):
    # a ValueError, which every reader turns into a parse error
    with pytest.raises(ValueError):
        rat_from_str(bad)


# -- Laurent polynomials -----------------------------------------------------

coeffs = st.fractions(max_denominator=30)
exps = st.integers(min_value=-6, max_value=6)
polys = st.builds(
    lambda d: LaurentPoly("z", d),
    st.dictionaries(exps, coeffs, max_size=5),
)


def test_zero_terms_dropped():
    p = LaurentPoly("z", {3: F(0), 1: F(2)})
    assert p.support() == (1,)
    assert LaurentPoly("z", {0: 0}).is_zero


@given(polys, polys, polys)
@settings(max_examples=120, deadline=None)
def test_laurent_mul_associative_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
@settings(max_examples=120, deadline=None)
def test_laurent_mul_commutative(a, b):
    assert a * b == b * a


@given(polys, st.integers(min_value=-5, max_value=5))
@settings(max_examples=80, deadline=None)
def test_shift_is_monomial_mul(p, k):
    assert p.shift(k) == p * LaurentPoly.monomial("z", k)


def test_variable_mismatch_rejected():
    z = LaurentPoly.monomial("z", 1)
    w = LaurentPoly.monomial("w", 1)
    with pytest.raises(ValueError):
        _ = z + w
    # constants are variable agnostic
    assert LaurentPoly.const("z", 3) + LaurentPoly.const("w", 4) == 7


def test_pairs_round_trip():
    p = LaurentPoly("z", {-2: F(1, 3), 5: F(-7)})
    assert LaurentPoly.from_pairs("z", p.to_pairs()) == p
    assert p.to_pairs() == [[-2, "1/3"], [5, "-7"]]


# -- rational matrices -------------------------------------------------------


def test_rank_examples():
    assert rank(RatMatrix.identity(2)) == 2
    assert rank(RatMatrix.zeros(3, 4)) == 0
    assert rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_kernel_examples():
    assert kernel_basis(RatMatrix.identity(3)) == []
    zero_kernel = kernel_basis(RatMatrix.zeros(2, 2))
    assert zero_kernel == [(F(1), F(0)), (F(0), F(1))]
    (v,) = kernel_basis(RatMatrix.from_rows([[1, 1]]))
    assert v[0] * 1 + v[1] * 1 == 0 and v != (0, 0)


def random_rat_matrix(rng, rows, cols, denom=4):
    return RatMatrix(
        rows,
        cols,
        [F(rng.randint(-6, 6), rng.randint(1, denom)) for _ in range(rows * cols)],
    )


def test_rank_transpose_and_nullity(rng):
    for _ in range(60):
        m = random_rat_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        r = rank(m)
        assert r == rank(m.transpose())
        assert r + len(kernel_basis(m)) == m.cols


def test_kernel_vectors_annihilated(rng):
    for _ in range(40):
        m = random_rat_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        for v in kernel_basis(m):
            out = [
                sum(m.entry(i, j) * v[j] for j in range(m.cols)) for i in range(m.rows)
            ]
            assert all(x == 0 for x in out)


# -- Laurent matrices and unit determinants ----------------------------------


def zmono(e, c=1):
    return LaurentPoly.monomial("z", e, c)


def test_det_unit_order_examples():
    assert det_unit_order(LaurentMatrix.diag("z", [zmono(-5)])) == (-5, F(1))
    assert det_unit_order(LaurentMatrix.identity("z", 4)) == (0, F(1))
    tri = LaurentMatrix.from_rows("z", [[zmono(1), 1], [0, zmono(-1)]])
    assert det_unit_order(tri) == (0, F(1))


def test_det_unit_order_non_units():
    assert det_unit_order(LaurentMatrix.from_rows("z", [[1, 1], [1, 1]])) is None
    binom = LaurentPoly("z", {0: 1, 1: 1})
    assert det_unit_order(LaurentMatrix.diag("z", [binom])) is None
    with pytest.raises(DimensionError):
        det_unit_order(LaurentMatrix.zeros("z", 2, 3))


def test_det_unit_order_general_matrix():
    # permutation-like and genuinely non-triangular unit matrices
    swap = LaurentMatrix.from_rows("z", [[0, 1], [1, 0]])
    assert det_unit_order(swap) == (0, F(-1))
    m = LaurentMatrix.from_rows(
        "z",
        [
            [LaurentPoly("z", {0: 1, 1: 1}), LaurentPoly("z", {0: 1})],
            [LaurentPoly("z", {1: 1}), LaurentPoly("z", {0: 1})],
        ],
    )
    # det = (1+z) - z = 1
    assert det_unit_order(m) == (0, F(1))
    shifted = m * LaurentMatrix.diag("z", [LaurentPoly.monomial("z", -3), LaurentPoly.const("z", 1)])
    assert det_unit_order(shifted) == (-3, F(1))


def random_unit_matrix(rng, n):
    """Product of elementary shears and monomial scalings: always a unit."""
    m = LaurentMatrix.identity("z", n)
    order = 0
    for _ in range(4):
        kind = rng.randint(0, 2)
        if kind == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            shear = [[LaurentPoly.const("z", 1) if a == b else LaurentPoly.zero("z") for b in range(n)] for a in range(n)]
            shear[i][j] = LaurentPoly("z", {rng.randint(-2, 2): rng.randint(-3, 3)})
            m = m * LaurentMatrix.from_rows("z", shear)
        else:
            e = rng.randint(-2, 2)
            i = rng.randrange(n)
            scal = [
                [zmono(e) if a == b == i else (LaurentPoly.const("z", 1) if a == b else LaurentPoly.zero("z")) for b in range(n)]
                for a in range(n)
            ]
            m = m * LaurentMatrix.from_rows("z", scal)
            order += e
    return m, order


def test_det_unit_order_multiplicative(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        a, _ = random_unit_matrix(rng, n)
        b, _ = random_unit_matrix(rng, n)
        da = det_unit_order(a)
        db = det_unit_order(b)
        dab = det_unit_order(a * b)
        assert da is not None and db is not None and dab is not None
        assert dab[0] == da[0] + db[0]
        assert dab[1] == da[1] * db[1]
