"""Extension classes, connecting maps, and the generic-stratum predicate."""

import random
from fractions import Fraction

import pytest

from conftest import random_cocycle, random_splitting
from bundlehunt import ext1, kernels
from bundlehunt.errors import InvalidCocycleError
from bundlehunt.exactalg import LaurentPoly
from bundlehunt.ext1 import (
    ExtCocycle,
    TwistInterval,
    _connecting_int_rows,
    assemble_transition,
    connecting_map,
    connecting_rank,
    ext_dim,
    is_hn_top,
    relevant_twists,
    splitting_of_extension,
)
from bundlehunt.p1 import SplittingType, h_split, splitting_from_transition

F = Fraction
O_MINUS4 = SplittingType([-4])
O_TRIVIAL = SplittingType([0])


def cubic(a, b, c):
    return ExtCocycle(O_MINUS4, O_TRIVIAL, [LaurentPoly("z", {1: a, 2: b, 3: c})])


def test_ext_dim_examples():
    assert ext_dim(O_TRIVIAL, O_MINUS4) == 3
    assert ext_dim(SplittingType([2, 2]), SplittingType([-7])) == 16
    assert ext_dim(O_TRIVIAL, O_TRIVIAL) == 0


def test_ext_dim_is_h1_of_hom(rng):
    for _ in range(40):
        f1 = random_splitting(rng, rng.randint(1, 3))
        f2 = random_splitting(rng, rng.randint(1, 3))
        want = sum(h_split(SplittingType([a - b]), 0)[1] for a in f1 for b in f2)
        assert ext_dim(f2, f1) == want


def test_support_window_enforced():
    with pytest.raises(InvalidCocycleError):
        ExtCocycle(O_MINUS4, O_TRIVIAL, [LaurentPoly("z", {4: 1})])
    with pytest.raises(InvalidCocycleError):
        ExtCocycle(O_MINUS4, O_TRIVIAL, [LaurentPoly("z", {0: 1})])
    # window for f2 = O(2) reaches exponent -1 (paper normal form)
    ExtCocycle(SplittingType([-7]), SplittingType([2]), [LaurentPoly("z", {-1: 1, 6: 2})])


def test_relevant_twists_examples():
    assert relevant_twists(ExtCocycle.zero(O_MINUS4, O_TRIVIAL)) == TwistInterval(0, 2)
    assert relevant_twists(ExtCocycle.zero(O_TRIVIAL, O_TRIVIAL)).is_empty
    assert relevant_twists(
        ExtCocycle.zero(SplittingType([-7, -7]), SplittingType([2, 2]))
    ) == TwistInterval(-2, 5)


def test_assemble_transition_shape():
    e = cubic(1, 2, 3)
    t = assemble_transition(e)
    assert (t.rows, t.cols) == (2, 2)
    assert t.entry(0, 0) == LaurentPoly.monomial("z", 4)
    assert t.entry(1, 1) == LaurentPoly.const("z", 1)
    assert t.entry(1, 0).is_zero
    assert t.entry(0, 1) == LaurentPoly("z", {1: 1, 2: 2, 3: 3})
    zero = ExtCocycle.zero(SplittingType([-7]), SplittingType([2, 2]))
    tz = assemble_transition(zero)
    assert [tz.entry(i, i) for i in range(3)] == [
        LaurentPoly.monomial("z", 7),
        LaurentPoly.monomial("z", -2),
        LaurentPoly.monomial("z", -2),
    ]


def test_connecting_map_m0_reads_coefficients():
    c = connecting_map(cubic(5, 7, 11), 0)
    assert (c.rows, c.cols) == (3, 1)
    assert c.entries() == (F(5), F(7), F(11))


def test_connecting_map_m1_hankel_structure():
    c = connecting_map(cubic(5, 7, 11), 1)
    assert (c.rows, c.cols) == (2, 2)
    # columns are the monomial images 1 -> (b, c), z -> (a, b)
    assert c.entries() == (F(7), F(5), F(11), F(7))
    assert c.rank() == (2 if 5 * 11 - 7 * 7 != 0 else 1)


def test_connecting_map_zero_cocycle():
    z = ExtCocycle.zero(O_MINUS4, O_TRIVIAL)
    for m in range(-3, 4):
        assert connecting_map(z, m).entries() == tuple(
            F(0) for _ in range(connecting_map(z, m).rows * connecting_map(z, m).cols)
        )


def test_trichotomy_designated_points():
    assert splitting_of_extension(ExtCocycle.zero(O_MINUS4, O_TRIVIAL)) == [0, -4]
    assert splitting_of_extension(cubic(1, 0, 0)) == [-1, -3]
    assert splitting_of_extension(cubic(0, 1, 0)) == [-2, -2]


def test_hn_top_examples():
    assert is_hn_top(cubic(0, 1, 0))
    assert not is_hn_top(ExtCocycle.zero(O_MINUS4, O_TRIVIAL))
    assert not is_hn_top(cubic(1, 0, 0))


def test_les_dimension_identities(rng):
    for _ in range(60):
        f1 = random_splitting(rng, rng.randint(1, 3), -4, 1)
        f2 = random_splitting(rng, rng.randint(1, 3), -1, 4)
        e = random_cocycle(rng, f1, f2)
        g = splitting_of_extension(e)
        assert g.rank == f1.rank + f2.rank
        assert g.degree == f1.degree + f2.degree
        window = relevant_twists(e)
        lo = min(window.lo if not window.is_empty else 0, -5) - 2
        hi = max(window.hi if not window.is_empty else 0, 5) + 2
        for m in range(lo, hi + 1):
            rk = connecting_rank(e, m)
            h0g, h1g = h_split(g, m)
            h0a, h1a = h_split(f1, m)
            h0b, h1b = h_split(f2, m)
            assert h0g + rk == h0a + h0b
            assert h1g + rk == h1a + h1b


def assert_positive_multiple(int_row, ncols, dense_row):
    """The sparse integer row is c * dense_row for some rational c > 0."""
    cols, vals = int_row
    assert cols == [j for j in range(ncols) if dense_row[j]]
    ratios = {F(v) / dense_row[c] for c, v in zip(cols, vals)}
    assert len(ratios) <= 1 and all(x > 0 for x in ratios)


def test_connecting_rank_matches_matrix_rank(rng):
    for _ in range(40):
        f1 = random_splitting(rng, rng.randint(1, 3), -5, 0)
        f2 = random_splitting(rng, rng.randint(1, 3), 0, 4)
        e = random_cocycle(rng, f1, f2)
        # zero entries give empty rows; 1/2 and 1/3 mix denominators in a row
        mixed = ExtCocycle(
            f1, f2, [x * rng.choice([0, 1, F(1, 2), F(1, 3)]) for x in e.entries()]
        )
        for c in (e, mixed):
            for m in range(-4, 5):
                dense = connecting_map(c, m)
                assert connecting_rank(c, m) == dense.rank()
                rows, nrows, ncols = _connecting_int_rows(c, m)
                assert (nrows, ncols) == (dense.rows, dense.cols)
                assert len(rows) == nrows
                for t, row in enumerate(rows):
                    assert_positive_multiple(row, ncols, dense.row(t))


def test_connecting_rank_falls_back_when_the_rank_drops_mod_p(monkeypatch):
    # the 1 x 1 map [P] has rank 1 over Q and 0 mod P
    e = ExtCocycle([-2], [0], [LaurentPoly("z", {1: kernels.P})])
    rows, nrows, ncols = _connecting_int_rows(e, 0)
    assert (nrows, ncols) == (1, 1) and kernels.rank_mod_p(rows, ncols) == 0
    calls = []
    echelon = kernels.echelon
    monkeypatch.setattr(kernels, "echelon", lambda *a: calls.append(a) or echelon(*a))
    assert connecting_rank(e, 0) == 1
    assert calls


def test_tall_maximal_rank_needs_no_exact_elimination(monkeypatch):
    # 7 target classes, 2 source monomials: the bound is 2, the smaller side
    e = ExtCocycle([-8], [1], [LaurentPoly("z", {0: 3, 1: -1, 2: 2, 5: 7, 7: 1})])
    dense = connecting_map(e, 0)
    assert (dense.rows, dense.cols, dense.rank()) == (7, 2, 2)

    def refuse(*args):
        raise AssertionError("exact elimination ran on a maximal-rank map")

    monkeypatch.setattr(kernels, "echelon", refuse)
    assert connecting_rank(e, 0) == 2


def test_connecting_ranks_are_built_once_per_twist(monkeypatch, rng):
    built = []
    build = ext1._connecting_int_rows
    monkeypatch.setattr(ext1, "_connecting_int_rows", lambda e, m: built.append(m) or build(e, m))
    e = random_cocycle(rng, SplittingType([-5, -3]), SplittingType([3, 1]))
    splitting_of_extension(e)
    is_hn_top(e)
    assert sorted(built) == sorted(set(built))
    assert set(relevant_twists(e)) <= set(built)


def test_rational_coefficients_same_classification(rng):
    # clearing denominators happens per row; ranks must match the Fraction route
    for _ in range(25):
        f1 = random_splitting(rng, rng.randint(1, 2), -4, 0)
        f2 = random_splitting(rng, rng.randint(1, 2), 0, 3)
        entries = []
        for a in f1:
            for b in f2:
                lo, hi = 1 - b, -a - 1
                entries.append(
                    LaurentPoly(
                        "z",
                        {
                            e: F(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                            for e in range(lo, hi + 1)
                        },
                    )
                )
        e = ExtCocycle(f1, f2, entries)
        for m in range(-3, 4):
            assert connecting_rank(e, m) == connecting_map(e, m).rank()


def test_two_computation_paths_agree(rng):
    for _ in range(40):
        f1 = random_splitting(rng, rng.randint(1, 3), -4, 1)
        f2 = random_splitting(rng, rng.randint(1, 3), -1, 4)
        e = random_cocycle(rng, f1, f2)
        les = splitting_of_extension(e)
        transition = splitting_from_transition(assemble_transition(e))
        assert les == transition


def test_scaling_invariance(rng):
    for _ in range(30):
        f1 = random_splitting(rng, rng.randint(1, 2), -4, 0)
        f2 = random_splitting(rng, rng.randint(1, 2), 0, 3)
        e = random_cocycle(rng, f1, f2)
        scaled = e.scale(F(rng.randint(1, 9), rng.randint(1, 9)))
        assert splitting_of_extension(e) == splitting_of_extension(scaled)


def test_hom_degree_formula(rng):
    # deg(F1^dual tensor F2) = r1*d2 - r2*d1, two-step form of the same identity
    for _ in range(40):
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        s1, s2 = rng.randint(0, 3), rng.randint(0, 3)
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        if s1 + s2 == 0 or r1 + r2 == 0:
            continue
        f1 = SplittingType([-a] * s1 + [-a + 1] * s2)
        f2 = SplittingType([-b] * r1 + [-b + 1] * r2)
        s, r = s1 + s2, r1 + r2
        lhs = f1.rank * f2.degree - f2.rank * f1.degree
        assert lhs == s * r * (a - b) + s1 * r2 - s2 * r1
