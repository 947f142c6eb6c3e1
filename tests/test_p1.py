"""Splitting types and both recovery routes on the line."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundlehunt.errors import NotABundleError, ProfileError
from bundlehunt.exactalg import LaurentMatrix, LaurentPoly
from bundlehunt.p1 import (
    H0Profile,
    SplittingType,
    h0_from_transition,
    h_line,
    h_split,
    natural_type,
    splitting_from_h0_profile,
    splitting_from_transition,
)

splittings = st.lists(
    st.integers(min_value=-8, max_value=8), min_size=0, max_size=6
).map(SplittingType)


def zmono(e, c=1):
    return LaurentPoly.monomial("z", e, c)


def test_h_line_values():
    assert h_line(0) == (1, 0)
    assert h_line(-1) == (0, 0)
    assert h_line(-4) == (0, 3)
    assert h_line(3) == (4, 0)


@given(st.integers(min_value=-30, max_value=30))
def test_h_line_euler(n):
    h0, h1 = h_line(n)
    assert h0 - h1 == n + 1


def test_h_split_examples():
    assert h_split(SplittingType([0, -1]), 0) == (1, 0)
    assert h_split(SplittingType([-7]), 5) == (0, 1)
    assert h_split(SplittingType([2, 2]), -1) == (4, 0)
    assert h_split(SplittingType([]), 3) == (0, 0)


@given(splittings, st.integers(min_value=-10, max_value=10))
@settings(max_examples=150, deadline=None)
def test_h_split_riemann_roch_and_serre(s, m):
    h0, h1 = h_split(s, m)
    assert h0 - h1 == sum(n + m + 1 for n in s.components)
    # Serre duality against the dual type
    assert h1 == h_split(s.dual(), -m - 2)[0]


def test_natural_type_examples():
    assert natural_type(2, -10) == [-5, -5]
    assert natural_type(4, -10) == [-2, -2, -3, -3]
    assert natural_type(1, -7) == [-7]
    assert natural_type(2, 4) == [2, 2]
    assert natural_type(3, 0) == [0, 0, 0]
    assert natural_type(3, 1) == [1, 0, 0]


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=-40, max_value=40))
def test_natural_type_degree_and_gap(r, d):
    s = natural_type(r, d)
    assert s.rank == r
    assert s.degree == d
    assert max(s.components) - min(s.components) <= 1


def test_natural_type_rank_zero():
    assert natural_type(0, 0) == SplittingType(())
    with pytest.raises(ValueError):
        natural_type(0, 3)


@given(splittings)
@settings(max_examples=150, deadline=None)
def test_profile_round_trip(s):
    prof = H0Profile.of_type(s)
    assert splitting_from_h0_profile(prof, s.rank, s.degree) == s


def test_profile_round_trip_with_bound(rng):
    for _ in range(60):
        s = SplittingType(rng.randint(-6, 6) for _ in range(rng.randint(0, 5)))
        got = splitting_from_h0_profile(
            H0Profile.of_type(s),
            s.rank,
            s.degree,
            top_bound=max(s.components, default=0),
        )
        assert got == s


def test_profile_mixed_example():
    # p(m) = h0(O(0) + O(-2))(m)
    prof = H0Profile(lambda m: max(m + 1, 0) + max(m - 1, 0))
    assert splitting_from_h0_profile(prof, 2, -2) == [0, -2]


def test_profile_errors():
    with pytest.raises(ProfileError):
        # rank too small for the profile of O(0)+O(0)
        splitting_from_h0_profile(H0Profile.of_type(SplittingType([0, 0])), 1, 0)
    with pytest.raises(ProfileError):
        # degree inconsistent with the profile
        splitting_from_h0_profile(H0Profile.of_type(SplittingType([1, 1])), 2, 0)
    with pytest.raises(ProfileError):
        # profile identically zero cannot have positive rank
        splitting_from_h0_profile(H0Profile(lambda m: 0), 2, -4)


def test_h0_from_transition_examples():
    assert h0_from_transition(LaurentMatrix.diag("z", [zmono(-3)]), 0) == 4
    assert h0_from_transition(LaurentMatrix.identity("z", 2), 0) == 2
    cocycle = LaurentMatrix.from_rows("z", [[zmono(4), zmono(1)], [0, 1]])
    assert h0_from_transition(cocycle, 1) == 1  # O(-1)+O(-3) twisted by 1
    with pytest.raises(NotABundleError):
        h0_from_transition(LaurentMatrix.from_rows("z", [[1, 1], [1, 1]]), 0)


def test_splitting_from_transition_examples():
    diag = LaurentMatrix.diag("z", [zmono(7), zmono(-2), zmono(-2)])
    assert splitting_from_transition(diag) == [2, 2, -7]
    assert splitting_from_transition(LaurentMatrix.identity("z", 4)) == [0, 0, 0, 0]
    assert splitting_from_transition(
        LaurentMatrix.from_rows("z", [[zmono(4), zmono(2)], [0, 1]])
    ) == [-2, -2]
    assert splitting_from_transition(LaurentMatrix("z", 0, 0, [])) == SplittingType(())
    # off-diagonal entries beyond the normal-form window raise section degrees
    # above the diagonal's, which a cap read off the diagonal misses
    assert splitting_from_transition(
        LaurentMatrix.from_rows("z", [[1, zmono(3)], [0, 1]])
    ) == [0, 0]
    assert splitting_from_transition(
        LaurentMatrix.from_rows("z", [[1, zmono(5)], [0, 1]])
    ) == [0, 0]
    assert splitting_from_transition(
        LaurentMatrix.from_rows("z", [[zmono(2), zmono(5)], [0, zmono(-2)]])
    ) == [2, -2]


@st.composite
def triangular_transitions(draw):
    """(c, gamma) with gamma = diag(z^-c) * U, U unipotent over Q[z]."""
    r = draw(st.integers(min_value=1, max_value=4))
    c = draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=r, max_size=r))
    upper = draw(st.booleans())
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            if i == j:
                row.append(zmono(-c[i]))
            elif (j > i) == upper:
                terms = draw(
                    st.dictionaries(
                        st.integers(min_value=0, max_value=6),
                        st.integers(min_value=-3, max_value=3),
                        max_size=3,
                    )
                )
                row.append(LaurentPoly("z", terms).shift(-c[i]))
            else:
                row.append(0)
        rows.append(row)
    return SplittingType(c), LaurentMatrix.from_rows("z", rows)


@given(triangular_transitions())
@settings(max_examples=60, deadline=None)
def test_triangular_transition_matches_its_diagonal(case):
    c, gamma = case
    reach = max(abs(n) for n in c.components) + 3
    for m in range(-reach, reach + 1):
        assert h0_from_transition(gamma, m) == h_split(c, m)[0]
    assert splitting_from_transition(gamma) == c


def test_splitting_block_diagonal_merges(rng):
    for _ in range(20):
        s1 = SplittingType(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
        s2 = SplittingType(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
        d1 = LaurentMatrix.diag("z", [zmono(-n) for n in s1.components])
        d2 = LaurentMatrix.diag("z", [zmono(-n) for n in s2.components])
        blk = LaurentMatrix.block(
            "z",
            [
                [d1, LaurentMatrix.zeros("z", s1.rank, s2.rank)],
                [LaurentMatrix.zeros("z", s2.rank, s1.rank), d2],
            ],
        )
        assert splitting_from_transition(blk) == s1.merge(s2)


def _unimodular_plus(rng, n):
    """Random invertible matrix over Q[z] with unit determinant."""
    m = LaurentMatrix.identity("z", n)
    for _ in range(3):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        shear = [
            [
                LaurentPoly.const("z", 1)
                if a == b
                else (
                    LaurentPoly("z", {rng.randint(0, 2): rng.randint(-2, 2)})
                    if (a, b) == (i, j)
                    else LaurentPoly.zero("z")
                )
                for b in range(n)
            ]
            for a in range(n)
        ]
        m = m * LaurentMatrix.from_rows("z", shear)
    return m


def _unimodular_minus(rng, n):
    m = LaurentMatrix.identity("z", n)
    for _ in range(3):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        shear = [
            [
                LaurentPoly.const("z", 1)
                if a == b
                else (
                    LaurentPoly("z", {-rng.randint(0, 2): rng.randint(-2, 2)})
                    if (a, b) == (i, j)
                    else LaurentPoly.zero("z")
                )
                for b in range(n)
            ]
            for a in range(n)
        ]
        m = m * LaurentMatrix.from_rows("z", shear)
    return m


def test_splitting_invariant_under_chart_automorphisms(rng):
    for _ in range(12):
        n = rng.randint(2, 3)
        comps = SplittingType(rng.randint(-3, 3) for _ in range(n))
        gamma = LaurentMatrix.diag("z", [zmono(-c) for c in comps.components])
        left = _unimodular_minus(rng, n)
        right = _unimodular_plus(rng, n)
        assert splitting_from_transition(left * gamma * right) == comps
