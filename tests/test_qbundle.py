"""Constant bundles: gamma action, pushforwards, tables, and the oracle."""

import random
from fractions import Fraction

import pytest

from conftest import random_cocycle, random_desc, random_splitting
from bundlehunt.exactalg import LaurentMatrix, LaurentPoly
from bundlehunt.ext1 import (
    StaircasePair,
    banded_connecting_rank,
    connecting_rank,
    relevant_twists,
    splitting_of_extension,
)
from bundlehunt.p1 import SplittingType, h_line, h_split, natural_type
from bundlehunt.qbundle import (
    BigradedEta,
    CechOracle,
    ConstantBundleDesc,
    FiberAutomorphism,
    HilbertParams,
    assemble_lambda,
    check_natural,
    chi_Q,
    cohomology_table,
    gamma_action,
    hilbert_params,
    pushforward_cocycle,
    pushforward_splitting,
    square_window,
)

F = Fraction


def example_desc(rng=None, eta_zero=False):
    """The running rank 3 instance: F1 = O(-7), F2 = O(2)^2."""
    rng = rng or random.Random(1234)
    f1 = SplittingType([-7])
    f2 = SplittingType([2, 2])
    if eta_zero:
        from bundlehunt.ext1 import ExtCocycle

        eta = BigradedEta(
            ExtCocycle.zero(f1, f2, "w"), ExtCocycle.zero(f1, f2, "w")
        )
    else:
        eta = BigradedEta(
            random_cocycle(rng, f1, f2, 9, "w"), random_cocycle(rng, f1, f2, 9, "w")
        )
    return ConstantBundleDesc(1, 2, f1, f2, eta)


def test_assemble_lambda_blocks():
    desc = example_desc()
    lam = assemble_lambda(desc)
    assert lam.l1.entry(0, 0) == LaurentPoly.monomial("w", 7)
    assert lam.l2.entry(0, 0) == LaurentPoly.monomial("w", -2)
    assert lam.l2.entry(1, 1) == LaurentPoly.monomial("w", -2)
    assert lam.eta0.entry(0, 0) == desc.eta.eta0.entry(0, 0)
    # extension data supported on w^-1 .. w^6
    for blk in (lam.eta0, lam.eta1):
        for j in range(2):
            entry = blk.entry(0, j)
            if not entry.is_zero:
                assert entry.min_exp() >= -1 and entry.max_exp() <= 6


def test_gamma_action_shapes_match_pushforward_transitions():
    desc = example_desc()
    g_minus = gamma_action(desc, -1)
    g_zero = gamma_action(desc, 0)
    g_plus = gamma_action(desc, 1)
    assert (g_minus.rows, g_zero.rows, g_plus.rows) == (2, 1, 4)
    assert [g_minus.entry(i, i) for i in range(2)] == [LaurentPoly.monomial("w", -2)] * 2
    assert g_zero.entry(0, 0) == LaurentPoly.monomial("w", 7)
    diag = [g_plus.entry(i, i) for i in range(4)]
    assert diag == [
        LaurentPoly.monomial("w", 7),
        LaurentPoly.monomial("w", 7),
        LaurentPoly.monomial("w", -2),
        LaurentPoly.monomial("w", -2),
    ]
    # upper-right block pairs eta0 against z0-coordinates and eta1 against z1
    assert g_plus.entry(0, 2) == desc.eta.eta0.entry(0, 0)
    assert g_plus.entry(1, 2) == desc.eta.eta1.entry(0, 0)
    assert g_plus.entry(0, 3) == desc.eta.eta0.entry(0, 1)
    assert g_plus.entry(1, 3) == desc.eta.eta1.entry(0, 1)
    assert g_plus.entry(2, 0).is_zero and g_plus.entry(3, 1).is_zero


def test_gamma_action_size_formula(rng):
    for _ in range(15):
        desc = random_desc(rng, max_rank=4)
        for n in range(-4, 5):
            g = gamma_action(desc, n)
            h0, h1 = h_split(desc.fiber_type, n)
            assert g.rows == g.cols == (h0 if n >= 0 else h1)


def random_automorphism(rng, r1, r2):
    l1 = LaurentMatrix.diag(
        "w", [LaurentPoly.monomial("w", rng.randint(-3, 3)) for _ in range(r1)]
    )
    l2 = LaurentMatrix.diag(
        "w", [LaurentPoly.monomial("w", rng.randint(-3, 3)) for _ in range(r2)]
    )
    def blk():
        return LaurentMatrix(
            "w",
            r1,
            r2,
            [
                LaurentPoly(
                    "w",
                    {e: rng.randint(-4, 4) for e in range(rng.randint(-2, 0), rng.randint(0, 3))},
                )
                for _ in range(r1 * r2)
            ],
        )
    return FiberAutomorphism(r1, r2, l1, l2, blk(), blk())


def test_gamma_action_functorial(rng):
    for _ in range(20):
        r1 = rng.randint(1, 2)
        r2 = rng.randint(1, 2)
        a = random_automorphism(rng, r1, r2)
        b = random_automorphism(rng, r1, r2)
        ab = a.compose(b)
        for n in range(-4, 5):
            assert ab.gamma_action(n) == a.gamma_action(n) * b.gamma_action(n)


def test_pushforward_splitting_examples():
    desc = example_desc()
    assert pushforward_splitting(desc, 0) == [-7]
    assert pushforward_splitting(desc, -1) == [2, 2]
    assert pushforward_splitting(desc, 1) == natural_type(4, -10)  # [-2,-2,-3,-3]


def test_pushforward_rank_degree_structure(rng):
    for _ in range(10):
        desc = random_desc(rng, max_rank=4)
        d1, d2 = desc.f1.degree, desc.f2.degree
        for n in range(-4, 5):
            s = pushforward_splitting(desc, n)
            assert s.rank == desc.r1 * abs(n + 1) + desc.r2 * abs(n)
            assert s.degree == d1 * abs(n + 1) + d2 * abs(n)


def test_pushforward_cocycle_band_structure(rng):
    desc = example_desc(rng)
    for n in (1, 2, 3, -2, -3):
        e = pushforward_cocycle(desc, n)
        p, q = abs(n + 1), abs(n)
        assert e.f1 == desc.f1.repeat(p)
        assert e.f2 == desc.f2.repeat(q)
        # copy t of summand i couples to copy k of summand u through
        # eta0 (t == k + s0) and eta1 (t == k + s0 + ... ), else zero
        s0 = 0 if n >= 0 else -1
        for i in range(desc.r1):
            for t in range(p):
                for u in range(desc.r2):
                    for k in range(q):
                        got = e.entry(i * p + t, u * q + k)
                        if n >= 0:
                            want = (
                                desc.eta.eta0.entry(i, u)
                                if t == k
                                else desc.eta.eta1.entry(i, u)
                                if t == k + 1
                                else None
                            )
                        else:
                            want = (
                                desc.eta.eta0.entry(i, u)
                                if t == k - 1
                                else desc.eta.eta1.entry(i, u)
                                if t == k
                                else None
                            )
                        if want is None:
                            assert got.is_zero
                        else:
                            assert got == want


def test_connecting_map_banded_decomposition(rng):
    # c(n, m) is assembled from copies of the two row-blocks of c(1, m):
    # column copy k feeds row copies k (eta0 block) and k+1 (eta1 block)
    from bundlehunt.ext1 import connecting_map

    desc = example_desc(rng)
    m = 1
    c1 = connecting_map(pushforward_cocycle(desc, 1), m)
    for n in (2, 3):
        cn = connecting_map(pushforward_cocycle(desc, n), m)
        row_h = [max(-a - m - 1, 0) for a in desc.f1.components]
        col_h = [max(b + m + 1, 0) for b in desc.f2.components]
        p, q = n + 1, n

        def big_row(i, t, tau):
            return sum(row_h[i2] * p for i2 in range(i)) + t * row_h[i] + tau

        def big_col(u, k, kap):
            return sum(col_h[u2] * q for u2 in range(u)) + k * col_h[u] + kap

        def small_row(i, t, tau):
            return sum(row_h[i2] * 2 for i2 in range(i)) + t * row_h[i] + tau

        def small_col(u, kap):
            return sum(col_h[u2] for u2 in range(u)) + kap

        for i in range(desc.r1):
            for t in range(p):
                for tau in range(row_h[i]):
                    for u in range(desc.r2):
                        for k in range(q):
                            for kap in range(col_h[u]):
                                got = cn.entry(big_row(i, t, tau), big_col(u, k, kap))
                                if t - k in (0, 1):
                                    want = c1.entry(
                                        small_row(i, t - k, tau), small_col(u, kap)
                                    )
                                else:
                                    want = 0
                                assert got == want


def test_shared_staircase_matches_dense_connecting_rank(rng):
    # the table's rank path: one StaircasePair per descriptor answers every
    # column from its cached chains, in whatever order the columns come
    positive = 0
    for _ in range(20):
        desc = random_desc(rng, max_rank=4)
        eta0, eta1 = desc.eta.eta0, desc.eta.eta1
        pair = StaircasePair(eta0, eta1)
        ns = [n for n in range(-5, 6) if n not in (0, -1)]
        rng.shuffle(ns)
        for n in ns:
            e = pushforward_cocycle(desc, n)
            tw = relevant_twists(e)
            for m in range(tw.lo - 1, tw.hi + 2):
                got = pair.rank(n, m)
                assert got == banded_connecting_rank(eta0, eta1, n, m), (n, m)
                assert got == connecting_rank(e, m), (n, m)
                positive += got > 0
    assert positive  # some chains are not trivial


def test_table_minus_one_column_is_f2():
    desc = example_desc()
    table = cohomology_table(desc, (-1, -1, -4, 4))
    for m in range(-4, 5):
        h0, h1 = h_split(desc.f2, m)
        assert table.cell(-1, m).triple == (0, h0, h1)


def test_table_cell_0_8_from_worked_example():
    desc = example_desc()
    cell = cohomology_table(desc, (0, 0, 8, 8)).cell(0, 8)
    assert cell.triple == (2, 0, 0)
    assert cell.chi == 2
    assert cell.region == "H0R"


def test_pushforward_cocycle_matches_splitting(rng):
    for _ in range(8):
        desc = random_desc(rng, max_rank=4)
        for n in [-4, -3, -2, 1, 2, 3]:
            assert splitting_of_extension(
                pushforward_cocycle(desc, n)
            ) == pushforward_splitting(desc, n)


def test_chi_example_values():
    desc = example_desc()
    assert chi_Q(desc, 0, 0) == -6
    assert chi_Q(desc, 2, 3) == 15
    params = hilbert_params(desc)
    assert (params.alpha, params.beta, params.gamma) == (F(1, 3), F(0), F(2))
    assert params.rank == 3


def test_chi_matches_both_closed_forms(rng):
    for _ in range(15):
        desc = random_desc(rng, max_rank=5)
        r = desc.rank
        d1, d2 = desc.f1.degree, desc.f2.degree
        r1, r2 = desc.r1, desc.r2
        for x in range(-4, 5):
            for y in range(-4, 5):
                chi = chi_Q(desc, x, y)
                alt = r * (
                    (x + F(r1, r)) * (y + 1 + F(d1 + d2, r)) - F(d2 * r1 - d1 * r2, r * r)
                )
                assert chi == alt
                assert chi == hilbert_params(desc).chi(x, y)


def test_chi_independent_of_eta(rng):
    d1 = random_desc(rng, max_rank=4)
    zero_eta = BigradedEta(
        d1.eta.eta0.scale(0), d1.eta.eta1.scale(0)
    )
    d2 = ConstantBundleDesc(d1.r1, d1.r2, d1.f1, d1.f2, zero_eta)
    for x in range(-3, 4):
        for y in range(-3, 4):
            assert chi_Q(d1, x, y) == chi_Q(d2, x, y)


def test_hilbert_params_shift_and_swap(rng):
    base = random_desc(rng, max_rank=4)
    shifted = ConstantBundleDesc(
        base.r1, base.r2, base.f1, base.f2, base.eta, shift=(2, -1), axis_swapped=False
    )
    p0 = hilbert_params(base)
    p1 = hilbert_params(shifted)
    assert p1.alpha == p0.alpha + 2 and p1.beta == p0.beta - 1
    swapped = ConstantBundleDesc(
        base.r1, base.r2, base.f1, base.f2, base.eta, shift=(2, -1), axis_swapped=True
    )
    p2 = hilbert_params(swapped)
    assert (p2.alpha, p2.beta) == (p1.beta, p1.alpha)
    for x in range(-2, 3):
        for y in range(-2, 3):
            assert chi_Q(swapped, x, y) == p2.rank * (
                (x + p2.alpha) * (y + p2.beta) - p2.gamma
            )


def test_table_euler_and_column_discipline(rng):
    # the column statements hold for every constant bundle; the row
    # statements need natural cohomology and are checked below
    for _ in range(6):
        desc = random_desc(rng, max_rank=4)
        params = hilbert_params(desc)
        table = cohomology_table(desc, square_window(4))
        for n, m, cell in table.iter_cells():
            assert cell.h0 - cell.h1 + cell.h2 == cell.chi == chi_Q(desc, n, m)
            if n + params.alpha > 0:
                assert cell.h2 == 0
            if n + params.alpha < 0:
                assert cell.h0 == 0


def test_region_discipline_on_natural_table():
    from bundlehunt.hunter import HuntRequest, hunt

    cert = hunt(HuntRequest(HilbertParams(F(1, 3), F(0), F(2), 3), seed=9))
    params = hilbert_params(cert.desc)
    table = cohomology_table(cert.desc, square_window(6))
    for n, m, cell in table.iter_cells():
        if n + params.alpha > 0 or m + params.beta > 0:
            assert cell.h2 == 0
        if n + params.alpha < 0 or m + params.beta < 0:
            assert cell.h0 == 0


def test_split_pushforward_not_natural():
    desc = example_desc(eta_zero=True)
    table = cohomology_table(desc, square_window(6))
    report = check_natural(table, hilbert_params(desc))
    assert not report.ok
    # q_*E(1,0) = O(-7)^2 + O(2)^2 has twists with both h^0 and h^1
    cell = table.cell(1, 3)
    assert cell.h0 > 0 and cell.h1 > 0


def test_natural_table_for_generic_rank2():
    rng = random.Random(7)
    f1 = SplittingType([-1])
    f2 = SplittingType([0])
    eta = BigradedEta(
        random_cocycle(rng, f1, f2, 5, "w"), random_cocycle(rng, f1, f2, 5, "w")
    )
    desc = ConstantBundleDesc(1, 1, f1, f2, eta)
    params = hilbert_params(desc)
    assert (params.alpha, params.beta, params.gamma) == (F(1, 2), F(1, 2), F(1, 4))
    table = cohomology_table(desc, square_window(6))
    assert check_natural(table, params).ok


# -- oracle -------------------------------------------------------------------


def test_oracle_kunneth_split_case(rng):
    for _ in range(3):
        b1 = rng.randint(-3, 2)
        b2 = rng.randint(-3, 2)
        f1 = SplittingType([b1])
        f2 = SplittingType([b2])
        from bundlehunt.ext1 import ExtCocycle

        eta = BigradedEta(ExtCocycle.zero(f1, f2, "w"), ExtCocycle.zero(f1, f2, "w"))
        desc = ConstantBundleDesc(1, 1, f1, f2, eta)
        oracle = CechOracle(desc)
        for n in range(-2, 3):
            for m in range(-2, 3):
                h0 = oracle.h(n, m)[0]
                want = (
                    h_line(n)[0] * h_line(b1 + m)[0]
                    + h_line(n - 1)[0] * h_line(b2 + m)[0]
                )
                assert h0 == want


def test_oracle_agrees_with_table_example():
    desc = example_desc()
    oracle = CechOracle(desc)
    assert oracle.h(0, 0) == (0, 6, 0)
    table = cohomology_table(desc, square_window(2))
    for n, m, cell in table.iter_cells():
        assert oracle.h(n, m) == cell.triple


def test_oracle_respects_shift_and_swap(rng):
    base = random_desc(rng, max_rank=3)
    moved = ConstantBundleDesc(
        base.r1, base.r2, base.f1, base.f2, base.eta, shift=(1, 0), axis_swapped=True
    )
    table = cohomology_table(moved, square_window(2))
    oracle = CechOracle(moved)
    for n, m, cell in table.iter_cells():
        assert oracle.h(n, m) == cell.triple


def test_oracle_agrees_with_table_beyond_the_h1_band(rng):
    # window +-4 reaches cells with sections and with h^2, where the oracle's
    # w-degree cap is tight; +-2 is mostly pure h^1
    seen = {"h0": 0, "h2": 0}
    for _ in range(6):
        desc = random_desc(rng, max_rank=3)
        oracle = CechOracle(desc)
        for n, m, cell in cohomology_table(desc, square_window(4)).iter_cells():
            assert oracle.h(n, m) == cell.triple, (desc, n, m)
            seen["h0"] += cell.h0 > 0
            seen["h2"] += cell.h2 > 0
    assert seen["h0"] > 0 and seen["h2"] > 0, seen
