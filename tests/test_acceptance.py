"""Acceptance criteria, one test per criterion, at their stated tolerances.

Every comparison here is exact; the only tolerances are wall-clock budgets.
Run with -s to see the per-criterion summary lines.
"""

import multiprocessing
import os
import random
import time
from fractions import Fraction

import pytest

from conftest import random_cocycle, random_desc
from bundlehunt.cli import (
    EXIT_INVALID_REQUEST,
    EXIT_UNSUPPORTED_CASE,
    main,
)
from bundlehunt.errors import InvalidRequestError, UnsupportedCaseError
from bundlehunt.exactalg import LaurentPoly
from bundlehunt.ext1 import (
    ExtCocycle,
    connecting_rank,
    relevant_twists,
    splitting_of_extension,
)
from bundlehunt.hunter import HuntRequest, hunt, solve_degrees, verify_certificate
from bundlehunt.p1 import SplittingType, h_split
from bundlehunt.qbundle import (
    CechOracle,
    HilbertParams,
    cohomology_table,
    gamma_action,
    pushforward_cocycle,
    pushforward_splitting,
    square_window,
)
from test_qbundle import random_automorphism

F = Fraction


def report(criterion, passed, elapsed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.1f}s) {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


# -- criterion 1: Ext trichotomy ----------------------------------------------


def test_criterion_1_ext_trichotomy():
    t0 = time.time()
    f1 = SplittingType([-4])
    f2 = SplittingType([0])

    def classify(a, b, c):
        e = ExtCocycle(f1, f2, [LaurentPoly("z", {1: a, 2: b, 3: c})])
        return splitting_of_extension(e)

    assert classify(0, 0, 0) == [0, -4]
    assert classify(1, 0, 0) == [-1, -3]
    assert classify(0, 1, 0) == [-2, -2]
    rng = random.Random(41)
    checked = 0
    for _ in range(120):
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        got = classify(a, b, c)
        if a == b == c == 0:
            want = [0, -4]
        elif a * c - b * b == 0:
            want = [-1, -3]
        else:
            want = [-2, -2]
        assert got == want, (a, b, c, got)
        checked += 1
    elapsed = time.time() - t0
    report(1, checked >= 100 and elapsed < 5.0, elapsed, f"{checked + 3} cocycles classified")


# -- criterion 2: the worked rank 3 instance -----------------------------------


def test_criterion_2_example_reproduction():
    t0 = time.time()
    req = HuntRequest(HilbertParams(F(1, 3), F(0), F(2), 3), seed=0)
    assert solve_degrees(F(1, 3), F(0), F(2), 3) == (1, 2, -7, 4)
    cert = hunt(req)
    desc = cert.desc
    assert desc.fiber_type == [0, -1, -1]
    assert desc.f1 == [-7]
    assert desc.f2 == [2, 2]
    shapes = {}
    for n in (-1, 0, 1):
        g = gamma_action(desc, n)
        shapes[n] = (g.rows, [g.entry(i, i).terms()[0][0] for i in range(g.rows)])
    assert shapes[-1] == (2, [-2, -2])
    assert shapes[0] == (1, [7])
    assert shapes[1] == (4, [7, 7, -2, -2])
    elapsed = time.time() - t0
    report(2, elapsed < 5.0, elapsed, "r1,r2,d1,d2 = 1,2,-7,4; action shapes 2/1/4")


# -- criterion 3: the existence-theorem battery ---------------------------------


def battery_grid():
    values = set()
    for q in range(1, 5):
        for p in range(-3 * q, 3 * q + 1):
            values.add(F(p, q))
    alphas = sorted(values)
    gammas = [F(k, 4) for k in range(1, 13)]  # 1/4, 1/2, ..., 3
    grid = []
    for a in alphas:
        for b in alphas:
            if a.denominator == 1 and b.denominator == 1:
                continue
            for r in range(2, 9):
                if (r * a).denominator != 1 or (r * b).denominator != 1:
                    continue
                for g in gammas:
                    if (r * (a * b - g)).denominator != 1:
                        continue
                    grid.append((a, b, g, r))
    return grid


def _battery_worker(case):
    a, b, g, r = case
    t0 = time.time()
    try:
        cert = hunt(HuntRequest(HilbertParams(a, b, g, r), seed=0))
    except Exception as exc:  # reported upstream with the offending parameters
        return (str((a, b, g, r)), False, 0, time.time() - t0, repr(exc))
    ok = cert.table_digest.natural and cert.resamples <= 20
    return (str((a, b, g, r)), ok, cert.resamples, time.time() - t0, "")


@pytest.mark.slow
def test_criterion_3_theorem_battery():
    t0 = time.time()
    grid = battery_grid()
    workers = max(os.cpu_count() or 1, 1)
    with multiprocessing.Pool(workers) as pool:
        results = pool.map(_battery_worker, grid, chunksize=64)
    failures = [r for r in results if not r[1]]
    slowest = max(r[3] for r in results)
    resamples = max(r[2] for r in results)
    elapsed = time.time() - t0
    detail = (
        f"{len(grid)} instances, slowest {slowest:.1f}s, "
        f"max resamples {resamples}, total {elapsed / 60:.1f} min"
    )
    if failures:
        detail += f"; first failures: {failures[:3]}"
    report(3, not failures and slowest < 60.0 and elapsed < 1800.0, elapsed, detail)


# -- criterion 4: dual-path agreement -------------------------------------------


def test_criterion_4_dual_path_agreement():
    t0 = time.time()
    rng = random.Random(44)
    for _ in range(25):
        desc = random_desc(rng, max_rank=5)
        for n in range(-5, 6):
            if n in (0, -1):
                continue
            les = splitting_of_extension(pushforward_cocycle(desc, n))
            transition = pushforward_splitting(desc, n)
            assert les == transition, (desc.f1, desc.f2, n, les, transition)
    elapsed = time.time() - t0
    report(4, elapsed < 120.0, elapsed, "25 descriptors, n in [-5,5] minus {0,-1}")


# -- criterion 5: oracle agreement ----------------------------------------------


def test_criterion_5_oracle_agreement():
    t0 = time.time()
    rng = random.Random(45)
    for _ in range(10):
        desc = random_desc(rng, max_rank=4)
        table = cohomology_table(desc, square_window(3))
        oracle = CechOracle(desc)
        for n, m, cell in table.iter_cells():
            got = oracle.h(n, m)
            assert got == cell.triple, (desc.f1, desc.f2, n, m, got, cell.triple)
    elapsed = time.time() - t0
    report(5, elapsed < 300.0, elapsed, "10 descriptors on [-3,3]^2")


# -- criterion 6: long-exact-sequence suite ---------------------------------------


def test_criterion_6_les_exactness():
    t0 = time.time()
    rng = random.Random(46)
    for _ in range(100):
        f1 = SplittingType(rng.randint(-4, 1) for _ in range(rng.randint(1, 3)))
        f2 = SplittingType(rng.randint(-1, 4) for _ in range(rng.randint(1, 3)))
        e = random_cocycle(rng, f1, f2)
        g = splitting_of_extension(e)
        window = relevant_twists(e)
        ms = list(window) if not window.is_empty else []
        ms += [min(ms, default=0) - 2, max(ms, default=0) + 2]
        for m in ms:
            rk = connecting_rank(e, m)
            h0g, h1g = h_split(g, m)
            h0a, h1a = h_split(f1, m)
            h0b, h1b = h_split(f2, m)
            assert h0g + rk == h0a + h0b
            assert h1g + rk == h1a + h1b
    elapsed = time.time() - t0
    report(6, elapsed < 30.0, elapsed, "100 cocycles, all relevant twists")


# -- criterion 7: gamma functoriality ----------------------------------------------


def test_criterion_7_gamma_functoriality():
    t0 = time.time()
    rng = random.Random(47)
    for _ in range(20):
        r1 = rng.randint(1, 2)
        r2 = rng.randint(1, 2)
        a = random_automorphism(rng, r1, r2)
        b = random_automorphism(rng, r1, r2)
        ab = a.compose(b)
        for n in range(-4, 5):
            assert ab.gamma_action(n) == a.gamma_action(n) * b.gamma_action(n)
    elapsed = time.time() - t0
    report(7, elapsed < 30.0, elapsed, "20 composable pairs, |n| <= 4")


# -- criterion 8: negative controls --------------------------------------------------


def test_criterion_8_negative_controls(capsys):
    t0 = time.time()
    with pytest.raises(InvalidRequestError):
        hunt(HuntRequest(HilbertParams(F(1, 2), F(0), F(-1), 2)))
    with pytest.raises(InvalidRequestError):
        hunt(HuntRequest(HilbertParams(F(1, 2), F(0), F(0), 2)))
    with pytest.raises(UnsupportedCaseError):
        hunt(HuntRequest(HilbertParams(F(0), F(1), F(1), 2)))
    with pytest.raises(InvalidRequestError):
        hunt(HuntRequest(HilbertParams(F(0), F(0), F(1), 1)))
    rc_gamma = main(["hunt", "--alpha", "1/2", "--beta", "0", "--gamma", "-1", "--rank", "2"])
    rc_both = main(["hunt", "--alpha", "0", "--beta", "1", "--gamma", "1", "--rank", "2"])
    rc_rank1 = main(["hunt", "--alpha", "0", "--beta", "0", "--gamma", "1", "--rank", "1"])
    capsys.readouterr()
    ok = (
        rc_gamma == EXIT_INVALID_REQUEST
        and rc_both == EXIT_UNSUPPORTED_CASE
        and rc_rank1 == EXIT_INVALID_REQUEST
    )
    elapsed = time.time() - t0
    report(8, ok, elapsed, f"exit codes {rc_gamma}/{rc_both}/{rc_rank1}")
