"""Reference checks for the elimination kernels."""

import random
from fractions import Fraction

from bundlehunt import kernels


def rank_reference(rows, ncols):
    """Plain Gaussian elimination over Fraction, the independent oracle."""
    dense = []
    for cols, vals in rows:
        row = [Fraction(0)] * ncols
        for c, v in zip(cols, vals):
            row[c] = Fraction(v)
        dense.append(row)
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(dense)):
            if dense[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        prow = dense[rank]
        for r in range(rank + 1, len(dense)):
            f = dense[r][col] / prow[col]
            if f:
                dense[r] = [x - f * y for x, y in zip(dense[r], prow)]
        rank += 1
    return rank


def random_rows(rng, nrows, ncols, density=0.4, mag=9):
    rows = []
    for _ in range(nrows):
        support = [c for c in range(ncols) if rng.random() < density]
        vals = [rng.randint(-mag, mag) for _ in support]
        pairs = [(c, v) for c, v in zip(support, vals) if v]
        rows.append(([c for c, _ in pairs], [v for _, v in pairs]))
    return rows


def test_rank_matches_fraction_reference(rng):
    for _ in range(150):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        rows = random_rows(rng, nrows, ncols)
        want = rank_reference(rows, ncols)
        got = kernels.rank_rows([(list(c), list(v)) for c, v in rows], ncols)
        assert got == want


def test_early_stop_matches_full_rank(rng):
    for _ in range(60):
        nrows = rng.randint(1, 10)
        ncols = rng.randint(1, 10)
        rows = random_rows(rng, nrows, ncols, density=0.6)
        full = kernels.rank_rows([(list(c), list(v)) for c, v in rows], ncols)
        stopped = kernels.rank_rows(
            [(list(c), list(v)) for c, v in rows], ncols, min(nrows, ncols)
        )
        # the stop bound is a true bound, so both runs agree
        assert stopped == full


def rank_mod_p_reference(rows, ncols):
    """Dense Gaussian elimination over F_P, the independent oracle."""
    p = kernels.P
    dense = []
    for cols, vals in rows:
        row = [0] * ncols
        for c, v in zip(cols, vals):
            row[c] = v % p
        dense.append(row)
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(dense)) if dense[r][col]), None)
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        inv = pow(dense[rank][col], -1, p)
        prow = [x * inv % p for x in dense[rank]]
        for r in range(rank + 1, len(dense)):
            f = dense[r][col]
            if f:
                dense[r] = [(x - f * y) % p for x, y in zip(dense[r], prow)]
        rank += 1
    return rank


def test_rank_mod_p_matches_reference_and_bounds_exact_rank(rng):
    p = kernels.P
    for _ in range(150):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        rows = random_rows(rng, nrows, ncols, density=0.5)
        exact = kernels.rank_rows(rows, ncols)
        # small entries: a drop mod P needs P to divide every maximal minor
        assert kernels.rank_mod_p(rows, ncols) == exact == rank_mod_p_reference(rows, ncols)
        # multiples of P (and P + 1, -P - 1) mixed in: the rank mod P may drop
        mixed = [
            (cols, [v * rng.choice([1, 1, p, -p, p + 1, -p - 1]) for v in vals])
            for cols, vals in rows
        ]
        got = kernels.rank_mod_p(mixed, ncols)
        assert got == rank_mod_p_reference(mixed, ncols)
        assert got <= kernels.rank_rows(mixed, ncols)
        stop = rng.randint(0, min(nrows, ncols))
        assert kernels.rank_mod_p(mixed, ncols, stop) == min(got, stop)


def test_rank_below_the_bound_mod_p_falls_back_to_exact(monkeypatch):
    p = kernels.P
    # det = P: rank 2 over Q, rank 1 mod P
    rows = [([0, 1], [1, 1]), ([0, 1], [1, 1 + p])]
    assert kernels.rank_mod_p(rows, 2) == 1
    calls = []
    echelon = kernels.echelon
    monkeypatch.setattr(kernels, "echelon", lambda *a: calls.append(a) or echelon(*a))
    assert kernels.rank_rows(rows, 2, stop_at=2) == 2
    assert calls
    calls.clear()
    assert kernels.rank_rows([([0, 1], [1, 2]), ([0, 1], [3, 4])], 2, stop_at=2) == 2
    assert not calls


def test_det_small_cases():
    assert kernels.det_int([]) == 1
    assert kernels.det_int([[7]]) == 7
    assert kernels.det_int([[1, 2], [3, 4]]) == -2
    assert kernels.det_int([[0, 1], [1, 0]]) == -1
    assert kernels.det_int([[1, 2], [2, 4]]) == 0


def test_det_multiplicative(rng):
    def matmul(a, b):
        n = len(a)
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
        ]

    for _ in range(40):
        n = rng.randint(1, 5)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        b = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert kernels.det_int(matmul(a, b)) == kernels.det_int(a) * kernels.det_int(b)

