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

