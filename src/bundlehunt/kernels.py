"""Sparse fraction-free integer elimination, screened by a rank modulo a prime.

A sparse row is a pair (cols, vals) of parallel lists: strictly increasing
column indices and the nonzero integer entries sitting there.  Elimination is
fraction free: to cancel the leading entry of one row against another we form
(p/g)*row - (q/g)*pivot with g = gcd(p, q), then strip the content of the
result, so all intermediate values stay integers of moderate size.  This is
the hot kernel behind every rank, kernel and determinant computation.

A rank with a proven a-priori bound is first computed over F_P, where it is
cheap: for an integer matrix, rank over F_P <= rank over Q <= the bound, so a
rank mod P that reaches the bound is the exact answer.  Only when it falls
short does the exact elimination run.
"""

import heapq
from array import array
from math import gcd

BACKEND = "python"  # the only backend; named in benchmark reports

P = 1048573  # the largest prime below 2**20
_SLOT = 64  # bits per packed column in rank_mod_p
_MASK = (1 << _SLOT) - 1


def _strip(cols, vals):
    """Divide a row by its content and normalize the leading sign."""
    g = 0
    for v in vals:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        vals = [v // g for v in vals]
    if vals and vals[0] < 0:
        vals = [-v for v in vals]
    return cols, vals


def _combine(pcols, pvals, ocols, ovals):
    """Merge a*other - b*pivot cancelling the shared leading column."""
    p = pvals[0]
    q = ovals[0]
    g = gcd(p, q)
    a = p // g
    b = q // g
    ncols = []
    nvals = []
    i = 1
    j = 1
    np_ = len(pcols)
    no = len(ocols)
    while i < np_ and j < no:
        cp = pcols[i]
        co = ocols[j]
        if co < cp:
            ncols.append(co)
            nvals.append(a * ovals[j])
            j += 1
        elif cp < co:
            ncols.append(cp)
            nvals.append(-b * pvals[i])
            i += 1
        else:
            v = a * ovals[j] - b * pvals[i]
            if v:
                ncols.append(co)
                nvals.append(v)
            i += 1
            j += 1
    while j < no:
        ncols.append(ocols[j])
        nvals.append(a * ovals[j])
        j += 1
    while i < np_:
        ncols.append(pcols[i])
        nvals.append(-b * pvals[i])
        i += 1
    return _strip(ncols, nvals)


def echelon(rows, ncols, stop_at=None):
    """Reduce sparse rows to echelon form.

    rows: iterable of (cols, vals) sparse rows (not mutated).
    Returns a list of pivot rows (cols, vals), one per pivot, ordered by
    strictly increasing pivot column cols[0].  The rank is the length of the
    returned list.  stop_at: an a-priori rank bound (e.g. min of the matrix
    dimensions); elimination halts once that many pivots are found.
    """
    heap = []
    seq = 0
    for cols, vals in rows:
        if any(v == 0 for v in vals):
            cols = [c for c, v in zip(cols, vals) if v]
            vals = [v for v in vals if v]
        if cols:
            cols, vals = _strip(list(cols), list(vals))
            heapq.heappush(heap, (cols[0], len(cols), seq, cols, vals))
            seq += 1
    pivots = []
    while heap:
        if stop_at is not None and len(pivots) >= stop_at:
            break
        lead = heap[0][0]
        group = []
        while heap and heap[0][0] == lead:
            group.append(heapq.heappop(heap))
        piv = group[0]
        for cand in group[1:]:
            if (cand[1], cand[2]) < (piv[1], piv[2]):
                piv = cand
        pivots.append((piv[3], piv[4]))
        for cand in group:
            if cand is piv:
                continue
            cols, vals = _combine(piv[3], piv[4], cand[3], cand[4])
            if cols:
                heapq.heappush(heap, (cols[0], len(cols), seq, cols, vals))
                seq += 1
    return pivots


def rank_mod_p(rows, ncols, stop_at=None):
    """Rank over F_P of the sparse integer matrix given by rows, capped at stop_at.

    Each row is packed into one Python int, column c in the 64-bit slot at
    bit 64*c, so a row operation row += f * neg_pivot is a single big-int
    multiply-add.  Rows are reduced in turn against the pivots found so far,
    in the order found (each pivot row is zero at the earlier pivot columns),
    and a row left nonzero mod P becomes a pivot: reduced mod P, scaled to -1
    at its first nonzero column and stored as neg_pivot.  Slots stay
    nonnegative: a slot starts below P and each of its at most ncols
    reductions adds f * (slot of neg_pivot) <= (P - 1)**2, so it stays below
    ncols * P**2 < 2**64 and no slot carries into the next.  Only the pivot
    column's slot is read back, as ((row >> 64*col) & mask) % P.
    """
    if ncols * P * P >= 1 << _SLOT:
        raise ValueError(f"{ncols} columns overflow the packed slots")
    limit = ncols if stop_at is None else min(stop_at, ncols)
    nbytes = ncols * _SLOT // 8
    pivots = []  # (bit offset of the pivot column, neg_pivot)
    for cols, vals in rows:
        if len(pivots) >= limit:
            break
        row = 0
        for c, v in zip(cols, vals):
            row += (v % P) << (_SLOT * c)
        for shift, neg in pivots:
            f = ((row >> shift) & _MASK) % P
            if f:
                row += f * neg
        if not row:
            continue
        slots = memoryview(row.to_bytes(nbytes, "little")).cast("Q")
        for col, lead in enumerate(slots):
            lead %= P
            if lead:
                break
        else:
            continue
        scale = P - pow(lead, -1, P)
        neg = array("Q", [s * scale % P for s in slots])
        pivots.append((_SLOT * col, int.from_bytes(neg.tobytes(), "little")))
    return len(pivots)


def _transpose(rows):
    """Sparse rows of the transpose; columns with no entry are dropped."""
    per_col: dict[int, list] = {}
    for ridx, (cols, vals) in enumerate(rows):
        for c, v in zip(cols, vals):
            per_col.setdefault(c, []).append((ridx, v))
    return [
        ([r for r, _ in pairs], [v for _, v in pairs])
        for pairs in (per_col[c] for c in sorted(per_col))
    ]


def rank_rows(rows, ncols, stop_at=None):
    """Rank of the sparse integer matrix given by rows.

    stop_at: a proven a-priori rank bound (e.g. min of the matrix
    dimensions).  With one, the rank mod P is tried first and returned when it
    reaches stop_at; otherwise exact elimination runs, on the transpose when
    that has fewer rows, and halts at stop_at pivots.  Without one, exact
    elimination runs directly.
    """
    if stop_at is None:
        return len(echelon(rows, ncols))
    rows = list(rows)
    if rank_mod_p(rows, ncols, stop_at) == stop_at:
        return stop_at
    if len(rows) > ncols:
        # eliminate the thin orientation: fewer rows through the pivot queue
        rows, ncols = _transpose(rows), len(rows)
    return len(echelon(rows, ncols, stop_at))


def det_int(mat):
    """Determinant of a dense square integer matrix by Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row = m[i]
            prow = m[k]
            for j in range(k + 1, n):
                row[j] = (pk * row[j] - mik * prow[j]) // prev
            row[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]
