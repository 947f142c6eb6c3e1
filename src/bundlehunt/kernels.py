"""Sparse fraction-free integer elimination, and ranks modulo a prime.

A sparse row is a pair (cols, vals) of parallel lists: strictly increasing
column indices and the nonzero integer entries sitting there.  Elimination is
fraction free: to cancel the leading entry of one row against another we form
(p/g)*row - (q/g)*pivot with g = gcd(p, q), then strip the content of the
result, so all intermediate values stay integers of moderate size.  This is
the hot kernel behind every rank, kernel and determinant computation.

rank_mod_p computes a rank over F_P from rows packed into one Python int
each.  Callers with a proven rank bound (ext1.connecting_rank and
hunter.genericity_check) pack their rows mod P themselves and try it first:
rank over F_P <= rank over Q <= the bound, so a rank mod P that reaches the
bound is the exact answer, and only one that falls short goes to rank_rows.
"""

import heapq
from math import gcd

BACKEND = "python"  # the only backend; named in benchmark reports

P = 1048573  # 2**20 - 3, the largest prime below 2**20
SLOT = 64  # bits per packed column in rank_mod_p
_MASK = (1 << SLOT) - 1


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
    """Rank over F_P of a matrix given as packed rows, capped at stop_at.

    A packed row is one Python int holding column c in the 64-bit slot at
    bit 64*c, every slot in [0, P), so a row operation row += f * pivot is a
    single big-int multiply-add.  Rows are reduced in turn against the pivots
    found so far, in the order found, with f = -(row's slot) / (pivot's lead)
    mod P.  The reduced row's slots at pivot columns are then 0 mod P and are
    cleared, so its lowest nonzero slot, read with bit operations, is its
    lead (a slot that is a nonzero multiple of P is cleared too), and a row
    left nonzero becomes a pivot.  Its slots are first folded below 2**21
    with slot -> (slot mod 2**20) + 3 * (slot >> 20), three times in every
    slot at once; since P = 2**20 - 3 this keeps each slot's residue.  Slots
    stay nonnegative and no slot carries into the next: a row slot starts
    below P and each of its at most ncols reductions adds
    f * (pivot slot) < P * 2**21 < 2**41, so it stays below 2**64 for
    ncols < 2**22.
    """
    if ncols >= 1 << 22:
        raise ValueError(f"{ncols} columns overflow the packed slots")
    limit = ncols if stop_at is None else min(stop_at, ncols)
    ones = ((1 << SLOT * ncols) - 1) // _MASK  # 1 in every slot
    low = ones * ((1 << 20) - 1)
    high = ones * ((1 << SLOT - 20) - 1)
    keep = (1 << SLOT * ncols) - 1  # the slots of columns without a pivot
    pivots = []  # (bit offset of the pivot column, pivot row, -1/lead mod P)
    for row in rows:
        if len(pivots) >= limit:
            break
        for shift, piv, scale in pivots:
            f = ((row >> shift) & _MASK) * scale % P
            if f:
                row += f * piv
        row &= keep
        while row:
            shift = ((row & -row).bit_length() - 1) // SLOT * SLOT
            lead = ((row >> shift) & _MASK) % P
            if lead:
                break
            row &= ~(_MASK << shift)
        else:
            continue
        for _ in range(3):
            row = (row & low) + 3 * ((row >> 20) & high)
        keep &= ~(_MASK << shift)
        pivots.append((shift, row, P - pow(lead, -1, P)))
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
    """Exact rank of the sparse integer matrix given by rows.

    stop_at: a proven a-priori rank bound (e.g. min of the matrix
    dimensions); elimination then runs on the transpose when that has fewer
    rows, and halts at stop_at pivots.
    """
    if stop_at is None:
        return len(echelon(rows, ncols))
    rows = list(rows)
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
