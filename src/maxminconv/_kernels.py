"""Integer kernels for brute-force enumeration and witness grid scans.

Exact arithmetic lives in the callers; kernels only ever see integers:

* min t-norm: values are replaced by their ranks in a sorted table, which
  preserves min, max, order and equality, so rank arithmetic is exact;
* product / Lukasiewicz: values become numerators over one common
  denominator D.  Lukasiewicz is closed on that grid
  (max(0, a + b - D)); product comparisons cross-multiply, never divide.

``bf_hull_eval``, the kernel of the brute-force oracle, is pure Python:
it builds the reachable partial joins one generator at a time, so the
CLI never imports numpy.  ``scan_common`` and ``_member_batch`` are
vectorized numpy and import it when called; no CLI path reaches them,
and the scan stays only as the reference the projection search in
``maxt`` is tested against.  ``backend_name()`` names the scan's
backend for run records.
"""

from __future__ import annotations

TAG_MIN = 0
TAG_PRODUCT = 1
TAG_LUKASIEWICZ = 2


def backend_name() -> str:
    return "numpy"


def _digits(flat, base: int, width: int):
    import numpy as np

    out = np.empty((flat.shape[0], width), dtype=np.int64)
    rem = flat.copy()
    for pos in range(width - 1, -1, -1):
        out[:, pos] = rem % base
        rem //= base
    return out


def bf_hull_eval(tag: int, denom: int, lam_vals, x, ps, top: int) -> list[bool]:
    """Grid-combination membership flags for each candidate row of ps.

    Candidate p is a member when some choice of lam_i in lam_vals (values
    up to top), one per generator row x_i and with some lam_i = top, gives
    max_i T(lam_i, x_i) = p (p scaled by denom under product, whose terms
    carry denom twice).
    Rather than visit all k^m choices, the reachable (partial join, some
    lam = top) pairs are built one generator at a time, from the zero
    vector (every encoding is non-negative, so it is the join's identity);
    a term above the componentwise max of the candidates is dropped,
    because a join only grows.
    """
    targets = [tuple(v * denom for v in p) if tag == TAG_PRODUCT else tuple(p) for p in ps]
    ceiling = tuple(map(max, zip(*targets)))
    reach = {((0,) * len(ceiling), False)}
    for row in x:
        terms = set()
        for lam in lam_vals:
            if tag == TAG_MIN:
                term = tuple(lam if lam < v else v for v in row)
            elif tag == TAG_PRODUCT:
                term = tuple(lam * v for v in row)
            else:
                term = tuple(max(lam + v - denom, 0) for v in row)
            if all(t <= c for t, c in zip(term, ceiling)):
                terms.add((term, lam == top))
        reach = {
            (tuple(a if a > b else b for a, b in zip(z, term)), used or is_top)
            for z, used in reach
            for term, is_top in terms
        }
    return [(t, True) in reach for t in targets]


def _member_batch(tag, denom, qs, x):
    """Residuated membership of each row of qs in hull(x). Returns bool[n].

    Product or Lukasiewicz, on numerators over denom.
    """
    import numpy as np

    qe = qs[:, None, :]
    xe = x[None, :, :]
    if tag == TAG_PRODUCT:
        below = xe <= qe
        num = np.where(below, 1, qe)
        den = np.where(below, 1, np.broadcast_to(xe, num.shape))
        best_n = num[:, :, 0]
        best_d = den[:, :, 0]
        for j in range(1, x.shape[1]):
            better = num[:, :, j] * best_d < best_n * den[:, :, j]
            best_n = np.where(better, num[:, :, j], best_n)
            best_d = np.where(better, den[:, :, j], best_d)
        lhs = best_n[:, :, None] * xe
        rhs = qe * best_d[:, :, None]
        has_top = (best_n == best_d).any(axis=1)
    else:
        lam = np.where(xe <= qe, denom, denom - xe + qe).min(axis=2)
        lhs = np.maximum(lam[:, :, None] + xe - denom, 0)
        rhs = np.broadcast_to(qe, lhs.shape)
        has_top = (lam == denom).any(axis=1)
    le = (lhs <= rhs).all(axis=1).all(axis=1)
    eq = (lhs == rhs).any(axis=1).all(axis=1)
    return le & eq & has_top


def scan_common(tag: int, denom: int, grid, d: int, gens, offs) -> int:
    """Flat index of the lex-first common grid point, or -1.

    Product and Lukasiewicz only; a test reference for ``maxt._common_point``.
    """
    if tag not in (TAG_PRODUCT, TAG_LUKASIEWICZ):
        raise ValueError("scan_common runs product and Lukasiewicz only")
    import numpy as np

    grid = np.ascontiguousarray(grid, dtype=np.int64)
    gens = np.ascontiguousarray(gens, dtype=np.int64)
    offs = np.ascontiguousarray(offs, dtype=np.int64)
    if gens.size == 0:
        raise ValueError("scan_common needs at least one generator")
    k = int(grid.shape[0])
    total = k**d
    npoly = offs.shape[0] - 1
    chunk = max(1, 2_000_000 // max(1, d * max(1, gens.shape[0])))
    for s in range(0, total, chunk):
        n = min(chunk, total - s)
        qs = grid[_digits(np.arange(s, s + n, dtype=np.int64), k, d)]
        ok = np.ones(n, dtype=bool)
        for p in range(npoly):
            x = gens[offs[p]:offs[p + 1]]
            ok &= _member_batch(tag, denom, qs, x)
            if not ok.any():
                break
        hits = np.nonzero(ok)[0]
        if hits.size:
            return int(s + hits[0])
    return -1

