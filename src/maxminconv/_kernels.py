"""Integer kernels for brute-force enumeration and witness grid scans.

Exact arithmetic lives in the callers; kernels only ever see integers:

* min t-norm: values are replaced by their ranks in a sorted table, which
  preserves min, max, order and equality, so rank arithmetic is exact;
* product / Lukasiewicz: values become numerators over one common
  denominator D.  Lukasiewicz is closed on that grid
  (max(0, a + b - D)); product comparisons cross-multiply, never divide.

The kernels are vectorized numpy: each scan enumerates its grid in
chunks of flat indices, so the lex-first hit is found without a Python
loop per candidate.  The brute-force oracles run on them.  Witness
searches use floored cyclic projections in ``maxt`` and never reach
``scan_common``, which stays only as the reference the projection
search is tested against.  ``backend_name()`` names the backend for run
records.
"""

from __future__ import annotations

import numpy as np

TAG_MIN = 0
TAG_PRODUCT = 1
TAG_LUKASIEWICZ = 2


def backend_name() -> str:
    return "numpy"


def _digits(flat: np.ndarray, base: int, width: int) -> np.ndarray:
    out = np.empty((flat.shape[0], width), dtype=np.int64)
    rem = flat.copy()
    for pos in range(width - 1, -1, -1):
        out[:, pos] = rem % base
        rem //= base
    return out


def bf_hull_eval(tag: int, denom: int, lam_vals, x, ps, top: int):
    """Grid-combination membership flags for each candidate row of ps."""
    lam_vals = np.ascontiguousarray(lam_vals, dtype=np.int64)
    x = np.ascontiguousarray(x, dtype=np.int64)
    ps = np.ascontiguousarray(ps, dtype=np.int64)
    k = int(lam_vals.shape[0])
    m, d = x.shape
    out = np.zeros(ps.shape[0], dtype=bool)
    total = k**m
    chunk = max(1, 4_000_000 // max(1, m * d))
    targets = ps * denom if tag == TAG_PRODUCT else ps
    for s in range(0, total, chunk):
        n = min(chunk, total - s)
        lam = lam_vals[_digits(np.arange(s, s + n, dtype=np.int64), k, m)]
        lam = lam[lam.max(axis=1) == top]
        if lam.shape[0] == 0:
            continue
        if tag == TAG_MIN:
            terms = np.minimum(lam[:, :, None], x[None, :, :])
        elif tag == TAG_PRODUCT:
            terms = lam[:, :, None] * x[None, :, :]
        else:
            terms = np.maximum(lam[:, :, None] + x[None, :, :] - denom, 0)
        z = terms.max(axis=1)
        eq = (z[:, None, :] == targets[None, :, :]).all(axis=2)
        out |= eq.any(axis=0)
        if out.all():
            break
    return out


def _member_batch(tag, denom, qs, x):
    """Residuated membership of each row of qs in hull(x). Returns bool[n].

    Product or Lukasiewicz, on numerators over denom.
    """
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

