"""Exact rational linear algebra on object arrays of Fractions.

Sizes here are small (truncation dimensions), so plain Gauss-Jordan with
exact pivots is entirely adequate.

Every matrix product the package forms goes through :func:`mm`, and both
metric adjoints through :func:`metric_adjoint`; applying a map to a residue
ladder and projecting onto one are index gathers in ``subspaces``, not
products.  On float data the two functions evaluate the plain numpy
expression.  On object data they multiply only pairs of nonzero
entries: shifts, residue ladders and lifts have one nonzero per column, so
almost every dense ``Fraction`` product is a multiplication by zero.  Exact
sums do not depend on term order or on zero terms, so the results are the
same ``Fraction`` values as the dense expressions.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def zeros(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = Fraction(0)
    return out


def eye(n: int) -> np.ndarray:
    out = zeros((n, n))
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def mm(a: np.ndarray, b: np.ndarray):
    """``a @ b`` of arrays; on object data only pairs of nonzero factors are multiplied."""
    if a.dtype != object and b.dtype != object:
        return a @ b
    a2 = a.reshape(1, -1) if a.ndim == 1 else a
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    if a2.shape[1] != b2.shape[0]:
        raise ValueError(f"matmul: shapes {a.shape} and {b.shape} do not align")
    out = zeros((a2.shape[0], b2.shape[1]))
    # the nonzeros of b grouped by row: a nonzero a[i, p] meets only row p's
    b_rows = [[] for _ in range(b2.shape[0])]
    p_b, j_b = np.nonzero(b2 != 0)
    for p, j, y in zip(p_b.tolist(), j_b.tolist(), b2[p_b, j_b]):
        b_rows[p].append((j, y))
    i_a, p_a = np.nonzero(a2 != 0)
    for i, p, x in zip(i_a.tolist(), p_a.tolist(), a2[i_a, p_a]):
        for j, y in b_rows[p]:
            out[i, j] += x * y
    return out[0 if a.ndim == 1 else slice(None), 0 if b.ndim == 1 else slice(None)]


def metric_adjoint(m: np.ndarray, w_out: np.ndarray, w_in: np.ndarray) -> np.ndarray:
    """Metric adjoint G_in^-1 m^H G_out of a matrix between diagonal metrics.

    It is ``conj(m).T * (w_out[None, :] / w_in[:, None])``.  The metric
    ratio is formed before the product, in real arithmetic (complex division
    rounds even x/x).  On object data it is formed only at the nonzero
    entries of ``m``.
    """
    m, w_out, w_in = np.asarray(m), np.asarray(w_out), np.asarray(w_in)
    if m.dtype != object:
        return np.conjugate(m).T * (w_out[None, :] / w_in[:, None])
    out = zeros(m.shape[::-1])
    o, i = np.nonzero(m != 0)
    out[i, o] = np.conjugate(m[o, i]) * (w_out[o] / w_in[i])
    return out


def rref(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns, exact arithmetic."""
    a = mat.astype(object).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if a[i, c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[[r, pivot_row]] = a[[pivot_row, r]]
        a[r] = a[r] / a[r, c]
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Exact kernel basis, one column per free variable (cols x k)."""
    rows, cols = mat.shape
    if rows == 0 or cols == 0:
        return eye(cols) if cols else zeros((cols, 0))
    r, pivots = rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = zeros((cols, len(free)))
    for k, f in enumerate(free):
        basis[f, k] = Fraction(1)
        for i, p in enumerate(pivots):
            basis[p, k] = -r[i, f]
    return basis


def invert(mat: np.ndarray) -> np.ndarray:
    """Exact inverse via Gauss-Jordan; raises ZeroDivisionError when singular."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError(f"square matrix required, got {mat.shape}")
    aug = np.concatenate([mat.astype(object), eye(n)], axis=1)
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return r[:, n:]
