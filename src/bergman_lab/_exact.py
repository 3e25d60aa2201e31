"""Exact rational dense linear algebra on object arrays of Fractions.

Sizes here are small (truncation dimensions), so plain Gauss-Jordan with
exact pivots is entirely adequate.
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
