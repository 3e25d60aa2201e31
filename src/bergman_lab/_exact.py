"""Exact rational linear algebra on object arrays of Fractions.

The package's array kernels on exact data live here: matrix products
(:func:`mm`), weighted column norms (:func:`column_norms_sq`), metric
adjoints (:func:`metric_adjoint`), sums and differences (:func:`add`,
:func:`sub`), nonzero scans (:func:`support`), and the elementwise
kernels of maps stored by index (:func:`mul`, :func:`metric_scale`,
:func:`weighted_sq`; see ``operators.LinearMap``).  On float data each of
them evaluates the plain numpy expression.

On object data they read only nonzero entries: shifts, residue ladders and
lifts have one nonzero per column, so almost every dense product would be a
multiplication by zero.  Products, norms and adjoints carry each rational as
its integer numerator and denominator.  The integer terms of an output entry
are summed with a common denominator and normalized once, by one
``Fraction(n, d)`` (Knuth, *TAOCP* vol. 2, section 4.5.1), instead of
paying a gcd and a new ``Fraction`` for every partial product and partial
sum.  Exact sums depend neither on term order nor on zero terms, so the
results are the same ``Fraction`` values as the dense expressions.  Object
operands hold rationals (``Fraction`` or ``int``); an object operand mixed
with float data raises TypeError.

:func:`rref`, :func:`nullspace` and :func:`invert` are Gauss-Jordan
elimination with exact pivots, the references for dense maps; tower maps
never reach them, since they are stored by index and decided there.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import numpy as np


#: The zero every exact buffer starts from; Fractions are immutable, so one is shared.
_ZERO = Fraction(0)


def zeros(shape) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = _ZERO
    return out


def eye(n: int) -> np.ndarray:
    out = zeros((n, n))
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def support(a) -> np.ndarray:
    """Boolean mask of the nonzero entries of an array.

    ``astype(bool)`` makes one truth test per entry; on object data that
    costs about half of ``a != 0``, which builds a comparison per entry.
    """
    return np.asarray(a).astype(bool)


def _is_exact(*arrays) -> bool:
    """Whether the operands are exact (object) data; refuses a mix with float data."""
    exact = [x.dtype == object for x in arrays]
    if any(exact) and not all(exact):
        raise TypeError("exact (object) and float operands do not mix; "
                        "convert the exact ones with operators.to_float first")
    return exact[0]


def _ratio_sum(terms) -> Fraction:
    """One normalized Fraction from integer pairs (numerator, denominator > 0).

    The pairs are added over a common denominator, which grows only when a
    denominator neither equals nor divides nor is divided by it.
    """
    n, d = 0, 1
    for tn, td in terms:
        if td == d:
            n += tn
        elif d % td == 0:
            n += tn * (d // td)
        elif td % d == 0:
            n, d = n * (td // d) + tn, td
        else:
            n, d = n * td + tn * d, d * td
    return Fraction(n, d)


def _assemble(shape, terms: dict) -> np.ndarray:
    """Exact zeros of ``shape`` with flat entry k set to the sum of ``terms[k]``."""
    out = zeros(shape)
    flat = out.reshape(-1)
    for k, pairs in terms.items():
        flat[k] = _ratio_sum(pairs)
    return out


def mm(a: np.ndarray, b: np.ndarray):
    """``a @ b`` of arrays.

    On object data only pairs of nonzero factors are read, and each output
    entry is the integer sum of their products, normalized once.
    """
    if not _is_exact(a, b):
        return a @ b
    a2 = a.reshape(1, -1) if a.ndim == 1 else a
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    if a2.shape[1] != b2.shape[0]:
        raise ValueError(f"matmul: shapes {a.shape} and {b.shape} do not align")
    # the nonzeros of b grouped by row: a nonzero a[i, p] meets only row p's
    b_rows = [[] for _ in range(b2.shape[0])]
    p_b, j_b = np.nonzero(support(b2))
    for p, j, y in zip(p_b.tolist(), j_b.tolist(), b2[p_b, j_b].tolist()):
        b_rows[p].append((j, y.numerator, y.denominator))
    width = b2.shape[1]
    terms = {}
    i_a, p_a = np.nonzero(support(a2))
    for i, p, x in zip(i_a.tolist(), p_a.tolist(), a2[i_a, p_a].tolist()):
        if b_rows[p]:
            xn, xd = x.numerator, x.denominator
            for j, yn, yd in b_rows[p]:
                terms.setdefault(i * width + j, []).append((xn * yn, xd * yd))
    out = _assemble((a2.shape[0], width), terms)
    return out[0 if a.ndim == 1 else slice(None), 0 if b.ndim == 1 else slice(None)]


def column_norms_sq(mat: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Squared weighted norm ``sum_i metric[i] |mat[i, j]|^2`` of every column.

    Float data sums each column as one contiguous row of a transposed copy,
    in the same order at any block width.  Object data sums the integer
    terms of each column's nonzero entries and normalizes once, so a column
    without one has norm exactly ``Fraction(0)``.
    """
    mat, metric = np.asarray(mat), np.asarray(metric)
    if not _is_exact(mat, metric):
        rows = np.ascontiguousarray(mat.T)
        return np.sum(np.abs(rows) ** 2 * metric, axis=1)
    w = metric.tolist()
    terms = {}
    i_nz, j_nz = np.nonzero(support(mat))
    for i, j, x in zip(i_nz.tolist(), j_nz.tolist(), mat[i_nz, j_nz].tolist()):
        xn, xd = x.numerator, x.denominator
        terms.setdefault(j, []).append((xn * xn * w[i].numerator, xd * xd * w[i].denominator))
    return _assemble(mat.shape[1], terms)


def _at_nonzeros(f, x, *others) -> np.ndarray:
    """``f(x[i], *others[i])`` where no operand is zero (operands broadcast),
    one Fraction each from the Python values; exact zero elsewhere."""
    x, *others = np.broadcast_arrays(x, *others)
    out = zeros(x.shape)
    nz = np.logical_and.reduce([support(o) for o in (x, *others)])
    out[nz] = [f(*args) for args in zip(x[nz].tolist(), *(o[nz].tolist() for o in others))]
    return out


def metric_scale(x, p, q) -> np.ndarray:
    """Elementwise ``conj(x) * (p / q)`` of broadcast arrays.

    The ratio is formed before the product, in real arithmetic (complex
    division rounds even x/x).  Object data is real, so it is not
    conjugated; each nonzero entry of ``x`` gives one Fraction of the
    integer product.
    """
    if not _is_exact(x, p, q):
        return np.conjugate(x) * (p / q)
    return _at_nonzeros(lambda a, b, c: Fraction(a.numerator * b.numerator * c.denominator,
                                                 a.denominator * b.denominator * c.numerator),
                        x, p, q)


def metric_adjoint(m: np.ndarray, w_out: np.ndarray, w_in: np.ndarray) -> np.ndarray:
    """Metric adjoint G_in^-1 m^H G_out of a matrix between diagonal metrics:
    ``conj(m).T * (w_out[None, :] / w_in[:, None])``, by :func:`metric_scale`."""
    m, w_out, w_in = np.asarray(m), np.asarray(w_out), np.asarray(w_in)
    return metric_scale(m.T, w_out[None, :], w_in[:, None])


def weighted_sq(x, w) -> np.ndarray:
    """Elementwise ``|x|^2 w``: the squared weighted norm of a column whose one
    nonzero is x, in row weight w, with the terms of :func:`column_norms_sq`."""
    if not _is_exact(x, w):
        return np.abs(x) ** 2 * w
    return _at_nonzeros(lambda a, b: Fraction(a.numerator * a.numerator * b.numerator,
                                              a.denominator * a.denominator * b.denominator),
                        x, w)


def mul(a, b) -> np.ndarray:
    """Elementwise ``a * b`` of broadcast arrays; on object data only pairs
    of nonzero factors are multiplied."""
    return a * b if not _is_exact(a, b) else _at_nonzeros(operator.mul, a, b)


def _combine(a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    if not _is_exact(a, b):
        return op(a, b)
    if a.shape != b.shape:
        raise ValueError(f"shapes {a.shape} and {b.shape} differ")
    out = a.copy()
    nz = np.nonzero(support(b))
    out[nz] = op(a[nz], b[nz])
    return out


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b``; on object data only the nonzero entries of ``b`` are added."""
    return _combine(a, b, operator.add)


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a - b``; on object data only the nonzero entries of ``b`` are subtracted."""
    return _combine(a, b, operator.sub)


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
    cols = mat.shape[1]
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
