"""Exact rational linear algebra on object arrays of Fractions.

The package's array kernels on exact data live here: matrix products
(:func:`mm`), weighted column norms (:func:`column_norms_sq`), metric
adjoints (:func:`metric_adjoint`), sums and differences (:func:`add`,
:func:`sub`), nonzero scans (:func:`support`), and the elementwise
kernels of maps stored by index (:func:`mul`, :func:`metric_scale`,
:func:`weighted_sq`; see ``operators.LinearMap``).  On float data each of
them evaluates the plain numpy expression.  :func:`integer_sums` sums
weighted integer columns in Python integers.

On object data they read only nonzero entries: shifts, residue ladders and
lifts have one nonzero per column, so almost every dense product would be a
multiplication by zero.  Products, norms and adjoints carry each rational as
its integer numerator and denominator.  The integer terms of an output entry
are summed over the least common denominator of their denominators, which
grows by one gcd per new denominator, and normalized once, by one
``Fraction(n, d)`` (Knuth, *TAOCP* vol. 2, section 4.5.1), instead of
paying a gcd and a new ``Fraction`` for every partial product and partial
sum.  A product with a factor 1 is the other factor, shared, not a new
``Fraction``.  Exact sums depend neither on term order nor on zero terms,
so the results are the same ``Fraction`` values as the dense expressions.
Object operands hold rationals (``Fraction`` or ``int``); an object operand
mixed with float data raises TypeError.

A diagonal metric reaches the kernels as integers over one common
denominator (:func:`over_common_denominator`): ``w = W / L`` with ``W``
Python ints.  A metric ratio ``w_m / w_n`` is then ``W_m / W_n`` (times
one ratio of the two denominators), and a column norm sums the integer
terms ``x.numerator^2 W_i / x.denominator^2`` and divides by ``L`` once.
``TruncatedSpace`` keeps its ``(W, L)`` (see
``space.TruncatedSpace.scaled_metric``).

:func:`rref`, :func:`nullspace` and :func:`invert` are Gauss-Jordan
elimination with exact pivots, the references for dense maps; tower maps
never reach them, since they are stored by index and decided there.
"""

from __future__ import annotations

import functools
import math
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


def over_common_denominator(metric) -> tuple[np.ndarray, int]:
    """``(W, L)`` with ``metric == W / L`` for rational entries, the kernels'
    metric operands: ``L`` is the least common denominator of the entries
    and ``W`` holds Python ints."""
    values = np.asarray(metric).tolist()
    den = math.lcm(*(x.denominator for x in values))
    scaled = np.empty(len(values), dtype=object)
    scaled[:] = [x.numerator * (den // x.denominator) for x in values]
    return scaled, den


def _ratio_sum(terms, den: int = 1) -> Fraction:
    """One normalized Fraction from integer pairs (numerator, denominator > 0):
    their sum, divided by ``den``.

    The pairs are added over the least common denominator of their
    denominators: a new denominator costs one gcd and moves the running sum
    to the lcm, so the sum never carries a larger denominator than that.
    """
    n, d = 0, 1
    for tn, td in terms:
        if td == d:
            n += tn
        else:
            g = math.gcd(d, td)
            n, d = n * (td // g) + tn * (d // g), d * (td // g)
    return Fraction(n, d * den)


def _assemble(shape, terms: dict, den: int = 1) -> np.ndarray:
    """Exact zeros of ``shape`` with flat entry k set to the sum of
    ``terms[k]`` over ``den``."""
    out = zeros(shape)
    flat = out.reshape(-1)
    for k, pairs in terms.items():
        flat[k] = _ratio_sum(pairs, den)
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


def integer_sums(weights: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``weights @ cols`` in Python integers: ``sum_j weights[j] cols[j, c]``
    for every column c, for integer weights (Python ints, as
    :func:`over_common_denominator` gives them) and fixed-width integer
    columns, which are converted to Python ints first, so no sum wraps."""
    return np.asarray(weights, dtype=object) @ np.asarray(cols).astype(object)


def column_norms_sq(mat: np.ndarray, metric: np.ndarray, den: int = 1) -> np.ndarray:
    """Squared weighted norm ``sum_i (metric[i] / den) |mat[i, j]|^2`` of every column.

    Float data (where ``den`` is 1) may also be a stack of such blocks, in
    its last two axes.  It weighs the squared moduli in place and sums each
    column as one contiguous row of a transposed copy, in the same order at
    any block width and in any stack.  Object
    data takes an integer metric ``W`` over its common denominator
    ``L = den`` (see :func:`over_common_denominator`; rational entries give
    the same values): the terms ``x.numerator^2 W[i] / x.denominator^2`` of
    a column's nonzero entries are summed by :func:`_ratio_sum` and divided
    by L once, so a column without a nonzero has norm exactly ``Fraction(0)``.
    """
    mat, metric = np.asarray(mat), np.asarray(metric)
    if not _is_exact(mat, metric):
        terms = np.abs(mat)
        np.square(terms, out=terms)
        terms *= metric[:, None]
        return np.ascontiguousarray(np.swapaxes(terms, -1, -2)).sum(axis=-1)
    w = metric.tolist()
    terms = {}
    i_nz, j_nz = np.nonzero(support(mat))
    for i, j, x in zip(i_nz.tolist(), j_nz.tolist(), mat[i_nz, j_nz].tolist()):
        xn, xd = x.numerator, x.denominator
        terms.setdefault(j, []).append((xn * xn * w[i], xd * xd))
    return _assemble(mat.shape[1], terms, den)


def _at_nonzeros(f, data: tuple, metrics: tuple = ()) -> np.ndarray:
    """``f(*data[i], *metrics[i])`` where no data operand is zero (operands
    broadcast), from the Python values; exact zero elsewhere.  Metric
    operands are positive, so their entries are not tested."""
    arrays = [np.asarray(a) for a in (*data, *metrics)]
    if len({a.shape for a in arrays}) > 1:
        arrays = np.broadcast_arrays(*arrays)
    out = zeros(arrays[0].shape)
    nz = functools.reduce(operator.and_, [support(a) for a in arrays[:len(data)]])
    out[nz] = [f(*args) for args in zip(*(a[nz].tolist() for a in arrays))]
    return out


def metric_scale(x, p, q, p_den: int = 1, q_den: int = 1) -> np.ndarray:
    """Elementwise ``conj(x) * ((p / p_den) / (q / q_den))`` of broadcast arrays.

    The ratio is formed before the product, in real arithmetic (complex
    division rounds even x/x); float data has both denominators 1.  Object
    data is real, so it is not conjugated; each nonzero entry of ``x``
    gives one Fraction of the integer product.  Integer metrics over their
    common denominators (see :func:`over_common_denominator`) enter as
    ``p``, ``q`` and the two denominators, whose ratio is taken once.
    """
    if not _is_exact(x, p, q):
        out = np.conjugate(x)
        out *= p / q
        return out
    g = math.gcd(p_den, q_den)
    rn, rd = q_den // g, p_den // g
    return _at_nonzeros(lambda a, b, c: Fraction(a.numerator * b.numerator * c.denominator * rn,
                                                 a.denominator * b.denominator * c.numerator * rd),
                        (x,), (p, q))


def metric_adjoint(m: np.ndarray, w_out: np.ndarray, w_in: np.ndarray,
                   out_den: int = 1, in_den: int = 1) -> np.ndarray:
    """Metric adjoint G_in^-1 m^H G_out of a matrix between diagonal metrics
    ``w_out / out_den`` and ``w_in / in_den``:
    ``conj(m).T * (w_out[None, :] / w_in[:, None])``, by :func:`metric_scale`;
    of each matrix of a stack, held in the last two axes of ``m``."""
    m, w_out, w_in = np.asarray(m), np.asarray(w_out), np.asarray(w_in)
    return metric_scale(np.swapaxes(m, -1, -2), w_out[None, :], w_in[:, None], out_den, in_den)


def weighted_sq(x, w, den: int = 1) -> np.ndarray:
    """Elementwise ``|x|^2 w / den``: the squared weighted norm of a column
    whose one nonzero is x, in row weight ``w / den`` (an integer metric
    over its common denominator, or ``den`` 1), as :func:`column_norms_sq`
    gives it.  Float data has ``den`` 1."""
    if not _is_exact(x, w):
        return np.abs(x) ** 2 * w
    return _at_nonzeros(lambda a, b: Fraction(a.numerator * a.numerator * b.numerator,
                                              a.denominator * a.denominator * b.denominator * den),
                        (x,), (w,))


def _times(a, b):
    """``a * b``, or the other factor itself when one is 1."""
    return b if a == 1 else a if b == 1 else a * b


def mul(a, b) -> np.ndarray:
    """Elementwise ``a * b`` of broadcast arrays; on object data only pairs
    of nonzero factors are multiplied, and a factor 1 gives the other
    factor, shared (Fractions are immutable), not a new Fraction."""
    return a * b if not _is_exact(a, b) else _at_nonzeros(_times, (a, b))


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
