"""Linear maps between truncated spaces, adjoints, and shift realizations.

The multiplication operator f -> z^N f is represented exactly as a
rectangular map from the truncation of dimension d into the truncation of
dimension d + N.  No coefficient is ever cut off, so the algebraic identities
built from these maps hold at finite dimension and not merely in the limit.

Adjoints are taken with respect to the diagonal metrics of the domain and
codomain: adj(M) = G_in^(-1) M^H G_out.

A map has one of two storage forms, fixed when it is built.  The dense form
holds the matrix; it is the reference.  The index form holds a partial
weighted permutation, a matrix with at most one nonzero in each row and
column.  In the monomial basis z^N is a weighted shift (Shields, "Weighted
shift operators and analytic function theory", 1974), so the shift, its
restrictions to residue ladders, their adjoints, Gram operators,
pseudoinverses, lifts and every product of these have that form, and on it
each operation here is a few gathers and one elementwise product.  So do
the embeddings of the subspaces built from residue ladders (see
``subspaces.Subspace``): this module is the one that reads the index form,
and :func:`unit_map`, :func:`transpose`, :func:`displace`,
:func:`null_space`, :func:`index_span` and :func:`hstack` build it for them.
"""

from __future__ import annotations

import numpy as np

from . import _exact
from .errors import DimensionMismatch, SingularGram
from .space import TruncatedSpace

#: Gram operators with a worse 2-norm condition number than this are refused.
GRAM_CONDITION_LIMIT = 1e12


def to_float(a: np.ndarray) -> np.ndarray:
    """Convert an exact object array to float64 (no-op for float data)."""
    if a.dtype == object:
        return a.astype(np.float64)
    return a


class LinearMap:
    """Matrix of a linear map in the bases of its domain and codomain spaces.

    A map knows only its two spaces and its data.  A map between the
    coordinate spaces of subspaces, as ``subspaces.restrict`` returns, does
    not know those subspaces; whoever built it keeps them.

    The constructor stores the dense form.  The index form (see
    :meth:`_indexed`) is built by :func:`unit_map` (and with it
    :func:`shift` and :func:`identity_map`), :func:`null_space` and
    :func:`index_span`, and kept by :meth:`adjoint`, :meth:`compose` and
    :func:`displace` of index maps, by ``+``/``-`` of two index maps whose
    patterns agree (in each column the rows are equal or one column is
    empty, and no row is hit twice), by :func:`hstack` under the same rule
    and by the Gram inverse.  Any other result is dense.  Both forms give
    the values of the dense expressions: an entry of a product is the one
    product of two nonzero factors that the dense sum adds zeros to,
    computed by itself, and a product with a dense factor is the left
    factor's :meth:`apply` to the right factor's matrix.  No map is inspected for its
    structure; ``matrix`` is built from the index form on first read and
    kept.
    """

    def __init__(self, domain: TruncatedSpace, codomain: TruncatedSpace, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.shape != (codomain.dim, domain.dim):
            raise DimensionMismatch(f"matrix shape {matrix.shape} does not match map "
                                    f"{domain.dim} -> {codomain.dim}")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        self._bind(domain, codomain)
        self._matrix, self._rows, self._vals = matrix, None, None

    @classmethod
    def _indexed(cls, domain, codomain, rows, vals) -> "LinearMap":
        """Index form: column j holds ``vals[j]`` in row ``rows[j]``, or is
        empty where ``rows[j] == -1`` and ``vals[j]`` is zero.  Both arrays
        end in one padding entry, -1 and zero, so a gather at row index -1
        reads an empty column."""
        m = cls.__new__(cls)
        m._bind(domain, codomain)
        rows.flags.writeable = vals.flags.writeable = False
        m._matrix, m._rows, m._vals = None, rows, vals
        return m

    def _bind(self, domain, codomain) -> None:
        if domain.mode != codomain.mode:
            raise DimensionMismatch("domain and codomain use different scalar modes")
        self.domain, self.codomain, self.mode = domain, codomain, domain.mode

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            d = self.domain.dim
            mat = self.mode.zeros((self.codomain.dim + 1, d), self._vals)
            mat[self._rows[:-1], np.arange(d)] = self._vals[:-1]
            mat = mat[:-1]
            mat.flags.writeable = False
            self._matrix = mat
        return self._matrix

    def _at_rows(self, a: np.ndarray) -> np.ndarray:
        """``a[rows[j]]`` for every column j of the index form, 1 for the empty ones."""
        return np.concatenate((a, (1,)))[self._rows]

    def _transposed(self, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index form of the transposed pattern, with ``vals[j]`` at the
        entry that column j's nonzero moves to."""
        rows = np.full(self.codomain.dim + 1, -1)
        out = self.mode.zeros(self.codomain.dim + 1, vals)
        rows[self._rows] = np.arange(self.domain.dim + 1)
        out[self._rows] = vals  # empty columns write their zero to the padding
        rows[-1] = -1
        return rows, out

    def apply(self, cols: np.ndarray) -> np.ndarray:
        """Image of a coefficient array: one vector, or a block of columns.

        One product for every map and every dtype: a dense map's matrix
        product, or an index map's one elementwise product of its values
        with the gathered rows, whatever the dtypes of the map and the
        columns (a real map applied to complex columns gives complex128).
        """
        cols = np.asarray(cols)
        if cols.ndim not in (1, 2) or cols.shape[0] != self.domain.dim:
            raise DimensionMismatch(
                f"expected {self.domain.dim} rows of coefficients, got shape {cols.shape}"
            )
        if self._rows is None:
            return _exact.mm(self._matrix, cols)
        vals = self._vals[:-1] if cols.ndim == 1 else self._vals[:-1, None]
        out = self.mode.zeros((self.codomain.dim + 1,) + cols.shape[1:], self._vals, cols)
        out[self._rows[:-1]] = _exact.mul(vals, cols)
        return out[:-1]

    def column_norms_sq(self) -> np.ndarray:
        """Squared codomain norms of the columns: the images of the domain's
        coordinate vectors, measured without applying the map."""
        if self._rows is None:
            return self.codomain.column_norms_sq(self._matrix)
        w, den = self.codomain.scaled_metric
        return _exact.weighted_sq(self._vals, self._at_rows(w), den)[:-1]

    def is_zero(self) -> bool:
        """Whether every entry is exactly zero."""
        return not np.count_nonzero(self._matrix if self._rows is None else self._vals)

    def adjoint(self) -> "LinearMap":
        (w_out, out_den), (w_in, in_den) = self.codomain.scaled_metric, self.domain.scaled_metric
        if self._rows is None:
            return LinearMap(self.codomain, self.domain, _exact.metric_adjoint(
                self._matrix, w_out, w_in, out_den, in_den))
        w_in = np.concatenate((w_in, (1,)))  # the padding entry's domain weight
        vals = _exact.metric_scale(self._vals, self._at_rows(w_out), w_in, out_den, in_den)
        return LinearMap._indexed(self.codomain, self.domain, *self._transposed(vals))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain != self.domain:
            raise DimensionMismatch("composition needs other.codomain == self.domain")
        if other._rows is None or self._rows is None:
            return LinearMap(other.domain, self.codomain, self.apply(other.matrix))
        return LinearMap._indexed(other.domain, self.codomain, self._rows[other._rows],
                                  _exact.mul(self._vals[other._rows], other._vals))

    def _combine(self, other: "LinearMap", op) -> "LinearMap":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise DimensionMismatch("maps act between different spaces")
        a, b = self._rows, other._rows
        if a is not None and b is not None:
            rows = np.maximum(a, b)
            clashes = np.count_nonzero((np.minimum(a, b) >= 0) & (a != b))
            if not clashes and not np.count_nonzero(np.bincount(rows + 1)[1:] > 1):
                return LinearMap._indexed(self.domain, self.codomain, rows,
                                          op(self._vals, other._vals))
        return LinearMap(self.domain, self.codomain, op(self.matrix, other.matrix))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self._combine(other, _exact.sub)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return self._combine(other, _exact.add)

    def __repr__(self) -> str:
        return f"LinearMap({self.domain.dim} -> {self.codomain.dim}, mode={self.mode.value})"


def unit_map(domain: TruncatedSpace, codomain: TruncatedSpace, rows) -> LinearMap:
    """Index map sending the coordinate vector e_j to e_(rows[j]), for
    distinct rows in ``range(codomain.dim)``: shifts, identities, ladder
    embeddings and the kernels of index maps are such maps."""
    vals = domain.mode.zeros(domain.dim + 1)
    vals[:-1] = domain.mode.one
    return LinearMap._indexed(domain, codomain,
                              np.append(np.asarray(rows, dtype=np.int64), -1), vals)


def transpose(m: LinearMap) -> LinearMap:
    """The transposed index map, from m's codomain into its domain.  For a
    unit map whose domain metric is its codomain's at the rows it hits, as
    a ladder's embedding, it is the metric adjoint: every ratio is w / w = 1."""
    return LinearMap._indexed(m.codomain, m.domain, *m._transposed(m._vals))


def displace(m: LinearMap, codomain: TruncatedSpace, step: int = 0) -> LinearMap:
    """``m`` followed by the unit map e_n -> e_(n + step) into ``codomain``,
    which drops the entries whose rows leave it: the inclusion into a
    larger truncation, the cut to a smaller one, and the shift by z^step
    inside one.  The values are moved, not multiplied."""
    if m._rows is None:
        out = m.mode.zeros((codomain.dim, m.domain.dim), m._matrix)
        lo, hi = max(step, 0), min(codomain.dim, m.codomain.dim + step)
        out[lo:hi] = m._matrix[lo - step: hi - step]
        return LinearMap(m.domain, codomain, out)
    rows = m._rows + step
    rows[(m._rows < 0) | (rows < 0) | (rows >= codomain.dim)] = -1
    return LinearMap._indexed(m.domain, codomain, rows, np.where(rows >= 0, m._vals, m._vals[-1]))


def _unit_space(k: int, mode) -> TruncatedSpace:
    """Coordinate space of dimension k with the unit metric."""
    return TruncatedSpace(metric=mode.zeros(k) + mode.one, mode=mode)


def identity_map(space: TruncatedSpace) -> LinearMap:
    return unit_map(space, space, np.arange(space.dim))


def _require_graded_pair(domain: TruncatedSpace, codomain: TruncatedSpace, step: int) -> None:
    if domain.weights is None or codomain.weights is None:
        raise DimensionMismatch("graded shift maps need weight-backed ambient spaces")
    if codomain.dim != domain.dim + step:
        raise DimensionMismatch(
            f"codomain dimension must be domain + {step}, got "
            f"{domain.dim} -> {codomain.dim}"
        )
    if not codomain.agrees_with(domain):
        raise DimensionMismatch("domain and codomain weights disagree")


def shift(domain: TruncatedSpace, codomain: TruncatedSpace, N: int) -> LinearMap:
    """Multiplication by z^N as an exact map into the larger truncation."""
    if N < 1:
        raise DimensionMismatch(f"multiplicity N must be >= 1, got {N}")
    _require_graded_pair(domain, codomain, N)
    return unit_map(domain, codomain, np.arange(N, N + domain.dim))


def weighted_matrix(m: LinearMap) -> np.ndarray:
    """Float representative G_out^(1/2) M G_in^(-1/2) of the map.

    Its Euclidean singular values are the metric singular values of the map.
    """
    mat = to_float(m.matrix)
    sw_out = np.sqrt(to_float(np.asarray(m.codomain.metric)))
    sw_in = np.sqrt(to_float(np.asarray(m.domain.metric)))
    return (mat * sw_out[:, None]) / sw_in[None, :]


def _weighted_values(m: LinearMap) -> np.ndarray:
    """The entries of :func:`weighted_matrix` at the nonzeros of an index
    map, one per column (zero for an empty one), padded like its values."""
    sw_out = np.sqrt(to_float(np.asarray(m.codomain.metric)))
    sw_in = np.sqrt(to_float(np.asarray(m.domain.metric)))
    return (to_float(m._vals) * m._at_rows(sw_out)) / np.concatenate((sw_in, (1,)))


def singular_values(m: LinearMap) -> np.ndarray:
    """Metric singular values of the map, largest first.

    An index map's are the absolute values of its weighted entries (see
    :func:`_weighted_values`), sorted, with the coordinate vectors at their
    positions as singular vectors, and LAPACK is not called; exact data is
    weighted in float64 as :func:`weighted_matrix` does.  A dense map takes
    the SVD of :func:`weighted_matrix`, the reference.
    """
    k = min(m.domain.dim, m.codomain.dim)
    if k == 0:
        return np.zeros(0)
    if m._rows is None:
        return np.linalg.svd(weighted_matrix(m), compute_uv=False)
    return np.sort(np.abs(_weighted_values(m)[:-1]))[::-1][:k]


def operator_norm(m: LinearMap) -> float:
    s = singular_values(m)
    return float(s[0]) if len(s) else 0.0


def smallest_singular_value(m: LinearMap) -> float:
    s = singular_values(m)
    return float(s[-1]) if len(s) else 0.0


def _gram_inverse(t: LinearMap) -> LinearMap:
    """Inverse of the Gram operator T*T; raises SingularGram when it has none.

    Exact mode refuses a singular Gram operator.  Float mode refuses one
    whose metric condition number ``s[0] / s[-1]`` (the formula of
    ``np.linalg.cond``, on :func:`singular_values`) exceeds
    ``GRAM_CONDITION_LIMIT``.  The Gram operator of an index map is an
    index map, diagonal apart from empty columns; in either mode it is
    inverted by writing the reciprocals at the transposed positions, and it
    is singular when a column holds no nonzero.  A dense one takes
    ``_exact.invert`` or ``np.linalg.inv``, the references.
    """
    gram = t.adjoint().compose(t)
    if gram.domain.dim == 0:
        return gram
    if not t.mode.is_exact:
        s = singular_values(gram)
        cond = s[0] / s[-1] if s[-1] > 0 else np.inf
        if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
            raise SingularGram(f"Gram operator condition number {cond:.3e} exceeds "
                               f"{GRAM_CONDITION_LIMIT:.0e}")
    if gram._rows is not None:
        if not _exact.support(gram._vals[:-1]).all():  # exact mode: float mode refused it
            raise SingularGram("Gram operator is singular")
        vals = gram._vals.copy()
        vals[:-1] = 1 / gram._vals[:-1]
        return LinearMap._indexed(gram.codomain, gram.domain, *gram._transposed(vals))
    if t.mode.is_exact:
        try:
            inv = _exact.invert(gram.matrix)
        except ZeroDivisionError:
            raise SingularGram("Gram operator is singular") from None
    else:
        inv = np.linalg.inv(gram.matrix)
    return LinearMap(gram.domain, gram.codomain, inv)


def pinv(t: LinearMap) -> LinearMap:
    """Metric Moore-Penrose pseudoinverse (T* T)^(-1) T* of an injective map.

    It is a left inverse: pinv(t) o t is the identity on the domain, and
    t o pinv(t) is the metric-orthogonal projector onto the range of t.  Its
    adjoint pinv(t).adjoint() = T (T* T)^(-1) is the norm-expanding lift
    (the Gram inverse is metric-self-adjoint): applying it never shrinks the
    metric norm.
    """
    return _gram_inverse(t).compose(t.adjoint())


def null_space(m: LinearMap, tol: float) -> LinearMap:
    """Map whose columns span {v : ||m v|| <= tol ||v||} in m's domain; in
    exact mode, the kernel.  Its domain numbers the columns, with the unit
    metric.

    An index map, in either mode, has its kernel read off its structural
    zeros without an elimination or an SVD: it is spanned by the coordinate
    vectors of the columns that hold no nonzero (exact mode) or no weighted
    entry (see :func:`_weighted_values`) above ``tol`` (float mode), and the
    result is the :func:`unit_map` onto them, in increasing column order.
    A dense map takes ``_exact.nullspace``, or in float mode cuts the
    singular values of :func:`weighted_matrix` at the absolute ``tol``,
    which is scale-free in the metric, and maps the null right singular
    vectors back to coordinates by the inverse square root of the domain
    metric; these are the references.
    """
    if m._rows is None:
        if m.mode.is_exact:
            cols = _exact.nullspace(m.matrix)
        else:
            _u, s, vt = np.linalg.svd(weighted_matrix(m), full_matrices=True)
            rank = int(np.sum(s > tol))
            cols = vt[rank:].conj().T / np.sqrt(np.asarray(m.domain.metric))[:, None]
        return LinearMap(_unit_space(cols.shape[1], m.mode), m.domain, cols)
    null = np.flatnonzero(~_live_columns(m, tol))
    return unit_map(_unit_space(len(null), m.mode), m.domain, null)


def _live_columns(m: LinearMap, tol: float) -> np.ndarray:
    """Which columns of an index map hold a nonzero (exact mode) or a
    weighted entry (see :func:`_weighted_values`) above ``tol`` (float mode)."""
    if m.mode.is_exact:
        return _exact.support(m._vals[:-1])
    return np.abs(_weighted_values(m)[:-1]) > tol


def live_rows(m: LinearMap, tol: float) -> np.ndarray:
    """The rows, in increasing order, that hold a nonzero entry (exact
    mode) or an entry of :func:`weighted_matrix` above ``tol`` in absolute
    value (float mode).

    An index map reads its weighted entries from :func:`_weighted_values`,
    the same IEEE products and quotients, one per column; a dense map scans
    its matrix or :func:`weighted_matrix`, the reference.
    """
    if m._rows is None:
        live = _exact.support(m.matrix) if m.mode.is_exact else np.abs(weighted_matrix(m)) > tol
        return np.flatnonzero(live.any(axis=1))
    return np.sort(m._rows[:-1][_live_columns(m, tol)])


def index_entries(m: LinearMap) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
    """The nonzero entries of an index map as ``(columns, rows, values)``,
    in increasing column order; None for a dense map.  No two entries
    share a row or a column."""
    if m._rows is None:
        return None
    cols = np.flatnonzero(_exact.support(m._vals[:-1]))
    return cols, m._rows[cols], m._vals[cols]


def index_span(m: LinearMap) -> "LinearMap | None":
    """Embedding of the span of an index map's columns; None for a dense map.

    The nonzero columns of an index map hit distinct rows, so they are
    orthogonal in the codomain's diagonal metric by construction, and the
    empty ones are dropped.  In both modes the values are kept and the
    squared norms ``|v|^2 w[row]`` are the coordinate metric.
    """
    if m._rows is None:
        return None
    keep = _exact.support(m._vals[:-1])
    pick = np.append(np.flatnonzero(keep), -1)
    norms = m.column_norms_sq()[keep]
    return LinearMap._indexed(TruncatedSpace(metric=norms, mode=m.mode), m.codomain,
                              m._rows[pick], m._vals[pick])


def hstack(maps) -> LinearMap:
    """The map whose columns are those of ``maps``, in turn, into their one
    codomain.  It is an index map when every map is one and no row is hit
    twice, the rule of ``+``; otherwise it is dense."""
    cod = maps[0].codomain
    dom = TruncatedSpace(metric=np.concatenate([m.domain.metric for m in maps]), mode=cod.mode)
    if all(m._rows is not None for m in maps):
        rows = np.concatenate([m._rows[:-1] for m in maps] + [[-1]])
        if not np.count_nonzero(np.bincount(rows + 1)[1:] > 1):
            vals = np.concatenate([m._vals[:-1] for m in maps] + [maps[0]._vals[-1:]])
            return LinearMap._indexed(dom, cod, rows, vals)
    return LinearMap(dom, cod, np.concatenate([m.matrix for m in maps], axis=1))
