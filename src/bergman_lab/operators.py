"""Linear maps between truncated spaces, adjoints, and shift realizations.

The multiplication operator f -> z^N f is represented exactly as a
rectangular map from the truncation of dimension d into the truncation of
dimension d + N.  No coefficient is ever cut off, so the algebraic identities
built from these maps hold at finite dimension and not merely in the limit.

Adjoints are taken with respect to the diagonal metrics of the domain and
codomain: adj(M) = G_in^(-1) M^H G_out.
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

    ``domain_sub``/``codomain_sub`` optionally record the subspaces whose
    coordinate spaces the map acts between (set by ``subspaces.restrict``),
    so that coordinate vectors can be re-expressed in the ambient truncation.
    """

    def __init__(
        self,
        domain: TruncatedSpace,
        codomain: TruncatedSpace,
        matrix: np.ndarray,
        *,
        domain_sub=None,
        codomain_sub=None,
    ):
        matrix = np.asarray(matrix)
        if matrix.shape != (codomain.dim, domain.dim):
            raise DimensionMismatch(
                f"matrix shape {matrix.shape} does not match map "
                f"{domain.dim} -> {codomain.dim}"
            )
        if domain.mode != codomain.mode:
            raise DimensionMismatch("domain and codomain use different scalar modes")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.mode = domain.mode
        self.domain_sub = domain_sub
        self.codomain_sub = codomain_sub

    def apply(self, cols: np.ndarray) -> np.ndarray:
        """Image of a coefficient array: one vector, or a block of columns.

        A real float64 matrix maps complex columns as two real products, of
        the real and of the imaginary parts, instead of being cast whole to
        complex128.
        """
        cols = np.asarray(cols)
        if cols.ndim not in (1, 2) or cols.shape[0] != self.domain.dim:
            raise DimensionMismatch(
                f"expected {self.domain.dim} rows of coefficients, got shape {cols.shape}"
            )
        if self.matrix.dtype == np.float64 and cols.dtype.kind == "c":
            out = _exact.mm(self.matrix, cols.real).astype(np.complex128)
            out.imag = _exact.mm(self.matrix, cols.imag)
            return out
        return _exact.mm(self.matrix, cols)

    def adjoint(self) -> "LinearMap":
        return LinearMap(
            self.codomain,
            self.domain,
            _exact.metric_adjoint(self.matrix, self.codomain.metric, self.domain.metric),
            domain_sub=self.codomain_sub,
            codomain_sub=self.domain_sub,
        )

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain != self.domain:
            raise DimensionMismatch("composition needs other.codomain == self.domain")
        return LinearMap(
            other.domain,
            self.codomain,
            _exact.mm(self.matrix, other.matrix),
            domain_sub=other.domain_sub,
            codomain_sub=self.codomain_sub,
        )

    def _check_same_shape(self, other: "LinearMap") -> None:
        if self.domain != other.domain or self.codomain != other.codomain:
            raise DimensionMismatch("maps act between different spaces")

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        self._check_same_shape(other)
        return LinearMap(self.domain, self.codomain, _exact.sub(self.matrix, other.matrix),
                         domain_sub=self.domain_sub, codomain_sub=self.codomain_sub)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._check_same_shape(other)
        return LinearMap(self.domain, self.codomain, _exact.add(self.matrix, other.matrix),
                         domain_sub=self.domain_sub, codomain_sub=self.codomain_sub)

    def __repr__(self) -> str:
        return (
            f"LinearMap({self.domain.dim} -> {self.codomain.dim}, "
            f"mode={self.mode.value})"
        )


def identity_map(space: TruncatedSpace) -> LinearMap:
    return LinearMap(space, space, space.mode.eye(space.dim))


def _require_graded_pair(domain: TruncatedSpace, codomain: TruncatedSpace, step: int) -> None:
    if domain.weights is None or codomain.weights is None:
        raise DimensionMismatch("graded shift maps need weight-backed ambient spaces")
    if codomain.dim != domain.dim + step:
        raise DimensionMismatch(
            f"codomain dimension must be domain + {step}, got "
            f"{domain.dim} -> {codomain.dim}"
        )
    if not (np.asarray(codomain.metric)[: domain.dim] == np.asarray(domain.metric)).all():
        raise DimensionMismatch("domain and codomain weights disagree")


def shift(domain: TruncatedSpace, codomain: TruncatedSpace, N: int) -> LinearMap:
    """Multiplication by z^N as an exact map into the larger truncation."""
    if N < 1:
        raise DimensionMismatch(f"multiplicity N must be >= 1, got {N}")
    _require_graded_pair(domain, codomain, N)
    m = domain.mode.zeros((codomain.dim, domain.dim))
    for n in range(domain.dim):
        m[N + n, n] = domain.mode.one
    return LinearMap(domain, codomain, m)


def weighted_matrix(m: LinearMap) -> np.ndarray:
    """Float representative G_out^(1/2) M G_in^(-1/2) of the map.

    Its Euclidean singular values are the metric singular values of the map.
    """
    mat = to_float(m.matrix)
    sw_out = np.sqrt(to_float(np.asarray(m.codomain.metric)))
    sw_in = np.sqrt(to_float(np.asarray(m.domain.metric)))
    return (mat * sw_out[:, None]) / sw_in[None, :]


def _isolated_nonzeros(mat: np.ndarray):
    """``(rows, cols)`` of the nonzeros of a matrix in which no two nonzeros
    share a row or a column; None otherwise.

    In both modes every map of a residue-ladder tower has this shape: the
    restricted shift is a weighted shift, and so are its adjoint, its
    diagonal Gram operator, its pseudoinverse factors and their products.
    Such a matrix needs no factorization: its metric singular values are the
    absolute values of its weighted entries, with the coordinate vectors at
    their positions as singular vectors.
    """
    if np.count_nonzero(mat) > min(mat.shape):
        return None
    rows, cols = np.nonzero(_exact.support(mat))
    if len(set(rows.tolist())) < len(rows) or len(set(cols.tolist())) < len(cols):
        return None
    return rows, cols


def singular_values(m: LinearMap) -> np.ndarray:
    """Metric singular values of the map, largest first.

    When no two nonzeros share a row or a column (see
    :func:`_isolated_nonzeros`) they are the sorted absolute values of the
    weighted entries, padded with zeros to ``min(shape)``, and LAPACK is not
    called; exact data is weighted in float64 as :func:`weighted_matrix`
    does.  Every other matrix takes the dense SVD of :func:`weighted_matrix`,
    the reference the shortcut is tested against.
    """
    if 0 in m.matrix.shape:
        return np.zeros(0)
    w = weighted_matrix(m)
    nz = _isolated_nonzeros(m.matrix)
    if nz is None:
        return np.linalg.svd(w, compute_uv=False)
    s = np.zeros(min(w.shape))
    vals = np.sort(np.abs(w[nz]))[::-1]
    s[: len(vals)] = vals
    return s


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
    ``GRAM_CONDITION_LIMIT``.  A Gram matrix whose nonzeros share no row or
    column, as on a residue ladder where it is diagonal, is inverted in
    either mode by writing the reciprocals at the transposed positions; it
    is singular when it has fewer nonzeros than rows.  Any other takes
    ``_exact.invert`` or ``np.linalg.inv``, the references the shortcut is
    tested against.
    """
    gram = t.adjoint().compose(t)
    n = gram.domain.dim
    if n == 0:
        return gram
    nz = _isolated_nonzeros(gram.matrix)
    if not t.mode.is_exact:
        s = singular_values(gram)
        cond = s[0] / s[-1] if s[-1] > 0 else np.inf
        if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
            raise SingularGram(f"Gram operator condition number {cond:.3e} exceeds "
                               f"{GRAM_CONDITION_LIMIT:.0e}")
    if nz is None and t.mode.is_exact:
        try:
            inv = _exact.invert(gram.matrix)
        except ZeroDivisionError:
            raise SingularGram("Gram operator is singular") from None
    elif nz is None:
        inv = np.linalg.inv(gram.matrix)
    elif len(nz[0]) < n:  # exact mode: float mode refused it by its condition number
        raise SingularGram("Gram operator is singular")
    else:
        rows, cols = nz
        inv = t.mode.buffer(gram.matrix.shape, gram.matrix)
        inv[cols, rows] = 1 / gram.matrix[rows, cols]
    return LinearMap(gram.domain, gram.codomain, inv,
                     domain_sub=gram.domain_sub, codomain_sub=gram.codomain_sub)


def pinv(t: LinearMap) -> LinearMap:
    """Metric Moore-Penrose pseudoinverse (T* T)^(-1) T* of an injective map.

    It is a left inverse: pinv(t) o t is the identity on the domain, and
    t o pinv(t) is the metric-orthogonal projector onto the range of t.  Its
    adjoint pinv(t).adjoint() = T (T* T)^(-1) is the norm-expanding lift
    (the Gram inverse is metric-self-adjoint): applying it never shrinks the
    metric norm.
    """
    return _gram_inverse(t).compose(t.adjoint())

