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
from .space import CoefficientVector, TruncatedSpace
from .weights import shift_coeff

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

    def apply(self, v: CoefficientVector) -> CoefficientVector:
        if v.space != self.domain:
            raise DimensionMismatch("vector does not live in the map's domain")
        return CoefficientVector(self.codomain, self.matrix @ v.coeffs)

    def adjoint(self) -> "LinearMap":
        w_out = np.asarray(self.codomain.metric)
        w_in = np.asarray(self.domain.metric)
        # the metric ratio is formed first, in real arithmetic: complex
        # division rounds even x/x
        return LinearMap(
            self.codomain,
            self.domain,
            np.conjugate(self.matrix).T * (w_out[None, :] / w_in[:, None]),
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
            self.matrix @ other.matrix,
            domain_sub=other.domain_sub,
            codomain_sub=self.codomain_sub,
        )

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return self.compose(other)

    def _check_same_shape(self, other: "LinearMap") -> None:
        if self.domain != other.domain or self.codomain != other.codomain:
            raise DimensionMismatch("maps act between different spaces")

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        self._check_same_shape(other)
        return LinearMap(self.domain, self.codomain, self.matrix - other.matrix,
                         domain_sub=self.domain_sub, codomain_sub=self.codomain_sub)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        self._check_same_shape(other)
        return LinearMap(self.domain, self.codomain, self.matrix + other.matrix,
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
    small, large = (domain, codomain) if step >= 0 else (codomain, domain)
    if not (np.asarray(large.metric)[: small.dim] == np.asarray(small.metric)).all():
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


def shift_adjoint(domain: TruncatedSpace, codomain: TruncatedSpace, N: int) -> LinearMap:
    """Adjoint of multiplication by z^N, in explicit coefficient form.

    Sends sum b_n z^n to sum_n shift_coeff(N, alpha, n) b_{N+n} z^n; the
    coefficients of degree < N are annihilated.  Agrees with
    ``shift(...).adjoint()``, which is computed by a different route.
    """
    if N < 1:
        raise DimensionMismatch(f"multiplicity N must be >= 1, got {N}")
    _require_graded_pair(domain, codomain, -N)
    alpha = domain.weights.params.alpha
    m = domain.mode.zeros((codomain.dim, domain.dim))
    for n in range(codomain.dim):
        m[n, N + n] = shift_coeff(N, alpha, n, domain.mode)
    return LinearMap(domain, codomain, m)


def weighted_matrix(m: LinearMap) -> np.ndarray:
    """Float representative G_out^(1/2) M G_in^(-1/2) of the map.

    Its Euclidean singular values are the metric singular values of the map.
    """
    mat = to_float(m.matrix)
    sw_out = np.sqrt(to_float(np.asarray(m.codomain.metric)))
    sw_in = np.sqrt(to_float(np.asarray(m.domain.metric)))
    return (mat * sw_out[:, None]) / sw_in[None, :]


def singular_values(m: LinearMap) -> np.ndarray:
    if 0 in m.matrix.shape:
        return np.zeros(0)
    return np.linalg.svd(weighted_matrix(m), compute_uv=False)


def operator_norm(m: LinearMap) -> float:
    s = singular_values(m)
    return float(s[0]) if len(s) else 0.0


def smallest_singular_value(m: LinearMap) -> float:
    s = singular_values(m)
    return float(s[-1]) if len(s) else 0.0


def _gram_inverse(t: LinearMap) -> LinearMap:
    gram = t.adjoint().compose(t)
    n = gram.domain.dim
    if n == 0:
        return gram
    if t.mode.is_exact:
        try:
            inv = _exact.invert(gram.matrix)
        except ZeroDivisionError:
            raise SingularGram("Gram operator is singular") from None
    else:
        w = weighted_matrix(gram)
        cond = np.linalg.cond(w)
        if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
            raise SingularGram(
                f"Gram operator condition number {cond:.3e} exceeds "
                f"{GRAM_CONDITION_LIMIT:.0e}"
            )
        inv = np.linalg.inv(gram.matrix)
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

