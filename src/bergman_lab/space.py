"""Truncated weighted spaces and coefficient vectors.

A ``TruncatedSpace`` is span{1, z, ..., z^(D-1)} equipped with the diagonal
inner product <f, g> = sum_n omega_n a_n conj(b_n).  Vectors are stored in raw
monomial coefficients; the metric is applied at inner-product time.  The same
class also serves as the coordinate space of a subspace expressed in an
orthogonal basis, where the diagonal metric holds the squared basis norms.

In float mode the space is complex, so the coefficient vectors made here
(``vector``, ``monomial``, ``random_vector``) are complex128.  The weights are
real, and so are the operators and bases built from them: the mode stores
those as float64 (see ``ScalarMode.zeros``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import AmbientMismatch, DimensionMismatch
from .weights import Scalar, ScalarMode, WeightSequence

#: Denominator grid used for reproducible rational test vectors.
_EXACT_DENOM = 2**16


class TruncatedSpace:
    """Finite-dimensional space with a diagonal positive metric."""

    def __init__(
        self,
        weights: Optional[WeightSequence] = None,
        dim: Optional[int] = None,
        *,
        metric: Optional[np.ndarray] = None,
        mode: Optional[ScalarMode] = None,
    ):
        if weights is not None:
            self.weights = weights
            self.mode = weights.mode
            self.dim = len(weights) if dim is None else dim
            if self.dim > len(weights):
                raise DimensionMismatch(
                    f"dim {self.dim} exceeds weight sequence length {len(weights)}"
                )
            metric = np.asarray(weights.values[: self.dim])
        else:
            if metric is None or mode is None:
                raise ValueError("either weights or (metric, mode) is required")
            if dim is not None and dim != len(metric):
                raise DimensionMismatch(
                    f"dim {dim} does not match metric length {len(metric)}"
                )
            self.weights = None
            self.mode = mode
            self.dim = len(metric)
            metric = np.asarray(metric)
        metric = metric.copy()
        metric.flags.writeable = False
        self.metric = metric

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSpace):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.mode == other.mode
            and bool((self.metric == other.metric).all())
        )

    __hash__ = None  # spaces compare by value; not hashable

    def __repr__(self) -> str:
        kind = "ambient" if self.weights is not None else "coords"
        return f"TruncatedSpace(dim={self.dim}, mode={self.mode.value}, {kind})"

    def zeros(self) -> np.ndarray:
        return self.mode.zeros(self.dim)

    def norm_sq(self, a: np.ndarray):
        """Squared weighted norm of a coefficient array; a Fraction in exact mode."""
        return self.column_norms_sq(np.asarray(a)[:, None])[0]

    def column_norms_sq(self, mat: np.ndarray) -> np.ndarray:
        """Squared weighted norm of every column of ``mat`` at once.

        The one weighted-norm routine.  Float mode sums each column as one
        contiguous row of a transposed copy, in the same order at any block
        width.  Exact mode adds the terms of nonzero entries only.
        """
        if self.mode.is_exact:
            out = self.mode.zeros(mat.shape[1])
            i_nz, j_nz = np.nonzero(mat != 0)
            for i, j, x in zip(i_nz.tolist(), j_nz.tolist(), mat[i_nz, j_nz]):
                out[j] += x * x * self.metric[i]
            return out
        rows = np.ascontiguousarray(mat.T)
        return np.sum(np.abs(rows) ** 2 * self.metric, axis=1)


class CoefficientVector:
    """Element of a truncated space, held as monomial/basis coefficients."""

    def __init__(self, space: TruncatedSpace, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs)
        if coeffs.shape != (space.dim,):
            raise DimensionMismatch(
                f"expected {space.dim} coefficients, got shape {coeffs.shape}"
            )
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        self.space = space
        self.coeffs = coeffs

    def _check_same_space(self, other: "CoefficientVector") -> None:
        if self.space != other.space:
            raise AmbientMismatch("vectors live in different truncated spaces")

    def __add__(self, other: "CoefficientVector") -> "CoefficientVector":
        self._check_same_space(other)
        return CoefficientVector(self.space, self.coeffs + other.coeffs)

    def __sub__(self, other: "CoefficientVector") -> "CoefficientVector":
        self._check_same_space(other)
        return CoefficientVector(self.space, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "CoefficientVector":
        return CoefficientVector(self.space, self.coeffs * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CoefficientVector(dim={self.space.dim}, mode={self.space.mode.value})"


def vector(space: TruncatedSpace, coeffs: Sequence) -> CoefficientVector:
    """Wrap raw coefficients, coercing them to the space's scalar type."""
    if space.mode.is_exact:
        arr = np.empty(len(coeffs), dtype=object)
        arr[:] = [Fraction(c) for c in coeffs]
    else:
        arr = np.asarray(coeffs, dtype=np.complex128)
    return CoefficientVector(space, arr)


def monomial(space: TruncatedSpace, n: int, coeff: Union[Scalar, complex] = 1) -> CoefficientVector:
    """The basis vector z^n (scaled by ``coeff``)."""
    if not 0 <= n < space.dim:
        raise DimensionMismatch(f"degree {n} outside truncation of dimension {space.dim}")
    if space.mode.is_exact:
        c = space.zeros()
        c[n] = Fraction(coeff)
    else:
        c = np.zeros(space.dim, dtype=np.complex128)
        c[n] = complex(coeff)
    return CoefficientVector(space, c)


def inner(f: CoefficientVector, g: CoefficientVector):
    """Weighted inner product sum_n omega_n f_n conj(g_n)."""
    f._check_same_space(g)
    return np.sum(f.space.metric * f.coeffs * np.conjugate(g.coeffs))


def norm_sq(f: CoefficientVector):
    """Squared weighted norm; exact (a Fraction) in exact mode."""
    return f.space.norm_sq(f.coeffs)


def norm(f: CoefficientVector) -> float:
    return float(np.sqrt(float(norm_sq(f))))


def random_vector(space: TruncatedSpace, seed: int) -> CoefficientVector:
    """Deterministic pseudo-random vector, components uniform on a box.

    Float mode draws complex coefficients with real and imaginary parts
    uniform on [-1, 1].  Exact mode draws real rational coefficients on the
    dyadic grid k / 2^16 over the same interval, so identities evaluated on
    these vectors stay inside the rational field.
    """
    rng = np.random.default_rng(seed)
    if space.mode.is_exact:
        ints = rng.integers(-_EXACT_DENOM, _EXACT_DENOM + 1, size=space.dim)
        arr = np.empty(space.dim, dtype=object)
        arr[:] = [Fraction(int(k), _EXACT_DENOM) for k in ints]
        return CoefficientVector(space, arr)
    re = rng.uniform(-1.0, 1.0, size=space.dim)
    im = rng.uniform(-1.0, 1.0, size=space.dim)
    return CoefficientVector(space, re + 1j * im)


def random_columns(space: TruncatedSpace, seeds: Iterable[int]) -> np.ndarray:
    """``random_vector(space, s).coeffs`` for each seed, stacked as columns."""
    cols = [random_vector(space, int(s)).coeffs for s in seeds]
    return np.stack(cols, axis=1) if cols else space.mode.buffer((space.dim, 0))
