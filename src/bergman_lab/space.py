"""Truncated weighted spaces and their random test columns.

A ``TruncatedSpace`` is span{1, z, ..., z^(D-1)} equipped with the diagonal
inner product <f, g> = sum_n omega_n a_n conj(b_n).  Vectors are plain
coefficient arrays in raw monomial coefficients, one column per vector when a
family is measured at once; the metric is applied at norm time.  The same
class also serves as the coordinate space of a subspace expressed in an
orthogonal basis, where the diagonal metric holds the squared basis norms.

In float mode the space is complex, so the random columns drawn here
(``random_columns``) are complex128.  The weights are real, and so are the
operators and bases built from them: the mode stores those as float64 (see
``ScalarMode.zeros``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from . import _exact
from .errors import DimensionMismatch
from .weights import ScalarMode, WeightSequence

#: Denominator grid used for reproducible rational test vectors.
_EXACT_DENOM = 2**16


class TruncatedSpace:
    """Finite-dimensional space with a diagonal positive metric."""

    def __init__(self, weights: Optional[WeightSequence] = None, dim: Optional[int] = None,
                 *, metric: Optional[np.ndarray] = None, mode: Optional[ScalarMode] = None):
        if weights is not None:
            self.weights = weights
            self.mode = weights.mode
            self.dim = len(weights) if dim is None else dim
            if not 0 <= self.dim <= len(weights):
                raise DimensionMismatch(
                    f"dim {self.dim} outside 0 .. weight sequence length {len(weights)}")
            metric = np.asarray(weights.values[: self.dim])
        else:
            if metric is None or mode is None:
                raise ValueError("either weights or (metric, mode) is required")
            if dim is not None and dim != len(metric):
                raise DimensionMismatch(f"dim {dim} does not match metric length {len(metric)}")
            self.weights = None
            self.mode = mode
            self.dim = len(metric)
            metric = np.asarray(metric)
        metric = metric.copy()
        metric.flags.writeable = False
        self.metric = metric
        self._scaled = None if self.mode.is_exact else (metric, 1)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, TruncatedSpace):
            return NotImplemented
        return (self.dim == other.dim and self.mode == other.mode
                and bool((self.metric == other.metric).all()))

    __hash__ = None  # spaces compare by value; not hashable

    def __repr__(self) -> str:
        kind = "ambient" if self.weights is not None else "coords"
        return f"TruncatedSpace(dim={self.dim}, mode={self.mode.value}, {kind})"

    @property
    def scaled_metric(self) -> tuple[np.ndarray, int]:
        """The metric as the kernels of ``_exact`` read it: ``(W, L)`` with
        ``metric == W / L``, in exact mode Python ints over one common
        denominator, in float mode the metric over 1.  An exact space
        computes it on first read and keeps it: a weight-backed one slices
        its sequence's, whose ``L`` serves every prefix."""
        if self._scaled is None:
            if self.weights is None:
                self._scaled = _exact.over_common_denominator(self.metric)
            else:
                w, den = self.weights.scaled_values
                self._scaled = w[: self.dim], den
        return self._scaled

    def agrees_with(self, other: "TruncatedSpace") -> bool:
        """Whether the two spaces share a scalar mode and their metrics agree
        on the dimensions both have, as two truncations of one weighted space do."""
        d = min(self.dim, other.dim)
        return self.mode == other.mode and bool((self.metric[:d] == other.metric[:d]).all())

    def column_norms_sq(self, mat: np.ndarray) -> np.ndarray:
        """Squared weighted norm of every column of ``mat`` at once.

        The one weighted-norm routine, :func:`_exact.column_norms_sq` in
        this space's metric: float mode sums each column in the same order
        at any block width; exact mode sums the integer terms of the nonzero
        entries against :attr:`scaled_metric` and makes one Fraction per
        column.
        """
        return _exact.column_norms_sq(mat, *self.scaled_metric)


def random_numerators(dim: int, seeds: Iterable[int]) -> np.ndarray:
    """The integers k of the exact random columns k / 2^16, as int64: one
    column of ``dim`` integers in [-2^16, 2^16] per seed, each drawn from
    its own ``default_rng(seed)``.  The one home of the exact seed-to-bits
    rule: :func:`random_columns` divides these by 2^16, and
    ``subspaces.reducing_census`` tests its exact controls on them directly.
    """
    seeds = [int(s) for s in seeds]
    out = np.empty((dim, len(seeds)), dtype=np.int64)
    for j, seed in enumerate(seeds):
        out[:, j] = np.random.default_rng(seed).integers(-_EXACT_DENOM, _EXACT_DENOM + 1,
                                                         size=dim)
    return out


def random_columns(space: TruncatedSpace, seeds: Iterable[int]) -> np.ndarray:
    """Deterministic pseudo-random columns, one per seed, uniform on a box.

    Each column comes from its own ``default_rng(seed)``.  Float mode draws
    complex coefficients, the column's real part and then its imaginary
    part, each uniform on [-1, 1].  Exact mode draws real rational
    coefficients on the dyadic grid k / 2^16 over the same interval, the
    integers k of :func:`random_numerators`, so identities evaluated on
    these columns stay inside the rational field.
    """
    seeds = [int(s) for s in seeds]
    if space.mode.is_exact:
        ints = random_numerators(space.dim, seeds)
        cols = space.mode.zeros(ints.size)
        cols[:] = [Fraction(k, _EXACT_DENOM) for k in ints.ravel().tolist()]
        return cols.reshape(ints.shape)
    cols = np.zeros((space.dim, len(seeds)), dtype=np.complex128)
    for j, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        cols[:, j].real = rng.uniform(-1.0, 1.0, size=space.dim)
        cols[:, j].imag = rng.uniform(-1.0, 1.0, size=space.dim)
    return cols
