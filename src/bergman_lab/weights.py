"""Weight sequences of the weighted Bergman space and derived shift coefficients.

The ambient space is the weighted Bergman space on the unit disk whose monomial
norms are given by

    omega_n = n! * Gamma(2 + alpha) / Gamma(n + 2 + alpha),    alpha > -1,

so omega_0 = 1 and omega_{n+1} = omega_n * (n + 1) / (n + 2 + alpha).  Every
quantity in this module is a finite product of the ratios appearing in that
recurrence, which keeps both arithmetic modes (double precision and exact
rational) on the same code path.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Union

import numpy as np

from . import _exact
from .errors import InvalidAlpha, ModeMismatch

Scalar = Union[float, Fraction]


class ScalarMode(enum.Enum):
    """Arithmetic backend: IEEE double precision or exact rational numbers."""

    FLOAT64 = "float64"
    EXACT_RATIONAL = "exact"

    @property
    def is_exact(self) -> bool:
        return self is ScalarMode.EXACT_RATIONAL

    @property
    def one(self) -> Scalar:
        """The unit scalar of this mode: Fraction(1) or 1.0."""
        return Fraction(1) if self.is_exact else 1.0

    def zeros(self, shape, *like: np.ndarray) -> np.ndarray:
        """Zero array in this mode's storage, to be filled from ``like``.

        Exact mode stores Fractions.  Float mode takes the dtype that holds
        every entry of ``like``: float64, or complex128 when any of it is
        complex, so no imaginary part is ever cast away.  Operators and bases
        built from the weights are real, so without ``like`` float mode
        stores float64; only coefficient columns are complex (see
        ``space.random_columns``), and numpy promotes mixed products by itself.
        """
        if self.is_exact:
            return _exact.zeros(shape)
        return np.zeros(shape, dtype=np.result_type(np.float64, *like))

    def passes(self, defects, tol: float) -> bool:
        """The one verdict rule: whether every defect, a pair (float measure,
        whether it is exactly zero) of a quantity expected to vanish, does.

        Exact mode passes only when every defect is exactly zero, and never
        reads ``tol``; float mode when every measure is at most ``tol``.
        """
        return all(zero if self.is_exact else measure <= tol for measure, zero in defects)


def _validate_alpha(alpha: Scalar) -> None:
    if isinstance(alpha, complex):
        raise InvalidAlpha(f"alpha must be real, got {alpha!r}")
    if not alpha > -1:
        raise InvalidAlpha(f"alpha must satisfy alpha > -1, got {alpha!r}")
    if not isinstance(alpha, Rational) and not math.isfinite(alpha):
        raise InvalidAlpha(f"alpha must be finite, got {alpha!r}")


def coerce_alpha(alpha: Scalar, mode: ScalarMode) -> Scalar:
    """Validate alpha and convert it to the scalar type of ``mode``.

    Exact mode only accepts values that were supplied as ratios of integers;
    a plain float is rejected rather than silently reinterpreted.
    """
    _validate_alpha(alpha)
    if mode.is_exact:
        if not isinstance(alpha, Rational):
            raise ModeMismatch(
                f"exact mode needs alpha as an integer ratio, got {alpha!r}"
            )
        return Fraction(alpha)
    return float(alpha)


@dataclass(frozen=True)
class WeightParams:
    """Parameters of a truncated weighted space.

    N is the multiplicity of the shift (the power of z being multiplied by)
    and D the truncation dimension, i.e. polynomials of degree < D.
    """

    alpha: Scalar
    N: int
    D: int

    def __post_init__(self) -> None:
        _validate_alpha(self.alpha)
        if self.N < 1:
            raise ValueError(f"multiplicity N must be >= 1, got {self.N}")
        if self.D < self.N + 1:
            raise ValueError(
                f"truncation dimension D must be >= N + 1, got D={self.D}, N={self.N}"
            )


class WeightSequence:
    """Monomial norms omega_0, ..., omega_{D-1}, strictly decreasing, omega_0 = 1."""

    def __init__(self, params: WeightParams, mode: ScalarMode, values: np.ndarray):
        self.params = params
        self.mode = mode
        values.flags.writeable = False
        self.values = values

    def __len__(self) -> int:
        return len(self.values)

    @functools.cached_property
    def scaled_values(self) -> tuple[np.ndarray, int]:
        """``(W, L)`` with ``values == W / L`` in exact mode: Python ints over
        the least common denominator of the weights, which is a common
        denominator of every prefix."""
        return _exact.over_common_denominator(self.values)

    def __getitem__(self, n: int) -> Scalar:
        return self.values[n]

    def __repr__(self) -> str:
        return (
            f"WeightSequence(alpha={self.params.alpha}, len={len(self)}, "
            f"mode={self.mode.value})"
        )


def weight_sequence(params: WeightParams, mode: ScalarMode = ScalarMode.FLOAT64) -> WeightSequence:
    """Compute omega_0 .. omega_{D-1} by the first-order recurrence."""
    alpha = coerce_alpha(params.alpha, mode)
    values = []
    w = mode.one
    for n in range(params.D):
        values.append(w)
        w = w * (n + 1) / (n + 2 + alpha)
    # Fractions stack into an object array, floats into a float64 one
    values = np.asarray(values)
    # below 1 / max, a float64 metric ratio omega_m / omega_n overflows
    small = [] if mode.is_exact else np.flatnonzero(values * np.finfo(np.float64).max < 1)
    if len(small):
        raise InvalidAlpha(f"weight omega_{small[0]} = {values[small[0]]:.3g} is too small "
                           f"for float64 metric ratios at alpha={alpha!r}")
    return WeightSequence(params, mode, values)


def _telescope(N: int, alpha: Scalar, n: int, one: Scalar) -> Scalar:
    out = one
    for j in range(N):
        out = out * (n + j + 1) / (n + j + 2 + alpha)
    return out


def shift_coeff(N: int, alpha: Scalar, n: int, mode: ScalarMode = ScalarMode.FLOAT64) -> Scalar:
    """Norm ratio ||z^(N+n)||^2 / ||z^n||^2 = omega_{n+N} / omega_n.

    Computed as the telescoping product of N recurrence steps,

        prod_{j=0}^{N-1} (n + j + 1) / (n + j + 2 + alpha),

    which lies strictly between (3 + alpha)^(-N) and 1.
    """
    if N < 1 or n < 0:
        raise ValueError(f"need N >= 1 and n >= 0, got N={N}, n={n}")
    return _telescope(N, coerce_alpha(alpha, mode), n, mode.one)


def shift_coeffs(N: int, alpha: Scalar, D: int,
                 mode: ScalarMode = ScalarMode.FLOAT64) -> list[Scalar]:
    """The coefficients ``[shift_coeff(N, alpha, n, mode) for n in range(D)]``,
    each by the same telescoping product, with alpha validated once."""
    if N < 1 or D < 0:
        raise ValueError(f"need N >= 1 and D >= 0, got N={N}, D={D}")
    alpha = coerce_alpha(alpha, mode)
    return [_telescope(N, alpha, n, mode.one) for n in range(D)]


def lower_bound(N: int, alpha: Scalar) -> Scalar:
    """Uniform lower bound (3 + alpha)^(-N) for the shift coefficients.

    Returns a Fraction when alpha is rational, a float otherwise.
    """
    _validate_alpha(alpha)
    if N < 1:
        raise ValueError(f"multiplicity N must be >= 1, got {N}")
    if isinstance(alpha, Rational):
        return Fraction(1) / (Fraction(alpha) + 3) ** N
    return float((3.0 + alpha) ** (-N))
