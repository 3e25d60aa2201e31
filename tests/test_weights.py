"""Weight sequence and shift coefficient tests against independent oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bergman_lab import (
    InvalidAlpha,
    ModeMismatch,
    ScalarMode,
    WeightParams,
    WeightSequence,
    coerce_alpha,
    lower_bound,
    shift_coeff,
    weight_sequence,
)
from oracles import iterated_coeff

FLOAT = ScalarMode.FLOAT64
EXACT = ScalarMode.EXACT_RATIONAL


def gamma_quotient(alpha: float, n: int) -> float:
    """Independent oracle: omega_n = n! Gamma(2 + alpha) / Gamma(n + 2 + alpha)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    val = mp.gamma(n + 1) * mp.gamma(2 + alpha) / mp.gamma(n + 2 + alpha)
    return float(val)


def product_formula(alpha: Fraction, n: int) -> Fraction:
    # omega_n = prod_{k<n} (k + 1) / (k + 2 + alpha), telescoped Gamma quotient
    w = Fraction(1)
    for k in range(n):
        w *= Fraction(k + 1) / (k + 2 + alpha)
    return w


# frozen values, alpha = 1/2, computed from the Gamma quotient at 50 digits
FROZEN_HALF = {
    0: 1.0,
    1: 0.4,
    2: 0.22857142857142856,
    3: 0.1523809523809524,
    5: 0.08524808524808525,
    10: 0.0352513282921144,
    63: 0.002581277648896484,
}


@pytest.mark.parametrize("n,expected", sorted(FROZEN_HALF.items()))
def test_weights_frozen_alpha_half(n, expected):
    ws = weight_sequence(WeightParams(0.5, 1, 64), FLOAT)
    assert ws[n] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 20])
def test_weights_unweighted_disk(n):
    """alpha = 0 collapses to omega_n = 1 / (n + 1)."""
    ws = weight_sequence(WeightParams(0.0, 1, 32), FLOAT)
    assert ws[n] == pytest.approx(1.0 / (n + 1), rel=1e-15)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
def test_weights_alpha_one_closed_form(n):
    # omega_n = 2 / ((n + 1)(n + 2)) at alpha = 1
    ws = weight_sequence(WeightParams(Fraction(1), 1, 16), EXACT)
    assert ws[n] == Fraction(2, (n + 1) * (n + 2))


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 2.5])
@pytest.mark.parametrize("n", [1, 10, 100, 999, 9999])
def test_weights_match_gamma_quotient(alpha, n):
    """Recurrence stays within 1e-13 of the Gamma quotient up to n = 10^4."""
    ws = weight_sequence(WeightParams(alpha, 1, 10_000), FLOAT)
    expected = gamma_quotient(alpha, n)
    assert abs(ws[n] - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(7, 3)])
def test_weights_exact_product_oracle(alpha):
    ws = weight_sequence(WeightParams(alpha, 1, 40), EXACT)
    for n in range(40):
        assert ws[n] == product_formula(alpha, n)


def test_weights_exact_frozen_values():
    ws = weight_sequence(WeightParams(Fraction(1, 2), 1, 8), EXACT)
    assert ws[3] == Fraction(16, 105)
    assert ws[5] == Fraction(256, 3003)


def test_weight_sequence_container():
    params = WeightParams(0.5, 2, 12)
    ws = weight_sequence(params, FLOAT)
    assert isinstance(ws, WeightSequence)
    assert len(ws) == 12
    assert ws[0] == 1.0
    with pytest.raises((ValueError, RuntimeError)):
        ws.values[3] = 7.0  # read-only backing array


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_shift_coeff_is_weight_ratio(N, mode):
    """C(N, alpha, n) * omega_n = omega_{n+N}: the norm of z^N * z^n."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    ws = weight_sequence(WeightParams(alpha, N, 24 + N), mode)
    for n in range(24):
        c = shift_coeff(N, alpha, n, mode)
        if mode.is_exact:
            assert c * ws[n] == ws[n + N]
        else:
            assert c * ws[n] == pytest.approx(ws[n + N], rel=1e-14)


def test_shift_coeff_frozen():
    assert shift_coeff(3, 2.5, 7, FLOAT) == pytest.approx(0.3710144927536232, rel=1e-15)
    assert shift_coeff(3, Fraction(5, 2), 7, EXACT) == Fraction(128, 345)
    # N = 2, alpha = 0 telescopes to (n + 1) / (n + 3)
    for n in range(10):
        assert shift_coeff(2, Fraction(0), n, EXACT) == Fraction(n + 1, n + 3)


@pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.0, 1.0, 2.5, 10.0])
@pytest.mark.parametrize("N", [1, 2, 4])
def test_shift_coeff_strict_bounds(alpha, N):
    lo = lower_bound(N, alpha)
    assert lo == pytest.approx((3.0 + alpha) ** (-N), rel=1e-15)
    for n in range(200):
        c = shift_coeff(N, alpha, n, FLOAT)
        assert lo < c < 1.0


def test_lower_bound_exact_for_rational_alpha():
    assert lower_bound(2, Fraction(1, 2)) == Fraction(4, 49)
    assert isinstance(lower_bound(3, Fraction(0)), Fraction)
    assert isinstance(lower_bound(3, 0.0), float)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_iterated_coeff_is_weight_ratio(mode):
    """prod_{j<m} 1/C(N, alpha, n + jN) = omega_n / omega_{n+mN} > 1."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    N, m_max = 2, 4
    ws = weight_sequence(WeightParams(alpha, N, 16 + m_max * N), mode)
    for n in range(16):
        for m in range(m_max + 1):
            q = iterated_coeff(N, alpha, n, m, mode)
            if mode.is_exact:
                assert q == ws[n] / ws[n + m * N]
            else:
                assert q == pytest.approx(ws[n] / ws[n + m * N], rel=1e-13)
            if m == 0:
                assert q == 1
            else:
                assert q > 1


@pytest.mark.parametrize("mode,dtype,scalar",
                         [(FLOAT, np.float64, float), (EXACT, object, Fraction)])
def test_scalar_mode_storage(mode, dtype, scalar):
    z = mode.zeros((2, 3))
    assert z.shape == (2, 3) and z.dtype == dtype
    assert all(isinstance(x, scalar) for x in (*z.flat, mode.one))
    assert not (z != 0).any() and mode.one == 1


def test_passes_decides_exact_verdicts_by_equality_and_float_ones_by_tol():
    """The verdict rule: exact mode needs every defect exactly zero whatever
    the tolerance; float mode needs every measure within it, and a NaN
    measure never is."""
    zero, tiny, small = (0.0, True), (1e-30, False), (1e-3, False)
    assert EXACT.passes([zero, zero], 0.0) and EXACT.passes([], 0.0)
    assert not EXACT.passes([zero, tiny], 1.0)
    assert FLOAT.passes([zero, tiny], 1e-12) and FLOAT.passes([], 0.0)
    assert not FLOAT.passes([zero, small], 1e-12)
    assert FLOAT.passes([small], 1e-3)
    assert not FLOAT.passes([(math.nan, False)], 1.0)


def test_alpha_validation():
    with pytest.raises(InvalidAlpha):
        WeightParams(-1.0, 1, 8)
    with pytest.raises(InvalidAlpha):
        WeightParams(-2.5, 2, 8)
    with pytest.raises(InvalidAlpha):
        shift_coeff(1, -1.0, 0, FLOAT)
    with pytest.raises(InvalidAlpha):
        WeightParams(math.inf, 1, 8)
    with pytest.raises(InvalidAlpha):
        coerce_alpha(math.inf, FLOAT)
    with pytest.raises(InvalidAlpha):
        lower_bound(1, math.inf)
    with pytest.raises(InvalidAlpha):
        shift_coeff(1, math.inf, 0, FLOAT)


def test_weight_underflow_is_invalid_alpha():
    """A float weight that underflows to 0.0 would zero the metric."""
    assert weight_sequence(WeightParams(1e300, 1, 2), FLOAT)[1] == 1e-300
    with pytest.raises(InvalidAlpha, match="omega_2"):
        weight_sequence(WeightParams(1e300, 1, 3), FLOAT)


def test_weight_too_small_for_a_metric_ratio_is_invalid_alpha():
    """Below 1 / max float64 a weight overflows the metric ratio omega_0 /
    omega_n, and a map's metric adjoint gets inf * 0 = NaN entries: at N=3,
    D=256 the tower reads omega_0 .. omega_267, and omega_266 falls below
    that bound at alpha 1300 while still a nonzero subnormal."""
    tiny = 1 / np.finfo(np.float64).max
    ws = weight_sequence(WeightParams(1200.0, 3, 268), FLOAT)
    assert ws[267] > tiny
    with pytest.raises(InvalidAlpha, match="omega_266 "):
        weight_sequence(WeightParams(1300.0, 3, 268), FLOAT)
    with pytest.raises(InvalidAlpha, match="omega_257 "):
        weight_sequence(WeightParams(1390.0, 3, 268), FLOAT)
    # D=1024 at alpha 300 reaches 1.04e-308, below the normal range but not the bound
    ws = weight_sequence(WeightParams(300.0, 3, 1036), FLOAT)
    assert tiny < ws[1035] < np.finfo(np.float64).tiny
    # exact weights are never refused for their size
    assert weight_sequence(WeightParams(Fraction(1300), 3, 268), EXACT)[267] > 0


def test_mode_mismatch_float_alpha_in_exact_mode():
    with pytest.raises(ModeMismatch):
        coerce_alpha(0.5, EXACT)
    with pytest.raises(ModeMismatch):
        weight_sequence(WeightParams(0.5, 1, 8), EXACT)


def test_weight_params_validation():
    with pytest.raises(ValueError):
        WeightParams(0.0, 0, 8)
    with pytest.raises(ValueError):
        WeightParams(0.0, 4, 4)  # D must exceed N


def test_exact_weights_are_fractions():
    ws = weight_sequence(WeightParams(Fraction(1, 3), 1, 6), EXACT)
    assert all(isinstance(ws[n], Fraction) for n in range(6))
    assert ws[1] == Fraction(3, 7)  # omega_1 = 1 / (2 + alpha)
    assert math.isclose(float(ws[1]), 3.0 / 7.0)
