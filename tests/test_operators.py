"""Shift, metric adjoint, restriction, and pseudoinverse factor tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bergman_lab import (
    NotInvariant,
    ScalarMode,
    SingularGram,
    TruncatedSpace,
    WeightParams,
    from_vectors,
    full_subspace,
    identity_map,
    inner,
    iterated_coeff,
    monomial,
    norm,
    operator_norm,
    pinv,
    random_vector,
    residue_subspace,
    restrict,
    shift,
    shift_adjoint,
    shift_coeff,
    singular_values,
    smallest_singular_value,
    vector,
    weight_sequence,
)
from bergman_lab.operators import LinearMap, _gram_inverse, to_float, weighted_matrix

FLOAT = ScalarMode.FLOAT64
EXACT = ScalarMode.EXACT_RATIONAL


def spaces(alpha, N, D, mode=FLOAT):
    ws = weight_sequence(WeightParams(alpha, N, D + N), mode)
    return TruncatedSpace(ws, D), TruncatedSpace(ws, D + N)


def test_shift_matrix_entries():
    dom, cod = spaces(0.5, 2, 6)
    s = shift(dom, cod, 2)
    m = s.matrix
    assert m.shape == (8, 6)
    for n in range(6):
        col = np.zeros(8, dtype=complex)
        col[n + 2] = 1.0
        assert np.array_equal(m[:, n], col)


def test_shift_action_on_monomials():
    """S z^n = z^(n+N) with coefficient 1; the norm shrinks by sqrt(C)."""
    dom, cod = spaces(1.0, 3, 8)
    s = shift(dom, cod, 3)
    for n in range(8):
        img = s.apply(monomial(dom, n))
        expected = monomial(cod, n + 3)
        assert np.array_equal(img.coeffs, expected.coeffs)
        c = shift_coeff(3, 1.0, n, FLOAT)
        assert norm(img) == pytest.approx(math.sqrt(c) * norm(monomial(dom, n)), rel=1e-14)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_shift_adjoint_matches_metric_formula(mode):
    """Oracle: adj(M) = diag(1/w_in) M^H diag(w_out), computed inline."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    dom, cod = spaces(alpha, 2, 7, mode)
    s = shift(dom, cod, 2)
    w_in = np.asarray(dom.metric)
    w_out = np.asarray(cod.metric)
    expected = (s.matrix.T * w_out[None, :]) / w_in[:, None]
    if mode.is_exact:
        assert (s.adjoint().matrix == expected).all()
        assert (shift_adjoint(cod, dom, 2).matrix == expected).all()
    else:
        got = s.adjoint().matrix
        assert np.allclose(to_float(got), to_float(expected), rtol=1e-15, atol=0)
        assert np.allclose(to_float(shift_adjoint(cod, dom, 2).matrix),
                           to_float(expected), rtol=1e-15, atol=0)


def test_shift_adjoint_entries_are_coeffs():
    dom, cod = spaces(Fraction(0), 2, 6, EXACT)
    sa = shift_adjoint(cod, dom, 2)
    for n in range(6):
        assert sa.matrix[n, n + 2] == shift_coeff(2, Fraction(0), n, EXACT)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_adjoint_involution(mode):
    alpha = Fraction(1, 3) if mode.is_exact else 1.0 / 3.0
    dom, cod = spaces(alpha, 1, 9, mode)
    s = shift(dom, cod, 1)
    back = s.adjoint().adjoint()
    if mode.is_exact:
        assert (back.matrix == s.matrix).all()
    else:
        assert np.max(np.abs(back.matrix - s.matrix)) <= 1e-13


def test_adjoint_defining_property():
    """<S f, g> = <f, S* g> for random vectors."""
    dom, cod = spaces(2.5, 2, 10)
    s = shift(dom, cod, 2)
    sa = s.adjoint()
    for seed in range(5):
        f = random_vector(dom, seed)
        g = random_vector(cod, seed + 50)
        assert inner(s.apply(f), g) == pytest.approx(inner(f, sa.apply(g)), rel=1e-13)


def test_compose_and_identity():
    ws = weight_sequence(WeightParams(0.0, 1, 8), FLOAT)
    dom, cod = TruncatedSpace(ws, 5), TruncatedSpace(ws, 6)
    s = shift(dom, cod, 1)
    assert np.array_equal((s @ identity_map(dom)).matrix, s.matrix)
    assert np.array_equal((identity_map(cod) @ s).matrix, s.matrix)
    two_step = shift(cod, TruncatedSpace(ws, 7), 1) @ s
    assert two_step.matrix.shape == (7, 5)
    assert two_step.matrix[2, 0] == 1.0


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_restrict_full_space_is_shift(mode):
    """Restricting to the full residue lattice reproduces the shift matrix."""
    alpha = Fraction(1) if mode.is_exact else 1.0
    dom, cod = spaces(alpha, 2, 8, mode)
    s = shift(dom, cod, 2)
    h = full_subspace(dom, 2)
    t = restrict(s, h)
    assert (t.matrix == s.matrix).all()
    assert np.array_equal(np.asarray(t.domain.metric), np.asarray(dom.metric))


def test_restrict_single_residue_ladder():
    """On span{1, z^2, z^4} with N = 2 the shift is the coordinate subdiagonal."""
    dom, cod = spaces(0.5, 2, 6)
    s = shift(dom, cod, 2)
    h = residue_subspace(dom, 2, (0,))
    t = restrict(s, h)
    assert t.matrix.shape == (4, 3)
    expected = np.zeros((4, 3), dtype=complex)
    expected[1, 0] = expected[2, 1] = expected[3, 2] = 1.0
    assert np.array_equal(t.matrix, expected)
    # ladder coordinate metric is the weight slice at degrees 0, 2, 4
    w = np.asarray(dom.metric)
    assert np.array_equal(np.asarray(t.domain.metric), w[[0, 2, 4]])


def test_restrict_preserves_norm():
    dom, cod = spaces(2.5, 3, 12)
    s = shift(dom, cod, 3)
    h = residue_subspace(dom, 3, (1,))
    t = restrict(s, h)
    for seed in range(5):
        g = random_vector(t.domain, seed)
        ambient = vector(dom, h.basis @ g.coeffs)
        assert norm(t.apply(g)) == pytest.approx(norm(s.apply(ambient)), rel=1e-12)


def test_restrict_rejects_non_invariant():
    dom, cod = spaces(0.0, 2, 6)
    s = shift(dom, cod, 2)
    bad = from_vectors(dom, np.array([[1.0, ], [1.0, ], [0, ], [0, ], [0, ], [0, ]]))
    with pytest.raises(NotInvariant):
        restrict(s, bad)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_pinv_is_left_inverse(mode):
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    dom, cod = spaces(alpha, 2, 10, mode)
    t = restrict(shift(dom, cod, 2), residue_subspace(dom, 2, (0, 1)))
    left = pinv(t) @ t
    eye = identity_map(t.domain)
    if mode.is_exact:
        assert (left.matrix == eye.matrix).all()
    else:
        assert operator_norm(left - eye) <= 1e-12


def test_pinv_adjoint_frozen_action():
    """For N = 1, alpha = 0 the lift sends 1 to 2z: 1/C(1,0,0) = 2."""
    dom, cod = spaces(Fraction(0), 1, 6, EXACT)
    t = restrict(shift(dom, cod, 1), full_subspace(dom, 1))
    a = pinv(t).adjoint()
    img = a.matrix[:, 0]
    expected = np.array([Fraction(0), Fraction(2)] + [Fraction(0)] * 5, dtype=object)
    assert (img == expected).all()


@pytest.mark.parametrize("residues", [(0,), (0, 1)])
def test_pinv_adjoint_is_t_times_gram_inverse(residues):
    """The adjoint of the left inverse is exactly T (T* T)^(-1), entry for entry."""
    dom, cod = spaces(Fraction(1, 2), 2, 12, EXACT)
    t = restrict(shift(dom, cod, 2), residue_subspace(dom, 2, residues))
    lift = pinv(t).adjoint()
    direct = t.compose(_gram_inverse(t))
    assert lift.matrix.shape == direct.matrix.shape
    assert (lift.matrix == direct.matrix).all()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pinv_adjoint_iterates_match_iterated_coeff(m):
    """The m-fold lift acts on z^n by iterated_coeff * z^(n + mN), exactly."""
    N, D = 2, 8
    alpha = Fraction(1, 2)
    ws = weight_sequence(WeightParams(alpha, N, D + (m + 1) * N), EXACT)
    levels = [TruncatedSpace(ws, D + j * N) for j in range(m + 1)]
    chain = None
    for j in range(m):
        t = restrict(shift(levels[j], levels[j + 1], N), full_subspace(levels[j], N))
        lift = pinv(t).adjoint()
        chain = lift if chain is None else lift @ chain
    for n in range(D):
        col = chain.matrix[:, n]
        q = iterated_coeff(N, alpha, n, m, EXACT)
        for row in range(D + m * N):
            assert col[row] == (q if row == n + m * N else 0)


def test_singular_values_are_sqrt_coeffs():
    """Metric singular values of the full shift are sqrt(C(N, alpha, n))."""
    dom, cod = spaces(1.0, 2, 10)
    s = shift(dom, cod, 2)
    got = np.sort(singular_values(s))
    expected = np.sort(np.sqrt([shift_coeff(2, 1.0, n, FLOAT) for n in range(10)]))
    assert np.allclose(got, expected, rtol=1e-13)
    assert operator_norm(s) < 1.0
    assert smallest_singular_value(s) >= (3.0 + 1.0) ** -1 ** 2 - 1e-12


def test_sigma_min_above_lower_bound():
    for alpha in (-0.5, 0.0, 2.5):
        for N in (1, 2, 3):
            dom, cod = spaces(alpha, N, 24)
            t = restrict(shift(dom, cod, N), residue_subspace(dom, N, (0,)))
            assert smallest_singular_value(t) >= (3.0 + alpha) ** (-N / 2.0) - 1e-12


def test_singular_gram_on_rank_deficient_map():
    g = np.ones(3)
    dom = TruncatedSpace(metric=g, mode=FLOAT)
    cod = TruncatedSpace(metric=np.ones(4), mode=FLOAT)
    mat = np.zeros((4, 3))
    mat[:, 0] = 1.0
    mat[:, 1] = 1.0  # dependent columns
    t = LinearMap(dom, cod, mat)
    with pytest.raises(SingularGram):
        pinv(t)


def test_singular_gram_exact():
    dom = TruncatedSpace(metric=np.array([Fraction(1)] * 2, dtype=object), mode=EXACT)
    cod = TruncatedSpace(metric=np.array([Fraction(1)] * 3, dtype=object), mode=EXACT)
    mat = np.array([[Fraction(1), Fraction(1)],
                    [Fraction(1), Fraction(1)],
                    [Fraction(0), Fraction(0)]], dtype=object)
    with pytest.raises(SingularGram):
        pinv(LinearMap(dom, cod, mat))


def test_weighted_matrix_norm_agrees_with_sampling():
    dom, cod = spaces(0.5, 2, 12)
    s = shift(dom, cod, 2)
    op = operator_norm(s)
    best = 0.0
    for seed in range(20):
        f = random_vector(dom, seed)
        best = max(best, norm(s.apply(f)) / norm(f))
    assert best <= op * (1 + 1e-12)
    assert op <= 1.0
    wm = weighted_matrix(s)
    assert wm.shape == s.matrix.shape
    assert np.linalg.norm(wm, 2) == pytest.approx(op, rel=1e-14)
