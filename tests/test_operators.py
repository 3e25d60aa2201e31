"""Shift, metric adjoint, restriction, and pseudoinverse factor tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bergman_lab import (
    DimensionMismatch,
    NotInvariant,
    ScalarMode,
    SingularGram,
    TruncatedSpace,
    WeightParams,
    extend,
    from_vectors,
    identity_map,
    operator_norm,
    pinv,
    residue_subspace,
    restrict,
    shift,
    shift_coeff,
    singular_values,
    smallest_singular_value,
    subspace_distance,
    weight_sequence,
)
from bergman_lab import _exact
from bergman_lab.operators import (
    GRAM_CONDITION_LIMIT,
    LinearMap,
    _gram_inverse,
    null_space,
    to_float,
    weighted_matrix,
)
from bergman_lab.space import random_columns
from bergman_lab.verify import _tower_cached
from oracles import (dense_copy, index_map, inner, iterated_coeff, level_maps, monomial,
                     shift_adjoint)

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
        assert np.array_equal(img, expected)
        c = shift_coeff(3, 1.0, n, FLOAT)
        assert math.sqrt(cod.column_norms_sq(img[:, None])[0]) == pytest.approx(
            math.sqrt(c) * math.sqrt(dom.column_norms_sq(monomial(dom, n)[:, None])[0]), rel=1e-14)


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
    """<S f, g> = <f, S* g> for random vectors, in the oracle inner product."""
    dom, cod = spaces(2.5, 2, 10)
    s = shift(dom, cod, 2)
    sa = s.adjoint()
    f = random_columns(dom, range(5))
    g = random_columns(cod, range(50, 55))
    s_f, sa_g = s.apply(f), sa.apply(g)
    for j in range(5):
        assert inner(cod, s_f[:, j], g[:, j]) == pytest.approx(
            inner(dom, f[:, j], sa_g[:, j]), rel=1e-13)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_apply_is_the_exact_product(mode):
    """apply on one coefficient array or on a block of columns is the
    product with the matrix, entry for entry; any other shape is refused."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    dom, cod = spaces(alpha, 2, 7, mode)
    maps = [shift(dom, cod, 2), shift(dom, cod, 2).adjoint()]
    for m in maps:
        block = random_columns(m.domain, range(3))
        for cols in (block, block[:, 0], block[:, :0], block.real.copy()):
            got = m.apply(cols)
            want = _exact.mm(m.matrix, cols)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
        bad = [block[1:], block[:, 0][1:], np.concatenate([block, block]),
               block[:, :, None], block[0, 0]]
        for cols in bad:
            with pytest.raises(DimensionMismatch):
                m.apply(cols)


def test_dense_real_map_applies_complex_columns_as_one_product():
    """A dense float64 map applied to complex columns is the one complex128
    product ``m.matrix @ cols``, entry for entry, for a block, one column and
    an empty block."""
    dom, cod = spaces(0.5, 2, 40)
    rng = np.random.default_rng(7)
    m = LinearMap(dom, cod, rng.uniform(-1.0, 1.0, (cod.dim, dom.dim)))
    block = random_columns(dom, range(3))
    assert block.dtype == np.complex128
    for cols in (block, block[:, 0], block[:, :0]):
        got = m.apply(cols)
        assert got.dtype == np.complex128
        assert got.shape == (cod.dim,) + cols.shape[1:]
        assert np.array_equal(got, m.matrix @ cols)


def test_compose_and_identity():
    ws = weight_sequence(WeightParams(0.0, 1, 8), FLOAT)
    dom, cod = TruncatedSpace(ws, 5), TruncatedSpace(ws, 6)
    s = shift(dom, cod, 1)
    assert np.array_equal(s.compose(identity_map(dom)).matrix, s.matrix)
    assert np.array_equal(identity_map(cod).compose(s).matrix, s.matrix)
    two_step = shift(cod, TruncatedSpace(ws, 7), 1).compose(s)
    assert two_step.matrix.shape == (7, 5)
    assert two_step.matrix[2, 0] == 1.0


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_restrict_full_space_is_shift(mode):
    """Restricting to the full residue lattice reproduces the shift matrix."""
    alpha = Fraction(1) if mode.is_exact else 1.0
    dom, cod = spaces(alpha, 2, 8, mode)
    s = shift(dom, cod, 2)
    h = residue_subspace(dom, 2, range(2))
    t = restrict(s, h, residue_subspace(cod, 2, range(2)))
    assert (t.matrix == s.matrix).all()
    assert np.array_equal(np.asarray(t.domain.metric), np.asarray(dom.metric))


def test_restrict_single_residue_ladder():
    """On span{1, z^2, z^4} with N = 2 the shift is the coordinate subdiagonal."""
    dom, cod = spaces(0.5, 2, 6)
    s = shift(dom, cod, 2)
    h = residue_subspace(dom, 2, (0,))
    t = restrict(s, h, residue_subspace(cod, 2, (0,)))
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
    t = restrict(s, h, residue_subspace(cod, 3, (1,)))
    g = random_columns(t.domain, range(5))
    ambient = h.basis @ g
    got = t.codomain.column_norms_sq(t.apply(g))
    want = cod.column_norms_sq(s.apply(ambient))
    assert np.sqrt(got) == pytest.approx(np.sqrt(want), rel=1e-12)


def test_restrict_rejects_non_invariant():
    dom, cod = spaces(0.0, 2, 6)
    s = shift(dom, cod, 2)
    bad = from_vectors(dom, np.array([[1.0, ], [1.0, ], [0, ], [0, ], [0, ], [0, ]]))
    with pytest.raises(NotInvariant):
        restrict(s, bad, extend(bad, cod))


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_pinv_is_left_inverse(mode):
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    dom, cod = spaces(alpha, 2, 10, mode)
    t = restrict(shift(dom, cod, 2), residue_subspace(dom, 2, (0, 1)),
                 residue_subspace(cod, 2, (0, 1)))
    left = pinv(t).compose(t)
    eye = identity_map(t.domain)
    if mode.is_exact:
        assert (left.matrix == eye.matrix).all()
    else:
        assert operator_norm(left - eye) <= 1e-12


def test_pinv_adjoint_frozen_action():
    """For N = 1, alpha = 0 the lift sends 1 to 2z: 1/C(1,0,0) = 2."""
    dom, cod = spaces(Fraction(0), 1, 6, EXACT)
    t = restrict(shift(dom, cod, 1), residue_subspace(dom, 1, range(1)),
                 residue_subspace(cod, 1, range(1)))
    a = pinv(t).adjoint()
    img = a.matrix[:, 0]
    expected = np.array([Fraction(0), Fraction(2)] + [Fraction(0)] * 5, dtype=object)
    assert (img == expected).all()


@pytest.mark.parametrize("residues", [(0,), (0, 1)])
def test_pinv_adjoint_is_t_times_gram_inverse(residues):
    """The adjoint of the left inverse is exactly T (T* T)^(-1), entry for entry."""
    dom, cod = spaces(Fraction(1, 2), 2, 12, EXACT)
    t = restrict(shift(dom, cod, 2), residue_subspace(dom, 2, residues),
                 residue_subspace(cod, 2, residues))
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
        full = residue_subspace(levels[j], N, range(N))
        t = restrict(shift(levels[j], levels[j + 1], N), full,
                     residue_subspace(levels[j + 1], N, range(N)))
        lift = pinv(t).adjoint()
        chain = lift if chain is None else lift.compose(chain)
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


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_shift_refuses_spaces_that_are_not_a_graded_pair(mode):
    """z^N maps a weight-backed truncation into the one N dimensions larger
    of the same weights, for N >= 1; any other pair is refused."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    dom, cod = spaces(alpha, 2, 6, mode)
    other = spaces(2 * alpha, 2, 6, mode)[1]
    coords = TruncatedSpace(metric=np.asarray(dom.metric), mode=mode)
    refused = {"N < 1": (dom, TruncatedSpace(dom.weights, 6), 0),
               "coordinate domain": (coords, cod, 2),
               "coordinate codomain": (dom, TruncatedSpace(metric=np.asarray(cod.metric),
                                                           mode=mode), 2),
               "dimension": (dom, TruncatedSpace(cod.weights, 7), 2),
               "weights": (dom, other, 2),
               "mode": (dom, spaces(Fraction(1, 2), 2, 6, FLOAT if mode.is_exact else EXACT)[1],
                        2)}
    for name, (d, c, N) in refused.items():
        with pytest.raises(DimensionMismatch):
            shift(d, c, N)
            pytest.fail(name)
    assert shift(dom, cod, 2).domain is dom


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_singular_values_of_a_map_with_a_zero_dimensional_side(mode):
    """A map from or into a zero-dimensional space has no singular values;
    its norm and smallest singular value read 0.0."""
    sp = spaces(Fraction(1) if mode.is_exact else 1.0, 1, 4, mode)[0]
    empty = TruncatedSpace(metric=np.asarray(sp.metric)[:0], mode=mode)
    for m in (LinearMap(empty, sp, mode.zeros((4, 0))), LinearMap(sp, empty, mode.zeros((0, 4)))):
        assert singular_values(m).shape == (0,)
        assert operator_norm(m) == smallest_singular_value(m) == 0.0


def test_sigma_min_above_lower_bound():
    for alpha in (-0.5, 0.0, 2.5):
        for N in (1, 2, 3):
            dom, cod = spaces(alpha, N, 24)
            t = restrict(shift(dom, cod, N), residue_subspace(dom, N, (0,)),
                         residue_subspace(cod, N, (0,)))
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
    f = random_columns(dom, range(20))
    ratios = np.sqrt(cod.column_norms_sq(s.apply(f)) / dom.column_norms_sq(f))
    best = float(ratios.max())
    assert best <= op * (1 + 1e-12)
    assert op <= 1.0
    wm = weighted_matrix(s)
    assert wm.shape == s.matrix.shape
    assert np.linalg.norm(wm, 2) == pytest.approx(op, rel=1e-14)


def _isolated_map(rows, cols, is_complex, spread, seed):
    """Random index map with 0 to 2 fewer nonzeros than min(rows, cols), no
    two of them in one row or column, between float spaces whose metrics lie
    in [10^-spread, 1]."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(max(min(rows, cols) - 2, 0), min(rows, cols) + 1))
    vals = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
    if is_complex:
        vals = vals * np.exp(1j * rng.uniform(0.0, 2 * np.pi, k))
    at_row, at_col = rng.permutation(rows)[:k], rng.permutation(cols)[:k]
    dom, cod = (TruncatedSpace(metric=10.0 ** rng.uniform(-spread, 0.0, n), mode=FLOAT)
                for n in (cols, rows))
    index = np.full(cols, -1)
    index[at_col] = at_row
    col_vals = np.zeros(cols, dtype=vals.dtype)
    col_vals[at_col] = vals
    return index_map(dom, cod, index, col_vals)


ISOLATED_CASES = [(shape, is_complex, spread, seed)
                  for shape in ((9, 5), (5, 9), (7, 7), (1, 4), (4, 1))
                  for is_complex in (False, True)
                  for spread in (0, 4, 30)
                  for seed in range(4)]


def _svd_calls(monkeypatch) -> list:
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    return calls


def test_isolated_singular_values_match_the_dense_svd(monkeypatch):
    """Without an SVD, the singular values of an index map are those LAPACK
    gives for the weighted matrix of its dense copy."""
    calls = _svd_calls(monkeypatch)
    for shape, is_complex, spread, seed in ISOLATED_CASES:
        m = _isolated_map(*shape, is_complex, spread, seed)
        got = singular_values(m)
        assert not calls
        ref = singular_values(dense_copy(m))
        assert len(calls) == 1
        calls.clear()
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)
        assert operator_norm(m) == got[0] and smallest_singular_value(m) == got[-1]


def test_isolated_null_coords_match_the_svd_route(monkeypatch):
    """The kernel read off the structural zeros of an index map has the
    dimension of the SVD route's kernel, which its dense copy takes, and
    lies within metric distance 1e-12 of it."""
    calls = _svd_calls(monkeypatch)
    for shape, is_complex, spread, seed in ISOLATED_CASES:
        m = _isolated_map(*shape, is_complex, spread, seed)
        got = null_space(m, 1e-10).matrix
        assert not calls
        ref = null_space(dense_copy(m), 1e-10).matrix
        assert calls
        assert got.shape == ref.shape
        assert subspace_distance(from_vectors(m.domain, got),
                                 from_vectors(m.domain, ref)) <= 1e-12
        calls.clear()


def test_diagonal_gram_inverse_matches_numpy():
    """The Gram operator of an index map is an index map; it is inverted
    entry for entry as np.linalg.inv does, and refused exactly where
    np.linalg.cond exceeds the limit."""
    refused = inverted = 0
    for shape, is_complex, spread, seed in ISOLATED_CASES:
        t = _isolated_map(*shape, is_complex, spread, seed)
        gram = t.adjoint().compose(t)
        assert gram._rows is not None
        cond = np.linalg.cond(weighted_matrix(gram))
        if not cond <= GRAM_CONDITION_LIMIT:
            with pytest.raises(SingularGram):
                _gram_inverse(t)
            refused += 1
        else:
            inv = _gram_inverse(t)
            assert inv._rows is not None
            assert np.array_equal(inv.matrix, np.linalg.inv(gram.matrix))
            inverted += 1
    assert refused > 20 and inverted > 20


def test_shared_row_or_column_takes_the_dense_path(monkeypatch):
    """A dense map is never inspected: its singular values and its kernel
    take the SVD even when no two nonzeros share a row or a column, and so
    do maps with two nonzeros in one row or in one column; in exact mode the
    kernel takes elimination.  An exact shift is an index map."""
    calls = _svd_calls(monkeypatch)
    dom = TruncatedSpace(metric=np.array([1.0, 0.5, 0.25, 0.125]), mode=FLOAT)
    cod = TruncatedSpace(metric=np.linspace(1.0, 0.2, 5), mode=FLOAT)
    base = np.zeros((5, 4))
    base[[1, 3, 0], [0, 1, 3]] = [2.0, -1.0, 0.75]
    mats = [base]
    # row 1 gains a second nonzero, then column 0 does
    for r, c in ((1, 2), (2, 0)):
        mats.append(base.copy())
        mats[-1][r, c] = 0.5
    for mat in mats:
        m = LinearMap(dom, cod, mat)
        singular_values(m)
        null_space(m, 1e-10)
        assert len(calls) == 2
        calls.clear()
    dom, cod = spaces(Fraction(1, 2), 2, 6, EXACT)
    assert shift(dom, cod, 2)._rows is not None
    rrefs = []
    rref = _exact.rref
    monkeypatch.setattr(_exact, "rref", lambda mat: rrefs.append(1) or rref(mat))
    shared = shift(dom, cod, 2).matrix.copy()
    shared[2, 1] = Fraction(3, 4)  # row 2 holds the images of z^0 and z^1
    m = LinearMap(dom, cod, shared)
    assert (null_space(m, 1e-10).matrix == _exact.nullspace(shared)).all()
    assert len(rrefs) == 2
    assert (_gram_inverse(m).compose(m.adjoint().compose(m)).matrix == _exact.eye(6)).all()
    assert len(rrefs) == 3


def _exact_tower_maps():
    """Every map of the exact residue towers of levels 0-3, for N = 1..3,
    every residue set, D = 8 and 12, and alpha 0 and 1/2."""
    for N in (1, 2, 3):
        for size in range(N + 1):
            for residues in itertools.combinations(range(N), size):
                for D, alpha in itertools.product((8, 12), (Fraction(0), Fraction(1, 2))):
                    for j in range(4):
                        level = _tower_cached.__wrapped__(N, alpha, D, residues, EXACT, j)
                        yield from level_maps(level).items()


def test_exact_tower_maps_take_the_index_route():
    """Every exact tower map is an index map.  Its Gram inverse is the one
    _exact.invert gives, or refused where that raises, and its kernel the
    one _exact.nullspace gives, entry for entry; the singular values are
    those of the dense SVD of the weighted matrix."""
    count = 0
    for name, m in _exact_tower_maps():
        assert m._rows is not None, name
        gram = m.adjoint().compose(m).matrix
        try:
            ref = _exact.invert(gram)
        except ZeroDivisionError:
            with pytest.raises(SingularGram):
                _gram_inverse(m)
        else:
            got = _gram_inverse(m).matrix
            assert got.dtype == object and (got == ref).all(), name
        got = null_space(m, 1e-10).matrix
        ref = _exact.nullspace(m.matrix)
        assert got.dtype == object and got.shape == ref.shape, name
        assert (got == ref).all(), name
        if 0 not in m.matrix.shape:
            np.testing.assert_allclose(
                singular_values(m), np.linalg.svd(weighted_matrix(m), compute_uv=False),
                rtol=1e-14, atol=0)
        count += 1
    assert count == 2 * 2 * 4 * 4 * (2 + 4 + 8)


def test_exact_gram_with_a_zero_on_its_diagonal_is_singular():
    """An exact index map with an empty column has a Gram operator with a
    zero on its diagonal, refused as singular, as its dense copy's is."""
    dom = TruncatedSpace(metric=np.array([Fraction(1), Fraction(1, 2)], dtype=object), mode=EXACT)
    cod = TruncatedSpace(metric=np.array([Fraction(1)] * 3, dtype=object), mode=EXACT)
    vals = np.array([Fraction(2, 3), Fraction(0)], dtype=object)
    t = index_map(dom, cod, [2, -1], vals)  # column 1 is zero, so the Gram's entry (1, 1) is
    assert t.adjoint().compose(t)._rows is not None
    for m in (t, dense_copy(t)):
        with pytest.raises(SingularGram):
            _gram_inverse(m)
