"""Residue ladders, projectors, truncation, wandering parts, and the census."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from bergman_lab import (
    AmbientMismatch,
    BadResidue,
    DepthOverflow,
    DimensionMismatch,
    NotInvariant,
    ScalarMode,
    TruncatedSpace,
    WeightParams,
    extend,
    from_vectors,
    identity_map,
    invariant_closure,
    is_invariant,
    is_reducing,
    kernel,
    max_degree,
    projector,
    projectors_equal,
    random_subspace,
    reducing_census,
    residue_degrees,
    residue_subspace,
    restrict,
    shift,
    subspace_distance,
    truncate,
    wandering,
    weight_sequence,
    zero_subspace,
)
import bergman_lab.operators as operators
import bergman_lab.space as space_module
import bergman_lab.subspaces as subspaces
from bergman_lab.operators import LinearMap, displace, to_float
from bergman_lab.space import random_columns
from bergman_lab.subspaces import (
    RANK_TOL,
    ReducingResult,
    Subspace,
    orthogonalize,
    project,
)
from oracles import monomial, projector_distance, random_vector, shift_adjoint
from test_index_maps import assert_same_entries

FLOAT = ScalarMode.FLOAT64
EXACT = ScalarMode.EXACT_RATIONAL

# ||P_{span 1} - P_{span 1+z}|| at alpha = 0: sin of the principal angle, 1/sqrt(3)
FROZEN_DISTANCE = 0.5773502691896258


def make_space(alpha, N, D, mode=FLOAT):
    ws = weight_sequence(WeightParams(alpha, N, D), mode)
    return TruncatedSpace(ws, D)


def graded_pair(alpha, N, D, mode=FLOAT):
    ws = weight_sequence(WeightParams(alpha, N, D + N), mode)
    return TruncatedSpace(ws, D), TruncatedSpace(ws, D + N)


def wnorm(space, arr):
    w = to_float(np.asarray(space.metric))
    return float(np.sqrt(np.sum(w * np.abs(to_float(arr)) ** 2)))


def test_residue_ladder_basis():
    sp = make_space(0.5, 2, 6)
    h = residue_subspace(sp, 2, [0])
    assert h.dim == 3
    expected = np.zeros((6, 3), dtype=np.complex128)
    expected[0, 0] = expected[2, 1] = expected[4, 2] = 1.0
    assert (h.basis == expected).all()
    w = np.asarray(sp.metric)
    assert (np.asarray(h.norms_sq) == w[[0, 2, 4]]).all()
    # a ladder is its embedding alone: it carries no residue tag
    assert not hasattr(h, "residues") and not hasattr(h, "multiplicity")
    assert repr(h) == "Subspace(dim=3, ambient=6)"


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_ladder_coordinates_are_the_adjoint_of_the_embedding(mode):
    """A ladder's coordinate map, built with its embedding as the transposed
    unit map, is the embedding's metric adjoint entry for entry, also at
    alphas whose weights span many orders of magnitude."""
    for alpha in (Fraction(-9, 10), Fraction(1, 2), 200):
        sp = make_space(alpha if mode is EXACT else float(alpha), 3, 40, mode)
        for residues in ((), (0,), (1, 2), (0, 1, 2)):
            sub = residue_subspace(sp, 3, residues)
            got, want = sub.coordinates, sub.embedding.adjoint()
            assert (got.domain, got.codomain) == (want.domain, want.codomain)
            assert np.array_equal(got._rows, want._rows)
            assert_same_entries(got._vals, want._vals)
            assert_same_entries(got.matrix, want.matrix)


def test_residue_degrees_and_bad_residue():
    assert residue_degrees(3, [1, 2], 10) == [1, 2, 4, 5, 7, 8]
    assert residue_degrees(2, [], 10) == []
    with pytest.raises(BadResidue):
        residue_degrees(2, [2], 10)
    with pytest.raises(BadResidue):
        residue_subspace(make_space(0.0, 2, 6), 2, [-1])


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_residue_subspace_reads_a_one_shot_iterable_once(mode):
    """An iterator of residues builds the same ladder as a list: same
    degrees, basis and reducing verdict, so residue_subspace reads the
    residues once."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    dom, cod = graded_pair(alpha, 2, 10, mode)
    s = shift(dom, cod, 2)
    for residues in ([0], [1], [0, 1], []):
        want = residue_subspace(dom, 2, list(residues))
        got = residue_subspace(dom, 2, (r for r in residues))
        assert got.dim == want.dim == len(residue_degrees(2, residues, 10))
        assert (np.flatnonzero(got.basis.any(axis=1)).tolist()
                == residue_degrees(2, residues, 10))
        assert got.basis.dtype == want.basis.dtype
        assert (got.basis == want.basis).all()
        assert (np.asarray(got.norms_sq) == np.asarray(want.norms_sq)).all()
        assert is_reducing(s, got) == is_reducing(s, want)
        assert is_reducing(s, got).passed


def test_full_and_empty_residue_sets():
    sp = make_space(1.0, 3, 9)
    assert residue_subspace(sp, 3, range(3)).dim == 9
    assert residue_subspace(sp, 3, []).dim == 0
    assert zero_subspace(sp).dim == 0


def reference_gram_schmidt(space, columns):
    """Modified Gram-Schmidt one pair of vectors at a time, for comparison.

    Exact mode subtracts each kept vector once; float mode sweeps the kept
    vectors twice and keeps a column under the same relative rank rule as
    :func:`orthogonalize`.
    """
    w = np.asarray(space.metric)

    def inner(a, b):
        return np.sum(w * a * np.conjugate(b))

    kept, norms = [], []
    for j in range(columns.shape[1]):
        v = columns[:, j].copy()
        if space.mode.is_exact:
            for b, g in zip(kept, norms):
                v = v - b * (inner(v, b) / g)
            if (v != 0).any():
                kept.append(v)
                norms.append(inner(v, v))
        else:
            ref = np.sqrt(inner(v, v).real)
            for _ in range(2):
                for b in kept:
                    v = v - b * inner(v, b)
            n = np.sqrt(inner(v, v).real)
            if n > RANK_TOL * ref:
                kept.append(v / n)
                norms.append(1.0)
    return kept, norms


def assert_orthonormal(space, basis, norms, tol):
    """Metric Gram matrix of the basis equals diag(norms) within tol."""
    w = to_float(np.asarray(space.metric))
    b = to_float(basis)
    gram = np.conjugate(b).T @ (w[:, None] * b)
    assert np.abs(gram - np.diag(to_float(np.asarray(norms)))).max() <= tol


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_orthogonalize_pairwise_orthogonal(mode):
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    sp = make_space(alpha, 1, 7, mode)
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((7, 4))
    if mode.is_exact:
        cols = np.empty((7, 4), dtype=object)
        for i in range(7):
            for j in range(4):
                cols[i, j] = Fraction(int(1000 * raw[i, j]), 1000)
    else:
        cols = raw + 1j * rng.standard_normal((7, 4))
    basis, norms = orthogonalize(sp, cols)
    assert basis.shape[1] == 4
    w = np.asarray(sp.metric)
    for i in range(4):
        for j in range(i + 1, 4):
            dot = np.sum(w * np.conjugate(to_float(basis[:, i])) * to_float(basis[:, j]))
            assert abs(dot) <= 1e-13
    if mode.is_exact:
        for j in range(4):
            g = sum(wk * bk * bk for wk, bk in zip(w, basis[:, j]))
            assert g == norms[j]
    else:
        assert (np.asarray(norms) == 1.0).all()
        assert_orthonormal(sp, basis, norms, 1e-13)


def nudge(col, w, i):
    """``col`` moved along z^i by 1e-6 of its own norm in the metric ``w``."""
    size = np.sqrt(np.sum(w * np.array(col, dtype=float) ** 2) / w[i])
    col = list(col)
    col[i] += Fraction(float(size)).limit_denominator(10**4) / 10**6
    return col


def large_close_combination(mode):
    """[a, 0, 3a, 6a, 0, 12a + nudge] at D=5, alpha=-1/2, as a Gram-Schmidt problem.

    Moved by an absolute 1e-6 instead, the last column sits 1e-6 / ||12a||
    off the span, and the float basis lands 2e-8 from the reference, the
    rounding error of any float method.
    """
    sp = make_space(Fraction(-1, 2) if mode.is_exact else -0.5, 1, 5, mode)
    a = [Fraction(-1, 3), Fraction(3), Fraction(-1, 4), Fraction(-1, 3), Fraction(-1, 4)]
    zero = [Fraction(0)] * 5
    cols = [a, zero, [3 * x for x in a], [6 * x for x in a], zero,
            nudge([12 * x for x in a], to_float(np.asarray(sp.metric)), 1)]
    mat = sp.mode.zeros((5, len(cols)))
    for j, col in enumerate(cols):
        mat[:, j] = col if mode.is_exact else [float(x) for x in col]
    return sp, mat, True


def test_orthogonalize_matches_modified_gram_schmidt():
    """Exact output equals modified Gram-Schmidt entry for entry; float output
    is orthonormal and spans what modified Gram-Schmidt spans.

    A close column is a combination of earlier columns moved off their span
    by 1e-6 of its own metric norm (see :func:`nudge`), so the 1e-8 bound
    stays above the rounding error however large the combination is.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def problems(draw):
        mode = draw(st.sampled_from([FLOAT, EXACT]))
        alpha = draw(st.sampled_from([Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                                      Fraction(2), Fraction(7, 2)]))
        D = draw(st.integers(2, 8))
        sp = make_space(alpha if mode.is_exact else float(alpha), 1, D, mode)
        w = to_float(np.asarray(sp.metric))
        entries = st.integers(-3, 3)
        cols, close = [], False
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(["random", "zero", "combination", "close"]))
            if kind == "random" or not cols:
                col = [Fraction(draw(entries), draw(st.integers(1, 4))) for _ in range(D)]
            elif kind == "zero":
                col = [Fraction(0)] * D
            else:
                coeffs = [draw(entries) for _ in cols]
                col = [sum(c * v[i] for c, v in zip(coeffs, cols)) for i in range(D)]
                if kind == "close":
                    # off the span by 1e-6 of its norm: one projection pass is not enough
                    col = nudge(col, w, draw(st.integers(0, D - 1)))
                    close = True
            cols.append(col)
        mat = sp.mode.zeros((D, len(cols)))
        for j, col in enumerate(cols):
            mat[:, j] = col if mode.is_exact else [float(x) for x in col]
        return sp, mat, close

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(problems())
    @hypothesis.example(large_close_combination(FLOAT))
    @hypothesis.example(large_close_combination(EXACT))
    def check(problem):
        sp, cols, close = problem
        basis, norms = orthogonalize(sp, cols)
        kept, ref_norms = reference_gram_schmidt(sp, cols)
        assert basis.shape == (sp.dim, len(kept))
        if not kept:
            return
        if sp.mode.is_exact:
            assert (basis == np.column_stack(kept)).all()
            assert list(norms) == ref_norms
        else:
            assert (np.asarray(norms) == 1.0).all()
            assert_orthonormal(sp, basis, norms, 1e-13)
            ref = Subspace(sp, np.column_stack(kept), np.asarray(ref_norms))
            # rounding moves a direction 1e-6 off the span by about 1e-16 / 1e-6
            tol = 1e-8 if close else 1e-12
            assert subspace_distance(Subspace(sp, basis, norms), ref) <= tol

    check()


def assert_matches_reference(sp, cols, tol):
    """orthogonalize keeps as many vectors as reference_gram_schmidt; exact
    output equals it entry for entry, float output is orthonormal and spans
    the same subspace to ``tol``."""
    basis, norms = orthogonalize(sp, cols)
    kept, ref_norms = reference_gram_schmidt(sp, cols)
    assert basis.shape == (sp.dim, len(kept))
    assert len(norms) == len(kept)
    if not kept:
        return
    if sp.mode.is_exact:
        assert (basis == np.column_stack(kept)).all()
        assert list(norms) == ref_norms
    else:
        assert (np.asarray(norms) == 1.0).all()
        assert_orthonormal(sp, basis, norms, 1e-13)
        ref = Subspace(sp, np.column_stack(kept), np.asarray(ref_norms))
        assert subspace_distance(Subspace(sp, basis, norms), ref) <= tol


def test_orthogonalize_matches_gram_schmidt_on_wide_blocks():
    """The reference comparison at D up to 16 with up to 2D + 2 columns.

    Combinations are taken of the random columns only, and a close column is
    a nonzero combination moved off the span by 1e-6 of its own metric norm.
    Combinations of close columns or of combinations can cancel down to the
    1e-6 perturbation itself or grow until 1e-6 is near ``RANK_TOL`` of the
    column; there the float rank is not determined by either method, and
    the per-column CGS2 loop that the reference mirrors also fails the
    comparison on such blocks.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def problems(draw):
        mode = draw(st.sampled_from([FLOAT, EXACT]))
        alpha = draw(st.sampled_from([Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                                      Fraction(2), Fraction(7, 2)]))
        D = draw(st.integers(2, 16))
        sp = make_space(alpha if mode.is_exact else float(alpha), 1, D, mode)
        w = to_float(np.asarray(sp.metric))
        entries = st.integers(-3, 3)
        randoms, cols, close = [], [], False
        for _ in range(draw(st.integers(1, 2 * D + 2))):
            kind = draw(st.sampled_from(["random", "zero", "combination", "close"]))
            if kind == "random" or not randoms:
                col = [Fraction(draw(entries), draw(st.integers(1, 4))) for _ in range(D)]
                randoms.append(col)
            elif kind == "zero":
                col = [Fraction(0)] * D
            else:
                coeffs = [draw(entries) for _ in randoms]
                if kind == "close" and not any(coeffs):
                    coeffs[-1] = 1
                col = [sum(c * v[i] for c, v in zip(coeffs, randoms)) for i in range(D)]
                if kind == "close":
                    col = nudge(col, w, draw(st.integers(0, D - 1)))
                    close = True
            cols.append(col)
        mat = sp.mode.zeros((D, len(cols)))
        for j, col in enumerate(cols):
            mat[:, j] = col if mode.is_exact else [float(x) for x in col]
        return sp, mat, close

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(problems())
    def check(problem):
        sp, cols, close = problem
        assert_matches_reference(sp, cols, 1e-8 if close else 1e-12)

    check()


def _rank_rule_cases(mode):
    """Blocks whose kept count depends on the sequential rank rule: name ->
    (D, columns, kept count)."""
    rng = np.random.default_rng(3)

    def draw(rows, count):
        raw = rng.integers(-8, 9, size=(rows, count))
        return np.vectorize(lambda k: Fraction(int(k), 4))(raw) if mode.is_exact else raw / 4

    x, y, z = draw(6, 3).T
    wide = draw(4, 9)
    zero_then_e0 = mode.zeros((2, 2))
    zero_then_e0[0, 1] = mode.one
    # [x1, x1, x2, x2, ...]; exact arithmetic is kept to a small D
    pairs = 8 if mode.is_exact else 256
    return {
        # |r_11| of [0, e_0] is 0, yet Gram-Schmidt keeps e_0
        "zero then e_0": (2, zero_then_e0, 1),
        "interleaved": (6, np.column_stack([x, x, y, x + y, 0 * x, z]), 3),
        "more columns than D": (4, np.column_stack([wide, wide[:, :2], 0 * wide[:, 0]]), 4),
        "zero width": (5, mode.zeros((5, 0)), 0),
        "duplicated pairs": (pairs, np.repeat(draw(pairs, pairs // 2), 2, axis=1), pairs // 2),
    }


def _count_qr_and_mm(monkeypatch) -> dict:
    """Count np.linalg.qr calls and the products orthogonalize forms; under
    "k", the number of kept vectors each product is taken against."""
    calls = {"qr": 0, "mm": 0, "k": []}
    qr, mm = np.linalg.qr, subspaces._exact.mm

    def counting_qr(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)

    def counting_mm(a, b):
        calls["mm"] += 1
        calls["k"].append(min(a.shape))
        return mm(a, b)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(subspaces._exact, "mm", counting_mm)
    return calls


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_orthogonalize_rank_rule_regressions(monkeypatch, mode):
    """Each block keeps what Gram-Schmidt keeps, and float mode factors it
    once, whatever columns it drops."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    calls = _count_qr_and_mm(monkeypatch)
    for name, (D, cols, want) in _rank_rule_cases(mode).items():
        sp = make_space(alpha, 1, D, mode)
        calls["qr"] = 0
        assert orthogonalize(sp, cols)[0].shape == (D, want), name
        assert calls["qr"] == (0 if mode.is_exact else 1), name
        assert_matches_reference(sp, cols, 1e-12)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_orthogonalize_stops_at_a_full_basis(monkeypatch, mode):
    """2D + 2 random columns, the second a copy of the first so that float
    mode leaves the factorization for the loop: no column is projected
    against a basis that already spans the space."""
    D = 6 if mode.is_exact else 16
    sp = make_space(Fraction(1, 2) if mode.is_exact else 0.5, 1, D, mode)
    cols = random_columns(sp, range(2 * D + 1))
    cols = np.concatenate([cols[:, :1], cols], axis=1)
    calls = _count_qr_and_mm(monkeypatch)
    basis, norms = orthogonalize(sp, cols)
    assert basis.shape == (D, D)
    assert calls["mm"] > 0 and max(calls["k"]) < D
    assert_orthonormal(sp, basis, norms, 1e-12)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_orthogonalize_grows_the_coordinate_map_by_one_row(monkeypatch, mode):
    """Each kept vector adds its own row to the coordinate map of the ones
    kept before it: every metric adjoint orthogonalize forms is of one
    column (of none, for the empty start in exact mode), D of them in all,
    and the basis is Gram-Schmidt's.  The first column is repeated, so float
    mode leaves its factorization after one column."""
    D = 12
    sp = make_space(Fraction(1, 2) if mode.is_exact else 0.5, 1, D, mode)
    cols = random_columns(sp, range(D + 3))
    cols = np.concatenate([cols[:, :1], cols], axis=1)
    widths, adjoint = [], subspaces._exact.metric_adjoint
    monkeypatch.setattr(subspaces._exact, "metric_adjoint",
                        lambda m, *a: widths.append(m.shape[-1]) or adjoint(m, *a))
    basis, norms = orthogonalize(sp, cols)
    assert basis.shape == (D, D)
    assert max(widths) == 1 and sum(widths) == D
    monkeypatch.undo()
    assert_matches_reference(sp, cols, 1e-12)


def test_orthogonalize_rank_rule_complex_columns():
    """Complex dependent columns, a complex multiple included, are dropped as
    Gram-Schmidt drops them."""
    sp = make_space(1.5, 2, 7)
    rng = np.random.default_rng(5)
    x, y, z = (rng.uniform(-1, 1, (7, 3)) + 1j * rng.uniform(-1, 1, (7, 3))).T
    cols = np.column_stack([x, 1j * x, y, x + (1 - 2j) * y, 0 * x, z, z - 3j * y])
    assert orthogonalize(sp, cols)[0].shape == (7, 3)
    assert_matches_reference(sp, cols, 1e-12)


@pytest.mark.parametrize("count", [4, 64, 256])
def test_orthogonalize_is_one_factorization(monkeypatch, count):
    """A full-rank float block is one Householder QR and no per-column
    products; one-hot columns come out as e_n / sqrt(w_n) with their zeros
    exact, so truncate and kernel can read them by index."""
    calls = _count_qr_and_mm(monkeypatch)
    sp = make_space(1.0, 2, count + 8)
    rng = np.random.default_rng(count)
    one_hot = np.eye(sp.dim)[:, sorted(rng.choice(sp.dim, count, replace=False))]
    blocks = {"random": rng.uniform(-1, 1, (sp.dim, count)),
              "complex": rng.uniform(-1, 1, (sp.dim, count)) * (1 + 2j),
              "one-hot": one_hot}
    for name, cols in blocks.items():
        calls.update(qr=0, mm=0)
        basis, norms = orthogonalize(sp, cols)
        assert (calls["qr"], calls["mm"]) == (1, 0), name
        assert basis.shape == (sp.dim, count) and (norms == 1.0).all(), name
    basis = orthogonalize(sp, one_hot)[0]
    sw = np.sqrt(np.asarray(sp.metric))
    rows, cols = np.nonzero(basis)
    assert sorted(cols) == list(range(count)) and len(set(rows)) == count
    assert np.abs(basis * sw[:, None] - one_hot).max() <= 1e-15


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_from_vectors_drops_dependent_columns(mode):
    """Zero and dependent columns are dropped; a column off the span by 1e-12
    (relative) is dropped in float mode and kept in exact mode."""
    alpha = Fraction(0) if mode.is_exact else 0.0
    sp = make_space(alpha, 1, 5, mode)
    a = monomial(sp, 0)
    b = monomial(sp, 3)
    eps = Fraction(1, 10**12) if mode.is_exact else 1e-12
    thirds = {"zero": (a * 0, 2), "sum": (a + b, 2),
              "near": (a + b + eps * monomial(sp, 4), 3 if mode.is_exact else 2)}
    for third, (c, dim) in thirds.items():
        cols = mode.zeros((5, 3), a, b, c)
        cols[:, 0] = a
        cols[:, 1] = b
        cols[:, 2] = c
        assert from_vectors(sp, cols).dim == dim, third


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_from_vectors_projects_through_project(monkeypatch, mode):
    """Gram-Schmidt takes each projection from :func:`project`, one column
    at a time, against the subspace kept so far: on every exact block, and
    on a float block after a dependent column ends the QR's leading run."""
    sp = make_space(Fraction(1, 2) if mode.is_exact else 0.5, 1, 6, mode)
    cols = random_columns(sp, range(4))
    cols = np.concatenate([cols[:, :2], cols[:, :1], cols[:, 2:]], axis=1)
    calls, plain = [], subspaces.project
    monkeypatch.setattr(subspaces, "project", lambda sub, x: calls.append(
        (sub.dim, np.shape(x))) or plain(sub, x))
    assert from_vectors(sp, cols).dim == 4
    per_column = 1 if mode.is_exact else 2
    kept = [0, 1, 2, 2, 3] if mode.is_exact else [2, 3]  # the QR kept columns 0 and 1
    assert calls == [(k, (6, 1)) for k in kept for _ in range(per_column)]


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_projector_idempotent_and_self_adjoint(mode):
    alpha = Fraction(1) if mode.is_exact else 1.0
    sp = make_space(alpha, 2, 8, mode)
    sub = residue_subspace(sp, 2, [1])
    p = projector(sub).matrix
    if mode.is_exact:
        assert (p @ p == p).all()
    else:
        assert np.abs(p @ p - p).max() == 0.0
    w = to_float(np.asarray(sp.metric))
    gp = to_float(p) * w[:, None]
    assert np.abs(gp - gp.conj().T).max() <= 1e-15
    out = to_float(p) @ to_float(sub.basis)
    assert np.abs(out - to_float(sub.basis)).max() <= 1e-14


def test_coordinate_map_one_hot_exact_in_float():
    sp = make_space(2.5, 3, 9)
    sub = residue_subspace(sp, 3, [0, 2])
    f = sub.coordinates.matrix
    eye = f @ sub.basis
    assert (eye == np.eye(sub.dim)).all()
    assert (projector(sub).matrix @ sub.basis == sub.basis).all()


def test_project_lattice_vectors_exactly():
    sp = make_space(0.5, 2, 8)
    ladder = residue_subspace(sp, 2, [0])
    inside = monomial(sp, 4)
    outside = monomial(sp, 3)
    # the ladder takes the row gather, its dense copy the dense products
    for sub in (ladder, Subspace(sp, ladder.basis, ladder.norms_sq)):
        coords, leftover = project(sub, inside)
        assert (sub.basis @ coords == inside).all()
        assert (leftover == 0).all()
        coords, leftover = project(sub, outside)
        assert (coords == 0).all()
        assert (leftover == outside).all()


def test_truncate_ladder_keeps_the_rungs_below_the_cut():
    """truncate reads only the embedding: a ladder cut to degrees < 6 is
    its intersection with that truncation, span{z, z^3, z^5}, the ladder
    of the smaller truncation."""
    sp = make_space(1.0, 2, 10)
    h = residue_subspace(sp, 2, [1])
    t = truncate(h, 6)
    assert t.ambient.dim == 6
    assert t.dim == 3
    assert max_degree(t) == 5
    assert subspace_distance(t, residue_subspace(t.ambient, 2, [1])) <= 1e-12


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_truncate_to_a_negative_dimension_is_refused(mode):
    # truncate(sub, -2) failed inside numpy with "negative dimensions"
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    sp = make_space(alpha, 2, 8, mode)
    ladder = residue_subspace(sp, 2, [0])
    for sub in (ladder, Subspace.embedded(ladder.embedding), subspaces.from_vectors(
            TruncatedSpace(metric=sp.metric, mode=mode), ladder.basis)):
        for dim in (-2, -1, 9):
            with pytest.raises(DimensionMismatch):
                truncate(sub, dim)
        assert truncate(sub, 0).dim == 0


def test_truncate_dense_intersection():
    sp = make_space(0.0, 1, 8)
    e0 = monomial(sp, 0)
    e5 = monomial(sp, 5)
    sub = from_vectors(sp, np.column_stack([e0 + e5, e0 - e5]))
    cut = truncate(sub, 5)
    # only the z^0 direction survives below degree 5
    assert cut.dim == 1
    ref = from_vectors(TruncatedSpace(sp.weights, 5), e0[:5][:, None])
    assert subspace_distance(cut, ref) <= 1e-12
    lone = from_vectors(sp, (e0 + e5)[:, None])
    assert truncate(lone, 5).dim == 0


def test_truncate_ignores_noise_tail():
    sp = make_space(0.5, 1, 9)
    c = sp.mode.zeros(sp.dim)
    c[0] = 1.0
    c[8] = 1e-14
    sub = from_vectors(sp, c[:, None])
    cut = truncate(sub, 6)
    assert cut.dim == 1
    assert max_degree(cut) == 0


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_extend_roundtrip(mode):
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    ws = weight_sequence(WeightParams(alpha, 2, 12), mode)
    small, big = TruncatedSpace(ws, 8), TruncatedSpace(ws, 12)
    h = residue_subspace(small, 2, [0])
    ext = extend(h, big)
    # extend reads only the embedding: the ladder's zero padding, span{1, z^2,
    # z^4, z^6}, and not the ladder of the larger truncation
    assert ext.dim == 4 < residue_subspace(big, 2, [0]).dim == 6
    assert (ext.basis[:8] == h.basis).all() and (ext.basis[8:] == 0).all()
    assert (np.asarray(ext.norms_sq) == np.asarray(h.norms_sq)).all()
    one = monomial(small, 0)
    sub = from_vectors(small, one[:, None])
    padded = extend(sub, big)
    assert padded.ambient.dim == 12
    assert wnorm(big, padded.basis[8:, :]) == 0.0
    back = truncate(padded, 8)
    if mode.is_exact:
        assert projectors_equal(back, sub)
    else:
        assert subspace_distance(back, sub) <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_extend_and_truncate_read_only_the_embedding(mode, N):
    """A ladder and a copy of its embedding, Subspace.embedded(ladder.embedding),
    move between truncations alike, entry for entry: extend into a larger
    truncation and truncate into a smaller one."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    ws = weight_sequence(WeightParams(alpha, N, 20), mode)
    sp, big = TruncatedSpace(ws, 13), TruncatedSpace(ws, 20)
    for residues in subspaces.residue_sets(N):
        ladder = residue_subspace(sp, N, residues)
        copy = Subspace.embedded(ladder.embedding)
        for got, want in ((extend(ladder, big), extend(copy, big)),
                          (truncate(ladder, 7), truncate(copy, 7))):
            assert got.ambient == want.ambient, (N, residues)
            assert_same_entries(got.basis, want.basis)
            assert_same_entries(got.norms_sq, want.norms_sq)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_norms_sq_are_read_only_and_not_shared(mode):
    """extend into a larger truncation used to hand its result the same
    writeable norms_sq array, so writing extend(random_subspace(sp, 2, 0),
    big).norms_sq[0] = 5.0 turned the original's norms into [5., 1.].  The
    norms are now the frozen metric of the coordinate space, and a subspace
    keeps its own copy of the norms it is built from."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    ws = weight_sequence(WeightParams(alpha, 2, 12), mode)
    sp, big = TruncatedSpace(ws, 8), TruncatedSpace(ws, 12)
    sub = random_subspace(sp, 2, 0)
    before = np.asarray(sub.norms_sq).copy()
    ext = extend(sub, big)
    for s in (sub, ext):
        assert not s.norms_sq.flags.writeable and not s.basis.flags.writeable
        with pytest.raises(ValueError):
            s.norms_sq[0] = 5 * mode.one
    assert (np.asarray(sub.norms_sq) == before).all()
    assert (np.asarray(ext.norms_sq) == before).all()
    norms = before.copy()
    copy = Subspace(sp, sub.basis, norms)
    norms[0] = 5 * mode.one
    assert (np.asarray(copy.norms_sq) == before).all()


def test_extend_rejects_mismatched_weights():
    a = make_space(0.5, 2, 8)
    for b in (make_space(1.0, 2, 10), make_space(Fraction(1, 2), 2, 10, EXACT)):
        with pytest.raises(AmbientMismatch):
            extend(residue_subspace(a, 2, [0]), b)


def test_max_degree():
    sp = make_space(0.0, 2, 7)
    assert max_degree(residue_subspace(sp, 2, [0])) == 6
    assert max_degree(zero_subspace(sp)) == -1
    c = sp.mode.zeros(sp.dim)
    c[0] = 1.0
    c[3] = 0.5
    assert max_degree(from_vectors(sp, c[:, None])) == 3


LARGE_ALPHA_LADDERS = [(200, 256, 254), (50, 256, 254), (1000, 64, 62)]


def large_alpha_ladder(alpha, D, mode):
    sp = make_space(Fraction(alpha) if mode.is_exact else float(alpha), 2, D, mode)
    return residue_subspace(sp, 2, [0])


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("alpha,D,top", LARGE_ALPHA_LADDERS)
def test_max_degree_measures_each_column_against_its_own_norm(mode, alpha, D, top):
    """A ladder's top rung counts however small its weight: a cut at 1e-12
    of the largest weighted row over the whole basis stopped at degrees
    16, 34 and 10 here in float mode."""
    assert max_degree(large_alpha_ladder(alpha, D, mode)) == top


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("alpha,D,top", LARGE_ALPHA_LADDERS)
def test_max_degree_of_an_index_embedding_matches_its_dense_copy(monkeypatch, mode, alpha,
                                                                 D, top):
    """max_degree reads an index embedding's weighted entries one per
    column, without building operators.weighted_matrix; a dense copy of the
    embedding scans that matrix, the reference, and gives the same degree."""
    ladder = large_alpha_ladder(alpha, D, mode)
    dense = Subspace(ladder.ambient, ladder.basis, ladder.norms_sq)
    assert max_degree(dense) == top
    monkeypatch.setattr(operators, "weighted_matrix", None)
    assert max_degree(ladder) == top


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("alpha,D", [case[:2] for case in LARGE_ALPHA_LADDERS])
def test_invariant_closure_of_a_full_ladder_overflows(mode, alpha, D):
    """z^2 moves the top rung out of the truncation, so depth 1 overflows
    in both modes instead of dropping that rung's image."""
    with pytest.raises(DepthOverflow):
        invariant_closure(large_alpha_ladder(alpha, D, mode), 2, 1)


def test_is_invariant_ladder_exactly():
    dom, cod = graded_pair(0.5, 2, 10)
    s = shift(dom, cod, 2)
    h = residue_subspace(dom, 2, [0])
    res = is_invariant(s, h, residue_subspace(cod, 2, [0]))
    assert res.passed
    assert res.residual == 0.0
    c = dom.mode.zeros(dom.dim)
    c[0] = 1.0
    c[1] = 1.0
    bad = from_vectors(dom, c[:, None])
    res = is_invariant(s, bad, extend(bad, cod))
    assert not res.passed
    assert res.residual > 0.1


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_shift_maps_a_ladder_into_the_codomain_ladder(mode, N):
    """Against the target residue_subspace(cod, N, residues) a ladder is
    invariant under the shift with residual exactly 0.0, and restrict
    returns the map: re-embedded by the target, it is the shift on the
    ladder, entry for entry.  Against its zero padding extend(ladder, cod)
    a nonempty ladder is not invariant: its top rungs shift past degree D."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    dom, cod = graded_pair(alpha, N, 11, mode)
    s = shift(dom, cod, N)
    for residues in subspaces.residue_sets(N)[1:]:
        ladder = residue_subspace(dom, N, residues)
        target = residue_subspace(cod, N, residues)
        assert is_invariant(s, ladder, target) == subspaces.InvarianceResult(True, 0.0)
        t = restrict(s, ladder, target)
        assert (t.domain, t.codomain) == (ladder.embedding.domain, target.embedding.domain)
        assert_same_entries(target.embedding.compose(t).matrix,
                            s.compose(ladder.embedding).matrix)
        padded = extend(ladder, cod)
        res = is_invariant(s, ladder, padded)
        assert not res.passed and res.residual > 0.1, (N, residues)
        with pytest.raises(NotInvariant):
            restrict(s, ladder, padded)


def test_exact_invariance_ignores_float_tolerance():
    """A leftover far below tol is still a leftover in exact mode."""
    dom = make_space(Fraction(1, 2), 2, 10, EXACT)
    m = identity_map(dom).matrix.copy()
    m[1, 0] = Fraction(1, 10**14)
    near_identity = LinearMap(dom, dom, m)
    h = residue_subspace(dom, 2, [0])
    res = is_invariant(near_identity, h, h)
    assert not res.passed
    assert 0.0 < res.residual <= 1e-10
    assert not is_reducing(near_identity, h).passed
    with pytest.raises(NotInvariant):
        restrict(near_identity, h, h)


@pytest.mark.parametrize("alpha,N", [(0.0, 2), (2.5, 3)])
def test_is_reducing_ladder_zero_residual(alpha, N):
    dom, cod = graded_pair(alpha, N, 12)
    s = shift(dom, cod, N)
    for k in range(N):
        r = is_reducing(s, residue_subspace(dom, N, [k]))
        assert r.passed
        assert r.residual == 0.0
    r = is_reducing(s, random_subspace(dom, 2, seed=3))
    assert not r.passed
    assert r.residual > 1e-6


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_reducing_measures_adjoint_against_the_subspace(monkeypatch, mode):
    """The adjoint half of a subspace is measured against the subspace
    itself, so is_reducing makes no truncate call; its residual is the one
    of the route through the truncated extension (to 1e-14 in float mode,
    exactly in exact mode)."""
    dom, cod = graded_pair(Fraction(1, 2) if mode.is_exact else 0.5, 2, 10, mode)
    s = shift(dom, cod, 2)
    sub = random_subspace(dom, 2, seed=3)
    calls = []
    counted = subspaces.truncate
    monkeypatch.setattr(subspaces, "truncate",
                        lambda *args: calls.append(args) or counted(*args))
    r = is_reducing(s, sub)
    assert calls == []
    monkeypatch.undo()
    ext = extend(sub, s.codomain)
    via_truncate = is_invariant(s.adjoint(), ext, truncate(ext, dom.dim)).residual
    assert r.residual_adjoint > 1e-6
    if mode.is_exact:
        assert r.residual_adjoint == via_truncate
    else:
        assert abs(r.residual_adjoint - via_truncate) <= 1e-14


def test_dense_ladder_copy_reduces_exactly():
    """The reducing test reads only the embedding: for every ladder at N 1-3,
    in both modes, its dense copy gets the ladder's result, both residuals
    exactly 0, under the graded shift into D + N and under its square
    finite section alike."""
    for mode, N in itertools.product((FLOAT, EXACT), (1, 2, 3)):
        dom, cod = graded_pair(Fraction(1, 2) if mode.is_exact else 0.5, N, 10, mode)
        s = shift(dom, cod, N)
        for m in (s, LinearMap(dom, dom, s.matrix[:10])):
            for residues in subspaces.residue_sets(N):
                ladder = residue_subspace(dom, N, residues)
                r = is_reducing(m, _dense_copy(ladder))
                assert r == is_reducing(m, ladder) == ReducingResult(True, 0.0, 0.0), (
                    mode, N, residues)


def _padded_reducing(s, sub, ext, tol=1e-10):
    """The reducing test through the codomain, the reference the compression
    replaced: s maps sub into ext, a subspace of s's codomain (sub's zero
    padding, or for a ladder the ladder of the codomain), and s's metric
    adjoint maps ext into sub."""
    fwd = subspaces._restriction_data(s, sub, ext, tol)[1]
    adj = subspaces._restriction_data(s.adjoint(), ext, sub, tol)[1]
    return ReducingResult(fwd.passed and adj.passed, fwd.residual, adj.residual)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_compression_keeps_the_adjoint_residual_and_lowers_the_forward_one(mode):
    """On random subspaces, the compression test's adjoint residual equals
    the zero-padded route's, and its forward residual is at most that
    route's: the padded leftover also holds the images' degrees >= D, the
    part P_D cuts away.  A ladder gets residual 0 on the compression and on
    the route through the ladder of the codomain."""
    alphas = (Fraction(0), Fraction(1, 2)) if mode.is_exact else (-0.9, 0.5, 200.0)
    for alpha, N, D in itertools.product(alphas, (1, 2, 3), (6, 13)):
        dom, cod = graded_pair(alpha, N, D, mode)
        s = shift(dom, cod, N)
        for dim, seed in ((1, 0), (2, 1), (3, 2), (D - 1, 3)):
            sub = random_subspace(dom, dim, seed)
            got, want = is_reducing(s, sub), _padded_reducing(s, sub, extend(sub, cod))
            assert got.residual_adjoint == want.residual_adjoint, (alpha, N, D, dim)
            assert got.residual_forward <= want.residual_forward, (alpha, N, D, dim)
            assert not got.passed
        ladder = residue_subspace(dom, N, [0])
        assert is_reducing(s, ladder) == _padded_reducing(
            s, ladder, residue_subspace(cod, N, [0])) == ReducingResult(True, 0.0, 0.0)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_reducing_test_stays_in_the_domain(monkeypatch, mode):
    """is_reducing and reducing_census compress the shift to its domain:
    they make no extend call, and every map they form, the shift's
    compression and its adjoint included, acts between spaces of dimension
    at most D."""
    D = 9
    dom, cod = graded_pair(Fraction(1, 2) if mode.is_exact else 0.5, 2, D, mode)
    s = shift(dom, cod, 2)
    subs = (residue_subspace(dom, 2, [1]), random_subspace(dom, 2, seed=4))
    calls, dims = [], []
    counted, bind = subspaces.extend, LinearMap._bind
    monkeypatch.setattr(subspaces, "extend", lambda *a: calls.append(a) or counted(*a))
    monkeypatch.setattr(LinearMap, "_bind", lambda m, domain, codomain: dims.append(
        (domain.dim, codomain.dim)) or bind(m, domain, codomain))
    results = [is_reducing(s, sub) for sub in subs]
    report = reducing_census(s, 2, trials=3, seed=2)
    assert calls == []
    assert dims and max(max(d) for d in dims) == D
    assert results[0].passed and not results[1].passed and report.passed


def test_is_reducing_refuses_a_codomain_that_does_not_extend_the_domain():
    """P_D needs the codomain to be a truncation at least as large that
    agrees with the domain: a smaller codomain, or one with other weights,
    is refused."""
    dom, cod = graded_pair(0.5, 2, 8)
    h = residue_subspace(cod, 2, [0])
    with pytest.raises(AmbientMismatch):
        is_reducing(shift(dom, cod, 2).adjoint(), h)
    other = make_space(1.0, 2, 10)
    with pytest.raises(AmbientMismatch):
        is_reducing(LinearMap(dom, other, np.zeros((10, 8))), residue_subspace(dom, 2, [0]))


def _dense_copy(sub):
    """The same subspace with a dense embedding, the reference."""
    return Subspace(sub.ambient, sub.basis, sub.norms_sq)


def _random_matrix(rows, cols, mode, seed):
    """Random map matrix; in exact mode a quarter of the entries are nonzero,
    which keeps the rational arithmetic short."""
    rng = np.random.default_rng(seed)
    if mode.is_exact:
        ints = rng.integers(-16, 17, size=(rows, cols)) * (rng.random((rows, cols)) < 0.25)
        return np.array([[Fraction(int(k), 16) for k in row] for row in ints], dtype=object)
    return rng.uniform(-1.0, 1.0, size=(rows, cols))


@pytest.mark.parametrize("D", [8, 17, 64])
@pytest.mark.parametrize("alpha", [-0.9, 0.5, 200.0, Fraction(1, 2)])
def test_ladder_gathers_match_dense_reference(alpha, D):
    """A map applied to a ladder is a column gather and a projection onto a
    ladder a row gather; coordinates and verdicts equal those of the dense
    products on the dense copy, entry for entry.  Both directions of the
    reducing test through the codomain ladder, is_invariant and restrict
    are covered, with
    the shift and with a dense random map whose leftover is nonzero, and the
    reducing test on the compression P_D m equals its dense route."""
    mode = EXACT if isinstance(alpha, Fraction) else FLOAT
    tol = 1e-10
    for N in (1, 2, 3):
        dom, cod = graded_pair(alpha, N, D, mode)
        dense = LinearMap(dom, cod, _random_matrix(D + N, D, mode, seed=D + N))
        x = random_columns(cod, range(3))
        for m in (shift(dom, cod, N), dense):
            m_adj = m.adjoint()
            for residues in itertools.chain.from_iterable(
                    itertools.combinations(range(N), k) for k in range(N + 1)):
                h = residue_subspace(dom, N, residues)
                ext = residue_subspace(cod, N, residues)
                ref = {}
                for name, f, sub, target in (("fwd", m, h, ext), ("adj", m_adj, ext, h)):
                    restricted, inv = subspaces._restriction_data(f, sub, target, tol)
                    ref[name] = subspaces._restriction_data(
                        f, _dense_copy(sub), _dense_copy(target), tol)
                    assert restricted.domain == sub.embedding.domain
                    assert restricted.codomain == target.embedding.domain
                    assert np.array_equal(restricted.matrix, ref[name][0].matrix)
                    assert inv == ref[name][1]
                (fwd_coords, fwd), (_, adj) = ref["fwd"], ref["adj"]
                c = displace(m, dom)  # the compression P_D m
                c_adj = c.adjoint()
                sides = [subspaces._restriction_data(f, _dense_copy(h), _dense_copy(h), tol)[1]
                         for f in (c, c_adj)]
                want = ReducingResult(sides[0].passed and sides[1].passed,
                                      sides[0].residual, sides[1].residual)
                assert subspaces._reducing(c, c_adj, h, tol) == want
                assert is_reducing(m, h, tol) == want
                assert is_invariant(m, h, ext, tol) == fwd
                if fwd.passed:
                    assert np.array_equal(restrict(m, h, ext, tol).matrix, fwd_coords.matrix)
                else:
                    with pytest.raises(NotInvariant):
                        restrict(m, h, ext, tol)
                if m is dense and 0 < h.dim < D:
                    assert fwd.residual > 1e-6 and adj.residual > 1e-6
                got, want = project(ext, x), project(_dense_copy(ext), x)
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])


def test_wandering_of_full_space_is_low_degrees():
    dom, cod = graded_pair(1.0, 3, 12)
    s = shift(dom, cod, 3)
    h = residue_subspace(dom, 3, range(3))
    ext = residue_subspace(cod, 3, range(3))
    e = wandering(restrict(s, h, ext), ext)
    assert e.dim == 3
    cols = np.column_stack([monomial(cod, n) for n in range(3)])
    assert subspace_distance(e, from_vectors(cod, cols)) <= 1e-12


def test_wandering_of_single_ladder():
    dom, cod = graded_pair(0.5, 2, 10)
    s = shift(dom, cod, 2)
    h = residue_subspace(dom, 2, [1])
    ext = residue_subspace(cod, 2, [1])
    e = wandering(t := restrict(s, h, ext), ext)
    assert t.matrix.shape == (6, 5)
    assert e.dim == 1
    assert max_degree(e) == 1


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_wandering_refuses_a_subspace_t_does_not_map_into(mode):
    """wandering(t, ext) reads ext's embedding, so an ext whose coordinate
    space is not t's codomain is refused: the ladder itself, another
    ladder of the codomain of the same dimension, and the full ladder of
    the codomain.  The kernel of t* stays in those coordinates."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    dom, cod = graded_pair(alpha, 2, 10, mode)
    h = residue_subspace(dom, 2, [0])
    ext = residue_subspace(cod, 2, [0])
    t = restrict(shift(dom, cod, 2), h, ext)
    other = residue_subspace(cod, 2, [1])
    assert other.dim == ext.dim
    for wrong in (h, other, residue_subspace(cod, 2, [0, 1])):
        with pytest.raises(DimensionMismatch):
            wandering(t, wrong)
    assert kernel(t.adjoint()).ambient == t.codomain == ext.embedding.domain
    e = wandering(t, ext)
    assert e.ambient == cod and e.dim == 1 and max_degree(e) == 0


def ladder_wandering_oracle(cod, residues):
    """span{z^k : k in residues}, the wandering part of the ladder (Shimorin 2001)."""
    cols = np.column_stack([monomial(cod, k) for k in sorted(residues)])
    return from_vectors(cod, cols)


def ladder_wandering(alpha, N, D, residues):
    dom, cod = graded_pair(alpha, N, D)
    h, ext = residue_subspace(dom, N, residues), residue_subspace(cod, N, residues)
    return wandering(restrict(shift(dom, cod, N), h, ext), ext), cod


@pytest.mark.parametrize("D", [64, 128])
@pytest.mark.parametrize("residues", [(0,), (1,), (0, 1)])
def test_wandering_scale_free_at_large_alpha(D, residues):
    # a rank cut scaled by the codomain metric alone kept 16..99 directions here
    e, cod = ladder_wandering(50.0, 2, D, residues)
    assert e.dim == len(residues)
    assert subspace_distance(e, ladder_wandering_oracle(cod, residues)) <= 1e-10


def test_wandering_matches_ladder_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def ladders(draw):
        N = draw(st.integers(1, 3))
        D = draw(st.integers(2 * N, 128))
        residues = draw(st.sets(st.integers(0, N - 1), min_size=1))
        alpha = draw(st.floats(-1.0, 200.0, exclude_min=True))
        return alpha, N, D, tuple(sorted(residues))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(ladders())
    def check(case):
        alpha, N, D, residues = case
        e, cod = ladder_wandering(alpha, N, D, residues)
        assert e.dim == len(residues)
        assert subspace_distance(e, ladder_wandering_oracle(cod, residues)) <= 1e-10

    check()


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_invariant_closure_recovers_ladder(mode):
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    dom, cod = graded_pair(alpha, 2, 12, mode)
    s = shift(dom, cod, 2)
    h, ext = residue_subspace(dom, 2, [0]), residue_subspace(cod, 2, [0])
    e = truncate(wandering(restrict(s, h, ext), ext), 12)
    assert e.dim == 1
    depth = (12 - 1 - max_degree(e)) // 2
    closure = invariant_closure(e, 2, depth)
    safe = 12 - 2
    got = truncate(closure, safe)
    want = truncate(h, safe)
    if mode.is_exact:
        assert projectors_equal(got, want)
    else:
        assert subspace_distance(got, want) <= 1e-12
    with pytest.raises(DepthOverflow):
        invariant_closure(e, 2, depth + 1)
    for n, d in ((0, depth), (2, -1)):
        with pytest.raises(ValueError):
            invariant_closure(e, n, d)


def test_kernel_of_iterated_adjoint():
    dom, cod = graded_pair(0.5, 2, 10)
    sa = shift_adjoint(cod, dom, 2)
    ker = kernel(sa)
    assert ker.dim == 2
    cols = np.column_stack([monomial(cod, n) for n in range(2)])
    assert subspace_distance(ker, from_vectors(cod, cols)) <= 1e-12
    s = shift(dom, cod, 2)
    assert kernel(s).dim == 0


def test_kernel_exact_mode():
    dom, cod = graded_pair(Fraction(1), 3, 9, EXACT)
    sa = shift_adjoint(cod, dom, 3)
    ker = kernel(sa)
    assert ker.dim == 3
    cols = np.column_stack([monomial(cod, n) for n in range(3)])
    assert projectors_equal(ker, from_vectors(cod, cols))


def test_span_union_of_ladders_is_full():
    sp = make_space(0.0, 2, 8)
    ladders = [residue_subspace(sp, 2, [0]), residue_subspace(sp, 2, [1])]
    u = from_vectors(sp, np.concatenate([h.basis for h in ladders], axis=1))
    assert u.dim == 8
    assert subspace_distance(u, residue_subspace(sp, 2, range(2))) <= 1e-12


def test_subspace_distance_frozen_value():
    sp = make_space(0.0, 1, 8)
    one = from_vectors(sp, monomial(sp, 0)[:, None])
    c = sp.mode.zeros(sp.dim)
    c[0] = 1.0
    c[1] = 1.0
    onez = from_vectors(sp, c[:, None])
    d = subspace_distance(one, onez)
    assert d == pytest.approx(FROZEN_DISTANCE, rel=0, abs=1e-15)
    assert subspace_distance(one, one) == 0.0
    z2 = from_vectors(sp, monomial(sp, 2)[:, None])
    assert subspace_distance(one, z2) == pytest.approx(1.0, rel=0, abs=1e-12)


def test_subspace_distance_matches_principal_angles():
    linalg = pytest.importorskip("scipy.linalg")
    sp = make_space(0.5, 1, 9)
    u = random_subspace(sp, 3, seed=21)
    v = random_subspace(sp, 3, seed=22)
    d = subspace_distance(u, v)
    w = np.sqrt(np.asarray(sp.metric, dtype=np.float64))
    angles = linalg.subspace_angles(u.basis * w[:, None], v.basis * w[:, None])
    assert d == pytest.approx(float(np.sin(angles).max()), rel=0, abs=1e-12)


def test_subspace_distance_matches_projector_difference():
    """The D x k block norm agrees with the 2-norm of the metric-scaled
    projector difference (tests/oracles.py) to 1e-12, on real and complex
    subspaces of equal dimension, with and without a ladder on either side."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.floats(-0.9, 4.0), st.integers(1, 3), st.integers(4, 16),
                      st.integers(1, 4), st.booleans(), st.floats(0.0, 1.0),
                      st.integers(0, 2**32 - 1))
    def check(alpha, N, D, k, complex_cols, eps, seed):
        sp = make_space(alpha, N, D)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (D, k))
        if complex_cols:
            x = x + 1j * rng.uniform(-1, 1, (D, k))
        h = residue_subspace(sp, N, [0])
        pairs = [(from_vectors(sp, x), from_vectors(sp, x + eps * rng.uniform(-1, 1, (D, k)))),
                 (from_vectors(sp, h.basis + eps * rng.uniform(-1, 1, h.basis.shape)), h)]
        for u, v in pairs:
            assert u.dim == v.dim
            for a, b in ((u, v), (v, u)):
                assert abs(subspace_distance(a, b) - projector_distance(a, b)) <= 1e-12

    check()


def test_subspace_distance_exact_and_degenerate():
    """Exact subspaces agree with the projector difference to 1e-12; unequal
    dimensions give exactly 1.0 and two zero subspaces exactly 0.0."""
    for mode, alpha in ((EXACT, Fraction(1, 2)), (FLOAT, 0.5)):
        sp = make_space(alpha, 2, 8, mode)
        h = residue_subspace(sp, 2, [0])
        bent = h.basis.copy()
        bent[1, 0] = bent[7, 2] = Fraction(1, 3) if mode.is_exact else 1 / 3
        pairs = [(from_vectors(sp, bent), h), (h, from_vectors(sp, bent)),
                 (random_subspace(sp, 3, seed=1), random_subspace(sp, 3, seed=2)),
                 (h, _dense_copy(h)), (h, residue_subspace(sp, 2, [1]))]
        for u, v in pairs:
            assert abs(subspace_distance(u, v) - projector_distance(u, v)) <= 1e-12
        assert subspace_distance(h, _dense_copy(h)) == 0.0
        full, empty, zero = (residue_subspace(sp, 2, [0, 1]), residue_subspace(sp, 2, []),
                             zero_subspace(sp))
        for u, v in ((h, full), (full, h), (zero, h), (h, empty),
                     (random_subspace(sp, 2, seed=3), h)):
            assert subspace_distance(u, v) == 1.0
        assert subspace_distance(zero, empty) == subspace_distance(zero, zero) == 0.0


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_subspace_distance_skips_the_svd_on_a_zero_leftover(monkeypatch, mode):
    """A ladder against its dense copy leaves an exactly zero block, so
    the distance is 0.0 with no SVD taken; nonzero dense leftovers still
    take it and agree with the projector difference (tests/oracles.py)."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    sp = make_space(alpha, 3, 12, mode)
    svd = np.linalg.svd
    taken = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: taken.append(1) or svd(*a, **kw))
    for residues in ([0], [1, 2], [0, 1, 2]):
        h = residue_subspace(sp, 3, residues)
        for u, v in ((h, _dense_copy(h)), (_dense_copy(h), h)):
            taken.clear()
            assert subspace_distance(u, v) == 0.0
            assert not taken
    h = residue_subspace(sp, 3, [0])
    bent = h.basis.copy()
    bent[1, 0] = bent[10, 3] = Fraction(1, 5) if mode.is_exact else 0.2
    pairs = [(from_vectors(sp, bent), h), (h, from_vectors(sp, bent)),
             (random_subspace(sp, 4, seed=4), h)]
    for u, v in pairs:
        taken.clear()
        d = subspace_distance(u, v)
        assert taken and d > 0.0
        assert abs(d - projector_distance(u, v)) <= 1e-12


def test_projectors_equal_exact(monkeypatch):
    """projectors_equal forms no projector matrix and agrees with comparing
    them, the former definition kept here as the reference."""
    sp = make_space(Fraction(1, 2), 2, 8, EXACT)
    h0, h1 = residue_subspace(sp, 2, [0]), residue_subspace(sp, 2, [1])
    assert h0.dim == h1.dim
    cases = [
        (h0, from_vectors(sp, h0.basis.copy()), True),
        (h0, h1, False),
        (h0, residue_subspace(sp, 2, [0, 1]), False),
        (zero_subspace(sp), residue_subspace(sp, 2, []), True),
    ]
    refs = [bool((projector(u).matrix == projector(v).matrix).all()) for u, v, _ in cases]

    def refuse(sub):
        raise AssertionError("projectors_equal formed a projector matrix")

    monkeypatch.setattr(subspaces, "projector", refuse)
    for (u, v, want), ref in zip(cases, refs):
        assert ref == want
        assert projectors_equal(u, v) == want
        assert projectors_equal(v, u) == want


def test_random_subspace_deterministic():
    sp = make_space(1.0, 2, 10)
    a = random_subspace(sp, 3, seed=5)
    b = random_subspace(sp, 3, seed=5)
    c = random_subspace(sp, 3, seed=6)
    assert a.dim == 3
    assert (a.basis == b.basis).all()
    assert subspace_distance(a, c) > 1e-3


def test_reducing_census(monkeypatch):
    """The report holds each ladder's ReducingResult, in residue_sets order."""
    dom, cod = graded_pair(0.5, 2, 12)
    s = shift(dom, cod, 2)
    built = []
    monkeypatch.setattr(subspaces, "residue_subspace", lambda space, N, combo: built.append(
        combo) or residue_subspace(space, N, combo))
    rep = reducing_census(s, 2, trials=6, seed=11)
    assert built == subspaces.residue_sets(2)
    assert rep.passed
    assert rep.all_residues_reduce
    assert rep.all_randoms_fail
    assert rep.max_residue_residual == 0.0
    assert rep.min_random_residual > 1e-6
    assert len(rep.residue_entries) == 4 and len(rep.random_entries) == 6


def test_residue_sets_list_every_set_by_size():
    """All 2^N residue sets, the empty one first and range(N) last, which
    orders the census's ladders and (without the empty set) the grids."""
    assert subspaces.residue_sets(1) == [(), (0,)]
    assert subspaces.residue_sets(3) == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2),
                                         (0, 1, 2)]
    assert len(subspaces.residue_sets(5)) == 32


@pytest.mark.parametrize("mode,alpha", [(FLOAT, 0.5), (EXACT, Fraction(1, 2))])
def test_census_with_a_negative_trial_count_has_no_controls(mode, alpha):
    """A negative trial count, like zero, draws no random control in either
    mode; float mode used to fail concatenating an empty list of seeds."""
    s = shift(*graded_pair(alpha, 2, 8, mode), 2)
    for trials in (0, -2):
        rep = reducing_census(s, 2, trials=trials, seed=5)
        assert rep.random_entries == () and len(rep.residue_entries) == 4
        assert rep.passed and rep.min_random_residual == np.inf


def _census_reference(s, N, trials, seed, tol=1e-10):
    """The census subspace by subspace: the ``ReducingResult`` of every ladder
    and every random control through ``subspaces._reducing`` on the
    compression P_D s, the reference route.  Comparing reports with ==
    holds both residuals of every entry equal, not only their maximum."""
    c = displace(s, s.domain)
    c_adj = c.adjoint()
    ladders = [subspaces._reducing(c, c_adj, residue_subspace(s.domain, N, combo), tol)
               for size in range(N + 1) for combo in itertools.combinations(range(N), size)]
    controls = [subspaces._reducing(c, c_adj, random_subspace(s.domain, 2, i), tol)
                for i in range(seed, seed + trials)]
    return subspaces.CensusReport(tuple(ladders), tuple(controls))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_stacked_census_controls_match_the_reference_route(N):
    """Float censuses test their random controls as one stacked block; each
    control's entry (verdict, and residual compared with ==) equals the
    reducing test of its own random_subspace, alpha from near -1 to 200 and
    D from the census's least, max(3, 2N - 1), to 512."""
    dims = (3, 32, 256, 512) if N < 3 else (32, 256, 512)
    for alpha, D, seed in itertools.product((-0.999, -0.5, 0.0, 2.5, 200.0),
                                            dims, (0, 1013)):
        s = shift(*graded_pair(alpha, N, D), N)
        rep = reducing_census(s, N, seed=seed)
        assert rep == _census_reference(s, N, 20, seed), (alpha, D, seed)
        assert rep.all_randoms_fail


#: Exact census alphas: 10^7 puts the weights below float64's range at D = 64.
EXACT_CENSUS_ALPHAS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(10**7))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_exact_census_report_is_unchanged(N):
    """Exact censuses test their random controls from integer Gram data;
    each control's entry (verdict, and both residuals compared with ==)
    equals the reducing test of its own random_subspace.  Alphas 0, 1/2, 1,
    1/3 and 10^7, where the weights underflow float64, D from the census's
    least (3, and 5 at N = 3) to 64; and D = 256 at N <= 2, alphas 0 and
    1/2, with two trials (the reference route takes seconds per control
    there at alpha 10^7)."""
    least = max(3, 2 * N - 1)
    for alpha, D, seed in itertools.product(EXACT_CENSUS_ALPHAS, (least, 6, 16, 33, 64),
                                            (0, 1013)):
        s = shift(*graded_pair(alpha, N, D, EXACT), N)
        rep = reducing_census(s, N, trials=4, seed=seed)
        assert rep == _census_reference(s, N, 4, seed), (alpha, D, seed)
        assert rep.passed
    if N <= 2:
        for alpha, seed in itertools.product(EXACT_CENSUS_ALPHAS[:2], (0, 1013)):
            s = shift(*graded_pair(alpha, N, 256, EXACT), N)
            rep = reducing_census(s, N, trials=2, seed=seed)
            assert rep == _census_reference(s, N, 2, seed), (alpha, seed)
            assert rep.passed


def test_exact_census_matches_the_reference_route_property():
    """Drawn N <= 3, dyadic alpha in (-1, 50], D <= 48 and seed: the exact
    census report equals the subspace-by-subspace one."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dyadic = st.integers(0, 6).flatmap(
        lambda j: st.integers(1 - 2**j, 50 * 2**j).map(lambda k: Fraction(k, 2**j)))

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 3), dyadic, st.integers(3, 48), st.integers(0, 2**32 - 1))
    def check(N, alpha, D, seed):
        D = max(D, 2 * N - 1)
        s = shift(*graded_pair(alpha, N, D, EXACT), N)
        assert reducing_census(s, N, trials=3, seed=seed) == _census_reference(s, N, 3, seed)

    check()


def _twin_draw(draw, twin):
    """``draw`` with the second column seed of control ``twin`` replaced by
    its first, so that the control's two columns are equal."""
    first, second = np.random.default_rng(twin).integers(0, 2**63 - 1, size=2)
    return lambda *args: draw(*args[:-1], [first if int(x) == second else x for x in args[-1]])


def _record_random_subspaces(monkeypatch, built):
    monkeypatch.setattr(subspaces, "random_subspace", lambda space, dim, i: built.append(i)
                        or random_subspace(space, dim, i))


def test_census_control_with_dependent_columns_takes_the_reference_route(monkeypatch):
    """A control whose two columns are equal fails the stacked rank rule and
    is tested through random_subspace, with the entry that route gives; the
    other controls stay in the block."""
    seed, twin = 40, 43
    s = shift(*graded_pair(1.0, 2, 32), 2)
    plain = _census_reference(s, 2, 6, seed)
    built = []
    monkeypatch.setattr(subspaces, "random_columns", _twin_draw(subspaces.random_columns, twin))
    _record_random_subspaces(monkeypatch, built)
    rep = reducing_census(s, 2, trials=6, seed=seed)
    assert built == [twin]
    assert rep == _census_reference(s, 2, 6, seed)
    changed = [a != b for a, b in zip(rep.random_entries, plain.random_entries)]
    assert changed == [i == twin for i in range(seed, seed + 6)]


def test_exact_census_control_with_dependent_columns_takes_the_reference_route(monkeypatch):
    """The exact twin: a control whose two columns are equal has
    |b_2|^2 = 0 and is tested through random_subspace, with the entry that
    route gives; the other controls keep the integer route.  The integers
    are drawn by one rule, so replacing it changes both routes alike."""
    seed, twin = 40, 43
    s = shift(*graded_pair(Fraction(1, 2), 2, 16, EXACT), 2)
    plain = _census_reference(s, 2, 6, seed)
    built = []
    draw = _twin_draw(space_module.random_numerators, twin)
    monkeypatch.setattr(space_module, "random_numerators", draw)
    monkeypatch.setattr(subspaces, "random_numerators", draw)
    _record_random_subspaces(monkeypatch, built)
    rep = reducing_census(s, 2, trials=6, seed=seed)
    assert built == [twin]
    assert random_subspace(s.domain, 2, twin).dim == 1
    assert rep == _census_reference(s, 2, 6, seed)
    changed = [a != b for a, b in zip(rep.random_entries, plain.random_entries)]
    assert changed == [i == twin for i in range(seed, seed + 6)]


def test_exact_census_of_a_dense_shift_takes_the_reference_route(monkeypatch):
    """A compression held in dense form tests every control through
    random_subspace, with the entries the index form's integer route gives."""
    dom, cod = graded_pair(Fraction(1, 2), 2, 8, EXACT)
    s = shift(dom, cod, 2)
    built = []
    _record_random_subspaces(monkeypatch, built)
    rep = reducing_census(LinearMap(dom, cod, s.matrix), 2, trials=3, seed=5)
    assert built == [5, 6, 7]
    built.clear()
    assert rep == reducing_census(s, 2, trials=3, seed=5)
    assert built == []


@pytest.mark.parametrize("mode,alpha", [(FLOAT, 0.5), (EXACT, Fraction(1, 2))])
def test_census_refuses_a_domain_below_its_rule(mode, alpha):
    """The census needs D >= max(3, 2N - 1): at D = 2 a control's two
    columns are the whole domain, and below 2N - 1 reducing subspaces other
    than the ladders exist.  Smaller domains raise DepthOverflow; the least
    allowed one runs and passes."""
    for N, D in ((1, 1), (1, 2), (3, 3), (3, 4)):
        s = shift(*graded_pair(alpha, N, D, mode), N)
        with pytest.raises(DepthOverflow, match=f"D >= {max(3, 2 * N - 1)}"):
            reducing_census(s, N, trials=5, seed=3)
    for N, D in ((1, 3), (3, 5)):
        s = shift(*graded_pair(alpha, N, D, mode), N)
        assert reducing_census(s, N, trials=5, seed=3).passed


def test_span_of_z_reduces_a_section_below_the_census_rule():
    """N=3, D=4: z^1 and z^2 both lie in the kernels of S_D and S_D*, so
    span{z}, which is no ladder, reduces the compression of z^3; at
    D = 2N - 1 = 5 it does not."""
    for D, reduces in ((4, True), (5, False)):
        dom, cod = graded_pair(Fraction(1, 2), 3, D, EXACT)
        z = Subspace(dom, monomial(dom, 1)[:, None], np.asarray(dom.metric)[1:2])
        assert is_reducing(shift(dom, cod, 3), z).passed is reduces, D


def test_exact_census_draws_its_controls_once_without_gram_schmidt(monkeypatch):
    """An exact census with independent controls makes one
    random_numerators call for all of them and no orthogonalize call, at
    any number of controls."""
    calls = []
    draw, orth = subspaces.random_numerators, subspaces.orthogonalize
    monkeypatch.setattr(subspaces, "random_numerators",
                        lambda *a: calls.append("draw") or draw(*a))
    monkeypatch.setattr(subspaces, "orthogonalize",
                        lambda *a: calls.append("orthogonalize") or orth(*a))
    for N, D, trials in ((1, 8, 5), (2, 64, 20), (3, 16, 40)):
        calls.clear()
        s = shift(*graded_pair(Fraction(1, 2), N, D, EXACT), N)
        assert reducing_census(s, N, trials=trials).passed
        assert calls == ["draw"], (N, D, trials)


def test_float_census_draws_and_factors_its_controls_once(monkeypatch):
    """A float census makes one random_columns call and one np.linalg.qr
    call for all its controls, at any number of controls."""
    calls = []
    draw, qr = subspaces.random_columns, np.linalg.qr
    monkeypatch.setattr(subspaces, "random_columns",
                        lambda *a: calls.append("draw") or draw(*a))
    monkeypatch.setattr(np.linalg, "qr", lambda *a: calls.append("qr") or qr(*a))
    for N, D, trials in ((1, 8, 5), (2, 64, 20), (3, 256, 40)):
        calls.clear()
        assert reducing_census(shift(*graded_pair(1.0, N, D), N), N, trials=trials).passed
        assert calls == ["draw", "qr"], (N, D, trials)


def _span_projector(sp, x):
    """Reference metric projector onto the span of full-rank columns, in complex128."""
    x = np.asarray(x, dtype=np.complex128)
    gx = np.asarray(sp.metric)[:, None] * x
    return x @ np.linalg.solve(x.conj().T @ gx, gx.conj().T)


def _metric_gap(sp, sub, x):
    """Metric operator norm of P_sub minus the reference projector onto span(x)."""
    sw = np.sqrt(np.asarray(sp.metric))
    diff = projector(sub).matrix - _span_projector(sp, x)
    return float(np.linalg.norm(diff * sw[:, None] / sw[None, :], 2))


def test_complex_columns_keep_their_imaginary_parts():
    """Float storage is real, but buffers filled from complex columns stay complex:
    from_vectors, extend into a larger truncation, invariant_closure and
    random_subspace all span what a complex128 reference spans."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(st.floats(-0.9, 4.0), st.integers(1, 3), st.integers(6, 16),
                      st.integers(1, 3), st.integers(0, 2**32 - 1))
    def check(alpha, N, D, k, seed):
        ws = weight_sequence(WeightParams(alpha, N, D + N), FLOAT)
        small, big = TruncatedSpace(ws, D), TruncatedSpace(ws, D + N)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (D, k)) + 1j * rng.uniform(-1, 1, (D, k))

        sub = from_vectors(small, x)
        assert sub.basis.dtype == np.complex128 and sub.dim == k
        assert _metric_gap(small, sub, x) <= 1e-9

        ext = extend(sub, big)
        assert ext.basis.dtype == np.complex128
        assert _metric_gap(big, ext, np.concatenate([x, np.zeros((N, k))])) <= 1e-9

        # E on degrees < N, so its orbit under z^N has disjoint supports
        y = x[:, : min(k, N)].copy()
        y[N:] = 0
        e = from_vectors(small, y)
        depth = (D - 1 - max_degree(e)) // N
        closure = invariant_closure(e, N, depth)
        m = y.shape[1]
        orbit = np.zeros((D, m * (depth + 1)), dtype=np.complex128)
        for j in range(depth + 1):
            orbit[j * N :, j * m : (j + 1) * m] = y[: D - j * N]
        assert closure.basis.dtype == np.complex128
        assert closure.dim == m * (depth + 1)
        assert _metric_gap(small, closure, orbit) <= 1e-9

        rand = random_subspace(small, k, seed)
        seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=k)
        ref = np.stack([random_vector(small, int(s)) for s in seeds], axis=1)
        assert rand.basis.dtype == np.complex128
        assert _metric_gap(small, rand, ref) <= 1e-9

    check()
