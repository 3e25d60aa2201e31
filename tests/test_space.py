"""Weighted norms, the inner product they induce, and random test columns."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bergman_lab import (
    DimensionMismatch,
    ScalarMode,
    TruncatedSpace,
    WeightParams,
    weight_sequence,
)
from bergman_lab.space import random_columns, random_numerators
from oracles import ReadLogged, monomial, random_vector

FLOAT = ScalarMode.FLOAT64
EXACT = ScalarMode.EXACT_RATIONAL


def make_space(alpha, dim, mode=FLOAT):
    ws = weight_sequence(WeightParams(alpha, 1, dim), mode)
    return TruncatedSpace(ws, dim)


def columns(*vecs):
    return np.stack(vecs, axis=1)


def polar_inner(space, f, g):
    """<f, g> recovered from the squared norms of f + i^k g (polarization),
    all four measured with one column_norms_sq call."""
    units = (1, 1j, -1, -1j)
    sq = space.column_norms_sq(columns(*[f + u * g for u in units]))
    return sum(u * n for u, n in zip(units, sq)) / 4


def test_norm_frozen_one_plus_z():
    """||1 + z|| at alpha = 1: omega = (1, 1/3), so norm = sqrt(4/3)."""
    space = make_space(1.0, 8)
    f = np.array([1.0, 1.0] + [0.0] * 6)
    assert math.sqrt(space.column_norms_sq(f[:, None])[0]) == pytest.approx(
        1.1547005383792515, rel=1e-15)
    exact_space = make_space(Fraction(1), 8, EXACT)
    g = np.array([Fraction(1), Fraction(1)] + [Fraction(0)] * 6, dtype=object)
    assert exact_space.column_norms_sq(g[:, None])[0] == Fraction(4, 3)


def test_inner_frozen():
    space = make_space(1.0, 6)
    f = np.array([1.0, 1.0, 0, 0, 0, 0])
    assert polar_inner(space, f, monomial(space, 0)) == pytest.approx(1.0)
    assert polar_inner(space, f, monomial(space, 1)) == pytest.approx(1.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("m,n", [(0, 0), (0, 3), (2, 2), (1, 4)])
def test_monomial_orthogonality(m, n):
    """<z^m, z^n> = delta_{mn} omega_n."""
    space = make_space(0.5, 8)
    val = polar_inner(space, monomial(space, m), monomial(space, n))
    if m == n:
        assert val == pytest.approx(space.metric[n], rel=1e-15)
    else:
        assert val == 0.0


def test_inner_conjugate_symmetry():
    space = make_space(0.0, 12)
    f, g = random_columns(space, [3, 4]).T
    assert polar_inner(space, f, g) == pytest.approx(
        np.conjugate(polar_inner(space, g, f)), rel=1e-14)


def test_inner_sesquilinear():
    space = make_space(2.5, 10)
    f, g, h = random_columns(space, [1, 2, 3]).T
    lhs = polar_inner(space, f + (2.0 - 1.0j) * g, h)
    rhs = polar_inner(space, f, h) + (2.0 - 1.0j) * polar_inner(space, g, h)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_cauchy_schwarz():
    space = make_space(-0.5, 16)
    for seed in range(5):
        f, g = random_columns(space, [seed, seed + 100]).T
        nf, ng = np.sqrt(space.column_norms_sq(columns(f, g)))
        assert abs(polar_inner(space, f, g)) <= nf * ng * (1 + 1e-12)


def test_parallelogram_float():
    space = make_space(1.0, 20)
    f, g = random_columns(space, [11, 12]).T
    nsum, ndiff, nf, ng = space.column_norms_sq(columns(f + g, f - g, f, g))
    lhs = nsum + ndiff
    rhs = 2.0 * (nf + ng)
    assert abs(lhs - rhs) <= 1e-12 * rhs


def test_parallelogram_exact():
    space = make_space(Fraction(1, 2), 12, EXACT)
    f, g = random_columns(space, [11, 12]).T
    nsum, ndiff, nf, ng = space.column_norms_sq(columns(f + g, f - g, f, g))
    assert nsum + ndiff == 2 * (nf + ng)


def test_norm_sq_exact_is_fraction():
    space = make_space(Fraction(0), 6, EXACT)
    f = np.array([Fraction(1, 2)] * 6, dtype=object)
    assert isinstance(space.column_norms_sq(f[:, None])[0], Fraction)
    assert space.column_norms_sq(f[:, None])[0] == sum(Fraction(1, 4) * w for w in space.metric)


def test_random_vector_deterministic():
    """The same seed draws the same column, a different seed another."""
    space = make_space(0.0, 24)
    cols = random_columns(space, [42, 42, 43])
    assert np.array_equal(cols[:, 0], cols[:, 1])
    assert not np.array_equal(cols[:, 0], cols[:, 2])


def test_random_vector_exact_mode_rational():
    space = make_space(Fraction(1), 10, EXACT)
    f = random_columns(space, [7])[:, 0]
    assert all(isinstance(c, Fraction) for c in f)
    assert space.column_norms_sq(f[:, None])[0] > 0


def test_space_equality_by_value():
    a = make_space(0.5, 8)
    b = make_space(0.5, 8)
    assert a == b
    assert a != make_space(0.5, 9)
    assert a != make_space(0.75, 8)


def test_zero_vector_and_norms():
    space = make_space(2.5, 7)
    z = space.mode.zeros(space.dim)
    assert math.sqrt(space.column_norms_sq(z[:, None])[0]) == 0.0
    assert space.column_norms_sq(z[:, None])[0] == 0.0
    assert math.isclose(math.sqrt(space.column_norms_sq(monomial(space, 0)[:, None])[0]), 1.0)


def test_spaces_agree_on_their_common_prefix():
    """Two truncations of one weight sequence agree whatever their sizes; a
    space with other weights, or in the other mode, does not."""
    ws = weight_sequence(WeightParams(0.5, 1, 12))
    short, long = TruncatedSpace(ws, 5), TruncatedSpace(ws, 12)
    prefix = TruncatedSpace(metric=np.asarray(ws.values[:3]), mode=FLOAT)
    assert short.agrees_with(long) and long.agrees_with(short) and long.agrees_with(prefix)
    assert long.agrees_with(TruncatedSpace(ws, 0))
    assert not short.agrees_with(make_space(1.0, 12))
    assert not short.agrees_with(make_space(Fraction(1, 2), 12, EXACT))


def test_coordinate_space_with_explicit_metric():
    g = np.array([1.0, 0.25, 4.0])
    space = TruncatedSpace(metric=g, mode=FLOAT)
    f = np.array([1.0, 2.0, 0.5])
    assert space.column_norms_sq(f[:, None])[0] == pytest.approx(1.0 + 0.25 * 4.0 + 4.0 * 0.25)


@pytest.mark.parametrize("dim", [-3, -1, 6])
def test_weight_backed_dim_outside_the_sequence_is_refused(dim):
    # a negative dim built a space with dim -3 and a metric of length 2
    ws = weight_sequence(WeightParams(0.5, 1, 5), FLOAT)
    with pytest.raises(DimensionMismatch):
        TruncatedSpace(ws, dim)
    assert TruncatedSpace(ws, 0).dim == len(TruncatedSpace(ws, 0).metric) == 0


def test_explicit_metric_fixes_dim():
    g = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    assert TruncatedSpace(metric=g, mode=FLOAT, dim=5).dim == 5
    with pytest.raises(DimensionMismatch):
        TruncatedSpace(metric=g, mode=FLOAT, dim=3)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_random_columns_stack_random_vectors(mode):
    """random_columns draws, entry for entry and in the same dtype, the
    reference vector of each seed drawn on its own; no seed gives a
    (dim, 0) block."""
    space = make_space(Fraction(1, 2) if mode.is_exact else 0.5, 9, mode)
    seeds = [5, 6, 2**40, 7]
    cols = random_columns(space, np.asarray(seeds))
    assert cols.shape == (9, 4)
    for j, s in enumerate(seeds):
        ref = random_vector(space, s)
        assert cols.dtype == ref.dtype
        assert np.array_equal(cols[:, j], ref)
        if mode.is_exact:
            assert all(type(x) is Fraction for x in cols[:, j])
    for empty in ([], np.asarray([], dtype=np.int64)):
        assert random_columns(space, empty).shape == (9, 0)


def test_exact_random_columns_are_the_shared_integers_over_2_16():
    """The exact draw has one rule: random_numerators gives the integers k
    in [-2^16, 2^16], and random_columns the columns k / 2^16."""
    space = make_space(Fraction(1, 2), 9, EXACT)
    seeds = [5, 6, 2**40, 7]
    ints = random_numerators(space.dim, np.asarray(seeds))
    assert ints.dtype == np.int64 and ints.shape == (9, 4)
    assert np.abs(ints).max() <= 2**16
    want = [[Fraction(k, 2**16) for k in row] for row in ints.tolist()]
    assert random_columns(space, seeds).tolist() == want
    assert random_numerators(0, seeds).shape == (0, 4)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_column_norms_sq_matches_norm_sq(mode):
    """Every column's squared norm, from the block and from norm_sq of the
    column alone, equals the explicit per-entry formula: bit for bit in float
    mode (complex and real blocks), as a Fraction in exact mode, a zero
    column and a zero-width block included."""
    space = make_space(Fraction(3, 2) if mode.is_exact else 1.5, 11, mode)
    block = random_columns(space, range(30, 36))
    block[:, 2] = space.mode.zeros(space.dim)
    blocks = [block, block[:, :0]]
    if not mode.is_exact:
        blocks += [block.real.copy(), block.real[:, :0]]
    for b in blocks:
        got = space.column_norms_sq(b)
        assert len(got) == b.shape[1]
        for j, g in enumerate(got):
            col = b[:, j]
            if mode.is_exact:
                want = sum(x * x * w for x, w in zip(col, space.metric))
                assert isinstance(g, Fraction) and g == want
            else:
                want = np.sum(space.metric * np.abs(col) ** 2)
                assert float(g) == float(want)
            assert space.column_norms_sq(b[:, j:j + 1])[0] == g


def test_exact_column_norms_sq_skip_zero_entries():
    """Exact column norms read no zero entry: the numerator and the
    denominator of each nonzero entry are read once, the norms are the dense
    Fraction sums, and a zero column's norm is exactly Fraction(0)."""
    space = make_space(Fraction(1, 2), 6, EXACT)
    rows = [[1, 0, 0], [0, 0, 3], [Fraction(-2, 5), 0, 0],
            [0, 0, 0], [0, 0, Fraction(7, 3)], [5, 0, 0]]
    block = np.empty((6, 3), dtype=object)
    block[...] = [[ReadLogged(x) for x in row] for row in rows]
    ReadLogged.reads.clear()
    got = space.column_norms_sq(block)
    reads = list(ReadLogged.reads)
    assert all(x != 0 for _part, x in reads)
    nonzero = sorted(id(x) for x in block.ravel() if x != 0)
    for part in ("numerator", "denominator"):
        assert sorted(id(x) for p, x in reads if p == part) == nonzero
    want = [sum(x * x * w for x, w in zip(block[:, j], space.metric)) for j in range(3)]
    assert list(got) == want
    assert got[1] == 0 and isinstance(got[1], Fraction)
