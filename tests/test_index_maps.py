"""The index form of a map against the dense form, the reference.

A map stored by index (a partial weighted permutation, see
``operators.LinearMap``) must give what its dense copy gives: compositions,
adjoints, applies, sums and differences, Gram inverses, kernels, live
rows and diagonals entry for entry (real float64 maps bit for bit, up to the sign of a zero, on real
and complex columns; exact data as equal Fractions), and singular values
within the rounding of LAPACK.  Both forms apply a real map to complex
columns as one complex product; each entry of the dense product adds only
zeros to the one product the index form computes, so they still agree bit
for bit.

Complex-valued maps, which the package never builds (its float operators
are real), match within one rounding per product: BLAS evaluates a complex
product with or without a fused multiply-add depending on the matrix shape
(on OpenBLAS, 2 x 2 products fused, 1 x 1 and 64 x 64 ones not), so no
elementwise product can follow it bit for bit.
"""

from fractions import Fraction

import numpy as np
import pytest

from bergman_lab import (DimensionMismatch, ScalarMode, SingularGram, TruncatedSpace,
                         singular_values)
from bergman_lab.operators import _gram_inverse, diagonal, live_rows, null_space
from bergman_lab.space import random_columns
from oracles import dense_copy, index_map

FLOAT = ScalarMode.FLOAT64
EXACT = ScalarMode.EXACT_RATIONAL
KINDS = ("real", "complex", "exact")


def assert_same_entries(got, want):
    """Equal dtype, shape and entries: float bits after mapping -0.0 to 0.0,
    exact entries as Fractions of equal value."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == object:
        assert all(isinstance(x, Fraction) for x in got.reshape(-1))
        assert (got == want).all()
    else:
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def assert_close(got, want):
    """Complex entries within a few roundings of their size."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def random_space(rng, dim, kind, spread):
    """A diagonal metric whose entries spread over ``spread`` decades."""
    if kind == "exact":
        metric = np.empty(dim, dtype=object)
        metric[:] = [Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50))
                              * 10 ** int(rng.integers(0, spread + 1))) for _ in range(dim)]
        return TruncatedSpace(metric=metric, mode=EXACT)
    return TruncatedSpace(metric=10.0 ** rng.uniform(-spread, 0.0, dim), mode=FLOAT)


def random_values(rng, k, kind):
    if kind == "exact":
        vals = np.empty(k, dtype=object)
        vals[:] = [Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 10)),
                            int(rng.integers(1, 8))) for _ in range(k)]
        return vals
    vals = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
    if kind == "complex":
        vals = vals * np.exp(1j * rng.uniform(0.0, 2 * np.pi, k))
    return vals


def random_index_map(rng, dom, cod, kind, zeros, rows=None):
    """Index map with up to min(dims) nonzeros, none sharing a row or a
    column; with ``zeros`` some stored values are zero.  ``rows`` fixes the
    pattern."""
    if rows is None:
        k = int(rng.integers(0, min(dom.dim, cod.dim) + 1))
        rows = np.full(dom.dim, -1)
        rows[rng.permutation(dom.dim)[:k]] = rng.permutation(cod.dim)[:k]
    vals = dom.mode.zeros(dom.dim, random_values(rng, 0, kind))
    live = np.flatnonzero(rows >= 0)
    vals[live] = random_values(rng, len(live), kind)
    if zeros:
        vals[live[rng.random(len(live)) < 0.3]] = dom.mode.zeros(())
    return index_map(dom, cod, rows, vals)


def random_columns_of(rng, space, kind):
    if kind == "exact":
        return random_columns(space, rng.integers(0, 2**32, 3))
    real = rng.standard_normal((space.dim, 3))
    return real if kind == "real" else real + 1j * rng.standard_normal((space.dim, 3))


def problems():
    st = pytest.importorskip("hypothesis").strategies
    return st.tuples(st.sampled_from(KINDS), st.integers(0, 7), st.integers(0, 7),
                     st.integers(0, 7), st.sampled_from([0, 4, 30]), st.booleans(),
                     st.integers(0, 2**32 - 1))


def test_index_maps_match_their_dense_copies():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(problems())
    def check(problem):
        kind, n_a, n_b, n_c, spread, zeros, seed = problem
        rng = np.random.default_rng(seed)
        a, b, c = (random_space(rng, n, kind, spread) for n in (n_a, n_b, n_c))
        f = random_index_map(rng, a, b, kind, zeros)
        g = random_index_map(rng, b, c, kind, zeros)
        df, dg = dense_copy(f), dense_copy(g)
        same_products = assert_close if kind == "complex" else assert_same_entries
        # the materialized matrix holds each stored value at its position
        want = a.mode.zeros((n_b, n_a)) if kind == "exact" else np.zeros(
            (n_b, n_a), dtype=f._vals.dtype)
        live = np.flatnonzero(f._rows[:-1] >= 0)
        want[f._rows[live], live] = f._vals[live]
        assert_same_entries(f.matrix, want)
        for got, ref in ((g.compose(f), dg.compose(df)), (f.adjoint(), df.adjoint()),
                         (f.adjoint().compose(g.adjoint()), df.adjoint().compose(dg.adjoint()))):
            assert got._rows is not None and ref._rows is None
            same_products(got.matrix, ref.matrix)
        for x in {"real": ("real", "complex"), "complex": ("real", "complex"),
                  "exact": ("exact",)}[kind]:
            cols = random_columns_of(rng, a, x)
            same_products(f.apply(cols), df.apply(cols))
            same_products(f.apply(cols[:, 0]), df.apply(cols[:, 0]))
        # a second map with the same pattern, and one whose pattern clashes
        same = random_index_map(rng, a, b, kind, zeros, rows=f._rows[:-1])
        clash_rows = f._rows[:-1].copy()
        if n_a >= 2 and (clash_rows >= 0).sum() == 1:
            clash_rows[np.flatnonzero(clash_rows < 0)[0]] = clash_rows.max()  # shares a row
        elif (clash_rows >= 0).sum() >= 2:
            clash_rows[clash_rows >= 0] = np.roll(clash_rows[clash_rows >= 0], 1)
        clash = random_index_map(rng, a, b, kind, False, rows=clash_rows)
        for h in (same, clash):
            for got, ref in ((f + h, df + dense_copy(h)), (f - h, df - dense_copy(h))):
                assert_same_entries(got.matrix, ref.matrix)
                clashes = h is clash and not (clash_rows == f._rows[:-1]).all()
                assert (got._rows is None) == clashes
        if min(n_a, n_b):
            np.testing.assert_allclose(singular_values(f), singular_values(df),
                                       rtol=1e-14, atol=0)
        try:
            inv = _gram_inverse(f)
        except SingularGram:
            with pytest.raises(SingularGram):
                _gram_inverse(df)
        else:
            same_products(inv.matrix, _gram_inverse(df).matrix)
        got, ref = null_space(f, 1e-10), null_space(df, 1e-10)
        assert got._rows is not None and ref._rows is None
        # live rows read one weighted entry per column, the same IEEE values
        # as the dense weighted matrix; the nonzeros are the stored values
        for tol in (0.0, 1e-10, 1.0):
            assert (live_rows(f, tol) == live_rows(df, tol)).all()
        # a square draw is diagonal or not in both forms; a Gram operator always is
        if n_a == n_b:
            got_d, ref_d = diagonal(f), diagonal(df)
            assert (got_d is None) == (ref_d is None)
            if got_d is not None:
                assert_same_entries(got_d, ref_d)
        else:
            for m in (f, df):
                with pytest.raises(DimensionMismatch):
                    diagonal(m)
        same_products(diagonal(f.adjoint().compose(f)), diagonal(df.adjoint().compose(df)))
        if kind == "exact":
            assert_same_entries(got.matrix, ref.matrix)
        else:
            assert got.matrix.shape == ref.matrix.shape

    check()


def test_sums_whose_patterns_clash_come_back_dense():
    """Two maps with different rows in one column, or one row hit from two
    columns, sum to a dense map; patterns that agree, where each column's
    rows are equal or one of them is empty, stay indexed."""
    for mode in (FLOAT, EXACT):
        one = mode.one
        dom = TruncatedSpace(metric=np.asarray([one, one / 2, one / 3]), mode=mode)

        def entries(*pairs):
            rows = [r for r, _v in pairs]
            return index_map(dom, dom, rows, np.asarray([v * one for _r, v in pairs]))

        base = entries((0, 1), (2, 2), (-1, 0))
        clashing = (entries((1, 3), (2, 1), (-1, 0)), entries((0, 1), (-1, 0), (2, 5)),
                    entries((-1, 0), (2, 1), (0, 4)))
        agreeing = (entries((0, 3), (2, 1), (-1, 0)), entries((-1, 0), (2, 1), (1, -1)),
                    entries((0, 0), (-1, 0), (1, 7)))
        for others, indexed in ((clashing, False), (agreeing, True)):
            for other in others:
                for got, ref in ((base + other, dense_copy(base) + dense_copy(other)),
                                 (base - other, dense_copy(base) - dense_copy(other))):
                    assert (got._rows is not None) == indexed
                    assert (got.matrix == ref.matrix).all()
