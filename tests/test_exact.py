"""The zero-skipping product helpers against the dense numpy expressions."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bergman_lab
from bergman_lab import _exact

PACKAGE = Path(bergman_lab.__file__).resolve().parent


def random_fractions(rng, shape, density, kind=Fraction):
    """Object array of ``kind`` entries, each nonzero with probability ``density``."""
    out = np.empty(shape, dtype=object)
    flat = out.reshape(-1)
    for i in range(flat.size):
        num = int(rng.integers(1, 9)) * int(rng.choice([-1, 1]))
        flat[i] = kind(num, int(rng.integers(1, 6))) if rng.random() < density else kind(0)
    return out


def positive_fractions(rng, n):
    out = np.empty(n, dtype=object)
    out[:] = [Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50))) for _ in range(n)]
    return out


def random_complex(rng, shape, density):
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    return (re + 1j * im) * (rng.random(shape) < density)


def dense_adjoint(m, w_out, w_in):
    return np.conjugate(m).T * (w_out[None, :] / w_in[:, None])


def assert_fraction_equal(got, want):
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.shape == want.shape
    assert all(isinstance(x, Fraction) for x in got.reshape(-1))
    assert (got == want).all()


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def products():
    """(seed, left shape, right shape, two densities): 1-D operands and empty shapes included."""
    st = pytest.importorskip("hypothesis").strategies

    @st.composite
    def draw_product(draw):
        m, k, n = (draw(st.integers(0, 6)) for _ in range(3))
        left = draw(st.sampled_from([(m, k), (k,)]))
        right = draw(st.sampled_from([(k, n), (k,)]))
        densities = st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0])
        return draw(st.integers(0, 2**32 - 1)), left, right, draw(densities), draw(densities)

    return draw_product()


def test_mm_matches_dense_product():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(products())
    def check(problem):
        seed, left, right, density_a, density_b = problem
        rng = np.random.default_rng(seed)
        a = random_fractions(rng, left, density_a)
        b = random_fractions(rng, right, density_b)
        assert_fraction_equal(_exact.mm(a, b), a @ b)
        ca, cb = random_complex(rng, left, density_a), random_complex(rng, right, density_b)
        assert_bit_identical(_exact.mm(ca, cb), ca @ cb)

    check()


def test_metric_adjoint_matches_dense_expression():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, 6), st.integers(0, 6),
                      st.sampled_from([0.0, 0.2, 0.5, 1.0]), st.integers(0, 2**32 - 1))
    def check(rows, cols, density, seed):
        rng = np.random.default_rng(seed)
        m = random_fractions(rng, (rows, cols), density)
        w_out, w_in = positive_fractions(rng, rows), positive_fractions(rng, cols)
        assert_fraction_equal(_exact.metric_adjoint(m, w_out, w_in),
                              dense_adjoint(m, w_out, w_in))
        cm = random_complex(rng, (rows, cols), density)
        fw_out, fw_in = rng.random(rows) + 0.1, rng.random(cols) + 0.1
        assert_bit_identical(_exact.metric_adjoint(cm, fw_out, fw_in),
                             dense_adjoint(cm, fw_out, fw_in))

    check()


class CountedFraction(Fraction):
    """A Fraction that records the factors of every product it is the left factor of."""

    products: list = []

    def __mul__(self, other):
        CountedFraction.products.append((self, other))
        return Fraction.__mul__(self, other)


def test_mm_multiplies_only_nonzero_pairs():
    """Exactly (a != 0).sum(0) @ (b != 0).sum(1) products, none with a zero factor."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
                      st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]), st.integers(0, 2**32 - 1))
    def check(m, k, n, density, seed):
        rng = np.random.default_rng(seed)
        a = random_fractions(rng, (m, k), density, CountedFraction)
        b = random_fractions(rng, (k, n), density, CountedFraction)
        want = a @ b
        CountedFraction.products.clear()
        got = _exact.mm(a, b)
        assert len(CountedFraction.products) == int((a != 0).sum(0) @ (b != 0).sum(1))
        assert all(x != 0 and y != 0 for x, y in CountedFraction.products)
        assert_fraction_equal(got, want)

    check()


def test_only_exact_forms_matrix_products():
    """Every ``@`` of the package lives in _exact, so none multiplies Fraction zeros."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_exact.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult)]
    assert found == []
