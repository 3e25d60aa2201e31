"""The exact kernels of ``_exact`` against the dense numpy expressions."""

import ast
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bergman_lab
from bergman_lab import LinearMap, ScalarMode, TruncatedSpace, _exact
from bergman_lab.verify import AMBIENT_CHECKS, CHECKS, DEFAULT_TOLS, CheckSpec, run_check
from oracles import ReadLogged

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


#: Mersenne primes: the denominators of the coprime draws.
LARGE_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1)
#: The shared draws put their numerators over divisors of this denominator.
SHARED_DENOMINATOR = 2**40 * 3**30

STYLES = ("small", "ints", "coprime", "shared", "units", "multiples")


def rational_entries(rng, shape, density, style):
    """Object array of rationals, each entry nonzero with probability ``density``.

    ``small`` draws Fractions with one-digit parts; ``ints`` mixes ints with
    such Fractions, and half its zeros are the int 0; ``coprime`` puts
    62-bit numerators over distinct large primes; ``shared`` puts them over
    divisors of one large denominator; ``units`` makes half its nonzeros
    ``Fraction(1)`` and the rest ``small``; ``multiples`` puts 62-bit
    numerators over ``P * k``, P one of two large primes and k below 13,
    so that denominators share large factors without dividing each other.
    """
    out = np.empty(shape, dtype=object)
    flat = out.reshape(-1)
    for i in range(flat.size):
        sign = int(rng.choice([-1, 1]))
        small = Fraction(sign * int(rng.integers(1, 9)), int(rng.integers(1, 6)))
        big = sign * int(rng.integers(1, 2**62))
        if rng.random() >= density:
            flat[i] = 0 if style == "ints" and rng.random() < 0.5 else Fraction(0)
        elif style == "small":
            flat[i] = small
        elif style == "ints":
            flat[i] = small.numerator if rng.random() < 0.5 else small
        elif style == "coprime":
            flat[i] = Fraction(big, LARGE_PRIMES[int(rng.integers(len(LARGE_PRIMES)))])
        elif style == "units":
            flat[i] = Fraction(1) if rng.random() < 0.5 else small
        elif style == "multiples":
            flat[i] = Fraction(big, LARGE_PRIMES[int(rng.integers(2))] * int(rng.integers(1, 13)))
        else:
            flat[i] = Fraction(big, SHARED_DENOMINATOR // 6 ** int(rng.integers(0, 4)))
    return out


def positive_rationals(rng, n, style):
    return np.abs(rational_entries(rng, (n,), 1.0, style))


def assert_values_equal(got, want):
    """Equal shapes and values; a sum may keep an int entry where the dense one is a Fraction."""
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.shape == want.shape
    assert (got == want).all()


def test_exact_kernels_match_dense_fraction_references():
    """Products, column norms, metric adjoints and scalings, one-entry norms,
    elementwise products, sums and differences of every entry style equal
    the dense Fraction expressions, 1-D operands and empty shapes included,
    with metrics as Fractions and as integers over their least common
    denominator; products, norms and scalings are all Fractions, and an
    elementwise product with a factor 1 is the other factor itself."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(products(), st.sampled_from(STYLES))
    def check(problem, style):
        seed, left, right, density_a, density_b = problem
        rng = np.random.default_rng(seed)
        a = rational_entries(rng, left, density_a, style)
        b = rational_entries(rng, right, density_b, style)
        assert_fraction_equal(_exact.mm(a, b), a @ b)
        c = rational_entries(rng, left, density_b, style)
        assert_values_equal(_exact.add(a, c), a + c)
        assert_values_equal(_exact.sub(a, c), a - c)
        got = _exact.mul(a, c)
        assert_values_equal(got, a * c)
        for idx in zip(*np.nonzero((a == 1) & (c != 0))):
            assert got[idx] is c[idx]
        # int / int is a float in numpy, so the references divide Fractions
        as_fractions = np.vectorize(Fraction, otypes=[object])
        x = a.reshape(-1)
        p, q = (positive_rationals(rng, x.size, style) for _ in range(2))
        (p_int, p_den), (q_int, q_den) = map(_exact.over_common_denominator, (p, q))
        want = x * (as_fractions(p) / as_fractions(q))
        assert_fraction_equal(_exact.metric_scale(x, p, q), want)
        assert_fraction_equal(_exact.metric_scale(x, p_int, q_int, p_den, q_den), want)
        assert_fraction_equal(_exact.weighted_sq(x, p), x * x * as_fractions(p))
        assert_fraction_equal(_exact.weighted_sq(x, p_int, p_den), x * x * as_fractions(p))
        if a.ndim == 2:
            w = positive_rationals(rng, a.shape[0], style)
            want = [sum((x * x * g for x, g in zip(a[:, j], w)), Fraction(0))
                    for j in range(a.shape[1])]
            assert_fraction_equal(_exact.column_norms_sq(a, w), np.asarray(want, dtype=object))
            w_int, w_den = _exact.over_common_denominator(w)
            assert w_den == math.lcm(*(Fraction(g).denominator for g in w))
            assert all(Fraction(n, w_den) == g for n, g in zip(w_int, w))
            assert_fraction_equal(_exact.column_norms_sq(a, w_int, w_den),
                                  np.asarray(want, dtype=object))
            w_in = positive_rationals(rng, a.shape[1], style)
            want = dense_adjoint(a, as_fractions(w), as_fractions(w_in))
            assert_fraction_equal(_exact.metric_adjoint(a, w, w_in), want)
            in_int, in_den = _exact.over_common_denominator(w_in)
            assert_fraction_equal(_exact.metric_adjoint(a, w_int, in_int, w_den, in_den), want)

    check()


def test_sums_carry_at_most_the_lcm_of_their_denominators(monkeypatch):
    """Terms over P * k (P a large prime) are summed over their least common
    denominator: the one Fraction a sum makes gets a denominator no longer
    than that lcm, where a running product of the denominators would grow
    by P with every new k."""
    prime = 2**127 - 1
    terms = [((-1) ** k * (3 * k + 1), prime * k) for k in range(1, 41)]
    dens = [d for _n, d in terms]
    made = []

    def recording(n, d):
        made.append((n, d))
        return Fraction(n, d)

    monkeypatch.setattr(_exact, "Fraction", recording)
    got = _exact._ratio_sum(terms)
    assert got == sum(Fraction(n, d) for n, d in terms)
    [(_n, d)] = made
    assert d.bit_length() <= math.lcm(*dens).bit_length()


@pytest.mark.parametrize("name", ["census", "norm_identity", "expansive", "lower_bound"])
def test_exact_checks_pass_at_dimension_64(name):
    """The exact checks whose sums and norms carry the weights' large
    denominators pass at D = 64, where sums over products of denominators
    made them take seconds."""
    spec = CheckSpec(name, 2, Fraction(1, 2), 64, (0,), 4, 0,
                     ScalarMode.EXACT_RATIONAL, DEFAULT_TOLS[name])
    entry = run_check(spec)
    assert entry.passed and entry.residual == 0.0, entry.note


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_exact_checks_pass_where_the_weights_underflow_float64(name):
    """At N=2, alpha = 10^7, D=64 a ladder's squared norms omega_n fall
    below 1e-308, so converting a leftover's squared norm and the basis
    norm to float separately made 0/0: the census reported a NaN defect and
    every tower check failed on the warning, which pytest's
    error::RuntimeWarning filter raises.  Residuals are divided in exact
    arithmetic and then converted, so every check passes with residual 0.0."""
    residues = None if name in AMBIENT_CHECKS else (0,)
    spec = CheckSpec(name, 2, Fraction(10**7), 64, residues, 4, 0,
                     ScalarMode.EXACT_RATIONAL, DEFAULT_TOLS[name])
    entry = run_check(spec)
    assert entry.passed and entry.residual == 0.0, entry.note


def test_cancelling_sums_are_fraction_zeros():
    """Terms that cancel leave an exact Fraction 0, with large coprime and
    shared denominators alike."""
    for x, y in ((Fraction(3, 7), Fraction(-5, 2)),
                 (Fraction(2**70 + 1, 2**61 - 1), Fraction(-3, 2**89 - 1)),
                 (Fraction(5, SHARED_DENOMINATOR), Fraction(7, SHARED_DENOMINATOR // 6))):
        a = np.array([[x, y, x, -y, 1]], dtype=object)
        b = np.array([[y], [x], [-y], [x], [0]], dtype=object)
        for got in (_exact.mm(a, b)[0, 0], _exact.mm(a[0], b[:, 0])):
            assert got == 0 and type(got) is Fraction
        for got in (_exact.sub(a, a), _exact.add(a, -a)):
            assert (got == 0).all()
            assert all(type(v) is Fraction for v in got[0, :4])
        norms = _exact.column_norms_sq(np.array([[x, 0], [y, 0]], dtype=object),
                                       np.array([Fraction(1), Fraction(2)], dtype=object))
        assert norms[1] == 0 and type(norms[1]) is Fraction


def test_linear_map_sum_and_difference_match_elementwise():
    """Exact LinearMap sums and differences are the elementwise dense
    Fraction arithmetic; float and complex maps are the numpy expressions bit
    for bit."""
    rng = np.random.default_rng(17)
    for style in STYLES:
        for density in (0.0, 0.2, 1.0):
            dom = TruncatedSpace(metric=positive_rationals(rng, 4, style),
                                 mode=ScalarMode.EXACT_RATIONAL)
            cod = TruncatedSpace(metric=positive_rationals(rng, 3, style),
                                 mode=ScalarMode.EXACT_RATIONAL)
            f = LinearMap(dom, cod, rational_entries(rng, (3, 4), 0.5, style))
            g = LinearMap(dom, cod, rational_entries(rng, (3, 4), density, style))
            assert_values_equal((f + g).matrix, f.matrix + g.matrix)
            assert_values_equal((f - g).matrix, f.matrix - g.matrix)
    dom = TruncatedSpace(metric=rng.random(4) + 0.1, mode=ScalarMode.FLOAT64)
    cod = TruncatedSpace(metric=rng.random(3) + 0.1, mode=ScalarMode.FLOAT64)
    for make in (lambda: random_complex(rng, (3, 4), 0.5), lambda: rng.standard_normal((3, 4))):
        f, g = LinearMap(dom, cod, make()), LinearMap(dom, cod, make())
        assert_bit_identical((f + g).matrix, f.matrix + g.matrix)
        assert_bit_identical((f - g).matrix, f.matrix - g.matrix)


def test_sums_touch_only_the_nonzero_entries_of_the_right_operand():
    """Exact sums and differences read both operands only where the right
    one is nonzero; elsewhere the left entry is kept as it is."""
    rng = np.random.default_rng(23)
    for density in (0.0, 0.3, 1.0):
        a = random_fractions(rng, (4, 5), 0.7, ReadLogged)
        b = random_fractions(rng, (4, 5), density, ReadLogged)
        at_b = {id(x) for x in np.concatenate([a[b != 0], b[b != 0]])}
        for kernel, want in ((_exact.add, a + b), (_exact.sub, a - b)):
            ReadLogged.reads.clear()
            got = kernel(a, b)
            assert {id(x) for _part, x in ReadLogged.reads} <= at_b
            assert all(got[idx] is a[idx] for idx in zip(*np.nonzero(b == 0)))
            assert_values_equal(got, want)


def test_float_kernels_are_the_numpy_expressions():
    """On float and complex data the norms, sums, differences and nonzero
    masks are the plain numpy expressions, bit for bit."""
    rng = np.random.default_rng(5)
    w = rng.random(6) + 0.1
    for a, c in ((random_complex(rng, (6, 5), 0.5), random_complex(rng, (6, 5), 0.5)),
                 (rng.standard_normal((6, 5)), rng.standard_normal((6, 5))),
                 (rng.standard_normal((6, 0)), rng.standard_normal((6, 0)))):
        assert_bit_identical(_exact.column_norms_sq(a, w),
                             np.sum(np.abs(np.ascontiguousarray(a.T)) ** 2 * w, axis=1))
        assert_bit_identical(_exact.add(a, c), a + c)
        assert_bit_identical(_exact.sub(a, c), a - c)
        assert_bit_identical(_exact.mul(a, c), a * c)
        assert_bit_identical(_exact.support(a), a != 0)
        p = np.abs(c.real) + 0.1
        assert_bit_identical(_exact.metric_scale(a, p, w[:, None]),
                             np.conjugate(a) * (p / w[:, None]))
        assert_bit_identical(_exact.weighted_sq(a, p), np.abs(a) ** 2 * p)
    special = np.array([0.0, -0.0, np.nan, np.inf, 1e-300, 1j, -0j])
    assert_bit_identical(_exact.support(special), special != 0)


def test_exact_and_float_operands_do_not_mix():
    """An object operand next to a float one is refused with a TypeError
    instead of producing an object array of floats."""
    exact = np.array([[Fraction(1, 3), 0], [0, Fraction(2)]], dtype=object)
    flt = np.array([[0.5, 0.0], [0.0, 2.0]])
    calls = (lambda x, y: _exact.mm(x, y), lambda x, y: _exact.add(x, y),
             lambda x, y: _exact.sub(x, y), lambda x, y: _exact.column_norms_sq(x, y[0]),
             lambda x, y: _exact.metric_adjoint(x, y[0], y[1]))
    for call in calls:
        for x, y in ((exact, flt), (flt, exact)):
            with pytest.raises(TypeError, match="do not mix"):
                call(x, y)


def test_mm_multiplies_only_nonzero_pairs():
    """Only nonzero pairs are multiplied: every nonzero factor with a nonzero
    partner is read, numerator and denominator once each, no entry is read
    twice, no zero entry is read, and the result is the dense Fraction product."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
                      st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]), st.integers(0, 2**32 - 1))
    def check(m, k, n, density, seed):
        rng = np.random.default_rng(seed)
        a = random_fractions(rng, (m, k), density, ReadLogged)
        b = random_fractions(rng, (k, n), density, ReadLogged)
        want = a @ b
        ReadLogged.reads.clear()
        got = _exact.mm(a, b)
        reads = Counter((part, id(x)) for part, x in ReadLogged.reads)
        assert all(x != 0 for _part, x in ReadLogged.reads)
        assert set(reads.values()) <= {1}
        paired = ([a[i, p] for i, p in zip(*np.nonzero(a != 0)) if (b[p] != 0).any()]
                  + [b[p, j] for p, j in zip(*np.nonzero(b != 0)) if (a[:, p] != 0).any()])
        assert all(reads[(part, id(x))] == 1
                   for x in paired for part in ("numerator", "denominator"))
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
