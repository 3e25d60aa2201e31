"""Check registry, report schema, grids, and suite determinism."""

import ast
import dataclasses
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bergman_lab import (
    DepthOverflow,
    NotReducing,
    ReducingResult,
    ScalarMode,
    TruncatedSpace,
    extend,
    operators,
    restrict,
    wandering,
)
import bergman_lab.subspaces as subspaces
import bergman_lab.verify as verify
from bergman_lab.verify import (
    AMBIENT_CHECKS,
    CHECKS,
    DEFAULT_TOLS,
    SUITE_VERSION,
    CheckSpec,
    VerificationReport,
    check_beurling,
    default_grid,
    run_check,
    run_suite,
    smoke_grid,
    _column_defects,
    _entry,
    _tower,
    _tower_cached,
    weights_reach,
)
from oracles import level_maps

FLOAT = ScalarMode.FLOAT64
EXACT = ScalarMode.EXACT_RATIONAL


def spec_for(name: str, mode=FLOAT, **kw) -> CheckSpec:
    residues = None if name in AMBIENT_CHECKS else kw.pop("residues", (0,))
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    base = dict(N=2, alpha=alpha, D=12 if mode.is_exact else 16, depth=3, seed=42)
    base.update(kw)
    return CheckSpec(name, residues=residues, mode=mode,
                     tol=DEFAULT_TOLS[name], **base)


def strip_wall_ms(obj: dict) -> dict:
    out = dict(obj)
    out["entries"] = [dict(e, wall_ms=0.0) for e in obj["entries"]]
    return out


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_each_check_passes_float(name):
    entry = run_check(spec_for(name))
    assert entry.passed, entry.note
    assert entry.residual <= DEFAULT_TOLS[name]
    assert entry.wall_ms > 0.0
    assert entry.exact is None


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_each_check_passes_exact(name):
    entry = run_check(spec_for(name, mode=EXACT))
    assert entry.passed, entry.note
    assert entry.exact is True
    assert entry.residual == 0.0


def test_norm_identity_detects_coefficient_corruption(monkeypatch):
    import bergman_lab.verify as verify
    true_coeff = verify.shift_coeff

    def corrupted(N, alpha, n, mode):
        c = true_coeff(N, alpha, n, mode)
        return c + 1e-6 if n == 3 else c

    monkeypatch.setattr(verify, "shift_coeff", corrupted)
    entry = run_check(spec_for("norm_identity"))
    assert not entry.passed
    assert entry.residual > 1e-10


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_column_defects_measure_only_nonzero_columns(mode):
    """Zero columns are (0.0, True) without a norm (their den may even be 0);
    the others measure sqrt(|col|^2 / den)."""
    one = mode.one
    space = TruncatedSpace(metric=np.asarray([one, one / 3, one / 6]), mode=mode)
    cols = space.mode.zeros((3, 4))
    cols[:, 1] = [one, 2 * one, 0 * one]
    cols[:, 3] = [0 * one, one / 5, one]
    dens = [0, 4 * one, 0, one / 7]
    got = _column_defects(space.column_norms_sq(cols), dens)
    assert got[0] == got[2] == (0.0, True)
    for j in (1, 3):
        want = math.sqrt(float(space.column_norms_sq(cols[:, j:j + 1])[0]) / float(dens[j]))
        assert got[j] == (want, False)
    assert _column_defects(space.column_norms_sq(cols[:, :0]), []) == []


def _scaled(m, c):
    return operators.LinearMap(m.domain, m.codomain, m.matrix * c)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("name,field,factor", [
    ("expansive", "chain", Fraction(1, 2)),
    ("lower_bound", "t", Fraction(1, 100)),
])
def test_block_checks_catch_faulty_levels(monkeypatch, mode, name, field, factor):
    """A halved lift chain fails expansive; a shift shrunk 100-fold fails
    lower_bound.  Each failure is a verdict: a check that raised would have
    an infinite residual and the exception's type in its note."""
    built = verify._tower_cached
    c = factor if mode.is_exact else float(factor)

    def faulty(*key):
        level = built(*key)
        return level._replace(**{field: _scaled(getattr(level, field), c)})

    # a level built while the faulty builder is in place chains the scaled
    # level below it, so neither cache state may leak into other tests
    _tower_cached.cache_clear()
    monkeypatch.setattr(verify, "_tower_cached", faulty)
    try:
        entry = run_check(spec_for(name, mode=mode))
    finally:
        _tower_cached.cache_clear()
    assert not entry.passed
    assert DEFAULT_TOLS[name] < entry.residual < math.inf
    assert not re.match(r"\w+: ", entry.note), entry.note


def test_checks_make_no_per_vector_applies(monkeypatch):
    """Checks apply each map once to a block of columns, never per vector:
    every apply takes a 2-D block, and each check makes as many applies
    with 5 random vectors as with NUM_RANDOM_VECTORS."""
    shapes = []
    apply = operators.LinearMap.apply

    def recording(self, cols):
        shapes.append(np.shape(cols))
        return apply(self, cols)

    monkeypatch.setattr(operators.LinearMap, "apply", recording)
    counts = {}
    for num in (5, verify.NUM_RANDOM_VECTORS):
        monkeypatch.setattr(verify, "NUM_RANDOM_VECTORS", num)
        for mode in (FLOAT, EXACT):
            for name in CHECKS:
                _tower_cached.cache_clear()
                before = len(shapes)
                assert run_check(spec_for(name, mode=mode)).passed
                counts.setdefault((mode, name), []).append(len(shapes) - before)
    _tower_cached.cache_clear()
    assert shapes and all(len(shape) == 2 for shape in shapes)
    assert {key: n for key, n in counts.items() if n[0] != n[1]} == {}
    assert counts[FLOAT, "range_projector"][0] > 0


def test_run_check_wraps_exceptions():
    bad_alpha = run_check(CheckSpec("norm_identity", 2, -2.0, 16))
    assert not bad_alpha.passed
    assert "InvalidAlpha" in bad_alpha.note
    assert math.isinf(bad_alpha.residual)
    bad_name = run_check(CheckSpec("bogus", 2, 0.5, 16))
    assert not bad_name.passed
    assert "KeyError" in bad_name.note


@pytest.mark.parametrize("alpha", [1300.0, 1390.0])
def test_tower_checks_refuse_weights_too_small_for_a_metric_ratio(alpha):
    """At N=3, D=256 the tower reads omega_267, which falls below 1 / max
    float64 from about alpha 1300.  Read as a weight, it would put a NaN
    into the lift, and the tower checks would fail with residual 0.0 and no
    note or raise LinAlgError; they report InvalidAlpha instead."""
    for residues in ((0,), (0, 1)):
        for name in verify.TOWER_CHECKS:
            entry = run_check(CheckSpec(name, 3, alpha, 256, residues, 4, 0, FLOAT,
                                        DEFAULT_TOLS[name]))
            assert not entry.passed
            assert entry.note.startswith("InvalidAlpha: weight omega_"), (name, entry.note)


def test_tower_checks_pass_at_alpha_1200():
    """At alpha 1200 every weight of the N=3, D=256 tower is above the bound."""
    for name in verify.TOWER_CHECKS:
        entry = run_check(CheckSpec(name, 3, 1200.0, 256, (0,), 4, 0, FLOAT,
                                    DEFAULT_TOLS[name]))
        assert entry.passed, (name, entry.note)


def test_exact_towers_do_no_elimination(monkeypatch):
    """Every map of an exact residue tower has one nonzero per row and
    column, so no check that reads the tower eliminates: with rref and
    invert refused, every such check passes at N = 1..3, D = 12, for every
    residue set."""
    def refuse(mat):
        raise AssertionError("elimination on a tower map")

    monkeypatch.setattr(verify._exact, "rref", refuse)
    monkeypatch.setattr(verify._exact, "invert", refuse)
    _tower_cached.cache_clear()
    try:
        for N in (1, 2, 3):
            for size in range(N + 1):
                for residues in itertools.combinations(range(N), size):
                    for name in CHECKS:
                        if name in AMBIENT_CHECKS:
                            continue
                        entry = run_check(spec_for(name, mode=EXACT, N=N, D=12,
                                                   depth=4, residues=residues))
                        assert entry.passed, (name, N, residues, entry.note)
    finally:
        _tower_cached.cache_clear()


def test_beurling_rejects_non_reducing_subspace(monkeypatch):
    import bergman_lab.verify as verify
    monkeypatch.setattr(verify, "is_reducing",
                        lambda *args: ReducingResult(False, 1.0, 0.0))
    with pytest.raises(NotReducing):
        check_beurling(spec_for("beurling"))


@pytest.mark.parametrize("D,alpha", [(256, 2.5), (128, 4.0), (64, 6.0)])
def test_beurling_float_large_d(D, alpha):
    """max_degree cuts in metric units, so rounding noise in the top degrees,
    large in raw coefficients where 1/sqrt(omega_n) amplifies it, does not
    shorten the closure depth."""
    spec = CheckSpec("beurling", 2, alpha, D, (0,), 4, 0, FLOAT, DEFAULT_TOLS["beurling"])
    entry = run_check(spec)
    assert entry.passed, entry.note
    assert f"depth={(D - 1) // 2}," in entry.note


@pytest.mark.parametrize("N,alpha,D,residues", [
    (3, 50.0, 128, (0, 2)),
    (3, 50.0, 128, (1, 2)),
    (3, 50.0, 128, (0, 1, 2)),
    (3, 50.0, 256, (0, 1)),
    (3, 50.0, 256, (0, 2)),
    (3, 50.0, 256, (0, 1, 2)),
    (2, 200.0, 47, (0, 1)),
])
def test_beurling_float_large_alpha(N, alpha, D, residues):
    """E keeps only its combinations that vanish above its max degree, so
    rounding noise there, amplified along the orbit by the ratio of shift
    coefficients at high and low degree, no longer leaks out of the ladder."""
    spec = CheckSpec("beurling", N, alpha, D, residues, 4, 0, FLOAT, DEFAULT_TOLS["beurling"])
    entry = run_check(spec)
    assert entry.passed, (entry.residual, entry.note)


def _float_ladder_property(name: str, max_alpha: float, max_D: int) -> None:
    """Float check ``name`` passes on derandomized ladders with alpha in
    (-1, max_alpha] and D up to max_D, at its default tolerance."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def ladders(draw):
        N = draw(st.integers(1, 3))
        D = draw(st.integers(2 * N, max_D))
        residues = draw(st.sets(st.integers(0, N - 1), min_size=1))
        alpha = draw(st.floats(-1.0, max_alpha, exclude_min=True))
        return alpha, N, D, tuple(sorted(residues))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(ladders())
    def check(case):
        alpha, N, D, residues = case
        spec = CheckSpec(name, N, alpha, D, residues, 4, 0, FLOAT, DEFAULT_TOLS[name])
        entry = run_check(spec)
        assert entry.passed, (entry.residual, entry.note)

    check()


def test_beurling_float_closure_property():
    """Float beurling regrows every residue ladder, at any alpha up to 200."""
    _float_ladder_property("beurling", 200.0, 128)


def test_kernel_containment_float_property():
    """Float kernel_containment holds at tol 1e-9 for alpha up to 1000 and D up to 256."""
    assert DEFAULT_TOLS["kernel_containment"] == 1e-9
    _float_ladder_property("kernel_containment", 1000.0, 256)


def test_beurling_needs_a_safe_window():
    with pytest.raises(DepthOverflow):
        check_beurling(CheckSpec("beurling", 2, 0.5, 3))
    entry = run_check(CheckSpec("beurling", 2, 0.5, 3))
    assert not entry.passed
    assert "DepthOverflow" in entry.note


def test_tower_shared_between_checks():
    a = _tower(spec_for("left_inverse"))
    b = _tower(spec_for("range_projector"))
    assert a is b
    c = _tower(spec_for("left_inverse", residues=(1,)))
    assert c is not a


def _count_gram_inverses(monkeypatch) -> list:
    calls = []
    gram_inverse = operators._gram_inverse

    def counted(t):
        calls.append(t)
        return gram_inverse(t)

    monkeypatch.setattr(operators, "_gram_inverse", counted)
    return calls


def test_gram_inverse_once_per_level(monkeypatch):
    """Each tower level inverts its Gram operator once; the lift reuses pinv,
    t maps the level's ladder into its extension, and the lift chain of
    level j runs from level 0's ladder into level j's extension."""
    calls = _count_gram_inverses(monkeypatch)
    _tower_cached.cache_clear()
    try:
        levels = [_tower_cached(2, 0.5, 12, (0,), FLOAT, j) for j in range(3)]
    finally:
        _tower_cached.cache_clear()
    assert len(calls) == 3
    for j, level in enumerate(levels):
        assert level.shift.domain.dim == 12 + 2 * j
        assert level.shift.codomain.dim == 12 + 2 * (j + 1)
        assert list(level_maps(level)) == ["shift", "t", "left_inv", "chain"]
        assert level.ladder.ambient == level.shift.domain
        assert level.ext.ambient == level.shift.codomain
        assert level.t.domain == level.ladder.embedding.domain
        assert level.t.codomain == level.ext.embedding.domain
        want = extend(level.ladder, level.shift.codomain)
        assert level.ext.embedding.domain == want.embedding.domain
        assert np.array_equal(level.ext.basis, want.basis)
        assert level.ext.residues == want.residues == frozenset({0})
        assert level.left_inv.codomain == level.t.domain
        assert level.left_inv.domain == level.t.codomain
        assert level.chain.domain == levels[0].t.domain
        assert level.chain.codomain == level.t.codomain


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_warm_lift_checks_compose_nothing(monkeypatch, mode):
    """The lift chains are composed once, when their levels are built: a warm
    expansive or kernel_containment composes no tower map, and a warm
    min_degree only puts each level's lift chain under its ladder's
    embedding, once per level."""
    composed = []
    compose = operators.LinearMap.compose
    for name in ("expansive", "min_degree", "kernel_containment"):
        spec = spec_for(name, mode=mode, depth=4)
        assert run_check(spec).passed
        tower = {id(m): field for j in range(spec.depth)
                 for field, m in level_maps(_tower(spec, j)).items()}

        def recording(self, other, name=name, tower=tower):
            if id(self) in tower or id(other) in tower:
                composed.append((name, tower.get(id(self)), tower.get(id(other))))
            return compose(self, other)

        monkeypatch.setattr(operators.LinearMap, "compose", recording)
        entry = run_check(spec)
        monkeypatch.setattr(operators.LinearMap, "compose", compose)
        assert entry.passed, (name, entry.note)
    assert composed == [("min_degree", None, "chain")] * 4


@pytest.mark.parametrize("mode,D", [(FLOAT, 256), (EXACT, 32)])
def test_ladder_towers_reach_no_factorization(monkeypatch, mode, D):
    """On a residue ladder every subspace the level and tower checks build
    (the ladders, wandering parts, kernels, orbits, their extensions and
    truncations) is a span of monomials held by an index embedding, so a
    cold run of each of them (N=3, residues {0, 2}, depth 4) reaches no
    orthogonalize, QR, SVD or exact elimination.  census is left out: its
    random controls are dense subspaces, factored by QR."""
    calls = []
    for owner, name in ((subspaces, "orthogonalize"), (np.linalg, "qr"),
                        (np.linalg, "svd"), (verify._exact, "rref")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _n=name, _f=original, **kw:
                            calls.append(_n) or _f(*a, **kw))
    alpha = Fraction(1, 2) if mode.is_exact else 1.0
    _tower_cached.cache_clear()
    try:
        for name, (_check, tol, reads) in verify._CHECK_TABLE.items():
            if reads == "ambient":
                continue
            entry = run_check(CheckSpec(name, 3, alpha, D, (0, 2), 4, 0, mode, tol))
            assert entry.passed, (name, entry.note)
            assert calls == [], name
    finally:
        _tower_cached.cache_clear()


#: The checks that report a zero ladder as vacuous instead of measuring it.
VACUOUS_ON_ZERO_LADDER = ("lower_bound", "kernel_containment", "expansive", "min_degree",
                          "beurling")


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
@pytest.mark.parametrize("name", [n for n in CHECKS if n not in AMBIENT_CHECKS])
def test_checks_pass_on_the_zero_ladder(mode, name):
    """Every tower check passes on the empty residue set with residual 0.0;
    the checks that guard it say so in the note."""
    entry = run_check(spec_for(name, mode=mode, residues=(), D=12, depth=3))
    assert entry.passed, entry.note
    assert entry.residual == 0.0
    if name in VACUOUS_ON_ZERO_LADDER:
        assert entry.note == "zero subspace, vacuous"


def test_check_table_order_is_pinned():
    """The grids and the large-D workload assign seeds in CHECKS order, so a
    reordered table would reseed every entry."""
    assert list(CHECKS) == [
        "norm_identity", "coeff_bounds", "lower_bound", "left_inverse", "range_projector",
        "telescoping", "kernel_containment", "expansive", "min_degree", "beurling", "census"]
    assert AMBIENT_CHECKS == ("norm_identity", "coeff_bounds", "census")
    assert verify.TOWER_CHECKS == ("telescoping", "kernel_containment", "expansive",
                                   "min_degree")
    assert list(DEFAULT_TOLS.items()) == [
        ("norm_identity", 1e-12), ("coeff_bounds", 1e-12), ("lower_bound", 1e-12),
        ("left_inverse", 1e-10), ("range_projector", 1e-10), ("telescoping", 1e-10),
        ("kernel_containment", 1e-9), ("expansive", 1e-12), ("min_degree", 1e-13),
        ("beurling", 1e-10), ("census", 1e-10)]


def test_float_tower_levels_are_real():
    """The weights are real, so float tower maps and wandering bases are float64."""
    for j in range(3):
        level = _tower_cached.__wrapped__(3, 0.5, 12, (0, 2), FLOAT, j)
        for name, m in level_maps(level).items():
            assert m.matrix.dtype == np.float64, (j, name)
        assert wandering(level.t, level.ext).basis.dtype == np.float64


@pytest.mark.parametrize("name", ["telescoping", "left_inverse", "expansive"])
def test_warm_tower_checks_make_no_dense_products(monkeypatch, name):
    """Tower maps are index maps, so a warm float run of a check that reads
    only them makes no _exact.mm call (N=2, alpha=1, D=256, residues {0})."""
    spec = CheckSpec(name, 2, 1.0, 256, (0,), 4, 0, FLOAT, DEFAULT_TOLS[name])
    assert run_check(spec).passed
    calls = []
    mm = verify._exact.mm
    monkeypatch.setattr(verify._exact, "mm", lambda *args: calls.append(1) or mm(*args))
    entry = run_check(spec)
    assert entry.passed, entry.note
    assert not calls


@pytest.mark.parametrize("depth", [1, 3])
def test_weights_reach_covers_every_weight_a_check_reads(monkeypatch, depth):
    """weights_reach is the longest weight sequence a check builds: D + N for
    the level-0 and ambient checks, D + depth * N for the tower checks."""
    lengths = []
    built = verify.weight_sequence

    def recording(params, mode):
        lengths.append(params.D)
        return built(params, mode)

    monkeypatch.setattr(verify, "weight_sequence", recording)
    for name in CHECKS:
        spec = spec_for(name, depth=depth)
        _tower_cached.cache_clear()
        lengths.clear()
        assert run_check(spec).passed
        # coeff_bounds builds no weight sequence; its reach is the shift's D + N
        assert max(lengths, default=spec.D + spec.N) == weights_reach(spec), name
    _tower_cached.cache_clear()


@pytest.mark.parametrize("D,alpha,residues", [
    *((256, 1000.0, r) for k in (1, 2, 3) for r in itertools.combinations(range(3), k)),
    (512, 200.0, (0,)),
])
def test_kernel_containment_float_large_alpha(D, alpha, residues):
    """The descent (pinv T)^n has one nonzero per row and column, so its
    kernel is read off its structural zeros.  An SVD of the composite put
    the kernel's error at eps times a singular-value spread of up to 1e11,
    which failed tol 1e-9 at these points."""
    spec = CheckSpec("kernel_containment", 3, alpha, D, residues, mode=FLOAT, tol=1e-9)
    entry = run_check(spec)
    assert entry.passed, (entry.residual, entry.note)


def test_checks_build_only_the_levels_they_read(monkeypatch):
    """A level-0 check inverts one Gram operator at any depth; census none."""
    import bergman_lab.verify as verify
    calls = _count_gram_inverses(monkeypatch)
    restricts = []
    monkeypatch.setattr(verify, "restrict",
                        lambda *args, **kwargs: restricts.append(args) or restrict(*args, **kwargs))
    _tower_cached.cache_clear()
    assert run_check(spec_for("left_inverse", depth=4)).passed
    assert len(calls) == 1 and len(restricts) == 1
    assert run_check(spec_for("expansive", depth=4)).passed
    assert len(calls) == 4 and len(restricts) == 4
    assert run_check(spec_for("census", depth=4)).passed
    assert len(calls) == 4 and len(restricts) == 4


def test_entry_exact_needs_zero_defects_float_needs_tol():
    exact, flt = spec_for("left_inverse", mode=EXACT), spec_for("left_inverse")
    tiny = (1e-30, False)
    assert not _entry(exact, [tiny]).passed
    assert _entry(flt, [tiny]).passed
    assert _entry(exact, [tiny]).residual == _entry(flt, [tiny]).residual == 1e-30
    for spec in (exact, flt):
        assert _entry(spec, [(0.0, True)]).passed
        assert not _entry(spec, [(0.0, True)], ok=False).passed
        assert _entry(spec, []).residual == 0.0


def test_entry_reports_a_nan_defect_wherever_it_sits():
    """A NaN defect fails the entry with a non-finite residual, and the note
    names it, whether it comes first or last: Python's ``max`` keeps a NaN
    only when it comes first, so a failing entry could report 0.0."""
    flt = spec_for("left_inverse")
    finite = [(0.0, True), (1e-3, False)]
    for defects, index in (([(math.nan, False)] + finite, 0),
                           (finite + [(math.nan, False)], 2),
                           ([(math.inf, False), (0.0, True), (math.nan, False)], 0)):
        entry = _entry(flt, defects, note="context")
        assert not entry.passed
        assert math.isnan(entry.residual)
        assert entry.note == f"context; defect {index} of 3 is {defects[index][0]}"
        assert verify.VerificationReport([entry]).to_json_obj()["entries"][0]["residual"] is None
    entry = _entry(flt, [(0.0, True), (math.inf, False)])
    assert entry.residual == math.inf and not entry.passed
    assert entry.note == "defect 1 of 2 is inf"
    assert _entry(flt, finite, note="context").note == "context"


def test_lower_bound_notes_the_surrogate():
    entry = run_check(spec_for("lower_bound"))
    assert "finite-section surrogate" in entry.note


def test_min_degree_notes_the_surrogate():
    entry = run_check(spec_for("min_degree"))
    assert "finite-section surrogate" in entry.note


@pytest.mark.parametrize("alpha,note", [
    (1e17, "lower bound attained in float64 at n=0"),
    (-0.9999999999999999, "upper bound attained in float64 at n=0"),
])
def test_coeff_bounds_notes_a_float_tie(alpha, note):
    """At alpha=1e17, C[0] = 1/(2 + alpha) and the bound (3 + alpha)^-1 round
    to the same float64; near alpha=-1, C[0] rounds to 1.  The strict rule
    still fails, with residual 0, and the note names the bound met and the
    first n."""
    entry = run_check(CheckSpec("coeff_bounds", 1, alpha, 8, tol=DEFAULT_TOLS["coeff_bounds"]))
    assert not entry.passed
    assert entry.residual == 0.0
    assert entry.note == note
    assert run_check(spec_for("coeff_bounds")).note == ""


def test_census_trial_count_follows_depth():
    entry = run_check(spec_for("census", depth=2))
    assert entry.passed
    assert "10 random controls" in entry.note


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_census_fails_when_a_random_control_passes(monkeypatch, mode):
    """A random control that passes the reducing test fails the census with
    residual 1.0, though every residue ladder passes."""
    census = verify.reducing_census

    def with_a_passing_control(*args, **kwargs):
        report = census(*args, **kwargs)
        first = dataclasses.replace(report.random_entries[0], residual=0.0, passed=True)
        return dataclasses.replace(report, random_entries=(first,) + report.random_entries[1:])

    monkeypatch.setattr(verify, "reducing_census", with_a_passing_control)
    entry = run_check(spec_for("census", mode=mode))
    assert not entry.passed and entry.residual == 1.0
    assert "min control residual 0.000e+00" in entry.note


def test_report_json_schema():
    specs = [spec_for("coeff_bounds"), spec_for("left_inverse", mode=EXACT)]
    report = run_suite(specs)
    obj = report.to_json_obj()
    assert set(obj) == {"suite_version", "entries", "summary"}
    assert obj["suite_version"] == SUITE_VERSION
    assert set(obj["summary"]) == {"total", "passed", "failed"}
    assert obj["summary"]["total"] == 2
    assert obj["summary"]["failed"] == 0
    for e in obj["entries"]:
        assert set(e) == {"name", "params", "residual", "tol", "pass", "wall_ms"}
        assert set(e["params"]) == {"N", "alpha", "D", "residues", "depth",
                                    "seed", "mode"}
    by_name = {e["name"]: e for e in obj["entries"]}
    assert by_name["coeff_bounds"]["params"]["alpha"] == 0.5
    assert by_name["coeff_bounds"]["params"]["residues"] is None
    assert by_name["left_inverse"]["params"]["alpha"] == "1/2"
    assert by_name["left_inverse"]["params"]["mode"] == "exact"
    assert by_name["left_inverse"]["params"]["residues"] == [0]


def test_report_counts_and_order():
    specs = [spec_for("coeff_bounds"), spec_for("norm_identity"),
             spec_for("expansive")]
    fwd = run_suite(specs)
    rev = run_suite(list(reversed(specs)))
    assert fwd.total == 3 and fwd.all_passed
    assert strip_wall_ms(fwd.to_json_obj()) == strip_wall_ms(rev.to_json_obj())
    names = [e.spec.name for e in fwd.sorted_entries()]
    assert names == sorted(names)


def test_suite_runs_the_checks_of_one_tower_in_a_row(monkeypatch):
    """run_suite executes by mode, then by tower parameters, then by name and
    seed, so the checks sharing a tower run one after another."""
    ran = []
    monkeypatch.setattr(verify, "run_check",
                        lambda spec: ran.append(spec) or verify.ReportEntry(spec, 0.0, True))
    specs = smoke_grid()
    run_suite(reversed(specs))
    assert sorted(ran, key=CheckSpec.sort_key) == sorted(specs, key=CheckSpec.sort_key)
    towers = [(s.mode.value, s.N, s.alpha, s.D, s.residues, s.depth) for s in ran]
    runs = [t for i, t in enumerate(towers) if i == 0 or towers[i - 1] != t]
    assert len(runs) == len(set(runs))
    assert [t[0] for t in runs] == sorted(t[0] for t in runs)
    for t in set(runs):
        names = [(s.name, s.seed) for s, u in zip(ran, towers) if u == t]
        assert names == sorted(names)


def test_suite_deterministic_modulo_wall_ms():
    specs = [spec_for(n) for n in ("norm_identity", "telescoping", "beurling")]
    a = strip_wall_ms(run_suite(specs).to_json_obj())
    b = strip_wall_ms(run_suite(specs).to_json_obj())
    assert a == b


def test_failure_is_counted_not_raised():
    specs = [spec_for("coeff_bounds"), CheckSpec("bogus", 2, 0.5, 16)]
    report = run_suite(specs)
    assert report.total == 2
    assert report.passed == 1
    assert report.failed == 1
    assert not report.all_passed
    obj = report.to_json_obj()
    failed = [e for e in obj["entries"] if not e["pass"]]
    assert len(failed) == 1
    assert failed[0]["residual"] is None  # infinite residual has no JSON number


def _grid_invariants(specs):
    for s in specs:
        assert s.name in CHECKS
        if s.name in AMBIENT_CHECKS:
            assert s.residues is None
        else:
            assert s.residues is not None and len(s.residues) >= 1
        assert s.tol == DEFAULT_TOLS[s.name]
    seeds = [(s.mode, s.seed) for s in specs]
    assert len(seeds) == len(set(seeds))


def test_default_grid_shape():
    specs = default_grid()
    assert len(specs) == 1261
    _grid_invariants(specs)
    modes = {s.mode for s in specs}
    assert modes == {FLOAT, EXACT}
    assert {s.D for s in specs if s.mode is FLOAT} == {32, 64}
    assert {s.D for s in specs if s.mode is EXACT} == {16}


def test_smoke_grid_shape():
    specs = smoke_grid()
    assert len(specs) == 103
    _grid_invariants(specs)


def test_smoke_grid_all_pass():
    report = run_suite(smoke_grid())
    assert report.all_passed, [
        (e.spec.name, e.note) for e in report.entries if not e.passed
    ]
    assert report.total == 103
