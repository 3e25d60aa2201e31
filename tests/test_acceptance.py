"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Exact
criteria are decided as rational matrix equalities; float criteria compare
metric operator norm residuals against the stated tolerances.
"""

import contextlib
import functools
import io
import itertools
import json
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from bergman_lab import (
    ScalarMode,
    TruncatedSpace,
    WeightParams,
    from_vectors,
    identity_map,
    invariant_closure,
    kernel,
    lower_bound,
    max_degree,
    operator_norm,
    projector,
    reducing_census,
    residue_subspace,
    restrict,
    shift,
    shift_coeff,
    smallest_singular_value,
    subspace_distance,
    truncate,
    wandering,
    weight_sequence,
)
from bergman_lab import cli, verify
from bergman_lab.operators import LinearMap
from bergman_lab.space import random_columns
from bergman_lab.subspaces import Subspace, project
from bergman_lab.verify import Level, run_suite, smoke_grid
from oracles import iterated_coeff

EXACT = ScalarMode.EXACT_RATIONAL
FLOAT = ScalarMode.FLOAT64

EXACT_ALPHAS = (Fraction(0), Fraction(1, 2), Fraction(1))
FLOAT_ALPHAS = (-0.5, 0.0, 0.5, 1.0, 2.5)
EXACT_NS = (1, 2, 3)
FLOAT_NS = (1, 2, 4)
D_EXACT = 24
D_FLOAT = 128
D_KERNEL = 32
D_BEURLING = 64
DEPTH = 4


def _report(num: int, desc: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {desc}")


#: One level of the suite's tower, without the suite's level cache.
build_level = verify._tower_cached.__wrapped__


def build_tower(N, alpha, D, residues, mode, levels) -> list[Level]:
    """Levels 0 .. levels - 1 of the suite's tower, each built on its own."""
    return [build_level(N, alpha, D, residues, mode, j) for j in range(levels)]


# the towers reused across criteria are kept in unbounded caches so none is
# rebuilt
@functools.lru_cache(maxsize=None)
def exact_tower(alpha, N) -> list[Level]:
    return build_tower(N, alpha, D_EXACT, tuple(range(N)), EXACT, DEPTH)


@functools.lru_cache(maxsize=None)
def float_tower(alpha, N) -> list[Level]:
    return build_tower(N, alpha, D_FLOAT, tuple(range(N)), FLOAT, DEPTH)


def lift_chains(tw: list[Level]):
    """The m-fold lift compositions for m = 1 .. levels, each lift the
    adjoint of its level's left inverse; the levels' own chains are not read."""
    chains = [tw[0].left_inv.adjoint()]
    for level in tw[1:]:
        chains.append(level.left_inv.adjoint().compose(chains[-1]))
    return chains


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_level_chain_matches_composed_lifts(mode):
    """Level.chain is the composition of the levels' lifts: exactly equal in
    exact mode, bit for bit in float mode, at N = 1..3, every residue set,
    depth 4."""
    alpha = Fraction(1, 2) if mode.is_exact else 0.5
    D = 12
    for N in (1, 2, 3):
        for size in range(N + 1):
            for residues in itertools.combinations(range(N), size):
                tw = build_tower(N, alpha, D, residues, mode, DEPTH)
                for j, ref in enumerate(lift_chains(tw)):
                    got = verify._tower_cached(N, alpha, D, residues, mode, j).chain
                    assert (got.domain, got.codomain) == (ref.domain, ref.codomain)
                    if mode.is_exact:
                        assert (got.matrix == ref.matrix).all(), (N, residues, j)
                    else:
                        assert np.array_equal(got.matrix, ref.matrix), (N, residues, j)


def telescoping_sides(tw: list[Level]):
    """Pairs (partial sum, identity minus m-fold round trip) anchored at the top."""
    L = len(tw)
    top = identity_map(tw[L - 1].t.codomain)
    asc = [top]
    desc = [top]
    for k in range(1, L + 1):
        asc.append(asc[-1].compose(tw[L - k].t))
        desc.append(tw[L - k].left_inv.compose(desc[-1]))
    pairs = []
    for n in range(1, L + 1):
        total = None
        for k in range(n):
            level = tw[L - k - 1]
            pe = identity_map(level.t.codomain) - level.t.compose(level.left_inv)
            term = asc[k].compose(pe).compose(desc[k])
            total = term if total is None else total + term
        pairs.append((total, top - asc[n].compose(desc[n])))
    return pairs


def range_and_wandering_projectors(tw: list[Level]):
    """(T pinv(T), projector onto range T, projector onto E) in level-1 coords."""
    t = tw[0].t
    p = t.compose(tw[0].left_inv)
    rng = from_vectors(t.codomain, t.matrix)
    p_range = projector(rng).matrix
    e = wandering(t, tw[0].ext)
    e_coords = tw[0].ext.coordinates.matrix @ e.basis
    p_wander = projector(Subspace(t.codomain, e_coords, e.norms_sq)).matrix
    return p, p_range, p_wander


def nonempty_subsets(N: int):
    out = []
    for size in range(1, N + 1):
        out.extend(itertools.combinations(range(N), size))
    return out


def test_criterion_01_exact_coefficient_algebra():
    def body():
        for alpha in EXACT_ALPHAS:
            for N in EXACT_NS:
                tw = exact_tower(alpha, N)
                ws = tw[0].shift.domain.weights
                lo = lower_bound(N, alpha)
                for n in range(D_EXACT):
                    c = shift_coeff(N, alpha, n, EXACT)
                    assert c == ws[n + N] / ws[n]
                    assert lo < c < 1
                for m, chain in enumerate(lift_chains(tw), start=1):
                    mat = chain.matrix
                    for n in range(D_EXACT):
                        assert mat[n + m * N, n] == iterated_coeff(N, alpha, n, m, EXACT)
                    assert int(np.sum(mat != 0)) == D_EXACT

    _report(1, "exact coefficient algebra, bounds, and iterated lifts at D=24",
            body)


def test_criterion_02_exact_operator_identities():
    def body():
        for alpha in EXACT_ALPHAS:
            for N in EXACT_NS:
                tw = exact_tower(alpha, N)
                t = tw[0].t
                left = tw[0].left_inv.compose(t)
                assert (left.matrix == identity_map(t.domain).matrix).all()
                p, p_range, p_wander = range_and_wandering_projectors(tw)
                assert (p.matrix == p_range).all()
                pe = identity_map(t.codomain) - p
                assert (pe.matrix == p_wander).all()
                for total, rhs in telescoping_sides(tw):
                    assert (total.matrix == rhs.matrix).all()

    _report(2, "exact left-inverse, range/wandering projectors, telescoping",
            body)


def test_criterion_03_float_operator_identities():
    def body():
        worst = 0.0
        for alpha in FLOAT_ALPHAS:
            for N in FLOAT_NS:
                tw = float_tower(alpha, N)
                ws = tw[0].shift.domain.weights
                lo = lower_bound(N, alpha)
                for n in range(D_FLOAT):
                    c = shift_coeff(N, alpha, n)
                    assert lo < c < 1
                    worst = max(worst, abs(c - ws[n + N] / ws[n]) / c)
                for m, chain in enumerate(lift_chains(tw), start=1):
                    for n in range(D_FLOAT):
                        ref = iterated_coeff(N, alpha, n, m)
                        worst = max(worst,
                                    abs(chain.matrix[n + m * N, n] - ref) / ref)
                t = tw[0].t
                worst = max(worst, operator_norm(
                    tw[0].left_inv.compose(t) - identity_map(t.domain)))
                p, p_range, p_wander = range_and_wandering_projectors(tw)
                worst = max(worst, operator_norm(
                    p - LinearMap(p.domain, p.codomain, p_range)))
                pe = identity_map(t.codomain) - p
                worst = max(worst, operator_norm(
                    pe - LinearMap(p.domain, p.codomain, p_wander)))
                for total, rhs in telescoping_sides(tw):
                    worst = max(worst, operator_norm(total - rhs))
        assert worst <= 1e-10, worst

    _report(3, "float residuals of the exact identities <= 1e-10 at D=128",
            body)


def test_criterion_04_norms_and_bounds():
    def body():
        for alpha in FLOAT_ALPHAS:
            for N in FLOAT_NS:
                tw = float_tower(alpha, N)
                s = tw[0].shift
                dom = s.domain
                coeffs = np.array([shift_coeff(N, alpha, n) for n in range(D_FLOAT)])
                w = np.asarray(dom.metric)
                f = random_columns(dom, range(41000, 41020))
                lhs = s.codomain.column_norms_sq(s.apply(f))
                rhs = np.sum(coeffs[:, None] * w[:, None] * np.abs(f) ** 2, axis=0)
                assert (np.abs(lhs - rhs) / dom.column_norms_sq(f) <= 1e-12).all()
                sigma = smallest_singular_value(tw[0].t)
                assert sigma >= (3 + alpha) ** (-N / 2) - 1e-12
                for chain in lift_chains(tw):
                    g = random_columns(chain.domain, range(42000, 42020))
                    ng = np.sqrt(chain.domain.column_norms_sq(g))
                    ag = np.sqrt(chain.codomain.column_norms_sq(chain.apply(g)))
                    assert (ag >= ng - 1e-12 * ng).all()

    _report(4, "norm identity <= 1e-12, singular value bound, expansive lifts",
            body)


def test_criterion_05_kernel_containment():
    def body():
        for alpha in FLOAT_ALPHAS:
            for N in (1, 2, 3):
                for lam in nonempty_subsets(N):
                    tw = build_tower(N, alpha, D_KERNEL, lam, FLOAT, DEPTH)
                    e = truncate(wandering(tw[0].t, tw[0].ext), D_KERNEL)
                    desc = None
                    for n in range(1, DEPTH + 1):
                        desc = tw[n - 1].left_inv if desc is None \
                            else desc.compose(tw[n - 1].left_inv)
                        top = tw[n - 1].ext
                        ker = Subspace.embedded(
                            top.embedding.compose(kernel(desc, tol=1e-9).embedding))
                        assert ker.dim == n * len(lam)
                        assert ker.dim == top.dim - tw[0].ladder.dim
                        d_n = top.ambient.dim
                        cols = np.zeros((d_n, e.dim * n), dtype=np.complex128)
                        for k in range(n):
                            lo = k * N
                            cols[lo:lo + D_KERNEL,
                                 k * e.dim:(k + 1) * e.dim] = e.basis
                        w_span = from_vectors(top.ambient, cols)
                        left = project(w_span, ker.basis)[1]
                        space = ker.ambient
                        ratios = space.column_norms_sq(left) / space.column_norms_sq(ker.basis)
                        assert (np.sqrt(ratios) <= 1e-9).all()

    _report(5, "kernel of m-fold descents spanned by shifted wandering parts",
            body)


def test_criterion_06_minimum_degree_of_lifts():
    def body():
        for alpha in EXACT_ALPHAS:
            for N in EXACT_NS:
                tw = exact_tower(alpha, N)
                for m, chain in enumerate(lift_chains(tw), start=1):
                    ambient = tw[m - 1].ext.basis @ chain.matrix
                    low = ambient[: m * N, :]
                    assert not bool((low != 0).any())
        for alpha in FLOAT_ALPHAS:
            for N in FLOAT_NS:
                tw = float_tower(alpha, N)
                for m, chain in enumerate(lift_chains(tw), start=1):
                    ambient = tw[m - 1].ext.basis @ chain.matrix
                    low = np.abs(ambient[: m * N, :])
                    assert low.size == 0 or float(low.max()) <= 1e-13

    _report(6, "iterated lift columns vanish below degree m*N", body)


def test_criterion_07_ladder_reconstruction():
    def body():
        for alpha in FLOAT_ALPHAS:
            for N in (1, 2, 3):
                ws = weight_sequence(WeightParams(alpha, N, D_BEURLING + N), FLOAT)
                dom = TruncatedSpace(ws, D_BEURLING)
                cod = TruncatedSpace(ws, D_BEURLING + N)
                s = shift(dom, cod, N)
                for lam in nonempty_subsets(N):
                    h = residue_subspace(dom, N, lam)
                    hc = residue_subspace(cod, N, lam)
                    t = restrict(s, h, hc, 1e-8)
                    e = wandering(t, hc)
                    assert e.dim == len(lam)
                    e_base = truncate(e, D_BEURLING)
                    depth = (D_BEURLING - 1 - max_degree(e_base)) // N
                    closure = invariant_closure(e_base, N, depth)
                    safe = D_BEURLING - N
                    dist = subspace_distance(truncate(closure, safe),
                                             residue_subspace(TruncatedSpace(ws, safe), N, lam))
                    assert dist <= 1e-10

    _report(7, "residue ladders regrow from their wandering parts at D=64",
            body)


def test_criterion_08_reducing_census():
    def body():
        for alpha in (0.5, 1.0):
            for N in (2, 3):
                ws = weight_sequence(WeightParams(alpha, N, D_KERNEL + N), FLOAT)
                dom = TruncatedSpace(ws, D_KERNEL)
                cod = TruncatedSpace(ws, D_KERNEL + N)
                s = shift(dom, cod, N)
                rep = reducing_census(s, N, trials=100, seed=8000)
                assert len(rep.residue_entries) == 2 ** N
                assert rep.all_residues_reduce
                assert rep.max_residue_residual == 0.0
                assert len(rep.random_entries) == 100
                assert rep.all_randoms_fail
                assert rep.min_random_residual > 1e-6

    _report(8, "all residue ladders reduce with residual 0; 100 controls fail",
            body)


def test_criterion_09_mutation_sensitivity():
    def body():
        clean = run_suite(smoke_grid())
        assert clean.all_passed
        true_coeffs = verify.shift_coeffs

        def corrupted(N, alpha, D, mode=ScalarMode.FLOAT64):
            return [c + 1e-6 if n == 5 else c
                    for n, c in enumerate(true_coeffs(N, alpha, D, mode))]

        verify.shift_coeffs = corrupted
        try:
            sabotaged = run_suite(smoke_grid())
        finally:
            verify.shift_coeffs = true_coeffs
        assert sabotaged.failed >= 1
        flipped = {e.spec.name for e in sabotaged.entries if not e.passed}
        assert "norm_identity" in flipped

    _report(9, "perturbing one coefficient by 1e-6 flips a suite check", body)


def test_criterion_10_cli_determinism(tmp_path):
    def body():
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        for out in (out_a, out_b):
            proc = subprocess.run(
                [sys.executable, "-m", "bergman_lab", "suite", "--grid", "smoke",
                 "--format", "json", "--out", str(out)],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        text_a = out_a.read_text(encoding="utf-8")
        text_b = out_b.read_text(encoding="utf-8")
        scrub = functools.partial(re.sub, r'"wall_ms": [0-9.]+', '"wall_ms": 0')
        assert scrub(text_a) == scrub(text_b)
        assert json.loads(text_a)["summary"]["failed"] == 0

        ok = tmp_path / "weights.txt"
        assert cli.main(["weights", "--alpha", "0.5", "--dim", "4",
                         "--out", str(ok)]) == 0
        fail = tmp_path / "fail.json"
        assert cli.main(["verify", "--check", "norm_identity", "--N", "2",
                         "--alpha", "0.5", "--dim", "16", "--tol", "1e-300",
                         "--format", "json", "--out", str(fail)]) == 1
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            assert cli.main(["weights", "--alpha", "abc", "--dim", "4"]) == 2
            missing = tmp_path / "no-such-dir" / "x.json"
            assert cli.main(["weights", "--alpha", "0.5", "--dim", "4",
                             "--out", str(missing)]) == 3
        err = buf.getvalue()
        assert "--alpha" in err
        assert "cannot write" in err

    _report(10, "suite JSON byte-identical modulo wall_ms; exits 0/1/2/3", body)
