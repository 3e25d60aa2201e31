"""Index-embedded subspaces against their dense copies, the reference.

A subspace whose embedding is an index map (a residue ladder, a wandering
part, any span of monomials) must give what its dense copy
``Subspace(sp, sub.basis, sub.norms_sq)`` gives, in both modes, with the
equality of ``tests/test_index_maps.py``: real float64 entries bit for bit
up to the sign of a zero, exact entries as equal Fractions.  That holds for
projections, invariance and reducing verdicts and residuals, restrictions
and zero-padded extensions, and for ``projectors_equal``.

Where the dense route factors (a truncation's null space by SVD, a span by
Householder QR), it normalizes its float vectors, while the index route
keeps each value and carries its squared norm.  There the results are
equal in exact mode and within ``subspace_distance`` 1e-14 in float mode,
with equal dimensions, and the distances of ``subspace_distance`` itself
agree to 1e-14.
"""

from fractions import Fraction

import numpy as np
import pytest

from bergman_lab import (
    NotInvariant,
    ScalarMode,
    Subspace,
    TruncatedSpace,
    WeightParams,
    extend,
    invariant_closure,
    is_invariant,
    is_reducing,
    max_degree,
    projectors_equal,
    residue_subspace,
    restrict,
    shift,
    subspace_distance,
    truncate,
    wandering,
    weight_sequence,
)
from bergman_lab.operators import displace
from bergman_lab.space import random_columns
from bergman_lab.subspaces import project
from oracles import index_map
from test_index_maps import assert_same_entries

FLOAT = ScalarMode.FLOAT64
EXACT = ScalarMode.EXACT_RATIONAL


def dense_copy(sub: Subspace) -> Subspace:
    return Subspace(sub.ambient, sub.basis, sub.norms_sq)


def random_index_subspace(rng, sp: TruncatedSpace, k: int) -> Subspace:
    """Span of k monomials at random degrees, with random nonzero
    values; its coordinate metric is their squared norms."""
    rows = rng.permutation(sp.dim)[:k]
    w = np.asarray(sp.metric)[rows]
    if sp.mode.is_exact:
        vals = np.empty(k, dtype=object)
        vals[:] = [Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 10)),
                            int(rng.integers(1, 8))) for _ in range(k)]
    else:
        vals = rng.uniform(0.5, 2.0, k) * rng.choice([-1.0, 1.0], k)
    coords = TruncatedSpace(metric=vals * vals * w, mode=sp.mode)
    return Subspace.embedded(index_map(coords, sp, rows, vals))


def same_subspace(got: Subspace, ref: Subspace, exact: bool) -> None:
    """Equal bases and norms in exact mode; the same span to 1e-14 in float mode."""
    assert got.dim == ref.dim and got.ambient == ref.ambient
    if exact:
        assert_same_entries(got.basis, ref.basis)
        assert_same_entries(got.norms_sq, ref.norms_sq)
    else:
        assert subspace_distance(got, ref) <= 1e-14
        assert subspace_distance(ref, got) <= 1e-14


def cases():
    st = pytest.importorskip("hypothesis").strategies
    return st.tuples(st.sampled_from([FLOAT, EXACT]), st.integers(1, 3), st.integers(0, 16),
                     st.sampled_from([0, 1, 2]), st.integers(0, 2**32 - 1))


def test_index_embeddings_match_their_dense_copies():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        mode, N, extra, alpha_pick, seed = case
        rng = np.random.default_rng(seed)
        D = 2 * N + extra
        alpha = ((Fraction(0), Fraction(1, 2), Fraction(3))[alpha_pick] if mode.is_exact
                 else (-0.5, 0.5, 3.0)[alpha_pick])
        exact = mode.is_exact
        ws = weight_sequence(WeightParams(alpha, N, D + N), mode)
        dom, cod = TruncatedSpace(ws, D), TruncatedSpace(ws, D + N)
        s = shift(dom, cod, N)
        section = displace(s, dom)  # the square finite section P_D z^N
        residues = [r for r in range(N) if rng.random() < 0.6] or [0]
        ladder = residue_subspace(dom, N, residues)
        subs = [Subspace.embedded(ladder.embedding),  # a copy of the ladder's embedding
                random_index_subspace(rng, dom, int(rng.integers(0, D + 1)))]
        x = random_columns(dom, range(3)) if exact else rng.standard_normal((D, 3))
        restricted = 0
        for sub in subs:
            ref = dense_copy(sub)
            assert sub.embedding._rows is not None and ref.embedding._rows is None
            for got, want in zip(project(sub, x), project(ref, x)):
                assert_same_entries(got, want)
            for got, want in zip(project(sub, sub.embedding), project(ref, sub.embedding)):
                assert_same_entries(got.matrix, want.matrix)
            for m in (s, s.adjoint(), section, section.adjoint()):
                if m.domain == dom:
                    assert (is_invariant(m, sub, extend(sub, m.codomain))
                            == is_invariant(m, ref, extend(ref, m.codomain)))
            assert is_reducing(s, sub) == is_reducing(s, ref)
            assert is_reducing(section, sub) == is_reducing(section, ref)
            for m in (s, section):
                padded, ref_padded = extend(sub, m.codomain), extend(ref, m.codomain)
                try:
                    want = restrict(m, ref, ref_padded)
                except NotInvariant:
                    with pytest.raises(NotInvariant):
                        restrict(m, sub, padded)
                    continue
                got = restrict(m, sub, padded)
                assert_same_entries(got.matrix, want.matrix)
                same_subspace(wandering(got, padded), wandering(want, ref_padded), exact)
                restricted += 1
            big = extend(sub, cod)
            assert_same_entries(big.basis, extend(ref, cod).basis)
            assert_same_entries(big.norms_sq, extend(ref, cod).norms_sq)
            for d in (0, D // 2, D - 1):
                same_subspace(truncate(sub, d), truncate(ref, d), exact)
            other = random_index_subspace(rng, dom, sub.dim)
            for u, v in ((sub, other), (other, sub), (sub, sub)):
                du, dv = dense_copy(u), dense_copy(v)
                assert projectors_equal(u, v) == projectors_equal(du, dv)
                got, want = subspace_distance(u, v), subspace_distance(du, dv)
                assert (got == 0.0) == (want == 0.0)
                assert abs(got - want) <= 1e-14 * max(want, 1.0)
        assert restricted >= 1  # the ladder's copy is invariant under the section
        hc = residue_subspace(cod, N, residues)
        e = truncate(wandering(restrict(s, ladder, hc), hc), D)
        depth = (D - 1 - max_degree(e)) // N
        closure = invariant_closure(e, N, depth)
        assert closure.dim == len(residues) * (depth + 1)
        same_subspace(closure, invariant_closure(dense_copy(e), N, depth), exact)

    check()
