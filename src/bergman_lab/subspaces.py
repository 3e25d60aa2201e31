"""Subspaces of truncated weighted spaces and their lattice operations.

A ``Subspace`` is its embedding: a ``LinearMap`` from its coordinate space
into the ambient truncation, whose columns are a basis that is orthogonal
in the weighted metric, and whose domain metric holds their squared norms.
Every operation here is a composition with that map or its adjoint, the
coordinate map, in whichever storage form the embedding has.

In the monomial basis z^N is a weighted shift, so the subspaces built from
residue ladders are spans of monomials: the ladders themselves, the
wandering parts ``ker T*``, kernels of index maps, their orbits, extensions
and truncations.  A ladder is built in any truncation by
:func:`residue_subspace`; once built it is a subspace like any other, and
moves between truncations by its embedding alone.  Their embeddings are
index maps (see ``operators.LinearMap``), orthogonal by construction, and
taking their span needs no factorization (``operators.index_span``): in
both modes they keep their entries and carry their squared norms.  A dense
embedding, as ``Subspace(ambient, basis, norms_sq)`` and
:func:`from_vectors` build, is the reference: its spans take
:func:`orthogonalize`, and its kernels the SVD or exact elimination.  Only
Gram-Schmidt output is normalized, in float mode; in exact rational mode
normalization would leave the field, so the squared norms are carried
instead.

Two tests read a map against a subspace.  Invariance (:func:`is_invariant`,
:func:`restrict`) asks whether a map sends the subspace into a target
subspace of the map's codomain, which the caller names; the tower's
restricted shifts take the ladder of the codomain.  Reducing
(:func:`is_reducing`, :func:`reducing_census`) compresses the shift to its
domain, ``S_D = P_D z^N``, and asks whether ``S_D`` and its adjoint send
the subspace into itself; it extends no subspace.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import _exact
from .errors import AmbientMismatch, BadResidue, DepthOverflow, DimensionMismatch, NotInvariant
from .operators import (LinearMap, displace, hstack, index_entries, index_span, live_rows,
                        null_space, operator_norm, to_float, transpose, unit_map)
from .space import TruncatedSpace, random_columns, random_numerators

#: Rank tolerance: the relative cut of orthogonalization, and the cut on the
#: metric singular values that decides which directions :func:`truncate` keeps.
RANK_TOL = 1e-10


class Subspace:
    """A subspace of a truncated space, held as its embedding map.

    ``embedding`` maps the coordinate space into ``ambient``: its columns
    are the basis, metric-orthogonal, and the coordinate space's metric is
    their squared norms.  ``basis`` and ``norms_sq`` are read-only views of
    it, and ``coordinates``, the metric adjoint of the embedding, maps a
    vector to its coordinates; it is built once, on first read, or with the
    embedding by :func:`residue_subspace`.
    ``Subspace(ambient, basis, norms_sq)`` builds a dense embedding;
    :meth:`embedded` takes one in either storage form.  Nothing else is
    held: two subspaces with equal embeddings behave alike everywhere.
    """

    def __init__(self, ambient: TruncatedSpace, basis: np.ndarray, norms_sq: np.ndarray):
        # LinearMap refuses a basis whose shape is not (ambient.dim, len(norms_sq))
        coords = TruncatedSpace(metric=np.asarray(norms_sq), mode=ambient.mode)
        self._embed(LinearMap(coords, ambient, basis))

    @classmethod
    def embedded(cls, embedding: LinearMap) -> "Subspace":
        """The subspace spanned by the columns of ``embedding``, which must
        be metric-orthogonal with their squared norms as its domain metric."""
        sub = cls.__new__(cls)
        sub._embed(embedding)
        return sub

    def _embed(self, embedding: LinearMap) -> None:
        self.embedding = embedding
        self.ambient = embedding.codomain

    @functools.cached_property
    def coordinates(self) -> LinearMap:
        """The coordinate map: the metric adjoint of the embedding."""
        return self.embedding.adjoint()

    @property
    def dim(self) -> int:
        return self.embedding.domain.dim

    @property
    def basis(self) -> np.ndarray:
        return self.embedding.matrix

    @property
    def norms_sq(self) -> np.ndarray:
        return self.embedding.domain.metric

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient.dim})"


def zero_subspace(ambient: TruncatedSpace) -> Subspace:
    return Subspace(ambient, ambient.mode.zeros((ambient.dim, 0)),
                    np.asarray(ambient.metric)[:0])


def _orthonormal_runs(ambient: TruncatedSpace, stack: np.ndarray,
                      cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float orthonormalization of each column block of a stack, in the metric.

    ``stack`` holds blocks of shape (D, n) in its last two axes, and
    ``cuts`` (one per column, shape ``stack.shape[:-2] + (n,)``) the rank
    rule's cut of each column.  Each block takes the Householder QR
    factorization (Golub and Van Loan, *Matrix Computations*, 4th ed.,
    section 5.2) of its columns scaled by ``sqrt(metric)``, in which the
    metric is Euclidean.  Each Q column is multiplied by the phase of its
    ``r_jj``, so that diag(R) is positive and Q is the normalized
    Gram-Schmidt basis up to rounding, and divided by ``sqrt(metric)`` on
    the way back.  ``|r_jj|`` is the residual the rank rule reads only while
    every column before j was kept, so a block accepts the leading run of
    columns with ``|r_jj|`` above their cut.  Returns the Q blocks, of
    width min(D, n), and the length of each block's run.
    """
    sw = np.sqrt(ambient.metric)[:, None]
    q, r = np.linalg.qr(stack * sw)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(d)
    runs = np.logical_and.accumulate(size > cuts[..., :d.shape[-1]], axis=-1).sum(axis=-1)
    q *= (d / np.where(size > 0, size, 1.0))[..., None, :]  # a zero r_jj is never in the run
    q /= sw
    return q, runs


def orthogonalize(ambient: TruncatedSpace, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt in the weighted metric: the kept vectors and their squared norms.

    One loop serves both modes.  Each column, as a one-column block, is
    projected off the subspace of the vectors kept before it by
    :func:`project`: once in exact mode, which in rational arithmetic gives
    exactly the modified Gram-Schmidt vectors, and twice in float mode
    (CGS2; Giraud, Langou and Rozloznik, 2005).  The column is kept when
    its residual's metric norm is nonzero (exact mode) or greater than
    ``RANK_TOL`` times the column's own metric norm (float mode).  Float
    mode normalizes the kept vectors; exact mode keeps them unnormalized
    (square roots leave the rationals) and carries their squared norms.
    Each kept column adds one row, its own metric adjoint, to the coordinate
    map of the vectors kept before it, as :func:`residue_subspace` presets
    a ladder's.  The loop stops once the basis spans the ambient space.

    Float mode first factors the columns by :func:`_orthonormal_runs`, as
    one block, and keeps its leading run.  When that run covers the
    diagonal of R (every column kept, or the basis full) the factorization
    is the result; otherwise the first failing column is dropped and the
    loop takes the columns after it.
    """
    exact = ambient.mode.is_exact
    kept, start = zero_subspace(ambient), 0
    if not exact:
        cuts = RANK_TOL * np.sqrt(ambient.column_norms_sq(columns))
        q, k = _orthonormal_runs(ambient, columns, cuts)
        if k == q.shape[1]:
            return q, np.ones(k)
        kept, start = Subspace(ambient, q[:, :k], np.ones(k)), k + 1
    for j in range(start, columns.shape[1]):
        if kept.dim == ambient.dim:
            break
        v = columns[:, j:j + 1]
        for _ in range(1 if exact else 2):
            v = project(kept, v)[1]
        g = ambient.column_norms_sq(v)[0]
        if not (g != 0 if exact else np.sqrt(g) > cuts[j]):
            continue
        if not exact:
            v, g = v / np.sqrt(g), 1.0
        grown = Subspace(ambient, np.hstack((kept.basis, v)), np.append(kept.norms_sq, g))
        row = Subspace(ambient, v, grown.norms_sq[-1:]).coordinates.matrix
        grown.coordinates = LinearMap(ambient, grown.embedding.domain,
                                      np.vstack((kept.coordinates.matrix, row)))
        kept = grown
    return kept.basis, kept.norms_sq


def from_vectors(ambient: TruncatedSpace, columns: np.ndarray) -> Subspace:
    """Span of the given coefficient columns, orthogonalized."""
    basis, norms = orthogonalize(ambient, np.asarray(columns))
    return Subspace(ambient, basis, norms)


def _span(m: LinearMap) -> Subspace:
    """Span of the columns of a map, in its codomain: an index map's by
    ``operators.index_span``, a dense map's by :func:`from_vectors`."""
    emb = index_span(m)
    return Subspace.embedded(emb) if emb is not None else from_vectors(m.codomain, m.matrix)


def residue_degrees(N: int, residues: Iterable[int], dim: int) -> list[int]:
    """Sorted degrees {k + j*N : k in residues} below ``dim``."""
    res = sorted(set(residues))
    for k in res:
        if not 0 <= k < N:
            raise BadResidue(f"residue {k} outside range(0, {N})")
    return sorted(d for k in res for d in range(k, dim, N))


def residue_sets(N: int) -> list[tuple[int, ...]]:
    """All 2^N sets of residues modulo N, by size and then in
    lexicographic order, from the empty set to ``range(N)``."""
    return [combo for size in range(N + 1) for combo in itertools.combinations(range(N), size)]


def residue_subspace(space: TruncatedSpace, N: int, residues: Iterable[int]) -> Subspace:
    """Monomial ladder span{z^(k + j*N) : k in residues}, a reducing subspace.

    Its embedding is the unit index map onto the selected degrees, in
    increasing order, so the coordinate metric is the slice of the weight
    sequence there, and its coordinate map is built with it: the transposed
    unit map, whose every entry w / w is 1.
    """
    if space.weights is None:
        raise AmbientMismatch("residue subspaces need a weight-backed ambient space")
    degrees = residue_degrees(N, residues, space.dim)
    coords = TruncatedSpace(metric=np.asarray(space.metric)[degrees], mode=space.mode)
    embedding = unit_map(coords, space, degrees)
    sub = Subspace.embedded(embedding)
    sub.coordinates = transpose(embedding)
    return sub


def project(sub: Subspace, x):
    """Metric-orthogonal projection onto ``sub``: the coordinates ``F x``
    and the leftover ``x - E F x``, with E the embedding and F the
    coordinate map.

    The package's one projection routine.  ``x`` is a block of coefficient
    columns, or a map into the ambient space of ``sub``; the coordinates
    and the leftover are then arrays, or maps, composed in the storage form
    of their factors.
    """
    f, e = sub.coordinates, sub.embedding
    if isinstance(x, LinearMap):
        coords = f.compose(x)
        return coords, x - e.compose(coords)
    coords = f.apply(x)
    return coords, _exact.sub(x, e.apply(coords))


def projector(sub: Subspace) -> LinearMap:
    """Metric projector onto the subspace, the embedding after the coordinate map."""
    return sub.embedding.compose(sub.coordinates)


def truncate(sub: Subspace, dim: int) -> Subspace:
    """Intersection of the subspace with the smaller truncation span{z^n : n < dim}."""
    if not 0 <= dim <= sub.ambient.dim:
        raise DimensionMismatch(f"truncate target {dim} outside 0 .. {sub.ambient.dim}")
    if sub.ambient.weights is not None:
        target = TruncatedSpace(sub.ambient.weights, dim)
    else:
        target = TruncatedSpace(metric=np.asarray(sub.ambient.metric)[:dim],
                                mode=sub.ambient.mode)
    return extend(sub, target)


def extend(sub: Subspace, space: TruncatedSpace) -> Subspace:
    """The subspace carried into another truncation by its embedding.

    The one routine that moves a subspace between truncations, and it reads
    only the embedding.  Into a truncation at least as large the subspace is
    displaced (zero padding, ``operators.displace``), so a ladder's extension
    is not the larger ladder; :func:`residue_subspace` builds that.  Into a
    smaller one it is intersected with it: the span of the basis
    combinations whose coefficients of degree ``>= space.dim`` all vanish,
    decided by ``operators.null_space`` and cut to the rows below
    ``space.dim``.  For an index embedding these are the columns whose row
    lies below the cut.
    """
    if not sub.ambient.agrees_with(space):
        raise AmbientMismatch("the truncations differ in scalar mode or in their common weights")
    if space.dim >= sub.ambient.dim:
        return Subspace.embedded(displace(sub.embedding, space))
    above = TruncatedSpace(metric=np.asarray(sub.ambient.metric)[space.dim:], mode=space.mode)
    null = null_space(displace(sub.embedding, above, -space.dim), RANK_TOL)
    return _span(displace(sub.embedding.compose(null), space))


def max_degree(sub: Subspace) -> int:
    """Largest degree carrying a nonnegligible coefficient; -1 for the zero subspace.

    Exact mode keeps every degree where some basis vector has a nonzero
    coefficient.  Float mode keeps a degree where some basis vector's
    coefficient, in metric units, exceeds 1e-12 times that vector's own
    metric norm: an entry of ``operators.weighted_matrix`` of the embedding
    above 1e-12, as the columns of that matrix have unit norm.  The
    decision depends neither on the weights' scale nor on the basis's.
    ``operators.live_rows`` reads an index embedding's entries one per
    column, without the dense matrix.
    """
    rows = live_rows(sub.embedding, 1e-12)
    return int(rows[-1]) if len(rows) else -1


@dataclass(frozen=True)
class InvarianceResult:
    passed: bool
    residual: float


@dataclass(frozen=True)
class ReducingResult:
    passed: bool
    residual_forward: float
    residual_adjoint: float

    @property
    def residual(self) -> float:
        return max(self.residual_forward, self.residual_adjoint)


def _restriction_data(m: LinearMap, sub: Subspace, target: Subspace, tol: float):
    """Restriction of m to sub: the one place invariance is decided.

    Returns the map ``F_t m E`` from the coordinates of sub into those of
    ``target``, a subspace of m's codomain (E the embedding of sub, F_t the
    coordinate map of the target), and the invariance verdict.  The
    leftover ``m E - E_t F_t m E`` is :func:`project`'s, and the residual
    is max_i ||(I - P) m b_i|| / ||b_i|| over its columns, P projecting
    onto the target.  Each ratio of squared norms is formed in the mode's
    own arithmetic and then converted to float, so exact norms below
    float64's range give their true ratio, not 0/0.  ``ScalarMode.passes``
    decides the verdict: exact mode passes only when the leftover is exactly
    zero, float mode when the residual is at most ``tol``.  For an index
    map and index embeddings every factor is an index map, so nothing is
    multiplied but one value per column.
    """
    if sub.ambient != m.domain:
        raise AmbientMismatch("subspace does not live in the map's domain")
    restricted, leftover = project(target, m.compose(sub.embedding))
    ratios = to_float(leftover.column_norms_sq() / np.asarray(sub.norms_sq))
    residual = float(np.sqrt(ratios).max(initial=0.0))
    return restricted, InvarianceResult(m.mode.passes([(residual, leftover.is_zero())], tol),
                                        residual)


def is_invariant(m: LinearMap, sub: Subspace, target: Subspace,
                 tol: float = 1e-10) -> InvarianceResult:
    """Does m map the subspace into ``target``, a subspace of m's codomain?

    The residual is max_i ||(I - P) m b_i|| / ||b_i|| over basis vectors,
    where P projects onto the target.  In exact mode ``tol`` is unused: the
    leftover must vanish exactly.  The shift z^N maps a ladder into the
    ladder of its codomain, ``residue_subspace(m.codomain, N, residues)``,
    and not into the ladder's zero padding ``extend(sub, m.codomain)``.
    Unlike :func:`is_reducing`, which stays in m's domain, this reads the
    codomain.
    """
    return _restriction_data(m, sub, target, tol)[1]


def _reducing(c: LinearMap, c_adj: LinearMap, sub: Subspace, tol: float) -> ReducingResult:
    """Do the square map ``c`` and its metric adjoint ``c_adj`` both map sub
    into sub?  Both sides are :func:`_restriction_data` with sub as target."""
    fwd = _restriction_data(c, sub, sub, tol)[1]
    adj = _restriction_data(c_adj, sub, sub, tol)[1]
    return ReducingResult(fwd.passed and adj.passed, fwd.residual, adj.residual)


def _compress(s: LinearMap) -> LinearMap:
    """The compression ``P_D s`` of s to its domain of dimension D, by
    ``operators.displace``; s's codomain must be a truncation at least as
    large that agrees with the domain on their common degrees."""
    if s.codomain.dim < s.domain.dim or not s.domain.agrees_with(s.codomain):
        raise AmbientMismatch("the reducing test needs a codomain that extends the domain")
    return displace(s, s.domain)


def is_reducing(s: LinearMap, sub: Subspace, tol: float = 1e-10) -> ReducingResult:
    """Does the subspace reduce the compression ``S_D = P_D s``?

    ``s`` maps a truncation of dimension D into one at least as large, as
    the shift z^N from D into D + N does, and ``P_D`` cuts its images back
    to degrees below D.  The subspace reduces ``S_D`` when ``S_D`` and its
    metric adjoint both map it into itself; each residual is
    max_i ||(I - P) x_i|| / ||b_i||, P projecting onto the subspace, over
    the images x_i of its basis vectors b_i.  Everything happens in the
    domain, and no subspace is extended.  For D >= 2N - 1 the reducing
    subspaces of ``S_D`` are exactly the residue ladders (Stessin and Zhu, "Reducing subspaces of
    weighted shift operators", Proc. AMS 130 (2002), for the full operator).
    A codomain smaller than the domain, or one whose metric disagrees with
    it on their common degrees, raises AmbientMismatch.
    """
    c = _compress(s)
    return _reducing(c, c.adjoint(), sub, tol)


def restrict(s: LinearMap, sub: Subspace, target: Subspace, tol: float = 1e-10) -> LinearMap:
    """Express a map from sub into ``target`` in their coordinates.

    ``target`` is a subspace of s's codomain that s must map sub into; for
    the shift and a ladder it is the ladder of the codomain.  The image of
    each basis vector of sub is re-expanded in the basis of the target; the
    part of the image sticking out of it is the invariance residual, decided
    as in :func:`is_invariant`, and a failing one raises NotInvariant.  The
    result acts between coordinate spaces and does not know the subspaces;
    the caller keeps sub and the target.
    """
    restricted, inv = _restriction_data(s, sub, target, tol)
    if not inv.passed:
        bound = "is not exactly zero" if s.mode.is_exact else f"exceeds tol {tol:.1e}"
        raise NotInvariant(
            f"subspace is not invariant: residual {inv.residual:.3e} {bound}"
        )
    return restricted


def wandering(t: LinearMap, ext: Subspace) -> Subspace:
    """Wandering part E = ext minus range(t), computed as ker t*.

    ``t`` maps into the coordinates of ``ext``, typically the shift
    restricted to a subspace by :func:`restrict`, with ``ext`` the target
    it was restricted into.  The orthogonal complement of range(t) there is
    the kernel of the metric adjoint of t, found by :func:`kernel` in those
    coordinates and carried into ext's ambient truncation by its embedding.
    An ``ext`` whose coordinate space is not t's codomain raises
    DimensionMismatch.
    """
    return Subspace.embedded(ext.embedding.compose(kernel(t.adjoint()).embedding))


def invariant_closure(e: Subspace, N: int, depth: int) -> Subspace:
    """Span of the orbit {z^(jN) f : f in E, 0 <= j <= depth} in E's ambient space.

    The package's one orbit routine.  The orbit is E's embedding displaced
    by 0, N, ..., depth*N rows, side by side (``operators.displace`` and
    ``operators.hstack``); when E is a span of monomials below degree N,
    the shifted copies hit distinct rows and the orbit is an index map.
    The whole orbit must fit inside the ambient truncation; otherwise
    DepthOverflow signals that the truncation dimension should be raised.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    d = e.ambient.dim
    k = max_degree(e)
    if k + depth * N > d - 1:
        raise DepthOverflow(
            f"orbit of depth {depth} reaches degree {k + depth * N}, "
            f"beyond truncation {d}; raise the dimension"
        )
    return _span(hstack([displace(e.embedding, e.ambient, j * N) for j in range(depth + 1)]))


def kernel(m: LinearMap, tol: float = 1e-10) -> Subspace:
    """Subspace {v : ||m v|| <= tol ||v||} in the metric; exact kernel in rational mode.

    In float mode ``tol`` bounds the metric singular values of m, so the cut
    does not depend on the scale of the weights.  The kernel lives in m's
    own domain, also when that is the coordinate space of a subspace.
    """
    return _span(null_space(m, tol))


def subspace_distance(u: Subspace, v: Subspace) -> float:
    """Metric operator norm of P_U - P_V (the sine of the largest principal angle).

    Equals 0 exactly when the subspaces coincide and 1 when one contains a
    direction orthogonal to the whole of the other, as it always does when
    the dimensions differ.  For equal dimensions ``||P_U - P_V||`` is
    ``||(I - P_V) Q_U||`` with Q_U a metric-orthonormal basis of U (Golub and
    Van Loan, *Matrix Computations*, 4th ed., section 2.5.3): the metric
    operator norm of :func:`project`'s leftover map ``E_U - E_V F_V E_U``,
    whose domain metric is U's squared norms.  An exactly zero leftover
    (U inside V, as for a ladder and a copy of its embedding) gives 0.0
    without a norm.
    """
    if u.ambient != v.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    if u.dim != v.dim:
        return 1.0
    leftover = project(v, u.embedding)[1]
    return 0.0 if leftover.is_zero() else operator_norm(leftover)


def projectors_equal(u: Subspace, v: Subspace) -> bool:
    """Exact-mode equality of two subspaces, decided from a leftover.

    Equal dimensions and U inside V mean U = V, so the subspaces are equal
    exactly when their dimensions agree and :func:`project` leaves an
    exactly zero leftover map of U's embedding.  No projector is formed.
    """
    if u.ambient != v.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    return u.dim == v.dim and project(v, u.embedding)[1].is_zero()


def _column_seeds(seed: int, dim: int) -> np.ndarray:
    """The seeds of the columns :func:`random_subspace` draws for ``seed``."""
    return np.random.default_rng(seed).integers(0, 2**63 - 1, size=dim)


def _control_seeds(seeds: range) -> np.ndarray:
    """The column seeds of census controls ``random_subspace(space, 2, i)``
    for every i in ``seeds``, two per control, in seed order."""
    return np.concatenate([_column_seeds(i, 2) for i in seeds])


def random_subspace(space: TruncatedSpace, dim: int, seed: int) -> Subspace:
    """Span of ``dim`` deterministic pseudo-random vectors."""
    return from_vectors(space, random_columns(space, _column_seeds(seed, dim)))


@dataclass(frozen=True)
class CensusReport:
    """Outcome of sweeping all residue subspaces plus random controls.

    ``residue_entries`` holds the :class:`ReducingResult` of each ladder,
    in :func:`residue_sets` order, and ``random_entries`` that of each
    random control, in seed order.
    """

    residue_entries: tuple
    random_entries: tuple

    @property
    def max_residue_residual(self) -> float:
        return max((e.residual for e in self.residue_entries), default=0.0)

    @property
    def min_random_residual(self) -> float:
        return min((e.residual for e in self.random_entries), default=np.inf)

    @property
    def all_residues_reduce(self) -> bool:
        return all(e.passed for e in self.residue_entries)

    @property
    def all_randoms_fail(self) -> bool:
        return all(not e.passed for e in self.random_entries)

    @property
    def passed(self) -> bool:
        return self.all_residues_reduce and self.all_randoms_fail


def _stack(block: np.ndarray) -> np.ndarray:
    """The (dim, 2T) block of the census's control columns viewed as a
    (T, dim, 2) stack, one pair of columns per control."""
    return block.reshape(block.shape[0], -1, 2).transpose(1, 0, 2)


def _control_residuals(space: TruncatedSpace, bases: np.ndarray,
                       *images: np.ndarray) -> list[np.ndarray]:
    """:func:`_restriction_data`'s residual for every control at once.

    ``bases`` is a (T, dim, 2) stack in ``space``, each control's
    metric-orthonormal basis, and each of ``images`` a stack of the images
    of those bases under one map into ``space``.  The bases' metric adjoint
    is formed once.  The leftover of each control's images off its own span
    is :func:`project`'s, formed as the dense route forms it, and the
    residual is the largest metric norm of its columns; one array of T
    residuals is returned per stack of images.
    """
    coords = _exact.metric_adjoint(bases, space.metric, np.ones(2))
    out = []
    for im in images:
        leftover = _exact.mm(bases, _exact.mm(coords, im))
        np.subtract(im, leftover, out=leftover)
        out.append(np.sqrt(space.column_norms_sq(leftover)).max(axis=1))
    return out


def _random_controls(c: LinearMap, c_adj: LinearMap, seeds: range,
                     tol: float) -> list[ReducingResult]:
    """The float reducing test of ``random_subspace(c.domain, 2, i)`` for
    every i in ``seeds``, as one stacked block; :func:`_exact_controls` is
    its exact twin.

    ``c`` is the compression, a square map, and ``c_adj`` its metric
    adjoint.  The columns of every control are drawn by one
    :func:`random_columns` call, with the seeds :func:`random_subspace`
    uses, and orthonormalized by one :func:`_orthonormal_runs` call.  Both
    maps apply to the same (dim, 2T) block of bases, in one ``apply`` each,
    and :func:`_control_residuals` measures both sides against the bases.
    The results, in seed order, are the ``ReducingResult`` of
    :func:`_reducing` on each control, bit for bit, and the census keeps
    them as they are.  A control whose pair of columns fails the rank
    rule takes that route.
    """
    dom = c.domain
    cols = _stack(random_columns(dom, _control_seeds(seeds)))
    cuts = RANK_TOL * np.sqrt(dom.column_norms_sq(cols))
    bases, runs = _orthonormal_runs(dom, cols, cuts)
    block = bases.transpose(1, 0, 2).reshape(dom.dim, -1)  # _stack's inverse
    fwd, adj = _control_residuals(dom, bases, _stack(c.apply(block)), _stack(c_adj.apply(block)))
    return [ReducingResult(c.mode.passes([(f, False), (a, False)], tol), float(f), float(a))
            if k == 2 else _reducing(c, c_adj, random_subspace(dom, 2, i), tol)
            for i, k, f, a in zip(seeds, runs, fwd, adj)]


def _pair_sums(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_j weights[j] x[j, t, a] y[j, t, b]`` for every control t and
    pair (a, b), as a (T, 2, 2) array of Python ints.  ``weights`` holds
    Python ints and ``x``, ``y`` are (n, T, 2) stacks of the int64
    numerators of :func:`random_numerators`, whose products fit in int64."""
    prods = x[..., :, None] * y[..., None, :]
    return _exact.integer_sums(weights, prods.reshape(len(weights), -1)).reshape(-1, 2, 2)


def _gram_residual(cross, images, den: int, basis, norms) -> tuple[float, bool]:
    """One side of one control's reducing test, from its integer Gram data.

    ``cross[a][b]`` is ``<m K_a, K_b>`` times ``den``, and ``images[a][b]``
    is ``<m K_a, m K_b>`` times ``den^2``, both in the integer metric.
    ``basis`` holds the coefficients of the orthogonal basis b_i in K_1, K_2
    and ``norms`` the |b_i|^2.  Residual i is
    ``(|m b_i|^2 - sum_k <m b_i, b_k>^2 / |b_k|^2) / |b_i|^2``, made one
    Fraction and converted to float as :func:`_restriction_data` does.
    Returns the largest residual's square root and whether every leftover
    is exactly zero.
    """
    def form(m, u, v):
        return sum(u[a] * m[a][b] * v[b] for a in (0, 1) for b in (0, 1))

    n1, n2 = norms
    nums = [form(images, u, u) * n1 * n2 - form(cross, u, basis[0]) ** 2 * n2
            - form(cross, u, basis[1]) ** 2 * n1 for u in basis]
    ratios = [float(Fraction(num, den * den * n1 * n2 * n)) for num, n in zip(nums, norms)]
    return math.sqrt(max(ratios)), not any(nums)


def _exact_controls(c: LinearMap, c_adj: LinearMap, seeds: range,
                    tol: float) -> list[ReducingResult]:
    """The exact reducing test of ``random_subspace(c.domain, 2, i)`` for
    every i in ``seeds``, from integer Gram data: the exact twin of
    :func:`_random_controls`.

    Control i's columns are ``K_a / 2^16``, with K_1, K_2 the integers that
    one :func:`random_numerators` call draws for all controls, with the
    seeds :func:`random_subspace` uses, and the metric is ``W / L``
    (``scaled_metric``).  Both scalings cancel in each residual ratio, so
    the test runs on integers: the Gram matrix G of K_1, K_2 in W; for each
    side m, the values of ``c`` or ``c_adj`` over their common denominator
    d, ``V / d``, give the weights ``W[row] V`` and ``W[row] V^2`` of
    ``<m K_a, K_b>`` and ``<m K_a, m K_b>``, sums over m's nonzeros; and
    Gram-Schmidt gives ``b_1 = K_1`` and ``b_2 = G_11 K_2 - G_12 K_1``.
    :func:`_gram_residual` forms each residual as one rational, the one the
    reference route forms, so the results, in seed order, are the
    ``ReducingResult`` of :func:`_reducing` on each control, bit for bit,
    and no ``Fraction`` array, :func:`orthogonalize` or :func:`project` is
    needed.  A control with dependent columns (``|b_1|^2`` or ``|b_2|^2``
    zero), and every control of a compression in dense form, takes that
    reference route.
    """
    dom = c.domain
    entries = [index_entries(m) for m in (c, c_adj)]
    if None in entries:
        return [_reducing(c, c_adj, random_subspace(dom, 2, i), tol) for i in seeds]
    k = random_numerators(dom.dim, _control_seeds(seeds))
    k = k.reshape(dom.dim, -1, 2)  # (D, T, 2): one pair of columns per control
    w = dom.scaled_metric[0]
    gram = _pair_sums(w, k, k).tolist()
    sides = []
    for cols, rows, vals in entries:
        v, den = _exact.over_common_denominator(vals)
        p = w[rows] * v
        sides.append((_pair_sums(p, k[cols], k[rows]).tolist(),
                      _pair_sums(p * v, k[cols], k[cols]).tolist(), den))
    out = []
    for t, i in enumerate(seeds):
        (g11, g12), (_, g22) = gram[t]
        norms = (g11, g11 * (g11 * g22 - g12 * g12))
        if not all(norms):
            out.append(_reducing(c, c_adj, random_subspace(dom, 2, i), tol))
            continue
        basis = ((1, 0), (-g12, g11))
        (f, f_zero), (a, a_zero) = (_gram_residual(cross[t], images[t], den, basis, norms)
                                    for cross, images, den in sides)
        out.append(ReducingResult(c.mode.passes([(f, f_zero), (a, a_zero)], tol), f, a))
    return out


def reducing_census(s: LinearMap, N: int, trials: int = 20, seed: int = 0,
                    tol: float = 1e-10) -> CensusReport:
    """Verify that residue ladders, and only they, reduce ``S_D = P_D s``.

    ``s`` is the shift z^N from dimension D into D + N, compressed once to
    ``S_D`` as :func:`is_reducing` compresses it.  All 2^N residue
    subspaces (including the zero and full ones) must reduce ``S_D`` with
    zero residual; ``trials`` seeded random subspaces must all fail.
    Control i is ``random_subspace(s.domain, 2, seed + i)``, two random
    vectors.  The metric adjoint of ``S_D`` is formed once for the whole
    census.  Each ladder is tested by itself (the reference route).  The
    controls are tested all at once, with the same results: float ones as
    one stacked block by :func:`_random_controls`, exact ones from integer
    Gram data by :func:`_exact_controls`, with no Gram-Schmidt and no
    projection.  The report
    holds the :class:`ReducingResult` of every ladder, in
    :func:`residue_sets` order, and of every control, in seed order.

    D < max(3, 2N - 1) raises DepthOverflow.  Below 2N - 1 the monomials
    z^(N-2) and z^(N-1) share the eigenvalue pair (0, 0) of
    (``S_D* S_D``, ``S_D S_D*``), so reducing subspaces other than the
    ladders exist (span{z} at N=3, D=4); at D = 2 a control is the whole
    domain.
    """
    need = max(3, 2 * N - 1)
    if s.domain.dim < need:
        raise DepthOverflow(f"census needs D >= {need} for N={N}, got D={s.domain.dim}; "
                            "raise D")
    c = _compress(s)
    c_adj = c.adjoint()
    residue_entries = tuple(_reducing(c, c_adj, residue_subspace(c.domain, N, combo), tol)
                            for combo in residue_sets(N))
    seeds = range(seed, seed + trials)
    controls = ()
    if seeds:
        controls = (_exact_controls if c.mode.is_exact else _random_controls)(c, c_adj, seeds, tol)
    return CensusReport(residue_entries, tuple(controls))
