"""Subspaces of truncated weighted spaces and their lattice operations.

A ``Subspace`` stores a basis that is orthogonal in the weighted metric
together with the squared norms of the basis vectors.  Monomial-pattern
subspaces (the residue-class ladders invariant under multiplication by z^N)
keep raw monomials as their basis, so their coordinate metric is the
corresponding slice of the weight sequence and restricted operators keep the
explicit coefficient form of the ambient ones.  Bases produced numerically
are normalized in float mode; in exact rational mode normalization would
leave the field, so the squared norms are carried instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import _exact
from .errors import AmbientMismatch, BadResidue, DepthOverflow, DimensionMismatch, NotInvariant
from .operators import LinearMap, _weighted_values, to_float, weighted_matrix
from .space import TruncatedSpace, random_columns

#: Rank tolerance: the relative cut of orthogonalization, and the cut on the
#: metric singular values that decides which directions :func:`truncate` keeps.
RANK_TOL = 1e-10


class Subspace:
    """Metric-orthogonal basis of a subspace of a truncated space.

    The residue tag (``residues``, ``multiplicity`` and ``degrees``, all None
    for an untagged subspace) is set only by :func:`residue_subspace`, once
    the subspace is built, and it guarantees the ladder's layout: basis
    column j is the monomial ``z^degrees[j]``, where ``degrees`` is
    ``residue_degrees(multiplicity, residues, ambient.dim)``, in increasing
    order, and ``norms_sq == ambient.metric[degrees]``.
    Maps applied to a tagged basis and projections onto a tagged subspace
    rely on it to gather entries by degree instead of multiplying.
    """

    def __init__(self, ambient: TruncatedSpace, basis: np.ndarray, norms_sq: np.ndarray):
        basis = np.asarray(basis)
        if basis.ndim != 2 or basis.shape[0] != ambient.dim:
            raise DimensionMismatch(
                f"basis shape {basis.shape} does not match ambient dim {ambient.dim}"
            )
        norms_sq = np.asarray(norms_sq)
        if norms_sq.shape != (basis.shape[1],):
            raise DimensionMismatch("one squared norm per basis vector required")
        basis = basis.copy()
        basis.flags.writeable = False
        self.ambient = ambient
        self.basis = basis
        self.norms_sq = norms_sq
        self.residues: Optional[frozenset] = None
        self.multiplicity: Optional[int] = None
        self.degrees: Optional[list[int]] = None

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def coordinate_space(self) -> TruncatedSpace:
        """Space of coordinates in this basis; its metric is the squared norms."""
        return TruncatedSpace(metric=np.asarray(self.norms_sq), mode=self.ambient.mode)

    def __repr__(self) -> str:
        tag = f", residues={sorted(self.residues)}" if self.residues is not None else ""
        return f"Subspace(dim={self.dim}, ambient={self.ambient.dim}{tag})"


def zero_subspace(ambient: TruncatedSpace) -> Subspace:
    return Subspace(ambient, ambient.mode.zeros((ambient.dim, 0)),
                    np.asarray(ambient.metric)[:0])


def orthogonalize(ambient: TruncatedSpace, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt in the weighted metric: the kept vectors and their squared norms.

    One loop serves both modes.  Each column is projected off the vectors
    kept before it, in one product ``v - B[:, :k] @ (F[:k] @ v)`` with row i
    of F the coordinate functional of kept vector i (see
    :func:`coefficient_functionals`): once in exact mode, which in rational
    arithmetic gives exactly the modified Gram-Schmidt vectors, and twice in
    float mode (CGS2; Giraud, Langou and Rozloznik, 2005).  The column is
    kept when its residual's metric norm is nonzero (exact mode) or greater
    than ``RANK_TOL`` times the column's own metric norm (float mode).  Float
    mode normalizes the kept vectors; exact mode keeps them unnormalized
    (square roots leave the rationals) and carries their squared norms.  The
    loop stops once the basis spans the ambient space.

    Float mode first takes the Householder QR factorization (Golub and Van
    Loan, *Matrix Computations*, 4th ed., section 5.2) of the columns scaled
    by ``sqrt(metric)``, in which the metric is Euclidean.  Each Q column is
    multiplied by the phase of its ``r_jj``, so that diag(R) is positive and
    Q is the normalized Gram-Schmidt basis up to rounding, and divided by
    ``sqrt(metric)`` on the way back.  ``|r_jj|`` is the residual the rank
    rule reads only while every column before j was kept, so the leading run
    of passing columns is accepted.  When that run covers the diagonal of R
    (every column kept, or the basis full) the factorization is the result;
    otherwise the first failing column is dropped and the loop takes the
    columns after it.
    """
    w = np.asarray(ambient.metric)
    exact = ambient.mode.is_exact
    k = start = 0
    if not exact:
        sw = np.sqrt(w)[:, None]
        cuts = RANK_TOL * np.sqrt(ambient.column_norms_sq(columns))
        q, r = np.linalg.qr(columns * sw)
        d = np.diagonal(r)
        passed = np.abs(d) > cuts[: len(d)]
        k = len(d) if passed.all() else int(np.argmin(passed))
        q = q[:, :k] * (d[:k] / np.abs(d[:k])) / sw
        if k == len(d):
            return q, np.ones(k)
        start = k + 1
    size = min(columns.shape[1], ambient.dim)
    basis = ambient.mode.buffer((ambient.dim, size), columns)
    functionals = ambient.mode.buffer((size, ambient.dim), columns)
    norms = ambient.mode.zeros(size)
    if k:
        basis[:, :k], functionals[:k], norms[:k] = q, np.conjugate(q).T * w, 1.0
    for j in range(start, columns.shape[1]):
        if k == ambient.dim:
            break
        v = columns[:, j]
        for _ in range(1 if exact else 2):
            v = _exact.sub(v, _exact.mm(basis[:, :k], _exact.mm(functionals[:k], v)))
        g = ambient.norm_sq(v)
        if not (g != 0 if exact else np.sqrt(g) > cuts[j]):
            continue
        if not exact:
            v, g = v / np.sqrt(g), 1.0
        basis[:, k], norms[k] = v, g
        functionals[k] = _exact.metric_adjoint(v[:, None], w, np.asarray([g]))[0]
        k += 1
    return basis[:, :k], norms[:k]


def from_vectors(ambient: TruncatedSpace, columns: np.ndarray) -> Subspace:
    """Span of the given coefficient columns, orthogonalized."""
    basis, norms = orthogonalize(ambient, np.asarray(columns))
    return Subspace(ambient, basis, norms)


def residue_degrees(N: int, residues: Iterable[int], dim: int) -> list[int]:
    """Sorted degrees {k + j*N : k in residues} below ``dim``."""
    res = sorted(set(residues))
    for k in res:
        if not 0 <= k < N:
            raise BadResidue(f"residue {k} outside range(0, {N})")
    return sorted(d for k in res for d in range(k, dim, N))


def residue_subspace(space: TruncatedSpace, N: int, residues: Iterable[int]) -> Subspace:
    """Monomial ladder span{z^(k + j*N) : k in residues}, a reducing subspace.

    The basis is the raw monomials in degree order, so the coordinate metric
    is the slice of the weight sequence at the selected degrees.
    """
    if space.weights is None:
        raise AmbientMismatch("residue subspaces need a weight-backed ambient space")
    residues = frozenset(residues)
    degrees = residue_degrees(N, residues, space.dim)
    basis = space.mode.zeros((space.dim, len(degrees)))
    basis[degrees, np.arange(len(degrees))] = space.mode.one
    sub = Subspace(space, basis, np.asarray(space.metric)[degrees])
    sub.residues, sub.multiplicity, sub.degrees = residues, N, degrees
    return sub


def coefficient_functionals(sub: Subspace) -> np.ndarray:
    """Matrix of the coordinate functionals: coords(v) = functionals @ v.

    Row j is conj(b_j) scaled entrywise by metric / ||b_j||^2, the metric
    adjoint of the basis matrix.  The scaling ratio is formed first, in real
    arithmetic (complex division rounds even x/x), so one-hot monomial bases
    produce exact 1.0 entries and projections of lattice vectors are exact
    even in floating point.
    """
    return _exact.metric_adjoint(sub.basis, sub.ambient.metric, sub.norms_sq)


def project(sub: Subspace, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metric-orthogonal projection of the columns of ``arr`` onto ``sub``:
    their coordinates in the basis of ``sub``, and the leftover ``arr - P arr``.

    The package's one projection routine.  The dense route, the reference,
    is ``coords = F @ arr`` with F the coordinate functionals, and
    ``arr - B @ coords``.  A ladder's functionals are rows with a single 1 at
    its degrees, so there the coordinates are the row gather ``arr[degrees]``
    and the leftover is a copy of ``arr`` with those rows zeroed: the same
    values, with no product and no subtraction.
    """
    if sub.degrees is None:
        coords = _exact.mm(coefficient_functionals(sub), arr)
        return coords, _exact.sub(arr, _exact.mm(sub.basis, coords))
    leftover = arr.copy()
    leftover[sub.degrees] = sub.ambient.mode.zeros(())
    return arr[sub.degrees], leftover


def projector(sub: Subspace) -> np.ndarray:
    """Projector matrix in ambient coordinates: B diag(1/g) B^H G."""
    if sub.dim == 0:
        return sub.ambient.mode.zeros((sub.ambient.dim, sub.ambient.dim))
    return _exact.mm(sub.basis, coefficient_functionals(sub))


def _check_compatible(sub: Subspace, space: TruncatedSpace) -> None:
    if sub.ambient.mode != space.mode:
        raise AmbientMismatch("scalar modes differ")
    d = min(sub.ambient.dim, space.dim)
    a = np.asarray(sub.ambient.metric)[:d]
    b = np.asarray(space.metric)[:d]
    if not bool((a == b).all()):
        raise AmbientMismatch("weight sequences disagree on the common truncation")


def _isolated_nonzeros(m: LinearMap) -> Optional[LinearMap]:
    """Index form of a dense map in which no two nonzeros share a row or a
    column; None otherwise.

    The one structure detection left: :func:`extend` builds the rows of an
    untagged basis above a cut as a dense block, and when the basis comes
    from a wandering part its columns are one-hot, so the block is a partial
    weighted permutation that no operation built.
    """
    mat = m.matrix
    rows, cols = np.nonzero(_exact.support(mat))
    if len(set(rows.tolist())) < len(rows) or len(set(cols.tolist())) < len(cols):
        return None
    index = np.full(m.domain.dim + 1, -1)
    vals = m.mode.buffer(m.domain.dim + 1, mat)
    index[cols], vals[cols] = rows, mat[rows, cols]
    return LinearMap._indexed(m.domain, m.codomain, index, vals)


def _null_coords(m: LinearMap, tol: float) -> np.ndarray:
    """Domain coordinates of {v : ||m v|| <= tol ||v||}, one column per direction.

    Exact mode solves m v = 0.  Float mode cuts the singular values of the
    metric-normalized matrix (see :func:`weighted_matrix`) at the absolute
    ``tol``, which is scale-free in the metric, and maps the null right
    singular vectors back to coordinates by the inverse square root of the
    domain metric.  :func:`kernel`, :func:`wandering` and :func:`extend`
    all decide their null directions here.

    An index map (see ``operators.LinearMap``), in either mode, has its
    kernel read off its structural zeros without an elimination or an SVD.
    It is spanned by the coordinate vectors of the columns that hold no
    nonzero (exact mode, entries ``Fraction(1)``) or no weighted entry above
    ``tol`` (float mode, entries ``1 / sqrt(metric[c])``), in increasing
    column order.  A dense map takes the same route when
    :func:`_isolated_nonzeros` finds the index form in it, and otherwise
    ``_exact.nullspace`` or the SVD, the references.
    """
    if m._rows is None:
        index = _isolated_nonzeros(m)
        if index is None:
            if m.mode.is_exact:
                return _exact.nullspace(m.matrix)
            _u, s, vt = np.linalg.svd(weighted_matrix(m), full_matrices=True)
            rank = int(np.sum(s > tol))
            return vt[rank:].conj().T / np.sqrt(np.asarray(m.domain.metric))[:, None]
        m = index
    if m.mode.is_exact:
        live = _exact.support(m._vals[:-1])
    else:
        live = np.abs(_weighted_values(m)[:-1]) > tol
    null = np.flatnonzero(~live)
    coords = m.mode.buffer((m.domain.dim, len(null)), m._vals)
    coords[null, np.arange(len(null))] = (
        m.mode.one if m.mode.is_exact else 1 / np.sqrt(np.asarray(m.domain.metric))[null])
    return coords


def truncate(sub: Subspace, dim: int) -> Subspace:
    """Intersection of the subspace with the smaller truncation span{z^n : n < dim}."""
    if dim > sub.ambient.dim:
        raise DimensionMismatch("truncate target exceeds the current ambient dimension")
    if sub.ambient.weights is not None:
        target = TruncatedSpace(sub.ambient.weights, dim)
    else:
        target = TruncatedSpace(metric=np.asarray(sub.ambient.metric)[:dim],
                                mode=sub.ambient.mode)
    return extend(sub, target)


def extend(sub: Subspace, space: TruncatedSpace) -> Subspace:
    """Canonical extension of the subspace into another truncation.

    The one routine that moves a subspace between truncations.  Residue-tagged
    subspaces regrow their monomial pattern.  Untagged ones are zero-padded
    into a truncation at least as large, and intersected with a smaller one:
    the span of the basis combinations whose coefficients of degree
    ``>= space.dim`` all vanish, decided by :func:`_null_coords`.
    """
    _check_compatible(sub, space)
    if sub.residues is not None:
        return residue_subspace(space, sub.multiplicity, sub.residues)
    d = space.dim
    if d >= sub.ambient.dim:
        basis = space.mode.buffer((d, sub.dim), sub.basis)
        basis[: sub.ambient.dim, :] = sub.basis
        return Subspace(space, basis, sub.norms_sq)
    above = TruncatedSpace(metric=np.asarray(sub.ambient.metric)[d:], mode=space.mode)
    top = LinearMap(sub.coordinate_space(), above, sub.basis[d:, :])
    return from_vectors(space, _exact.mm(sub.basis, _null_coords(top, RANK_TOL))[:d, :])


def max_degree(sub: Subspace) -> int:
    """Largest degree carrying a nonnegligible coefficient; -1 for the zero subspace.

    Both modes take each degree's largest coefficient |b_n|.  Exact mode
    keeps every nonzero one.  Float mode measures them in metric units,
    |b_n| sqrt(omega_n), and cuts at 1e-12 times the largest, so the
    decision is scale-free.
    """
    if sub.dim == 0:
        return -1
    amax = np.abs(sub.basis).max(axis=1)
    cut = 0
    if not sub.ambient.mode.is_exact:
        amax = amax * np.sqrt(np.asarray(sub.ambient.metric))
        cut = 1e-12 * amax.max()
    rows = np.flatnonzero(amax > cut)
    return int(rows.max()) if len(rows) else -1


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

    Returns the map from the coordinates of sub into those of ``target``, a
    subspace of m's codomain, that sends each basis vector of sub to the
    coordinates of its image's projection onto ``target``, and the invariance
    verdict.  The residual is max_i ||(I - P) m b_i|| / ||b_i|| over basis
    vectors, P projecting onto the target.  Exact mode passes only when
    every leftover norm is exactly zero; float mode when the residual is at
    most ``tol``.

    An index map restricted to residue ladders takes no product and builds
    no matrix: the images of the ladder basis are the map's columns at its
    degrees, gathered with their rows and values; the projection onto a
    ladder target keeps the entries in rows at its degrees, renumbered to
    the target's coordinates, and leaves the others as the leftover.  The
    restriction is then an index map.  Every other case projects the images
    ``m.apply(sub.basis)`` with :func:`project`, the reference.
    """
    if sub.ambient != m.domain:
        raise AmbientMismatch("subspace does not live in the map's domain")
    dom, cod = sub.coordinate_space(), target.coordinate_space()
    links = dict(domain_sub=sub, codomain_sub=target)
    if m._rows is not None and sub.degrees is not None and target.degrees is not None:
        rows, vals = m._rows[sub.degrees + [-1]], m._vals[sub.degrees + [-1]]
        coord_rows = np.full(m.codomain.dim + 1, -1)
        coord_rows[target.degrees] = np.arange(target.dim)
        coord_rows = coord_rows[rows]
        kept, zero = coord_rows >= 0, m.mode.zeros(())
        restricted = LinearMap._indexed(dom, cod, coord_rows, np.where(kept, vals, zero), **links)
        rsq = LinearMap._indexed(dom, m.codomain, rows,
                                 np.where(kept, zero, vals)).column_norms_sq()
    else:
        coords, leftover = project(target, m.apply(sub.basis))
        restricted = LinearMap(dom, cod, coords, **links)
        rsq = m.codomain.column_norms_sq(leftover)
    ratios = to_float(rsq) / to_float(np.asarray(sub.norms_sq))
    residual = float(np.sqrt(ratios).max(initial=0.0))
    if m.mode.is_exact:
        passed = not _exact.support(rsq).any()
    else:
        passed = residual <= tol
    return restricted, InvarianceResult(passed, residual)


def is_invariant(m: LinearMap, sub: Subspace, tol: float = 1e-10) -> InvarianceResult:
    """Does m map the subspace into its extension in m's codomain?

    The residual is max_i ||(I - P) m b_i|| / ||b_i|| over basis vectors,
    where P projects onto the canonical extension of the subspace inside the
    codomain truncation.  In exact mode ``tol`` is unused: the leftover must
    vanish exactly.
    """
    return _restriction_data(m, sub, extend(sub, m.codomain), tol)[1]


def _reducing(s: LinearMap, s_adj: LinearMap, sub: Subspace, tol: float) -> ReducingResult:
    """Does ``s`` map sub into its extension ext, and ``s_adj`` ext into sub?"""
    ext = extend(sub, s.codomain)
    fwd = _restriction_data(s, sub, ext, tol)[1]
    adj = _restriction_data(s_adj, ext, sub, tol)[1]
    return ReducingResult(fwd.passed and adj.passed, fwd.residual, adj.residual)


def is_reducing(s: LinearMap, sub: Subspace, tol: float = 1e-10) -> ReducingResult:
    """Invariance under the map and under its metric adjoint."""
    return _reducing(s, s.adjoint(), sub, tol)


def restrict(s: LinearMap, sub: Subspace, tol: float = 1e-10) -> LinearMap:
    """Express a map on an invariant subspace in that subspace's coordinates.

    The image of each basis vector is re-expanded in the basis of the
    subspace's extension inside the codomain truncation; the part of the
    image sticking out of the extension is the invariance residual, decided
    as in :func:`is_invariant`.
    """
    if s.domain_sub is not None:
        raise DimensionMismatch("restrict expects a map between ambient truncations")
    restricted, inv = _restriction_data(s, sub, extend(sub, s.codomain), tol)
    if not inv.passed:
        bound = "is not exactly zero" if s.mode.is_exact else f"exceeds tol {tol:.1e}"
        raise NotInvariant(
            f"subspace is not invariant: residual {inv.residual:.3e} {bound}"
        )
    return restricted


def wandering(t: LinearMap) -> Subspace:
    """Wandering part E = t.codomain_sub minus range(t), computed as ker t*.

    ``t`` must be a restricted map (carrying subspace links), typically the
    shift restricted to a subspace by :func:`restrict`, whose codomain
    subspace is then the subspace's extension.  The orthogonal complement of
    range(t) there is the kernel of the metric adjoint of t, so E comes from
    :func:`kernel` and is expressed in the ambient truncation of t's
    codomain subspace.
    """
    if t.codomain_sub is None or t.domain_sub is None:
        raise DimensionMismatch("wandering needs a restricted map with subspace links")
    return kernel(t.adjoint())


def invariant_closure(e: Subspace, N: int, depth: int) -> Subspace:
    """Span of the orbit {z^(jN) f : f in E, 0 <= j <= depth} in E's ambient space.

    The package's one orbit routine.  Multiplying by z^(jN) displaces the
    coefficient array of f by j*N rows, so the orbit is E's basis stacked at
    row offsets 0, N, ..., depth*N.  The whole orbit must fit inside the
    ambient truncation; otherwise DepthOverflow signals that the truncation
    dimension should be raised.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if e.dim == 0:
        return zero_subspace(e.ambient)
    d = e.ambient.dim
    k = max_degree(e)
    if k + depth * N > d - 1:
        raise DepthOverflow(
            f"orbit of depth {depth} reaches degree {k + depth * N}, "
            f"beyond truncation {d}; raise the dimension"
        )
    cols = e.ambient.mode.buffer((d, e.dim * (depth + 1)), e.basis)
    for j in range(depth + 1):
        lo = j * N
        block = e.basis[: d - lo, :] if lo else e.basis
        cols[lo:, j * e.dim : (j + 1) * e.dim] = block
    return from_vectors(e.ambient, cols)


def kernel(m: LinearMap, tol: float = 1e-10) -> Subspace:
    """Subspace {v : ||m v|| <= tol ||v||} in the metric; exact kernel in rational mode.

    In float mode ``tol`` bounds the metric singular values of m, so the cut
    does not depend on the scale of the weights.  When m acts between
    subspace coordinate spaces the kernel is re-expressed in the ambient
    truncation of m's domain subspace.
    """
    coords = _null_coords(m, tol)
    if m.domain_sub is not None:
        ambient = m.domain_sub.ambient
        cols = _exact.mm(m.domain_sub.basis, coords)
    else:
        ambient = m.domain
        cols = coords
    return from_vectors(ambient, cols)


def subspace_distance(u: Subspace, v: Subspace) -> float:
    """Metric operator norm of P_U - P_V (the sine of the largest principal angle).

    Equals 0 exactly when the subspaces coincide and 1 when one contains a
    direction orthogonal to the whole of the other, as it always does when
    the dimensions differ.  For equal dimensions ``||P_U - P_V||`` is
    ``||(I - P_V) Q_U||`` with Q_U a metric-orthonormal basis of U (Golub and
    Van Loan, *Matrix Computations*, 4th ed., section 2.5.3), so the norm is
    taken of the metric-scaled D x k block ``(I - P_V) B_U diag(norms_sq)^(-1/2)``
    instead of a D x D projector difference.  An exactly zero leftover
    (U inside V, as for a ladder and its untagged copy) gives 0.0 without
    the SVD of the 2-norm.
    """
    if u.ambient != v.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    if u.dim != v.dim:
        return 1.0
    if u.dim == 0:
        return 0.0
    leftover = to_float(project(v, u.basis)[1])
    if not leftover.any():
        return 0.0
    sw = np.sqrt(to_float(np.asarray(u.ambient.metric)))
    scale = np.sqrt(to_float(np.asarray(u.norms_sq)))
    return float(np.linalg.norm(leftover * sw[:, None] / scale[None, :], 2))


def projectors_equal(u: Subspace, v: Subspace) -> bool:
    """Exact-mode equality of two subspaces, decided from a leftover.

    Equal dimensions and U inside V mean U = V, so the subspaces are equal
    exactly when their dimensions agree and ``project(v, u.basis)`` leaves an
    exactly zero leftover.  No projector matrix is formed.
    """
    if u.ambient != v.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    return u.dim == v.dim and not _exact.support(project(v, u.basis)[1]).any()


def random_subspace(space: TruncatedSpace, dim: int, seed: int) -> Subspace:
    """Span of ``dim`` deterministic pseudo-random vectors (untagged)."""
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=dim)
    return from_vectors(space, random_columns(space, seeds))


@dataclass(frozen=True)
class CensusEntry:
    label: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class CensusReport:
    """Outcome of sweeping all residue subspaces plus random controls."""

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


def reducing_census(s: LinearMap, N: int, trials: int = 20, seed: int = 0,
                    tol: float = 1e-10) -> CensusReport:
    """Verify that residue ladders, and only they, pass the reducing test.

    All 2^N residue subspaces (including the zero and full ones) must reduce
    the shift with zero residual; ``trials`` seeded random subspaces must all
    fail.  Each random control spans two random vectors.  The metric adjoint
    of ``s`` is formed once for the whole census.
    """
    s_adj = s.adjoint()
    residue_entries = []
    for size in range(N + 1):
        for combo in itertools.combinations(range(N), size):
            sub = residue_subspace(s.domain, N, combo)
            r = _reducing(s, s_adj, sub, tol)
            label = "{" + ",".join(map(str, combo)) + "}"
            residue_entries.append(CensusEntry(label, r.residual, r.passed))
    random_entries = []
    for i in range(trials):
        sub = random_subspace(s.domain, 2, seed + i)
        r = _reducing(s, s_adj, sub, tol)
        random_entries.append(CensusEntry(f"random[{seed + i}]", r.residual, r.passed))
    return CensusReport(tuple(residue_entries), tuple(random_entries))
