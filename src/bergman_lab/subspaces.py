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
from .errors import (
    AmbientMismatch,
    BadResidue,
    DepthOverflow,
    DimensionMismatch,
    NotInvariant,
)
from .operators import LinearMap, to_float, weighted_matrix
from .space import CoefficientVector, TruncatedSpace, random_vector

#: Rank tolerance: the relative cut of orthogonalization, and the cut on the
#: metric singular values that decides which directions :func:`truncate` keeps.
RANK_TOL = 1e-10


class Subspace:
    """Metric-orthogonal basis of a subspace of a truncated space."""

    def __init__(
        self,
        ambient: TruncatedSpace,
        basis: np.ndarray,
        norms_sq: np.ndarray,
        *,
        residues: Optional[frozenset] = None,
        multiplicity: Optional[int] = None,
    ):
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
        self.residues = None if residues is None else frozenset(residues)
        self.multiplicity = multiplicity

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def coordinate_space(self) -> TruncatedSpace:
        """Space of coordinates in this basis; its metric is the squared norms."""
        return TruncatedSpace(metric=np.asarray(self.norms_sq), mode=self.ambient.mode)

    def vectors(self) -> list[CoefficientVector]:
        return [CoefficientVector(self.ambient, self.basis[:, j]) for j in range(self.dim)]

    def __repr__(self) -> str:
        tag = f", residues={sorted(self.residues)}" if self.residues is not None else ""
        return f"Subspace(dim={self.dim}, ambient={self.ambient.dim}{tag})"


def zero_subspace(ambient: TruncatedSpace) -> Subspace:
    return Subspace(ambient, ambient.mode.zeros((ambient.dim, 0)),
                    np.asarray(ambient.metric)[:0])


def orthogonalize(ambient: TruncatedSpace, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt in the weighted metric, one block projection per column.

    Each column loses its projection onto the vectors kept so far in one
    product ``v - B[:, :k] @ (F[:k] @ v)``, where row i of F is the coordinate
    functional of kept vector i (see :func:`coefficient_functionals`).  Float
    mode projects twice (CGS2; Giraud, Langou and Rozloznik, 2005, show two
    passes suffice), drops a column whose residual norm falls below
    ``RANK_TOL`` times its original norm and normalizes the rest.  Exact mode
    projects once, which in rational arithmetic gives exactly the modified
    Gram-Schmidt vectors, keeps every nonzero residual unnormalized (square
    roots leave the rationals) and carries its squared norm.
    """
    mode = ambient.mode
    w = np.asarray(ambient.metric)
    count = columns.shape[1]
    basis = mode.buffer((ambient.dim, count), columns)
    functionals = mode.buffer((count, ambient.dim), columns)
    norms = np.empty(count, dtype=w.dtype)
    k = 0
    for j in range(count):
        v = columns[:, j]
        for _ in range(1 if mode.is_exact else 2):
            v = v - _exact.mm(basis[:, :k], _exact.mm(functionals[:k], v))
        g = ambient.norm_sq(v)
        if mode.is_exact:
            if g == 0:
                continue
        else:
            n = np.sqrt(g)
            if not n > RANK_TOL * np.sqrt(ambient.norm_sq(columns[:, j])):
                continue
            v, g = v / n, 1.0
        basis[:, k] = v
        norms[k] = g
        functionals[k] = np.conjugate(v) * (w / g)
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
    degrees = residue_degrees(N, residues, space.dim)
    basis = space.mode.zeros((space.dim, len(degrees)))
    for j, d in enumerate(degrees):
        basis[d, j] = space.mode.one
    return Subspace(space, basis, np.asarray(space.metric)[degrees],
                    residues=frozenset(residues), multiplicity=N)


def coefficient_functionals(sub: Subspace) -> np.ndarray:
    """Matrix of the coordinate functionals: coords(v) = functionals @ v.

    Row j is conj(b_j) scaled entrywise by metric / ||b_j||^2, the metric
    adjoint of the basis matrix.  The scaling ratio is formed first, in real
    arithmetic (complex division rounds even x/x), so one-hot monomial bases
    produce exact 1.0 entries and projections of lattice vectors are exact
    even in floating point.
    """
    return _exact.metric_adjoint(sub.basis, sub.ambient.metric, sub.norms_sq)


def project_coefficients(sub: Subspace, arr: np.ndarray) -> np.ndarray:
    """Apply the metric-orthogonal projector onto ``sub`` to raw coefficients."""
    if sub.dim == 0:
        return arr * 0
    return _exact.mm(sub.basis, _exact.mm(coefficient_functionals(sub), arr))


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


def _null_coords(m: LinearMap, tol: float) -> np.ndarray:
    """Domain coordinates of {v : ||m v|| <= tol ||v||}, one column per direction.

    Exact mode solves m v = 0.  Float mode cuts the singular values of the
    metric-normalized matrix (see :func:`weighted_matrix`) at the absolute
    ``tol``, which is scale-free in the metric, and maps the null right
    singular vectors back to coordinates by the inverse square root of the
    domain metric.  :func:`kernel`, :func:`wandering` and :func:`truncate`
    all decide their null directions here.
    """
    if m.mode.is_exact:
        return _exact.nullspace(m.matrix)
    _u, s, vt = np.linalg.svd(weighted_matrix(m), full_matrices=True)
    rank = int(np.sum(s > tol))
    return vt[rank:].conj().T / np.sqrt(np.asarray(m.domain.metric))[:, None]


def truncate(sub: Subspace, dim: int) -> Subspace:
    """Intersection of the subspace with the smaller truncation span{z^n : n < dim}."""
    if dim > sub.ambient.dim:
        raise DimensionMismatch("truncate target exceeds the current ambient dimension")
    if sub.ambient.weights is not None:
        target = TruncatedSpace(sub.ambient.weights, dim)
    else:
        target = TruncatedSpace(metric=np.asarray(sub.ambient.metric)[:dim],
                                mode=sub.ambient.mode)
    if sub.residues is not None:
        return residue_subspace(target, sub.multiplicity, sub.residues)
    if dim == sub.ambient.dim:
        return Subspace(target, sub.basis, sub.norms_sq)
    # basis combinations whose coefficients of degree >= dim all vanish
    above = TruncatedSpace(metric=np.asarray(sub.ambient.metric)[dim:],
                           mode=sub.ambient.mode)
    top = LinearMap(sub.coordinate_space(), above, sub.basis[dim:, :])
    cols = _exact.mm(sub.basis, _null_coords(top, RANK_TOL))[:dim, :]
    return from_vectors(target, cols)


def extend(sub: Subspace, space: TruncatedSpace) -> Subspace:
    """Canonical extension of the subspace into another truncation.

    Residue-tagged subspaces regrow their monomial pattern.  Untagged ones
    are zero-padded into a larger truncation and intersected with a smaller
    one.
    """
    _check_compatible(sub, space)
    if sub.residues is not None:
        return residue_subspace(space, sub.multiplicity, sub.residues)
    if space.dim == sub.ambient.dim:
        return Subspace(space, sub.basis, sub.norms_sq)
    if space.dim < sub.ambient.dim:
        return truncate(sub, space.dim)
    basis = space.mode.buffer((space.dim, sub.dim), sub.basis)
    basis[: sub.ambient.dim, :] = sub.basis
    return Subspace(space, basis, sub.norms_sq)


def max_degree(sub: Subspace) -> int:
    """Largest degree carrying a nonnegligible coefficient; -1 for the zero subspace.

    Exact mode takes the last nonzero row.  Float mode measures each degree's
    largest coefficient in metric units, |b_n| sqrt(omega_n), and cuts at
    1e-12 times the largest of them, so the decision is scale-free.
    """
    if sub.dim == 0:
        return -1
    if sub.ambient.mode.is_exact:
        rows = [i for i in range(sub.ambient.dim) if bool((sub.basis[i, :] != 0).any())]
        return max(rows) if rows else -1
    amax = np.abs(sub.basis).max(axis=1) * np.sqrt(np.asarray(sub.ambient.metric))
    rows = np.nonzero(amax > 1e-12 * amax.max())[0]
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


def _restriction_data(m: LinearMap, sub: Subspace, tol: float):
    """Restriction of m to sub: the one place invariance is decided.

    Returns the canonical extension of the subspace inside m's codomain, the
    coordinates of m(basis of sub) in the extension's basis, and the
    invariance verdict.  The residual is max_i ||(I - P) m b_i|| / ||b_i||
    over basis vectors, P projecting onto the extension.  Exact mode passes
    only when the leftover is exactly zero; float mode when the residual is
    at most ``tol``.
    """
    if sub.ambient != m.domain:
        raise AmbientMismatch("subspace does not live in the map's domain")
    ext = extend(sub, m.codomain)
    imgs = _exact.mm(m.matrix, sub.basis)
    if ext.dim == 0:
        coords = imgs[:0, :]
        recon = imgs * 0
    else:
        coords = _exact.mm(coefficient_functionals(ext), imgs)
        recon = _exact.mm(ext.basis, coords)
    leftover = imgs - recon
    rsq = m.codomain.column_norms_sq(leftover)
    ratios = to_float(rsq) / to_float(np.asarray(sub.norms_sq))
    residual = float(np.sqrt(ratios).max(initial=0.0))
    if m.mode.is_exact:
        passed = not bool((leftover != 0).any())
    else:
        passed = residual <= tol
    return ext, coords, InvarianceResult(passed, residual)


def is_invariant(m: LinearMap, sub: Subspace, tol: float = 1e-10) -> InvarianceResult:
    """Does m map the subspace into its extension in m's codomain?

    The residual is max_i ||(I - P) m b_i|| / ||b_i|| over basis vectors,
    where P projects onto the canonical extension of the subspace inside the
    codomain truncation.  In exact mode ``tol`` is unused: the leftover must
    vanish exactly.
    """
    return _restriction_data(m, sub, tol)[2]


def _reducing(s: LinearMap, s_adj: LinearMap, sub: Subspace, tol: float) -> ReducingResult:
    """Invariance under ``s`` and under its metric adjoint ``s_adj``."""
    ext, _coords, fwd = _restriction_data(s, sub, tol)
    adj = is_invariant(s_adj, ext, tol)
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
    ext, coords, inv = _restriction_data(s, sub, tol)
    if not inv.passed:
        bound = "is not exactly zero" if s.mode.is_exact else f"exceeds tol {tol:.1e}"
        raise NotInvariant(
            f"subspace is not invariant: residual {inv.residual:.3e} {bound}"
        )
    return LinearMap(
        sub.coordinate_space(),
        ext.coordinate_space(),
        coords,
        domain_sub=sub,
        codomain_sub=ext,
    )


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


def invariant_closure(e: Subspace, t: LinearMap, h: Subspace, depth: int) -> Subspace:
    """Span of the iterated shift orbit {T^j e : e in E, 0 <= j <= depth}.

    Degrees only move up in steps of N, so applying T^j displaces the
    coefficient array of e by j*N rows.  The whole orbit must fit inside the
    ambient truncation; otherwise DepthOverflow signals that the truncation
    dimension should be raised.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if e.ambient != h.ambient:
        raise AmbientMismatch("wandering part must be expressed in the base truncation")
    if t.domain_sub is None or t.codomain_sub is None:
        raise DimensionMismatch("invariant_closure needs a restricted map")
    step = t.codomain_sub.ambient.dim - t.domain_sub.ambient.dim
    if step < 1:
        raise DimensionMismatch("the restricted map does not raise the truncation level")
    if e.dim == 0:
        return zero_subspace(h.ambient)
    d = h.ambient.dim
    k = max_degree(e)
    if k + depth * step > d - 1:
        raise DepthOverflow(
            f"orbit of depth {depth} reaches degree {k + depth * step}, "
            f"beyond truncation {d}; raise the dimension"
        )
    cols = h.ambient.mode.buffer((d, e.dim * (depth + 1)), e.basis)
    for j in range(depth + 1):
        lo = j * step
        block = e.basis[: d - lo, :] if lo else e.basis
        cols[lo:, j * e.dim : (j + 1) * e.dim] = block
    return from_vectors(h.ambient, cols)


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
    direction orthogonal to the whole of the other.
    """
    if u.ambient != v.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    if u.ambient.dim == 0:
        return 0.0
    diff = to_float(projector(u) - projector(v))
    sw = np.sqrt(to_float(np.asarray(u.ambient.metric)))
    m = (diff * sw[:, None]) / sw[None, :]
    return float(np.linalg.norm(m, 2))


def projectors_equal(u: Subspace, v: Subspace) -> bool:
    """Exact equality of the two subspaces via their projector matrices."""
    if u.ambient != v.ambient:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    return bool((projector(u) == projector(v)).all())


def random_subspace(space: TruncatedSpace, dim: int, seed: int) -> Subspace:
    """Span of ``dim`` deterministic pseudo-random vectors (untagged)."""
    cols = [random_vector(space, int(s)).coeffs
            for s in np.random.default_rng(seed).integers(0, 2**63 - 1, size=dim)]
    mat = space.mode.buffer((space.dim, dim), *cols)
    for j, c in enumerate(cols):
        mat[:, j] = c
    return from_vectors(space, mat)


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


def reducing_census(
    s: LinearMap,
    N: int,
    trials: int = 20,
    seed: int = 0,
    tol: float = 1e-10,
) -> CensusReport:
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
