"""Verification suite for the truncated shift machinery.

Each check realizes one identity or estimate used in the reconstruction of a
reducing subspace from its wandering part: the norm identity of the shift,
the two-sided coefficient bounds, the left-inverse and range-projector
identities of the norm-expanding lift, the telescoping projector sum, kernel
containment, norm expansivity, the vanishing-order of iterated lifts, and
the reconstruction itself (the Beurling-type property) on residue ladders.

Checks run on a graded tower: the base truncation of dimension D at level 0,
and at level j the extension of the subspace inside dimension D + j*N.  The
shift maps level j into level j + 1 exactly, so in exact rational mode every
identity is decided exactly; in float mode the residuals are metric operator
norms compared against the tolerance of the check.  Levels are built and
cached one at a time, on first read: a check that reads only level 0 builds
only level 0, and the ambient checks use the bare shift and no tower.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import _exact
from .errors import DepthOverflow, NotReducing
from .operators import (
    LinearMap,
    identity_map,
    operator_norm,
    pinv,
    shift,
    smallest_singular_value,
)
from .space import TruncatedSpace, norm_sq, random_vector
from .subspaces import (
    Subspace,
    coefficient_functionals,
    extend,
    from_vectors,
    invariant_closure,
    is_reducing,
    kernel,
    max_degree,
    project_coefficients,
    projector,
    projectors_equal,
    reducing_census,
    residue_subspace,
    restrict,
    subspace_distance,
    truncate,
    wandering,
)
from .weights import (
    Scalar,
    ScalarMode,
    WeightParams,
    lower_bound,
    shift_coeff,
    weight_sequence,
)

SUITE_VERSION = "1.0.0"

#: Number of random vectors drawn by every randomized check.
NUM_RANDOM_VECTORS = 20


@dataclass(frozen=True)
class CheckSpec:
    """Fully deterministic description of one check run."""

    name: str
    N: int
    alpha: Scalar
    D: int
    residues: Optional[tuple[int, ...]] = None
    depth: int = 4
    seed: int = 0
    mode: ScalarMode = ScalarMode.FLOAT64
    tol: float = 1e-10

    def sort_key(self):
        res = (0, ()) if self.residues is None else (1, tuple(sorted(self.residues)))
        return (
            self.name,
            self.N,
            float(self.alpha),
            str(self.alpha),
            self.D,
            res,
            self.depth,
            self.seed,
            self.mode.value,
        )


@dataclass
class ReportEntry:
    spec: CheckSpec
    residual: float
    passed: bool
    wall_ms: float = 0.0
    note: str = ""

    @property
    def exact(self) -> Optional[bool]:
        """The verdict when it was decided by exact equality; None in float mode."""
        return self.passed if self.spec.mode.is_exact else None


@dataclass
class VerificationReport:
    entries: list

    def sorted_entries(self) -> list:
        return sorted(self.entries, key=lambda e: e.spec.sort_key())

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries if e.passed)

    @property
    def failed(self) -> int:
        return self.total - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json_obj(self) -> dict:
        entries = []
        for e in self.sorted_entries():
            s = e.spec
            entries.append({
                "name": s.name,
                "params": {
                    "N": s.N,
                    "alpha": _alpha_repr(s.alpha),
                    "D": s.D,
                    "residues": None if s.residues is None else sorted(s.residues),
                    "depth": s.depth,
                    "seed": s.seed,
                    "mode": s.mode.value,
                },
                "residual": float(e.residual) if math.isfinite(e.residual) else None,
                "tol": s.tol,
                "pass": bool(e.passed),
                "wall_ms": round(float(e.wall_ms), 3),
            })
        return {
            "suite_version": SUITE_VERSION,
            "entries": entries,
            "summary": {
                "total": self.total,
                "passed": self.passed,
                "failed": self.failed,
            },
        }


def _alpha_repr(alpha: Scalar):
    if isinstance(alpha, Fraction):
        return str(alpha)
    return float(alpha)


def _residues_of(spec: CheckSpec) -> tuple[int, ...]:
    return tuple(range(spec.N)) if spec.residues is None else spec.residues


class Level(NamedTuple):
    """Level j of the tower: the shift from dimension D + jN into D + (j+1)N,
    its restriction ``t`` to the residue ladder, and the two pseudoinverse
    factors of ``t``.  Spaces and ladders are read off the maps."""

    shift: LinearMap
    t: LinearMap
    left_inv: LinearMap
    lift: LinearMap


@functools.lru_cache(maxsize=64)
def _tower_cached(N: int, alpha: Scalar, D: int, residues: tuple,
                  mode: ScalarMode, j: int) -> Level:
    s = _shift(N, alpha, D + j * N, mode)
    t = restrict(s, residue_subspace(s.domain, N, residues))
    left_inv = pinv(t)
    # the lift T (T*T)^-1 is the adjoint of the left inverse (T*T)^-1 T*
    return Level(s, t, left_inv, left_inv.adjoint())


def _tower(spec: CheckSpec, j: int = 0) -> Level:
    """Level j of the tower shared by every check with the same parameters.

    Levels are built on first read and cached one at a time; checks never
    mutate them.
    """
    return _tower_cached(spec.N, spec.alpha, spec.D, _residues_of(spec), spec.mode, j)


def _levels(spec: CheckSpec) -> list[Level]:
    """Levels 0 .. max(1, depth) - 1, for the checks that climb the tower."""
    return [_tower(spec, j) for j in range(max(1, spec.depth))]


def _shift(N: int, alpha: Scalar, D: int, mode: ScalarMode) -> LinearMap:
    """The ambient shift z^N from dimension D into D + N."""
    ws = weight_sequence(WeightParams(alpha, N, D + N), mode)
    return shift(TruncatedSpace(ws, D), TruncatedSpace(ws, D + N), N)


def _random_coord_vectors(space: TruncatedSpace, seed: int):
    return [random_vector(space, seed + i) for i in range(NUM_RANDOM_VECTORS)]


#: A quantity a check expects to vanish: its float size, and whether it is
#: exactly zero.
Defect = tuple[float, bool]


def _exactly_zero(arr: np.ndarray) -> bool:
    return not bool((arr != 0).any())


def _defect(zero: bool, measure: Callable[[], float]) -> Defect:
    """(0.0, True) for an exactly vanishing quantity, else (measure(), False).

    Deciding exact zero first spares exact mode the norms of zero leftovers;
    a float measure of an exactly zero array is 0.0 anyway.
    """
    return (0.0, True) if zero else (measure(), False)


def _map_defect(m: LinearMap) -> Defect:
    """Defect of a map expected to vanish, measured by its metric operator norm."""
    return _defect(_exactly_zero(m.matrix), lambda: operator_norm(m))


def _vector_defect(space: TruncatedSpace, v: np.ndarray, den_sq) -> Defect:
    """Defect of a coefficient array expected to vanish, relative to sqrt(den_sq)."""
    return _defect(_exactly_zero(v),
                   lambda: math.sqrt(float(space.norm_sq(v)) / float(den_sq)))


def _entry(spec: CheckSpec, defects: list[Defect], ok: bool = True,
           note: str = "") -> ReportEntry:
    """The one verdict rule of every check.

    The residual is the largest defect measure.  Exact mode passes when
    every defect is exactly zero; float mode when every measure is at most
    ``spec.tol``.  Both modes also need ``ok``.
    """
    residual = max((r for r, _zero in defects), default=0.0)
    if spec.mode.is_exact:
        passed = all(zero for _r, zero in defects)
    else:
        passed = all(r <= spec.tol for r, _zero in defects)
    return ReportEntry(spec, residual, bool(ok and passed), note=note)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_norm_identity(spec: CheckSpec) -> ReportEntry:
    """||z^N f||^2 equals sum_n C(N, alpha, n) omega_n |a_n|^2.

    Swept over every monomial (one coefficient at a time, which pins each
    C individually) and over random vectors.  The shift is applied once, to
    all of them stacked as columns.  The right-hand side is the squared norm
    in the metric C(N, alpha, n) omega_n.
    """
    s = _shift(spec.N, spec.alpha, spec.D, spec.mode)
    dom = s.domain
    coeffs = np.asarray([shift_coeff(spec.N, spec.alpha, n, spec.mode)
                         for n in range(spec.D)])
    scaled = TruncatedSpace(metric=coeffs * dom.metric, mode=spec.mode)
    # the monomials z^0 .. z^(D-1) are the columns of the identity
    randoms = [f.coeffs for f in _random_coord_vectors(dom, spec.seed)]
    vectors = np.concatenate([spec.mode.eye(spec.D), np.stack(randoms, axis=1)], axis=1)
    nums = s.codomain.column_norms_sq(_exact.mm(s.matrix, vectors))
    defects = []
    for num, rhs, den in zip(nums, scaled.column_norms_sq(vectors),
                             dom.column_norms_sq(vectors)):
        if den == 0:
            continue
        diff = num - rhs
        defects.append(_defect(diff == 0, lambda: abs(float(diff)) / float(den)))
    return _entry(spec, defects)


def check_coeff_bounds(spec: CheckSpec) -> ReportEntry:
    """Strict bounds (3 + alpha)^(-N) < C(N, alpha, n) < 1 for every n < D."""
    lo = lower_bound(spec.N, spec.alpha)
    coeffs = [shift_coeff(spec.N, spec.alpha, n, spec.mode) for n in range(spec.D)]
    # the bounds are strict, so an equality fails in float mode too
    over = [max(float(lo - c), float(c - 1), 0.0) for c in coeffs if not lo < c < 1]
    return _entry(spec, [(r, False) for r in over], not over)


def check_lower_bound(spec: CheckSpec) -> ReportEntry:
    """||T f||^2 >= (3 + alpha)^(-N) ||f||^2 on the restricted shift.

    Verified on random vectors and through the smallest metric singular
    value; exact mode instead certifies the strict per-coefficient bound.
    """
    t = _tower(spec).t
    if t.domain.dim == 0:
        return _entry(spec, [], note="zero subspace, vacuous")
    bound = lower_bound(spec.N, spec.alpha)
    defects = []
    for g in _random_coord_vectors(t.domain, spec.seed):
        num = norm_sq(t.apply(g))
        den = norm_sq(g)
        if den != 0:
            short = bound * den - num
            defects.append((float(max(short, 0)) / float(den), short <= 0))
    ok = True
    if spec.mode.is_exact:
        ok = all(shift_coeff(spec.N, spec.alpha, n, spec.mode) > bound
                 for n in range(spec.D))
    else:
        short = max(0.0, math.sqrt(float(bound)) - smallest_singular_value(t))
        defects.append((short, short == 0.0))
    return _entry(spec, defects, ok,
                  note="finite-section surrogate for the closed-range bound")


def check_left_inverse(spec: CheckSpec) -> ReportEntry:
    """pinv(T) composed with T is the identity on the subspace."""
    level = _tower(spec)
    t = level.t
    return _entry(spec, [_map_defect(level.left_inv.compose(t) - identity_map(t.domain))])


def check_range_projector(spec: CheckSpec) -> ReportEntry:
    """P = T pinv(T) is the metric projector onto TH and I - P projects onto E.

    The complement projector is compared against one assembled independently
    from an orthogonal basis of the wandering part.
    """
    level = _tower(spec)
    t = level.t
    cod = t.codomain
    p = t.compose(level.left_inv)
    defects = [_map_defect(p.compose(p) - p), _map_defect(p.adjoint() - p)]
    if t.domain.dim > 0:
        for g in _random_coord_vectors(t.domain, spec.seed):
            tg = t.apply(g)
            den = norm_sq(tg)
            if den != 0:
                defects.append(_vector_defect(cod, (p.apply(tg) - tg).coeffs, den))
    e = wandering(t)
    if e.dim > 0:
        e_coords = _exact.mm(coefficient_functionals(t.codomain_sub), e.basis)
        for j in range(e.dim):
            pe = _exact.mm(p.matrix, e_coords[:, j])
            defects.append(_vector_defect(cod, pe, e.norms_sq[j]))
        e_in_coords = Subspace(t.codomain, e_coords, e.norms_sq)
        comp = (identity_map(cod) - p).matrix - projector(e_in_coords)
        defects.append(_map_defect(LinearMap(cod, cod, comp)))
    return _entry(spec, defects)


def check_telescoping(spec: CheckSpec) -> ReportEntry:
    """sum_{k<n} T^k P_E (pinv T)^k telescopes to I - T^n (pinv T)^n.

    All partial sums n = 1..depth are verified on one tower anchored at the
    top level; each term lowers by k levels, projects onto the wandering part
    there, and lifts back.
    """
    levels = _levels(spec)
    top = levels[-1].t.codomain
    asc = [identity_map(top)]
    desc = [identity_map(top)]
    for level in reversed(levels):
        asc.append(asc[-1].compose(level.t))
        desc.append(level.left_inv.compose(desc[-1]))
    defects = []
    total = None
    for k, level in enumerate(reversed(levels)):
        p_range = level.t.compose(level.left_inv)
        p_e = identity_map(p_range.domain) - p_range
        term = asc[k].compose(p_e).compose(desc[k])
        total = term if total is None else total + term
        rhs = identity_map(top) - asc[k + 1].compose(desc[k + 1])
        defects.append(_map_defect(total - rhs))
    return _entry(spec, defects, note=f"partial sums n=1..{len(levels)}")


def check_kernel_containment(spec: CheckSpec) -> ReportEntry:
    """ker (pinv T)^n sits inside E + TE + ... + T^(n-1)E, with dim n * |residues|.

    Swept over every n = 1..depth.
    """
    levels = _levels(spec)
    base = levels[0].t.domain_sub
    if base.dim == 0 and levels[-1].t.codomain_sub.dim == 0:
        return _entry(spec, [], note="zero subspace, vacuous")
    e = wandering(levels[0].t)
    defects = []
    dims_ok = True
    kdims = []
    desc = None
    for n, level in enumerate(levels, start=1):
        # (pinv T)^n maps level n down to level 0
        desc = level.left_inv if desc is None else desc.compose(level.left_inv)
        ker = kernel(desc, tol=min(spec.tol, 1e-8))
        expected = n * len(_residues_of(spec))
        top = level.t.codomain_sub
        dims_ok = dims_ok and ker.dim == expected == top.dim - base.dim
        kdims.append(ker.dim)
        top_space = top.ambient
        cols = spec.mode.buffer((top_space.dim, e.dim * n), e.basis)
        for k in range(n):
            lo = k * spec.N
            cols[lo : lo + e.ambient.dim, k * e.dim : (k + 1) * e.dim] = e.basis
        w_span = from_vectors(top_space, cols)
        for j in range(ker.dim):
            v = ker.basis[:, j]
            defects.append(_vector_defect(top_space, v - project_coefficients(w_span, v),
                                          ker.norms_sq[j]))
    note = f"n=1..{len(levels)}, dim ker={kdims}, step={len(_residues_of(spec))}"
    return _entry(spec, defects, dims_ok, note=note)


def check_expansive(spec: CheckSpec) -> ReportEntry:
    """Iterates of the lift never shrink norms: ||A^m g|| >= ||g||.

    Includes the per-coefficient certificate 1 / C(N, alpha, n) >= 1.
    """
    levels = _levels(spec)
    if levels[0].t.domain.dim == 0:
        return _entry(spec, [], note="zero subspace, vacuous")
    defects = []
    chain = None
    vectors = _random_coord_vectors(levels[0].t.domain, spec.seed)
    dens = [norm_sq(g) for g in vectors]
    for level in levels:
        chain = level.lift if chain is None else level.lift.compose(chain)
        for g, den in zip(vectors, dens):
            num = norm_sq(chain.apply(g))
            if den != 0:
                defects.append((max(0.0, 1.0 - math.sqrt(num / den)), num >= den))
    coeffs = [shift_coeff(spec.N, spec.alpha, n, spec.mode) for n in range(spec.D)]
    over = [float(c - 1) for c in coeffs if not c <= 1]
    return _entry(spec, defects + [(r, False) for r in over], not over)


def check_min_degree(spec: CheckSpec) -> ReportEntry:
    """m-fold lifts vanish to order m*N at the origin (columns start at degree >= m*N)."""
    levels = _levels(spec)
    if levels[0].t.domain.dim == 0:
        return _entry(spec, [], note="zero subspace, vacuous")
    defects = []
    chain = None
    for m, level in enumerate(levels, start=1):
        chain = level.lift if chain is None else level.lift.compose(chain)
        top = level.t.codomain_sub
        ambient_cols = _exact.mm(top.basis, chain.matrix)
        for col in ambient_cols.T:
            low = col[: m * spec.N]
            defects.append(_defect(_exactly_zero(low), lambda: float(np.abs(low).max())
                                   / math.sqrt(top.ambient.norm_sq(col))))
    return _entry(spec, defects,
                  note="finite-section surrogate for trivial intersection of iterated ranges")


def check_beurling(spec: CheckSpec) -> ReportEntry:
    """A reducing subspace is recovered from its wandering part.

    The closure of {T^j E} at the maximal depth the grading supports is
    compared with the subspace itself on the safe degrees < D - N, where the
    orbit construction is complete.
    """
    if spec.D < 2 * spec.N:
        raise DepthOverflow(
            f"D={spec.D} leaves no safe comparison window for N={spec.N}; raise D"
        )
    level = _tower(spec)
    t = level.t
    h = t.domain_sub
    red = is_reducing(level.shift, h, spec.tol)
    if not red.passed:
        raise NotReducing(
            f"subspace is not reducing: forward residual {red.residual_forward:.3e}, "
            f"adjoint residual {red.residual_adjoint:.3e}"
        )
    if h.dim == 0:
        return _entry(spec, [], note="zero subspace, vacuous")
    e = wandering(t)
    e_base = truncate(e, spec.D)
    dims_ok = e_base.dim == e.dim
    if h.residues is not None:
        dims_ok = dims_ok and e.dim == len(h.residues)
    k = max_degree(e_base)
    # keep only the combinations of E that vanish above degree k, so rounding
    # noise there is not amplified along the orbit
    e_base = extend(truncate(e_base, k + 1), h.ambient)
    depth = (spec.D - 1 - k) // spec.N
    closure = invariant_closure(e_base, t, h, depth)
    safe = spec.D - spec.N
    c_safe = truncate(closure, safe)
    h_safe = truncate(h, safe)
    # the distance is a float measure; only exact mode can decide equality
    equal = spec.mode.is_exact and projectors_equal(c_safe, h_safe)
    note = f"depth={depth}, dim E={e.dim}, safe degrees < {safe}"
    return _entry(spec, [(subspace_distance(c_safe, h_safe), equal)], dims_ok, note=note)


def check_census(spec: CheckSpec) -> ReportEntry:
    """All residue ladders reduce the shift with zero residual; random controls fail."""
    trials = max(1, min(spec.depth, 8)) * 5
    s = _shift(spec.N, spec.alpha, spec.D, spec.mode)
    report = reducing_census(s, spec.N, trials=trials, seed=spec.seed, tol=spec.tol)
    defects = [(e.residual, e.passed) for e in report.residue_entries]
    if not report.all_randoms_fail:
        defects.append((1.0, False))
    note = (f"2^{spec.N} residue subspaces, {trials} random controls, "
            f"min control residual {report.min_random_residual:.3e}")
    return _entry(spec, defects, report.all_randoms_fail, note=note)


CHECKS: dict[str, Callable[[CheckSpec], ReportEntry]] = {
    "norm_identity": check_norm_identity,
    "coeff_bounds": check_coeff_bounds,
    "lower_bound": check_lower_bound,
    "left_inverse": check_left_inverse,
    "range_projector": check_range_projector,
    "telescoping": check_telescoping,
    "kernel_containment": check_kernel_containment,
    "expansive": check_expansive,
    "min_degree": check_min_degree,
    "beurling": check_beurling,
    "census": check_census,
}

#: Ambient checks ignore the residue parameter.
AMBIENT_CHECKS = ("norm_identity", "coeff_bounds", "census")

#: Default tolerance of each check in float mode.
DEFAULT_TOLS = {
    "norm_identity": 1e-12,
    "coeff_bounds": 1e-12,
    "lower_bound": 1e-12,
    "left_inverse": 1e-10,
    "range_projector": 1e-10,
    "telescoping": 1e-10,
    "kernel_containment": 1e-9,
    "expansive": 1e-12,
    "min_degree": 1e-13,
    "beurling": 1e-10,
    "census": 1e-10,
}


def run_check(spec: CheckSpec) -> ReportEntry:
    """Run one check, timing it; failures of any kind become failed entries."""
    start = time.perf_counter()
    try:
        entry = CHECKS[spec.name](spec)
    except Exception as exc:  # a single broken check must not abort the suite
        entry = ReportEntry(spec, math.inf, False,
                            note=f"{type(exc).__name__}: {exc}")
    entry.wall_ms = (time.perf_counter() - start) * 1000.0
    return entry


def _nonempty_subsets(N: int) -> list[tuple[int, ...]]:
    out = []
    for size in range(1, N + 1):
        out.extend(itertools.combinations(range(N), size))
    return out


FLOAT_ALPHAS = (-0.5, 0.0, 0.5, 1.0, 2.5)
EXACT_ALPHAS = (Fraction(0), Fraction(1, 2), Fraction(1))


def _grid_specs(alphas, mode: ScalarMode, dims: Sequence[int], Ns: Sequence[int],
                depth: int, seed_start: int) -> list[CheckSpec]:
    specs = []
    seed = seed_start
    for alpha in alphas:
        for N in Ns:
            for D in dims:
                for name in AMBIENT_CHECKS:
                    specs.append(CheckSpec(name, N, alpha, D, None, depth,
                                           seed, mode, DEFAULT_TOLS[name]))
                    seed += 1
                for residues in _nonempty_subsets(N):
                    for name in CHECKS:
                        if name in AMBIENT_CHECKS:
                            continue
                        specs.append(CheckSpec(name, N, alpha, D, residues, depth,
                                               seed, mode, DEFAULT_TOLS[name]))
                        seed += 1
    return specs


def default_grid() -> list[CheckSpec]:
    """The standard verification grid.

    Float mode sweeps N in {1, 2, 3}, five alpha values, D in {32, 64} and
    every nonempty residue set; exact rational mode repeats the sweep at
    D = 16 for alpha in {0, 1/2, 1}.
    """
    specs = _grid_specs(FLOAT_ALPHAS, ScalarMode.FLOAT64, (32, 64), (1, 2, 3), 4, 1000)
    specs += _grid_specs(EXACT_ALPHAS, ScalarMode.EXACT_RATIONAL, (16,), (1, 2, 3), 4, 9000)
    return specs


def smoke_grid() -> list[CheckSpec]:
    """A small deterministic grid for quick runs and output-format tests."""
    specs = _grid_specs((0.0, 1.0), ScalarMode.FLOAT64, (16,), (1, 2), 2, 100)
    specs += _grid_specs((Fraction(1, 2),), ScalarMode.EXACT_RATIONAL, (12,), (2,), 2, 500)
    return specs


def run_suite(specs: Iterable[CheckSpec]) -> VerificationReport:
    """Run all checks serially, collecting every outcome.

    The report is canonically ordered by the check specs; execution order
    never affects it.
    """

    def exec_key(s: CheckSpec):
        # group checks sharing a tower so the tower cache stays hot
        res = (0, ()) if s.residues is None else (1, tuple(sorted(s.residues)))
        return (s.mode.value, s.N, float(s.alpha), str(s.alpha), s.D, res,
                s.depth, s.name, s.seed)

    return VerificationReport([run_check(s) for s in sorted(specs, key=exec_key)])
