"""Verification suite for the truncated shift machinery.

Each check realizes one identity or estimate used in the reconstruction of a
reducing subspace from its wandering part: the norm identity of the shift,
the two-sided coefficient bounds, the left-inverse and range-projector
identities of the norm-expanding lift, the telescoping projector sum, kernel
containment, norm expansivity, the vanishing-order of iterated lifts, and
the reconstruction itself (the Beurling-type property) on residue ladders.

Checks run on a graded tower: the residue ladder of the base truncation of
dimension D at level 0, and at level j the same ladder in dimension D + j*N,
built there by ``residue_subspace``.  The shift maps level j into level
j + 1 exactly, so in exact rational mode every identity is decided exactly;
in float mode the residuals are metric operator norms compared against the
tolerance of the check.  Levels are built and cached one at a time, on
first read: a check that reads only level 0 builds only level 0, and the
ambient checks use the bare shift and no tower.
"""

from __future__ import annotations

import functools
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
    displace,
    identity_map,
    operator_norm,
    pinv,
    shift,
    smallest_singular_value,
)
from .space import TruncatedSpace, random_columns
from .subspaces import (
    Subspace,
    extend,
    invariant_closure,
    is_reducing,
    kernel,
    max_degree,
    project,
    projector,
    reducing_census,
    residue_sets,
    residue_subspace,
    restrict,
    truncate,
    wandering,
)
from .weights import (
    Scalar,
    ScalarMode,
    WeightParams,
    lower_bound,
    shift_coeffs,
    weight_sequence,
)

SUITE_VERSION = "1.0.0"

#: Number of random vectors drawn by every randomized check.
NUM_RANDOM_VECTORS = 20


@dataclass(frozen=True)
class CheckSpec:
    """Fully deterministic description of one check run.

    ``residues`` is stored in its normal form, the sorted tuple of distinct
    residues, so specs naming the same set are equal and share a tower.
    """

    name: str
    N: int
    alpha: Scalar
    D: int
    residues: Optional[tuple[int, ...]] = None
    depth: int = 4
    seed: int = 0
    mode: ScalarMode = ScalarMode.FLOAT64
    tol: float = 1e-10

    def __post_init__(self):
        if self.residues is not None:
            object.__setattr__(self, "residues", tuple(sorted(set(self.residues))))

    def sort_key(self):
        res = (0, ()) if self.residues is None else (1, self.residues)
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
                    "alpha": _scalar_json(s.alpha),
                    "D": s.D,
                    "residues": None if s.residues is None else list(s.residues),
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


def _scalar_json(x: Scalar):
    """A scalar as JSON: a Fraction as its string, anything else as a float."""
    return str(x) if isinstance(x, Fraction) else float(x)


def _residues_of(spec: CheckSpec) -> tuple[int, ...]:
    return tuple(range(spec.N)) if spec.residues is None else spec.residues


class Level(NamedTuple):
    """Level j of the tower: the shift from dimension D + jN into D + (j+1)N,
    the residue ``ladder`` in the shift's domain, ``ext``, the ladder of the
    same residues in the codomain, which the shift maps the ladder into, the
    shift's restriction ``t`` from the ladder's coordinates into ext's, the
    left inverse ``pinv(t) = (t* t)^-1 t*``, and the lift chain
    ``A^(j+1) = lift_j o ... o lift_0`` from level 0's ladder into level j's
    ext, where ``lift_i = left_inv_i*`` is the norm-expanding lift
    ``T (T* T)^-1`` of level i.  The maps know only their spaces; the
    subspaces are the ladder and ext."""

    shift: LinearMap
    ladder: Subspace
    ext: Subspace
    t: LinearMap
    left_inv: LinearMap
    chain: LinearMap


@functools.lru_cache(maxsize=64)
def _tower_cached(N: int, alpha: Scalar, D: int, residues: tuple,
                  mode: ScalarMode, j: int) -> Level:
    s = _shift(N, alpha, D + j * N, mode)
    ladder = residue_subspace(s.domain, N, residues)
    ext = residue_subspace(s.codomain, N, residues)
    t = restrict(s, ladder, ext)
    left_inv = pinv(t)
    # the lift T (T*T)^-1 is the adjoint of the left inverse (T*T)^-1 T*
    lift = left_inv.adjoint()
    chain = lift if j == 0 else lift.compose(
        _tower_cached(N, alpha, D, residues, mode, j - 1).chain)
    return Level(s, ladder, ext, t, left_inv, chain)


def _tower(spec: CheckSpec, j: int = 0) -> Level:
    """Level j of the tower shared by every check with the same parameters.

    Levels are built on first read and cached one at a time; checks never
    mutate them.
    """
    return _tower_cached(spec.N, spec.alpha, spec.D, _residues_of(spec), spec.mode, j)


def _levels(spec: CheckSpec) -> list[Level]:
    """Levels 0 .. max(1, depth) - 1, for the checks that climb the tower."""
    return [_tower(spec, j) for j in range(max(1, spec.depth))]


def weights_reach(spec: CheckSpec) -> int:
    """Number of weights omega_0 .. omega_(n-1) the check of ``spec`` may read:
    the codomain dimension D + (levels) * N of the highest level it builds."""
    levels = max(1, spec.depth) if spec.name in TOWER_CHECKS else 1
    return spec.D + levels * spec.N


def _shift(N: int, alpha: Scalar, D: int, mode: ScalarMode) -> LinearMap:
    """The ambient shift z^N from dimension D into D + N."""
    ws = weight_sequence(WeightParams(alpha, N, D + N), mode)
    return shift(TruncatedSpace(ws, D), TruncatedSpace(ws, D + N), N)


#: A quantity a check expects to vanish: its float size, and whether it is
#: exactly zero.
Defect = tuple[float, bool]


def _map_defect(m: LinearMap) -> Defect:
    """Defect of a map expected to vanish, measured by its metric operator norm."""
    return (0.0, True) if m.is_zero() else (operator_norm(m), False)


def _column_defects(nums_sq, dens_sq) -> list[Defect]:
    """Defect of each column expected to vanish, from its squared norm in
    ``nums_sq`` relative to its entry of ``dens_sq``.

    A column whose norm is 0 is (0.0, True) and its entry of ``dens_sq`` is
    not read.  The ratio is formed in the mode's own arithmetic and then
    converted to float, as ``subspaces._restriction_data`` forms its own.
    """
    return [(0.0, True) if num == 0 else (math.sqrt(float(num / den)), False)
            for num, den in zip(nums_sq, dens_sq)]


def _entry(spec: CheckSpec, defects: list[Defect], ok: bool = True,
           note: str = "") -> ReportEntry:
    """The report entry of every check.

    The residual is the largest defect measure, and the verdict is
    ``ScalarMode.passes`` of the defects at ``spec.tol`` (exact mode: every
    defect exactly zero), which also needs ``ok``.  A non-finite measure
    makes the residual NaN (or infinite, when no measure is NaN) wherever
    it sits among the defects, and the note names the first one.
    """
    bad = [(i, r) for i, (r, _zero) in enumerate(defects) if not math.isfinite(r)]
    if bad:
        residual = math.nan if any(math.isnan(r) for _i, r in bad) else math.inf
        i, r = bad[0]
        note = "; ".join(filter(None, [note, f"defect {i} of {len(defects)} is {float(r)}"]))
    else:
        residual = max((r for r, _zero in defects), default=0.0)
    return ReportEntry(spec, residual, bool(ok and spec.mode.passes(defects, spec.tol)),
                       note=note)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_norm_identity(spec: CheckSpec) -> ReportEntry:
    """||z^N f||^2 equals sum_n C(N, alpha, n) omega_n |a_n|^2.

    Swept over every monomial (one coefficient at a time, which pins each
    C individually) and over random vectors.  The image of the monomial z^n
    is column n of the shift, so the monomials' norms are the shift's column
    norms; the shift is applied once, to the random vectors stacked as
    columns.  The right-hand side is the squared norm in the metric
    C(N, alpha, n) omega_n.
    """
    s = _shift(spec.N, spec.alpha, spec.D, spec.mode)
    dom = s.domain
    coeffs = np.asarray(shift_coeffs(spec.N, spec.alpha, spec.D, spec.mode))
    scaled = TruncatedSpace(metric=coeffs * dom.metric, mode=spec.mode)
    randoms = random_columns(dom, range(spec.seed, spec.seed + NUM_RANDOM_VECTORS))
    nums = np.concatenate([s.column_norms_sq(), s.codomain.column_norms_sq(s.apply(randoms))])
    rhss = np.concatenate([scaled.metric, scaled.column_norms_sq(randoms)])
    dens = np.concatenate([dom.metric, dom.column_norms_sq(randoms)])
    defects = []
    for num, rhs, den in zip(nums, rhss, dens):
        if den == 0:
            continue
        diff = num - rhs
        defects.append((0.0, True) if diff == 0 else (abs(float(diff / den)), False))
    return _entry(spec, defects)


def check_coeff_bounds(spec: CheckSpec) -> ReportEntry:
    """Strict bounds (3 + alpha)^(-N) < C(N, alpha, n) < 1 for every n < D."""
    lo = lower_bound(spec.N, spec.alpha)
    coeffs = shift_coeffs(spec.N, spec.alpha, spec.D, spec.mode)
    # the bounds are strict, so an equality fails in float mode too
    over = [max(float(lo - c), float(c - 1), 0.0) for c in coeffs if not lo < c < 1]
    ties = [f"{which} bound attained in {spec.mode.value} at n={coeffs.index(bound)}"
            for which, bound in (("lower", lo), ("upper", 1)) if bound in coeffs]
    return _entry(spec, [(r, False) for r in over], not over, note="; ".join(ties))


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
    g = random_columns(t.domain, range(spec.seed, spec.seed + NUM_RANDOM_VECTORS))
    nums = t.codomain.column_norms_sq(t.apply(g))
    for num, den in zip(nums, t.domain.column_norms_sq(g)):
        if den != 0:
            short = bound * den - num
            defects.append((0.0, True) if short <= 0 else (float(short / den), False))
    ok = True
    if spec.mode.is_exact:
        ok = all(c > bound for c in shift_coeffs(spec.N, spec.alpha, spec.D, spec.mode))
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
    from the wandering part ker T*, found in the coordinates of T's codomain.
    """
    level = _tower(spec)
    t = level.t
    cod = t.codomain
    p = t.compose(level.left_inv)
    defects = [_map_defect(p.compose(p) - p), _map_defect(p.adjoint() - p)]
    if t.domain.dim > 0:
        g = random_columns(t.domain, range(spec.seed, spec.seed + NUM_RANDOM_VECTORS))
        tg = t.apply(g)
        defects += _column_defects(cod.column_norms_sq(_exact.sub(p.apply(tg), tg)),
                                   cod.column_norms_sq(tg))
    e = kernel(t.adjoint())
    if e.dim > 0:
        defects += _column_defects(p.compose(e.embedding).column_norms_sq(), e.norms_sq)
        comp = projector(e)
        defects.append(_map_defect(identity_map(cod) - p - comp))
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

    Swept over every n = 1..depth.  Since ``(pinv T)^n = (A^n)*``, its
    kernel is the wandering part of the lift chain A^n in level n's ext,
    ``wandering(level.chain, level.ext)``, found as E itself is.
    """
    levels = _levels(spec)
    base = levels[0].ladder
    if base.dim == 0 and levels[-1].ext.dim == 0:
        return _entry(spec, [], note="zero subspace, vacuous")
    e = wandering(levels[0].t, levels[0].ext)
    defects = []
    dims_ok = True
    kdims = []
    for n, level in enumerate(levels, start=1):
        # (pinv T)^n = (A^n)* maps level n down to level 0
        top = level.ext
        ker = wandering(level.chain, top)
        expected = n * len(_residues_of(spec))
        dims_ok = dims_ok and ker.dim == expected == top.dim - base.dim
        kdims.append(ker.dim)
        # W_n = E + TE + ... + T^(n-1)E inside level n's ambient truncation
        w_span = invariant_closure(extend(e, top.ambient), spec.N, n - 1)
        leftover = project(w_span, ker.embedding)[1]
        defects += _column_defects(leftover.column_norms_sq(), ker.norms_sq)
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
    g = random_columns(levels[0].t.domain, range(spec.seed, spec.seed + NUM_RANDOM_VECTORS))
    dens = levels[0].t.domain.column_norms_sq(g)
    for level in levels:
        nums = level.chain.codomain.column_norms_sq(level.chain.apply(g))
        for num, den in zip(nums, dens):
            if den != 0:
                defects.append((max(0.0, 1.0 - math.sqrt(num / den)), num >= den))
    coeffs = shift_coeffs(spec.N, spec.alpha, spec.D, spec.mode)
    over = [float(c - 1) for c in coeffs if not c <= 1]
    return _entry(spec, defects + [(r, False) for r in over], not over)


def check_min_degree(spec: CheckSpec) -> ReportEntry:
    """m-fold lifts vanish to order m*N at the origin (columns start at degree >= m*N)."""
    levels = _levels(spec)
    if levels[0].t.domain.dim == 0:
        return _entry(spec, [], note="zero subspace, vacuous")
    defects = []
    for m, level in enumerate(levels, start=1):
        top = level.ext
        cols = top.embedding.compose(level.chain)
        below = TruncatedSpace(metric=np.asarray(top.ambient.metric)[: m * spec.N], mode=spec.mode)
        low = displace(cols, below).matrix
        hit = _exact.support(low).any(axis=0)
        norms_sq = iter(cols.column_norms_sq()[hit] if hit.any() else ())
        defects += [(float(np.abs(part).max()) / math.sqrt(next(norms_sq)), False)
                    if h else (0.0, True) for h, part in zip(hit, low.T)]
    return _entry(spec, defects,
                  note="finite-section surrogate for trivial intersection of iterated ranges")


def check_beurling(spec: CheckSpec) -> ReportEntry:
    """A reducing subspace is recovered from its wandering part.

    The closure of {T^j E} at the maximal depth the grading supports is
    compared with the subspace H itself on the safe degrees < D - N, where
    the orbit construction is complete: both are cut there by ``truncate``,
    so the comparison reads H's embedding and not how H was built.  E is
    not cut above its ``max_degree`` k before the orbit is taken: it is
    ``ext.embedding`` after the kernel of ``t*``, both index maps, so its
    embedding is an index map whose every entry above degree k is an exact
    zero, and no rounding noise there could be amplified along the orbit.
    """
    if spec.D < 2 * spec.N:
        raise DepthOverflow(
            f"D={spec.D} leaves no safe comparison window for N={spec.N}; raise D"
        )
    level = _tower(spec)
    h = level.ladder
    red = is_reducing(level.shift, h, spec.tol)
    if not red.passed:
        raise NotReducing(
            f"subspace is not reducing: forward residual {red.residual_forward:.3e}, "
            f"adjoint residual {red.residual_adjoint:.3e}"
        )
    if h.dim == 0:
        return _entry(spec, [], note="zero subspace, vacuous")
    e = wandering(level.t, level.ext)
    e_base = truncate(e, spec.D)
    dims_ok = e_base.dim == e.dim == len(_residues_of(spec))
    k = max_degree(e_base)
    depth = (spec.D - 1 - k) // spec.N
    closure = invariant_closure(e_base, spec.N, depth)
    safe = spec.D - spec.N
    c_safe = truncate(closure, safe)
    h_safe = truncate(h, safe)
    # equal dimensions and C inside H mean C = H; the defect is the metric
    # norm of C's leftover off H, the sine of the largest principal angle
    defect = (_map_defect(project(h_safe, c_safe.embedding)[1]) if c_safe.dim == h_safe.dim
              else (1.0, False))
    note = f"depth={depth}, dim E={e.dim}, safe degrees < {safe}"
    return _entry(spec, [defect], dims_ok, note=note)


def check_census(spec: CheckSpec) -> ReportEntry:
    """All residue ladders reduce the compression ``S_D = P_D z^N`` with zero
    residual; random controls fail."""
    trials = max(1, min(spec.depth, 8)) * 5
    s = _shift(spec.N, spec.alpha, spec.D, spec.mode)
    report = reducing_census(s, spec.N, trials=trials, seed=spec.seed, tol=spec.tol)
    defects = [(e.residual, e.passed) for e in report.residue_entries]
    if not report.all_randoms_fail:
        defects.append((1.0, False))
    note = (f"2^{spec.N} residue subspaces, {trials} random controls, "
            f"min control residual {report.min_random_residual:.3e}")
    return _entry(spec, defects, report.all_randoms_fail, note=note)


#: Every check, once: its function, its default tolerance in float mode, and
#: what it reads: the bare shift from dimension D into D + N or its
#: coefficients ("ambient", which ignores the residue parameter), level 0 of
#: the tower ("level"), or levels 0 .. depth - 1 through :func:`_levels`
#: ("tower").  The grids assign seeds in this order.
_CHECK_TABLE = {
    "norm_identity": (check_norm_identity, 1e-12, "ambient"),
    "coeff_bounds": (check_coeff_bounds, 1e-12, "ambient"),
    "lower_bound": (check_lower_bound, 1e-12, "level"),
    "left_inverse": (check_left_inverse, 1e-10, "level"),
    "range_projector": (check_range_projector, 1e-10, "level"),
    "telescoping": (check_telescoping, 1e-10, "tower"),
    "kernel_containment": (check_kernel_containment, 1e-9, "tower"),
    "expansive": (check_expansive, 1e-12, "tower"),
    "min_degree": (check_min_degree, 1e-13, "tower"),
    "beurling": (check_beurling, 1e-10, "level"),
    "census": (check_census, 1e-10, "ambient"),
}
CHECKS: dict[str, Callable[[CheckSpec], ReportEntry]] = {
    name: check for name, (check, _tol, _reads) in _CHECK_TABLE.items()}
DEFAULT_TOLS = {name: tol for name, (_check, tol, _reads) in _CHECK_TABLE.items()}
AMBIENT_CHECKS = tuple(name for name, (_c, _t, reads) in _CHECK_TABLE.items()
                       if reads == "ambient")
TOWER_CHECKS = tuple(name for name, (_c, _t, reads) in _CHECK_TABLE.items()
                     if reads == "tower")


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
                for residues in residue_sets(N)[1:]:
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
        name, *tower, seed, mode = s.sort_key()
        return (mode, *tower, name, seed)

    return VerificationReport([run_check(s) for s in sorted(specs, key=exec_key)])
