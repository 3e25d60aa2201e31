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
norms compared against the tolerance of the check.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import DepthOverflow, NotReducing
from .operators import (
    LinearMap,
    identity_map,
    operator_norm,
    pinv,
    pinv_adjoint,
    shift,
    smallest_singular_value,
)
from .space import TruncatedSpace, monomial, norm_sq, random_vector
from .subspaces import (
    Subspace,
    coefficient_functionals,
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


@dataclass
class Tower:
    """Graded chain of ambient spaces, shifts, and restricted operators."""

    levels: int
    spaces: list
    shifts: list
    subs: list
    ts: list = field(default_factory=list)
    lifts: list = field(default_factory=list)
    left_invs: list = field(default_factory=list)


@functools.lru_cache(maxsize=16)
def _tower_cached(N: int, alpha: Scalar, D: int, residues: tuple,
                  mode: ScalarMode, levels: int) -> Tower:
    params = WeightParams(alpha, N, D + (levels + 1) * N)
    ws = weight_sequence(params, mode)
    spaces = [TruncatedSpace(ws, D + j * N) for j in range(levels + 1)]
    shifts = [shift(spaces[j], spaces[j + 1], N) for j in range(levels)]
    subs = [residue_subspace(spaces[j], N, residues) for j in range(levels + 1)]
    tower = Tower(levels, spaces, shifts, subs)
    tower.ts = [restrict(shifts[j], subs[j]) for j in range(levels)]
    tower.lifts = [pinv_adjoint(t) for t in tower.ts]
    tower.left_invs = [pinv(t) for t in tower.ts]
    return tower


def _tower(spec: CheckSpec) -> Tower:
    """Tower shared by every check with the same parameters (checks never mutate it)."""
    levels = max(1, spec.depth)
    return _tower_cached(spec.N, spec.alpha, spec.D, _residues_of(spec),
                         spec.mode, levels)


def _random_coord_vectors(space: TruncatedSpace, seed: int, count: int = NUM_RANDOM_VECTORS):
    return [random_vector(space, seed + i) for i in range(count)]


def _exactly_zero(arr: np.ndarray) -> bool:
    return not bool((arr != 0).any())


def _map_residual(m: LinearMap) -> tuple[float, bool]:
    """Metric operator norm of a map expected to vanish, and whether it may pass.

    Exact mode requires the matrix to be exactly zero; float mode leaves the
    verdict to the residual and the tolerance.
    """
    if m.mode.is_exact:
        ok = _exactly_zero(m.matrix)
        return (0.0 if ok else operator_norm(m)), ok
    return operator_norm(m), True


def _entry(spec: CheckSpec, residual: float, ok: bool = True, note: str = "") -> ReportEntry:
    """The one verdict rule of every check.

    Exact mode passes on ``ok`` alone, which each check decides by exact
    equality; float mode also needs ``residual <= spec.tol``.
    """
    passed = ok if spec.mode.is_exact else ok and residual <= spec.tol
    return ReportEntry(spec, residual, bool(passed), note=note)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_norm_identity(spec: CheckSpec) -> ReportEntry:
    """||z^N f||^2 equals sum_n C(N, alpha, n) omega_n |a_n|^2.

    Swept over every monomial (one coefficient at a time, which pins each
    C individually) and over random vectors.
    """
    params = WeightParams(spec.alpha, spec.N, spec.D + spec.N)
    ws = weight_sequence(params, spec.mode)
    dom = TruncatedSpace(ws, spec.D)
    cod = TruncatedSpace(ws, spec.D + spec.N)
    s = shift(dom, cod, spec.N)
    coeffs = [shift_coeff(spec.N, spec.alpha, n, spec.mode) for n in range(spec.D)]
    w = np.asarray(dom.metric)
    vectors = [monomial(dom, n) for n in range(spec.D)]
    vectors += _random_coord_vectors(dom, spec.seed)
    worst = 0.0
    ok = True
    for f in vectors:
        lhs = norm_sq(s.apply(f))
        if spec.mode.is_exact:
            rhs = sum((c * wn) * (a * a) for c, wn, a in zip(coeffs, w, f.coeffs))
            den = norm_sq(f)
            if den == 0:
                continue
            if lhs != rhs:
                ok = False
                worst = max(worst, abs(float(lhs - rhs)) / float(den))
        else:
            rhs = float(np.sum(np.asarray(coeffs) * w * np.abs(f.coeffs) ** 2))
            den = norm_sq(f)
            if den == 0.0:
                continue
            worst = max(worst, abs(lhs - rhs) / den)
    return _entry(spec, worst, ok)


def check_coeff_bounds(spec: CheckSpec) -> ReportEntry:
    """Strict bounds (3 + alpha)^(-N) < C(N, alpha, n) < 1 for every n < D."""
    lo = lower_bound(spec.N, spec.alpha)
    worst = 0.0
    ok = True
    for n in range(spec.D):
        c = shift_coeff(spec.N, spec.alpha, n, spec.mode)
        if not (lo < c < 1):
            ok = False
        worst = max(worst, float(lo - c), float(c - 1), 0.0)
    return _entry(spec, worst, ok)


def check_lower_bound(spec: CheckSpec) -> ReportEntry:
    """||T f||^2 >= (3 + alpha)^(-N) ||f||^2 on the restricted shift.

    Verified on random vectors and through the smallest metric singular
    value; exact mode instead certifies the strict per-coefficient bound.
    """
    tower = _tower(spec)
    t = tower.ts[0]
    if t.domain.dim == 0:
        return _entry(spec, 0.0, note="zero subspace, vacuous")
    bound = lower_bound(spec.N, spec.alpha)
    worst = 0.0
    ok = True
    for g in _random_coord_vectors(t.domain, spec.seed):
        num = norm_sq(t.apply(g))
        den = norm_sq(g)
        if spec.mode.is_exact:
            if den != 0 and num < bound * den:
                worst = max(worst, float(bound * den - num) / float(den))
        elif den > 0.0:
            worst = max(worst, max(0.0, (float(bound) * den - num) / den))
    if spec.mode.is_exact:
        ok = all(shift_coeff(spec.N, spec.alpha, n, spec.mode) > bound
                 for n in range(spec.D)) and worst == 0.0
    else:
        sigma = smallest_singular_value(t)
        worst = max(worst, max(0.0, math.sqrt(float(bound)) - sigma))
    return _entry(spec, worst, ok,
                  note="finite-section surrogate for the closed-range bound")


def check_left_inverse(spec: CheckSpec) -> ReportEntry:
    """pinv(T) composed with T is the identity on the subspace."""
    tower = _tower(spec)
    t = tower.ts[0]
    m = tower.left_invs[0].compose(t) - identity_map(t.domain)
    return _entry(spec, *_map_residual(m))


def check_range_projector(spec: CheckSpec) -> ReportEntry:
    """P = T pinv(T) is the metric projector onto TH and I - P projects onto E.

    The complement projector is compared against one assembled independently
    from an orthogonal basis of the wandering part.
    """
    tower = _tower(spec)
    t = tower.ts[0]
    cod = t.codomain
    p = t.compose(tower.left_invs[0])
    residuals = []
    flags = []
    for m in (p.compose(p) - p, p.adjoint() - p):
        r, ok = _map_residual(m)
        residuals.append(r)
        flags.append(ok)
    if t.domain.dim > 0:
        for g in _random_coord_vectors(t.domain, spec.seed):
            tg = t.apply(g)
            leftover = p.apply(tg) - tg
            den = norm_sq(tg)
            if spec.mode.is_exact:
                flags.append(_exactly_zero(leftover.coeffs))
            elif den > 0.0:
                residuals.append(math.sqrt(max(norm_sq(leftover), 0.0) / den))
    e = wandering(tower.subs[0], t)
    if e.dim > 0:
        e_coords = coefficient_functionals(tower.subs[1]) @ e.basis
        for j in range(e.dim):
            img = p.matrix @ e_coords[:, j]
            if spec.mode.is_exact:
                flags.append(_exactly_zero(img))
            else:
                residuals.append(math.sqrt(cod.norm_sq(img) / float(e.norms_sq[j])))
        e_in_coords = Subspace(t.codomain, e_coords, e.norms_sq)
        indep = projector(e_in_coords)
        comp = (identity_map(cod) - p).matrix - indep
        if spec.mode.is_exact:
            flags.append(_exactly_zero(comp))
        else:
            residuals.append(operator_norm(LinearMap(cod, cod, comp)))
    return _entry(spec, max(residuals), all(flags))


def check_telescoping(spec: CheckSpec) -> ReportEntry:
    """sum_{k<n} T^k P_E (pinv T)^k telescopes to I - T^n (pinv T)^n.

    All partial sums n = 1..depth are verified on one tower anchored at the
    top level; each term lowers by k levels, projects onto the wandering part
    there, and lifts back.
    """
    levels = max(1, spec.depth)
    tower = _tower(spec)
    top = tower.ts[levels - 1].codomain
    asc = [identity_map(top)]
    desc = [identity_map(top)]
    for k in range(1, levels + 1):
        asc.append(asc[k - 1].compose(tower.ts[levels - k]))
        desc.append(tower.left_invs[levels - k].compose(desc[k - 1]))
    residuals = []
    flags = []
    total = None
    for n in range(1, levels + 1):
        k = n - 1
        level = levels - k
        p_range = tower.ts[level - 1].compose(tower.left_invs[level - 1])
        p_e = identity_map(p_range.domain) - p_range
        term = asc[k].compose(p_e).compose(desc[k])
        total = term if total is None else total + term
        rhs = identity_map(top) - asc[n].compose(desc[n])
        r, ok = _map_residual(total - rhs)
        residuals.append(r)
        flags.append(ok)
    return _entry(spec, max(residuals), all(flags),
                  note=f"partial sums n=1..{levels}")


def check_kernel_containment(spec: CheckSpec) -> ReportEntry:
    """ker (pinv T)^n sits inside E + TE + ... + T^(n-1)E, with dim n * |residues|.

    Swept over every n = 1..depth.
    """
    levels = max(1, spec.depth)
    tower = _tower(spec)
    if tower.subs[0].dim == 0 and tower.subs[levels].dim == 0:
        return _entry(spec, 0.0, note="zero subspace, vacuous")
    e = wandering(tower.subs[0], tower.ts[0])
    mode = spec.mode
    worst = 0.0
    flags = []
    dims_ok = True
    kdims = []
    desc = None
    for n in range(1, levels + 1):
        # (pinv T)^n maps level n down to level 0
        desc = tower.left_invs[0] if n == 1 else desc.compose(tower.left_invs[n - 1])
        ker = kernel(desc, tol=min(spec.tol, 1e-8))
        expected = n * len(_residues_of(spec))
        dims_ok = dims_ok and ker.dim == expected == tower.subs[n].dim - tower.subs[0].dim
        kdims.append(ker.dim)
        top_space = tower.spaces[n]
        cols = mode.zeros((top_space.dim, e.dim * n))
        for k in range(n):
            lo = k * spec.N
            cols[lo : lo + e.ambient.dim, k * e.dim : (k + 1) * e.dim] = e.basis
        w_span = from_vectors(top_space, cols)
        for j in range(ker.dim):
            v = ker.basis[:, j]
            leftover = v - project_coefficients(w_span, v)
            if mode.is_exact:
                flags.append(_exactly_zero(leftover))
            else:
                worst = max(worst, math.sqrt(
                    top_space.norm_sq(leftover) / float(ker.norms_sq[j])))
    note = f"n=1..{levels}, dim ker={kdims}, step={len(_residues_of(spec))}"
    return _entry(spec, worst, all(flags) and dims_ok, note=note)


def check_expansive(spec: CheckSpec) -> ReportEntry:
    """Iterates of the lift never shrink norms: ||A^m g|| >= ||g||.

    Includes the per-coefficient certificate 1 / C(N, alpha, n) >= 1.
    """
    m_max = max(1, spec.depth)
    tower = _tower(spec)
    if tower.subs[0].dim == 0:
        return _entry(spec, 0.0, note="zero subspace, vacuous")
    worst = 0.0
    ok = True
    chain = None
    vectors = _random_coord_vectors(tower.ts[0].domain, spec.seed)
    for m in range(1, m_max + 1):
        chain = tower.lifts[m - 1] if chain is None else tower.lifts[m - 1].compose(chain)
        for g in vectors:
            num = norm_sq(chain.apply(g))
            den = norm_sq(g)
            if spec.mode.is_exact:
                if den != 0 and num < den:
                    ok = False
                    worst = max(worst, float(den - num) / float(den))
            elif den > 0.0:
                worst = max(worst, max(0.0, 1.0 - math.sqrt(num / den)))
    for n in range(spec.D):
        c = shift_coeff(spec.N, spec.alpha, n, spec.mode)
        if not c <= 1:
            ok = False
            worst = max(worst, float(c - 1))
    return _entry(spec, worst, ok)


def check_min_degree(spec: CheckSpec) -> ReportEntry:
    """m-fold lifts vanish to order m*N at the origin (columns start at degree >= m*N)."""
    m_max = max(1, spec.depth)
    tower = _tower(spec)
    if tower.subs[0].dim == 0:
        return _entry(spec, 0.0, note="zero subspace, vacuous")
    worst = 0.0
    flags = []
    chain = None
    for m in range(1, m_max + 1):
        chain = tower.lifts[m - 1] if chain is None else tower.lifts[m - 1].compose(chain)
        ambient_cols = tower.subs[m].basis @ chain.matrix
        low = ambient_cols[: m * spec.N, :]
        if spec.mode.is_exact:
            flags.append(_exactly_zero(low))
        else:
            for j in range(ambient_cols.shape[1]):
                den = math.sqrt(tower.spaces[m].norm_sq(ambient_cols[:, j]))
                if den > 0.0:
                    worst = max(worst, float(np.abs(low[:, j]).max(initial=0.0)) / den)
    return _entry(spec, worst, all(flags),
                  note="finite-section surrogate for trivial intersection of iterated ranges")


def check_beurling(spec: CheckSpec, subspace: Optional[Subspace] = None) -> ReportEntry:
    """A reducing subspace is recovered from its wandering part.

    The closure of {T^j E} at the maximal depth the grading supports is
    compared with the subspace itself on the safe degrees < D - N, where the
    orbit construction is complete.
    """
    if spec.D < 2 * spec.N:
        raise DepthOverflow(
            f"D={spec.D} leaves no safe comparison window for N={spec.N}; raise D"
        )
    tower = _tower(spec)
    h = subspace if subspace is not None else tower.subs[0]
    red = is_reducing(tower.shifts[0], h, spec.tol)
    if not red.passed:
        raise NotReducing(
            f"subspace is not reducing: forward residual {red.residual_forward:.3e}, "
            f"adjoint residual {red.residual_adjoint:.3e}"
        )
    if h.dim == 0:
        return _entry(spec, 0.0, note="zero subspace, vacuous")
    t = restrict(tower.shifts[0], h, spec.tol)
    e = wandering(h, t)
    e_base = truncate(e, spec.D)
    dims_ok = e_base.dim == e.dim
    if h.residues is not None:
        dims_ok = dims_ok and e.dim == len(h.residues)
    k = max_degree(e_base)
    depth = (spec.D - 1 - k) // spec.N
    closure = invariant_closure(e_base, t, h, depth)
    safe = spec.D - spec.N
    c_safe = truncate(closure, safe)
    h_safe = truncate(h, safe)
    residual = subspace_distance(c_safe, h_safe)
    ok = dims_ok and (not spec.mode.is_exact or projectors_equal(c_safe, h_safe))
    note = f"depth={depth}, dim E={e.dim}, safe degrees < {safe}"
    return _entry(spec, residual, ok, note=note)


def check_census(spec: CheckSpec) -> ReportEntry:
    """All residue ladders reduce the shift with zero residual; random controls fail."""
    tower = _tower(spec)
    trials = max(1, min(spec.depth, 8)) * 5
    report = reducing_census(tower.shifts[0], spec.N, trials=trials,
                             seed=spec.seed, tol=spec.tol)
    residual = report.max_residue_residual
    if not report.all_randoms_fail:
        residual = max(residual, 1.0)
    note = (f"2^{spec.N} residue subspaces, {trials} random controls, "
            f"min control residual {report.min_random_residual:.3e}")
    return _entry(spec, residual, report.passed, note=note)


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
