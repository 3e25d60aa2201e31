"""Independent reference formulas that the tests compare the package against.

None of these is used by the package itself.  Each is computed by a route
other than the one the package takes: the shift adjoint entry by entry from
the shift coefficients, the iterated lift coefficients as products of those
coefficients, the inner product straight from its defining sum, the
random test columns one seed at a time, and the subspace distance from the
full projector difference.  ``ReadLogged`` records which entries the exact
kernels read.  ``index_map`` and ``dense_copy`` build the two storage forms
of one map.
"""

from fractions import Fraction

import numpy as np

from bergman_lab import LinearMap, ScalarMode, TruncatedSpace, projector, shift_coeff
from bergman_lab.errors import DimensionMismatch
from bergman_lab.operators import _require_graded_pair, to_float

#: Denominator of the dyadic grid of the exact random draws.
_EXACT_DENOM = 2**16


class ReadLogged(Fraction):
    """A Fraction that logs every read of its numerator or denominator.

    The exact kernels of ``_exact`` read an entry only through these two
    properties; their nonzero scans (``astype(bool)``) and Fraction's own
    comparisons with ints go through the private fields, so they log nothing.
    """

    reads: list = []

    @property
    def numerator(self):
        ReadLogged.reads.append(("numerator", self))
        return self._numerator

    @property
    def denominator(self):
        ReadLogged.reads.append(("denominator", self))
        return self._denominator


def inner(space: TruncatedSpace, f: np.ndarray, g: np.ndarray):
    """Weighted inner product sum_n omega_n f_n conj(g_n) of two coefficient arrays."""
    return np.sum(np.asarray(space.metric) * f * np.conjugate(g))


def monomial(space: TruncatedSpace, n: int) -> np.ndarray:
    """Coefficients of z^n, in the storage of the space's mode."""
    out = space.mode.zeros(space.dim)
    out[n] = space.mode.one
    return out


def random_vector(space: TruncatedSpace, seed: int) -> np.ndarray:
    """The random test vector of one seed, drawn on its own.

    Float mode draws complex coefficients with real and imaginary parts
    uniform on [-1, 1].  Exact mode draws real rational coefficients on the
    dyadic grid k / 2^16 over the same interval.
    """
    rng = np.random.default_rng(seed)
    if space.mode.is_exact:
        ints = rng.integers(-_EXACT_DENOM, _EXACT_DENOM + 1, size=space.dim)
        arr = np.empty(space.dim, dtype=object)
        arr[:] = [Fraction(int(k), _EXACT_DENOM) for k in ints]
        return arr
    re = rng.uniform(-1.0, 1.0, size=space.dim)
    im = rng.uniform(-1.0, 1.0, size=space.dim)
    return re + 1j * im


def shift_adjoint(domain: TruncatedSpace, codomain: TruncatedSpace, N: int) -> LinearMap:
    """Adjoint of multiplication by z^N, in explicit coefficient form.

    Sends sum b_n z^n to sum_n shift_coeff(N, alpha, n) b_{N+n} z^n; the
    coefficients of degree < N are annihilated.  Agrees with
    ``shift(...).adjoint()``, which is computed by a different route.
    """
    if N < 1:
        raise DimensionMismatch(f"multiplicity N must be >= 1, got {N}")
    _require_graded_pair(codomain, domain, N)
    alpha = domain.weights.params.alpha
    m = domain.mode.zeros((codomain.dim, domain.dim))
    for n in range(codomain.dim):
        m[n, N + n] = shift_coeff(N, alpha, n, domain.mode)
    return LinearMap(domain, codomain, m)


def iterated_coeff(
    N: int, alpha, n: int, m: int, mode: ScalarMode = ScalarMode.FLOAT64
):
    """Coefficient produced by m applications of the norm-raising lift.

    Equals prod_{j=0}^{m-1} 1 / shift_coeff(N, alpha, n + j*N), which
    telescopes to omega_n / omega_{n+m*N} and is therefore > 1 for m >= 1.
    """
    if m < 0:
        raise ValueError(f"iteration count m must be >= 0, got {m}")
    out = mode.one
    for j in range(m):
        out = out / shift_coeff(N, alpha, n + j * N, mode)
    return out


def index_map(domain: TruncatedSpace, codomain: TruncatedSpace, rows, vals) -> LinearMap:
    """Map in the index form whose column j holds ``vals[j]`` in row ``rows[j]``;
    a column with row -1 is empty, and its value must be zero."""
    rows = np.append(np.asarray(rows, dtype=np.int64), -1)
    padded = domain.mode.buffer(len(rows), np.asarray(vals))
    padded[:-1] = vals
    return LinearMap._indexed(domain, codomain, rows, padded)


def dense_copy(m: LinearMap) -> LinearMap:
    """The same map in the dense form, the reference."""
    return LinearMap(m.domain, m.codomain, m.matrix)


def level_maps(level) -> dict:
    """The map fields of a tower level, by name: every field but the ladder
    and its extension, which are subspaces."""
    return {name: m for name, m in level._asdict().items() if isinstance(m, LinearMap)}


def projector_distance(u, v) -> float:
    """Metric operator norm of P_U - P_V from the two D x D projector matrices.

    The largest singular value of the metric-scaled projector difference
    G^(1/2) (P_U - P_V) G^(-1/2); ``subspace_distance`` takes the norm of a
    D x k block instead.
    """
    if u.ambient.dim == 0:
        return 0.0
    diff = to_float(projector(u).matrix - projector(v).matrix)
    sw = np.sqrt(to_float(np.asarray(u.ambient.metric)))
    return float(np.linalg.norm(diff * sw[:, None] / sw[None, :], 2))
