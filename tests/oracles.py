"""Reference code that the tests compare levylab against.

Nothing in ``src/levylab`` calls these; they are closed forms, cross-checks
and helpers that only the tests need.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gamma as gamma_fn, gammaln

from levylab import quadrature
from levylab.fixed_point import (
    FixedPointSolution,
    difference_integral,
    profile_angles,
    solve_gamma_star,
)
from levylab.halfplane import HALF_PI, HomogeneousFn, default_grid
from levylab.kernel_spectrum import ROW_N_Y, c_prime
from levylab.matrix_model import ResolventDiagonal
from levylab.quadrature import gauss_legendre_panels, power_rule, sin2_theta_rule
from levylab.stable_random import _check_alpha, sample_standard_stable, substream

# ---------------------------------------------------------------------------
# homogeneous functions
# ---------------------------------------------------------------------------


def check_involution(u):
    """Quarter-turn involution ``u -> i * conj(u) = Im(u) + i Re(u)``."""
    u = np.asarray(u)
    return u.imag + 1j * u.real


def partials_on_circle(f: HomogeneousFn, theta):
    """(d1 f, di f) at e^{i theta} from the polar chain rule.

    On the unit circle a degree-beta function f = G(theta) has
    ``d1 f = beta G cos(theta) - G'(theta) sin(theta)`` and
    ``di f = beta G sin(theta) + G'(theta) cos(theta)``, with G' the
    derivative of f's own cubic spline.
    """
    theta = np.asarray(theta, dtype=float)
    g = f.values_at_angle(theta)
    gp = CubicSpline(f.thetas, f.values).derivative()(np.clip(theta, 0.0, HALF_PI))
    c = np.cos(theta)
    s = np.sin(theta)
    return f.beta * g * c - gp * s, f.beta * g * s + gp * c


def sup_distance(f: HomogeneousFn, g: HomogeneousFn) -> float:
    """Sup of |f - g| over the (union) grid on the quarter circle."""
    theta = np.union1d(f.thetas, g.thetas)
    return float(np.max(np.abs(f.values_at_angle(theta) - g.values_at_angle(theta))))


# ---------------------------------------------------------------------------
# the linearized map at the origin, which assemble_H discretizes
# ---------------------------------------------------------------------------


def apply_linearized(f: HomogeneousFn, out_thetas: np.ndarray | None = None,
                     n_theta: int = 96, n_y: int = 24) -> HomogeneousFn:
    """Apply the linearized fixed-point map to f on the angular grid.

    The operator acts as -c'_alpha times ``difference_integral`` of
    phi(w) = f(w-check) (1.w)^(-alpha), the core of the nonlinear map;
    no radial integral is involved.  phi has degree -alpha/2, and its
    profile f(e^(i(pi/2 - theta))) (cos theta + sin theta)^(-alpha) has
    the knots of f reflected about pi/4.
    """
    alpha = 2.0 * f.beta
    out_thetas = f.thetas if out_thetas is None else np.asarray(out_thetas)
    knots = tuple(HALF_PI - f.thetas[::-1])
    angles = profile_angles(knots)
    profile = (f.values_at_angle(HALF_PI - angles)
               * (np.cos(angles) + np.sin(angles)) ** (-alpha))
    D = difference_integral(alpha, knots, tuple(out_thetas), n_theta, n_y)
    out = D @ profile.real + 1j * (D @ profile.imag)
    return HomogeneousFn(f.beta, out_thetas, -c_prime(alpha) * out)


def linearization_matrix(alpha: float, m: int = 65, n_theta: int = 96,
                         n_y: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix of the linearized map on spline cardinal functions.

    Returns (thetas, matrix); column j is the image of the cardinal
    interpolant through e_j on the angular grid.
    """
    thetas = default_grid(m)
    mat = np.empty((m, m), dtype=complex)
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        basis = HomogeneousFn(0.5 * alpha, thetas, e.astype(complex))
        mat[:, j] = apply_linearized(basis, thetas, n_theta, n_y).values
    return thetas, mat


def lift_eigenvector(f: HomogeneousFn, nodes: np.ndarray) -> np.ndarray:
    """Stack (f, d1 f, di f) at the Nystrom nodes of an H operator."""
    g = f.values_at_angle(nodes)
    d1, di = partials_on_circle(f, nodes)
    return np.concatenate([g, d1, di])


#: v = -log(x / delta) past which ``log_power_unit_rule_lumped`` puts its
#: nodes into one: x / delta <= 4.2e-18, where every caller's phi is phi(0)
#: to round-off
LUMPED_V_FLAT = 40.0


def kernel_bound(alpha, omega: float, psi: float) -> tuple[float, str]:
    """Envelope shape of ``kernel_k`` from the three-regime kernel estimate
    (constant-free).

    Returns (shape, regime) with regimes keyed by Re(alpha) below, at,
    or above 1; the at-1 regime carries the logarithmic factor.
    """
    b = complex(alpha).real
    s = min(np.sin(2.0 * psi), np.sin(2.0 * omega))
    gap = abs(psi - omega)
    if b < 1.0:
        return gap ** (b - 1.0) * s ** (-0.5 * b), "subcritical"
    if b == 1.0:
        return s ** (-0.5) * max(1.0, np.log(np.sin(2.0 * psi) / gap)), "log"
    return s ** (0.5 * b - 1.0), "supercritical"


def log_power_unit_rule_lumped(expo: complex):
    """The log-power unit rule on panels alone, the reference for
    ``quadrature._log_power_unit_rule``: the same order-8 panels in
    v = -log(x), laid out to where the weight has decayed by exp(-38), with
    the nodes past v = ``LUMPED_V_FLAT`` lumped into one node there that
    carries their summed weight.  Returns ``(x, w)`` for
    ``int_0^1 x**expo phi(x) dx``.  Reads ``quadrature.LOG_POWER_STEP`` at
    every call and caches nothing."""
    re = expo.real
    span = 38.0 / (1.0 + re)
    step = quadrature.LOG_POWER_STEP / (1.0 + re + abs(expo.imag))
    panels = max(4, int(np.ceil(span / step)))
    v, gw = gauss_legendre_panels(np.linspace(0.0, span, panels + 1), 8)
    w = np.exp(-(1.0 + expo) * v) * gw
    flat = v > LUMPED_V_FLAT
    if flat.any():
        v = np.append(v[~flat], LUMPED_V_FLAT)
        w = np.append(w[~flat], w[flat].sum())
    return np.exp(-v), w


def row_integrals_tensor(alpha, omegas: np.ndarray, n_theta: int = 96,
                         moduli: bool = False) -> np.ndarray:
    """``kernel_row_integrals`` summed over the whole (theta, y, omega)
    tensor, as it was before the y integral became a profile in
    cos(theta - omega): the same theta rule and y pieces, with
    1 + y^2 + 2 y cos(theta - omega) evaluated at every triple.  With
    ``moduli`` each term is replaced by its modulus, which gives the
    scale sum |terms| that round-off of the row integrals is measured on.
    """
    alpha = complex(alpha)
    a = alpha if alpha.imag else alpha.real
    th, wsin = sin2_theta_rule(n_theta, 0.5 * a - 1.0)
    omegas = np.asarray(omegas, dtype=float)
    # near piece: weight y^(-alpha/2); far piece: y = 1/w, weight w^(alpha - 1)
    pieces = (power_rule(-0.5 * a, 1.0, ROW_N_Y), power_rule(a - 1.0, 1.0, ROW_N_Y))

    def piece(cos_gap, y, wy):
        # |e^(i theta) + y e^(i omega)|^2 = 1 + y^2 + 2 y cos(theta - omega) >= 1
        mod2 = (1.0 + y * y)[None, :, None] + (2.0 * y)[None, :, None] * cos_gap[:, None, :]
        power = (-0.5 - 0.25 * a) * np.log(mod2, out=mod2)
        weights = (wsin[:, None] * wy[None, :]).ravel()
        terms = np.exp(power, out=power).reshape(weights.size, -1)
        return np.abs(weights) @ np.abs(terms) if moduli else weights @ terms

    cos_gap = np.cos(th[:, None] - omegas[None, :])
    near, far = (piece(cos_gap, *rule) for rule in pieces)
    return near + far


def assemble_H_block(P, kappa: float) -> np.ndarray:
    """The whole 3n x 3n H from the ``assemble_P`` operator ``P``: the 3x3
    blocks joined by ``np.block``, then a permuted copy for J, then scaled
    copies for c'_alpha and the kappa similarity.  ``assemble_H``'s matrix
    is its rows n to n + n/2 in columns 2n to 3n (H12's top half), bit for
    bit."""
    alpha = complex(P.alpha)
    nodes = P.nodes
    n = nodes.size
    c = np.cos(nodes)
    s = np.sin(nodes)
    one_u = c + s
    PN0 = P.matrix * (one_u ** (-alpha - 1.0))[None, :]
    PN1 = P.matrix * (one_u ** (-alpha))[None, :]
    Z = np.zeros((n, n), dtype=complex)
    row0 = [(-2.0 * one_u)[:, None] * PN0, (2.0 / alpha) * c[:, None] * PN1,
            (2.0 / alpha) * s[:, None] * PN1]
    row1 = [-alpha * PN0, PN1, Z]
    row2 = [-alpha * PN0, Z, PN1]
    S = np.block([row0, row1, row2])
    rev = np.arange(n)[::-1]
    H = c_prime(alpha) * S[:, np.concatenate([rev, 2 * n + rev, n + rev])]
    if kappa != 0.0:
        d = np.abs(c - s) ** kappa
        dd = np.concatenate([np.ones(n), d, d])
        H = dd[:, None] * H / dd[None, :]
    return H


def exact_z0_eigenvalues(alpha, K: int) -> np.ndarray:
    """mu_0 ... mu_(K-1) of the z = 0 linearization in closed form,
    mu_k = (-1)^(k+1) (1 - alpha/2)_k / (1 + alpha/2)_k with (x)_k the
    rising factorial, as one cumulative product of the ratios
    -(j + 1 - alpha/2) / (j + 1 + alpha/2).  mu_0 = -1 is the structural
    eigenvalue.  Real alpha gives real values."""
    alpha = complex(alpha)
    a2 = 0.5 * (alpha if alpha.imag else alpha.real)
    j = np.arange(K - 1)
    return -np.concatenate([[1.0], np.cumprod(-(j + 1.0 - a2) / (j + 1.0 + a2))])


def two_block_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of the oracle H (``assemble_H_block``) from its two
    diagonal blocks in the components (f, g+h, g-h), as
    ``kernel_spectrum._eigenvalues`` found them before it used the top
    block's factorization: those of
    [[H00, (H01+H02)/2], [2 H10, H12]] joined with those of -H12, real
    matrices on the real solver."""
    n = mat.shape[0] // 3

    def blk(r, c):
        return mat[r * n:(r + 1) * n, c * n:(c + 1) * n]

    if not np.any(mat.imag):
        mat = mat.real
    top = np.block([[blk(0, 0), 0.5 * (blk(0, 1) + blk(0, 2))],
                    [2.0 * blk(1, 0), blk(1, 2)]])
    return np.concatenate([np.linalg.eigvals(top), np.linalg.eigvals(-blk(1, 2))])


# ---------------------------------------------------------------------------
# fixed points, moments and the stable law
# ---------------------------------------------------------------------------


def solve_gamma_path(z_targets, alpha: float, tol: float = 1e-7,
                     **kwargs) -> list[FixedPointSolution]:
    """Continuation: solve along a z path, warm-starting each step."""
    sols = []
    warm = kwargs.pop("initial", None)
    for z in z_targets:
        sol = solve_gamma_star(z, alpha, tol, initial=warm, **kwargs)
        sols.append(sol)
        warm = sol.gamma
    return sols


def triu_indices_fill(n: int, alpha: float, seed: int) -> np.ndarray:
    """``build_levy_matrix``'s entries, filled through ``np.triu_indices``
    and mirrored by adding the strict upper triangle's transpose."""
    rng = substream(seed, n)
    draws = sample_standard_stable(alpha, rng, size=n * (n + 1) // 2) * n ** (-1.0 / alpha)
    a = np.zeros((n, n))
    a[np.triu_indices(n)] = draws
    return a + np.triu(a, 1).T


def fractional_moment(rd: ResolventDiagonal, beta: float) -> float:
    """(1/n) sum_k (Im R_kk)^beta."""
    if beta <= 0:
        raise ValueError("moment order must be positive")
    return float(np.mean(rd.values.imag ** beta))


def levy_khintchine_rhs(alpha: float, w) -> np.ndarray:
    """exp(-Gamma(1 - alpha/2) * w**(alpha/2)) for Re w > 0."""
    w = np.asarray(w, dtype=complex)
    return np.exp(-gamma_fn(1.0 - 0.5 * alpha) * w ** (0.5 * alpha))


def truncated_weight_tail_mean(alpha: float, K: int) -> float:
    """E sum_{k>K} Gamma_k^(-2/alpha), the mean mass lost to truncation.

    Uses E Gamma_k^(-s) = Gamma(k - s)/Gamma(k) for k > s = 2/alpha and
    an integral estimate of the remainder beyond 200 000 summands.
    """
    _check_alpha(alpha)
    s = 2.0 / alpha
    terms = 200_000
    k = np.arange(K + 1, K + 1 + terms, dtype=float)
    head = np.exp(gammaln(k - s) - gammaln(k)).sum()
    tail = (K + terms) ** (1.0 - s) / (s - 1.0)
    return float(head + tail)
