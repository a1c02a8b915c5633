"""Reference code that the tests compare levylab against.

Nothing in ``src/levylab`` calls these; they are closed forms, cross-checks
and helpers that only the tests need.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gamma as gamma_fn

from levylab.fixed_point import (
    FixedPointSolution,
    difference_integral,
    profile_angles,
    solve_gamma_star,
)
from levylab.halfplane import HALF_PI, HomogeneousFn, default_grid
from levylab.kernel_spectrum import c_prime
from levylab.matrix_model import ResolventDiagonal
from levylab.stable_random import StableLaw, sample_standard_stable, substream

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
    D = difference_integral(alpha, knots, tuple(out_thetas), n_theta, n_y, n_y)
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
    draws = sample_standard_stable(StableLaw(alpha), rng,
                                   size=n * (n + 1) // 2) * n ** (-1.0 / alpha)
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
