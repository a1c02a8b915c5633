"""Limiting integral operators, their fixed points, and the spectral density.

The degree-alpha/2 map F_h acts on homogeneous functions g through a
(theta, y, r) triple integral; the resolvent order parameter solves
``gamma = G_z(gamma)`` with ``G_z(f)(u) = c_alpha F_{-iz}(f)(u-check)``.
The same r-integral kernel yields the absolute and signed fractional
moments r_{p,z} / s_{p,z} of the limiting resolvent entry, the spectral
density by Stieltjes inversion, and everything is cross-checkable
against a population-dynamics Monte Carlo of the recursive
distributional equation.

Quadrature layout (one shared design for every integral):

* one radial integral, ``radial_integral_rotated``, serves F and the
  moments: ``r = s**(2/alpha)``, each point truncated where its exponent
  reaches ``EXP_BUDGET`` on the contour of less phase, then tanh-sinh.
* the y-integral is split at 1/2; on [0, 1/2] the integrand keeps the
  cancelling difference form, which is ``y**(-alpha/2)`` times an
  analytic function, integrated by Gauss-Jacobi with that exact weight;
  on [1/2, inf) the substitutions ``y = 1/w`` and ``s = w**(alpha/2) *
  sigma`` expose the integrand as ``w**(alpha-1)`` times an analytic
  function on [0, 2], again Gauss-Jacobi.
* the theta-integral uses tanh-sinh to absorb the ``sin(2 theta)**
  (alpha/2 - 1)`` endpoint singularities.
* ``difference_integral`` holds the (theta, y) part once, near
  difference included, as a real matrix on Chebyshev samples of the
  angular profile: the integrands of ``eval_F`` and of the linearized
  map are both |w|^(-alpha/2) times a function of arg w.

Every parallel loop maps its items in order through ``parallel_map``:
the output-angle rows of ``difference_integral``, the sub-pools of a
population run (each with its sweeps and its own random stream), and the
kernel blocks of ``kernel_spectrum.assemble_P`` and alpha values of its
``alpha_scan``; a call on a pool thread runs inline, so pools never nest.
Each item is computed by the same arithmetic as in a serial loop, so
results are bit for bit independent of the worker count.  The items make
no large BLAS call (BLAS threads would compete with the pool's).
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import halfplane
from .halfplane import HALF_PI, HomogeneousFn, dot
from .quadrature import gamma as gamma_fn, power_rule, simpson, sin2_theta_rule, tanh_sinh
from .stable_random import _check_alpha, poisson_weights_matrix

class QuadratureError(RuntimeError):
    pass


class FixedPointError(RuntimeError):
    pass


#: the failures a batch records and skips per sample; anything else is a bug
SAMPLE_ERRORS = (ValueError, np.linalg.LinAlgError, QuadratureError, FixedPointError)


#: threads of each parallel loop's pool: the cores this process may use
WORKERS = len(os.sched_getaffinity(0))
#: ``on_pool`` is set on the threads of a ``parallel_map`` pool as they start
_pool_thread = threading.local()


def parallel_map(fn, items) -> list:
    """[fn(item) for item in items] on a pool of ``WORKERS`` threads opened
    and joined inside the call; inline on one of its own pool threads, so
    pools never nest, and for one item or one worker."""
    items = list(items)
    if WORKERS < 2 or len(items) < 2 or getattr(_pool_thread, "on_pool", False):
        return [fn(item) for item in items]
    with ThreadPoolExecutor(WORKERS, thread_name_prefix="levylab", initializer=setattr,
                            initargs=(_pool_thread, "on_pool", True)) as pool:
        return list(pool.map(fn, items))


def c_alpha(alpha) -> complex:
    """Coupling constant alpha / (2**(alpha/2) Gamma(alpha/2)**2)."""
    alpha = complex(alpha)
    value = alpha / (2.0 ** (0.5 * alpha) * gamma_fn(0.5 * alpha) ** 2)
    return value.real if alpha.imag == 0 else value


def a_zero(alpha: float) -> float:
    """Amplitude of the exact fixed point at the origin.

    gamma*_0(u) = a0 * (1.u)**(alpha/2) with
    a0 = sqrt(Gamma(1 - alpha/2) / Gamma(1 + alpha/2)).
    """
    return float(np.sqrt(gamma_fn(1.0 - 0.5 * alpha) / gamma_fn(1.0 + 0.5 * alpha)))


def gamma_star_zero(alpha: float, m: int = 65) -> HomogeneousFn:
    """The closed-form fixed point at z = 0 on an m-point grid."""
    return halfplane.power_of_one_dot(0.5 * alpha, scale=a_zero(alpha), m=m)


#: exponent at which every radial integral is truncated (e^-40 ~ 4e-18)
EXP_BUDGET = 40.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts for the (theta, y, s) rules; n_y serves both y pieces."""

    n_theta: int = 96
    n_s: int = 97
    n_y: int = 24

    def scaled(self, factor: float) -> "QuadratureConfig":
        def sc(n):
            return max(9, int(round(n * factor)))
        return replace(self, n_theta=sc(self.n_theta), n_s=sc(self.n_s), n_y=sc(self.n_y))

    @staticmethod
    def fast() -> "QuadratureConfig":
        return QuadratureConfig(n_theta=72, n_s=73, n_y=20)


def _s_truncation(alpha: float, re_h, eps_g, budget: float):
    """Upper limit where the worst-case exponent reaches the decay budget.

    The exponent is re_h * s**(2/alpha) + eps_g * s with 2/alpha > 1, so
    a positive re_h guarantees decay even against a negative eps_g.
    Elementwise over the broadcast re_h and eps_g.
    """
    re_h, eps_g = np.broadcast_arrays(re_h, eps_g)
    if np.any((re_h <= 0) & (eps_g <= 0)):
        raise QuadratureError(
            "integrand does not decay: need Re(h) > 0 or Re(g) > 0 on the grid")
    with np.errstate(divide="ignore"):
        s = np.where(re_h > 0, (budget / re_h) ** (0.5 * alpha), np.inf)
        s = np.minimum(s, np.where(eps_g > 0, budget / eps_g, np.inf))
    short = (eps_g < 0) & (re_h * s ** (2.0 / alpha) + eps_g * s < budget)
    while np.any(short):
        s = np.where(short, s * 1.3, s)
        short &= re_h * s ** (2.0 / alpha) + eps_g * s < budget
    return s[()]


def radial_integral_rotated(beta: float, H, X, alpha: float, n_s: int = 97):
    """``int_0^inf r**(beta-1) exp(-r H - r**(alpha/2) X) dr`` (elementwise).

    H and X broadcast; each point needs Re(H) > 0, or Re(H) = 0 and
    Re(X) > 0.  For H = -iz with small Im(z) and large |Re(z)| the
    integrand oscillates hundreds of cycles under slow decay; rotating
    r -> rho*exp(i phi) toward -arg(H) (capped so the stretched-power
    term keeps a positive real part) makes it monotone-decaying, by
    Cauchy's theorem without changing the value.  A point is turned (only
    where Re(H) > 0 and H is not real) if that leaves less phase up to its
    own truncation s*, |Im H| s*^(2/alpha) + |Im X| s*, than the real axis.
    """
    H, X = np.broadcast_arrays(np.asarray(H, dtype=complex), np.asarray(X, dtype=complex))
    if np.any(H.real < -1e-12):
        raise QuadratureError("radial integral needs Re(H) >= 0")
    a2 = 0.5 * alpha
    phi = np.where((H.real > 0) & (H.imag != 0), -np.angle(H), 0.0)
    sign = np.sign(phi)
    cap = np.where(X != 0, (0.5 * np.pi - 0.15 - sign * np.angle(X)) / a2, np.inf)
    phi = sign * np.minimum(np.minimum(np.abs(phi), np.maximum(cap, 0.0)),
                            0.5 * np.pi - 0.05)
    rot = np.exp(1j * phi)
    Ht, Xt = H * rot, X * rot ** a2
    s_star = _s_truncation(alpha, np.maximum(Ht.real, 0.0), Xt.real, EXP_BUDGET)
    if np.any(phi):
        # a turned point has Re(H) > 0, so it decays on the real axis too
        s_flat = _s_truncation(alpha, H.real, X.real, EXP_BUDGET)
        turn = (np.abs(Ht.imag) * s_star ** (2.0 / alpha) + np.abs(Xt.imag) * s_star
                < np.abs(H.imag) * s_flat ** (2.0 / alpha) + np.abs(X.imag) * s_flat)
        phi = np.where(turn, phi, 0.0)
        Ht, Xt, s_star = (np.where(turn, *v) for v in ((Ht, H), (Xt, X), (s_star, s_flat)))
    power = 2.0 * beta / alpha - 1.0
    s, ws, *_ = tanh_sinh(0.0, s_star, n_s, endpoint_exponent=power)
    terms = np.exp(-Ht[..., None] * s ** (2.0 / alpha) - Xt[..., None] * s)
    val = (2.0 / alpha) * np.einsum("...k,...k->...", terms, ws * s ** power)
    return (np.exp(1j * beta * phi) * val)[()]


# ---------------------------------------------------------------------------
# the map F_h and the fixed-point map G_z
# ---------------------------------------------------------------------------

#: Chebyshev samples of an angular profile per interval between its knots
NC = 10
#: first-kind Chebyshev points on [-1, 1], increasing, and their weights
_CHEB = -np.cos((np.arange(NC) + 0.5) * np.pi / NC)
_CHEB_W = (-1.0) ** np.arange(NC) * np.sqrt(1.0 - _CHEB ** 2)


def profile_angles(knots) -> np.ndarray:
    """The NC Chebyshev angles in each interval of ``knots``, in order:
    the samples of a profile that ``difference_integral`` acts on."""
    knots = np.asarray(knots, dtype=float)
    mid, half = 0.5 * (knots[1:] + knots[:-1]), 0.5 * (knots[1:] - knots[:-1])
    return (mid[:, None] + half[:, None] * _CHEB).ravel()


def profile_interpolation(knots, theta):
    """Columns and weights of the barycentric interpolant at angles theta.

    The value at theta of the profile sampled at ``profile_angles(knots)``
    is ``sum(weights * samples[columns])`` over the last axis: the
    degree-(NC-1) interpolant on theta's knot interval (Berrut &
    Trefethen, SIAM Rev. 46 (2004) 501).
    """
    knots = np.asarray(knots, dtype=float)
    k = np.clip(np.searchsorted(knots, theta, "right") - 1, 0, knots.size - 2)
    t = (2.0 * theta - knots[k] - knots[k + 1]) / (knots[k + 1] - knots[k])
    d = t[..., None] - _CHEB
    d[d == 0.0] = 1e-300  # a point on a sample takes that sample's value
    q = _CHEB_W / d
    return k[..., None] * NC + np.arange(NC), q / q.sum(axis=-1, keepdims=True)


@lru_cache(maxsize=16)
def difference_integral(alpha: float, knots: tuple, out_thetas: tuple,
                        n_theta: int, n_y: int) -> np.ndarray:
    """The (theta, y) integral shared by F_h and its linearization, as a
    real matrix D on the samples of an angular profile.

    The integrands are homogeneous of degree -alpha/2, phi(w) =
    |w|^(-alpha/2) Phi(arg w), with Phi analytic between ``knots``.  Row
    u of ``D @ Phi(profile_angles(knots))`` is (with e = e^(i theta) and
    the measure sin(2 theta)^(alpha/2-1) dtheta on (0, pi/2))

        (2/alpha) 2^(alpha/2) int phi(e)
        + int int_0^(1/2) y^(-alpha/2) (phi(e) - phi(e + y u)) / y dy
        - int int_0^2 w^(alpha-1) phi(w e + u) dw,

    the last piece being y >= 1/2 after y = 1/w, each y piece on n_y
    nodes.  Phi is interpolated by ``profile_interpolation`` (to 1e-15
    relative), and the near difference cancels in D's entries as y -> 0:
    against phi at every node F differs by 3e-14 relative at alpha = 1
    and 1e-11 at 1.95, far inside the quadrature's error.  Rows are
    built by ``parallel_map``, one per output angle; D is read-only and cached.
    """
    th, wt = sin2_theta_rule(n_theta, 0.5 * alpha - 1.0)
    e_th = np.exp(1j * th)
    yj, wy = power_rule(-0.5 * alpha, 0.5, n_y)
    wj, ww = power_rule(alpha - 1.0, 2.0, n_y)
    size = NC * (len(knots) - 1)

    def spread(w, weight):
        # sum(weight * phi(w)) as a row against the profile samples
        cols, coef = profile_interpolation(knots, np.angle(w))
        coef *= (weight * np.abs(w) ** (-0.5 * alpha))[..., None]
        return np.bincount(cols.ravel(), coef.ravel(), size)

    near = wt[:, None] * (wy / yj)
    at_e = spread(e_th, (2.0 / alpha) * 2.0 ** (0.5 * alpha) * wt + near.sum(axis=1))

    def row(tu):
        u = complex(np.cos(tu), np.sin(tu))
        return (at_e - spread(e_th[:, None] + yj * u, near)
                - spread(wj * e_th[:, None] + u, wt[:, None] * ww))

    D = np.array(parallel_map(row, out_thetas))
    D.flags.writeable = False
    return D


def eval_F(h: complex, g: HomogeneousFn,
           quad: QuadratureConfig = QuadratureConfig()) -> HomogeneousFn:
    """The degree-alpha/2 image F_h(g) on g's angular grid.

    Well-defined when Re(h) > 0 (then Re g >= 0 suffices) or when
    Re g > 0 uniformly on the grid.  The integrand of
    ``difference_integral`` is the radial integral
    phi(w) = (2/alpha) int_0^inf exp(-s^(2/alpha) h.w - s g(w)) ds, of
    degree -alpha/2 (h.w is real-linear in w, g of degree alpha/2): its
    profile is ``radial_integral_rotated`` at ``profile_angles(g.thetas)``.
    """
    h = complex(h)
    alpha = 2.0 * g.beta
    if not 0.0 < alpha < 2.0:
        raise ValueError("g must have homogeneity degree alpha/2 with alpha in (0,2)")
    if h.real < -1e-12:
        raise ValueError("h must lie in the closed right half-plane")
    grid = tuple(g.thetas)
    angles = profile_angles(grid)
    profile = radial_integral_rotated(0.5 * alpha, dot(h, np.exp(1j * angles)),
                                      g.values_at_angle(angles), alpha, quad.n_s)
    D = difference_integral(alpha, grid, grid, quad.n_theta, quad.n_y)
    # D times each part: numpy's real-by-complex product skips BLAS (~400x slower)
    return HomogeneousFn(0.5 * alpha, g.thetas, D @ profile.real + 1j * (D @ profile.imag))


def eval_G(z: complex, f: HomogeneousFn,
           quad: QuadratureConfig = QuadratureConfig()) -> HomogeneousFn:
    """G_z(f)(u) = c_alpha * F_{-iz}(f)(u-check) on f's own grid.

    The grid is symmetric about pi/4, so the quarter-turn pullback is a
    reversal of the F values.
    """
    z = complex(z)
    if z != 0 and z.imag <= 0:
        raise ValueError("G_z needs Im z > 0 (or z = 0)")
    if not np.allclose(f.thetas + f.thetas[::-1], HALF_PI, atol=1e-12):
        raise ValueError("grid must be symmetric about pi/4 for the pullback")
    F = eval_F(-1j * z, f, quad)
    return HomogeneousFn(f.beta, f.thetas, c_alpha(2.0 * f.beta) * F.values[::-1])


def eval_G_error_estimate(z: complex, f: HomogeneousFn,
                          quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Sup-norm change of G_z(f) under a ~30% coarser rule."""
    fine = eval_G(z, f, quad)
    coarse = eval_G(z, f, quad.scaled(0.7))
    return float(np.max(np.abs(fine.values - coarse.values)))


# ---------------------------------------------------------------------------
# fixed-point solver: damped iteration with secant steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointSolution:
    z: complex
    gamma: HomogeneousFn
    residual: float
    iterations: int
    damping: float
    residual_history: tuple[float, ...] = field(default=())

    def checkpoint(self, quad: QuadratureConfig) -> dict:
        """The fields ``from_checkpoint`` reads, plus alpha and quadrature;
        ``gamma`` holds beta, the grid and the values' two parts as lists."""
        g = self.gamma
        return {
            "z_re": self.z.real, "z_im": self.z.imag,
            "alpha": 2.0 * g.beta,
            "residual": self.residual,
            "iterations": self.iterations,
            "damping": self.damping,
            "quadrature": vars(quad),
            "gamma": {"beta": g.beta, "thetas": g.thetas.tolist(),
                      "values_re": g.values.real.tolist(),
                      "values_im": g.values.imag.tolist()},
        }

    @staticmethod
    def from_checkpoint(text: str) -> "FixedPointSolution":
        obj = json.loads(text)
        g = obj["gamma"]
        gamma = HomogeneousFn(g["beta"], np.asarray(g["thetas"]),
                              np.asarray(g["values_re"]) + 1j * np.asarray(g["values_im"]))
        return FixedPointSolution(
            z=complex(obj["z_re"], obj["z_im"]), gamma=gamma,
            residual=obj["residual"], iterations=obj["iterations"],
            damping=obj["damping"])


#: |z| beyond which the functional solve is refused (local uniqueness)
Z_GUARD = 0.5
#: iteration cap of the functional and of the scalar solve
MAX_ITER = 200
#: first damping s of the functional solve; a rising residual halves it
DAMPING = 0.5
#: |F(x)| at which the scalar solve stops
TILDE_GAMMA_TOL = 1e-12
#: heights eta of the Stieltjes inversion, highest first
ETA_LADDER = (0.1, 0.05, 0.025)


def solve_gamma_star(z: complex, alpha: float, tol: float = 1e-7, *, m: int = 65,
                     quad: QuadratureConfig = QuadratureConfig.fast(),
                     initial: HomogeneousFn | None = None) -> FixedPointSolution:
    """Damped iteration with secant steps for f = G_z(f), from gamma*_0.

    With r = G_z(f) - f and s = ``DAMPING`` the first step is f + s r; later
    steps add the depth-1 Anderson (secant) correction -gamma (df + s dr),
    gamma = <dr, r> / <dr, dr>, from the changes df, dr since the previous
    iterate.  Local uniqueness is only available near the origin, hence
    the |z| guard; a rising residual halves s and drops the secant history,
    and 8 residuals in a row without a 0.1% gain on the best one end the
    solve as stagnated.
    """
    z = complex(z)
    if abs(z) > Z_GUARD:
        raise ValueError(f"|z| = {abs(z):.3f} outside the small-z guard {Z_GUARD}")
    if z != 0 and z.imag <= 0:
        raise ValueError("need Im z > 0 or z = 0")
    f = initial if initial is not None else gamma_star_zero(alpha, m)
    if initial is not None and abs(2.0 * f.beta - alpha) > 1e-12:
        raise ValueError("initial guess has the wrong homogeneity degree")

    s = DAMPING
    history: list[float] = []
    prev_resid = best = np.inf
    prev = None  # (f, r) at the previous iterate, for the secant step
    stall = 0
    for it in range(1, MAX_ITER + 1):
        r = eval_G(z, f, quad).values - f.values
        resid = float(np.max(np.abs(r)))
        history.append(resid)
        if resid <= tol:
            return FixedPointSolution(z, f, resid, it, s, tuple(history))
        if resid > prev_resid:
            s = max(0.05, 0.5 * s)
            prev = None
        # against the best residual so far: at round-off the residual
        # wobbles instead of repeating, and never falls for good
        stall = stall + 1 if resid > 0.999 * best else 0
        if stall >= 8:
            raise FixedPointError(
                f"residual stagnated near {resid:.3e} at iteration {it}")
        prev_resid, best = resid, min(best, resid)

        step = s * r
        if prev is not None:
            df, dr = f.values - prev[0], r - prev[1]
            if (den := np.vdot(dr, dr).real) > 0:
                step -= np.vdot(dr, r) / den * (df + s * dr)
        prev = (f.values, r)
        f = HomogeneousFn(f.beta, f.thetas, f.values + step)
        if f.min_real_part() < 1e-6:
            raise FixedPointError(
                "iterate left the positive-real-part cone (Re gamma < 1e-6)")
    raise FixedPointError(
        f"no convergence to {tol:.1e} within {MAX_ITER} iterations "
        f"(last residual {history[-1]:.3e})")


# ---------------------------------------------------------------------------
# fractional moments of the limiting resolvent entry
# ---------------------------------------------------------------------------

def r_p_angle_rule(z: complex, p: float, n: int):
    """The theta rule of ``r_p``: angles and weights with sin(2 theta)^(p/2-1)
    folded in.

    Im(h.e^{i theta}) = (cos theta - sin theta) Im h vanishes at pi/4, so
    off the imaginary axis the radial integral peaks there, sharply for a
    small Im z under a large |Re z|.  Two tanh-sinh halves of about n/2
    nodes each meet at the peak.  On the axis h.e^{i theta} is real and
    one n-node rule over (0, pi/2) is kept.
    """
    expo = 0.5 * p - 1.0
    if complex(z).real == 0.0:
        return sin2_theta_rule(n, expo)
    quarter = 0.25 * np.pi
    th, wt, d0, d1 = tanh_sinh(np.array([0.0, quarter]), np.array([quarter, HALF_PI]),
                               (n + 1) // 2, endpoint_exponent=min(expo, 0.0))
    # sin(2 theta) from the distance to the nearer end of (0, pi/2)
    wt = wt * np.sin(2.0 * np.stack([d0[0], d1[1]])) ** expo
    return th.ravel(), wt.ravel()


def r_p(z: complex, f: HomogeneousFn, p: float,
        quad: QuadratureConfig = QuadratureConfig()) -> complex:
    """Absolute moment functional r_{p,z}(f) = E|R(z)|^p at f = gamma*_z.

    Double integral (2^(1-p/2)/Gamma(p/2)^2) * int dtheta
    sin(2 theta)^(p/2-1) int dr r^(p-1) exp(-r h.e^{i theta}
    - r^(alpha/2) f(e^{i theta})) with h = -iz, over the angles of
    ``r_p_angle_rule``, each angle's radial integral on its own contour.
    """
    if p <= 0:
        raise ValueError("moment order must be positive")
    h = -1j * complex(z)
    th, weight = r_p_angle_rule(z, p, quad.n_theta)
    radial = radial_integral_rotated(p, dot(h, np.exp(1j * th)), f.values_at_angle(th),
                                     2.0 * f.beta, quad.n_s)
    const = 2.0 ** (1.0 - 0.5 * p) / gamma_fn(0.5 * p) ** 2
    return complex(const * (weight @ radial))


def s_p(z, x, p: float, alpha: float, quad: QuadratureConfig = QuadratureConfig()):
    """Signed moment functional s_{p,z}(x) = E(-i R(z))^p at x = gamma*_z(1).

    Single radial integral (1/Gamma(p)) int r^(p-1)
    exp(-r(-iz) - r^(alpha/2) x) dr; with z = i eta and x = 0 this is
    the Gamma integral eta^(-p).  z and x broadcast; scalars give a
    complex.
    """
    if p <= 0:
        raise ValueError("moment order must be positive")
    val = radial_integral_rotated(p, -1j * np.asarray(z, dtype=complex), x, alpha,
                                  quad.n_s) / gamma_fn(p)
    return complex(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# scalar reduction at u = 1 and the spectral density
# ---------------------------------------------------------------------------

def solve_tilde_gamma(z, alpha: float, x0=None,
                      quad: QuadratureConfig = QuadratureConfig()):
    """Solve the scalar consistency x = Gamma(1-alpha/2) s_{alpha/2,z}(x).

    This is the value gamma*_z(1) of the functional fixed point; a
    guarded Newton iteration on one complex unknown per z, stopped at
    |F(x)| <= ``TILDE_GAMMA_TOL``, usable far outside the small-|z| disc
    where the functional solver is trusted.
    An array of z (with ``x0`` broadcast to it) is solved point by point
    under masks: each point takes the steps of its own scalar solve.  A
    scalar z returns a complex.
    """
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).ravel()
    if np.any(z.imag <= 0):
        raise ValueError("scalar solve needs Im z > 0")
    c1 = gamma_fn(1.0 - 0.5 * alpha)
    x = np.broadcast_to(a_zero(alpha) if x0 is None else x0, shape).astype(complex).ravel()
    x[x.real <= 0] = a_zero(alpha)

    def rhs(v, k):
        return c1 * s_p(z[k], v, 0.5 * alpha, alpha, quad)

    fx = x - rhs(x, slice(None))
    for _ in range(MAX_ITER):
        k = np.flatnonzero(~(np.abs(fx) <= TILDE_GAMMA_TOL))
        if not k.size:
            break
        # F'(x) = 1 + Gamma(1-a/2)/Gamma(a/2) * J(alpha; h, x)
        deriv = 1.0 + c1 / gamma_fn(0.5 * alpha) * radial_integral_rotated(
            alpha, -1j * z[k], x[k], alpha, quad.n_s)
        step = fx[k] / deriv
        lam = 1.0
        for _ in range(25):
            cand = x[k] - lam * step
            f_cand = cand - rhs(cand, k)
            better = np.abs(f_cand) < np.abs(fx[k])
            x[k[better]], fx[k[better]] = cand[better], f_cand[better]
            k, step = k[~better], step[~better]
            if not k.size:
                break
            lam *= 0.5
        if k.size:
            # damped Picard rescue through nearly neutral stretches
            v = x[k]
            for _ in range(400):
                v = 0.7 * v + 0.3 * rhs(v, k)
            x[k], fx[k] = v, v - rhs(v, k)
            diverged = k[~(np.abs(fx[k]) < np.inf)]
            if diverged.size:
                raise FixedPointError(f"scalar solve diverged at "
                                      f"z={complex(z[diverged[0]])}, alpha={alpha}")
    failed = np.flatnonzero(~(np.abs(fx) <= TILDE_GAMMA_TOL))
    if failed.size:
        i = failed[0]
        raise FixedPointError(
            f"scalar solve did not reach {TILDE_GAMMA_TOL:.1e} at "
            f"z={complex(z[i])}, alpha={alpha}: |F|={abs(fx[i]):.3e}")
    x = x.reshape(shape)
    return complex(x) if x.ndim == 0 else x


def spectral_density(E, alpha: float, quad: QuadratureConfig = QuadratureConfig()):
    """Limiting spectral density at energy E by Stieltjes inversion.

    Evaluates (1/pi) Im[i s_{1, E+i eta}(gamma~*_{E+i eta})] at each eta
    of ``ETA_LADDER`` and removes the O(eta) smoothing bias by
    first-order Richardson extrapolation.  Returns the extrapolated
    value and the change of the last extrapolation step as its error:
    two floats for a scalar E, two arrays of E's shape otherwise.

    The consistency equation grows spurious attracting roots at moderate
    E and small eta; the physical branch (the one matching the
    population dynamics and a nonnegative density) is selected by
    starting at height max(4, 2|E|), where the map is a strong
    contraction with a unique root, and tracking the analytic branch
    down through every ladder eta with warm-started Newton steps, in one
    continuation per energy.  A negative density at a rung means the
    track jumped.
    """
    shape = np.shape(E)
    E = np.asarray(E, dtype=float).ravel()
    h = np.maximum(4.0, 2.0 * np.abs(E))
    x = solve_tilde_gamma(E + 1j * h, alpha, quad=quad)
    f_eta = []
    for eta in ETA_LADDER:
        # every energy starts at its own height; only those above eta step
        while np.any(above := h > eta):
            h[above] = np.maximum(eta, 0.75 * h[above])
            x[above] = solve_tilde_gamma(E[above] + 1j * h[above], alpha,
                                         x0=x[above], quad=quad)
        z = E + 1j * eta
        m = 1j * s_p(z, x, 1.0, alpha, quad)
        lost = np.flatnonzero(m.imag < -1e-9)
        if lost.size:
            raise FixedPointError(
                f"branch tracking lost the physical root at z={complex(z[lost[0]])}")
        f_eta.append(m.imag / np.pi)
    extrap = [(ea * fb - eb * fa) / (ea - eb) for ea, eb, fa, fb
              in zip(ETA_LADDER, ETA_LADDER[1:], f_eta, f_eta[1:])]
    value = extrap[-1]
    err = np.abs(extrap[-1] - extrap[-2])
    if not shape:
        return float(value[0]), float(err[0])
    return value.reshape(shape), err.reshape(shape)


def stieltjes_mass(a, b, alpha: float, n_points: int = 33,
                   quad: QuadratureConfig = QuadratureConfig()):
    """Mass of the limiting measure on [a, b] by Simpson over the density
    at an odd number ``n_points`` of equally spaced energies; a and b
    broadcast into one density call, scalars give a float."""
    xs = np.linspace(a, b, n_points, axis=-1)
    fs = spectral_density(xs, alpha, quad)[0]
    mass = simpson(fs, a, b)
    return float(mass) if np.ndim(mass) == 0 else mass


# ---------------------------------------------------------------------------
# population dynamics for the recursive distributional equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationPool:
    """Equilibrated sample pool approximating the law of R*(z)."""

    pool: np.ndarray
    iterations: int
    m_history: tuple[float, ...]
    converged: bool

    @property
    def size(self) -> int:
        return int(self.pool.size)


#: independent sub-pools of every population run, each drawing its members
#: only from itself; their means give the pool mean a replica error
SUBPOOLS = 8


def subpool_slices(pool_size: int) -> list[slice]:
    """The contiguous slices of a pool's ``SUBPOOLS`` sub-pools, whose
    sizes differ by at most one slot."""
    bounds = [b * pool_size // SUBPOOLS for b in range(SUBPOOLS + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def population_dynamics(z: complex, alpha: float, pool_size: int, sweeps: int,
                        K: int, rng: np.random.Generator) -> PopulationPool:
    """Monte Carlo solution of R* =d -(z + sum_k xi_k R_k)^(-1).

    The pool is ``SUBPOOLS`` independent sub-pools (``subpool_slices``),
    each on its own stream from ``rng.spawn(SUBPOOLS)``.  Every slot
    starts at -1/(z + i), the mean of R if S were standard Cauchy; each
    sweep resamples every slot of a sub-pool with fresh truncated weights
    and members chosen uniformly from the same sub-pool (synchronous
    update), drawing the indices and then the weights, which
    ``poisson_weights_matrix`` writes into one (n, K) buffer per sub-pool,
    so a sweep allocates no (n, K) float array.  A slot's K weights are
    the K largest points of the weight process in random order, which
    its sum against uniformly chosen members does not see.  A sub-pool
    runs all of its sweeps as one task on a thread pool, so results are
    independent of work scheduling.
    Convergence is tracked through the fractional moment mean
    (Im R)^(alpha/2), with a 1%-per-sweep criterion on top of the fixed
    sweep count.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("population dynamics needs Im z > 0")
    _check_alpha(alpha)
    if min(pool_size, sweeps, K) < 1:
        raise ValueError("pool_size, sweeps and K must all be at least 1")
    if pool_size < SUBPOOLS:
        raise ValueError(f"pool_size must be at least SUBPOOLS = {SUBPOOLS}")
    if -(-pool_size // SUBPOOLS) * K >= 2 ** 31:
        raise ValueError("a sub-pool's slots times K reach 2**31, past its int32 indices")
    # imported here, as only the pool needs it: it adds about 70 ms and
    # 14 MB to the start of every process
    from scipy.sparse import csr_array

    def run(sub_rng, n):
        # S is a sparse gather-multiply-add per real and imaginary part,
        # which sums each row in k order as np.einsum("rk,rk->r", xi,
        # members[idx]) does; with an int32 indptr scipy takes the int32
        # indices without a copy
        members = np.full(n, -1.0 / (z + 1j))
        indptr = np.arange(0, n * K + 1, K, dtype=np.int32)
        buffer = np.empty((n, K))
        sums = []
        for _ in range(sweeps):
            idx = sub_rng.integers(0, n, size=(n, K), dtype=np.int32)
            xi = poisson_weights_matrix(alpha, sub_rng, buffer)
            gather = csr_array((xi.ravel(), idx.ravel(), indptr), shape=(n, n))
            S = (gather @ np.ascontiguousarray(members.real)
                 + 1j * (gather @ np.ascontiguousarray(members.imag)))
            members = -1.0 / (z + S)
            sums.append(np.sum(members.imag ** (0.5 * alpha)))
        return members, sums

    slices = subpool_slices(pool_size)
    pool = np.empty(pool_size, dtype=complex)
    totals = np.zeros(sweeps)
    jobs = zip(rng.spawn(SUBPOOLS), [sl.stop - sl.start for sl in slices])
    for sl, (members, sums) in zip(slices, parallel_map(lambda job: run(*job), jobs)):
        pool[sl] = members
        totals += sums
    history = totals / pool_size
    # drift criterion on a 3-sweep moving average (raw sweeps carry MC noise)
    if len(history) >= 6:
        smooth = np.convolve(history, np.ones(3) / 3.0, mode="valid")
        tail = smooth[-5:]
        rel = float(np.max(np.abs(np.diff(tail)) / np.abs(tail[1:])))
    else:
        rel = np.inf
    return PopulationPool(pool=pool, iterations=sweeps,
                          m_history=tuple(history.tolist()), converged=bool(rel <= 0.01))


def pool_moment(pool: PopulationPool, p: float, kind: str = "abs"):
    """Pool mean and standard error of |R|^p or (-iR)^p."""
    if kind == "abs":
        samples = np.abs(pool.pool) ** p
    elif kind == "signed":
        samples = (-1j * pool.pool) ** p
    else:
        raise ValueError("kind must be 'abs' or 'signed'")
    mean = samples.mean()
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    if kind == "abs":
        return float(mean.real), float(se.real)
    return complex(mean), float(np.abs(se))


def replica_se(pool: PopulationPool, p: float) -> float:
    """Standard error of the pool mean of |R|^p from the spread of its
    ``SUBPOOLS`` sub-pool means, which are independent of each other."""
    means = [np.mean(np.abs(pool.pool[sl]) ** p) for sl in subpool_slices(pool.size)]
    return float(np.std(means, ddof=1) / np.sqrt(SUBPOOLS))
