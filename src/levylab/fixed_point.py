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

* r-substitution ``r = s**(2/alpha)`` turns ``r**(alpha/2-1) dr`` into a
  constant multiple of ``ds``; the s-integral is truncated where the
  worst-case exponent reaches ``exp_budget`` and handled by tanh-sinh.
* the y-integral is split at 1/2; on [0, 1/2] the integrand keeps the
  cancelling difference form, which is ``y**(-alpha/2)`` times an
  analytic function, integrated by Gauss-Jacobi with that exact weight;
  on [1/2, inf) the substitutions ``y = 1/w`` and ``s = w**(alpha/2) *
  sigma`` expose the integrand as ``w**(alpha-1)`` times an analytic
  function on [0, 2], again Gauss-Jacobi.
* the theta-integral uses tanh-sinh to absorb the ``sin(2 theta)**
  (alpha/2 - 1)`` endpoint singularities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gamma as gamma_fn

from . import halfplane
from .halfplane import HALF_PI, HomogeneousFn, dot
from .quadrature import gauss_jacobi_left, tanh_sinh
from .stable_random import poisson_weights_matrix

#: when True, every r-integral asserts the closed-form envelope
#: min((2/alpha) Gamma(2 beta/alpha) Re(x)^(-2 beta/alpha),
#:     Gamma(beta) Re(h)^(-beta))
DEBUG_BOUNDS = False


class QuadratureError(RuntimeError):
    pass


class FixedPointError(RuntimeError):
    pass


#: the failures a batch records and skips per sample; anything else is a bug
SAMPLE_ERRORS = (ValueError, np.linalg.LinAlgError, QuadratureError, FixedPointError)


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


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts for the (theta, y, w, s) rules plus the decay budget."""

    n_theta: int = 96
    n_s: int = 97
    n_y: int = 24
    n_w: int = 24
    exp_budget: float = 40.0

    def scaled(self, factor: float) -> "QuadratureConfig":
        def sc(n):
            return max(9, int(round(n * factor)))
        return replace(self, n_theta=sc(self.n_theta), n_s=sc(self.n_s),
                       n_y=sc(self.n_y), n_w=sc(self.n_w))

    @staticmethod
    def fast() -> "QuadratureConfig":
        return QuadratureConfig(n_theta=72, n_s=73, n_y=20, n_w=20)


def _s_truncation(alpha: float, re_h: float, eps_g: float, budget: float) -> float:
    """Upper limit where the worst-case exponent reaches the decay budget.

    The exponent is re_h * s**(2/alpha) + eps_g * s with 2/alpha > 1, so
    a positive re_h guarantees decay even against a negative eps_g.
    """
    if re_h <= 0:
        if eps_g <= 0:
            raise QuadratureError(
                "integrand does not decay: need Re(h) > 0 or Re(g) > 0 on the grid")
        return budget / eps_g
    s = (budget / re_h) ** (0.5 * alpha)
    if eps_g >= 0:
        return min(s, budget / eps_g) if eps_g > 0 else s
    while re_h * s ** (2.0 / alpha) + eps_g * s < budget:
        s *= 1.3
    return s


def radial_integral(beta: float, H, X, alpha: float, n_s: int = 97,
                    budget: float = 40.0):
    """``int_0^inf r**(beta-1) exp(-r H - r**(alpha/2) X) dr`` (elementwise).

    H and X broadcast; requires min Re(X) > 0 or min Re(H) > 0.
    """
    H = np.asarray(H, dtype=complex)
    X = np.asarray(X, dtype=complex)
    re_h = float(np.min(H.real)) if H.size else 0.0
    re_x = float(np.min(X.real)) if X.size else 0.0
    if re_h < -1e-12:
        raise QuadratureError("radial integral needs Re(H) >= 0")
    s_star = _s_truncation(alpha, max(re_h, 0.0), re_x, budget)
    power = 2.0 * beta / alpha - 1.0
    s, ws, *_ = tanh_sinh(0.0, s_star, n_s, endpoint_exponent=power)
    s2a = s ** (2.0 / alpha)
    shape = np.broadcast_shapes(H.shape, X.shape)
    Hb = np.broadcast_to(H, shape)[..., None]
    Xb = np.broadcast_to(X, shape)[..., None]
    vals = (2.0 / alpha) * np.exp(-Hb * s2a - Xb * s) @ (ws * s ** power)
    if DEBUG_BOUNDS:
        _assert_radial_envelope(beta, H, X, alpha, vals)
    return vals


def radial_integral_rotated(beta: float, h: complex, x: complex, alpha: float,
                            n_s: int = 97, budget: float = 40.0) -> complex:
    """Scalar radial integral with the contour rotated into the decay sector.

    For h = -iz with small Im(z) and large |Re(z)| the integrand
    oscillates hundreds of cycles under slow decay; rotating
    r -> rho*exp(i phi) toward -arg(h) (capped so the stretched-power
    term keeps a positive real part) makes it monotone-decaying, by
    Cauchy's theorem without changing the value.
    """
    h = complex(h)
    x = complex(x)
    if h.real <= 0:
        raise QuadratureError("rotated radial integral needs Re(h) > 0")
    phi = -np.angle(h)
    margin = 0.15
    a2 = 0.5 * alpha
    if phi > 0:
        cap = (0.5 * np.pi - margin - np.angle(x) if x != 0 else np.inf) / a2
        phi = min(phi, max(cap, 0.0), 0.5 * np.pi - 0.05)
    elif phi < 0:
        cap = (0.5 * np.pi - margin + np.angle(x) if x != 0 else np.inf) / a2
        phi = max(phi, -max(cap, 0.0), -0.5 * np.pi + 0.05)
    rot = np.exp(1j * phi)
    val = radial_integral(beta, np.asarray(h * rot),
                          np.asarray(x * rot ** a2, dtype=complex),
                          alpha, n_s, budget)
    return complex(np.exp(1j * beta * phi) * val)


def _assert_radial_envelope(beta, H, X, alpha, vals):
    env = np.full(np.shape(vals), np.inf)
    rh = np.broadcast_to(H, np.shape(vals)).real
    rx = np.broadcast_to(X, np.shape(vals)).real
    ok = rx > 0
    env[ok] = (2.0 / alpha) * gamma_fn(2.0 * beta / alpha) * rx[ok] ** (-2.0 * beta / alpha)
    ok = rh > 0
    env[ok] = np.minimum(env[ok], gamma_fn(beta) * rh[ok] ** (-beta))
    if np.any(np.abs(vals) > env * (1.0 + 1e-8) + 1e-12):
        raise AssertionError("radial integral exceeded its closed-form envelope")


# ---------------------------------------------------------------------------
# the map F_h and the fixed-point map G_z
# ---------------------------------------------------------------------------

def _theta_rule(alpha: float, n_theta: int, exponent: float | None = None):
    """Tanh-sinh angles with the sin(2 theta)^exponent factor folded in.

    sin(2 theta) is formed from the endpoint distances as
    2 sin(d0) sin(d1); the naive expression loses all accuracy at the
    double-exponentially deep nodes near pi/2.
    """
    if exponent is None:
        exponent = 0.5 * alpha - 1.0
    th, wt, d0, d1 = tanh_sinh(0.0, HALF_PI, n_theta, endpoint_exponent=exponent)
    weight = wt * (2.0 * np.sin(d0) * np.sin(d1)) ** exponent
    return th, weight


def eval_F(h: complex, g: HomogeneousFn, quad: QuadratureConfig | None = None,
           out_thetas: np.ndarray | None = None) -> HomogeneousFn:
    """The degree-alpha/2 image F_h(g) on an angular grid.

    Well-defined when Re(h) > 0 (then Re g >= 0 suffices) or when
    Re g > 0 uniformly on the grid.
    """
    quad = quad or QuadratureConfig()
    h = complex(h)
    alpha = 2.0 * g.beta
    if not 0.0 < alpha < 2.0:
        raise ValueError("g must have homogeneity degree alpha/2 with alpha in (0,2)")
    if h.real < -1e-12:
        raise ValueError("h must lie in the closed right half-plane")
    out_thetas = g.thetas if out_thetas is None else np.asarray(out_thetas)
    eps_g = g.min_real_part()
    if eps_g <= 0 and h.real <= 0:
        raise QuadratureError(
            "integrand does not decay: need Re(h) > 0 or Re(g) > 0 on the grid")

    th, wt = _theta_rule(alpha, quad.n_theta)
    e_th = np.exp(1j * th)
    gE = g.values_at_angle(th)
    hE = dot(h, e_th)

    s_star = _s_truncation(alpha, max(h.real, 0.0), max(eps_g, 0.0),
                           quad.exp_budget)
    s, ws, *_ = tanh_sinh(0.0, s_star, quad.n_s, endpoint_exponent=0.0)
    s2a = s ** (2.0 / alpha)

    # A-term, independent of the evaluation angle
    A = np.exp(-hE[:, None] * s2a[None, :] - gE[:, None] * s[None, :])
    IA = (2.0 / alpha) * (A @ ws)
    term_a = (2.0 / alpha) * 2.0 ** (0.5 * alpha) * complex(wt @ IA)

    yj, wy = gauss_jacobi_left(quad.n_y, -0.5 * alpha, 0.0, 0.5)
    wj, ww = gauss_jacobi_left(quad.n_w, alpha - 1.0, 0.0, 2.0)

    out = np.empty(out_thetas.size, dtype=complex)
    for k, tu in enumerate(np.asarray(out_thetas, dtype=float)):
        u = complex(np.cos(tu), np.sin(tu))
        hU = complex(dot(h, u))

        # difference part on y in [0, 1/2]:  weight y^(-alpha/2), analytic rest
        W = e_th[:, None] + yj[None, :] * u
        gW = g(W)
        delta = (s2a[None, None, :] * (yj[None, :, None] * hU)
                 + s[None, None, :] * (gW - gE[:, None])[:, :, None])
        D = -(2.0 / alpha) * np.einsum("ts,tys,s->ty", A, np.expm1(-delta), ws)
        phi2 = wt @ (D / yj[None, :]) @ wy

        # surviving part on y >= 1/2 via y = 1/w, s = w^(alpha/2) sigma:
        # weight w^(alpha-1), analytic rest
        V = wj[None, :] * e_th[:, None] + u
        g_tilde = g(V)
        H2 = wj[None, :] * hE[:, None] + hU
        expo = (-H2[:, :, None] * s2a[None, None, :]
                - g_tilde[:, :, None] * s[None, None, :])
        I_tilde = (2.0 / alpha) * (np.exp(expo) @ ws)
        phi1 = wt @ I_tilde @ ww

        out[k] = term_a - phi1 + phi2
    return HomogeneousFn(0.5 * alpha, out_thetas, out)


def eval_G(z: complex, f: HomogeneousFn,
           quad: QuadratureConfig | None = None) -> HomogeneousFn:
    """G_z(f)(u) = c_alpha * F_{-iz}(f)(u-check) on f's own grid.

    The grid is symmetric about pi/4, so the quarter-turn pullback is a
    reversal of the F values.
    """
    z = complex(z)
    if z != 0 and z.imag <= 0:
        raise ValueError("G_z needs Im z > 0 (or z = 0)")
    alpha = 2.0 * f.beta
    F = eval_F(-1j * z, f, quad, out_thetas=f.thetas)
    if not np.allclose(f.thetas + f.thetas[::-1], HALF_PI, atol=1e-12):
        raise ValueError("grid must be symmetric about pi/4 for the pullback")
    return HomogeneousFn(f.beta, f.thetas, c_alpha(alpha) * F.values[::-1])


def eval_G_error_estimate(z: complex, f: HomogeneousFn,
                          quad: QuadratureConfig | None = None) -> float:
    """Sup-norm change of G_z(f) under a ~30% coarser rule."""
    quad = quad or QuadratureConfig()
    fine = eval_G(z, f, quad)
    coarse = eval_G(z, f, quad.scaled(0.7))
    return float(np.max(np.abs(fine.values - coarse.values)))


# ---------------------------------------------------------------------------
# damped fixed-point solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointSolution:
    z: complex
    gamma: HomogeneousFn
    residual: float
    iterations: int
    damping: float
    residual_history: tuple[float, ...] = field(default=())

    def checkpoint(self, quad: QuadratureConfig | None = None) -> dict:
        """The fields ``from_checkpoint`` reads, plus alpha and quadrature."""
        return {
            "z_re": self.z.real, "z_im": self.z.imag,
            "alpha": 2.0 * self.gamma.beta,
            "residual": self.residual,
            "iterations": self.iterations,
            "damping": self.damping,
            "quadrature": vars(quad) if quad else None,
            "gamma": json.loads(self.gamma.to_json()),
        }

    @staticmethod
    def from_checkpoint(text: str) -> "FixedPointSolution":
        obj = json.loads(text)
        gamma = HomogeneousFn.from_json(json.dumps(obj["gamma"]))
        return FixedPointSolution(
            z=complex(obj["z_re"], obj["z_im"]), gamma=gamma,
            residual=obj["residual"], iterations=obj["iterations"],
            damping=obj["damping"])


def solve_gamma_star(z: complex, alpha: float, tol: float = 1e-7,
                     damping: float = 0.5, *, m: int = 65,
                     quad: QuadratureConfig | None = None,
                     initial: HomogeneousFn | None = None,
                     max_iter: int = 200, z_guard: float = 0.5,
                     anderson: bool = False) -> FixedPointSolution:
    """Damped iteration f <- (1-s) f + s G_z(f) started from gamma*_0.

    Local uniqueness is only available near the origin, hence the |z|
    guard; the damping is halved whenever the residual increases.
    Optional Anderson mixing (depth 3) accelerates the tail of the
    iteration.
    """
    z = complex(z)
    if abs(z) > z_guard:
        raise ValueError(f"|z| = {abs(z):.3f} outside the small-z guard {z_guard}")
    if z != 0 and z.imag <= 0:
        raise ValueError("need Im z > 0 or z = 0")
    quad = quad or QuadratureConfig.fast()
    f = initial if initial is not None else gamma_star_zero(alpha, m)
    if initial is not None and abs(2.0 * f.beta - alpha) > 1e-12:
        raise ValueError("initial guess has the wrong homogeneity degree")

    s = damping
    history: list[float] = []
    prev_resid = np.inf
    stall = 0
    hist_f: list[np.ndarray] = []
    hist_g: list[np.ndarray] = []
    for it in range(1, max_iter + 1):
        G = eval_G(z, f, quad)
        resid = float(np.max(np.abs(G.values - f.values)))
        history.append(resid)
        if resid <= tol:
            return FixedPointSolution(z, f, resid, it, s, tuple(history))
        if resid > prev_resid:
            s = max(0.05, 0.5 * s)
        stall = stall + 1 if resid > 0.999 * prev_resid else 0
        if stall >= 8:
            raise FixedPointError(
                f"residual stagnated near {resid:.3e} at iteration {it}")
        prev_resid = resid

        new_vals = (1.0 - s) * f.values + s * G.values
        if anderson:
            hist_f.append(f.values.copy())
            hist_g.append(G.values.copy())
            if len(hist_f) > 3:
                hist_f.pop(0)
                hist_g.pop(0)
            if len(hist_f) >= 2:
                R = np.stack([gv - fv for fv, gv in zip(hist_f, hist_g)])
                ones = np.ones(R.shape[0])
                M = R @ R.conj().T
                try:
                    c = np.linalg.solve(M + 1e-12 * np.trace(M).real * np.eye(len(ones)), ones)
                    c = c / c.sum()
                    mixed = sum(ck * ((1 - s) * fv + s * gv)
                                for ck, fv, gv in zip(c, hist_f, hist_g))
                    new_vals = mixed
                except np.linalg.LinAlgError:
                    pass
        f = HomogeneousFn(f.beta, f.thetas, new_vals)
        if f.min_real_part() < 1e-6:
            raise FixedPointError(
                "iterate left the positive-real-part cone (Re gamma < 1e-6)")
    raise FixedPointError(
        f"no convergence to {tol:.1e} within {max_iter} iterations "
        f"(last residual {history[-1]:.3e})")


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


# ---------------------------------------------------------------------------
# fractional moments of the limiting resolvent entry
# ---------------------------------------------------------------------------

def r_p(z: complex, f: HomogeneousFn, p: float,
        quad: QuadratureConfig | None = None) -> complex:
    """Absolute moment functional r_{p,z}(f) = E|R(z)|^p at f = gamma*_z.

    Double integral (2^(1-p/2)/Gamma(p/2)^2) * int dtheta
    sin(2 theta)^(p/2-1) int dr r^(p-1) exp(-r h.e^{i theta}
    - r^(alpha/2) f(e^{i theta})) with h = -iz; for Im z > 0 the radial
    factor decays like exp(-r Im z), so no oscillatory quadrature is
    needed.
    """
    if p <= 0:
        raise ValueError("moment order must be positive")
    quad = quad or QuadratureConfig()
    z = complex(z)
    h = -1j * z
    alpha = 2.0 * f.beta
    if h.real <= 0 and f.min_real_part() <= 0:
        raise QuadratureError("need Im z > 0 or Re f > 0 on the grid")
    th, weight = _theta_rule(alpha, quad.n_theta, exponent=0.5 * p - 1.0)
    radial = radial_integral(p, dot(h, np.exp(1j * th)), f.values_at_angle(th),
                             alpha, quad.n_s, quad.exp_budget)
    const = 2.0 ** (1.0 - 0.5 * p) / gamma_fn(0.5 * p) ** 2
    return complex(const * (weight @ radial))


def s_p(z: complex, x: complex, p: float, alpha: float,
        quad: QuadratureConfig | None = None) -> complex:
    """Signed moment functional s_{p,z}(x) = E(-i R(z))^p at x = gamma*_z(1).

    Single radial integral (1/Gamma(p)) int r^(p-1)
    exp(-r(-iz) - r^(alpha/2) x) dr; with z = i eta and x = 0 this is
    the Gamma integral eta^(-p).
    """
    if p <= 0:
        raise ValueError("moment order must be positive")
    quad = quad or QuadratureConfig()
    h = -1j * complex(z)
    x = complex(x)
    if h.real <= 0 and x.real <= 0:
        raise QuadratureError("need Im z > 0 or Re x > 0")
    if h.real > 0 and abs(h.imag) > 0.5 * h.real:
        val = radial_integral_rotated(p, h, x, alpha, quad.n_s, quad.exp_budget)
    else:
        val = radial_integral(p, np.asarray(h), np.asarray(x, dtype=complex),
                              alpha, quad.n_s, quad.exp_budget)
    return complex(val / gamma_fn(p))


# ---------------------------------------------------------------------------
# scalar reduction at u = 1 and the spectral density
# ---------------------------------------------------------------------------

def solve_tilde_gamma(z: complex, alpha: float, tol: float = 1e-12,
                      x0: complex | None = None, max_iter: int = 200,
                      quad: QuadratureConfig | None = None) -> complex:
    """Solve the scalar consistency x = Gamma(1-alpha/2) s_{alpha/2,z}(x).

    This is the value gamma*_z(1) of the functional fixed point; a
    guarded Newton iteration on one complex unknown, usable far outside
    the small-|z| disc where the functional solver is trusted.
    """
    quad = quad or QuadratureConfig()
    h = -1j * complex(z)
    if h.real <= 0:
        raise ValueError("scalar solve needs Im z > 0")
    c1 = gamma_fn(1.0 - 0.5 * alpha)
    x = complex(x0) if x0 is not None else complex(a_zero(alpha))
    if x.real <= 0:
        x = complex(a_zero(alpha))

    def rhs(v):
        return c1 * s_p(z, v, 0.5 * alpha, alpha, quad)

    def F(v):
        return v - rhs(v)

    fx = F(x)
    for _ in range(max_iter):
        if abs(fx) <= tol:
            return x
        # F'(x) = 1 + Gamma(1-a/2)/Gamma(a/2) * J(alpha; h, x)
        deriv = 1.0 + c1 / gamma_fn(0.5 * alpha) * radial_integral_rotated(
            alpha, h, x, alpha, quad.n_s, quad.exp_budget)
        step = fx / deriv
        lam = 1.0
        improved = False
        for _ in range(25):
            cand = x - lam * step
            f_cand = F(cand)
            if abs(f_cand) < abs(fx):
                x, fx = cand, f_cand
                improved = True
                break
            lam *= 0.5
        if not improved:
            # damped Picard rescue through nearly neutral stretches
            for _ in range(400):
                x = 0.7 * x + 0.3 * rhs(x)
            fx = F(x)
            if not abs(fx) < np.inf:
                raise FixedPointError(
                    f"scalar solve diverged at z={z}")
    if abs(fx) <= tol:
        return x
    raise FixedPointError(
        f"scalar solve did not reach {tol:.1e} at z={z}: |F|={abs(fx):.3e}")


def _tilde_gamma_continued(E: float, eta: float, alpha: float,
                           cache: dict | None = None,
                           quad: QuadratureConfig | None = None) -> complex:
    """Scalar solution at E + i eta, continued downward in eta.

    The consistency equation grows spurious attracting roots at moderate
    E and small eta; the physical branch (the one matching the
    population dynamics and a nonnegative density) is selected by
    starting high in the upper half-plane, where the map is a strong
    contraction with a unique root, and tracking the analytic branch
    down in eta with warm-started Newton steps.
    """
    cache = cache if cache is not None else {}
    key = (round(float(E), 12), round(float(eta), 12))
    if key in cache:
        return cache[key]
    eta_start = max(4.0, 2.0 * abs(E))
    x = solve_tilde_gamma(complex(E, eta_start), alpha, quad=quad)
    h = eta_start
    while h > eta:
        h = max(eta, 0.75 * h)
        x = solve_tilde_gamma(complex(E, h), alpha, x0=x, quad=quad)
        cache[(key[0], round(float(h), 12))] = x
    density_sign = (1j * s_p(complex(E, eta), x, 1.0, alpha, quad)).imag
    if density_sign < -1e-9:
        raise FixedPointError(
            f"branch tracking lost the physical root at z={complex(E, eta)}")
    return x


def spectral_density(E: float, alpha: float,
                     eta_ladder=(0.1, 0.05, 0.025),
                     quad: QuadratureConfig | None = None,
                     cache: dict | None = None,
                     with_error: bool = False):
    """Limiting spectral density at energy E by Stieltjes inversion.

    Evaluates (1/pi) Im[i s_{1, E+i eta}(gamma~*_{E+i eta})] on a
    decreasing eta ladder and removes the O(eta) smoothing bias by
    first-order Richardson extrapolation.
    """
    etas = tuple(float(e) for e in eta_ladder)
    if len(etas) < 2 or any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("eta ladder must strictly decrease, length >= 2")
    quad = quad or QuadratureConfig()
    f_eta = []
    for eta in etas:
        x = _tilde_gamma_continued(E, eta, alpha, cache, quad)
        m = 1j * s_p(complex(E, eta), x, 1.0, alpha, quad)
        f_eta.append(m.imag / np.pi)
    extrap = [(ea * fb - eb * fa) / (ea - eb)
              for (ea, fa), (eb, fb) in zip(zip(etas, f_eta), zip(etas[1:], f_eta[1:]))]
    value = extrap[-1]
    err = abs(extrap[-1] - extrap[-2]) if len(extrap) > 1 else abs(value - f_eta[-1])
    if with_error:
        return float(value), float(err)
    return float(value)


def stieltjes_mass(a: float, b: float, alpha: float, n_points: int = 33,
                   eta_ladder=(0.1, 0.05, 0.025),
                   quad: QuadratureConfig | None = None,
                   cache: dict | None = None) -> float:
    """Mass of the limiting measure on [a, b] by Simpson over the density."""
    if n_points % 2 == 0:
        n_points += 1
    cache = cache if cache is not None else {}
    xs = np.linspace(a, b, n_points)
    fs = np.array([spectral_density(x, alpha, eta_ladder, quad, cache) for x in xs])
    from scipy.integrate import simpson
    return float(simpson(fs, x=xs))


# ---------------------------------------------------------------------------
# population dynamics for the recursive distributional equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PopulationPool:
    """Equilibrated sample pool approximating the law of R*(z)."""

    z: complex
    pool: np.ndarray
    iterations: int
    K: int
    m_history: tuple[float, ...]
    converged: bool

    @property
    def size(self) -> int:
        return int(self.pool.size)


def population_dynamics(z: complex, alpha: float, pool_size: int = 100_000,
                        sweeps: int = 30, K: int = 200,
                        rng: np.random.Generator | None = None,
                        chunk: int = 16384) -> PopulationPool:
    """Monte Carlo solution of R* =d -(z + sum_k xi_k R_k)^(-1).

    The pool starts at -1/z; each sweep resamples every slot with fresh
    truncated weights and uniformly chosen pool members (synchronous
    update, indices pre-drawn sequentially so results are independent of
    work scheduling).  Convergence is tracked through the fractional
    moment mean (Im R)^(alpha/2), with a 1%-per-sweep criterion on top
    of the fixed sweep count.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("population dynamics needs Im z > 0")
    if rng is None:
        rng = np.random.default_rng(0)
    pool = np.full(pool_size, -1.0 / z, dtype=complex)
    history = []
    for _ in range(sweeps):
        new = np.empty_like(pool)
        for lo in range(0, pool_size, chunk):
            hi = min(lo + chunk, pool_size)
            rows = hi - lo
            idx = rng.integers(0, pool_size, size=(rows, K))
            xi = poisson_weights_matrix(alpha, (rows, K), rng)
            S = np.einsum("rk,rk->r", xi, pool[idx])
            new[lo:hi] = -1.0 / (z + S)
        pool = new
        history.append(float(np.mean(pool.imag ** (0.5 * alpha))))
    # drift criterion on a 3-sweep moving average (raw sweeps carry MC noise)
    if len(history) >= 6:
        smooth = np.convolve(history, np.ones(3) / 3.0, mode="valid")
        tail = smooth[-5:]
        rel = float(np.max(np.abs(np.diff(tail)) / np.abs(tail[1:])))
    else:
        rel = np.inf
    return PopulationPool(z=z, pool=pool, iterations=sweeps, K=K,
                          m_history=tuple(history), converged=bool(rel <= 0.01))


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
