import json
import multiprocessing
import re
import sys
import threading

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

import levylab.fixed_point as fp
import levylab.kernel_spectrum as ks
from levylab.halfplane import HomogeneousFn, default_grid
from levylab.fixed_point import (
    FixedPointError,
    QuadratureConfig,
    QuadratureError,
    a_zero,
    c_alpha,
    eval_F,
    eval_G,
    eval_G_error_estimate,
    gamma_star_zero,
    pool_moment,
    population_dynamics,
    r_p,
    r_p_angle_rule,
    radial_integral_rotated,
    s_p,
    solve_gamma_star,
    solve_tilde_gamma,
    spectral_density,
)
from levylab.halfplane import dot
from levylab.matrix_model import empirical_gamma
from levylab.quadrature import power_rule, sin2_theta_rule, tanh_sinh
from oracles import apply_linearized, solve_gamma_path, sup_distance


def test_constants():
    assert abs(c_alpha(1.0) - 1.0 / (np.sqrt(2) * np.pi)) < 1e-14
    assert abs(a_zero(1.0) - np.sqrt(2)) < 1e-14


def _unrotated(beta, h, x, alpha, n_s=97, budget=40.0):
    """The radial integral of one point on the real r axis (no rotation)."""
    s_star = fp._s_truncation(alpha, max(h.real, 0.0), x.real, budget)
    power = 2.0 * beta / alpha - 1.0
    s, ws, *_ = tanh_sinh(0.0, s_star, n_s, endpoint_exponent=power)
    return (2.0 / alpha) * complex(np.exp(-h * s ** (2.0 / alpha) - x * s) @ (ws * s ** power))


def test_radial_integral_closed_forms():
    alpha = 1.2
    # pure exponential: int r^(b-1) e^{-rH} = Gamma(b) H^-b
    v = radial_integral_rotated(1.7, np.asarray(0.8 + 0.3j), np.asarray(0.0j), alpha)
    exact = gamma_fn(1.7) * (0.8 + 0.3j) ** -1.7
    assert abs(v - exact) < 1e-10
    # pure stretched exponential: (2/a) Gamma(2b/a) X^(-2b/a)
    v = radial_integral_rotated(0.6, np.asarray(0.0j), np.asarray(1.5 + 0.0j), alpha)
    exact = (2 / alpha) * gamma_fn(1.2 / alpha) * 1.5 ** (-1.2 / alpha)
    assert abs(v - exact) < 1e-10
    with pytest.raises(QuadratureError):
        radial_integral_rotated(1.0, np.asarray(0.0j), np.asarray(0.0j), alpha)


def test_radial_envelope_debug_mode():
    # |int r^(b-1) e^(-rH - r^(a/2) X) dr| stays below the closed-form
    # envelope min((2/a) Gamma(2b/a) Re(X)^(-2b/a), Gamma(b) Re(H)^(-b))
    beta, alpha = 0.9, 1.3
    H = np.array([0.5 + 1.0j, 2.0 + 0.0j, 1e-3 + 0.0j])
    X = np.array([0.7 - 0.2j, 0.1 + 0.1j, 2.0 + 0.5j])
    vals = radial_integral_rotated(beta, H, X, alpha)
    env = np.minimum(
        (2.0 / alpha) * gamma_fn(2.0 * beta / alpha) * X.real ** (-2.0 * beta / alpha),
        gamma_fn(beta) * H.real ** (-beta))
    assert np.all(np.abs(vals) <= env * (1.0 + 1e-8))


def test_radial_integral_array_is_per_point():
    # each point gets its own angle and truncation: the batch equals the
    # scalar calls, whatever else is in it
    alpha = 0.9
    H = np.array([[0.5 + 0.2j, 0.05 - 3.0j], [2.0, 1e-3 + 0.4j]])
    X = np.array([1.0 + 0.0j, 0.3 + 0.3j])
    got = radial_integral_rotated(1.3, H, X, alpha)
    assert got.shape == H.shape
    for i in np.ndindex(H.shape):
        one = radial_integral_rotated(1.3, H[i], X[i[-1]], alpha)
        assert abs(got[i] - one) <= 1e-14 * abs(one)


def test_rotated_integral_matches_plain():
    alpha = 0.9
    for h, x in [(0.5 + 0.2j, 1.0 + 0.0j), (1.0 - 0.4j, 0.3 + 0.3j)]:
        a = radial_integral_rotated(1.0, h, x, alpha)
        b = _unrotated(1.0, h, x, alpha)
        assert abs(a - b) < 1e-10 * (1 + abs(b))


def test_oscillatory_regime_rotation_consistency():
    # large Re(z), small Im(z): the contour angle is capped by the x-term;
    # two different admissible rotations must agree (Cauchy), while the
    # unrotated rule is visibly aliased
    alpha, z, x = 0.8, 4.0 + 0.05j, 0.7 + 0.3j
    h = -1j * z
    got = radial_integral_rotated(1.0, h, x, alpha)
    phi2 = 0.6 * -np.angle(h)
    rot = np.exp(1j * phi2)
    manual = np.exp(1j * phi2) * _unrotated(1.0, h * rot, x * rot ** (alpha / 2),
                                            alpha, n_s=193)
    assert abs(got - manual) < 1e-7 * (1 + abs(manual))
    aliased = _unrotated(1.0, h, x, alpha)
    assert abs(aliased - got) > 100 * abs(got - manual)


def _radial_by_quad(beta, H, X, alpha):
    """One point's radial integral by adaptive quadrature on the real axis,
    the oscillation e^(-i r Im H) taken as a cos/sin weight."""
    from scipy.integrate import quad

    def f(r):
        return r ** (beta - 1.0) * np.exp(-r * H.real - r ** (0.5 * alpha) * X)
    kw = dict(limit=1000, epsrel=1e-11, epsabs=0.0, complex_func=True)
    end = 45.0 / H.real
    if H.imag == 0:
        return quad(f, 0.0, end, **kw)[0]
    cos = quad(f, 0.0, end, weight="cos", wvar=abs(H.imag), **kw)[0]
    sin = quad(f, 0.0, end, weight="sin", wvar=abs(H.imag), **kw)[0]
    return cos - 1j * np.sign(H.imag) * sin


@pytest.mark.parametrize("z, p", [(3.0 + 0.05j, 1.0), (3.0 + 0.05j, 2.0), (1.0 + 0.1j, 1.0)])
def test_r_p_off_axis_is_not_aliased(z, p):
    # small Im z under large Re z: every angle's radial integral oscillates;
    # the reference takes r_p's own angle rule and does each node's radial
    # integral by adaptive quadrature
    f = gamma_star_zero(1.0)
    quad = QuadratureConfig()
    th, weight = r_p_angle_rule(z, p, quad.n_theta)
    H = dot(-1j * z, np.exp(1j * th))
    X = f.values_at_angle(th)
    radial = np.array([_radial_by_quad(p, Hk, Xk, 1.0) for Hk, Xk in zip(H, X)])
    ref = 2.0 ** (1.0 - 0.5 * p) / gamma_fn(0.5 * p) ** 2 * (weight @ radial)
    assert abs(r_p(z, f, p, quad) - ref) <= 1e-9 * abs(ref)


def test_r_p_default_angle_rule_resolves_the_off_axis_peak():
    # the radial integral peaks at theta = pi/4, where Im(h.e^(i theta))
    # vanishes; the plain 96-node angle rule was 18% low here
    z, f = 3.0 + 0.05j, gamma_star_zero(1.0)
    ref = r_p(z, f, 2.0, QuadratureConfig(n_theta=768)).real
    assert abs(r_p(z, f, 2.0) - ref) <= 1e-3 * ref


def test_s_p_gamma_integral():
    # x = 0, z = i eta reduces to the plain Gamma integral eta^-p
    for p, eta in [(1.0, 0.4), (2.5, 0.15)]:
        assert abs(s_p(1j * eta, 0.0, p, 1.1) - eta ** -p) < 1e-9 * eta ** -p
    # pure imaginary z and real x > 0 give a real value
    v = s_p(0.3j, 0.9, 1.0, 0.7)
    assert abs(v.imag) < 1e-12
    with pytest.raises(QuadratureError):
        s_p(0.0, -1.0, 1.0, 1.0)


def test_scaling_identity():
    alpha = 1.2
    th = default_grid(65)
    rng = np.random.default_rng(5)
    g = HomogeneousFn(alpha / 2, th,
                      1.0 + 0.3 * rng.normal(size=65) + 0.1j * rng.normal(size=65))
    t = 2.0
    quad = QuadratureConfig.fast()
    for h in (1.0, 0.7 + 0.4j, 2.5 + 0.1j):
        left = eval_F(h, HomogeneousFn(alpha / 2, th, t ** (alpha / 2) * g.values),
                      quad)
        right = eval_F(h / t, g, quad)
        gap = np.max(np.abs(left.values - t ** (-alpha / 2) * right.values))
        assert gap < 1e-6


def _rescaled_phi(h, g, quad):
    """eval_F's radial integral phi at any points w: the radial integral
    at w/|w| times |w|^(-alpha/2), so that by homogeneity
    phi(w) = |w|^(-alpha/2) phi(w/|w|) holds rule for rule."""
    alpha = 2.0 * g.beta

    def phi(w):
        e = w / np.abs(w)
        return np.abs(w) ** (-0.5 * alpha) * radial_integral_rotated(
            0.5 * alpha, dot(h, e), g(e), alpha, quad.n_s)
    return phi


def _two_profiles(alpha, m):
    """Two functions on one grid: the fixed point at z = 0 and one with
    no symmetry about pi/4."""
    th = default_grid(m)
    return (gamma_star_zero(alpha, m),
            HomogeneousFn(alpha / 2, th, 1.0 + 0.3 * np.cos(3 * th) + 0.2j * np.sin(th)))


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
def test_profile_interpolant_matches_the_radial_integral(alpha):
    # |w|^(-alpha/2) Phi(arg w), Phi interpolated from its samples at
    # profile_angles, against the radial integral at w itself
    rng = np.random.default_rng(12)
    w = rng.uniform(0.2, 3.0, 1000) * np.exp(0.5j * np.pi * rng.uniform(size=1000))
    h, quad = 0.3 + 0.2j, QuadratureConfig.fast()
    for g in _two_profiles(alpha, 65):
        phi = _rescaled_phi(h, g, quad)
        samples = phi(np.exp(1j * fp.profile_angles(g.thetas)))
        cols, weights = fp.profile_interpolation(g.thetas, np.angle(w))
        got = np.abs(w) ** (-0.5 * alpha) * np.sum(weights * samples[cols], axis=-1)
        direct = phi(w)
        assert np.max(np.abs(got - direct) / np.abs(direct)) <= 1e-13


def _pointwise_difference_integral(alpha, phi, out_thetas, quad):
    """The (theta, y) integral of ``difference_integral`` with phi called
    at every quadrature point, one output angle at a time."""
    th, wt = sin2_theta_rule(quad.n_theta, 0.5 * alpha - 1.0)
    e = np.exp(1j * th)
    y, wy = power_rule(-0.5 * alpha, 0.5, quad.n_y)
    v, wv = power_rule(alpha - 1.0, 2.0, quad.n_y)
    out = []
    for u in np.exp(1j * np.asarray(out_thetas)):
        near = wt @ ((phi(e)[:, None] - phi(e[:, None] + y * u)) / y) @ wy
        far = wt @ phi(v * e[:, None] + u) @ wv
        out.append((2.0 / alpha) * 2.0 ** (0.5 * alpha) * (wt @ phi(e)) + near - far)
    return np.array(out)


def test_one_difference_matrix_serves_two_profiles():
    # D is built once for the grid and rule, and applied to either
    # profile it gives the pointwise quadrature of that profile's phi
    alpha, h, quad = 1.0, 0.3 + 0.2j, QuadratureConfig.fast()
    gs = _two_profiles(alpha, 33)
    fp.difference_integral.cache_clear()
    got = [eval_F(h, g, quad).values for g in gs]
    info = fp.difference_integral.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for g, F in zip(gs, got):
        ref = _pointwise_difference_integral(alpha, _rescaled_phi(h, g, quad), g.thetas, quad)
        assert np.max(np.abs(F - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_F_norm_bound_shape():
    # ||F_h(g)||_inf <= c/Re(h)^(a/2) + c ||g||_inf / Re(h)^a with one c
    alpha = 1.0
    th = default_grid(65)
    quad = QuadratureConfig.fast()
    ratios = []
    for re_h in (0.5, 1.0, 2.0):
        for scale in (0.5, 1.5):
            g = HomogeneousFn(alpha / 2, th,
                              scale * (np.cos(th) + np.sin(th)) ** 0.5)
            F = eval_F(re_h, g, quad)
            fnorm = np.max(np.abs(F.values))
            bound_shape = re_h ** (-alpha / 2) + np.max(np.abs(g.values)) * re_h ** -alpha
            ratios.append(fnorm / bound_shape)
    assert max(ratios) < 10.0  # fitted constant stays finite and modest


def test_exact_fixed_point_at_origin():
    for alpha in (0.5, 1.0, 1.5):
        g0 = gamma_star_zero(alpha, m=65)
        G = eval_G(0.0, g0, QuadratureConfig.fast())
        assert np.max(np.abs(G.values - g0.values)) < 1e-6


def test_G_checks_grid_before_F(monkeypatch):
    th = default_grid(65)
    th[10] += 1e-3  # breaks the symmetry about pi/4
    f = HomogeneousFn(0.5, th, np.ones(65, dtype=complex))

    def no_F(*args, **kwargs):
        raise AssertionError("eval_F ran before the grid check")
    monkeypatch.setattr(fp, "eval_F", no_F)
    with pytest.raises(ValueError, match="symmetric"):
        eval_G(0.1j, f, QuadratureConfig.fast())


def test_F_requires_decay():
    th = default_grid(65)
    g = HomogeneousFn(0.5, th, np.zeros(65, dtype=complex))
    with pytest.raises(QuadratureError):
        eval_F(0.0, g, QuadratureConfig.fast())
    with pytest.raises(ValueError):
        eval_F(-1.0, gamma_star_zero(1.0, 65), QuadratureConfig.fast())


def test_solver_converges_instantly_at_origin():
    sol = solve_gamma_star(0.0, 1.0, tol=1e-6, quad=QuadratureConfig.fast())
    assert sol.iterations <= 5
    assert sol.residual <= 1e-6
    assert sol.gamma.min_real_part() > 0


def test_solver_guards():
    with pytest.raises(ValueError):
        solve_gamma_star(0.8j, 1.0)  # outside the small-z guard
    with pytest.raises(ValueError):
        solve_gamma_star(0.1 - 0.1j, 1.0)


def _pool_of_one():
    return fp.PopulationPool(pool=np.array([0.1 + 1j]), iterations=1, m_history=(0.1,),
                             converged=False)


@pytest.mark.parametrize("call, error, message", [
    (lambda: radial_integral_rotated(1.0, -1.0, 1.0, 1.0), QuadratureError,
     "radial integral needs Re(H) >= 0"),
    (lambda: eval_F(0.1, HomogeneousFn(1.0, default_grid(33), np.ones(33))), ValueError,
     "alpha in (0,2)"),
    (lambda: eval_G(0.1 - 0.1j, gamma_star_zero(1.0, 33)), ValueError, "Im z > 0"),
    (lambda: solve_gamma_star(0.1j, 1.0, initial=gamma_star_zero(0.8, 33)), ValueError,
     "wrong homogeneity degree"),
    (lambda: r_p(0.1j, gamma_star_zero(1.0, 33), 0.0), ValueError,
     "moment order must be positive"),
    (lambda: s_p(0.1j, 1.0, -1.0, 1.0), ValueError, "moment order must be positive"),
    (lambda: solve_tilde_gamma(0.1, 1.0), ValueError, "scalar solve needs Im z > 0"),
    (lambda: pool_moment(_pool_of_one(), 1.0, "median"), ValueError,
     "kind must be 'abs' or 'signed'"),
], ids=["radial Re H", "eval_F alpha", "eval_G Im z", "initial degree", "r_p order",
        "s_p order", "tilde_gamma Im z", "pool_moment kind"])
def test_argument_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_solver_monotone_residuals_small_z():
    # empirical contraction under damping 0.5 for small |z|
    for alpha in (0.5, 1.0, 1.5):
        sol = solve_gamma_star(0.1j, alpha, tol=1e-8, quad=QuadratureConfig.fast())
        resid = np.array(sol.residual_history)
        assert np.all(np.diff(resid) < 1e-12)


def test_solver_secant_evaluations():
    # the secant step removes the slow error mode: plain damped iteration
    # takes 10 evaluations at 0.2i and 75 at -0.3+0.05i
    for z, most in ((0.2j, 6), (-0.3 + 0.05j, 20)):
        sol = solve_gamma_star(z, 1.0, tol=1e-8, quad=QuadratureConfig.fast())
        assert sol.residual <= 1e-8
        assert sol.iterations <= most
        assert len(sol.residual_history) == sol.iterations


def test_solver_stagnation_guard_at_round_off():
    # tol 0 is out of reach: at round-off the residual wobbles around its
    # floor without a lasting gain on the best one so far, and the
    # stagnation guard ends the solve
    with pytest.raises(FixedPointError, match="stagnated"):
        solve_gamma_star(0.2j, 1.0, tol=0.0, m=33, quad=QuadratureConfig.fast())


def test_solver_stagnation_guard_sees_an_alternating_floor(monkeypatch):
    # noise of alternating sign makes the residual at its floor rise and
    # fall in turn: against the previous residual it never stalls 8 times
    # in a row, and only the best one so far shows that it stopped falling
    calls = []

    def noisy_G(z, f, quad=None):
        calls.append(z)
        G = eval_G(z, f, quad)
        noise = 1e-14 * (-1) ** len(calls)
        return HomogeneousFn(G.beta, G.thetas, G.values + noise)

    monkeypatch.setattr(fp, "eval_G", noisy_G)
    with pytest.raises(FixedPointError, match="stagnated"):
        solve_gamma_star(0.2j, 1.0, tol=0.0, m=33, quad=QuadratureConfig.fast())
    assert len(calls) <= 40


def test_solver_cone_guard(monkeypatch):
    # a map that pushes every value left drives the iterate out of the cone
    def left_G(z, f, quad=None):
        return HomogeneousFn(f.beta, f.thetas, f.values - 10.0)

    monkeypatch.setattr(fp, "eval_G", left_G)
    with pytest.raises(FixedPointError, match="positive-real-part cone"):
        solve_gamma_star(0.2j, 1.0, m=33, quad=QuadratureConfig.fast())


def test_solver_iteration_cap(monkeypatch):
    monkeypatch.setattr(fp, "MAX_ITER", 3)
    with pytest.raises(FixedPointError, match="no convergence .* within 3 iterations"):
        solve_gamma_star(0.2j, 1.0, tol=0.0, m=33, quad=QuadratureConfig.fast())


@pytest.mark.parametrize("z, alpha", [(0.5 + 0.5j, 1.0), (0.2j, 1.0), (1 + 0.3j, 0.8)])
def test_scalar_solve_rescue_reaches_the_root(z, alpha, monkeypatch):
    # a NaN Newton derivative fails all 25 halvings of the line search;
    # the damped Picard rescue must still reach the root
    expected = solve_tilde_gamma(z, alpha)
    radial = fp.radial_integral_rotated

    def nan_derivative(beta, H, X, alpha, *args):
        val = radial(beta, H, X, alpha, *args)
        return val * np.nan if beta == alpha else val

    monkeypatch.setattr(fp, "radial_integral_rotated", nan_derivative)
    with np.errstate(invalid="ignore"):
        got = solve_tilde_gamma(z, alpha)
    assert abs(got - expected) <= 1e-14


def test_scalar_solve_divergence_guard(monkeypatch):
    def infinite(z, x, p, alpha, quad=None):
        return np.full(np.shape(z), np.inf, dtype=complex)

    monkeypatch.setattr(fp, "s_p", infinite)
    with np.errstate(invalid="ignore"):
        with pytest.raises(FixedPointError, match=r"diverged at z=0\.2j"):
            solve_tilde_gamma(0.2j, 1.0)


def test_scalar_solve_iteration_cap(monkeypatch):
    monkeypatch.setattr(fp, "MAX_ITER", 0)
    with pytest.raises(FixedPointError, match="did not reach"):
        solve_tilde_gamma(0.2j, 1.0)


def test_s_truncation_grows_against_a_negative_eps_g():
    # re_h s^2 + eps_g s at alpha = 1: the first guess sqrt(40) falls
    # short of the budget, so the 1.3x growth loop must run
    s = fp._s_truncation(1.0, 1.0, -1.0, 40.0)
    assert s > np.sqrt(40.0)
    assert s * s - s >= 40.0


def test_checkpoint_round_trip(tmp_path):
    sol = solve_gamma_star(0.0, 1.2, tol=1e-6, quad=QuadratureConfig.fast())
    text = json.dumps(sol.checkpoint(QuadratureConfig.fast()))
    back = fp.FixedPointSolution.from_checkpoint(text)
    assert back.z == sol.z
    assert back.gamma.beta == sol.gamma.beta
    assert np.array_equal(back.gamma.thetas, sol.gamma.thetas)
    assert np.array_equal(back.gamma.values, sol.gamma.values)
    assert back.residual == sol.residual
    keys = {"beta", "thetas", "values_re", "values_im"}
    assert set(json.loads(text)["gamma"]) == keys


def test_scalar_solver_matches_functional_at_one():
    alpha = 1.0
    sols = solve_gamma_path([0.05j, 0.1j], alpha, tol=1e-9,
                               quad=QuadratureConfig.fast())
    x_func = sols[-1].gamma.values_at_angle(np.array([0.0]))[0]
    x_scalar = solve_tilde_gamma(0.1j, alpha)
    assert abs(x_func - x_scalar) < 1e-6


@pytest.mark.parametrize("alpha, z, bound", [(0.5, 0.2 + 0.02j, 1e-4),
                                           (1.0, 0.45 + 0.01j, 1e-5)])
def test_functional_solve_meets_the_scalar_root_off_axis(alpha, z, bound):
    # gamma*_z(1) = x~_z: with one truncation for all angles and no contour
    # rotation, F missed x~ by 2.4e-2 and 3.9e-3 here at a 1e-9 residual
    sol = solve_gamma_star(z, alpha, tol=1e-9)
    x_func = sol.gamma.values_at_angle(np.array([0.0]))[0]
    assert abs(x_func - solve_tilde_gamma(z, alpha)) <= bound


def test_quadrature_error_estimate_brackets_truth():
    alpha = 1.0
    g0 = gamma_star_zero(alpha, m=65)
    quad = QuadratureConfig.fast()
    est = eval_G_error_estimate(0.1j, g0, quad)
    fine = eval_G(0.1j, g0, quad.scaled(2.0))
    base = eval_G(0.1j, g0, quad)
    true_change = np.max(np.abs(fine.values - base.values))
    assert true_change <= 3 * est + 1e-12


def test_population_dynamics_contracts():
    rng = np.random.default_rng(3)
    pool = population_dynamics(0.5j, 1.0, pool_size=20_000, sweeps=25, K=100,
                               rng=rng)
    assert pool.converged
    assert pool.size == 20_000
    # Herglotz closure: Im R in (0, 1/Im z]
    assert np.all(pool.pool.imag > 0)
    assert np.max(pool.pool.imag) <= 1 / 0.5 + 1e-12
    with pytest.raises(ValueError):
        population_dynamics(1.0, 1.0, pool_size=10, sweeps=1, K=10, rng=rng)
    # every sub-pool needs a slot of its own
    assert population_dynamics(0.5j, 1.0, fp.SUBPOOLS, 2, 3, rng).size == fp.SUBPOOLS
    with pytest.raises(ValueError, match="at least SUBPOOLS"):
        population_dynamics(0.5j, 1.0, fp.SUBPOOLS - 1, 2, 3, rng)
    # a sub-pool's row pointer is int32: 2^21 slots of 2^10 draws overflow it
    with pytest.raises(ValueError, match="int32"):
        population_dynamics(0.5j, 1.0, fp.SUBPOOLS * 2 ** 21, 1, 2 ** 10, rng)


@pytest.mark.parametrize("field", ["pool_size", "sweeps", "K"])
def test_population_dynamics_rejects_empty_sizes(field):
    sizes = dict(pool_size=10, sweeps=2, K=5)
    population_dynamics(0.2j, 1.0, rng=np.random.default_rng(0), **sizes)
    # zero K, sweeps or pool would hand back the untouched start
    for bad in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            population_dynamics(0.2j, 1.0, rng=np.random.default_rng(0),
                                **{**sizes, field: bad})


def _serial_pool(z, alpha, pool_size, sweeps, K, rng):
    """The one-thread loop over the sub-pools that the threaded run must
    reproduce bit for bit: each sub-pool's sweeps on its own stream, S by
    np.einsum; and the plain pool mean of (Im R)^(alpha/2) per sweep."""
    from levylab.stable_random import poisson_weights_matrix
    pool = np.empty(pool_size, dtype=complex)
    history = np.zeros(sweeps)
    for sub_rng, sl in zip(rng.spawn(fp.SUBPOOLS), fp.subpool_slices(pool_size)):
        n = sl.stop - sl.start
        members = np.full(n, -1.0 / (z + 1j))
        for sweep in range(sweeps):
            idx = sub_rng.integers(0, n, size=(n, K))
            xi = poisson_weights_matrix(alpha, (n, K), sub_rng)
            members = -1.0 / (z + np.einsum("rk,rk->r", xi, members[idx]))
            history[sweep] += np.sum(members.imag ** (alpha / 2)) / pool_size
        pool[sl] = members
    return pool, history


#: outputs of the threaded loops; each must not depend on the worker count
THREADED = {
    "eval_G 0.1i": lambda: eval_G(0.1j, gamma_star_zero(1.0, 33),
                                  QuadratureConfig.fast()).values,
    "eval_G 0.2+0.1i": lambda: eval_G(0.2 + 0.1j, gamma_star_zero(0.8, 33),
                                      QuadratureConfig.fast()).values,
    "apply_linearized": lambda: apply_linearized(
        gamma_star_zero(1.2, 33), n_theta=48, n_y=12).values,
    # eight sub-pools of 625 or 626 slots, one task each
    "pool on the axis": lambda: population_dynamics(
        0.2j, 1.0, 5001, 3, 30, np.random.default_rng(5)).pool,
    "pool off the axis": lambda: population_dynamics(
        0.3 + 0.2j, 1.3, 5001, 3, 30, np.random.default_rng(6)).pool,
    # kernel rows on the pool, row integrals on the calling thread
    "assemble_P 1.1": lambda: ks.assemble_P(1.1, 32).matrix,
    "assemble_P 1.5+5i": lambda: ks.assemble_P(1.5 + 5j, 32).matrix,
}


def _run_with_workers(monkeypatch, workers, fn):
    monkeypatch.setattr(fp, "WORKERS", workers)
    fp.difference_integral.cache_clear()  # so that D is built with these workers
    return fn()


@pytest.mark.parametrize("name", list(THREADED))
def test_threaded_loops_are_bitwise_independent_of_workers(name, monkeypatch):
    one = _run_with_workers(monkeypatch, 1, THREADED[name])
    two = _run_with_workers(monkeypatch, 2, THREADED[name])
    assert np.array_equal(one, two)


def test_pool_sweep_matches_the_serial_loop():
    # sub-pools of one slot each, and of 312 or 313 slots
    for size in (fp.SUBPOOLS, 2501):
        for z, alpha in ((0.2j, 1.0), (0.3 + 0.2j, 1.3)):
            got = population_dynamics(z, alpha, size, 3, 20, np.random.default_rng(8))
            ref, history = _serial_pool(z, alpha, size, 3, 20, np.random.default_rng(8))
            assert np.array_equal(got.pool, ref)
            # the same sums, added per sub-pool first
            assert np.allclose(got.m_history, history, rtol=1e-13, atol=0)


def _small_pool_mean():
    pool = population_dynamics(0.5j, 1.0, 300, 2, 10, np.random.default_rng(1))
    return float(np.mean(pool.pool.imag))


def test_forked_child_starts_its_own_pool():
    expected = _small_pool_mean()  # forked after a threaded call of the parent
    with multiprocessing.get_context("fork").Pool(1) as workers:
        assert workers.apply_async(_small_pool_mean).get(timeout=60) == expected


@pytest.mark.parametrize("call", [
    lambda: eval_F(0.2 + 0.3j, gamma_star_zero(1.0, 33), QuadratureConfig.fast()),
    lambda: population_dynamics(0.3 + 0.2j, 1.3, 2001, 2, 10, np.random.default_rng(2)),
    lambda: ks.assemble_P(1.1, 16),
], ids=["eval_F", "population_dynamics", "assemble_P"])
def test_no_pool_thread_outlives_its_call(call):
    fp.difference_integral.cache_clear()  # so that eval_F builds D on a pool
    call()
    assert [t.name for t in threading.enumerate() if t.name.startswith("levylab")] == []


def test_threaded_eval_F_keeps_scratch_per_thread(monkeypatch):
    # more threads than cores and a short switch interval: D's rows, built
    # on four threads with their own temporaries, equal those of one thread
    g = gamma_star_zero(1.0, 33)
    quad = QuadratureConfig(n_theta=24, n_s=25, n_y=9)
    ref = _run_with_workers(monkeypatch, 1, lambda: eval_F(0.2 + 0.3j, g, quad).values)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _run_with_workers(monkeypatch, 4, lambda: eval_F(0.2 + 0.3j, g, quad).values)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, ref)


def test_threaded_assemble_P_under_fast_switching(monkeypatch):
    # four threads on the kernel rows while the calling thread takes the
    # row integrals, switching often: the matrix of one thread
    def build():
        return ks.assemble_P(1.5 + 5j, 16).matrix
    ref = _run_with_workers(monkeypatch, 1, build)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _run_with_workers(monkeypatch, 4, build)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, ref)


def test_threaded_pool_under_fast_switching(monkeypatch):
    # eight sub-pools on four threads, switching often: each writes only
    # its own slice and draws only from its own stream
    def run():
        return population_dynamics(0.3 + 0.2j, 1.3, 2001, 3, 20,
                                   np.random.default_rng(9)).pool
    ref = _run_with_workers(monkeypatch, 1, run)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _run_with_workers(monkeypatch, 4, run)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, ref)


def test_population_pure_imaginary_closure():
    rng = np.random.default_rng(4)
    eta = 0.4
    pool = population_dynamics(1j * eta, 0.8, pool_size=10_000, sweeps=15,
                               K=100, rng=rng)
    assert np.max(np.abs(pool.pool.real)) <= 1e-10 / eta


def test_population_levy_khintchine_closure():
    alpha = 1.0
    rng = np.random.default_rng(5)
    pool = population_dynamics(0.3j, alpha, pool_size=40_000, sweeps=25,
                               K=200, rng=rng)
    from levylab.stable_random import poisson_weights_matrix
    xi = poisson_weights_matrix(alpha, (40_000, 200), rng)
    w = -1j * pool.pool[rng.integers(0, pool.size, (40_000, 200))]
    lhs = np.mean(np.exp(-(xi * w).sum(axis=1)))
    rhs = np.exp(-gamma_fn(1 - alpha / 2) * np.mean((-1j * pool.pool) ** (alpha / 2)))
    se = np.std(np.exp(-(xi * w).sum(axis=1)).real) / np.sqrt(40_000)
    assert abs(lhs - rhs) < 4 * se + 0.01 * abs(rhs)


def test_moment_identities_small_pool():
    alpha, z = 1.0, 0.1j
    rng = np.random.default_rng(6)
    pool = population_dynamics(z, alpha, pool_size=30_000, sweeps=25, K=200,
                               rng=rng)
    sols = solve_gamma_path([0.05j, 0.1j], alpha, tol=1e-8,
                               quad=QuadratureConfig.fast())
    gq = sols[-1].gamma
    x1 = gq.values_at_angle(np.array([0.0]))[0]
    for p in (1.0, 2.0):
        mean, se = pool_moment(pool, p, "abs")
        assert abs(mean - r_p(z, gq, p).real) < 3 * se + 0.01
        meanS, seS = pool_moment(pool, p, "signed")
        assert abs(meanS - s_p(z, x1, p, alpha)) < 3 * seS + 0.01
    # the pool-estimated order parameter sits close to the quadrature one
    assert sup_distance(empirical_gamma(pool.pool, alpha, 65), gq) < 0.05
    # the central angle encodes the fractional moment of Im R
    y_half = np.mean(pool.pool.imag ** (alpha / 2))
    closed = gq.values_at_angle(np.array([np.pi / 4]))[0].real \
        / (2 ** (alpha / 4) * gamma_fn(1 - alpha / 2))
    assert abs(y_half - closed) < 0.01
    # near the origin the solution stays close to the closed form
    assert sup_distance(sols[0].gamma, fp.gamma_star_zero(alpha, 65)) < 0.1


def test_pool_start_is_equilibrated_after_25_sweeps():
    # test_moment_identities_small_pool's pool over four seeds: its 32
    # independent sub-pool means of |R| sit within 3 SE of r_1.  Started
    # at -1/z the same pools read 0.025 low, 4.3 SE: not yet equilibrated
    alpha, z = 1.0, 0.1j
    means = []
    for seed in (6, 7, 8, 9):
        pool = population_dynamics(z, alpha, pool_size=30_000, sweeps=25, K=200,
                                   rng=np.random.default_rng(seed))
        means += [np.mean(np.abs(pool.pool[sl])) for sl in fp.subpool_slices(pool.size)]
    sols = solve_gamma_path([0.05j, 0.1j], alpha, tol=1e-8, quad=QuadratureConfig.fast())
    se = np.std(means, ddof=1) / np.sqrt(len(means))
    assert abs(np.mean(means) - r_p(z, sols[-1].gamma, 1.0).real) < 3 * se


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_replica_se_matches_the_spread_of_pool_means(alpha):
    # over 32 independent small pools, the rms replica SE against the
    # standard deviation of their means of |R| and of |R|^2
    pools = [population_dynamics(0.2j, alpha, 2000, 15, 30, np.random.default_rng([11, r]))
             for r in range(32)]
    for p in (1.0, 2.0):
        spread = np.std([pool_moment(pool, p)[0] for pool in pools], ddof=1)
        replica = np.sqrt(np.mean([fp.replica_se(pool, p) ** 2 for pool in pools]))
        assert 1 / 1.5 < replica / spread < 1.5


def test_r_p_uniform_bound_in_h():
    # |r_{p, ih}(g)| <= c / Re(h)^p with a single fitted c
    alpha = 1.0
    g0 = gamma_star_zero(alpha, m=65)
    quad = QuadratureConfig.fast()
    cs = []
    for re_h in (0.25, 0.5, 1.0, 2.0):
        for p in (0.5, 1.0, 2.0):
            val = abs(r_p(1j * re_h, g0, p, quad))
            cs.append(val * re_h ** p)
    assert max(cs) < 20.0


def test_density_symmetry_and_known_scale():
    f0 = spectral_density(0.0, 1.0)[0]
    assert 0.25 < f0 < 0.4  # bounded density, same scale as the semicircle
    assert abs(spectral_density(0.4, 1.0)[0]
               - spectral_density(-0.4, 1.0)[0]) < 1e-6
    with pytest.raises(ValueError):
        spectral_density(0.0, 1.0, eta_ladder=(0.1,))


def test_density_near_alpha_two():
    # the 97-node radial rule turned by -arg H alone erred by 1.5e-3 at
    # alpha = 1.95 near E = 0.25, and the scalar solve stalled at 0.25+0.0375i
    E, alpha = np.linspace(0.0, 5.0, 41), 1.9
    value, err = spectral_density(E, alpha)
    doubled = spectral_density(E, alpha, quad=QuadratureConfig(n_s=2 * 97))[0]
    assert np.all(value > 0)
    assert np.all(np.abs(doubled - value) <= err)


def test_density_ladder_above_the_start():
    # eta = 6 lies above max(4, 2|E|): its root must be solved at 6i, not 4i
    etas = (6.0, 5.0)
    f = []
    for eta in etas:
        x = solve_tilde_gamma(1j * eta, 1.0)
        f.append((1j * fp.s_p(1j * eta, x, 1.0, 1.0)).imag / np.pi)
    direct = (etas[0] * f[1] - etas[1] * f[0]) / (etas[0] - etas[1])
    value, err = spectral_density(0.0, 1.0, eta_ladder=etas)
    assert abs(value - direct) <= 1e-10 * abs(direct)
    assert abs(err - abs(direct - f[1])) <= 1e-10 * abs(direct)


def _flip_s1(monkeypatch, re_s1, at=None):
    """Make every p = 1 call of s_p return real part ``re_s1``, at every z
    or only where Re z equals ``at``."""
    s_p = fp.s_p

    def flipped(z, x, p, alpha, quad=None):
        val = s_p(z, x, p, alpha, quad)
        hit = True if at is None else np.real(z) == at
        return np.where(hit, re_s1 + 1j * np.imag(val), val) if p == 1.0 else val
    monkeypatch.setattr(fp, "s_p", flipped)


@pytest.mark.parametrize("re_s1", [-2e-9, -1.0])
def test_density_branch_guard_raises(re_s1, monkeypatch):
    # Im(i s_1) = Re s_1 is pi times the density at that rung
    _flip_s1(monkeypatch, re_s1)
    with pytest.raises(FixedPointError, match="branch tracking"):
        spectral_density(0.5, 1.0)


def test_density_branch_guard_tolerates_round_off(monkeypatch):
    _flip_s1(monkeypatch, -0.5e-9)
    value, _ = spectral_density(0.5, 1.0)
    assert abs(value) < 1e-9


def test_density_branch_guard_names_the_failing_energy(monkeypatch):
    _flip_s1(monkeypatch, -1.0, at=0.5)
    with pytest.raises(FixedPointError, match=r"branch tracking .* z=\(0\.5\+0\.1j\)"):
        spectral_density(np.array([0.0, 0.5, 3.0]), 1.0)


def test_density_array_matches_scalar_calls():
    # energies of different heights: their continuations differ in length
    E = np.array([[0.0, 0.4, -1.3], [2.5, 5.0, 0.4]])
    value, err = spectral_density(E, 0.8)
    assert value.shape == err.shape == E.shape
    for i in np.ndindex(E.shape):
        v, e = spectral_density(float(E[i]), 0.8)
        assert isinstance(v, float) and isinstance(e, float)
        assert abs(value[i] - v) <= 1e-14 * abs(v)
        assert abs(err[i] - e) <= 1e-14 * max(abs(v), abs(e))


def test_stieltjes_mass_array_matches_scalar_calls():
    # endpoints broadcast (an array a against a scalar b); each interval's
    # mass is that of its own scalar call, which returns a float
    a = np.array([-0.1, 0.05, -2.0])
    mass = fp.stieltjes_mass(a, 0.1, 1.0, n_points=9)
    assert mass.shape == a.shape
    for ai, m in zip(a, mass):
        one = fp.stieltjes_mass(float(ai), 0.1, 1.0, n_points=9)
        assert isinstance(one, float)
        assert abs(m - one) <= 1e-14 * abs(one)


def test_density_matches_eigenvalue_histogram():
    # finite-size check: window mass from the density pipeline vs counting
    from levylab.matrix_model import build_levy_matrix, eigendecompose, eigenvalue_counting
    alpha = 1.0
    mass = fp.stieltjes_mass(-0.25, 0.25, alpha, n_points=9)
    fracs = []
    for seed in range(5):
        sd = eigendecompose(build_levy_matrix(1500, alpha, 900 + seed))
        fracs.append(eigenvalue_counting(sd, -0.25, 0.25) / 1500)
    assert abs(np.mean(fracs) - mass) < 0.02
