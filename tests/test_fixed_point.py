import json

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

import levylab.fixed_point as fp
from levylab.halfplane import HomogeneousFn, default_grid, sup_distance
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
    radial_integral,
    radial_integral_rotated,
    s_p,
    solve_gamma_star,
    solve_tilde_gamma,
    spectral_density,
)
from levylab.matrix_model import empirical_gamma


def test_constants():
    assert abs(c_alpha(1.0) - 1.0 / (np.sqrt(2) * np.pi)) < 1e-14
    assert abs(a_zero(1.0) - np.sqrt(2)) < 1e-14


def test_radial_integral_closed_forms():
    alpha = 1.2
    # pure exponential: int r^(b-1) e^{-rH} = Gamma(b) H^-b
    v = radial_integral(1.7, np.asarray(0.8 + 0.3j), np.asarray(0.0j), alpha)
    exact = gamma_fn(1.7) * (0.8 + 0.3j) ** -1.7
    assert abs(v - exact) < 1e-10
    # pure stretched exponential: (2/a) Gamma(2b/a) X^(-2b/a)
    v = radial_integral(0.6, np.asarray(0.0j), np.asarray(1.5 + 0.0j), alpha)
    exact = (2 / alpha) * gamma_fn(1.2 / alpha) * 1.5 ** (-1.2 / alpha)
    assert abs(v - exact) < 1e-10
    with pytest.raises(QuadratureError):
        radial_integral(1.0, np.asarray(0.0j), np.asarray(0.0j), alpha)


def test_radial_envelope_debug_mode():
    fp.DEBUG_BOUNDS = True
    try:
        H = np.array([0.5 + 1.0j, 2.0 + 0.0j])
        X = np.array([0.7 - 0.2j, 0.1 + 0.1j])
        radial_integral(0.9, H, X, 1.3)
    finally:
        fp.DEBUG_BOUNDS = False


def test_rotated_integral_matches_plain():
    alpha = 0.9
    for h, x in [(0.5 + 0.2j, 1.0 + 0.0j), (1.0 - 0.4j, 0.3 + 0.3j)]:
        a = radial_integral_rotated(1.0, h, x, alpha)
        b = complex(radial_integral(1.0, np.asarray(h),
                                    np.asarray(x, dtype=complex), alpha))
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
    manual = np.exp(1j * phi2) * complex(radial_integral(
        1.0, np.asarray(h * rot),
        np.asarray(x * rot ** (alpha / 2), dtype=complex), alpha, n_s=193))
    assert abs(got - manual) < 1e-7 * (1 + abs(manual))
    aliased = complex(radial_integral(1.0, np.asarray(h),
                                      np.asarray(x, dtype=complex), alpha))
    assert abs(aliased - got) > 100 * abs(got - manual)


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


def test_solver_monotone_residuals_small_z():
    # empirical contraction under damping 0.5 for small |z|
    for alpha in (0.5, 1.0, 1.5):
        sol = solve_gamma_star(0.1j, alpha, tol=1e-8, damping=0.5,
                               quad=QuadratureConfig.fast())
        resid = np.array(sol.residual_history)
        assert np.all(np.diff(resid) < 1e-12)


def test_checkpoint_round_trip(tmp_path):
    sol = solve_gamma_star(0.0, 1.2, tol=1e-6, quad=QuadratureConfig.fast())
    text = json.dumps(sol.checkpoint(QuadratureConfig.fast()))
    back = fp.FixedPointSolution.from_checkpoint(text)
    assert back.z == sol.z
    assert np.array_equal(back.gamma.values, sol.gamma.values)
    assert back.residual == sol.residual


def test_scalar_solver_matches_functional_at_one():
    alpha = 1.0
    sols = fp.solve_gamma_path([0.05j, 0.1j], alpha, tol=1e-9,
                               quad=QuadratureConfig.fast())
    x_func = sols[-1].gamma.values_at_angle(np.array([0.0]))[0]
    x_scalar = solve_tilde_gamma(0.1j, alpha)
    assert abs(x_func - x_scalar) < 1e-6


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
    sols = fp.solve_gamma_path([0.05j, 0.1j], alpha, tol=1e-8,
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
    cache = {}
    f0 = spectral_density(0.0, 1.0, cache=cache)
    assert 0.25 < f0 < 0.4  # bounded density, same scale as the semicircle
    assert abs(spectral_density(0.4, 1.0, cache=cache)
               - spectral_density(-0.4, 1.0, cache=cache)) < 1e-6
    with pytest.raises(ValueError):
        spectral_density(0.0, 1.0, eta_ladder=(0.1,))


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
