import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad, simpson as scipy_simpson
from scipy.special import gamma as gamma_fn

from levylab import quadrature
from levylab.quadrature import (
    V_TAIL,
    expit,
    gamma,
    gauss_jacobi,
    gauss_jacobi_left,
    gauss_legendre_panels,
    log_power_rule,
    power_rule,
    simpson,
    sin2_theta_rule,
    tanh_sinh,
)
from oracles import log_power_unit_rule_lumped


def test_tanh_sinh_plain():
    x, w, _, _ = tanh_sinh(0.0, 1.0, 61)
    assert abs(w.sum() - 1.0) < 1e-12
    assert abs(w @ np.exp(x) - (np.e - 1.0)) < 1e-12


def test_tanh_sinh_endpoint_singularity():
    x, w, da, db = tanh_sinh(0.0, 1.0, 81, endpoint_exponent=-0.75)
    assert abs(w @ da ** -0.75 - 4.0) < 1e-10
    # distances are cancellation-free versions of x - a and b - x
    assert np.all(da > 0) and np.all(db > 0)
    assert abs((da + db)[3] - 1.0) < 1e-14


def test_tanh_sinh_scales_one_cached_unit_rule():
    x0, w0, _, _ = tanh_sinh(0.0, 1.0, 41, endpoint_exponent=0.5)
    x, w, da, db = tanh_sinh(2.0, 5.0, 41, endpoint_exponent=0.5)
    assert np.array_equal(da, 3.0 * x0) and np.array_equal(x, 2.0 + 3.0 * x0)
    assert np.array_equal(w, w0 * 3.0)
    # callers get fresh arrays: writing to them leaves the cached rule alone
    w[:] = 0.0
    x[:] = 0.0
    again = tanh_sinh(2.0, 5.0, 41, endpoint_exponent=0.5)
    assert np.array_equal(again[0], 2.0 + 3.0 * x0) and np.array_equal(again[1], w0 * 3.0)
    with pytest.raises(ValueError):
        tanh_sinh(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        tanh_sinh(0.0, 1.0, 41, endpoint_exponent=-1.0)


def test_tanh_sinh_array_endpoint_is_one_rule_per_entry():
    a = np.array([0.0, -1.0, 2.5])
    b = np.array([[1.0, 0.3, 7.0], [1e-3, 4.0, 2.75]])
    got = tanh_sinh(a, b, 33, endpoint_exponent=-0.4)
    assert all(g.shape == b.shape + got[0].shape[-1:] for g in got)
    for i in np.ndindex(b.shape):
        one = tanh_sinh(float(a[i[-1]]), float(b[i]), 33, endpoint_exponent=-0.4)
        assert all(np.array_equal(g[i], o) for g, o in zip(got, one))


def test_gauss_jacobi_left_weight():
    x, w = gauss_jacobi_left(16, -0.5, 0.5)
    oracle = quad(lambda y: y ** -0.5 * np.cos(y), 0, 0.5)[0]
    assert abs(w @ np.cos(x) - oracle) < 1e-12


#: the exponents b of the Gauss-Jacobi rules the package builds: -alpha/2,
#: alpha/2 - 1 and alpha - 1, with 0 for the Gauss-Legendre rules
RULE_ALPHAS = (0.5, 0.7, 0.9, 1.0, 1.1, 1.2, 1.5, 1.8, 1.9, 1.95)
RULE_EXPONENTS = sorted({round(b, 12) for a in RULE_ALPHAS
                         for b in (-0.5 * a, 0.5 * a - 1.0, a - 1.0)} | {0.0})
#: node counts: Gauss-Legendre orders 8 and 12, n_y = 24 at quad_scale 0.75
#: and 1.5, the fast config's 20, kernel_k's n_jac 24 and ROW_N_Y 32
RULE_NODES = (8, 12, 18, 20, 24, 32, 36)


def _monomial_moments(b: float, count: int):
    """int_{-1}^1 (1 + x)^b x^k dx for k < count, by the stable recurrence
    (b + 1 + k) m_k = 2^(b+1) - k m_{k-1} (integration by parts)."""
    m = [2.0 ** (b + 1.0) / (b + 1.0)]
    for k in range(1, count):
        m.append((2.0 ** (b + 1.0) - k * m[-1]) / (b + 1.0 + k))
    return np.array(m)


@pytest.mark.parametrize("b", RULE_EXPONENTS)
def test_gauss_jacobi_matches_scipy(b):
    exact = _monomial_moments(b, 6)
    for n in RULE_NODES:
        x, w = gauss_jacobi(n, b)
        xs, ws = (scipy.special.roots_legendre(n) if b == 0.0
                  else scipy.special.roots_jacobi(n, 0.0, b))
        assert np.max(np.abs(x - xs)) <= 1e-15
        powers = x[:, None] ** np.arange(6)
        mine = np.max(np.abs(w @ powers - exact))
        scipys = np.max(np.abs(ws @ (xs[:, None] ** np.arange(6)) - exact))
        assert mine <= max(2.0 * scipys, 1e-14), (n, mine, scipys)


def test_gauss_legendre_rule_is_symmetric():
    for n in RULE_NODES:
        x, w = gauss_jacobi(n, 0.0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    with pytest.raises(ValueError, match="b > -1"):
        gauss_jacobi(8, -1.0)


@pytest.mark.parametrize("alpha", np.linspace(0.05, 1.95, 39))
def test_gamma_real_matches_scipy(alpha):
    for z in (0.5 * alpha, 1.0 - 0.5 * alpha, 1.0 + 0.5 * alpha, alpha):
        ref = gamma_fn(z)
        assert abs(gamma(float(z)) / ref - 1.0) <= 1e-15
        assert abs(gamma(complex(z)) / ref - 1.0) <= 1e-15


@pytest.mark.parametrize("alpha", [1.2 + 0.3j, 1.5 + 0.5j, 0.7 + 2j, 1.5 + 5j, 1.95 + 5j,
                                   1.9 + 10j, 1.5 + 20j, 1.95 + 0.3j, 1.2 + 0.05j])
def test_gamma_complex_matches_scipy(alpha):
    # the arguments c_alpha and c_prime form: alpha/2 and 1 -+ alpha/2
    for z in (0.5 * alpha, 1.0 - 0.5 * alpha, 1.0 + 0.5 * alpha):
        assert abs(gamma(z) / gamma_fn(z) - 1.0) <= 3e-14


def test_expit_matches_scipy():
    # the same formula; numpy's exp and the C library's differ by at most
    # one rounding (eps relative), and the sum and quotient round once
    # each on either side: 3 eps in all (2.2 eps measured, at x = -36.8
    # where exp(-x) nears 2^53)
    x = np.linspace(-40.0, 40.0, 300_001)
    ref = scipy.special.expit(x)
    assert np.all(np.abs(expit(x) - ref) <= 3.0 * np.finfo(float).eps * ref)
    assert expit(np.array([-800.0]))[0] == 0.0


def test_legendre_panels_and_breaks():
    # panels shrinking geometrically toward the sqrt singularity at 0
    breaks = np.concatenate([[0.0], 0.3 ** np.arange(6, -1, -1.0)])
    x, w = gauss_legendre_panels(breaks, order=10)
    assert abs(w @ np.sqrt(x) - 2.0 / 3.0) < 1e-7


@pytest.mark.parametrize("e", [-0.55, 0.3, -0.25 + 2.0j])
def test_sin2_theta_rule(e):
    # int_0^(pi/2) sin(2 theta)^e dtheta = sqrt(pi) Gamma((e+1)/2) / (2 Gamma(e/2+1))
    _, w = sin2_theta_rule(96, e)
    exact = np.sqrt(np.pi) * gamma_fn(0.5 * (e + 1)) / (2.0 * gamma_fn(0.5 * e + 1))
    assert abs(w.sum() - exact) < 1e-10 * abs(exact)


def test_power_rule_real_and_complex():
    # real exponents get the Gauss-Jacobi rule, complex ones the log rule
    for got, want in ((power_rule(-0.4, 0.5, 16), gauss_jacobi_left(16, -0.4, 0.5)),
                      (power_rule(-0.4 + 3j, 0.5, 16), log_power_rule(-0.4 + 3j, 0.5))):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("expo", [-0.4, -0.4 + 3j])
def test_power_rule_broadcasts_over_delta(expo):
    deltas = np.array([0.3, 0.5, 1.7])
    x, w = power_rule(expo, deltas, 16)
    for k, delta in enumerate(deltas):
        xs, ws = power_rule(expo, float(delta), 16)
        assert np.array_equal(x[k], xs)
        assert np.allclose(w[k], ws, rtol=1e-14, atol=0.0)


def test_legendre_panels_batch_rows():
    # a batch of break rows, the first padded with a zero-width panel
    breaks = np.array([[0.0, 0.5, 1.0, 1.0], [0.2, 0.4, 0.8, 1.6]])
    x, w = gauss_legendre_panels(breaks, order=6)
    assert x.shape == w.shape == (2, 18)
    for k in range(2):
        xs, ws = gauss_legendre_panels(breaks[k], order=6)
        assert np.array_equal(x[k], xs) and np.array_equal(w[k], ws)
    assert np.all(w[0, 12:] == 0) and np.all(x[0, 12:] == 1.0)


def test_log_power_rule_complex_exponent():
    e = -0.6 + 1.3j
    x, w = log_power_rule(e, 0.8)
    # exact moments of x^e against 1 and x on [0, 0.8]
    assert abs(w @ np.ones_like(x) - 0.8 ** (1 + e) / (1 + e)) < 1e-12
    assert abs(w @ x - 0.8 ** (2 + e) / (2 + e)) < 1e-12
    with pytest.raises(ValueError):
        log_power_rule(-1.2, 1.0)


#: kernel_k's two endpoint exponents and row_profile's far one at alpha =
#: 1.5+5i, two near Re expo = -1 (small and large Im expo), and -0.6+1.3i
UNIT_RULE_EXPOS = [-0.75 - 2.5j, -0.25 + 2.5j, -0.975 - 0.15j, -0.975 - 2.5j,
                   -0.6 + 1.3j, 0.5 + 5j]


def _tail(expo):
    """The unit rule's moment tail as ``(x, w, u1)``: its last 8 nodes
    u1 * (t_j + 1) / 2 for the Gauss-Legendre points t_j."""
    x, w = quadrature._log_power_unit_rule(expo)
    t = quadrature.cached_roots_jacobi(8, 0.0)[0]
    return x[-8:], w[-8:], 2.0 * x[-1] / (1.0 + t[-1])


@pytest.mark.parametrize("expo", UNIT_RULE_EXPOS)
def test_log_power_rule_keeps_the_panels_up_to_v_tail(expo):
    x, w = quadrature._log_power_unit_rule(expo)
    x_ref, w_ref = log_power_unit_rule_lumped(expo)
    panels = x.size - 8
    # the panels up to v1 are the reference's bit for bit; past v1 the
    # reference goes on where the rule has its tail
    assert np.array_equal(x[:panels], x_ref[:panels])
    assert np.array_equal(w[:panels], w_ref[:panels])
    v1 = -np.log(_tail(expo)[2])
    assert v1 >= V_TAIL - 1e-12 and x_ref[panels] < np.exp(-v1)
    assert np.all(x > 0) and x[panels:].max() < x[:panels].min()


@pytest.mark.parametrize("expo", UNIT_RULE_EXPOS)
def test_log_power_rule_tail_is_exact_on_polynomials(expo):
    x, w, u1 = _tail(expo)
    for k in range(8):
        exact = u1 ** (expo + k + 1.0) / (expo + k + 1.0)
        assert abs(w @ x ** k - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("expo, nodes", [(-0.75 - 2.5j, 72), (-0.25 + 2.5j, 80),
                                         (-0.975 - 0.15j, 16)])
def test_log_power_rule_node_counts(expo, nodes):
    assert quadrature._log_power_unit_rule(expo)[0].size == nodes


def test_log_power_rule_near_the_singular_limit():
    # Re expo -> -1 once ran the rule past x = 0 in floating point
    e = -0.975 - 2.5j
    x, w = log_power_rule(e, 0.3)
    assert np.all(x > 0)
    assert abs(w.sum() - 0.3 ** (1 + e) / (1 + e)) < 1e-12 * abs(0.3 ** (1 + e) / (1 + e))
    assert abs(w @ x - 0.3 ** (2 + e) / (2 + e)) < 1e-12


@pytest.mark.parametrize("n_points", [3, 9, 33])
def test_simpson_on_uniform_grids(n_points):
    # stieltjes_mass's grids, np.linspace(a, b, n, axis=-1), over arrays of
    # endpoints: exact on cubics, zero on an empty interval, and scipy's
    # uneven-grid rule up to the rounding of linspace's nodes, |x| eps / h
    # of sum |y| h
    eps = np.finfo(float).eps
    rng = np.random.default_rng(n_points)
    for _ in range(200):
        a = rng.uniform(-5.0, 0.0, 7)
        b = a + rng.uniform(0.01, 3.0, 7)
        b[3] = a[3]
        xs = np.linspace(a, b, n_points, axis=-1)
        h = (b - a) / (n_points - 1)
        cubic = np.polynomial.Polynomial(rng.standard_normal(4))
        ys = cubic(xs)
        antiderivative = cubic.integ()
        exact = antiderivative(b) - antiderivative(a)
        scale = (np.abs(ys).sum(axis=-1) * h + np.abs(antiderivative(a))
                 + np.abs(antiderivative(b)))
        got = simpson(ys, a, b)
        assert np.all(np.abs(got - exact) <= 64 * eps * scale)
        assert got[3] == 0.0
        ys = rng.standard_normal(xs.shape)
        gap = np.abs(simpson(ys, a, b) - scipy_simpson(ys, x=xs, axis=-1))
        x_over_h = np.maximum(np.abs(a), np.abs(b)) / np.where(h > 0, h, 1.0)
        node_rounding = eps * (1.0 + x_over_h)
        assert np.all(gap <= 4 * node_rounding * np.abs(ys).sum(axis=-1) * h)
    # scalar endpoints
    ys = rng.standard_normal(n_points)
    xs = np.linspace(-1.0, 2.0, n_points)
    assert abs(simpson(ys, -1.0, 2.0) - scipy_simpson(ys, x=xs)) <= 1e-14 * np.abs(ys).sum()
    for n in (1, 4):
        with pytest.raises(ValueError, match="odd number of points"):
            simpson(np.ones(n), 0.0, 1.0)
