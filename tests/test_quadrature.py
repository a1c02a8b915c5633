import numpy as np
import pytest
from scipy.integrate import quad, simpson as scipy_simpson
from scipy.special import gamma as gamma_fn

from levylab import quadrature
from levylab.quadrature import (
    V_FLAT,
    gauss_jacobi_left,
    gauss_legendre_panels,
    log_power_rule,
    power_rule,
    simpson,
    sin2_theta_rule,
    tanh_sinh,
)


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
    x, w = gauss_jacobi_left(16, -0.5, 0.0, 0.5)
    oracle = quad(lambda y: y ** -0.5 * np.cos(y), 0, 0.5)[0]
    assert abs(w @ np.cos(x) - oracle) < 1e-12


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
    for got, want in ((power_rule(-0.4, 0.5, 16), gauss_jacobi_left(16, -0.4, 0.0, 0.5)),
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


@pytest.mark.parametrize("expo", [-0.75 - 2.5j, -0.25 + 2.5j, -0.975 - 0.15j,
                                  -0.975 - 2.5j, -0.6 + 1.3j])
def test_log_power_rule_lumps_its_flat_tail(expo, fresh_unit_rules, monkeypatch):
    unit_rule = quadrature._log_power_unit_rule
    x, w = unit_rule(expo)
    assert x.min() == np.exp(-V_FLAT) and np.all(x > 0)
    monkeypatch.setattr(quadrature, "V_FLAT", np.inf)
    unit_rule.cache_clear()
    x_all, w_all = unit_rule(expo)
    keep = x.size - 1
    assert x_all.size > x.size and x_all.min() < np.exp(-V_FLAT)
    # the rule up to V_FLAT is untouched, and the lumped node carries the rest
    assert np.array_equal(x[:keep], x_all[:keep]) and np.array_equal(w[:keep], w_all[:keep])
    assert abs(w.sum() - w_all.sum()) <= 1e-15 * abs(w_all.sum())


def test_log_power_rule_within_the_flat_limit_is_unchanged(fresh_unit_rules, monkeypatch):
    # span 38 / 1.5 < V_FLAT: nothing to lump
    unit_rule = quadrature._log_power_unit_rule
    x, w = unit_rule(0.5 + 5j)
    monkeypatch.setattr(quadrature, "V_FLAT", np.inf)
    unit_rule.cache_clear()
    x_all, w_all = unit_rule(0.5 + 5j)
    assert x.size == 440 and np.array_equal(x, x_all) and np.array_equal(w, w_all)


def test_log_power_rule_near_the_singular_limit():
    # Re expo -> -1 once ran the rule past x = 0 in floating point
    e = -0.975 - 2.5j
    x, w = log_power_rule(e, 0.3)
    assert np.all(x > 0)
    assert abs(w.sum() - 0.3 ** (1 + e) / (1 + e)) < 1e-12 * abs(0.3 ** (1 + e) / (1 + e))
    assert abs(w @ x - 0.3 ** (2 + e) / (2 + e)) < 1e-12


@pytest.mark.parametrize("n_points", [3, 9, 33])
def test_simpson_is_scipy_simpson_bit_for_bit(n_points):
    # old == new on stieltjes_mass's grids: np.linspace(a, b, n, axis=-1)
    # with scalar endpoints and with arrays of endpoints
    rng = np.random.default_rng(n_points)
    for _ in range(200):
        a, b = np.sort(rng.uniform(-5.0, 5.0, 2))
        xs = np.linspace(a, b, n_points, axis=-1)
        ys = rng.standard_normal(n_points)
        assert simpson(ys, xs) == scipy_simpson(ys, x=xs, axis=-1)
        a = rng.uniform(-5.0, 0.0, 7)
        b = a + rng.uniform(0.01, 3.0, 7)
        b[3] = a[3]  # an empty interval has zero mass
        xs = np.linspace(a, b, n_points, axis=-1)
        ys = rng.standard_normal(xs.shape)
        assert np.array_equal(simpson(ys, xs), scipy_simpson(ys, x=xs, axis=-1))
    with pytest.raises(ValueError):
        simpson(np.ones(4), np.arange(4.0))
