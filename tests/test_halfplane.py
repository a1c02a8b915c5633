import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from levylab.fixed_point import FixedPointSolution, QuadratureConfig
from levylab.halfplane import (
    HALF_PI,
    HomogeneousFn,
    default_grid,
    dot,
    from_callable,
    power_of_one_dot,
)
from oracles import check_involution, partials_on_circle, sup_distance

finite = st.floats(-10, 10, allow_nan=False)
cplx = st.builds(complex, finite, finite)
quadrant = st.builds(complex, st.floats(0.01, 10), st.floats(0.01, 10))
right_half = st.builds(complex, st.floats(0.01, 10), finite)


def test_dot_closed_forms():
    h = 0.7 - 0.3j
    assert dot(h, 1.0) == h
    assert dot(h, 1j) == np.conj(h)
    # at e^{i pi/4} the product collapses to sqrt(2) Re h
    u = np.exp(1j * np.pi / 4)
    assert abs(dot(h, u) - np.sqrt(2) * h.real) < 1e-15


@given(cplx, cplx)
@settings(max_examples=200, deadline=None)
def test_dot_is_real_linear_in_u(h, u):
    v = 0.3 - 1.7j
    lhs = dot(h, u + v)
    assert abs(lhs - (dot(h, u) + dot(h, v))) <= 1e-12 * (1 + abs(lhs))


@given(st.builds(complex, st.floats(-5, 5), st.floats(-5, 5)), quadrant)
@settings(max_examples=200, deadline=None)
def test_dot_bounds(h, u):
    # |h| |i.u| <= |h.u| <= sqrt(2) |h| |u| on the first quadrant
    val = abs(dot(h, u))
    assert val <= np.sqrt(2) * abs(h) * abs(u) + 1e-12
    assert val >= abs(h) * abs(dot(1j, u)) - 1e-12


def test_involution_values():
    assert check_involution(1.0) == 1j
    u = np.exp(1j * np.pi / 4)
    assert abs(check_involution(u) - u) < 1e-15


@given(cplx)
@settings(max_examples=100, deadline=None)
def test_involution_is_involution(u):
    assert abs(check_involution(check_involution(u)) - u) < 1e-14


def test_grid_contract():
    g = default_grid(65)
    assert g[0] == 0.0 and g[-1] == HALF_PI and g[32] == 0.25 * np.pi
    assert np.all(np.diff(g) > 0)
    with pytest.raises(ValueError):
        default_grid(31)
    with pytest.raises(ValueError):
        default_grid(64)


def test_evaluation_contract():
    alpha = 1.3
    f = power_of_one_dot(0.5 * alpha, m=65)
    # grid points return stored values exactly
    assert np.array_equal(f.values_at_angle(f.thetas), f.values)
    # homogeneity is exact by construction of the evaluator
    j = 17
    u = np.exp(1j * f.thetas[j])
    assert abs(f(2.0 * u) - 2.0 ** f.beta * f.values[j]) < 1e-14
    with pytest.raises(ValueError):
        f(np.array([-1.0 + 0.5j]))
    with pytest.raises(ValueError):
        f(np.array([0.0j]))
    with pytest.raises(ValueError, match=re.escape("angle outside [0, pi/2]")):
        f.values_at_angle(np.array([-0.01]))
    with pytest.raises(ValueError, match=re.escape("angle outside [0, pi/2]")):
        f.values_at_angle(np.array([HALF_PI + 0.01]))


def test_construction_contract():
    grid = default_grid(33)
    with pytest.raises(ValueError, match="at least 33 points"):
        HomogeneousFn(0.5, grid[::2], np.ones(17))
    with pytest.raises(ValueError, match="values and grid shapes differ"):
        HomogeneousFn(0.5, grid, np.ones(32))
    with pytest.raises(ValueError, match="strictly increase from 0 to pi/2"):
        HomogeneousFn(0.5, grid[::-1], np.ones(33))


def test_offgrid_interpolation_error():
    # closed form (1.u)^(a/2) sampled at m=257, evaluated off-grid
    alpha = 1.1
    f = power_of_one_dot(0.5 * alpha, m=257)
    theta = np.linspace(0.0, HALF_PI, 1111)
    exact = (np.cos(theta) + np.sin(theta)) ** (0.5 * alpha)
    assert np.max(np.abs(f.values_at_angle(theta) - exact)) < 1e-6


def _spline_grids():
    # random grids whose gaps vary fourfold; as the ratio of the largest
    # gap to the smallest grows, both solves lose digits with it
    rng = np.random.default_rng(13)
    grids = [default_grid(33), default_grid(65)]
    for m in (33, 40, 65, 97):
        gaps = rng.uniform(0.25, 1.0, m - 1)
        grids.append(HALF_PI * np.concatenate([[0.0], np.cumsum(gaps)]) / gaps.sum())
        grids[-1][-1] = HALF_PI
    return grids


@pytest.mark.parametrize("k", range(6))
def test_spline_matches_scipy_not_a_knot(k):
    # old == new: the numpy spline against scipy's CubicSpline, complex
    # values, at random angles, at every knot and just outside both ends;
    # the tolerance is relative to the pointwise value or to the largest
    # value, since a value near 0 keeps only the absolute accuracy
    rng = np.random.default_rng(k)
    thetas = _spline_grids()[k]
    values = rng.standard_normal(thetas.size) + 1j * rng.standard_normal(thetas.size)
    f = HomogeneousFn(0.5, thetas, values)
    ref = CubicSpline(thetas, values)
    inside = np.concatenate([rng.uniform(0.0, HALF_PI, 20000), thetas])
    outside = np.array([-1e-3, -1e-9, HALF_PI + 1e-9, HALF_PI + 1e-3])
    for theta in (inside, outside):
        np.testing.assert_allclose(f._spline(theta), ref(theta), rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(values)))
    assert np.array_equal(f._spline(thetas[:-1]), values[:-1])
    u = 2.0 * np.exp(1j * inside)
    np.testing.assert_allclose(f(u), 2.0 ** 0.5 * ref(np.angle(u)), rtol=1e-14,
                               atol=1e-14 * np.max(np.abs(values)))


def test_weight_vanishes_at_central_angle():
    u = np.exp(1j * np.pi / 4)
    assert abs(dot(1j, u)) < 1e-15


def test_partials_match_finite_differences():
    alpha = 1.4
    f = from_callable(0.5 * alpha,
                      lambda t: (np.cos(t) + np.sin(t)) ** (0.5 * alpha)
                      * (1.0 + 0.2 * np.sin(2 * t)), m=257)
    thetas = np.linspace(0.1, HALF_PI - 0.1, 7)
    d1, di = partials_on_circle(f, thetas)
    h = 1e-3
    for k, t in enumerate(thetas):
        u = np.exp(1j * t)
        fd1 = (f(u + h) - f(u - h)) / (2 * h)
        fdi = (f(u + 1j * h) - f(u - 1j * h)) / (2 * h)
        assert abs(fd1 - d1[k]) < 1e-4 * max(1.0, abs(d1[k]))
        assert abs(fdi - di[k]) < 1e-4 * max(1.0, abs(di[k]))


def test_json_round_trip():
    # a homogeneous function is stored as the checkpoint's "gamma" entry
    f = power_of_one_dot(0.55, scale=1.0 + 0.5j, m=65)
    sol = FixedPointSolution(z=0.1j, gamma=f, residual=0.0, iterations=0, damping=0.5)
    text = json.dumps(sol.checkpoint(QuadratureConfig.fast()))
    g = FixedPointSolution.from_checkpoint(text).gamma
    assert g.beta == f.beta
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(g.thetas, f.thetas)
    assert sup_distance(f, g) == 0.0
    obj = json.loads(text)["gamma"]
    assert set(obj) == {"beta", "thetas", "values_re", "values_im"}
