"""Quadrature rules shared by the integral-operator modules.

Three families cover every integral in this package:

* tanh-sinh (double-exponential) rules for algebraic endpoint
  singularities, among them the angle rule ``sin2_theta_rule``,
* ``power_rule`` for an exact endpoint weight ``x^expo``: Gauss-Jacobi
  for real expo, a log-substituted rule with complex weights otherwise,
* composite Gauss-Legendre panels for smooth integrands.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import expit, roots_jacobi, roots_legendre


@lru_cache(maxsize=128)
def _unit_tanh_sinh(n: int, endpoint_exponent: float):
    """The tanh-sinh rule on (0, 1) as read-only ``(sp, sm, weights)``."""
    if n < 5:
        raise ValueError("tanh-sinh rule needs at least 5 nodes")
    lam = 1.0 + endpoint_exponent
    if lam <= 0:
        raise ValueError("endpoint exponent must exceed -1")
    mass = 35.0 / lam
    t_max = float(np.arcsinh(2.0 * mass / np.pi))
    t_base = float(np.arcsinh(70.0 / np.pi))
    if t_max > t_base:
        # keep the node spacing of the lam = 1 rule when the range widens
        n = int(np.ceil(n * t_max / t_base)) | 1
    t = np.linspace(-t_max, t_max, n)
    h = t[1] - t[0]
    u = 0.5 * np.pi * np.sinh(t)
    sp = expit(2.0 * u)
    sm = expit(-2.0 * u)
    weights = h * 0.5 * np.pi * np.cosh(t) * 2.0 * sp * sm
    for arr in (sp, sm, weights):
        arr.flags.writeable = False
    return sp, sm, weights


def tanh_sinh(a: float, b: float, n: int, endpoint_exponent: float = 0.0):
    """Tanh-sinh rule on (a, b) with n nodes.

    ``endpoint_exponent`` is the worst algebraic exponent lam > -1 such
    that the integrand behaves like ``dist^lam`` at an endpoint; the
    truncation range is widened so the transformed tail of such an
    integrand is below ~1e-13.  The unit rule is built once per
    ``(n, endpoint_exponent)`` and scaled to the width.

    Returns ``(nodes, weights, dist_a, dist_b)`` where the dist arrays
    are the node distances to each endpoint, computed without
    cancellation (needed to evaluate singular factors accurately).
    Array endpoints give one rule per entry: the returned arrays have
    shape ``(b - a).shape + (k,)``.  Scalar endpoints take the scalar
    arithmetic unchanged.
    """
    sp, sm, unit = _unit_tanh_sinh(n, endpoint_exponent)
    width = b - a
    if np.ndim(width):
        a = np.asarray(a, dtype=float)[..., None]
        width = np.asarray(width, dtype=float)[..., None]
    dist_a = width * sp
    return a + dist_a, unit * width, dist_a, width * sm


def sin2_theta_rule(n: int, exponent):
    """Tanh-sinh angles on (0, pi/2) with sin(2 theta)^exponent folded in.

    sin(2 theta) is formed from the endpoint distances as
    2 sin(d0) sin(d1); the naive expression loses all accuracy at the
    double-exponentially deep nodes near pi/2.  The exponent may be
    complex; the endpoint width follows its real part.
    Returns ``(thetas, weights)``.
    """
    th, wt, d0, d1 = tanh_sinh(0.0, 0.5 * np.pi, n,
                               endpoint_exponent=complex(exponent).real)
    return th, wt * (2.0 * np.sin(d0) * np.sin(d1)) ** exponent


@lru_cache(maxsize=64)
def _gl(n: int):
    return roots_legendre(n)


@lru_cache(maxsize=256)
def cached_roots_jacobi(n: int, a: float, b: float):
    return roots_jacobi(n, a, b)


def gauss_jacobi_left(n: int, exponent: float, a: float, b: float):
    """Nodes/weights for ``int_a^b (x-a)^exponent f(x) dx = sum w f(x)``."""
    x, w = cached_roots_jacobi(n, 0.0, exponent)
    half = 0.5 * (b - a)
    nodes = a + half * (x + 1.0)
    weights = w * half ** (1.0 + exponent)
    return nodes, weights


def power_rule(expo, delta, n: int):
    """Rule for ``int_0^delta x**expo phi(x) dx``, phi smooth: n-node
    Gauss-Jacobi for real expo, ``log_power_rule`` for complex expo.

    An array ``delta`` gives one rule per entry: nodes and weights have
    shape ``delta.shape + (k,)``.  A scalar ``delta`` takes the scalar
    arithmetic of the two rules unchanged.
    """
    expo = complex(expo)
    if np.ndim(delta):
        delta = np.asarray(delta, dtype=float)[..., None]
    if expo.imag == 0.0:
        return gauss_jacobi_left(n, expo.real, 0.0, delta)
    return log_power_rule(expo, delta)


@lru_cache(maxsize=128)
def _log_power_unit_rule(expo: complex, order: int, budget: float):
    re = expo.real
    freq = abs(expo.imag)
    span = budget / (1.0 + re)
    step = 3.0 / (1.0 + re + freq)
    panels = max(4, int(np.ceil(span / step)))
    v, gw = gauss_legendre_panels(np.linspace(0.0, span, panels + 1), order)
    x = np.exp(-v)
    w = np.exp(-(1.0 + expo) * v) * gw
    return x, w


def log_power_rule(expo: complex, delta: float, order: int = 8,
                   budget: float = 38.0):
    """Rule for ``int_0^delta x**expo phi(x) dx`` with complex expo.

    Substituting x = delta*exp(-v) turns the complex power into a
    decaying oscillatory exponential in v, resolved by composite
    Gauss-Legendre with oscillation-aware panel count; the algebraic
    endpoint behavior (including its log oscillation) sits entirely in
    the complex weights, so phi only needs to be smooth on [0, delta].
    """
    expo = complex(expo)
    if expo.real <= -1:
        raise ValueError("need Re(expo) > -1")
    x1, w1 = _log_power_unit_rule(expo, order, budget)
    return delta * x1, delta ** (1.0 + expo) * w1


def gauss_legendre_panels(breaks, order: int = 12):
    """Composite Gauss-Legendre rule over consecutive panels.

    ``breaks`` may be a batch of break rows (last axis: the breaks of one
    rule); nodes and weights then keep the leading axes, panel by panel.
    A zero-width panel contributes nodes with zero weight.
    """
    x, w = _gl(order)
    breaks = np.asarray(breaks, dtype=float)
    lo = breaks[..., :-1, None]
    hi = breaks[..., 1:, None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    rows = breaks.shape[:-1] + (-1,)
    nodes = (mid + half * x).reshape(rows)
    weights = (half * w).reshape(rows)
    return nodes, weights

