"""Quadrature rules shared by the integral-operator modules.

Three families cover every integral in this package:

* tanh-sinh (double-exponential) rules for algebraic endpoint
  singularities, among them the angle rule ``sin2_theta_rule``,
* ``power_rule`` for an exact endpoint weight ``x^expo``: Gauss-Jacobi
  for real expo, a log-substituted rule with complex weights otherwise,
* composite Gauss-Legendre panels for smooth integrands.

``simpson`` integrates values already sampled on a grid.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import expit, roots_jacobi, roots_legendre


def _unit_tanh_sinh(n: int, endpoint_exponent: float):
    """The tanh-sinh rule on (0, 1) as ``(sp, sm, weights)``."""
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
    return sp, sm, weights


def tanh_sinh(a: float, b: float, n: int, endpoint_exponent: float = 0.0):
    """Tanh-sinh rule on (a, b) with n nodes.

    ``endpoint_exponent`` is the worst algebraic exponent lam > -1 such
    that the integrand behaves like ``dist^lam`` at an endpoint; the
    truncation range is widened so the transformed tail of such an
    integrand is below ~1e-13.  The unit rule is built on every call
    (a few tens of microseconds) and scaled to the width.

    Returns ``(nodes, weights, dist_a, dist_b)`` where the dist arrays
    are the node distances to each endpoint, computed without
    cancellation (needed to evaluate singular factors accurately).
    Array endpoints give one rule per entry: the returned arrays have
    shape ``(b - a).shape + (k,)``.  Scalar and array endpoints share one
    path, the same multiply and add per node.
    """
    sp, sm, unit = _unit_tanh_sinh(n, endpoint_exponent)
    width = b - a
    dist_a = np.multiply.outer(width, sp)
    return (np.expand_dims(a, -1) + dist_a, np.multiply.outer(width, unit),
            dist_a, np.multiply.outer(width, sm))


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
    shape ``delta.shape + (k,)``.  A scalar ``delta`` keeps Python's
    ``pow`` in the weights; numpy's differs in the last bits and moved
    ``kernel-scan``'s ``det_re`` by 3.9e-9 relative.
    """
    expo = complex(expo)
    if np.ndim(delta):
        delta = np.asarray(delta, dtype=float)[..., None]
    if expo.imag == 0.0:
        return gauss_jacobi_left(n, expo.real, 0.0, delta)
    return log_power_rule(expo, delta)


#: v = -log(x / delta) beyond which phi(x) is phi(0) to round-off for
#: every caller (x / delta <= 4.2e-18); ``log_power_rule`` lumps its nodes
#: past it into one
V_FLAT = 40.0
#: panel width of the log-power rule, in units of 1 / (1 + Re expo + |Im expo|)
LOG_POWER_STEP = 3.0


@lru_cache(maxsize=128)
def _log_power_unit_rule(expo: complex):
    # the substituted integrand decays like exp(-(1 + Re expo) v); the rule
    # stops where that reaches exp(-38), in order-8 panels
    re = expo.real
    freq = abs(expo.imag)
    span = 38.0 / (1.0 + re)
    step = LOG_POWER_STEP / (1.0 + re + freq)
    panels = max(4, int(np.ceil(span / step)))
    v, gw = gauss_legendre_panels(np.linspace(0.0, span, panels + 1), 8)
    w = np.exp(-(1.0 + expo) * v) * gw
    flat = v > V_FLAT
    if flat.any():
        v = np.append(v[~flat], V_FLAT)
        w = np.append(w[~flat], w[flat].sum())
    return np.exp(-v), w


def log_power_rule(expo: complex, delta: float):
    """Rule for ``int_0^delta x**expo phi(x) dx`` with complex expo.

    Substituting x = delta*exp(-v) turns the complex power into a
    decaying oscillatory exponential in v, resolved by composite
    Gauss-Legendre with oscillation-aware panel count; the algebraic
    endpoint behavior (including its log oscillation) sits entirely in
    the complex weights, so phi only needs to be smooth on [0, delta].
    The v range ends where the weight has decayed by exp(-38), which for
    Re expo near -1 lies far past x = 0 in floating point.  Beyond
    v = ``V_FLAT`` phi(x) equals phi(0) to round-off, so the nodes there
    become one node at x = delta*exp(-V_FLAT) that carries their summed
    weight; the panels up to it are unchanged.
    """
    expo = complex(expo)
    if expo.real <= -1:
        raise ValueError("need Re(expo) > -1")
    x1, w1 = _log_power_unit_rule(expo)
    return delta * x1, delta ** (1.0 + expo) * w1


def gauss_legendre_panels(breaks, order: int):
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


def _ratio(a, b):
    """a / b, and 0 where b is 0."""
    return np.divide(a, b, out=np.zeros(np.shape(b)), where=b != 0)


def simpson(y, x):
    """Composite Simpson rule over the last axis, for an odd number of
    ordered, possibly unevenly spaced points ``x``; an interval of zero
    width has zero integral.

    The arithmetic is that of ``scipy.integrate.simpson`` for an odd
    number of points, operation for operation, so the two agree bit for
    bit.
    """
    if np.shape(y)[-1] % 2 == 0:
        raise ValueError("Simpson's rule needs an odd number of points")
    h = np.diff(x, axis=-1)
    h0, h1 = h[..., 0::2], h[..., 1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _ratio(h0, h1)
    tmp = hsum / 6.0 * (y[..., 0:-2:2] * (2.0 - _ratio(1.0, h0divh1))
                        + y[..., 1::2] * (hsum * _ratio(hsum, hprod))
                        + y[..., 2::2] * (2.0 - h0divh1))
    return np.sum(tmp, axis=-1)
