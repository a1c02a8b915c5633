"""Quadrature rules shared by the integral-operator modules.

Three families cover every integral in this package:

* tanh-sinh (double-exponential) rules for algebraic endpoint
  singularities, among them the angle rule ``sin2_theta_rule``,
* ``power_rule`` for an exact endpoint weight ``x^expo``: Gauss-Jacobi
  for real expo, a log-substituted rule with complex weights otherwise,
* composite Gauss-Legendre panels for smooth integrands.

``simpson`` integrates values already sampled on a uniform grid.

The module needs numpy alone, so no process loads ``scipy.special`` or
``scipy.linalg``.  ``gauss_jacobi`` gives every Gauss rule (Golub-Welsch:
nodes from ``np.linalg.eigvalsh`` of the Jacobi matrix, each polished by
one Newton step on the three-term recurrence, weights from P_n' there).
``gamma`` is the package's Gamma function (``math.gamma`` on the real
axis, a shifted Stirling series off it) and ``expit`` the logistic map
of the tanh-sinh nodes.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np


def expit(x):
    """The logistic function 1 / (1 + exp(-x)); exp may overflow to inf,
    which gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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


def _jacobi_recurrence(n: int, b: float, x):
    """P_n and P_n' of the Jacobi family (0, b) at x, by the three-term
    recurrence and its derivative."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    for k in range(1, n + 1):
        # 2k(k+b)(2k+b-2) P_k = (2k+b-1)((2k+b)(2k+b-2) x - b^2) P_{k-1}
        #                       - 2(k-1)(k+b-1)(2k+b) P_{k-2}
        s = 2.0 * k + b
        den = 2.0 * k * (k + b) * (s - 2.0)
        if k == 1:
            # P_1 = 1 + (b + 2)(x - 1)/2; the general form is 0/0 at b = 0
            lin, const, back = 0.5 * (b + 2.0), -0.5 * b, 0.0
        else:
            lin = (s - 1.0) * s * (s - 2.0) / den
            const = -(s - 1.0) * b * b / den
            back = 2.0 * (k - 1.0) * (k + b - 1.0) * s / den
        p_prev, p = p, (lin * x + const) * p - back * p_prev
        d_prev, d = d, lin * p_prev + (lin * x + const) * d - back * d_prev
    return p, d


def gauss_jacobi(n: int, b: float):
    """n-node Gauss rule on [-1, 1] for the weight (1 + x)^b, b > -1.

    Golub & Welsch (Math. Comp. 23 (1969) 221) with scipy's polish: the
    nodes are the eigenvalues of the Jacobi matrix of the (0, b)
    polynomials, and each takes one Newton step on P_n.  The weights are
    1/((1 - x^2) P_n'^2) at the nodes, scaled to the weight's mass
    2^(b+1)/(b+1); scipy's 1/(P_{n-1} P_n') is the same quantity, but the
    recurrence loses digits to cancellation in P_{n-1} near x = -1 as b
    nears -1.  At b = 0 (Gauss-Legendre) nodes and weights are made
    exactly symmetric.
    """
    if not b > -1.0:
        raise ValueError("the weight (1 + x)^b needs b > -1")
    k = np.arange(1.0, n)
    diag = np.append(b / (2.0 + b), b * b / ((2.0 * k + b) * (2.0 * k + b + 2.0)))
    off = (2.0 / (2.0 * k + b) * np.sqrt(k * (k + b) / (2.0 * k + b + 1.0))
           * np.sqrt(k * (k + b) / (2.0 * k + b - 1.0)))
    # the first entry as scipy forms it, without the factor
    # sqrt((1 + b)/(1 + b)) that rounds; the nodes come out closer
    off[:1] = 2.0 / (2.0 + b) * np.sqrt((1.0 + b) / (3.0 + b))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p, d = _jacobi_recurrence(n, b, x)
    x -= p / d
    _, d = _jacobi_recurrence(n, b, x)
    w = 1.0 / ((1.0 - x) * (1.0 + x) * d * d)
    if b == 0.0:
        w = 0.5 * (w + w[::-1])
        x = 0.5 * (x - x[::-1])
    return x, w * (2.0 ** (b + 1.0) / (b + 1.0) / w.sum())


@lru_cache(maxsize=256)
def cached_roots_jacobi(n: int, b: float):
    """Gauss-Jacobi rule on [-1, 1] for the weight (1 + x)^b; every Gauss
    rule the package uses comes from here, Gauss-Legendre as b = 0."""
    return gauss_jacobi(n, b)


#: Stirling series coefficients B_2k / (2k (2k - 1)), k = 1..8
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0)


def gamma(z):
    """Gamma function of a real or complex scalar.

    Real z (or complex z on the real axis, returned as a complex) takes
    ``math.gamma``.  Otherwise Re z < 1/2 is reflected, Gamma(z) =
    pi / (sin(pi z) Gamma(1 - z)); the recurrence Gamma(z) = Gamma(z + 1)/z
    shifts z to |z| >= 17, where the 8-term Stirling series for
    log Gamma leaves out less than 1e-20.  Relative error near 1e-14 at the arguments
    the package forms.
    """
    if not isinstance(z, complex):
        return math.gamma(z)
    if z.imag == 0.0:
        return complex(math.gamma(z.real))
    if z.real < 0.5:
        return cmath.pi / (cmath.sin(cmath.pi * z) * gamma(1.0 - z))
    shift = 1.0
    while abs(z) < 17.0:
        shift *= z
        z += 1.0
    inv, inv_sq = 1.0 / z, 1.0 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * inv_sq + c
    log_g = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2.0 * math.pi) + series * inv
    return cmath.exp(log_g) / shift


def gauss_jacobi_left(n: int, exponent: float, b: float):
    """Nodes/weights for ``int_0^b x^exponent f(x) dx = sum w f(x)``."""
    x, w = cached_roots_jacobi(n, exponent)
    half = 0.5 * b
    nodes = half * (x + 1.0)
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
        return gauss_jacobi_left(n, expo.real, delta)
    return log_power_rule(expo, delta)


#: v = -log(x / delta) past which ``log_power_rule`` ends its panels: from the
#: first panel break at or past it down to x = 0 one moment rule closes the tail
V_TAIL = 8.0
#: panel width of the log-power rule, in units of 1 / (1 + Re expo + |Im expo|)
LOG_POWER_STEP = 3.0


def _moment_tail(expo: complex, u1: float, order: int):
    """Rule for ``int_0^u1 u**expo phi(u) du``, exact for polynomial phi of
    degree below ``order``: the Gauss-Legendre nodes on [0, u1] with weights
    from the modified moments mu_k = int_0^1 t^expo P_k(2t - 1) dt
    (Piessens & Branders, BIT 13 (1973) 443), in closed form
    prod_{j<k} (expo - j) / prod_{j=1..k+1} (expo + j)."""
    x, w = cached_roots_jacobi(order, 0.0)
    k = np.arange(order)
    mu = np.cumprod(np.concatenate([[1.0 / (1.0 + expo)],
                                    (expo - k[:-1]) / (expo + k[1:] + 1.0)]))
    # Gauss-Legendre is exact on the products of the Lagrange basis with
    # P_k, so the interpolatory weights are w_j/2 sum_k (2k+1) mu_k P_k(x_j)
    legendre = np.polynomial.legendre.legvander(x, order - 1)
    weights = 0.5 * w * (legendre @ ((2 * k + 1) * mu))
    return 0.5 * u1 * (x + 1.0), u1 ** (1.0 + expo) * weights


@lru_cache(maxsize=128)
def _log_power_unit_rule(expo: complex):
    # the substituted integrand decays like exp(-(1 + Re expo) v); the
    # order-8 panels are laid out to where that reaches exp(-38) and kept
    # up to the first break v1 at or past V_TAIL, and past v1 the moment
    # rule takes x in [0, exp(-v1)] on the same order
    re = expo.real
    freq = abs(expo.imag)
    span = 38.0 / (1.0 + re)
    step = LOG_POWER_STEP / (1.0 + re + freq)
    panels = max(4, int(np.ceil(span / step)))
    breaks = np.linspace(0.0, span, panels + 1)
    breaks = breaks[:np.searchsorted(breaks, V_TAIL) + 1]
    v, gw = gauss_legendre_panels(breaks, 8)
    w = np.exp(-(1.0 + expo) * v) * gw
    x_tail, w_tail = _moment_tail(expo, np.exp(-breaks[-1]), 8)
    return np.append(np.exp(-v), x_tail), np.append(w, w_tail)


def log_power_rule(expo: complex, delta: float):
    """Rule for ``int_0^delta x**expo phi(x) dx`` with complex expo.

    Substituting x = delta*exp(-v) turns the complex power into a
    decaying oscillatory exponential in v, resolved by composite
    Gauss-Legendre with oscillation-aware panel count; the algebraic
    endpoint behavior (including its log oscillation) sits entirely in
    the complex weights, so phi only needs to be smooth on [0, delta].
    The panels end at the first break v1 at or past ``V_TAIL`` = 8; the
    rest, x in [0, delta*exp(-v1)], is one 8-node product rule with
    exact weights for x**expo times a polynomial of degree below 8.  Every
    caller's phi is analytic on a disc of radius at least delta/2 about
    x = 0, so on that interval it is such a polynomial to round-off and
    the tail adds no error of its own.
    The rule keeps 72 nodes at expo -0.75-2.5i and 80 at -0.25+2.5i.
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
    x, w = cached_roots_jacobi(order, 0.0)
    breaks = np.asarray(breaks, dtype=float)
    lo = breaks[..., :-1, None]
    hi = breaks[..., 1:, None]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    rows = breaks.shape[:-1] + (-1,)
    nodes = (mid + half * x).reshape(rows)
    weights = (half * w).reshape(rows)
    return nodes, weights


def simpson(y, a, b):
    """Composite Simpson rule over the last axis of ``y``, sampled at an
    odd number (at least 3) of equally spaced points from a to b; arrays
    of endpoints broadcast against the leading axes of ``y``."""
    n = np.shape(y)[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson's rule needs an odd number of points, at least 3")
    h = np.expand_dims(np.subtract(b, a) / (n - 1), -1)
    return np.sum(h / 3.0 * (y[..., :-2:2] + 4.0 * y[..., 1::2] + y[..., 2::2]), axis=-1)
