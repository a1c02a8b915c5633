"""Calculus of positively homogeneous functions on the first quadrant.

The central object is a degree-beta homogeneous complex function on the
closed cone ``K1+ = {arg u in [0, pi/2]}``, stored through its values on
an angular grid of the unit quarter-circle.  The module also provides
the skewed product ``h.u`` that the fixed-point machinery pairs with
those functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HALF_PI = 0.5 * np.pi


def dot(h, u):
    """Skewed product ``h.u = Re(u) h + Im(u) conj(h)``.

    Equals ``(Re u + Im u) Re h + i (Re u - Im u) Im h``; real-linear in
    both arguments and designed so that ``Re(h.u) >= 0`` whenever h and u
    both lie in the right half-plane / first quadrant.
    """
    h = np.asarray(h)
    u = np.asarray(u)
    return u.real * h + u.imag * np.conj(h)


def default_grid(m: int = 65) -> np.ndarray:
    """Chebyshev-Lobatto angles on [0, pi/2], clustered at both ends.

    The grid always contains 0, pi/4 and pi/2 exactly (m must be odd so
    the midpoint lands on pi/4, where the downstream norm weight
    vanishes and several closed-form values live).
    """
    if m < 33:
        raise ValueError("angular grid needs at least 33 points")
    if m % 2 == 0:
        raise ValueError("angular grid size must be odd so pi/4 is a node")
    j = np.arange(m)
    theta = 0.25 * np.pi * (1.0 - np.cos(np.pi * j / (m - 1)))
    theta[0] = 0.0
    theta[m // 2] = 0.25 * np.pi
    theta[-1] = HALF_PI
    return theta


def not_a_knot_coefficients(x, y):
    """Horner coefficients of the not-a-knot cubic spline through (x, y).

    Row k, entry j is the coefficient of ``(t - x[j])**(3 - k)`` on
    ``[x[j], x[j+1]]``.  The slopes solve the (n x n) system of
    ``scipy.interpolate.CubicSpline``'s not-a-knot condition: the third
    derivative is continuous at x[1] and x[-2].
    """
    n = x.size
    h = np.diff(x)
    d = np.diff(y) / h
    a = np.zeros((n, n))
    b = np.empty(n, dtype=y.dtype)
    i = np.arange(1, n - 1)
    a[i, i - 1] = h[1:]
    a[i, i] = 2.0 * (h[:-1] + h[1:])
    a[i, i + 1] = h[:-1]
    b[1:-1] = 3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:])
    w0, w1 = x[2] - x[0], x[-1] - x[-3]
    a[0, :2] = h[1], w0
    b[0] = ((h[0] + 2.0 * w0) * h[1] * d[0] + h[0] ** 2 * d[1]) / w0
    a[-1, -2:] = w1, h[-2]
    b[-1] = (h[-1] ** 2 * d[-2] + (2.0 * w1 + h[-1]) * h[-2] * d[-1]) / w1
    s = np.linalg.solve(a, b)
    t = (s[:-1] + s[1:] - 2.0 * d) / h
    return np.array([t / h, (d - s[:-1]) / h - t, s[:-1], y[:-1]])


@dataclass(frozen=True)
class HomogeneousFn:
    """Degree-beta homogeneous function sampled on an angular grid.

    Off-grid evaluation uses the not-a-knot cubic spline in the angle
    through the grid values (``not_a_knot_coefficients``); homogeneity
    ``g(lam*u) = lam**beta * g(u)`` is exact by construction of the
    evaluator.
    """

    beta: float
    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if thetas.ndim != 1 or thetas.size < 33:
            raise ValueError("need a 1-d angular grid with at least 33 points")
        if values.shape != thetas.shape:
            raise ValueError("values and grid shapes differ")
        if not (np.all(np.diff(thetas) > 0)
                and abs(thetas[0]) < 1e-15
                and abs(thetas[-1] - HALF_PI) < 1e-12):
            raise ValueError("grid must strictly increase from 0 to pi/2")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_coef", not_a_knot_coefficients(thetas, values))

    # -- evaluation --------------------------------------------------

    def _spline(self, theta):
        """The spline at the angles theta, by Horner's rule; a knot gives
        its value exactly (except the last), and the end cubics extend
        past the grid."""
        j = np.searchsorted(self.thetas[1:-1], theta, "right")
        dx = theta - self.thetas[j]
        c3, c2, c1, c0 = self._coef
        out = c3[j] * dx
        out += c2[j]
        out *= dx
        out += c1[j]
        out *= dx
        out += c0[j]
        return out

    def values_at_angle(self, theta):
        """Values g(e^{i theta}) for angles in [0, pi/2].

        Grid hits give the stored values (the spline misses only the last).
        """
        theta = np.asarray(theta, dtype=float)
        if np.any(theta < -1e-12) or np.any(theta > HALF_PI + 1e-12):
            raise ValueError("angle outside [0, pi/2]")
        clipped = np.clip(theta, 0.0, HALF_PI)
        return np.where(clipped == self.thetas[-1], self.values[-1],
                        self._spline(clipped))

    def __call__(self, u):
        """Evaluate g at points of the closed first quadrant (u != 0)."""
        u = np.asarray(u, dtype=complex)
        r = np.abs(u)
        if np.any(r == 0.0):
            raise ValueError("cannot evaluate a homogeneous function at 0")
        if np.any(u.real < -1e-12 * r) or np.any(u.imag < -1e-12 * r):
            raise ValueError("point outside the closed first quadrant")
        ang = np.arctan2(np.maximum(u.imag, 0.0), np.maximum(u.real, 0.0))
        return r ** self.beta * self._spline(ang)

    # -- cone membership ---------------------------------------------

    def min_real_part(self) -> float:
        return float(np.min(self.values.real))


def from_callable(beta: float, fn, m: int = 65) -> HomogeneousFn:
    """Sample a function of the angle onto the default grid."""
    thetas = default_grid(m)
    return HomogeneousFn(beta, thetas, np.asarray(fn(thetas), dtype=complex))


def power_of_one_dot(beta: float, scale: complex = 1.0, m: int = 65) -> HomogeneousFn:
    """The function ``u -> scale * (1.u)**beta = scale*(cos+sin)**beta``."""
    return from_callable(beta, lambda t: scale * (np.cos(t) + np.sin(t)) ** beta, m)
