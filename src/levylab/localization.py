"""Eigenvector (de)localization statistics over spectral windows.

For a window I and the set of eigenvectors with eigenvalues in I, the
module computes the averaged coordinate profile P_I, the concentration
scalar Q_I = n * sum_k P_I(k)^2, the inverse participation ratio Pi_I,
the fractional Renyi-type statistic n^(p-1) sum_k P_I(k)^p at p = alpha/2,
and the resolvent bound on Q_I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_model import ResolventDiagonal, SpectralDecomposition


class EmptyWindowError(ValueError):
    """Raised when a metric needs at least one eigenvalue in the window."""


@dataclass(frozen=True)
class IntervalStats:
    """Localization metrics of the eigenvectors with eigenvalues in [a, b].

    An empty window is a legitimate outcome: ``count == 0`` and the
    metric fields are None, never NaN or zero placeholders.
    """

    a: float
    b: float
    n: int
    count: int
    P: np.ndarray | None
    Q: float | None
    Pi: float | None
    renyi_half: float | None

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    @property
    def half_width(self) -> float:
        return 0.5 * (self.b - self.a)

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)


def interval_stats(sd: SpectralDecomposition, interval: tuple[float, float],
                   alpha: float) -> IntervalStats:
    """Compute P_I, Q_I, Pi_I and the alpha/2 Renyi statistic on [a, b].

    Membership is closed on both ends.  P_I(k) is the mean squared k-th
    coordinate over the selected eigenvectors, a probability vector.
    """
    a, b = float(interval[0]), float(interval[1])
    if a > b:
        raise ValueError("interval endpoints out of order")
    n = sd.n
    mask = (sd.eigenvalues >= a) & (sd.eigenvalues <= b)
    count = int(np.count_nonzero(mask))
    if count == 0:
        return IntervalStats(a, b, n, 0, None, None, None, None)
    cols = sd.eigenvectors[:, mask]
    sq = cols ** 2
    P = sq.mean(axis=1)
    Q = float(n * np.sum(P ** 2))
    Pi = float(n * np.mean(np.sum(sq ** 2, axis=0)))
    renyi_half = float(n ** (0.5 * alpha - 1.0) * np.sum(P ** (0.5 * alpha)))
    return IntervalStats(a, b, n, count, P, Q, Pi, renyi_half)


def resolvent_upper_bound(rd: ResolventDiagonal,
                          stats: IntervalStats) -> tuple[float, float]:
    """Q_I and its resolvent bound (n|I| / |Lambda_I|)^2 * mean (Im R_kk)^2.

    Requires the pairing I = [E - eta, E + eta] with z = E + i eta; the
    inequality lhs <= rhs is the caller's assertion.
    """
    if stats.is_empty:
        raise EmptyWindowError("bound needs a non-empty window")
    eta = rd.z.imag
    if (abs(stats.center - rd.z.real) > 1e-12 * max(1.0, abs(rd.z))
            or abs(stats.half_width - eta) > 1e-12 * max(1.0, eta)):
        raise ValueError("window and spectral point are inconsistent")
    n = stats.n
    width = stats.b - stats.a
    lhs = stats.Q
    rhs = (n * width / stats.count) ** 2 * float(np.mean(rd.values.imag ** 2))
    return lhs, rhs
