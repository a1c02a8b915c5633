"""Seeded heavy-tailed randomness: symmetric stable draws and ordered
Poisson-process weights.

Every sampler is a pure function of an explicit ``numpy.random.Generator``
so identical seeds give bit-identical output sequences.  Independent
Monte Carlo tasks should derive their own stream with :func:`substream`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, gammaln


def tail_one_sigma_alpha(alpha: float) -> float:
    """The value sigma**alpha that normalizes the tail to t**(-alpha).

    With characteristic function exp(-sigma^alpha |t|^alpha) and
    sigma^alpha = pi / (2 sin(pi alpha/2) Gamma(alpha)), the two-sided
    tail satisfies P(|X| >= t) ~ t^(-alpha).
    """
    _check_alpha(alpha)
    return np.pi / (2.0 * np.sin(0.5 * np.pi * alpha) * gamma_fn(alpha))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie strictly inside (0, 2), got {alpha}")


@dataclass(frozen=True)
class StableLaw:
    """Symmetric alpha-stable law with scale given through sigma^alpha."""

    alpha: float
    sigma_alpha: float | None = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.sigma_alpha is None:
            object.__setattr__(self, "sigma_alpha", tail_one_sigma_alpha(self.alpha))
        if self.sigma_alpha <= 0:
            raise ValueError("sigma_alpha must be positive")

    @property
    def sigma(self) -> float:
        return self.sigma_alpha ** (1.0 / self.alpha)


def substream(master_seed: int, *task_index: int) -> np.random.Generator:
    """Independent generator for (master seed, task index...)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=task_index))


def sample_standard_stable(law: StableLaw, rng: np.random.Generator, size=None):
    """Symmetric stable draw(s) with cf exp(-sigma^alpha |t|^alpha).

    Chambers-Mallows-Stuck construction: with U uniform on
    (-pi/2, pi/2) and E a unit exponential,

        X = sigma * sin(alpha U) / cos(U)^(1/alpha)
                  * (cos((1-alpha) U) / E)^((1-alpha)/alpha).

    The alpha = 1 branch degenerates to the Cauchy closed form
    X = sigma * tan(U).
    """
    alpha = law.alpha
    scalar = size is None
    n = 1 if scalar else size
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, n)
    if alpha == 1.0:
        x = np.tan(u)
    else:
        e = rng.standard_exponential(n)
        x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
             * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha))
    x = law.sigma * x
    return float(x[0]) if scalar else x


def poisson_weights_matrix(alpha: float, shape: tuple[int, int],
                           rng: np.random.Generator) -> np.ndarray:
    """Rows of independent weight vectors xi_1 >= ... >= xi_K, one per row.

    xi_k = (E_1 + ... + E_k) ** (-2/alpha) with i.i.d. unit exponentials
    E_i, the K largest points of the weight process: #{k : xi_k >= u} is
    Poisson with mean u^(-alpha/2).
    """
    _check_alpha(alpha)
    return arrival_weights(alpha, rng.standard_exponential(shape))


def arrival_weights(alpha: float, exponentials: np.ndarray) -> np.ndarray:
    """xi_k = Gamma_k^(-2/alpha) along the last axis, in place.

    Gamma_k = E_1 + ... + E_k are the partial sums of the given unit
    exponentials, which are overwritten by the weights.
    """
    _check_alpha(alpha)
    arrivals = np.cumsum(exponentials, axis=-1, out=exponentials)
    return np.power(arrivals, -2.0 / alpha, out=arrivals)


def truncated_weight_tail_mean(alpha: float, K: int, terms: int = 200_000) -> float:
    """E sum_{k>K} Gamma_k^(-2/alpha), the mean mass lost to truncation.

    Uses E Gamma_k^(-s) = Gamma(k - s)/Gamma(k) for k > s = 2/alpha and
    an integral estimate of the remainder beyond ``terms`` summands.
    """
    _check_alpha(alpha)
    s = 2.0 / alpha
    k = np.arange(K + 1, K + 1 + terms, dtype=float)
    head = np.exp(gammaln(k - s) - gammaln(k)).sum()
    tail = (K + terms) ** (1.0 - s) / (s - 1.0)
    return float(head + tail)


def levy_khintchine_rhs(alpha: float, w) -> np.ndarray:
    """exp(-Gamma(1 - alpha/2) * w**(alpha/2)) for Re w > 0."""
    w = np.asarray(w, dtype=complex)
    return np.exp(-gamma_fn(1.0 - 0.5 * alpha) * w ** (0.5 * alpha))
