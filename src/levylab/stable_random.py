"""Seeded heavy-tailed randomness: symmetric stable draws and the K
largest points of the Poisson weight process.

Every sampler is a pure function of an explicit ``numpy.random.Generator``
so identical seeds give bit-identical output sequences.  Independent
Monte Carlo tasks should derive their own stream with :func:`substream`.
"""

from __future__ import annotations

import numpy as np

from .quadrature import gamma as gamma_fn


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


def substream(master_seed: int, *task_index: int) -> np.random.Generator:
    """Independent generator for (master seed, task index...)."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=task_index))


def sample_standard_stable(alpha: float, rng: np.random.Generator, size):
    """Symmetric stable draws with cf exp(-sigma^alpha |t|^alpha), where
    sigma^alpha = ``tail_one_sigma_alpha(alpha)`` normalizes the tail to
    t^(-alpha).

    Chambers-Mallows-Stuck construction: with U uniform on
    (-pi/2, pi/2) and E a unit exponential,

        X = sigma * sin(alpha U) / cos(U)^(1/alpha)
                  * (cos((1-alpha) U) / E)^((1-alpha)/alpha).

    The alpha = 1 branch degenerates to the Cauchy closed form
    X = sigma * tan(U).
    """
    sigma = tail_one_sigma_alpha(alpha) ** (1.0 / alpha)
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    if alpha == 1.0:
        x = np.tan(u)
    else:
        e = rng.standard_exponential(size)
        x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
             * (np.cos((1.0 - alpha) * u) / e) ** ((1.0 - alpha) / alpha))
    return sigma * x


def poisson_weights_matrix(alpha: float, rng: np.random.Generator,
                           out: np.ndarray) -> np.ndarray:
    """Rows of independent weight vectors, one per row of ``out``, which is
    filled in place and returned: each row holds the K largest points
    xi_k = Gamma_k ** (-2/alpha) of the weight process, in random order,
    where Gamma_k are the arrivals of a unit-rate Poisson process, so that
    #{k : xi_k >= u} is Poisson with mean u^(-alpha/2).

    Given the (K+1)-th arrival G = Gamma_(K+1), the first K arrivals are G
    times the order statistics of K i.i.d. uniforms.  A row is therefore
    drawn as one Gamma(K + 1) variate G and K uniforms u, without the K
    exponentials and their running sum: ``out`` takes the uniforms, turned
    in place into (G (1 - u)) ** (-2/alpha); 1 - u lies in (0, 1], so no
    weight is infinite.
    """
    _check_alpha(alpha)
    g = rng.standard_gamma(out.shape[-1] + 1, size=out.shape[:-1])
    u = rng.random(out=out)
    np.subtract(1.0, u, out=u)
    np.multiply(u, g[..., None], out=u)
    return np.power(u, -2.0 / alpha, out=u)
