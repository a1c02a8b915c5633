"""Finite-size heavy-tailed symmetric matrices and their resolvents."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from . import halfplane
from .halfplane import HomogeneousFn, dot
from .stable_random import StableLaw, sample_standard_stable, substream


@dataclass(frozen=True)
class LevyMatrix:
    """Symmetric n x n matrix with i.i.d. n^(-1/alpha)-scaled stable entries."""

    n: int
    alpha: float
    seed: int
    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.shape != (self.n, self.n):
            raise ValueError("entry matrix shape does not match n")
        if not np.array_equal(a, a.T):
            raise ValueError("entries must be exactly symmetric")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and the orthonormal eigenvector matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return int(self.eigenvalues.size)


@dataclass(frozen=True)
class ResolventDiagonal:
    """Diagonal entries R_kk(z) of (A - z)^(-1) at one spectral point."""

    z: complex
    values: np.ndarray


def build_levy_matrix(n: int, alpha: float, seed: int) -> LevyMatrix:
    """Heavy-tailed symmetric matrix, a deterministic function of (n, alpha, seed).

    The upper triangle (diagonal included) holds i.i.d. draws
    ``n**(-1/alpha) * X`` with X symmetric stable normalized so that
    P(|X| >= t) ~ t^(-alpha); the lower triangle mirrors it.
    """
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    law = StableLaw(alpha)
    rng = substream(seed, n)
    m = n * (n + 1) // 2
    draws = sample_standard_stable(law, rng, size=m) * n ** (-1.0 / alpha)
    # a boolean mask takes the draws in the row-major order of triu_indices
    upper = np.triu(np.ones((n, n), dtype=bool))
    a = np.zeros((n, n))
    a[upper] = draws
    a = np.where(upper, a, a.T)
    return LevyMatrix(n=n, alpha=alpha, seed=seed, entries=a)


def _finite_entries(matrix: LevyMatrix | np.ndarray) -> np.ndarray:
    a = matrix.entries if isinstance(matrix, LevyMatrix) else np.asarray(matrix)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def eigendecompose(matrix: LevyMatrix | np.ndarray) -> SpectralDecomposition:
    """Full symmetric eigendecomposition, eigenvalues ascending.

    Eigensolver non-convergence is surfaced as LinAlgError, never
    silently truncated.
    """
    lam, u = np.linalg.eigh(_finite_entries(matrix))
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=u)


def eigenvalues(matrix: LevyMatrix | np.ndarray) -> np.ndarray:
    """Ascending eigenvalues alone, without the vectors ``eigendecompose`` builds.

    Same input check and LinAlgError surface as ``eigendecompose``.
    """
    return np.linalg.eigvalsh(_finite_entries(matrix))


def resolvent_diagonal(sd: SpectralDecomposition, z: complex) -> ResolventDiagonal:
    """R_kk(z) = sum_j <u_j, e_k>^2 / (lambda_j - z), for Im z > 0."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("resolvent requires Im z > 0")
    weights = sd.eigenvectors ** 2
    inv = 1.0 / (sd.eigenvalues - z)
    # two real products: a real matrix times a complex vector is not a BLAS call
    values = weights @ inv.real + 1j * (weights @ inv.imag)
    return ResolventDiagonal(z=z, values=values)


def empirical_gamma(samples: np.ndarray, alpha: float,
                    grid: np.ndarray | int = 65) -> HomogeneousFn:
    """Order parameter estimated from resolvent samples R (an array).

    The samples are the diagonal entries R_kk of one matrix or the
    members of a population-dynamics pool.  At each grid angle
    u = e^{i theta} this is ``Gamma(1 - alpha/2) * mean (-i R . u)^(alpha/2)``
    with the principal branch; the arguments -i R . u stay in the closed
    right half-plane because Re(-i R) = Im R > 0.
    """
    thetas = halfplane.default_grid(grid) if isinstance(grid, int) else np.asarray(grid)
    if thetas.size == 0:
        raise ValueError("empty angular grid")
    w = -1j * np.asarray(samples)
    u = np.exp(1j * thetas)
    args = dot(w[:, None], u[None, :])
    bad = args.real < -1e-12 * np.abs(args)
    if np.any(bad):
        raise ValueError("fractional power argument left the right half-plane")
    vals = gamma_fn(1.0 - 0.5 * alpha) * np.mean(args ** (0.5 * alpha), axis=0)
    return HomogeneousFn(0.5 * alpha, thetas, vals)


def eigenvalue_counting(sd: SpectralDecomposition, a: float, b: float) -> int:
    """Number of eigenvalues in the closed interval [a, b]."""
    lam = sd.eigenvalues
    return int(np.count_nonzero((lam >= a) & (lam <= b)))
