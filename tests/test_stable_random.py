import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from levylab.stable_random import (
    StableLaw,
    levy_khintchine_rhs,
    poisson_weights_matrix,
    sample_standard_stable,
    substream,
    tail_one_sigma_alpha,
    truncated_weight_tail_mean,
)


def test_normalization_constant():
    # sigma^alpha = pi / (2 sin(pi a/2) Gamma(a)); at alpha=1 this is pi/2
    assert abs(tail_one_sigma_alpha(1.0) - np.pi / 2) < 1e-14
    with pytest.raises(ValueError):
        StableLaw(2.0)
    with pytest.raises(ValueError):
        StableLaw(0.0)


def test_cauchy_median():
    # alpha=1 is the Cauchy law of scale sigma: median |X| = sigma tan(pi/4)
    law = StableLaw(1.0)
    x = sample_standard_stable(law, substream(42), size=10 ** 6)
    med = np.median(np.abs(x))
    assert abs(med - np.pi / 2) < 0.01 * np.pi / 2


def test_sign_symmetry():
    law = StableLaw(0.7)
    x = sample_standard_stable(law, substream(43), size=10 ** 6)
    se = 1.0 / np.sqrt(x.size)
    assert abs(np.mean(np.sign(x))) < 3 * se


def test_tail_normalized_to_one():
    # t^alpha P(|X| > t) -> 1 under the chosen scale
    law = StableLaw(1.5)
    x = sample_standard_stable(law, substream(44), size=10 ** 7)
    t = 50.0
    p = np.mean(np.abs(x) > t)
    assert abs(t ** 1.5 * p - 1.0) < 0.1


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.5])
def test_characteristic_function(alpha):
    law = StableLaw(alpha)
    n = 400_000
    x = sample_standard_stable(law, substream(45, int(alpha * 10)), size=n)
    for t in (0.5, 1.0, 2.0):
        emp = np.mean(np.cos(t * x))
        assert abs(emp - np.exp(-law.sigma_alpha * t ** alpha)) < 4 / np.sqrt(n)


def test_poisson_weights_contract():
    rng = substream(47)
    xi = poisson_weights_matrix(0.8, (20, 50), rng)
    assert xi.shape == (20, 50)
    assert np.all(np.diff(xi, axis=1) <= 0) and np.all(xi > 0)
    with pytest.raises(ValueError):
        poisson_weights_matrix(2.0, (20, 50), rng)


def test_largest_weight_distribution():
    # P(xi_1 <= x) = P(E_1 >= x^(-a/2)) = exp(-x^(-a/2))
    alpha = 1.2
    rng = substream(48)
    xi1 = poisson_weights_matrix(alpha, (200_000, 1), rng)[:, 0]
    for x in (0.5, 1.0, 2.0):
        target = np.exp(-x ** (-0.5 * alpha))
        emp = np.mean(xi1 <= x)
        se = np.sqrt(target * (1 - target) / xi1.size)
        assert abs(emp - target) < 3 * se + 1e-4


@pytest.mark.parametrize("alpha,w", [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0 + 1.0j)])
def test_levy_khintchine_identity(alpha, w):
    # E exp(-sum xi_k w) = exp(-Gamma(1-a/2) w^(a/2)), real part compared
    rng = substream(49, int(alpha * 10))
    xi = poisson_weights_matrix(alpha, (100_000, 200), rng)
    emp = np.mean(np.exp(-xi.sum(axis=1) * w))
    target = levy_khintchine_rhs(alpha, w)
    se = np.std(np.exp(-xi.sum(axis=1) * w).real) / np.sqrt(xi.shape[0])
    bias = abs(target) * truncated_weight_tail_mean(alpha, 200) * abs(w)
    assert abs(emp.real - target.real) < 3 * se + 2 * bias


def test_levy_khintchine_heavy_truncation_compensated():
    # at alpha=1.5 the K=200 truncation bias is large but deterministic;
    # compensating by the mean lost mass restores the identity
    alpha, K, w = 1.5, 200, 1.0
    rng = substream(50)
    xi = poisson_weights_matrix(alpha, (100_000, K), rng)
    emp = np.mean(np.exp(-xi.sum(axis=1) * w))
    tail = truncated_weight_tail_mean(alpha, K)
    target = np.exp(-gamma_fn(1 - 0.5 * alpha) * w ** (0.5 * alpha) + w * tail)
    se = np.std(np.exp(-xi.sum(axis=1) * w)) / np.sqrt(xi.shape[0])
    assert tail > 0.3  # the bias really is material at this alpha
    assert abs(emp - target) < 4 * se


def test_alpha_one_exponential_check():
    # E exp(-sum xi_k) -> exp(-sqrt(pi)) at alpha = 1, K = 1e4
    rng = substream(51)
    vals = []
    for _ in range(30):
        xi = poisson_weights_matrix(1.0, (1000, 10_000), rng)
        vals.append(np.exp(-xi.sum(axis=1)))
    emp = np.mean(np.concatenate(vals))
    assert abs(emp - np.exp(-np.sqrt(np.pi))) < 0.02 * np.exp(-np.sqrt(np.pi))


def test_reproducibility_bit_identical():
    a = sample_standard_stable(StableLaw(1.3), substream(99, 5), size=1000)
    b = sample_standard_stable(StableLaw(1.3), substream(99, 5), size=1000)
    assert np.array_equal(a, b)
    c = sample_standard_stable(StableLaw(1.3), substream(99, 6), size=1000)
    assert not np.array_equal(a, c)
