import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

from levylab.stable_random import (
    poisson_weights_matrix,
    sample_standard_stable,
    substream,
    tail_one_sigma_alpha,
)
from oracles import levy_khintchine_rhs, truncated_weight_tail_mean


def test_normalization_constant():
    # sigma^alpha = pi / (2 sin(pi a/2) Gamma(a)); at alpha=1 this is pi/2
    assert abs(tail_one_sigma_alpha(1.0) - np.pi / 2) < 1e-14
    with pytest.raises(ValueError, match="strictly inside"):
        sample_standard_stable(2.0, substream(1), size=1)
    with pytest.raises(ValueError, match="strictly inside"):
        sample_standard_stable(0.0, substream(1), size=1)


def test_cauchy_median():
    # alpha=1 is the Cauchy law of scale sigma: median |X| = sigma tan(pi/4)
    x = sample_standard_stable(1.0, substream(42), size=10 ** 6)
    med = np.median(np.abs(x))
    assert abs(med - np.pi / 2) < 0.01 * np.pi / 2


def test_sign_symmetry():
    x = sample_standard_stable(0.7, substream(43), size=10 ** 6)
    se = 1.0 / np.sqrt(x.size)
    assert abs(np.mean(np.sign(x))) < 3 * se


def test_tail_normalized_to_one():
    # t^alpha P(|X| > t) -> 1 under the chosen scale
    x = sample_standard_stable(1.5, substream(44), size=10 ** 7)
    t = 50.0
    p = np.mean(np.abs(x) > t)
    assert abs(t ** 1.5 * p - 1.0) < 0.1


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.5])
def test_characteristic_function(alpha):
    n = 400_000
    x = sample_standard_stable(alpha, substream(45, int(alpha * 10)), size=n)
    for t in (0.5, 1.0, 2.0):
        emp = np.mean(np.cos(t * x))
        assert abs(emp - np.exp(-tail_one_sigma_alpha(alpha) * t ** alpha)) < 4 / np.sqrt(n)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3, 1.8])
@pytest.mark.parametrize("shape", [(200,), (1, 200), (300, 1), (300, 200)])
def test_arrival_weights_are_the_power_of_cumsum_in_place(alpha, shape):
    # the weights drawn into ``out`` are bit for bit (G (1 - u))^(-2/alpha),
    # G = Gamma_(K+1) one Gamma(K + 1) draw per row and then the same
    # stream's uniforms u; the arrivals G (1 - u) stand for the partial sums
    # of exponentials that the name still says
    rng = substream(48)
    g = rng.standard_gamma(shape[-1] + 1, size=shape[:-1])
    expected = np.power(g[..., None] * (1.0 - rng.random(shape)), -2.0 / alpha)
    out = np.empty(shape)
    got = poisson_weights_matrix(alpha, substream(48), out)
    assert got is out
    assert np.array_equal(got, expected)


def test_poisson_weights_contract():
    rng = substream(47)
    xi = poisson_weights_matrix(0.8, rng, np.empty((20, 50)))
    assert xi.shape == (20, 50)
    assert np.all(xi > 0) and np.all(np.isfinite(xi))
    with pytest.raises(ValueError):
        poisson_weights_matrix(2.0, rng, np.empty((20, 50)))


def test_largest_weight_distribution():
    # P(xi_1 <= x) = P(E_1 >= x^(-a/2)) = exp(-x^(-a/2))
    alpha = 1.2
    rng = substream(48)
    xi1 = poisson_weights_matrix(alpha, rng, np.empty((200_000, 1))).max(axis=1)
    for x in (0.5, 1.0, 2.0):
        target = np.exp(-x ** (-0.5 * alpha))
        emp = np.mean(xi1 <= x)
        se = np.sqrt(target * (1 - target) / xi1.size)
        assert abs(emp - target) < 3 * se + 1e-4


ORDER_K = 100


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
@pytest.mark.parametrize("k", [1, 2, ORDER_K])
def test_kth_largest_weight_is_the_kth_point_of_the_process(alpha, k):
    # xi_(k) <= x iff fewer than k points lie above x, and the number above
    # x is Poisson with mean x^(-a/2): P(xi_(k) <= x) = Q(k, x^(-a/2)), the
    # regularized upper incomplete gamma; indicators, as xi_(k) has
    # infinite variance for small k
    rows = 40_000
    xi = poisson_weights_matrix(alpha, substream(52, int(10 * alpha), k),
                                np.empty((rows, ORDER_K)))
    kth = -np.partition(-xi, k - 1, axis=1)[:, k - 1]
    for mean_above in (k - 0.5 * np.sqrt(k), k, k + np.sqrt(k)):
        x = mean_above ** (-2.0 / alpha)
        target = gammaincc(k, mean_above)
        emp = np.mean(kth <= x)
        se = np.sqrt(target * (1 - target) / rows)
        assert abs(emp - target) < 3 * se


@pytest.mark.parametrize("alpha,w", [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0 + 1.0j)])
def test_levy_khintchine_identity(alpha, w):
    # E exp(-sum xi_k w) = exp(-Gamma(1-a/2) w^(a/2)), real part compared
    rng = substream(49, int(alpha * 10))
    xi = poisson_weights_matrix(alpha, rng, np.empty((100_000, 200)))
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
    xi = poisson_weights_matrix(alpha, rng, np.empty((100_000, K)))
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
        xi = poisson_weights_matrix(1.0, rng, np.empty((1000, 10_000)))
        vals.append(np.exp(-xi.sum(axis=1)))
    emp = np.mean(np.concatenate(vals))
    assert abs(emp - np.exp(-np.sqrt(np.pi))) < 0.02 * np.exp(-np.sqrt(np.pi))


def test_reproducibility_bit_identical():
    a = sample_standard_stable(1.3, substream(99, 5), size=1000)
    b = sample_standard_stable(1.3, substream(99, 5), size=1000)
    assert np.array_equal(a, b)
    c = sample_standard_stable(1.3, substream(99, 6), size=1000)
    assert not np.array_equal(a, c)
