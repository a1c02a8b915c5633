import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from levylab.halfplane import default_grid
from levylab.matrix_model import (
    build_levy_matrix,
    eigendecompose,
    eigenvalue_counting,
    eigenvalues,
    empirical_gamma,
    resolvent_diagonal,
)
from oracles import fractional_moment, triu_indices_fill


def test_one_by_one_is_plain_stable_draw():
    m = build_levy_matrix(1, 1.2, seed=5)
    assert m.entries.shape == (1, 1)
    # 1^{-1/alpha} = 1, so the single entry is one standard stable draw
    assert np.isfinite(m.entries[0, 0])


def test_exact_symmetry_and_determinism():
    a = build_levy_matrix(40, 0.8, seed=9)
    assert np.array_equal(a.entries, a.entries.T)
    b = build_levy_matrix(40, 0.8, seed=9)
    assert np.array_equal(a.entries, b.entries)
    with pytest.raises(ValueError):
        build_levy_matrix(0, 0.8, seed=1)


def test_large_entry_fraction():
    # P(|A_ij| >= 1) = P(|X| >= n^(1/alpha)) ~ 1/n
    n, alpha, reps = 1000, 1.1, 40
    fracs = [np.mean(np.abs(build_levy_matrix(n, alpha, s).entries[
        np.triu_indices(n, 1)]) >= 1.0) for s in range(reps)]
    m = n * (n - 1) // 2
    se = np.sqrt((1 / n) / (m * reps))
    assert abs(np.mean(fracs) - 1.0 / n) < 3 * se + 0.1 / n


def test_eigendecompose_diag_and_trace():
    sd = eigendecompose(np.diag([0.0, 1.0]))
    assert np.allclose(sd.eigenvalues, [0.0, 1.0])
    assert np.allclose(np.abs(sd.eigenvectors), np.eye(2))
    a = build_levy_matrix(60, 1.4, seed=3)
    sd = eigendecompose(a)
    tol = 1e-8 * 60 * np.max(np.abs(a.entries))
    assert abs(sd.eigenvalues.sum() - np.trace(a.entries)) < tol
    with pytest.raises(ValueError):
        eigendecompose(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_eigenvalues_alone_match_the_decomposition():
    a = build_levy_matrix(80, 1.1, seed=4)
    lam = eigenvalues(a)
    assert np.all(np.diff(lam) >= 0)
    ref = eigendecompose(a).eigenvalues
    assert np.max(np.abs(lam - ref)) <= 1e-12 * np.max(np.abs(ref))
    with pytest.raises(ValueError, match="non-finite"):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_reconstruction_and_orthonormality():
    for seed in range(3):
        a = build_levy_matrix(50, 1.0, seed=seed)
        sd = eigendecompose(a)
        u = sd.eigenvectors
        assert np.max(np.abs(u.T @ u - np.eye(50))) < 1e-8
        recon = (u * sd.eigenvalues) @ u.T
        scale = np.max(np.abs(a.entries))
        assert np.max(np.abs(recon - a.entries)) < 1e-6 * scale


def test_resolvent_against_linear_solve():
    a = build_levy_matrix(100, 1.2, seed=7)
    sd = eigendecompose(a)
    z = 0.3 + 0.25j
    rd = resolvent_diagonal(sd, z)
    direct = np.diag(np.linalg.inv(a.entries - z * np.eye(100)))
    assert np.max(np.abs(rd.values - direct)) < 1e-8
    with pytest.raises(ValueError):
        resolvent_diagonal(sd, 0.5 - 0.1j)


@pytest.mark.parametrize("n", [1, 7, 300])
def test_mask_fill_is_the_triu_indices_fill(n):
    a = build_levy_matrix(n, 1.3, seed=11)
    assert np.array_equal(a.entries, triu_indices_fill(n, 1.3, seed=11))


def test_resolvent_real_products_match_the_complex_product():
    sd = eigendecompose(build_levy_matrix(300, 1.0, seed=3))
    for z in (0.1 + 0.05j, 2j, -1.5 + 0.01j):
        ref = (sd.eigenvectors ** 2).astype(complex) @ (1.0 / (sd.eigenvalues - z))
        got = resolvent_diagonal(sd, z).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_resolvent_scalar_case():
    sd = eigendecompose(np.array([[0.7]]))
    rd = resolvent_diagonal(sd, 1j)
    assert abs(rd.values[0] - 1.0 / (0.7 - 1j)) < 1e-14


def test_trace_identity_both_ways():
    sd = eigendecompose(build_levy_matrix(80, 0.9, seed=2))
    z = 0.1 + 0.2j
    rd = resolvent_diagonal(sd, z)
    lhs = rd.values.imag.sum()
    rhs = (z.imag / ((sd.eigenvalues - z.real) ** 2 + z.imag ** 2)).sum()
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)
    # fractional moment at beta=1 through the same identity
    assert abs(fractional_moment(rd, 1.0) - rhs / 80) < 1e-10 * abs(rhs)


def test_herglotz_and_bound():
    sd = eigendecompose(build_levy_matrix(120, 0.6, seed=4))
    for z in (0.5j, 1.0 + 0.05j, -2.0 + 0.3j):
        rd = resolvent_diagonal(sd, z)
        assert np.all(rd.values.imag > 0)
        assert np.max(np.abs(rd.values)) <= 1.0 / z.imag + 1e-12


def test_fractional_moment_trivial():
    sd = eigendecompose(np.array([[0.0]]))
    rd = resolvent_diagonal(sd, 1j)
    assert abs(fractional_moment(rd, 1.0) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        fractional_moment(rd, 0.0)


def test_empirical_gamma_identities():
    alpha = 1.0
    sd = eigendecompose(build_levy_matrix(150, alpha, seed=8))
    rd = resolvent_diagonal(sd, 0.2j)
    grid = default_grid(65)
    g = empirical_gamma(rd.values, alpha, grid)
    # value at u=1 equals the direct definition sum
    direct = gamma_fn(1 - alpha / 2) * np.mean((-1j * rd.values) ** (alpha / 2))
    assert abs(g.values_at_angle(np.array([0.0]))[0] - direct) < 1e-12
    # homogeneity by construction
    u = np.exp(1j * grid[10])
    assert abs(g(2 * u) - 2 ** g.beta * g.values[10]) < 1e-12
    # value at pi/4 ties to the fractional moment of Im R
    y = fractional_moment(rd, alpha / 2)
    closed = 2 ** (alpha / 4) * gamma_fn(1 - alpha / 2) * y
    assert abs(g.values_at_angle(np.array([np.pi / 4]))[0] - closed) < 1e-12
    with pytest.raises(ValueError):
        empirical_gamma(rd.values, alpha, np.array([]))


def test_spectrum_sign_symmetry():
    # the law of A is symmetric, so mean sign of eigenvalues vanishes
    vals = []
    for seed in range(30):
        sd = eigendecompose(build_levy_matrix(100, 1.3, seed=100 + seed))
        vals.append(np.mean(np.sign(sd.eigenvalues)))
    se = np.std(vals, ddof=1) / np.sqrt(len(vals))
    assert abs(np.mean(vals)) < 3 * se + 1e-3


def test_semicircle_limit_near_two():
    # alpha close to 2: the bulk approaches a semicircle whose radius is
    # set by the truncated second moment; under the tail normalization
    # the scale is alpha/(2 - alpha) per entry, so compare after rescaling
    n, alpha = 2000, 1.9
    lams = np.concatenate([
        eigendecompose(build_levy_matrix(n, alpha, seed=s)).eigenvalues
        for s in (11, 12, 13)])
    x = lams / np.sqrt(alpha / (2 - alpha))
    edges = np.linspace(-2, 2, 25)
    hist, _ = np.histogram(x, bins=edges)
    dens = hist / x.size / np.diff(edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    sc = np.sqrt(4 - centers ** 2) / (2 * np.pi)
    assert np.max(np.abs(dens - sc)) < 0.08


def test_eigenvalue_counting_closed_interval():
    sd = eigendecompose(np.diag([0.0, 0.5, 1.0]))
    assert eigenvalue_counting(sd, 0.0, 0.5) == 2
    assert eigenvalue_counting(sd, 0.6, 0.9) == 0
