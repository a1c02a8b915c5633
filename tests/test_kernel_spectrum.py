import multiprocessing

import numpy as np
import pytest
from scipy.integrate import quad

import levylab.kernel_spectrum as ks
from levylab import fixed_point as fp
from levylab import quadrature
from levylab.halfplane import HALF_PI, HomogeneousFn, default_grid
from oracles import apply_linearized, lift_eigenvector, linearization_matrix, partials_on_circle


def test_coupling_constants():
    # c'_1 = c_1 since a0^2 = 2 at alpha = 1
    assert abs(ks.c_prime(1.0) - 1.0 / (np.sqrt(2) * np.pi)) < 1e-14
    # reflection identity c' = alpha sin(pi alpha/2) / (2^(alpha/2) pi)
    for a in (0.6, 1.3, 1.5 + 2.0j):
        a = complex(a)
        refl = a * np.sin(0.5 * np.pi * a) / (2.0 ** (0.5 * a) * np.pi)
        assert abs(ks.c_prime(a) - refl) < 1e-12 * abs(refl)


def test_kernel_argument_validation():
    with pytest.raises(ValueError):
        ks.kernel_k(1.0, 0.4, 0.4)
    with pytest.raises(ValueError):
        ks.kernel_k(2.5, 0.3, 0.5)
    with pytest.raises(ValueError):
        ks.kernel_k(1.0, 0.0, 0.5)


def test_kernel_row_integral_oracle():
    # integral of the kernel over psi equals the operator applied to the
    # constant density, computed through the original double integral
    alpha = 1.5
    for om in (0.4, 0.7, 1.2):
        direct = quad(lambda p: ks.kernel_k(alpha, om, p).real, 0, HALF_PI,
                      limit=400, points=[om])[0]
        row = ks.kernel_row_integrals(alpha, np.array([om]))[0]
        assert abs(direct - row.real) < 1e-4


def test_kernel_positive_for_real_alpha():
    rng = np.random.default_rng(0)
    for alpha in (0.6, 1.0, 1.4):
        for _ in range(20):
            om, ps = rng.uniform(0.05, HALF_PI - 0.05, 2)
            if abs(om - ps) < 1e-3:
                continue
            v = ks.kernel_k(alpha, om, ps)
            assert v.imag == 0 and v.real > 0


def test_kernel_domination_complex_alpha():
    rng = np.random.default_rng(1)
    for _ in range(10):
        alpha = complex(rng.uniform(0.4, 1.8), rng.uniform(-3, 3))
        om, ps = rng.uniform(0.1, HALF_PI - 0.1, 2)
        if abs(om - ps) < 1e-2:
            continue
        assert abs(ks.kernel_k(alpha, om, ps)) <= \
            ks.kernel_k(alpha.real, om, ps).real * (1 + 1e-6) + 1e-12


def test_kernel_mirror_symmetry():
    alpha = 0.9
    assert abs(ks.kernel_k(alpha, 0.8, 0.3)
               - ks.kernel_k(alpha, HALF_PI - 0.8, HALF_PI - 0.3)) < 1e-12


@pytest.mark.parametrize("alpha", [0.9, 1.5, 1.5 + 5j])
def test_kernel_row_equals_scalar_calls(alpha):
    # one broadcast call per Nystrom row is bitwise the loop of scalar calls
    nodes, _ = ks.graded_mesh(48, complex(alpha).real)
    for i in (0, 17, 40):
        others = np.delete(nodes, i)
        row = ks.kernel_k(alpha, nodes[i], others)
        loop = np.array([ks.kernel_k(alpha, nodes[i], p) for p in others])
        assert row.dtype == complex and np.array_equal(row, loop)
    assert isinstance(ks.kernel_k(alpha, 0.3, 0.9), complex)


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4])
def test_kernel_three_regime_bound(alpha):
    # |k| <= C * shape with one constant per regime on a coarse grid
    pts = np.linspace(0.12, HALF_PI - 0.12, 12)
    ratios = []
    for om in pts:
        for ps in pts:
            if abs(om - ps) < 5e-3:
                continue
            shape, _ = ks.kernel_bound(alpha, om, ps)
            ratios.append(abs(ks.kernel_k(alpha, om, ps)) / shape)
    assert max(ratios) < 10.0


def test_assemble_P_contract():
    P = ks.assemble_P(1.5, n_nodes=48)
    n = P.n_nodes
    assert P.matrix.shape == (n, n)
    off = P.matrix[~np.eye(n, dtype=bool)]
    assert np.all(off.imag == 0) and np.all(off.real >= 0)
    with pytest.raises(ValueError):
        ks.assemble_P(1.5, n_nodes=8)


@pytest.mark.parametrize("n, re_alpha", [(32, 1.1), (48, 1.5), (96, 0.7)])
def test_graded_mesh_mirror_symmetry(n, re_alpha):
    # the mirror fill of assemble_P rests on this; both defects come from
    # rounding the break points, so they are counted in ulps of pi/2
    nodes, weights = ks.graded_mesh(n, re_alpha)
    ulp = np.spacing(HALF_PI)
    assert np.all(np.abs(nodes + nodes[::-1] - HALF_PI) <= 4 * ulp)
    assert np.all(np.abs(weights - weights[::-1]) <= 4 * ulp)


@pytest.mark.parametrize("alpha", [1.1, 1.5 + 5j])
def test_assemble_P_mirror_is_exact(alpha):
    M = ks.assemble_P(alpha, 32).matrix
    assert np.array_equal(M, M[::-1, ::-1])


def _complex_P16():
    return ks.assemble_P(1.5 + 5j, 16).matrix


def test_forked_child_assembles_on_its_own_pool():
    expected = _complex_P16()  # the parent's pool threads now exist
    with multiprocessing.get_context("fork").Pool(1) as workers:
        assert np.array_equal(workers.apply_async(_complex_P16).get(timeout=60), expected)


def test_assemble_P_near_re_alpha_two_is_finite():
    # the log-power rule once ran kernel_k's left panel past x = 0 there
    assert np.all(np.isfinite(ks.assemble_P(1.95 + 0.3j, 32).matrix))


@pytest.mark.parametrize("alpha, rtol", [(1.95 + 0.3j, 1e-4), (1.95 + 5j, 1e-5)])
def test_kernel_near_re_alpha_two_against_a_finer_rule(alpha, rtol, fresh_unit_rules,
                                                       monkeypatch):
    # n_jac acts on real alpha only; the complex rule refines by its panel step
    om = np.array([0.05, 0.3, 0.7, 1.2, 1.5])
    ps = np.array([0.6, 0.9, 0.1, 0.4, 1.0])
    k = ks.kernel_k(alpha, om, ps)
    monkeypatch.setattr(quadrature, "LOG_POWER_STEP", 0.5 * quadrature.LOG_POWER_STEP)
    quadrature._log_power_unit_rule.cache_clear()
    fine = ks.kernel_k(alpha, om, ps)
    assert np.all(np.abs(k - fine) <= rtol * np.abs(fine))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_entries_raise_and_scan_skips(fresh_unit_rules, monkeypatch):
    # without the lumped tail the left panel reaches x = 0 and gives NaN
    monkeypatch.setattr(quadrature, "V_FLAT", np.inf)
    with pytest.raises(ValueError, match=r"alpha=\(1\.95\+0\.3j\)"):
        ks.assemble_P(1.95 + 0.3j, 16)
    results, failures = ks.alpha_scan([1.95 + 0.3j], n_nodes=16, refine=False)
    assert not results and failures[0][1].startswith("ValueError: ")


def test_assemble_P_spectrum_stability_and_decay():
    P1 = ks.assemble_P(1.5, n_nodes=64)
    P2 = ks.assemble_P(1.5, n_nodes=128)
    mu1 = np.sort(np.abs(np.linalg.eigvals(P1.matrix)))[::-1]
    mu2 = np.sort(np.abs(np.linalg.eigvals(P2.matrix)))[::-1]
    assert abs(mu1[0] - mu2[0]) < 0.01 * mu2[0]
    # compactness proxy: fast decay of the ordered moduli
    assert mu1[50] < 1e-3 * mu1[0]


def test_kappa_is_exact_similarity():
    a = ks.assemble_H(1.4, 48, kappa=0.0)
    b = ks.assemble_H(1.4, 48, kappa=0.6)
    ea = np.sort_complex(np.linalg.eigvals(a.matrix))
    eb = np.sort_complex(np.linalg.eigvals(b.matrix))
    assert np.max(np.abs(ea - eb)) < 1e-8


def test_H_block_sparsity():
    H = ks.assemble_H(1.2, 48, kappa=0.5)
    n = H.n_nodes
    M = H.matrix
    # the (1, i) and (i, 1) blocks vanish before the pullback; after the
    # column swap by J they appear as the (1,1) and (i,i) positions of
    # the derivative square being zero
    blocks = {(r, c): M[r * n:(r + 1) * n, c * n:(c + 1) * n]
              for r in (1, 2) for c in (1, 2)}
    assert np.all(blocks[(1, 1)] == 0)
    assert np.all(blocks[(2, 2)] == 0)
    assert np.linalg.norm(blocks[(1, 2)]) > 0
    assert np.linalg.norm(blocks[(2, 1)]) > 0


@pytest.mark.parametrize("alpha", [1.2, 1.5 + 5j])
def test_H_pullback_by_column_indexing(alpha):
    # the pullback J applied by indexing the columns of S is bitwise the
    # explicit product with the permutation matrix
    P = ks.assemble_P(alpha, 32)
    a = complex(alpha)
    n = P.n_nodes
    c, s = np.cos(P.nodes), np.sin(P.nodes)
    one_u = c + s
    PN0 = P.matrix * one_u ** (-a - 1.0)
    PN1 = P.matrix * one_u ** (-a)
    Z = np.zeros((n, n))
    S = np.block([[(-2.0 * one_u)[:, None] * PN0, (2.0 / a) * c[:, None] * PN1,
                   (2.0 / a) * s[:, None] * PN1],
                  [-a * PN0, PN1, Z],
                  [-a * PN0, Z, PN1]])
    R = np.eye(n)[::-1]
    J = np.block([[R, Z, Z], [Z, Z, R], [Z, R, Z]])
    H = ks.assemble_H(alpha, 32, kappa=0.0)
    assert np.array_equal(H.matrix, ks.c_prime(a) * (S @ J))


def test_derivative_lift_identity():
    alpha = 1.5
    th = default_grid(97)
    f = HomogeneousFn(alpha / 2, th,
                      (np.cos(th) + np.sin(th)) ** (alpha / 2)
                      * (1.0 + 0.25 * np.cos(2 * th) + 0.1j * np.sin(th)))
    Kf = apply_linearized(f)
    H = ks.assemble_H(alpha, n_nodes=96, kappa=0.0)
    rhs = H.matrix @ lift_eigenvector(f, H.nodes)
    n = H.nodes.size
    d1, di = partials_on_circle(Kf, H.nodes)
    assert np.max(np.abs(rhs[:n] - Kf.values_at_angle(H.nodes))) < 1e-3
    assert np.max(np.abs(rhs[n:2 * n] - d1)) < 1e-3
    assert np.max(np.abs(rhs[2 * n:] - di)) < 1e-3


def test_structural_eigenvector():
    # the closed-form fixed point is an exact eigenvector of the
    # linearized map with eigenvalue -1, at real and complex alpha
    g0 = fp.gamma_star_zero(1.5, m=65)
    Kg = apply_linearized(g0)
    assert np.max(np.abs(Kg.values + g0.values)) < 1e-6
    for alpha in (0.7, 1.5 + 1.0j):
        H = ks.assemble_H(alpha, 64, kappa=0.0)
        mu = np.linalg.eigvals(H.matrix)
        assert np.min(np.abs(mu + 1.0)) < 1e-3


def test_spectral_inclusion_via_lift():
    # resolved eigenpairs of the scalar linearization lift into the
    # block operator's spectrum (small Rayleigh residual)
    alpha = 1.5
    thetas, K = linearization_matrix(alpha, m=65)
    H = ks.assemble_H(alpha, n_nodes=96, kappa=0.0)
    mu, vecs = np.linalg.eig(K)
    order = np.argsort(-np.abs(mu))
    for idx in order[:3]:
        f = HomogeneousFn(alpha / 2, thetas, vecs[:, idx])
        lift = lift_eigenvector(f, H.nodes)
        resid = np.linalg.norm(H.matrix @ lift - mu[idx] * lift)
        assert resid / np.linalg.norm(lift) < 1e-2
        assert np.min(np.abs(np.linalg.eigvals(H.matrix) - mu[idx])) < 1e-2


def test_band_power_rule():
    assert ks.band_power(1.5) == 2
    assert ks.band_power(0.7) == 4
    assert ks.band_power(0.3) == 8
    with pytest.raises(ValueError):
        ks.band_power(0.5)
    with pytest.raises(ValueError):
        ks.band_power(1.01)


def test_fredholm_finite_dimensional_identity():
    H = ks.assemble_H(1.5, 48, kappa=0.5)
    res = ks.fredholm_det(H, 2, refine=False)
    direct = np.linalg.det(np.eye(H.matrix.shape[0]) - H.matrix @ H.matrix)
    assert abs(res.det_value - direct) <= 1e-8 * max(abs(direct), 1e-12)
    assert res.n_structural == 2
    with pytest.raises(ValueError):
        ks.fredholm_det(H, 3)
    with pytest.raises(ValueError):
        ks.fredholm_det(ks.assemble_H(0.7, 48), 2)  # below band power 4


@pytest.mark.parametrize("alpha", [1.3, 1.5 + 5j])
def test_refinement_delta_against_the_doubled_grid(alpha):
    # the refinement reassembles H on twice the nodes at the same kappa
    m = ks.band_power(complex(alpha).real)
    res = ks.fredholm_det(ks.assemble_H(alpha, 32, kappa=0.5), m, refine=True)
    d2 = ks.fredholm_det(ks.assemble_H(alpha, 64, kappa=0.5), m,
                         refine=False).det_deflated
    assert res.refinement_delta == abs(res.det_deflated - d2) / abs(d2)


def test_alpha_scan_smoke():
    results, failures = ks.alpha_scan([1.3, 1.45, 1.6], n_nodes=48,
                                      refine=False)
    assert len(results) == 3 and not failures
    for r in results:
        assert r.m == 2
        assert np.isfinite(abs(r.det_deflated))
    # a grid point at a band boundary is recorded as a failure, scan continues
    results, failures = ks.alpha_scan([1.3, 0.5], n_nodes=48, refine=False)
    assert len(results) == 1 and len(failures) == 1


def test_flag_minima_stays_within_one_band():
    # |det| jumps down where m switches from 4 to 2 (alpha = 1); the first
    # point of the new band is below both neighbours but no minimum
    def result(alpha, m, mag):
        return ks.FredholmResult(alpha=alpha, m=m, det_value=0j, det_deflated=mag,
                                 n_structural=2, grid_size=48, refinement_delta=0.0)
    scan = [result(0.9, 4, 0.90), result(0.95, 4, 0.93), result(0.975, 4, 0.966),
            result(1.025, 2, 0.651), result(1.05, 2, 0.70), result(1.075, 2, 0.66),
            result(1.1, 2, 0.72)]
    assert ks.flag_minima(scan) == [5]
    assert ks.flag_minima(scan[:5]) == []


def test_alpha_scan_refinement_stable():
    grid = [1.15, 1.325, 1.5, 1.675, 1.85]
    results, failures = ks.alpha_scan(grid, n_nodes=48, refine=True)
    assert not failures
    for r in results:
        assert np.isfinite(abs(r.det_deflated))
        assert r.refinement_delta <= 0.05
        assert r.n_structural == 2
