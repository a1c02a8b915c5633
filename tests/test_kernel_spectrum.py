import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import levylab.kernel_spectrum as ks
from levylab import fixed_point as fp
from levylab import quadrature
from levylab.halfplane import HALF_PI, HomogeneousFn, default_grid
from oracles import (
    apply_linearized,
    assemble_H_block,
    exact_z0_eigenvalues,
    kernel_bound,
    lift_eigenvector,
    linearization_matrix,
    log_power_unit_rule_lumped,
    partials_on_circle,
    row_integrals_tensor,
    two_block_eigenvalues,
)


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


@pytest.mark.parametrize("alpha", [2.0, 0.0 + 1j, -0.5])
def test_re_alpha_guards(alpha):
    with pytest.raises(ValueError, match=re.escape("Re(alpha) must lie in (0, 2)")):
        ks.assemble_P(alpha, 32)
    with pytest.raises(ValueError, match=re.escape("Re(alpha) must lie in (0, 2)")):
        ks.band_power(complex(alpha).real)


def test_kernel_row_integral_oracle():
    # integral of the kernel over psi equals the operator applied to the
    # constant density, computed through the original double integral
    alpha = 1.5
    for om in (0.4, 0.7, 1.2):
        direct = quad(lambda p: ks.kernel_k(alpha, om, p).real, 0, HALF_PI,
                      limit=400, points=[om])[0]
        row = ks.kernel_row_integrals(alpha, np.array([om]))[0]
        assert abs(direct - row.real) < 1e-4


@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("alpha", [0.7, 0.9, 1.1, 1.5, 1.9, 1.2 + 0.3j, 1.95 + 0.3j, 1.5 + 5j,
                                   1.9 + 10j])
def test_row_integrals_match_the_tensor_form(alpha, n):
    # the profile in cos(theta - omega) against the (theta, y, omega) sum
    # it replaced, at assemble_P's upper-half rows; the row integrals pick
    # their theta count from alpha, 96 + 8 int(|Im alpha|), and a rule of
    # 96 nodes at 1.5+5i or 1.9+10i misses by far more than the bound.  At
    # complex alpha the terms cancel, so the bound is on sum |terms|
    a = complex(alpha)
    nodes, _ = ks.graded_mesh(n, a.real)
    omegas, n_theta = nodes[:n // 2], 96 + 8 * int(abs(a.imag))
    new = ks.kernel_row_integrals(alpha, omegas)
    old = row_integrals_tensor(alpha, omegas, n_theta)
    scale = row_integrals_tensor(alpha, omegas, n_theta, moduli=True)
    assert new.dtype == (complex if a.imag else float)
    assert np.all(np.abs(new - old) <= 1e-13 * scale)


@pytest.mark.parametrize("alpha", [0.7, 1.5, 1.95, 1.2 + 0.3j, 1.5 + 5j, 1.5 + 20j, 1.9 + 10j])
def test_row_profile_interpolant_against_the_direct_sum(alpha):
    c = np.random.default_rng(23).uniform(0.0, 1.0, 600)
    c[:2] = 0.0, 1.0
    a = complex(alpha)
    rules = (quadrature.power_rule(-0.5 * a, 1.0, ks.ROW_N_Y),
             quadrature.power_rule(a - 1.0, 1.0, ks.ROW_N_Y))
    terms = [((1.0 + y * y + 2.0 * y * c[:, None]) ** (-0.5 - 0.25 * a), w) for y, w in rules]
    direct = sum(t @ w for t, w in terms)
    scale = sum(np.abs(t) @ np.abs(w) for t, w in terms)
    assert np.all(np.abs(ks.row_profile(alpha, c) - direct) <= 1e-14 * scale)


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


def _upper_half_pairs(n):
    """(row, column) of assemble_P's upper-half off-diagonal entries, in row order."""
    return np.nonzero(np.arange(n // 2)[:, None] != np.arange(n))


@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.5, 1.95, 1.2 + 0.3j, 1.5 + 5j])
def test_kernel_k_does_not_depend_on_the_batch(alpha, n):
    # the whole upper half in one call, and in blocks that cut rows in two,
    # are bit for bit the calls of one Nystrom row each
    nodes, _ = ks.graded_mesh(n, complex(alpha).real)
    rows, cols = _upper_half_pairs(n)
    per_row = np.concatenate([ks.kernel_k(alpha, nodes[i], nodes[cols[rows == i]])
                              for i in range(n // 2)])
    assert np.array_equal(ks.kernel_k(alpha, nodes[rows], nodes[cols]), per_row)
    for size in (100, 677):
        blocks = [ks.kernel_k(alpha, nodes[rows[s:s + size]], nodes[cols[s:s + size]])
                  for s in range(0, rows.size, size)]
        assert np.array_equal(np.concatenate(blocks), per_row)


@pytest.mark.parametrize("alpha", [0.9, 1.5 + 5j])
def test_kernel_k_integrates_only_the_middle_panels_with_width(alpha, monkeypatch):
    # each entry's geometric recurrence min(ratio * edge, 3L/4) from t1,
    # counted per entry: one Gauss-Legendre row per panel of positive width
    nodes, _ = ks.graded_mesh(48, complex(alpha).real)
    rows, cols = _upper_half_pairs(48)
    om, ps = nodes[rows], nodes[cols]
    a2 = 0.5 * complex(alpha)
    ratio = 2.0 if a2.imag == 0.0 else min(2.0, np.exp(1.5 / abs(a2.imag)))
    flip = ps < om
    o, p = np.where(flip, HALF_PI - om, om), np.where(flip, HALF_PI - ps, ps)
    counts = []
    for edge, hi in zip(np.minimum(2.0 * (p - o), 0.5 * (HALF_PI - p)), 0.75 * (HALF_PI - p)):
        counts.append(0)
        while edge < hi:
            edge, counts[-1] = min(ratio * edge, hi), counts[-1] + 1
    shapes = []

    def counting(breaks, order):
        shapes.append(np.shape(breaks))
        return quadrature.gauss_legendre_panels(breaks, order)

    monkeypatch.setattr(ks, "gauss_legendre_panels", counting)
    ks.kernel_k(alpha, om, ps)
    assert shapes == [(sum(counts), 2)]
    # padding every entry to the longest recurrence would integrate far more
    assert 2 * sum(counts) < len(counts) * max(counts)


@pytest.mark.parametrize("n_nodes, nearest", [(8, "32"), (16, "32"), (40, "32 or 48"),
                                              (100, "96 or 112")])
def test_a_node_count_the_mesh_cannot_give_is_refused(n_nodes, nearest):
    # graded_mesh has a multiple of 16 nodes, at least 32; any other count
    # is refused with the nearest ones, not rounded to one of them
    message = rf"cannot have {n_nodes} nodes .*; nearest: {nearest}$"
    with pytest.raises(ValueError, match=message):
        ks.assemble_P(1.5, n_nodes)
    with pytest.raises(ValueError, match=message):
        ks.graded_mesh(n_nodes, 1.5)


@pytest.mark.parametrize("alpha", [0.6, 1.0, 1.4])
def test_kernel_three_regime_bound(alpha):
    # |k| <= C * shape with one constant per regime on a coarse grid
    pts = np.linspace(0.12, HALF_PI - 0.12, 12)
    ratios = []
    for om in pts:
        for ps in pts:
            if abs(om - ps) < 5e-3:
                continue
            shape, _ = kernel_bound(alpha, om, ps)
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


@pytest.mark.parametrize("alpha", [0.7, 1.1, 1.5, 1.9])
def test_real_alpha_P_has_positive_zero_imaginary_parts(alpha):
    # the arithmetic at real alpha leaves every imaginary part +0.0, sign
    # included, so P (and H built from it) holds the bytes of a real matrix
    imag = ks.assemble_P(alpha, 32).matrix.imag
    assert np.all(imag == 0) and not np.any(np.signbit(imag))


@pytest.mark.parametrize("n, re_alpha", [(32, 1.1), (48, 1.5), (96, 0.7)])
def test_graded_mesh_mirror_symmetry(n, re_alpha):
    # the mirror fill of assemble_P rests on this; both defects come from
    # rounding the break points, so they are counted in ulps of pi/2
    nodes, weights = ks.graded_mesh(n, re_alpha)
    ulp = np.spacing(HALF_PI)
    assert np.all(np.abs(nodes + nodes[::-1] - HALF_PI) <= 4 * ulp)
    assert np.all(np.abs(weights - weights[::-1]) <= 4 * ulp)


def test_graded_mesh_keeps_off_the_middle():
    # a node on pi/4 would zero the kappa similarity |cos omega - sin omega|^kappa,
    # which assemble_H divides by; the nearest node is 0.2496/n away
    for n in (32, 48, 64, 96, 128, 256, 1024, 4096):
        for re_alpha in (0.05, 0.5, 1.0, 1.5, 1.999):
            nodes, _ = ks.graded_mesh(n, re_alpha)
            assert np.min(np.abs(nodes - 0.25 * np.pi)) >= 0.2 / n, (n, re_alpha)


@pytest.mark.parametrize("alpha", [1.1, 1.5 + 5j])
def test_assemble_P_mirror_is_exact(alpha):
    M = ks.assemble_P(alpha, 32).matrix
    assert np.array_equal(M, M[::-1, ::-1])


def _complex_P():
    return ks.assemble_P(1.5 + 5j, 32).matrix


def test_forked_child_assembles_on_its_own_pool():
    expected = _complex_P()  # forked after a threaded call of the parent
    with multiprocessing.get_context("fork").Pool(1) as workers:
        assert np.array_equal(workers.apply_async(_complex_P).get(timeout=60), expected)


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


@pytest.mark.parametrize("alpha", [1.5 + 5j, 1.95 + 5j, 1.95 + 0.3j, 1.85 + 0.3j,
                                   1.2 + 0.05j, 0.7 + 2j])
def test_kernel_k_against_the_lumped_panel_rule(alpha, monkeypatch):
    # the moment tail of the log-power rule against panels out to v = 40
    om = np.array([0.05, 0.3, 0.7, 1.2, 1.5])
    ps = np.array([0.6, 0.9, 0.1, 0.4, 1.0])
    k = ks.kernel_k(alpha, om, ps)
    monkeypatch.setattr(quadrature, "_log_power_unit_rule", log_power_unit_rule_lumped)
    reference = ks.kernel_k(alpha, om, ps)
    assert np.all(np.abs(k - reference) <= 1e-10 * np.abs(reference))


def test_non_finite_entries_raise_and_scan_skips(monkeypatch):
    kernel_k = ks.kernel_k

    def nan_in_the_last_entry(alpha, omega, psi):
        values = kernel_k(alpha, omega, psi)
        values[-1] = np.nan
        return values

    monkeypatch.setattr(ks, "kernel_k", nan_in_the_last_entry)
    with pytest.raises(ValueError, match=r"alpha=\(1\.95\+0\.3j\)"):
        ks.assemble_P(1.95 + 0.3j, 32)
    results, failures = ks.alpha_scan([1.95 + 0.3j], n_nodes=32, refine=False)
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
    P = ks.assemble_P(1.4, 48)
    ea = np.sort_complex(np.linalg.eigvals(assemble_H_block(P, 0.0)))
    eb = np.sort_complex(np.linalg.eigvals(assemble_H_block(P, 0.6)))
    assert np.max(np.abs(ea - eb)) < 1e-8


#: alpha of the oracle checks on the whole H, on 32, 48 and 96 nodes at kappa 0 and 0.5
ORACLE_ALPHAS = [0.3, 0.7, 1.1, 1.5, 1.9, 1.5 + 5j, 1.2 + 0.3j]


def _oracle(P, kappa):
    """The oracle's whole H from ``P``, and the ``assemble_H`` operator cut
    from its rows (which ``test_H_in_place_is_the_block_construction``
    shows are assemble_H's bytes)."""
    n, h = P.n_nodes, P.n_nodes // 2
    H = assemble_H_block(P, kappa)
    return H, ks.NystromOperator(complex(P.alpha), P.nodes, H[n:n + h, 2 * n:], kappa)


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
@pytest.mark.parametrize("n_nodes", [32, 48, 96])
def test_H_in_place_is_the_block_construction(alpha, n_nodes):
    # assemble_H keeps the top half of the whole H's block H12 bit for bit,
    # and that H has the exact copies and zeros _eigenvalues relies on
    P = ks.assemble_P(alpha, n_nodes)
    n, h = n_nodes, n_nodes // 2
    for kappa in (0.0, 0.5):
        H = assemble_H_block(P, kappa)

        def blk(r, c):
            return H[r * n:(r + 1) * n, c * n:(c + 1) * n]

        assert np.array_equal(blk(1, 0), blk(2, 0))
        assert np.array_equal(blk(1, 2), blk(2, 1))
        assert not np.any(blk(1, 1)) and not np.any(blk(2, 2))
        kept = ks.assemble_H(alpha, n_nodes, kappa=kappa).matrix
        assert kept.tobytes() == blk(1, 2)[:h].tobytes()


def test_H_block_sparsity():
    H = assemble_H_block(ks.assemble_P(1.2, 48), 0.5)
    n = 48
    # the (1, i) and (i, 1) blocks vanish before the pullback; after the
    # column swap by J they appear as the (1,1) and (i,i) positions of
    # the derivative square being zero
    blocks = {(r, c): H[r * n:(r + 1) * n, c * n:(c + 1) * n]
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
    assert np.array_equal(assemble_H_block(P, 0.0), ks.c_prime(a) * (S @ J))


def test_derivative_lift_identity():
    alpha = 1.5
    th = default_grid(97)
    f = HomogeneousFn(alpha / 2, th,
                      (np.cos(th) + np.sin(th)) ** (alpha / 2)
                      * (1.0 + 0.25 * np.cos(2 * th) + 0.1j * np.sin(th)))
    Kf = apply_linearized(f)
    P = ks.assemble_P(alpha, n_nodes=96)
    rhs = assemble_H_block(P, 0.0) @ lift_eigenvector(f, P.nodes)
    n = P.n_nodes
    d1, di = partials_on_circle(Kf, P.nodes)
    assert np.max(np.abs(rhs[:n] - Kf.values_at_angle(P.nodes))) < 1e-3
    assert np.max(np.abs(rhs[n:2 * n] - d1)) < 1e-3
    assert np.max(np.abs(rhs[2 * n:] - di)) < 1e-3


def test_structural_eigenvector():
    # the closed-form fixed point is an exact eigenvector of the
    # linearized map with eigenvalue -1, at real and complex alpha
    g0 = fp.gamma_star_zero(1.5, m=65)
    Kg = apply_linearized(g0)
    assert np.max(np.abs(Kg.values + g0.values)) < 1e-6
    for alpha in (0.7, 1.5 + 1.0j):
        mu = np.linalg.eigvals(assemble_H_block(ks.assemble_P(alpha, 64), 0.0))
        assert np.min(np.abs(mu + 1.0)) < 1e-3


def test_spectral_inclusion_via_lift():
    # resolved eigenpairs of the scalar linearization lift into the
    # block operator's spectrum (small Rayleigh residual)
    alpha = 1.5
    thetas, K = linearization_matrix(alpha, m=65)
    P = ks.assemble_P(alpha, n_nodes=96)
    H = assemble_H_block(P, 0.0)
    mu, vecs = np.linalg.eig(K)
    order = np.argsort(-np.abs(mu))
    for idx in order[:3]:
        f = HomogeneousFn(alpha / 2, thetas, vecs[:, idx])
        lift = lift_eigenvector(f, P.nodes)
        resid = np.linalg.norm(H @ lift - mu[idx] * lift)
        assert resid / np.linalg.norm(lift) < 1e-2
        assert np.min(np.abs(np.linalg.eigvals(H) - mu[idx])) < 1e-2


# ---------------------------------------------------------------------------
# the z = 0 spectrum in closed form, mu_k = (-1)^(k+1) (1 - alpha/2)_k / (1 + alpha/2)_k
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.5, 1.9, 0.7 + 0.3j, 1.5 + 2j, 1.5 + 5j])
def test_H_spectrum_against_the_closed_form(alpha):
    # mu_k lies in -H12's mirror-even block for even k and in the mirror-odd
    # one for odd k; for k <= 3 the nearest eigenvalue of that block moves
    # closer from 48 to 96 nodes, and on 96 nodes mu_1 is within 3e-5
    # relative (measured 1.1e-5 at 0.7 and 1.2e-5 at 0.7+0.3i, below 3e-6
    # elsewhere) except at alpha = 0.3 (1.1e-4)
    exact = exact_z0_eigenvalues(alpha, 4)
    errors, margins = {}, {}
    for n in (48, 96):
        mu = ks._eigenvalues(ks.assemble_H(alpha, n))
        blocks = (mu[n:n + n // 2], mu[n + n // 2:2 * n])
        errors[n], margins[n] = (
            np.array([np.min(np.abs(blocks[(k + flip) % 2] - mu_k)) / abs(mu_k)
                      for k, mu_k in enumerate(exact)]) for flip in (0, 1))
        assert np.all(errors[n] < margins[n])
    assert np.all(errors[96] < errors[48])
    if complex(alpha).imag or alpha >= 0.7:
        assert errors[96][1] <= 3e-5
    # a clear margin to the other block; at 1.5+5i mu_3 lies 0.5456 relative
    # from mu_6, of the other parity, in the exact spectrum itself (0.546 on
    # 96 nodes), so there the margin covers k <= 2
    assert np.all(margins[96][:3 if alpha == 1.5 + 5j else 4] >= 0.55)


def _linearization_eigenvalues(alpha):
    return np.linalg.eigvals(linearization_matrix(alpha, m=65)[1])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_linearization_spectrum_against_the_closed_form(alpha):
    # the fixed-point side's discretization: mu_1 and mu_2 (measured to
    # 5.1e-7 relative), and the structural -1 once to 1e-8 (measured <= 1.1e-9)
    mu = _linearization_eigenvalues(alpha)
    for mu_k in exact_z0_eigenvalues(alpha, 3)[1:]:
        assert np.min(np.abs(mu - mu_k)) <= 2e-6 * abs(mu_k)
    assert np.min(np.abs(mu + 1.0)) <= 1e-8


@pytest.mark.parametrize("alpha", [
    0.5,
    pytest.param(1.0, marks=pytest.mark.xfail(strict=True, reason=(
        "the second eigenvalue near -1 lies 1.16e-8 from it on 65 angles"))),
    pytest.param(1.5, marks=pytest.mark.xfail(strict=True, reason=(
        "the second eigenvalue near -1 lies 1.74e-8 from it on 65 angles")))])
def test_linearization_has_the_structural_pair(alpha):
    # -1 is a double eigenvalue of the linearized map (the fixed point and
    # its reflection partner); at alpha = 0.5 both copies lie within 3.3e-9
    assert np.sort(np.abs(_linearization_eigenvalues(alpha) + 1.0))[1] <= 1e-8


def test_band_power_rule():
    assert ks.band_power(1.5) == 2
    assert ks.band_power(0.7) == 4
    assert ks.band_power(0.3) == 8
    with pytest.raises(ValueError):
        ks.band_power(0.5)
    with pytest.raises(ValueError):
        ks.band_power(1.01)
    # the refusals are those of the rule that also refused Re(alpha) within
    # 1e-12 of a dyadic level, on a fine grid and at the domain's top edge

    def refused_before(re_alpha):
        level = -np.log2(re_alpha)
        nearest = np.round(level)
        return abs(level - nearest) < 1e-12 or abs(re_alpha - 2.0 ** (-nearest)) < ks.BAND_MARGIN

    grid = np.concatenate([np.linspace(0.0, 2.0, 20001)[1:-1], np.linspace(1.98, 2.0, 2001)[:-1],
                           [2.0 ** -k for k in range(12)], [np.nextafter(2.0, 0.0)]])
    for re_alpha in grid:
        try:
            ks.band_power(re_alpha)
            refused = False
        except ValueError:
            refused = True
        assert refused == refused_before(re_alpha), re_alpha


def test_fredholm_finite_dimensional_identity():
    H = ks.assemble_H(1.5, 48, kappa=0.5)
    res = ks.fredholm_det(H, 2, refine=False)
    full = assemble_H_block(ks.assemble_P(1.5, 48), 0.5)
    direct = np.linalg.det(np.eye(full.shape[0]) - full @ full)
    assert abs(res.det_value - direct) <= 1e-8 * max(abs(direct), 1e-12)
    assert res.n_structural == 2
    with pytest.raises(ValueError):
        ks.fredholm_det(H, 3)
    with pytest.raises(ValueError):
        ks.fredholm_det(ks.assemble_H(0.7, 48), 2)  # below band power 4


@pytest.mark.parametrize("kappa", [0.0, 0.5])
@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_block_eigenvalues_match_the_full_solve(alpha, kappa):
    # _eigenvalues' two mirror blocks carry the whole spectrum: n zeros and
    # -H12's twice match the full solve of the oracle's 3n x 3n H
    m = ks.band_power(complex(alpha).real)
    for n_nodes in (32, 48, 96):
        H, op = _oracle(ks.assemble_P(alpha, n_nodes), kappa)
        ref = np.linalg.eigvals(H)
        mu = ks._eigenvalues(op)
        assert mu.size == ref.size
        assert np.all(mu[:n_nodes] == 0.0)
        gap = np.abs(mu[:, None] - ref[None, :])
        tol = 1e-10 * np.max(np.abs(ref))
        assert np.max(gap.min(axis=1)) <= tol and np.max(gap.min(axis=0)) <= tol
        _, ref_defl, ref_struct = ks._dets(ref, m, op.alpha)
        res = ks.fredholm_det(op, m, refine=False)
        assert res.n_structural == ref_struct == 2
        assert abs(res.det_deflated - ref_defl) <= 1e-12 * abs(ref_defl)


@pytest.mark.parametrize("n_nodes", [32, 48, 96])
@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_one_block_eigenvalues_match_the_two_block_solve(alpha, n_nodes):
    # the oracle H's factorization and mirror identities, which reduce its
    # spectrum to -H12's, hold to round-off, and the deflated determinant
    # is the two-block solve's
    m = ks.band_power(complex(alpha).real)
    n, h = n_nodes, n_nodes // 2
    P = ks.assemble_P(alpha, n_nodes)
    c, s = np.cos(P.nodes), np.sin(P.nodes)
    for kappa in (0.0, 0.5):
        H, op = _oracle(P, kappa)

        def blk(r, k):
            return H[r * n:(r + 1) * n, k * n:(k + 1) * n]

        w = (c + s) * np.abs(c - s) ** -kappa / complex(alpha)
        D2, E = 2.0 * blk(1, 0), blk(1, 2)
        tol = 1e-12 * np.max(np.abs(H))
        for gap in (blk(0, 0) - w[:, None] * D2,                   # H00 == W 2H10
                    0.5 * (blk(0, 1) + blk(0, 2)) - w[:, None] * E,  # (H01 + H02)/2 == W H12
                    D2 * w + 2.0 * E,                               # 2H10 W == -2H12
                    E[h:] - E[:h][::-1, ::-1]):                     # the mirror
            assert np.max(np.abs(gap)) <= tol
        _, two_block_defl, _ = ks._dets(two_block_eigenvalues(H), m, op.alpha)
        res = ks.fredholm_det(op, m, refine=False)
        assert res.n_structural == 2
        assert abs(res.det_deflated - two_block_defl) <= 1e-12 * abs(two_block_defl)


def test_fredholm_det_refuses_an_operator_that_is_not_assemble_H_s():
    # assemble_P's operator is n x n: its mirror blocks are P's, not -H12's
    with pytest.raises(ValueError, match=re.escape("has shape (48, 48), not (24, 48)")):
        ks.fredholm_det(ks.assemble_P(1.5, 48), 2, refine=False)


def test_fredholm_det_raises_where_the_product_overflows():
    H = ks.assemble_H(1.5 + 20j, 96, kappa=0.5)
    message = r"alpha=\(1\.5\+20j\), m=2: max \|mu\| = "
    with pytest.raises(ValueError, match=message):
        ks.fredholm_det(H, 2, refine=False)
    results, failures = ks.alpha_scan([1.5 + 20j], n_nodes=96, refine=False)
    assert not results and re.search(message, failures[0][1])
    assert failures[0][1].startswith("ValueError: ")


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_fredholm_det_refuses_a_grid_without_the_structural_pair(kappa):
    # at 1.5+20i on 32 nodes no eigenvalue of -H12 lies near -1, so the
    # deflated determinant would be the literal one
    H = ks.assemble_H(1.5 + 20j, 32, kappa=kappa)
    message = r"^0 eigenvalues, not the structural pair, lie within 0\.05 of -1 at " \
              r"alpha=\(1\.5\+20j\) on 32 nodes: min \|mu \+ 1\| = 1$"
    with pytest.raises(ValueError, match=message):
        ks.fredholm_det(H, 2, refine=False)
    results, failures = ks.alpha_scan([1.5 + 20j], n_nodes=32, refine=False)
    assert not results and failures[0][1].endswith("on 32 nodes: min |mu + 1| = 1")


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

@pytest.mark.parametrize("workers", [1, 2])
def test_alpha_scan_keeps_the_grid_order_around_failures(workers, monkeypatch):
    # grid points at band boundaries are recorded as failures between good
    # ones, and the scan continues; with two workers the alpha values run
    # side by side and both lists still keep the grid's order
    monkeypatch.setattr(fp, "WORKERS", workers)
    results, failures = ks.alpha_scan([1.3, 0.5, 1.45, 0.25, 1.6], n_nodes=48, refine=False)
    assert [r.alpha for r in results] == [1.3, 1.45, 1.6]
    assert [a for a, _ in failures] == [0.5, 0.25]
    assert failures[0][1].startswith("ValueError: alpha=0.5: Re(alpha)=0.5 too close")


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


# ---------------------------------------------------------------------------
# no call large enough for OpenBLAS to thread
# ---------------------------------------------------------------------------

#: run in a fresh process under a set OPENBLAS_NUM_THREADS: the bytes of
#: H's eigenvalues and of the row integrals at one alpha on 48 and 64 nodes
_NYSTROM_BYTES = """
import sys
from levylab import kernel_spectrum as ks

alpha = complex(sys.argv[1])
for n in (48, 64):
    H = ks.assemble_H(alpha, n)
    print(ks._eigenvalues(H).tobytes().hex())
    print(ks.kernel_row_integrals(alpha, H.nodes).tobytes().hex())
"""


@pytest.mark.parametrize("alpha", [0.7, 1.5, 1.5 + 5j])
def test_nystrom_values_do_not_depend_on_the_blas_threads(alpha):
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(ks.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", _NYSTROM_BYTES, str(alpha)],
                             capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout)
    assert len(out[0].split()) == 4 and out[0] == out[1]


@pytest.mark.parametrize("alpha", [1.5, 1.5 + 5j])
def test_fredholm_det_solves_no_eigenproblem_above_its_node_count(alpha, monkeypatch):
    # the refinement doubles the nodes to 96, whose mirror halves are 48-square
    shapes = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        shapes.append(a.shape)
        return eigvals(a)

    H = ks.assemble_H(alpha, 48)
    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    ks.fredholm_det(H, 2, refine=True)
    assert shapes == [(24, 24)] * 2 + [(48, 48)] * 2
