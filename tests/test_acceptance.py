"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Two sub-criteria are implemented faithfully and marked
xfail because they are unattainable in substance, not in implementation;
their docstrings carry the measured evidence.
"""

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import gamma as gamma_fn

import levylab.fixed_point as fp
import levylab.kernel_spectrum as ks
from levylab.experiments import ExperimentConfig, derived_seed, run_transition_sweep
from levylab.halfplane import HALF_PI, HomogeneousFn, default_grid
from levylab.localization import interval_stats, resolvent_upper_bound
from levylab.matrix_model import (
    build_levy_matrix,
    eigendecompose,
    empirical_gamma,
    resolvent_diagonal,
)
from levylab.stable_random import (
    poisson_weights_matrix,
    sample_standard_stable,
    substream,
)
from oracles import assemble_H_block, kernel_bound, levy_khintchine_rhs, sup_distance


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_01_stable_tail_normalization():
    details = []
    ok = True
    for alpha in (0.5, 1.0, 1.5):
        x = sample_standard_stable(alpha, substream(101, int(10 * alpha)), size=10 ** 7)
        val = 50.0 ** alpha * np.mean(np.abs(x) > 50.0)
        details.append(f"alpha={alpha}: t^a P(|X|>t)={val:.4f}")
        ok &= abs(val - 1.0) <= 0.1
    report(1, ok, "; ".join(details))


def test_02_levy_khintchine_truncated():
    # K = 200, 1e5 draws, w in {1, 2}, within 3 MC standard errors; run at
    # alpha in {0.5, 1.0} where the truncation bias sits below the MC noise
    # (at alpha = 1.5 the deterministic K-truncation bias is ~40%, see the
    # compensated unit test in test_stable_random.py)
    details = []
    ok = True
    for alpha in (0.5, 1.0):
        xi = poisson_weights_matrix(alpha, substream(102, int(10 * alpha)),
                                    np.empty((100_000, 200)))
        s = xi.sum(axis=1)
        for w in (1.0, 2.0):
            emp = np.mean(np.exp(-w * s))
            target = float(levy_khintchine_rhs(alpha, w).real)
            se = np.std(np.exp(-w * s)) / np.sqrt(s.size)
            ok &= abs(emp - target) <= 3 * se
            details.append(f"a={alpha},w={w}: {emp:.5f} vs {target:.5f} (3se={3*se:.5f})")
    report(2, ok, "; ".join(details))


def test_03_exact_fixed_point_at_origin():
    details = []
    ok = True
    for alpha in (0.5, 1.0, 1.5):
        g0 = fp.gamma_star_zero(alpha, m=129)
        resid = np.max(np.abs(fp.eval_G(0.0, g0, fp.QuadratureConfig()).values
                              - g0.values))
        details.append(f"alpha={alpha}: residual={resid:.2e}")
        ok &= resid <= 1e-3
    a0 = fp.a_zero(1.0)
    ok &= abs(a0 - np.sqrt(2)) < 1e-12
    report(3, ok, "; ".join(details) + f"; a0(1)={a0:.6f}")


def test_04_scaling_identity():
    alpha, t = 1.2, 2.0
    th = default_grid(65)
    rng = np.random.default_rng(104)
    g = HomogeneousFn(alpha / 2, th,
                      1.0 + 0.3 * rng.normal(size=65) + 0.1j * rng.normal(size=65))
    quad = fp.QuadratureConfig.fast()
    gaps = []
    for h in (1.0, 0.7 + 0.4j, 2.5 + 0.1j):
        left = fp.eval_F(h, HomogeneousFn(alpha / 2, th, t ** (alpha / 2) * g.values), quad)
        right = fp.eval_F(h / t, g, quad)
        gaps.append(np.max(np.abs(left.values - t ** (-alpha / 2) * right.values)))
    report(4, max(gaps) <= 1e-6, f"sup gaps = {['%.1e' % g_ for g_ in gaps]}")


def test_05_triple_oracle_and_moments(alpha1_ensemble, gamma_star_02i, pools_02i):
    alpha, z = 1.0, 0.2j
    g_emp = alpha1_ensemble["gamma_bar"]
    g_quad = gamma_star_02i[-1].gamma
    grid = alpha1_ensemble["grid"]
    pool_vals = np.mean([empirical_gamma(p.pool, alpha, grid).values
                         for p in pools_02i], axis=0)
    g_pool = HomogeneousFn(0.5 * alpha, grid, pool_vals)
    d = (sup_distance(g_emp, g_quad), sup_distance(g_emp, g_pool),
         sup_distance(g_quad, g_pool))
    ok = max(d) <= 0.1
    details = [f"sup distances emp/quad={d[0]:.4f} emp/pool={d[1]:.4f} quad/pool={d[2]:.4f}"]
    x1 = g_quad.values_at_angle(np.array([0.0]))[0]

    def replica_stats(p, kind):
        means = np.array([fp.pool_moment(pool, p, kind)[0] for pool in pools_02i])
        return means.mean(), means.std(ddof=1) / np.sqrt(means.size)

    for p in (1.0, 2.0):
        mean, se = replica_stats(p, "abs")
        rp = fp.r_p(z, g_quad, p).real
        ok &= abs(mean - rp) <= 3 * se
        details.append(f"E|R|^{p}: pool={mean:.4f} quad={rp:.4f} (3se={3*se:.4f})")
        meanS, seS = replica_stats(p, "signed")
        sp = fp.s_p(z, x1, p, alpha)
        ok &= abs(meanS - sp) <= 3 * seS
        details.append(f"E(-iR)^{p}: |diff|={abs(meanS - sp):.4f} (3se={3*seS:.4f})")
    report(5, ok, "; ".join(details))


def test_06_resolvent_upper_bound_on_samples():
    holds = 0
    total = 100
    for k in range(total):
        sd = eigendecompose(build_levy_matrix(200, 1.0, derived_seed(106, 200, k)))
        st = interval_stats(sd, (-0.1, 0.1), 1.0)
        if st.is_empty:
            continue
        lhs, rhs = resolvent_upper_bound(resolvent_diagonal(sd, 0.1j), st)
        holds += lhs <= rhs * (1 + 1e-12)
    report(6, holds == total, f"inequality held on {holds}/{total} samples")


def test_07_full_line_and_sandwich():
    ok = True
    worst = 0.0
    for k in range(30):
        sd = eigendecompose(build_levy_matrix(150, 0.8, derived_seed(107, 150, k)))
        full = interval_stats(sd, (sd.eigenvalues[0], sd.eigenvalues[-1]), 0.8)
        worst = max(worst, abs(full.Q - 1.0))
        ok &= abs(full.Q - 1.0) < 1e-10
        st = interval_stats(sd, (-0.4, 0.4), 0.8)
        if not st.is_empty:
            ok &= st.Q - 1e-10 <= st.Pi <= st.Q * st.count + 1e-10
    report(7, ok, f"Q over the full line deviates from 1 by at most {worst:.1e}; "
                  "sandwich held on every sample")


def test_08_local_law_desk_scale(alpha1_ensemble):
    mu = fp.stieltjes_mass(-0.1, 0.1, 1.0, n_points=9)
    mean_frac = float(np.mean(alpha1_ensemble["count_fracs"]))
    err = abs(mean_frac - mu)
    r2 = float(np.mean(alpha1_ensemble["r2"]))
    report(8, err <= 0.05,
           f"mean window mass {mean_frac:.5f} vs mu*={mu:.5f} (|diff|={err:.5f}); "
           f"mean |R_kk|^2 = {r2:.3f}")


def test_09_density_symmetry_and_mass():
    alpha = 0.8
    es = np.array([0.1, 0.2, 0.3])
    xs = np.linspace(0.0, 10.0, 81)
    # one array call; each energy keeps its own continuation
    dens = fp.spectral_density(np.concatenate([es, -es, xs]), alpha)[0]
    sym = float(np.max(np.abs(dens[:3] - dens[3:6])))
    fs = dens[6:]
    mass = 2.0 * simpson(fs, x=xs) + 10.0 ** -alpha  # analytic tail beyond the window
    ok = sym <= 1e-4 and abs(mass - 1.0) <= 0.02
    report(9, ok, f"symmetry defect {sym:.1e}; total mass {mass:.4f}")


@pytest.mark.xfail(strict=True, reason=(
    "pre-asymptotic tail: the density pipeline is validated against both the "
    "population dynamics and finite-size eigenvalue counting, yet "
    "E^(alpha+1) f(E) at alpha=0.8 equals 0.277 at E=5, 0.329 at E=10, "
    "0.361 at E=20, 0.378 at E=40 against the limit 0.4, i.e. the asymptote "
    "is still 31% away at E=5 (finite-E correction ~ E^-alpha); the stated "
    "20% window at E=5 cannot be met by a correct implementation"))
def test_09_density_tail_at_five():
    alpha, E = 0.8, 5.0
    val = E ** (alpha + 1.0) * fp.spectral_density(E, alpha)[0]
    report(9, abs(val - 0.5 * alpha) <= 0.2 * 0.5 * alpha,
           f"E^(a+1) f(E) = {val:.4f} vs alpha/2 = {0.5 * alpha}")


def test_10_localization_transition_trend():
    cfg = ExperimentConfig(alpha=0.5, n_list=(500, 1000, 2000), master_seed=11,
                           n_seeds=20, energies=(0.0, 5.0),
                           interval_rule="fixed", fixed_width=0.25)
    rec = run_transition_sweep(cfg)
    q0 = [rec.fields["aggregates"][f"n={n},E=0.0"]["mean_Q"] for n in cfg.n_list]
    q5 = [rec.fields["aggregates"][f"n={n},E=5.0"]["mean_Q"] for n in cfg.n_list]
    flat = max(abs(b / a - 1.0) for a, b in zip(q0, q0[1:]))
    ok = flat <= 0.3 and q5[0] < q5[1] < q5[2]
    report(10, ok, f"delocalized mean Q {np.round(q0, 3)} "
                   f"(max change/doubling {100 * flat:.1f}%); "
                   f"localized mean Q strictly increasing {np.round(q5, 1)}")


def test_11_kernel_bound_three_regimes():
    grid = np.linspace(0.03, HALF_PI - 0.03, 50)
    psi_grid = grid + 0.7 * (grid[1] - grid[0])
    psi_grid = psi_grid[psi_grid < HALF_PI - 0.02]
    details = []
    ok = True
    for alpha in (0.6, 1.0, 1.4):
        def fitted(n_jac, gl_order):
            c = 0.0
            for om in grid:
                shapes = np.array([kernel_bound(alpha, om, p)[0] for p in psi_grid])
                vals = np.array([abs(ks.kernel_k(alpha, om, p, n_jac, gl_order))
                                 for p in psi_grid])
                c = max(c, np.max(vals / shapes))
            return c
        c1 = fitted(24, 12)
        c2 = fitted(48, 20)
        stable = abs(c1 - c2) / c2
        regime = kernel_bound(alpha, grid[3], psi_grid[5])[1]
        details.append(f"alpha={alpha} [{regime}]: C={c1:.3f}, refinement {100 * stable:.2f}%")
        ok &= np.isfinite(c1) and stable <= 0.1
    report(11, ok, "; ".join(details))


@pytest.fixture(scope="module")
def H_15_96():
    """assemble_H(1.5, 96, kappa=0.5), shared read-only by the test_12 checks."""
    H = ks.assemble_H(1.5, 96, kappa=0.5)
    H.matrix.setflags(write=False)
    return H


def test_12_fredholm_finite_dimensional_identity(H_15_96):
    # fredholm_det's product against the direct determinant of the whole
    # 3n x 3n H, which only the oracle builds
    lhs = ks.fredholm_det(H_15_96, 2, refine=False).det_value
    H = assemble_H_block(ks.assemble_P(1.5, 96), 0.5)
    rhs = np.linalg.det(np.eye(H.shape[0]) - H @ H)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    report(12, rel <= 1e-8 or abs(lhs - rhs) < 1e-12,
           f"eigenvalue product vs direct determinant: |diff|={abs(lhs - rhs):.2e} "
           f"(values ~{abs(rhs):.2e}; both carry the structural zero)")


def test_12_determinant_refinement_stability(H_15_96):
    # measured on the structurally deflated determinant; the literal
    # det(I - H^2) is an exact zero of the continuum operator, so its
    # refinement ratio is discretization noise over discretization noise
    res = ks.fredholm_det(H_15_96, 2, refine=True)
    report(12, res.refinement_delta <= 0.05,
           f"deflated det(I-H^2) = {abs(res.det_deflated):.6f} at 96 nodes, "
           f"vs 192 nodes delta = {100 * res.refinement_delta:.2f}%; "
           f"literal det = {abs(res.det_value):.2e} (structural zero), "
           f"{res.n_structural} modes deflated")


@pytest.mark.xfail(strict=True, reason=(
    "the linearized map is homogeneous of degree -1 at its fixed point, so "
    "the fixed point itself is an eigenvector with eigenvalue exactly -1 at "
    "every alpha, real or complex; det(I - H^m) therefore vanishes "
    "identically for even m and cannot approach 1. Measured on the deflated "
    "determinant the non-structural spectrum moves toward the unit circle "
    "as Im(alpha) grows (top modulus 0.51, 0.82, 0.94 at t = 2, 5, 10; "
    "|det_deflated| wanders in [0.94, 1.85]), and beyond t ~ 6 the coupling "
    "growth |c'| ~ e^(pi t/2) exceeds float64 resolution of the kernel "
    "quadrature, so the stated limit fails in substance as well"))
def test_12_determinant_decay_large_imaginary_alpha():
    """Expected to fail (see the xfail reason).

    Its t = 10 and t = 20 figures rest on round-off.  At Im(alpha) = 20
    the kernel row integrals are 7e-16 to 1.5e-14 of the sum of their
    terms' moduli (about 7), the size of the round-off of the y profile J
    they sum: the (theta, y, omega) tensor sum that J replaced gave values
    up to 2.5% apart.  They are summed by ``np.einsum``, not BLAS, so one
    and two OpenBLAS threads give the same bits on one build; another
    build or summation order moves them.  At t = 20 on 96 nodes H's
    eigenvalues reach 218 in modulus, the product of the 192 factors
    1 - mu^2 besides the 96 zeros' overflows, and ``fredholm_det`` raises
    ValueError, so the test fails there before it reaches its assertion
    (CI runs it under ``--runxfail`` and checks that message).  Were the
    product finite, the next check would refuse it too: no eigenvalue of
    -H12 lies within the deflation disc at t = 20.
    """
    dets = []
    for t in (5.0, 10.0, 20.0):
        H = ks.assemble_H(1.5 + 1j * t, 96, kappa=0.5)
        res = ks.fredholm_det(H, 2, refine=False)
        dets.append(abs(res.det_value))
    gaps = [abs(d - 1.0) for d in dets]
    report(12, gaps[0] >= gaps[1] >= gaps[2] and gaps[2] <= 0.1,
           f"|det(I-H^2)| at t=5,10,20: {dets}")
