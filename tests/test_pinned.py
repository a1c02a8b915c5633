"""Old == new gate for the shared integral core and the Nystrom assembly.

``pinned_values.json`` holds outputs of ``eval_G``, ``apply_linearized``,
``kernel_k`` and ``kernel_row_integrals`` recorded before these functions
were rebuilt on one angle rule, one endpoint-power rule and one
difference-integral core, Fredholm determinants recorded before the
kernel was evaluated row by row with the mirror fill, pool members
of ``population_dynamics`` recorded before its sweep ran on threads, and
limiting densities and a Stieltjes mass recorded before each energy's
eta ladder became one continuation, and on-axis absolute moments,
signed moments and scalar roots recorded before the two radial
integrals became one, functional fixed points recorded before the
damped solver took secant steps, and eval_G at alpha = 1.95 recorded
while F's near difference was formed through expm1.  Any later rewrite
must reproduce them to ``RTOL`` (or the case's entry in ``CASE_RTOL``) in
the sup norm.

The eval_G and solve_gamma_star cases that moved beyond their tolerance
when F came to integrate the angular profile of its radial integral
(``REPINNED``) are re-recorded in the file under their names plus
``PROFILE``.  Their earlier values stay there under the plain names,
with eval_G at the bench's setting and at -0.3+0.05i, as the values
from before that change: the refinement test below requires the
profile form to be at least as close to a finer rule as they were.
The pool cases are re-recorded under their names plus ``SUB_POOLS``:
the pool became independent sub-pools with their own streams and a new
start, which changed its draws.  The plain names keep the members of
the single pool before that.  They are re-recorded once more under
their names plus ``SUB_POOLS`` and ``GAMMA_UNIFORMS``: each row of
weights became one Gamma(K + 1) draw times K uniforms in place of K
exponentials and their running sum, which drew new members from the
same law.  The keys with ``SUB_POOLS`` alone keep the members from
before that.  The eval_G cases that moved when F gave up
its own s-rule, one truncation for all angles and no contour rotation,
for ``radial_integral_rotated`` (``RADIAL_REPINNED``) are re-recorded
under their names plus ``ONE_RADIAL``; off the imaginary axis each angle
now turns its contour where that leaves less phase, and on the axis
each has its own truncation.  The row integrals at 1.5+5i were recorded
on 96 theta nodes, a count the package never used at that alpha; they
are re-recorded under their name plus ``THETA_FROM_ALPHA`` on the count
``kernel_row_integrals`` now picks itself (136 nodes there), which moved
them by 1.3e-8 relative.

Record the cases missing from the file (existing entries are never
rewritten; to re-record one on purpose, delete its entry first):

    PYTHONPATH=src python tests/test_pinned.py
"""

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from levylab import fixed_point as fp
from levylab import kernel_spectrum as ks
from levylab.halfplane import from_callable
from oracles import apply_linearized

PINNED = Path(__file__).with_name("pinned_values.json")
RTOL = 1e-12
#: determinants of the mirror-filled assembly: the mirror gap of the
#: per-pair assembly (up to 2e-10 on the diagonal at 1.5+5i) moves them
FREDHOLM_RTOL = 1e-8
#: densities and masses: a different warm start moves each scalar Newton
#: root within its 1e-12 tolerance, and the Richardson step amplifies that
DENSITY_RTOL = 1e-10
#: on-axis r_p with the fast rule: each angle's radial integral now has its
#: own truncation instead of the batch's smallest, which moved these by
#: 3.5e-12 (z = 0.25i) and 7.5e-12 (z = 1i), well inside the fast rule's own
#: error (4e-11 to 7e-11 against the default rule)
R_P_FAST_RTOL = 2e-11
#: functional fixed points solved to 1e-10: a different iteration stops at
#: a different point inside the tolerance ball
SOLVE_RTOL = 1e-9
#: eval_G at alpha = 1.95, where the near difference of F's integrand
#: cancels worst: recorded with the difference formed through expm1, and
#: the plain phi(e) - phi(e + y u) moves them by up to 3.2e-12, far inside
#: the rule's own error (eval_G_error_estimate: 1e-7 relative)
NEAR_DIFFERENCE_RTOL = 1e-11

RULES = (("fast", fp.QuadratureConfig.fast()), ("default", fp.QuadratureConfig()))
G_ALPHAS = [0.8, 1.0, 1.5, 1.95]
G_Z = [0.1j, 0.2 + 0.1j]
#: grid indices at which the eval_G values are kept (m = 33)
G_ANGLES = [0, 5, 11, 16, 22, 27, 32]
KERNEL_PAIRS = [(0.2, 0.9), (0.05, 0.3), (1.3, 0.4), (0.7, 0.71), (0.01, 1.5)]
ROW_OMEGAS = [0.05, 0.4, 0.785, 1.2, 1.52]
KERNEL_ALPHAS = [0.9, 1.5, 1.5 + 5j]
FREDHOLM_ALPHAS = [1.1, 1.5 + 5j]
FREDHOLM_NODES = 32
#: pool members kept from a run of eight sub-pools (every 250th slot)
POOL_Z = [0.2j, 0.3 + 0.2j]
#: a pool at the bench's K, recorded before the arrival sums became a
#: recurrence over columns and the sweep reused its exponentials' buffer
POOL_BENCH_Z = 0.5 + 0.2j
POOL_BENCH_K = 200
DENSITY_ALPHAS = [0.8, 1.0]
DENSITY_E = [0.0, 0.5, 1.0, 2.5, 5.0]
R_P_Z = [0.25j, 1j]
R_P_ORDERS = [0.5, 1.0, 2.0]
#: (z, x): |Re z| below and above half of Im z, where s_p used to switch
#: from the plain to the rotated radial integral
S_P_POINTS = [(0.1 + 0.4j, 0.9 + 0.1j), (-0.15 + 0.4j, 0.9 - 0.1j),
              (0.3 + 0.4j, 0.9 + 0.1j), (-1.0 + 0.2j, 0.5 + 0.3j),
              (3.0 + 0.05j, 0.4 + 0.6j)]
S_P_ORDERS = [0.5, 1.0]
TILDE_GAMMA_Z = [0.1j, 0.4 + 0.1j, 1.0 + 0.5j, -2.0 + 1.0j]
SOLVE_Z = [0.2j, 0.2 + 0.2j]
#: suffix of the keys of the cases re-recorded when F came to integrate
#: the profile
PROFILE = ", angular profile"
REPINNED = {
    "eval_G alpha=0.8 z=0.1j fast", "eval_G alpha=0.8 z=(0.2+0.1j) fast",
    "eval_G alpha=0.8 z=(0.2+0.1j) default", "eval_G alpha=1.0 z=0.1j fast",
    "eval_G alpha=1.0 z=(0.2+0.1j) fast", "eval_G alpha=1.0 z=(0.2+0.1j) default",
    "eval_G alpha=1.5 z=0.1j fast", "eval_G alpha=1.5 z=(0.2+0.1j) fast",
    "solve_gamma_star alpha=1.0 z=(0.2+0.2j)",
}
#: suffix of the keys of the pool cases re-recorded when the pool became
#: independent sub-pools
SUB_POOLS = ", eight sub-pools"
#: suffix added to those when each row's weights became Gamma_(K+1) times
#: K uniforms
GAMMA_UNIFORMS = ", gamma times uniforms"
#: suffix of the keys of the cases re-recorded when F took its radial
#: integral from ``radial_integral_rotated``
ONE_RADIAL = ", one radial integral"
RADIAL_REPINNED = {
    "eval_G alpha=0.8 z=0.1j fast", "eval_G alpha=0.8 z=(0.2+0.1j) fast",
    "eval_G alpha=0.8 z=(0.2+0.1j) default", "eval_G alpha=1.0 z=(0.2+0.1j) fast",
    "eval_G alpha=1.0 z=(0.2+0.1j) default",
}

#: suffix of the key of the complex-alpha row integrals, re-recorded when
#: kernel_row_integrals came to pick its theta count from alpha
THETA_FROM_ALPHA = ", theta count from alpha"
THETA_REPINNED = {"kernel_row_integrals alpha=(1.5+5j)"}


def _eval_G(alpha, z, quad):
    return fp.eval_G(z, fp.gamma_star_zero(alpha, 33), quad).values[G_ANGLES]


def _kernel_k(alpha):
    return np.array([ks.kernel_k(alpha, o, p) for o, p in KERNEL_PAIRS])


def _row_integrals(alpha):
    return ks.kernel_row_integrals(alpha, np.array(ROW_OMEGAS))


def _fredholm(alpha, field):
    H = ks.assemble_H(alpha, FREDHOLM_NODES)
    res = ks.fredholm_det(H, ks.band_power(complex(alpha).real))
    return np.array([getattr(res, field)], dtype=complex)


def _pool(z, sweeps=4, K=60):
    pool = fp.population_dynamics(z, 1.0, pool_size=3001, sweeps=sweeps, K=K,
                                  rng=np.random.default_rng(17))
    return pool.pool[::250]


def _density(alpha):
    """The f_star values on DENSITY_E, then their extrapolation errors."""
    return np.concatenate(fp.spectral_density(np.array(DENSITY_E), alpha)).astype(complex)


def _r_p(z, quad):
    g = fp.gamma_star_zero(1.0)
    return np.array([fp.r_p(z, g, p, quad) for p in R_P_ORDERS])


def _s_p(alpha):
    return np.array([fp.s_p(z, x, p, alpha) for z, x in S_P_POINTS for p in S_P_ORDERS])


def _tilde_gamma(alpha):
    return np.array([fp.solve_tilde_gamma(z, alpha) for z in TILDE_GAMMA_Z])


def _solve(z):
    return fp.solve_gamma_star(z, 1.0, tol=1e-10, quad=fp.QuadratureConfig.fast()).gamma.values


def _not_a_fixed_point():
    return from_callable(0.6, lambda t: 1.0 + 0.3 * np.cos(3 * t) + 0.2j * np.sin(t), 33)


def cases() -> dict:
    """Case name -> function returning the pinned values."""
    out = {}
    for a in G_ALPHAS:
        for z in G_Z:
            for qname, quad in RULES:
                out[f"eval_G alpha={a} z={z} {qname}"] = partial(_eval_G, a, z, quad)
    out["apply_linearized gamma_star_zero(1.2)"] = \
        lambda: apply_linearized(fp.gamma_star_zero(1.2)).values
    out["apply_linearized not a fixed point"] = \
        lambda: apply_linearized(_not_a_fixed_point()).values
    for a in KERNEL_ALPHAS:
        out[f"kernel_k alpha={a}"] = partial(_kernel_k, a)
        out[f"kernel_row_integrals alpha={a}"] = partial(_row_integrals, a)
    for a in FREDHOLM_ALPHAS:
        for field in ("det_deflated", "refinement_delta"):
            out[f"fredholm_det {field} alpha={a} n={FREDHOLM_NODES}"] = \
                partial(_fredholm, a, field)
    for z in POOL_Z:
        out[f"population_dynamics z={z}"] = partial(_pool, z)
    out[f"population_dynamics z={POOL_BENCH_Z} K={POOL_BENCH_K}"] = \
        partial(_pool, POOL_BENCH_Z, sweeps=3, K=POOL_BENCH_K)
    for a in DENSITY_ALPHAS:
        out[f"spectral_density alpha={a}"] = partial(_density, a)
    out["stieltjes_mass(-0.1, 0.1, 1.0, n_points=9)"] = \
        lambda: np.array([fp.stieltjes_mass(-0.1, 0.1, 1.0, n_points=9)], dtype=complex)
    for z in R_P_Z:
        for qname, quad in RULES:
            out[f"r_p gamma_star_zero(1.0) z={z} {qname}"] = partial(_r_p, z, quad)
    for a in (0.8, 1.0):
        out[f"s_p alpha={a}"] = partial(_s_p, a)
        out[f"solve_tilde_gamma alpha={a}"] = partial(_tilde_gamma, a)
    for z in SOLVE_Z:
        out[f"solve_gamma_star alpha=1.0 z={z}"] = partial(_solve, z)
    return out


CASES = cases()
CASE_RTOL = {name: FREDHOLM_RTOL for name in CASES if name.startswith("fredholm_det")}
CASE_RTOL.update({name: DENSITY_RTOL for name in CASES
                  if name.startswith(("spectral_density", "stieltjes_mass"))})
CASE_RTOL.update({name: R_P_FAST_RTOL for name in CASES
                  if name.startswith("r_p") and name.endswith("fast")})
CASE_RTOL.update({name: SOLVE_RTOL for name in CASES if name.startswith("solve_gamma_star")})
CASE_RTOL.update({name: NEAR_DIFFERENCE_RTOL for name in CASES
                  if name.startswith("eval_G alpha=1.95")})


#: eval_G cases held against a 4x finer rule: the pinned ones, the bench's
#: fixed-point setting (alpha = 1, z = 0.2i, quad_scale 0.75, m = 65) and
#: -0.3+0.05i; name -> (values under a rule, the rule)
REFINED = {f"eval_G alpha={a} z={z} {qname}": (partial(_eval_G, a, z), quad)
           for a in G_ALPHAS for z in G_Z for qname, quad in RULES}
REFINED["eval_G alpha=1.0 z=0.2j m=65 bench"] = (
    lambda quad: fp.eval_G(0.2j, fp.gamma_star_zero(1.0, 65), quad).values,
    fp.QuadratureConfig().scaled(0.75))
REFINED["eval_G alpha=1.0 z=(-0.3+0.05j) default"] = (
    partial(_eval_G, 1.0, -0.3 + 0.05j), fp.QuadratureConfig())
#: round-off allowance of the comparison, relative: the interpolated
#: profile and the near difference move eval_G by up to 3.7e-12
REFINED_SLACK = 1e-11


def key(name: str) -> str:
    """The case's entry in the file."""
    if name.startswith("population_dynamics"):
        return name + SUB_POOLS + GAMMA_UNIFORMS
    if name in RADIAL_REPINNED:
        return name + ONE_RADIAL
    if name in THETA_REPINNED:
        return name + THETA_FROM_ALPHA
    return name + PROFILE if name in REPINNED else name


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_matches_pinned_values(name, pinned):
    ref = np.array(pinned[key(name)])
    ref = ref[:, 0] + 1j * ref[:, 1]
    got = CASES[name]()
    assert got.shape == ref.shape
    rtol = CASE_RTOL.get(name, RTOL)
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("name", list(REFINED))
def test_eval_G_no_farther_from_a_finer_rule(name, pinned):
    # the plain name holds the value from before the profile form
    run, quad = REFINED[name]
    ref = run(quad.scaled(4.0))
    before = np.array(pinned[name])
    before = before[:, 0] + 1j * before[:, 1]
    err, err_before = (np.max(np.abs(v - ref)) for v in (run(quad), before))
    assert err <= err_before + REFINED_SLACK * np.max(np.abs(ref))


if __name__ == "__main__":
    # append-only: recorded values stay as they are, missing cases are added
    table = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for name, run in CASES.items():
        if key(name) not in table:
            table[key(name)] = [[v.real, v.imag] for v in run()]
    lines = [f" {json.dumps(name)}: {json.dumps(vals)}" for name, vals in table.items()]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
