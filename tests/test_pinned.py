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
integrals became one.  Any later rewrite
must reproduce them to ``RTOL`` (or the case's entry in ``CASE_RTOL``) in
the sup norm.

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

#: grid indices at which the eval_G values are kept (m = 33)
G_ANGLES = [0, 5, 11, 16, 22, 27, 32]
KERNEL_PAIRS = [(0.2, 0.9), (0.05, 0.3), (1.3, 0.4), (0.7, 0.71), (0.01, 1.5)]
ROW_OMEGAS = [0.05, 0.4, 0.785, 1.2, 1.52]
KERNEL_ALPHAS = [0.9, 1.5, 1.5 + 5j]
FREDHOLM_ALPHAS = [1.1, 1.5 + 5j]
FREDHOLM_NODES = 32
#: pool members kept from a two-chunk run (every 250th slot)
POOL_Z = [0.2j, 0.3 + 0.2j]
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


def _pool(z):
    pool = fp.population_dynamics(z, 1.0, pool_size=3001, sweeps=4, K=60,
                                  rng=np.random.default_rng(17), chunk=2000)
    return pool.pool[::250]


def _density(alpha):
    """The f_star values on DENSITY_E, then their extrapolation errors."""
    pairs = [fp.spectral_density(e, alpha) for e in DENSITY_E]
    return np.array([f for f, _ in pairs] + [err for _, err in pairs], dtype=complex)


def _r_p(z, quad):
    g = fp.gamma_star_zero(1.0)
    return np.array([fp.r_p(z, g, p, quad) for p in R_P_ORDERS])


def _s_p(alpha):
    return np.array([fp.s_p(z, x, p, alpha) for z, x in S_P_POINTS for p in S_P_ORDERS])


def _tilde_gamma(alpha):
    return np.array([fp.solve_tilde_gamma(z, alpha) for z in TILDE_GAMMA_Z])


def _not_a_fixed_point():
    return from_callable(0.6, lambda t: 1.0 + 0.3 * np.cos(3 * t) + 0.2j * np.sin(t), 33)


def cases() -> dict:
    """Case name -> function returning the pinned values."""
    out = {}
    for a in (0.8, 1.0, 1.5):
        for z in (0.1j, 0.2 + 0.1j):
            for qname, quad in (("fast", fp.QuadratureConfig.fast()),
                                ("default", fp.QuadratureConfig())):
                out[f"eval_G alpha={a} z={z} {qname}"] = partial(_eval_G, a, z, quad)
    out["apply_linearized gamma_star_zero(1.2)"] = \
        lambda: ks.apply_linearized(fp.gamma_star_zero(1.2)).values
    out["apply_linearized not a fixed point"] = \
        lambda: ks.apply_linearized(_not_a_fixed_point()).values
    for a in KERNEL_ALPHAS:
        out[f"kernel_k alpha={a}"] = partial(_kernel_k, a)
        out[f"kernel_row_integrals alpha={a}"] = partial(_row_integrals, a)
    for a in FREDHOLM_ALPHAS:
        for field in ("det_deflated", "refinement_delta"):
            out[f"fredholm_det {field} alpha={a} n={FREDHOLM_NODES}"] = \
                partial(_fredholm, a, field)
    for z in POOL_Z:
        out[f"population_dynamics z={z}"] = partial(_pool, z)
    for a in DENSITY_ALPHAS:
        out[f"spectral_density alpha={a}"] = partial(_density, a)
    out["stieltjes_mass(-0.1, 0.1, 1.0, n_points=9)"] = \
        lambda: np.array([fp.stieltjes_mass(-0.1, 0.1, 1.0, n_points=9)], dtype=complex)
    for z in R_P_Z:
        for qname, quad in (("fast", fp.QuadratureConfig.fast()),
                            ("default", fp.QuadratureConfig())):
            out[f"r_p gamma_star_zero(1.0) z={z} {qname}"] = partial(_r_p, z, quad)
    for a in (0.8, 1.0):
        out[f"s_p alpha={a}"] = partial(_s_p, a)
        out[f"solve_tilde_gamma alpha={a}"] = partial(_tilde_gamma, a)
    return out


CASES = cases()
CASE_RTOL = {name: FREDHOLM_RTOL for name in CASES if name.startswith("fredholm_det")}
CASE_RTOL.update({name: DENSITY_RTOL for name in CASES
                  if name.startswith(("spectral_density", "stieltjes_mass"))})
CASE_RTOL.update({name: R_P_FAST_RTOL for name in CASES
                  if name.startswith("r_p") and name.endswith("fast")})


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_matches_pinned_values(name, pinned):
    ref = np.array(pinned[name])
    ref = ref[:, 0] + 1j * ref[:, 1]
    got = CASES[name]()
    assert got.shape == ref.shape
    rtol = CASE_RTOL.get(name, RTOL)
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


if __name__ == "__main__":
    # append-only: recorded values stay as they are, missing cases are added
    table = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for name, run in CASES.items():
        if name not in table:
            table[name] = [[v.real, v.imag] for v in run()]
    lines = [f" {json.dumps(name)}: {json.dumps(vals)}" for name, vals in table.items()]
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
