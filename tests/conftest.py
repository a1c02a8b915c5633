"""Shared fixtures: the acceptance suite's expensive ones and a rule-cache reset."""

import numpy as np
import pytest

from levylab import fixed_point as fp
from levylab import halfplane as hp
from levylab import quadrature
from levylab.experiments import derived_seed
from levylab.matrix_model import (
    build_levy_matrix,
    eigendecompose,
    eigenvalue_counting,
    empirical_gamma,
    resolvent_diagonal,
)
from oracles import solve_gamma_path

MASTER_SEED = 7


@pytest.fixture(scope="session")
def alpha1_ensemble():
    """Per-seed summaries of 20 samples at alpha=1, n=2000.

    Keys: gamma_bar (mean order parameter on the 65-grid), count_fracs
    (fraction of eigenvalues in [-0.1, 0.1]), r2 (mean |R_kk(0.2i)|^2).
    """
    grid = hp.default_grid(65)
    gsum = np.zeros(grid.size, dtype=complex)
    fracs, r2 = [], []
    for k in range(20):
        seed = derived_seed(MASTER_SEED, 2000, k)
        sd = eigendecompose(build_levy_matrix(2000, 1.0, seed))
        rd = resolvent_diagonal(sd, 0.2j)
        gsum += empirical_gamma(rd.values, 1.0, grid).values
        fracs.append(eigenvalue_counting(sd, -0.1, 0.1) / 2000)
        r2.append(float(np.mean(np.abs(rd.values) ** 2)))
    return {
        "grid": grid,
        "gamma_bar": hp.HomogeneousFn(0.5, grid, gsum / 20),
        "count_fracs": np.array(fracs),
        "r2": np.array(r2),
    }


@pytest.fixture(scope="session")
def gamma_star_02i():
    """Continuation solve of the order-parameter fixed point to z = 0.2i."""
    sols = solve_gamma_path([0.05j, 0.1j, 0.15j, 0.2j], 1.0, tol=1e-8,
                               m=65, quad=fp.QuadratureConfig.fast())
    return sols


@pytest.fixture(scope="session")
def pools_02i():
    """Independent population-dynamics replicas at z = 0.2i, alpha = 1.

    Samples inside one equilibrated pool share ancestry, so the naive
    within-pool standard error understates the estimator fluctuation;
    statistics are taken as replica means with across-replica errors.
    """
    pools = []
    for r in range(8):
        rng = np.random.default_rng(
            np.random.SeedSequence(MASTER_SEED, spawn_key=(2, r)))
        pools.append(fp.population_dynamics(0.2j, 1.0, pool_size=25_000,
                                            sweeps=30, K=400, rng=rng))
    return pools


@pytest.fixture
def fresh_unit_rules():
    """Empty the log-power unit-rule cache before and after a test, so a
    test that changes the rule's constants leaves no rule of its own behind."""
    quadrature._log_power_unit_rule.cache_clear()
    yield
    quadrature._log_power_unit_rule.cache_clear()
