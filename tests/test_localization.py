import numpy as np
import pytest

from levylab.localization import EmptyWindowError, interval_stats, resolvent_upper_bound
from levylab.matrix_model import (
    SpectralDecomposition,
    build_levy_matrix,
    eigendecompose,
    resolvent_diagonal,
)


def _sample(n, alpha, seed):
    return eigendecompose(build_levy_matrix(n, alpha, seed))


def test_full_line_is_uniform():
    sd = _sample(60, 1.0, 1)
    st = interval_stats(sd, (sd.eigenvalues[0], sd.eigenvalues[-1]), 1.0)
    assert st.count == 60
    assert np.allclose(st.P, 1.0 / 60)
    assert abs(st.Q - 1.0) < 1e-10
    assert abs(st.P.sum() - 1.0) < 1e-10


def test_two_by_two_hand_case():
    sd = eigendecompose(np.diag([0.0, 1.0]))
    st = interval_stats(sd, (-0.5, 0.5), 1.0)
    assert st.count == 1
    assert np.allclose(sorted(st.P), [0.0, 1.0])
    assert abs(st.Q - 2.0) < 1e-12
    assert abs(st.Pi - 2.0) < 1e-12


def test_sandwich_inequality():
    for seed in range(20):
        sd = _sample(80, 0.8, seed)
        st = interval_stats(sd, (-0.4, 0.4), 0.8)
        if st.is_empty:
            continue
        assert 1.0 - 1e-10 <= st.Q <= 80 + 1e-10
        assert st.Q - 1e-10 <= st.Pi <= st.Q * st.count + 1e-10


def test_probability_vector_normalization():
    sd = _sample(70, 1.2, 3)
    st = interval_stats(sd, (-1.0, 0.2), 1.2)
    assert abs(st.P.sum() - 1.0) < 1e-10


def test_empty_window_is_explicit():
    sd = eigendecompose(np.diag([0.0, 1.0]))
    st = interval_stats(sd, (5.0, 6.0), 1.0)
    assert st.is_empty and st.count == 0
    assert st.Q is None and st.Pi is None and st.P is None
    with pytest.raises(ValueError):
        interval_stats(sd, (1.0, 0.0), 1.0)


def test_resolvent_bound_two_by_two():
    sd = eigendecompose(np.diag([0.0, 1.0]))
    st = interval_stats(sd, (-0.5, 0.5), 1.0)
    rd = resolvent_diagonal(sd, 0.0 + 0.5j)
    lhs, rhs = resolvent_upper_bound(rd, st)
    assert lhs <= rhs


def test_resolvent_bound_monte_carlo():
    # the lemma pairing I = [E-eta, E+eta], z = E + i eta holds samplewise
    checked = 0
    for seed in range(40):
        sd = _sample(150, 1.0, 200 + seed)
        st = interval_stats(sd, (-0.1, 0.1), 1.0)
        if st.is_empty:
            continue
        rd = resolvent_diagonal(sd, 0.1j)
        lhs, rhs = resolvent_upper_bound(rd, st)
        assert lhs <= rhs * (1 + 1e-12)
        checked += 1
    assert checked >= 35


def test_resolvent_bound_pairing_enforced():
    sd = _sample(30, 1.0, 5)
    st = interval_stats(sd, (-0.1, 0.1), 1.0)
    rd = resolvent_diagonal(sd, 0.2 + 0.1j)  # center mismatch
    with pytest.raises(ValueError):
        resolvent_upper_bound(rd, st)
    empty = interval_stats(sd, (90.0, 91.0), 1.0)
    with pytest.raises(EmptyWindowError):
        resolvent_upper_bound(resolvent_diagonal(sd, 90.5 + 0.5j), empty)


def test_invariance_under_signs_and_permutations():
    sd = _sample(40, 1.1, 6)
    st = interval_stats(sd, (-0.5, 0.5), 1.1)
    rng = np.random.default_rng(0)
    signs = rng.choice([-1.0, 1.0], size=40)
    perm = rng.permutation(40)
    sd2 = SpectralDecomposition(sd.eigenvalues[perm],
                                (sd.eigenvectors * signs[None, :])[:, perm])
    st2 = interval_stats(sd2, (-0.5, 0.5), 1.1)
    assert abs(st.Q - st2.Q) < 1e-10
    assert abs(st.Pi - st2.Pi) < 1e-10


def test_stability_under_reorthonormalization():
    sd = _sample(60, 1.0, 7)
    rng = np.random.default_rng(1)
    noisy = sd.eigenvectors + 1e-8 * rng.normal(size=(60, 60))
    q, _ = np.linalg.qr(noisy)
    st = interval_stats(sd, (-0.5, 0.5), 1.0)
    st2 = interval_stats(SpectralDecomposition(sd.eigenvalues, q), (-0.5, 0.5), 1.0)
    assert abs(st.Q - st2.Q) < 1e-6 * st.Q
