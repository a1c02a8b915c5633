"""Nystrom discretization of the linearized operator at the origin.

Linearizing the fixed-point map at its closed-form solution produces,
after a change of variables, a weakly singular kernel k(omega, psi) on
[0, pi/2]^2, a scalar integral operator P with that kernel, and a
3x3-block operator H (components indexed by {0, 1, i}) coupling a
degree-alpha/2 function with its two Cartesian partials.  The spectrum
of the linearization is contained in the spectrum of H, so near-zeros of
the Fredholm determinant det(I - H^m) flag the stability exceptions of
the fixed point.  Everything here also supports complex alpha, which the
determinant decay checks at large Im(alpha) require; with Re(alpha) up
to 2 the matrices stay finite, as ``log_power_rule`` lumps the endpoint
nodes past x = 0.  ``assemble_P`` builds its kernel rows on
``fixed_point``'s thread pool while the calling thread takes the row
integrals, and raises ValueError on a non-finite entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from . import fixed_point
from .fixed_point import SAMPLE_ERRORS, c_alpha
from .halfplane import HALF_PI
from .quadrature import gauss_legendre_panels, power_rule, sin2_theta_rule


def c_prime(alpha) -> complex:
    """Block-operator coupling c'_alpha = c_alpha * 2/(alpha * a0^2).

    Equals alpha*sin(pi alpha/2)/(2^(alpha/2) pi) by the reflection
    formula; kept in the Gamma form to mirror the construction.
    """
    alpha = complex(alpha)
    a0_sq = gamma_fn(1.0 - 0.5 * alpha) / gamma_fn(1.0 + 0.5 * alpha)
    return c_alpha(alpha) * 2.0 / (alpha * a0_sq)


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

def kernel_k(alpha, omega, psi, n_jac: int = 24, gl_order: int = 12):
    """The kernel k(omega, psi), omega != psi, on (0, pi/2)^2.

    For psi > omega:
        sin(psi-omega)^(alpha-1) * int_psi^(pi/2) sin(2 theta)^(alpha/2-1)
        sin(theta-psi)^(-alpha/2) sin(theta-omega)^(-alpha/2) dtheta
    and the psi < omega branch is the mirror image under
    theta -> pi/2 - theta, i.e. k(omega, psi) = k(pi/2-omega, pi/2-psi).
    ``omega`` and ``psi`` broadcast against each other (a whole Nystrom
    row in one call); scalars give a complex scalar.  All bases are
    positive reals, so each power is the principal one,
    exp(exponent * log(base)), and |k^alpha| <= k^(Re alpha) pointwise.

    The theta integral runs in offsets from psi over three panels.  The
    endpoint singularities carry exact weights from ``power_rule``
    (complex weights for complex alpha, so the dist^(i Im alpha)
    oscillation is exact too); the pole just below the interval, at
    distance d = psi - omega, is defused by geometric panel growth away
    from psi, padded with zero-width panels to the longest recurrence in
    the batch.  All distances are formed in offset arithmetic, never by
    subtracting nearby floats.
    """
    alpha = complex(alpha)
    if not 0.0 < alpha.real < 2.0:
        raise ValueError("Re(alpha) must lie in (0, 2)")
    omega, psi = np.broadcast_arrays(np.asarray(omega, dtype=float),
                                     np.asarray(psi, dtype=float))
    if not np.all((0.0 < omega) & (omega < HALF_PI) & (0.0 < psi) & (psi < HALF_PI)):
        raise ValueError("kernel arguments must lie in the open interval")
    if np.any(omega == psi):
        raise ValueError("kernel is singular on the diagonal; use the "
                         "assembly rule for diagonal cells")
    flip = psi < omega
    om = np.where(flip, HALF_PI - omega, omega).ravel()
    ps = np.where(flip, HALF_PI - psi, psi).ravel()
    # real arithmetic throughout when alpha is real
    a = alpha if alpha.imag else alpha.real
    a2 = 0.5 * a
    L = HALF_PI - ps
    d = ps - om
    Lc, dc, psc = L[:, None], d[:, None], ps[:, None]
    log_pref = (a - 1.0) * np.log(np.sin(dc))

    def weighted(w, log_sin2, log_sin_off, off):
        """w * sin(d)^(alpha-1) sin(2 theta)^(alpha/2-1) sin(off)^(-alpha/2)
        sin(off+d)^(-alpha/2) at theta = psi + off, as one exp.

        The exp comes first: SIMD complex products are not bitwise
        commutative, and numpy reuses a large left temporary in place
        without swapping operands, so each pair sees the same product
        whatever the batch size."""
        return np.exp(log_pref + (a2 - 1.0) * log_sin2
                      - a2 * (log_sin_off + np.log(np.sin(off + dc)))) * w

    def log_sin2(off):
        return np.log(2.0 * np.sin(psc + off) * np.sin(Lc - off))

    # left panel [psi, psi + t1]: weight off^(-alpha/2)
    t1 = np.minimum(2.0 * d, 0.5 * L)
    off, w = power_rule(-a2, t1, n_jac)
    left = weighted(w, log_sin2(off), np.log(np.sin(off) / off), off).sum(axis=-1)

    # geometric middle panels in offset space, from t1 out to 3L/4; the
    # panel ratio resolves the Im(alpha)*log(off) phase drift
    hi = 0.75 * L
    ratio = 2.0 if alpha.imag == 0.0 else min(2.0, np.exp(1.5 / abs(a2.imag)))
    edges = [t1]
    while np.any(edges[-1] < hi):
        edges.append(np.minimum(ratio * edges[-1], hi))
    off, w = gauss_legendre_panels(np.stack(edges, axis=-1), order=gl_order)
    vals = weighted(w, log_sin2(off), np.log(np.sin(off)), off)
    # panel sums accumulate in order, so padding panels add exact zeros
    per_panel = vals.reshape(ps.size, len(edges) - 1, gl_order).sum(axis=-1)
    middle = per_panel.cumsum(axis=-1)[:, -1]

    # right panel [pi/2 - L/4, pi/2]: weight dist^(alpha/2 - 1),
    # with sin(2 theta) = sin(2 dist) there
    dist, w = power_rule(a2 - 1.0, 0.25 * L, n_jac)
    th_off = Lc - dist
    right = weighted(w, np.log(np.sin(2.0 * dist) / dist), np.log(np.sin(th_off)),
                     th_off).sum(axis=-1)

    val = (left + middle + right).astype(complex).reshape(omega.shape)
    return complex(val) if val.ndim == 0 else val


def kernel_bound(alpha, omega: float, psi: float) -> tuple[float, str]:
    """Envelope shape from the three-regime kernel estimate (constant-free).

    Returns (shape, regime) with regimes keyed by Re(alpha) below, at,
    or above 1; the at-1 regime carries the logarithmic factor.
    """
    b = complex(alpha).real
    s = min(np.sin(2.0 * psi), np.sin(2.0 * omega))
    gap = abs(psi - omega)
    if b < 1.0:
        return gap ** (b - 1.0) * s ** (-0.5 * b), "subcritical"
    if b == 1.0:
        return s ** (-0.5) * max(1.0, np.log(np.sin(2.0 * psi) / gap)), "log"
    return s ** (0.5 * b - 1.0), "supercritical"


# ---------------------------------------------------------------------------
# row integrals (the kernel applied to the constant function)
# ---------------------------------------------------------------------------

#: bytes of one complex (theta, y, omega) tensor in kernel_row_integrals;
#: the omegas are taken in blocks that stay under it
ROW_INTEGRAL_BYTES = 64 << 20
#: Gauss-Jacobi nodes of each y piece in kernel_row_integrals
ROW_N_Y = 32


def kernel_row_integrals(alpha, omegas: np.ndarray, n_theta: int = 96) -> np.ndarray:
    """int_0^(pi/2) k(omega, psi) dpsi through the original (theta, y) form.

    Identity: the row integral equals
    int dtheta sin(2 theta)^(alpha/2-1) int_0^inf dy y^(-alpha/2)
    |e^(i theta) + y e^(i omega)|^(-1-alpha/2),
    split at y = 1 with y = 1/w on the far piece, each piece carrying an
    exact Jacobi weight.  No singularities: the modulus stays >= 1.
    """
    alpha = complex(alpha)
    a = alpha if alpha.imag else alpha.real
    th, wsin = sin2_theta_rule(n_theta, 0.5 * a - 1.0)
    omegas = np.asarray(omegas, dtype=float)
    # near piece: weight y^(-alpha/2); far piece: y = 1/w, weight w^(alpha - 1)
    pieces = (power_rule(-0.5 * a, 1.0, ROW_N_Y), power_rule(a - 1.0, 1.0, ROW_N_Y))

    def piece(cos_gap, y, wy):
        # |e^(i theta) + y e^(i omega)|^2 = 1 + y^2 + 2 y cos(theta - omega) >= 1
        mod2 = (1.0 + y * y)[None, :, None] + (2.0 * y)[None, :, None] * cos_gap[:, None, :]
        power = (-0.5 - 0.25 * a) * np.log(mod2, out=mod2)
        weights = (wsin[:, None] * wy[None, :]).ravel()
        return weights @ np.exp(power, out=power).reshape(weights.size, -1)

    per_omega = 16 * th.size * max(y.size for y, _ in pieces)
    step = max(1, ROW_INTEGRAL_BYTES // per_omega)
    out = np.empty(omegas.size, dtype=complex)
    for lo in range(0, omegas.size, step):
        cos_gap = np.cos(th[:, None] - omegas[None, lo:lo + step])
        near, far = (piece(cos_gap, *rule) for rule in pieces)
        out[lo:lo + step] = near + far
    return out


# ---------------------------------------------------------------------------
# Nystrom operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NystromOperator:
    alpha: complex
    nodes: np.ndarray
    matrix: np.ndarray
    kappa: float

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)


#: Gauss-Legendre order of the Nystrom mesh panels
MESH_ORDER = 8


def graded_mesh(n_nodes: int, re_alpha: float):
    """Symmetric mesh on (0, pi/2), graded toward both endpoints.

    Panel breakpoints on [0, pi/4] follow (i/P)^(2/Re alpha), mirrored
    about pi/4 so the quarter-turn reflection permutes the nodes exactly.
    """
    panels = max(2, n_nodes // (2 * MESH_ORDER))
    grad = max(1.0, 2.0 / re_alpha)
    left = 0.25 * np.pi * (np.arange(panels + 1) / panels) ** grad
    breaks = np.concatenate([left, (HALF_PI - left[:-1])[::-1]])
    nodes, weights = gauss_legendre_panels(breaks, order=MESH_ORDER)
    if np.min(np.abs(nodes - 0.25 * np.pi)) < 1e-12:
        raise RuntimeError("mesh node collided with pi/4")
    return nodes, weights


#: fewest Nystrom nodes an operator is assembled on
MIN_NODES = 16


def assemble_P(alpha, n_nodes: int = 64) -> NystromOperator:
    """Nystrom matrix for the scalar kernel operator on the quarter circle.

    Off-diagonal entries are plain weighted kernel values; each diagonal
    entry is set so the row acts exactly on constants (the accurate row
    integral minus the off-diagonal quadrature), which integrates the
    weak |psi-omega|^(alpha-1) singularity against a locally constant
    density.  The kernel rows run on ``fixed_point``'s pool, one per task,
    by the arithmetic of a serial loop, so the matrix does not depend on
    the worker count.  A non-finite entry raises ValueError naming alpha.
    """
    alpha = complex(alpha)
    if not 0.0 < alpha.real < 2.0:
        raise ValueError("Re(alpha) must lie in (0, 2)")
    if n_nodes < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} nodes")
    nodes, weights = graded_mesh(n_nodes, alpha.real)
    n = nodes.size
    # the mesh is mirror-symmetric about pi/4 with an even node count, and
    # k(omega, psi) = k(pi/2-omega, pi/2-psi): rows below the middle are
    # the mirror images P[n-1-i, n-1-j] = P[i, j] of the rows above
    half = n // 2
    cols = np.arange(n)

    def row(i):
        off = cols != i
        return weights[off] * kernel_k(alpha, nodes[i], nodes[off])

    # the kernel rows go to the pool (looked up now: a forked child and
    # the tests rebind it) while this thread takes the row integrals
    rows = [fixed_point._EXECUTOR.submit(row, i) for i in range(half)]
    rowints = kernel_row_integrals(alpha, nodes[:half],
                                   n_theta=96 + 8 * int(abs(alpha.imag)))
    mat = np.zeros((n, n), dtype=complex)
    for i, task in enumerate(rows):
        mat[i, cols != i] = task.result()
        mat[i, i] = rowints[i] - mat[i].sum()
    if not np.all(np.isfinite(mat[:half])):
        raise ValueError(f"non-finite Nystrom entries at alpha={alpha}")
    mat[half:] = mat[half - 1::-1, ::-1]
    if alpha.imag == 0:
        mat = mat.real.astype(complex)
    return NystromOperator(alpha=alpha, nodes=nodes, matrix=mat, kappa=0.0)


def assemble_H(alpha, n_nodes: int = 64, kappa: float = 0.5) -> NystromOperator:
    """3x3-block operator coupling (f, d1 f, di f) built from one P block.

    Structure: H = c'_alpha * Mblock . diag(P, P, P) . diag(N0, N1, Ni) . J
    with multiplication blocks

        Mblock = [[-2(1.u), (2/alpha) u1, (2/alpha) u2],
                  [-alpha,   I,            0          ],
                  [-alpha,   0,            I          ]],

    weights N0 = (1.u)^(-alpha-1), N1 = Ni = (1.u)^(-alpha), and the
    quarter-turn pullback J which reflects the angle and swaps the two
    derivative components (the reflection u -> i*conj(u) exchanges the
    roles of d1 and di in the chain rule).  kappa enters as the exact
    diagonal similarity |cos omega - sin omega|^kappa on the two
    derivative components, leaving the spectrum untouched.
    """
    P = assemble_P(alpha, n_nodes)
    alpha = complex(alpha)
    nodes = P.nodes
    n = nodes.size
    c = np.cos(nodes)
    s = np.sin(nodes)
    one_u = c + s
    PN0 = P.matrix * (one_u ** (-alpha - 1.0))[None, :]
    PN1 = P.matrix * (one_u ** (-alpha))[None, :]

    Z = np.zeros((n, n), dtype=complex)
    row0 = [(-2.0 * one_u)[:, None] * PN0, (2.0 / alpha) * c[:, None] * PN1,
            (2.0 / alpha) * s[:, None] * PN1]
    row1 = [-alpha * PN0, PN1, Z]
    row2 = [-alpha * PN0, Z, PN1]
    S = np.block([row0, row1, row2])

    # J: angle reflection (index reversal on the symmetric mesh) composed
    # with the swap of the two derivative components, applied as the
    # column permutation S @ J = S[:, perm]
    rev = np.arange(n)[::-1]
    H = c_prime(alpha) * S[:, np.concatenate([rev, 2 * n + rev, n + rev])]
    if kappa != 0.0:
        d = np.abs(c - s) ** kappa
        dd = np.concatenate([np.ones(n), d, d])
        H = dd[:, None] * H / dd[None, :]
    return NystromOperator(alpha=alpha, nodes=nodes, matrix=H, kappa=kappa)


# ---------------------------------------------------------------------------
# Fredholm determinants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FredholmResult:
    """Determinant of I - H^m on one grid, with a node-doubling check.

    ``det_value`` is the literal product over all Nystrom eigenvalues.
    The linearized map has two exact structural eigenvalues at -1 for
    every alpha (the fixed point itself is an eigenvector because the
    map is homogeneous of degree -1 in its argument, plus a reflection
    partner), so for even m the literal determinant vanishes
    identically; ``det_deflated`` excludes the structural pair and is
    the quantity whose near-zeros carry information.  The +1 signal
    that flags genuine stability exceptions is never inside the
    deflation disc.  ``refinement_delta`` is measured on the deflated
    value; the literal one is an exact zero up to discretization noise.
    """

    alpha: complex
    m: int
    det_value: complex
    det_deflated: complex
    n_structural: int
    grid_size: int
    refinement_delta: float


#: distance from a dyadic band boundary inside which band_power refuses
BAND_MARGIN = 0.02


def band_power(re_alpha: float) -> int:
    """Smallest admissible even power for det(I - H^m) at this Re(alpha).

    Dyadic bands (2^-l, 2^-l+1) prescribe m = 2^(l+1); band boundaries
    (..., 1/4, 1/2, 1) are rejected within ``BAND_MARGIN`` since no
    power prescription covers them.
    """
    if not 0.0 < re_alpha < 2.0:
        raise ValueError("Re(alpha) must lie in (0, 2)")
    level = -np.log2(re_alpha)
    nearest = np.round(level)
    if abs(level - nearest) < 1e-12 or \
            abs(re_alpha - 2.0 ** (-nearest)) < BAND_MARGIN:
        raise ValueError(
            f"Re(alpha)={re_alpha} too close to a dyadic band boundary")
    ell = int(np.floor(level)) + 1
    return 2 ** (ell + 1)


#: deflation disc radius around the structural eigenvalue -1
STRUCTURAL_TOL = 0.05


def _dets_from_matrix(mat: np.ndarray, m: int) -> tuple[complex, complex, int]:
    mu = np.linalg.eigvals(mat)
    keep = np.abs(mu + 1.0) > STRUCTURAL_TOL
    with np.errstate(over="ignore", invalid="ignore"):
        literal = complex(np.prod(1.0 - mu ** m))
        deflated = complex(np.prod(1.0 - mu[keep] ** m))
    return literal, deflated, int(np.count_nonzero(~keep))


def fredholm_det(H: NystromOperator, m: int,
                 refine: bool = True) -> FredholmResult:
    """det(I - H^m) from the Nystrom eigenvalues, with a doubling check.

    ``H`` is an ``assemble_H`` operator; the check reassembles it on twice
    the nodes at the same kappa.  m must be even and at least the band
    prescription for Re(alpha); the continuum determinant is undefined
    below that power.  See FredholmResult for the literal/deflated
    distinction.
    """
    if m < 1 or m % 2 != 0:
        raise ValueError("power m must be a positive even integer")
    m_min = band_power(H.alpha.real)
    if m < m_min:
        raise ValueError(f"power m={m} below the band prescription {m_min}")
    det, det_defl, n_struct = _dets_from_matrix(H.matrix, m)
    delta = np.nan
    if refine:
        H2 = assemble_H(H.alpha, 2 * H.n_nodes, H.kappa)
        _, det_defl2, _ = _dets_from_matrix(H2.matrix, m)
        delta = abs(det_defl - det_defl2) / max(abs(det_defl2), 1e-300)
    return FredholmResult(alpha=H.alpha, m=m, det_value=det,
                          det_deflated=det_defl, n_structural=n_struct,
                          grid_size=H.n_nodes, refinement_delta=float(delta))


def alpha_scan(alpha_grid, n_nodes: int = 64, kappa: float = 0.5,
               refine: bool = True):
    """Determinant sweep over real alpha at the band power; returns
    (results, failures).

    ``failures`` holds ``(alpha, "<ExceptionType>: alpha=...: <message>")``
    for each alpha whose determinant raised one of ``SAMPLE_ERRORS``.
    Local minima of |det| are exploratory candidates for fixed-point
    stability exceptions, never a claim about the true exceptional set.
    """
    results: list[FredholmResult] = []
    failures: list[tuple[float, str]] = []
    for a in alpha_grid:
        try:
            m = band_power(float(np.real(a)))
            H = assemble_H(a, n_nodes, kappa)
            results.append(fredholm_det(H, m, refine=refine))
        except SAMPLE_ERRORS as exc:
            failures.append((float(np.real(a)),
                             f"{type(exc).__name__}: alpha={a}: {exc}"))
    return results, failures


def flag_minima(results) -> list[int]:
    """Indices of strict interior local minima of |det_deflated|.

    Neighbours are compared within one band power m only: |det| jumps
    where m switches, and that jump is not a minimum.
    """
    mags = np.array([abs(r.det_deflated) for r in results])
    bands = [r.m for r in results]
    return [i for i in range(1, len(mags) - 1)
            if bands[i - 1] == bands[i] == bands[i + 1]
            and mags[i] < mags[i - 1] and mags[i] < mags[i + 1]]
