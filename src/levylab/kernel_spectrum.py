"""Nystrom discretization of the linearized operator at the origin.

Linearizing the fixed-point map at its closed-form solution produces,
after a change of variables, a weakly singular kernel k(omega, psi) on
[0, pi/2]^2, a scalar integral operator P with that kernel, and a
3x3-block operator H (components indexed by {0, 1, i}) coupling a
degree-alpha/2 function with its two Cartesian partials.  The spectrum
of the linearization is contained in the spectrum of H, so near-zeros of
the Fredholm determinant det(I - H^m) flag the stability exceptions of
the fixed point.  Everything here also supports complex alpha, which the
determinant decay checks at large Im(alpha) require.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .fixed_point import SAMPLE_ERRORS, c_alpha
from .halfplane import HALF_PI, HomogeneousFn, check_involution
from .quadrature import (
    cached_roots_jacobi,
    gauss_jacobi_left,
    gauss_legendre_panels,
    log_power_rule,
    tanh_sinh,
)


def a_zero_sq(alpha) -> complex:
    """Gamma(1 - alpha/2) / Gamma(1 + alpha/2), analytic in alpha."""
    alpha = complex(alpha)
    return gamma_fn(1.0 - 0.5 * alpha) / gamma_fn(1.0 + 0.5 * alpha)


def c_prime(alpha) -> complex:
    """Block-operator coupling c'_alpha = c_alpha * 2/(alpha * a0^2).

    Equals alpha*sin(pi alpha/2)/(2^(alpha/2) pi) by the reflection
    formula; kept in the Gamma form to mirror the construction.
    """
    alpha = complex(alpha)
    return c_alpha(alpha) * 2.0 / (alpha * a_zero_sq(alpha))


# ---------------------------------------------------------------------------
# the scalar kernel
# ---------------------------------------------------------------------------

def _kernel_theta_integral(alpha: complex, omega: float, psi: float,
                           n_jac: int = 24, gl_order: int = 12) -> complex:
    """Integral over theta in (psi, pi/2) for the branch psi > omega.

    Integrand sin(2 theta)^(alpha/2-1) * sin(theta-psi)^(-alpha/2)
    * sin(theta-omega)^(-alpha/2).  The endpoint singularities carry
    exact Gauss-Jacobi weights for their real powers (the residual
    dist^(i Im alpha) oscillation stays in the function); the pole just
    below the interval, at distance d = psi - omega, is defused by
    geometric panel growth away from psi.  All distances are formed in
    offset arithmetic, never by subtracting nearby floats.
    """
    a2 = 0.5 * alpha
    re_a2 = 0.5 * alpha.real
    im_a2 = 0.5 * alpha.imag
    L = HALF_PI - psi
    d = psi - omega
    if L <= 0 or d <= 0:
        raise ValueError("branch requires omega < psi < pi/2")

    def sin2theta(th, dist_to_right):
        return 2.0 * np.sin(th) * np.sin(dist_to_right)

    total = 0.0 + 0.0j

    # left panel [psi, psi + t1]: weight off^(-alpha/2)
    t1 = min(2.0 * d, 0.5 * L)
    if im_a2 == 0.0:
        x, w = cached_roots_jacobi(n_jac, 0.0, -re_a2)
        off = 0.5 * t1 * (x + 1.0)
        wj = w * (0.5 * t1) ** (1.0 - re_a2)
    else:
        off, wj = log_power_rule(-a2, t1)
    vals = (sin2theta(psi + off, L - off) ** (a2 - 1.0)
            * (np.sin(off) / off) ** (-a2)
            * np.sin(off + d) ** (-a2))
    total += wj @ vals

    # geometric middle panels in offset space, from t1 out to 3L/4;
    # the panel ratio resolves the Im(alpha)*log(off) phase drift
    hi = 0.75 * L
    ratio = 2.0 if im_a2 == 0.0 else min(2.0, np.exp(1.5 / abs(im_a2)))
    edges = [t1]
    while edges[-1] < hi:
        edges.append(min(ratio * edges[-1], hi))
    off, w = gauss_legendre_panels(np.array(edges), order=gl_order)
    vals = (sin2theta(psi + off, L - off) ** (a2 - 1.0)
            * np.sin(off) ** (-a2) * np.sin(off + d) ** (-a2))
    total += w @ vals

    # right panel [pi/2 - L/4, pi/2]: weight dist^(alpha/2 - 1),
    # with sin(2 theta) = sin(2 dist) there
    t2 = 0.25 * L
    if im_a2 == 0.0:
        x, w = cached_roots_jacobi(n_jac, 0.0, re_a2 - 1.0)
        dist = 0.5 * t2 * (x + 1.0)
        wj = w * (0.5 * t2) ** re_a2
    else:
        dist, wj = log_power_rule(a2 - 1.0, t2)
    th_off = L - dist  # offset from psi
    vals = ((np.sin(2.0 * dist) / dist) ** (a2 - 1.0)
            * np.sin(th_off) ** (-a2) * np.sin(th_off + d) ** (-a2))
    total += wj @ vals
    return complex(total)


def kernel_k(alpha, omega: float, psi: float, n_jac: int = 24,
             gl_order: int = 12) -> complex:
    """The scalar kernel k(omega, psi), omega != psi, on (0, pi/2)^2.

    For psi > omega:
        sin(psi-omega)^(alpha-1) * int_psi^(pi/2) sin(2 theta)^(alpha/2-1)
        sin(theta-psi)^(-alpha/2) sin(theta-omega)^(-alpha/2) dtheta
    and the psi < omega branch is the mirror image under
    theta -> pi/2 - theta, i.e. k(omega, psi) = k(pi/2-omega, pi/2-psi).
    All bases are positive reals, so complex alpha uses principal powers
    and |k^alpha| <= k^(Re alpha) pointwise.
    """
    alpha = complex(alpha)
    if not 0.0 < alpha.real < 2.0:
        raise ValueError("Re(alpha) must lie in (0, 2)")
    if not (0.0 < omega < HALF_PI and 0.0 < psi < HALF_PI):
        raise ValueError("kernel arguments must lie in the open interval")
    if omega == psi:
        raise ValueError("kernel is singular on the diagonal; use the "
                         "assembly rule for diagonal cells")
    if psi < omega:
        omega, psi = HALF_PI - omega, HALF_PI - psi
    pref = np.sin(psi - omega) ** (alpha - 1.0)
    val = pref * _kernel_theta_integral(alpha, omega, psi, n_jac, gl_order)
    return complex(val) if alpha.imag != 0 else complex(val.real, 0.0)


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

def kernel_row_integrals(alpha, omegas: np.ndarray, n_theta: int = 96,
                         n_y: int = 32) -> np.ndarray:
    """int_0^(pi/2) k(omega, psi) dpsi through the original (theta, y) form.

    Identity: the row integral equals
    int dtheta sin(2 theta)^(alpha/2-1) int_0^inf dy y^(-alpha/2)
    |e^(i theta) + y e^(i omega)|^(-1-alpha/2),
    split at y = 1 with y = 1/w on the far piece, each piece carrying an
    exact Jacobi weight.  No singularities: the modulus stays >= 1.
    """
    alpha = complex(alpha)
    a2 = 0.5 * alpha
    th, wt, d0, d1 = tanh_sinh(0.0, HALF_PI, n_theta,
                               endpoint_exponent=0.5 * alpha.real - 1.0)
    wsin = wt * (2.0 * np.sin(d0) * np.sin(d1)) ** (a2 - 1.0)
    e_th = np.exp(1j * th)
    e_om = np.exp(1j * np.asarray(omegas))

    if alpha.imag == 0.0:
        y, wy = gauss_jacobi_left(n_y, -0.5 * alpha.real, 0.0, 1.0)
        w_, ww = gauss_jacobi_left(n_y, alpha.real - 1.0, 0.0, 1.0)
    else:
        y, wy = log_power_rule(-a2, 1.0)
        w_, ww = log_power_rule(alpha - 1.0, 1.0)

    # near piece: weight y^(-alpha/2), rest analytic in y
    mod_near = np.abs(e_th[:, None, None] + y[None, :, None] * e_om[None, None, :])
    near = np.einsum("t,y,tyo->o", wsin, wy, mod_near ** (-1.0 - a2))

    # far piece: y = 1/w gives weight w^(alpha - 1)
    mod_far = np.abs(w_[None, :, None] * e_th[:, None, None] + e_om[None, None, :])
    far = np.einsum("t,y,tyo->o", wsin, ww, mod_far ** (-1.0 - a2))
    return near + far


# ---------------------------------------------------------------------------
# Nystrom operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NystromOperator:
    alpha: complex
    nodes: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    kappa: float
    kind: str
    diag_rule: str

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)


def graded_mesh(n_nodes: int, re_alpha: float, gl_order: int = 8):
    """Symmetric mesh on (0, pi/2), graded toward both endpoints.

    Panel breakpoints on [0, pi/4] follow (i/P)^(2/Re alpha), mirrored
    about pi/4 so the quarter-turn reflection permutes the nodes exactly.
    """
    panels = max(2, n_nodes // (2 * gl_order))
    grad = max(1.0, 2.0 / re_alpha)
    left = 0.25 * np.pi * (np.arange(panels + 1) / panels) ** grad
    breaks = np.concatenate([left, (HALF_PI - left[:-1])[::-1]])
    nodes, weights = gauss_legendre_panels(breaks, order=gl_order)
    if np.min(np.abs(nodes - 0.25 * np.pi)) < 1e-12:
        raise RuntimeError("mesh node collided with pi/4")
    return nodes, weights


def assemble_P(alpha, n_nodes: int = 64, kappa: float = 0.5,
               gl_order: int = 8) -> NystromOperator:
    """Nystrom matrix for the scalar kernel operator on the quarter circle.

    Off-diagonal entries are plain weighted kernel values; each diagonal
    entry is set so the row acts exactly on constants (the accurate row
    integral minus the off-diagonal quadrature), which integrates the
    weak |psi-omega|^(alpha-1) singularity against a locally constant
    density.  kappa enters as the exact diagonal similarity
    |i.e^(i omega)|^kappa, leaving the spectrum untouched.
    """
    alpha = complex(alpha)
    if not 0.0 < alpha.real < 2.0:
        raise ValueError("Re(alpha) must lie in (0, 2)")
    if n_nodes < 16:
        raise ValueError("need at least 16 nodes")
    nodes, weights = graded_mesh(n_nodes, alpha.real, gl_order)
    n = nodes.size
    # oscillation from Im(alpha)*log(singularity) needs extra resolution
    n_jac = 24 + int(4 * abs(alpha.imag))
    mat = np.zeros((n, n), dtype=complex)
    for i in range(n):
        row = np.array([kernel_k(alpha, nodes[i], nodes[j]) if j != i else 0.0
                        for j in range(n)], dtype=complex)
        mat[i] = weights * row
    rowints = kernel_row_integrals(alpha, nodes,
                                   n_theta=96 + 8 * int(abs(alpha.imag)))
    for i in range(n):
        mat[i, i] = rowints[i] - (mat[i].sum() - mat[i, i])
    if kappa != 0.0:
        d = np.abs(np.cos(nodes) - np.sin(nodes)) ** kappa
        mat = d[:, None] * mat / d[None, :]
    if alpha.imag == 0:
        mat = mat.real.astype(complex)
    return NystromOperator(alpha=alpha, nodes=nodes, weights=weights,
                           matrix=mat, kappa=kappa, kind="P",
                           diag_rule="row-sum singularity subtraction "
                                     "(exact on locally constant densities)")


def assemble_H(alpha, n_nodes: int = 64, kappa: float = 0.5,
               gl_order: int = 8) -> NystromOperator:
    """3x3-block operator coupling (f, d1 f, di f) built from one P block.

    Structure: H = c'_alpha * Mblock . diag(P, P, P) . diag(N0, N1, Ni) . J
    with multiplication blocks

        Mblock = [[-2(1.u), (2/alpha) u1, (2/alpha) u2],
                  [-alpha,   I,            0          ],
                  [-alpha,   0,            I          ]],

    weights N0 = (1.u)^(-alpha-1), N1 = Ni = (1.u)^(-alpha), and the
    quarter-turn pullback J which reflects the angle and swaps the two
    derivative components (the reflection u -> i*conj(u) exchanges the
    roles of d1 and di in the chain rule).
    """
    P = assemble_P(alpha, n_nodes, kappa=0.0, gl_order=gl_order)
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
    # with the swap of the two derivative components
    R = np.eye(n)[::-1]
    J = np.block([[R, Z.real, Z.real],
                  [Z.real, Z.real, R],
                  [Z.real, R, Z.real]])
    H = c_prime(alpha) * (S @ J)
    if kappa != 0.0:
        d = np.abs(c - s) ** kappa
        dd = np.concatenate([np.ones(n), d, d])
        H = dd[:, None] * H / dd[None, :]
    return NystromOperator(alpha=alpha, nodes=nodes,
                           weights=P.weights, matrix=H, kappa=kappa,
                           kind="H", diag_rule=P.diag_rule)


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


def band_power(re_alpha: float, margin: float = 0.02) -> int:
    """Smallest admissible even power for det(I - H^m) at this Re(alpha).

    Dyadic bands (2^-l, 2^-l+1) prescribe m = 2^(l+1); band boundaries
    (..., 1/4, 1/2, 1) are rejected within the given margin since no
    power prescription covers them.
    """
    if not 0.0 < re_alpha < 2.0:
        raise ValueError("Re(alpha) must lie in (0, 2)")
    level = -np.log2(re_alpha)
    nearest = np.round(level)
    if abs(level - nearest) < 1e-12 or \
            abs(re_alpha - 2.0 ** (-nearest)) < margin:
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

    m must be even and at least the band prescription for Re(alpha); the
    continuum determinant is undefined below that power.  See
    FredholmResult for the literal/deflated distinction.
    """
    if m < 1 or m % 2 != 0:
        raise ValueError("power m must be a positive even integer")
    m_min = band_power(H.alpha.real)
    if m < m_min:
        raise ValueError(f"power m={m} below the band prescription {m_min}")
    det, det_defl, n_struct = _dets_from_matrix(H.matrix, m)
    delta = np.nan
    if refine:
        assemble = assemble_H if H.kind == "H" else assemble_P
        H2 = assemble(H.alpha, 2 * H.n_nodes, H.kappa)
        _, det_defl2, _ = _dets_from_matrix(H2.matrix, m)
        delta = abs(det_defl - det_defl2) / max(abs(det_defl2), 1e-300)
    return FredholmResult(alpha=H.alpha, m=m, det_value=det,
                          det_deflated=det_defl, n_structural=n_struct,
                          grid_size=H.n_nodes, refinement_delta=float(delta))


def alpha_scan(alpha_grid, n_nodes: int = 64, kappa: float = 0.5,
               m_rule=band_power, refine: bool = True):
    """Determinant sweep over real alpha; returns (results, failures).

    ``failures`` holds ``(alpha, "<ExceptionType>: alpha=...: <message>")``
    for each alpha whose determinant raised one of ``SAMPLE_ERRORS``.
    Local minima of |det| are exploratory candidates for fixed-point
    stability exceptions, never a claim about the true exceptional set.
    """
    results: list[FredholmResult] = []
    failures: list[tuple[float, str]] = []
    for a in alpha_grid:
        try:
            m = m_rule(float(np.real(a)))
            H = assemble_H(a, n_nodes, kappa)
            results.append(fredholm_det(H, m, refine=refine))
        except SAMPLE_ERRORS as exc:
            failures.append((float(np.real(a)),
                             f"{type(exc).__name__}: alpha={a}: {exc}"))
    return results, failures


def flag_minima(results) -> list[int]:
    """Indices of strict interior local minima of |det_deflated|."""
    mags = np.array([abs(r.det_deflated) for r in results])
    return [i for i in range(1, len(mags) - 1)
            if mags[i] < mags[i - 1] and mags[i] < mags[i + 1]]


# ---------------------------------------------------------------------------
# action of the linearization on homogeneous functions and the lift
# ---------------------------------------------------------------------------

def apply_linearized(f: HomogeneousFn, out_thetas: np.ndarray | None = None,
                     n_theta: int = 96, n_y: int = 24) -> HomogeneousFn:
    """Apply the linearized fixed-point map to f on the angular grid.

    The operator acts as -c'_alpha times the (theta, y) difference
    integral of phi(w) = f(w-check) (1.w)^(-alpha); no radial integral is
    involved.  Uses the same y-split and exact Jacobi weights as the
    nonlinear map.
    """
    alpha = 2.0 * f.beta
    out_thetas = f.thetas if out_thetas is None else np.asarray(out_thetas)
    th, wt, dd0, dd1 = tanh_sinh(0.0, HALF_PI, n_theta,
                                 endpoint_exponent=0.5 * alpha - 1.0)
    wsin = wt * (2.0 * np.sin(dd0) * np.sin(dd1)) ** (0.5 * alpha - 1.0)
    e_th = np.exp(1j * th)

    def phi(w):
        return f(check_involution(w)) * (w.real + w.imag) ** (-alpha)

    phiE = phi(e_th)
    term_a = (2.0 / alpha) * 2.0 ** (0.5 * alpha) * complex(wsin @ phiE)

    yj, wy = gauss_jacobi_left(n_y, -0.5 * alpha, 0.0, 0.5)
    wj, ww = gauss_jacobi_left(n_y, alpha - 1.0, 0.0, 2.0)
    out = np.empty(out_thetas.size, dtype=complex)
    for k, tu in enumerate(np.asarray(out_thetas, dtype=float)):
        u = complex(np.cos(tu), np.sin(tu))
        W = e_th[:, None] + yj[None, :] * u
        diff = (phiE[:, None] - phi(W)) / yj[None, :]
        phi2 = wsin @ diff @ wy

        V = wj[None, :] * e_th[:, None] + u
        u_check = complex(np.sin(tu), np.cos(tu))
        V_check = wj[None, :] * np.exp(1j * (HALF_PI - th))[:, None] + u_check
        far = f(V_check) * (V.real + V.imag) ** (-alpha)
        phi1 = wsin @ far @ ww
        out[k] = term_a - phi1 + phi2
    return HomogeneousFn(f.beta, out_thetas, -c_prime(alpha) * out)


def linearization_matrix(alpha: float, m: int = 65, n_theta: int = 96,
                         n_y: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix of the linearized map on spline cardinal functions.

    Returns (thetas, matrix); column j is the image of the cardinal
    interpolant through e_j on the angular grid.
    """
    from .halfplane import default_grid
    thetas = default_grid(m)
    mat = np.empty((m, m), dtype=complex)
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        basis = HomogeneousFn(0.5 * alpha, thetas, e.astype(complex))
        mat[:, j] = apply_linearized(basis, thetas, n_theta, n_y).values
    return thetas, mat


def lift_eigenvector(f: HomogeneousFn, nodes: np.ndarray) -> np.ndarray:
    """Stack (f, d1 f, di f) at the Nystrom nodes of an H operator."""
    g = f.values_at_angle(nodes)
    d1, di = f.partials_on_circle(nodes)
    return np.concatenate([g, d1, di])
