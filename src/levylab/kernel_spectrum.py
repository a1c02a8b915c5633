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
to 2 the matrices stay finite, as ``log_power_rule`` closes the endpoint
panels with an exact moment rule whose nodes all lie above x = 0.  The
row integrals that fix P's diagonal depend on the two angles only
through cos(theta - omega), so their y integral is one interpolated
profile on [0, 1] and no (theta, y, omega) tensor is formed.
``assemble_P`` maps blocks of kernel entries, and ``alpha_scan`` its
alpha values, through ``fixed_point.parallel_map`` (inline on a pool
thread, so a one-alpha scan spreads its kernel blocks over the cores).
H is never formed: its eigenvalues are n zeros and those of the n-square
block -H12 twice (see ``_eigenvalues``), so ``assemble_H`` keeps only the
top n/2 rows of H12, and -H12's mirror symmetry splits its spectrum into
that of two n/2-square blocks, real when alpha is real.  No call
here is large enough for OpenBLAS to start its threads: the eigensolves
are at most 64-square on the default mesh's refinement, and the row
integrals sum with ``np.einsum``, which calls no BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fixed_point
from .fixed_point import SAMPLE_ERRORS, c_alpha, profile_angles, profile_interpolation
from .halfplane import HALF_PI
from .quadrature import gamma as gamma_fn, gauss_legendre_panels, power_rule, sin2_theta_rule


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

#: Gauss-Jacobi nodes of each endpoint rule in kernel_k, which also size
#: assemble_P's kernel blocks
KERNEL_N_JAC = 24


def kernel_k(alpha, omega, psi, n_jac: int = KERNEL_N_JAC, gl_order: int = 12):
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
    from psi; each entry integrates only its own panels, so a batch costs
    the sum of its entries.  All distances are formed in offset
    arithmetic, never by subtracting nearby floats.
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

    def weighted(w, log_sin2, log_sin_off, off, rows=slice(None)):
        """w * sin(d)^(alpha-1) sin(2 theta)^(alpha/2-1) sin(off)^(-alpha/2)
        sin(off+d)^(-alpha/2) at theta = psi + off, as one exp.

        The exp comes first: SIMD complex products are not bitwise
        commutative, and numpy reuses a large left temporary in place
        without swapping operands, so each pair sees the same product
        whatever the batch size."""
        return np.exp(log_pref[rows] + (a2 - 1.0) * log_sin2
                      - a2 * (log_sin_off + np.log(np.sin(off + dc[rows])))) * w

    def log_sin2(off, rows=slice(None)):
        return np.log(2.0 * np.sin(psc[rows] + off) * np.sin(Lc[rows] - off))

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
    edges = np.stack(edges, axis=-1)
    # only panels with width are integrated, the others' sums stay zeros
    ent, pan = np.nonzero(edges[:, 1:] > edges[:, :-1])
    off, w = gauss_legendre_panels(edges[ent[:, None], pan[:, None] + [0, 1]], order=gl_order)
    per_panel = np.zeros_like(edges[:, 1:], dtype=type(a))
    per_panel[ent, pan] = weighted(w, log_sin2(off, ent), np.log(np.sin(off)), off, ent).sum(-1)
    middle = per_panel.cumsum(axis=-1)[:, -1]

    # right panel [pi/2 - L/4, pi/2]: weight dist^(alpha/2 - 1),
    # with sin(2 theta) = sin(2 dist) there
    dist, w = power_rule(a2 - 1.0, 0.25 * L, n_jac)
    th_off = Lc - dist
    right = weighted(w, np.log(np.sin(2.0 * dist) / dist), np.log(np.sin(th_off)),
                     th_off).sum(axis=-1)

    val = (left + middle + right).astype(complex).reshape(omega.shape)
    return complex(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# row integrals (the kernel applied to the constant function)
# ---------------------------------------------------------------------------

#: Gauss-Jacobi nodes of each y piece in kernel_row_integrals
ROW_N_Y = 32
#: knots on [0, 1] of the profile J(c) that row_profile interpolates
ROW_KNOTS = np.linspace(0.0, 1.0, 9)


def row_profile(alpha, c) -> np.ndarray:
    """The y integral J(c) of ``kernel_row_integrals`` at c in [0, 1].

    J(c) = sum_y w_y (1 + y^2 + 2 y c)^(-1/2 - alpha/4): the integral
    int_0^inf y^(-alpha/2) |e^(i theta) + y e^(i omega)|^(-1-alpha/2) dy at
    c = cos(theta - omega), split at y = 1 with y = 1/w on the far piece
    (the same form with weight w^(alpha-1)), each piece on ``ROW_N_Y``
    Gauss-Jacobi nodes.  The base is >= 1 for c >= 0 and vanishes only at
    real c <= -1, so J is analytic off (-inf, -1].  It is summed by
    ``np.einsum`` (no BLAS call) at ``fixed_point.profile_angles(ROW_KNOTS)``
    (80 points) and interpolated at c by ``profile_interpolation``: to
    within 1.3e-15 of sum |terms| at 2000 random c for alpha in {0.7, 1.5,
    1.95, 1.2+0.3i, 1.5+5i, 1.9+10i, 1.5+20i}.  Real alpha stays in real
    arithmetic.
    """
    alpha = complex(alpha)
    a = alpha if alpha.imag else alpha.real
    near, far = power_rule(-0.5 * a, 1.0, ROW_N_Y), power_rule(a - 1.0, 1.0, ROW_N_Y)
    y, wy = np.concatenate([near[0], far[0]]), np.concatenate([near[1], far[1]])
    base = (1.0 + y * y) + (2.0 * y) * profile_angles(ROW_KNOTS)[:, None]
    samples = np.einsum("ky,y->k", np.exp((-0.5 - 0.25 * a) * np.log(base)), wy)
    cols, coef = profile_interpolation(ROW_KNOTS, c)
    return np.einsum("...k,...k->...", coef, samples[cols])


def kernel_row_integrals(alpha, omegas: np.ndarray) -> np.ndarray:
    """int_0^(pi/2) k(omega, psi) dpsi through the original (theta, y) form.

    Identity: the row integral equals
    int dtheta sin(2 theta)^(alpha/2-1) int_0^inf dy y^(-alpha/2)
    |e^(i theta) + y e^(i omega)|^(-1-alpha/2).
    The squared modulus is 1 + y^2 + 2 y cos(theta - omega), so the y
    integral is the profile J of ``row_profile`` at c = cos(theta - omega),
    which lies in (0, 1] as theta and omega lie in (0, pi/2); the row
    integrals are the theta rule's weights times J at the n_theta x
    n_omega values of c, summed by ``np.einsum`` (no BLAS call).  No
    (theta, y, omega) tensor is formed.

    The theta rule is ``sin2_theta_rule`` on n_theta = 96 + 8 int(|Im alpha|)
    nodes: off the real axis its weight carries sin(2 theta)^(i Im alpha/2),
    which oscillates in log theta toward both ends, so the rule needs nodes
    in proportion to |Im alpha|.  96 nodes at every alpha would move the
    row integrals by 1.3e-8 relative at 1.5+5i and 2.0e-3 at 1.9+10i.
    """
    alpha = complex(alpha)
    a = alpha if alpha.imag else alpha.real
    th, wsin = sin2_theta_rule(96 + 8 * int(abs(alpha.imag)), 0.5 * a - 1.0)
    c = np.cos(th[:, None] - np.asarray(omegas, dtype=float)[None, :])
    return np.einsum("t,to->o", wsin, row_profile(alpha, c))


# ---------------------------------------------------------------------------
# Nystrom operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NystromOperator:
    """``assemble_P``'s n x n matrix P, or ``assemble_H``'s n/2 x n top rows
    of H12, on the mesh ``nodes``."""

    alpha: complex
    nodes: np.ndarray
    matrix: np.ndarray
    kappa: float

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)


#: Gauss-Legendre order of the Nystrom mesh panels
MESH_ORDER = 8
#: fewest Nystrom nodes an operator is assembled on
MIN_NODES = 32
#: theta nodes of the two endpoint rules per kernel_k call in assemble_P
KERNEL_BLOCK = 512 * 48


def check_nodes(n_nodes: int) -> None:
    """Raise ValueError naming the nearest counts unless ``graded_mesh`` has n_nodes nodes."""
    step = 2 * MESH_ORDER
    if n_nodes < MIN_NODES or n_nodes % step:
        near = sorted({max(MIN_NODES, k - k % step) for k in (n_nodes, n_nodes + step - 1)})
        raise ValueError(f"the Nystrom mesh cannot have {n_nodes} nodes (it has a multiple of "
                         f"{step}, at least {MIN_NODES}); nearest: {' or '.join(map(str, near))}")


def graded_mesh(n_nodes: int, re_alpha: float):
    """Symmetric mesh on (0, pi/2), graded toward both endpoints.

    Panel breakpoints on [0, pi/4] follow (i/P)^(2/Re alpha), mirrored
    about pi/4 so the quarter-turn reflection permutes the nodes exactly.
    """
    check_nodes(n_nodes)
    panels = n_nodes // (2 * MESH_ORDER)
    grad = max(1.0, 2.0 / re_alpha)
    left = 0.25 * np.pi * (np.arange(panels + 1) / panels) ** grad
    breaks = np.concatenate([left, (HALF_PI - left[:-1])[::-1]])
    return gauss_legendre_panels(breaks, order=MESH_ORDER)


def assemble_P(alpha, n_nodes: int = 64) -> NystromOperator:
    """Nystrom matrix for the scalar kernel operator on the quarter circle.

    Off-diagonal entries are plain weighted kernel values; each diagonal
    entry is set so the row acts exactly on constants (the accurate row
    integral minus the off-diagonal quadrature), which integrates the
    weak |psi-omega|^(alpha-1) singularity against a locally constant
    density; the row integrals come from ``kernel_row_integrals``, which
    picks its own theta count from alpha.  The upper half's off-diagonal
    entries run through ``fixed_point.parallel_map`` in blocks of
    ``KERNEL_BLOCK`` nodes of ``kernel_k``'s two ``KERNEL_N_JAC``-node
    endpoint rules, each entry by a per-row loop's arithmetic, so the matrix
    depends on neither the worker count nor the blocks.  A node count
    ``graded_mesh`` cannot give exactly, or a non-finite entry, raises ValueError.
    """
    alpha = complex(alpha)
    if not 0.0 < alpha.real < 2.0:
        raise ValueError("Re(alpha) must lie in (0, 2)")
    nodes, weights = graded_mesh(n_nodes, alpha.real)
    n = nodes.size
    # the mesh is mirror-symmetric about pi/4 with an even node count, and
    # k(omega, psi) = k(pi/2-omega, pi/2-psi): rows below the middle are
    # the mirror images P[n-1-i, n-1-j] = P[i, j] of the rows above
    half = n // 2
    # the upper half's off-diagonal entries in row order, in blocks of
    # KERNEL_BLOCK theta nodes of kernel_k's two endpoint rules
    rows, cols = np.nonzero(np.arange(half)[:, None] != np.arange(n))
    a2 = 0.5 * (alpha if alpha.imag else alpha.real)
    rule_size = sum(power_rule(e, 1.0, KERNEL_N_JAC)[0].size for e in (-a2, a2 - 1))
    step = max(1, KERNEL_BLOCK // rule_size)

    def block(start):
        i, j = rows[start:start + step], cols[start:start + step]
        return weights[j] * kernel_k(alpha, nodes[i], nodes[j])

    mat = np.zeros((n, n), dtype=complex)
    mat[rows, cols] = np.concatenate(fixed_point.parallel_map(block, range(0, rows.size, step)))
    np.fill_diagonal(mat[:half], kernel_row_integrals(alpha, nodes[:half])
                     - mat[:half].sum(axis=-1))
    if not np.all(np.isfinite(mat[:half])):
        raise ValueError(f"non-finite Nystrom entries at alpha={alpha}")
    mat[half:] = mat[half - 1::-1, ::-1]
    return NystromOperator(alpha=alpha, nodes=nodes, matrix=mat, kappa=0.0)


def assemble_H(alpha, n_nodes: int = 64, kappa: float = 0.5) -> NystromOperator:
    """The top n/2 rows of the block H12 of the 3x3-block operator H
    coupling (f, d1 f, di f), which carry H's whole spectrum.

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
    derivative components, leaving the spectrum untouched.  So
    H12 = c'_alpha D P diag(N1) R D^(-1), with R the index reversal and D
    the similarity, and ``matrix`` holds its rows above the middle;
    ``tests/oracles.assemble_H_block`` builds the whole H.
    """
    P = assemble_P(alpha, n_nodes)
    alpha = complex(alpha)
    nodes = P.nodes
    h = nodes.size // 2
    c, s = np.cos(nodes), np.sin(nodes)
    E = c_prime(alpha) * (P.matrix[:h] * ((c + s) ** (-alpha))[None, :])[:, ::-1]
    if kappa != 0.0:
        d = np.abs(c - s) ** kappa
        E = d[:h, None] * E / d[None, :]
    return NystromOperator(alpha=alpha, nodes=nodes, matrix=E, kappa=kappa)


# ---------------------------------------------------------------------------
# Fredholm determinants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FredholmResult:
    """Determinant of I - H^m on one grid, with a node-doubling check.

    ``det_value`` is the literal product over H's 3n Nystrom eigenvalues:
    n exact zeros and the eigenvalues of -H12 twice (see ``_eigenvalues``).
    The linearized map has two exact structural eigenvalues at -1 for
    every alpha (the fixed point itself is an eigenvector because the
    map is homogeneous of degree -1 in its argument, plus a reflection
    partner); in H they are one eigenvalue of -H12 near -1, counted once
    in each diagonal block of the (f, g+h, g-h) basis, and ``fredholm_det``
    refuses other counts.  So for even m the literal determinant vanishes
    identically; ``det_deflated`` excludes the structural pair and is the
    quantity whose near-zeros carry information.  The +1 signal that flags
    genuine stability exceptions is never inside the deflation disc.
    ``refinement_delta`` is measured on the deflated value; the literal
    one is an exact zero up to discretization noise, so its digits are
    round-off and move with the eigensolver's order.
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
    if abs(re_alpha - 2.0 ** (-nearest)) < BAND_MARGIN:
        raise ValueError(
            f"Re(alpha)={re_alpha} too close to a dyadic band boundary")
    ell = int(np.floor(level)) + 1
    return 2 ** (ell + 1)


#: deflation disc radius around the structural eigenvalue -1
STRUCTURAL_TOL = 0.05


def _eigenvalues(H: NystromOperator) -> np.ndarray:
    """Eigenvalues of the whole 3n-square H from an ``assemble_H`` operator:
    n zeros, then those of -H12 twice, from two n/2-square solves.

    H = [[A, B, C], [D, 0, E], [D, E, 0]] by blocks; conjugated by
    T = [[I, 0, 0], [0, I, I], [0, I, -I]] (components f, g+h, g-h) it is
    [[A, (B+C)/2, (B-C)/2], [2D, E, 0], [0, 0, -E]], block upper-triangular,
    so its spectrum is that of [[A, (B+C)/2], [2D, E]] joined with that
    of -E.  That top block is [W; I] [2D, E] with
    W = diag((cos omega + sin omega) |cos omega - sin omega|^(-kappa)) / alpha
    at the nodes omega, so its eigenvalues are n zeros and those of
    [2D, E] [W; I] = 2DW + E; and 2DW = -2E, since N0 (cos omega + sin omega)
    = N1 and J's index reversal maps both factors of W onto themselves on
    the mirror-symmetric mesh.  Hence eig(H) = {0}^n, eig(-E), eig(-E).
    P's bottom rows mirror its top ones, and N1 and the kappa similarity
    are mirror-symmetric, so E[h:] is E[:h] = [E11, E12] (h = n/2)
    reversed both ways; with r the reversal of h indices, -E is
    -(E11 + E12 r) on the mirror-even vectors (x, r x) and -(E11 - E12 r)
    on the mirror-odd ones (x, -r x).  ``H.matrix`` is E[:h], and any
    other shape raises ValueError naming both.
    """
    E = H.matrix
    n = H.nodes.size
    h = n // 2
    if E.shape != (h, n):
        raise ValueError(f"H.matrix has shape {E.shape}, not {(h, n)}: the top rows of "
                         f"H12 that assemble_H keeps on {n} nodes")
    if not np.any(E.imag):
        E = E.real
    E11, E12r = E[:, :h], E[:, h:][:, ::-1]
    mu = np.concatenate([np.linalg.eigvals(-(E11 + E12r)), np.linalg.eigvals(-(E11 - E12r))])
    return np.concatenate([np.zeros(n, dtype=mu.dtype), mu, mu])


def _dets(mu: np.ndarray, m: int, alpha: complex) -> tuple[complex, complex, int]:
    """Literal and deflated det(I - H^m) from H's eigenvalues ``mu``, and
    the count of structural ones.  Raises ValueError naming alpha, m and
    max |mu| when a product is not finite, then one naming alpha, the
    node count, the count and min |mu + 1| unless that count is 2."""
    dist = np.abs(mu + 1.0)
    keep = dist > STRUCTURAL_TOL
    with np.errstate(over="ignore", invalid="ignore"):
        literal = complex(np.prod(1.0 - mu ** m))
        deflated = complex(np.prod(1.0 - mu[keep] ** m))
    if not (np.isfinite(literal) and np.isfinite(deflated)):
        raise ValueError(f"det(I - H^m) is not finite at alpha={alpha}, m={m}: "
                         f"max |mu| = {np.abs(mu).max():.4g}")
    n_struct = int(np.count_nonzero(~keep))
    if n_struct != 2:
        raise ValueError(f"{n_struct} eigenvalues, not the structural pair, lie within "
                         f"{STRUCTURAL_TOL} of -1 at alpha={alpha} on {mu.size // 3} nodes: "
                         f"min |mu + 1| = {dist.min():.4g}")
    return literal, deflated, n_struct


def fredholm_det(H: NystromOperator, m: int,
                 refine: bool = True) -> FredholmResult:
    """det(I - H^m) from the Nystrom eigenvalues, with a doubling check.

    ``H`` is an ``assemble_H`` operator; the check reassembles it on twice
    the nodes at the same kappa.  m must be even and at least the band
    prescription for Re(alpha); the continuum determinant is undefined
    below that power.  The eigenvalues are n zeros and those of -H12
    twice (see ``_eigenvalues``): two n/2-square solves, real for real
    alpha.  An operator whose matrix is not ``assemble_H``'s n/2 x n rows
    raises ValueError, and so does, on either grid, a determinant that is not
    finite (at 1.5+20i on 96 nodes max |mu| is 218 and the product of
    the 192 factors 1 - mu^m besides the zeros' ones overflows) or one
    whose deflation disc does not hold exactly the structural pair (at
    1.5+20i on 32 nodes it holds none).  See FredholmResult for the
    literal/deflated distinction.
    """
    if m < 1 or m % 2 != 0:
        raise ValueError("power m must be a positive even integer")
    m_min = band_power(H.alpha.real)
    if m < m_min:
        raise ValueError(f"power m={m} below the band prescription {m_min}")
    det, det_defl, n_struct = _dets(_eigenvalues(H), m, H.alpha)
    delta = np.nan
    if refine:
        H2 = assemble_H(H.alpha, 2 * H.n_nodes, H.kappa)
        _, det_defl2, _ = _dets(_eigenvalues(H2), m, H.alpha)
        delta = abs(det_defl - det_defl2) / max(abs(det_defl2), 1e-300)
    return FredholmResult(alpha=H.alpha, m=m, det_value=det,
                          det_deflated=det_defl, n_structural=n_struct,
                          grid_size=H.n_nodes, refinement_delta=float(delta))


def alpha_scan(alpha_grid, n_nodes: int = 64, refine: bool = True):
    """Determinant sweep over real alpha at the band power; returns
    (results, failures).

    ``failures`` holds ``(alpha, "<ExceptionType>: alpha=...: <message>")``
    for each alpha whose determinant raised one of ``SAMPLE_ERRORS``.
    Alpha values run side by side through ``fixed_point.parallel_map``,
    each catching its own failure; both lists keep the grid's order.
    Local minima of |det| are exploratory candidates for fixed-point
    stability exceptions, never a claim about the true exceptional set.
    """
    def one(a):
        try:
            m = band_power(float(np.real(a)))
            return fredholm_det(assemble_H(a, n_nodes), m, refine=refine), None
        except SAMPLE_ERRORS as exc:
            return None, (float(np.real(a)), f"{type(exc).__name__}: alpha={a}: {exc}")

    outcomes = fixed_point.parallel_map(one, alpha_grid)
    return ([r for r, _ in outcomes if r is not None],
            [f for _, f in outcomes if f is not None])


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
