"""Direct solves, the linearized eigenvalue pencil, and stability diagnostics.

The eigenvalue problem is rational in the spectral parameter through the Drude
laws.  With constant mu_minus the curl of the edge space restricted to the
inclusion is exactly the piecewise-constant auxiliary space, so introducing
v = (omega_mu/sqrt(mu_minus)) (lam - omega_mu^2)^{-1} curl u|_- linearizes the
problem into a symmetric pencil (S, T) with T block-diagonal positive
definite.  Eliminating v back out of S - lam*T must reproduce the rational
operator A(lam) exactly; schur_action provides that substitution as an
independent check on the block algebra.

In 2D the scalar-potential problem is the edge problem with mu and eps
swapped: eps(lam)^-1 weights the P1 stiffness, mu(lam) the mass, and the
auxiliary variable is the piecewise-constant gradient on the inclusion.  Every
routine here that takes a formulation (fem.EDGE or fem.SCALAR) reads its
blocks and its material roles from that row of the formulation table;
solve_eigen finds the row from its pencil's layout kind, so one eigen path
serves both formulations.

Every sparse factorization goes through _factorize, with one policy: a
reverse Cuthill-McKee pre-order, then SuperLU in SymmetricMode with ordering
MMD_AT_PLUS_A and diag_pivot_thresh=0.  Each matrix factored here (A(lam),
S - sigma*T, and the Gram of residual_evaluator, the only Gram factored) is
symmetric, and with the pivots on the diagonal (perm_r == perm_c) diag(U) is
the D of LDL^T, whose signs certify window counts.  Fill at L4: A(1) 32.6 M
with COLAMD, 11.8 M now; the P1 scalar operator 11.9 M and 8.8 M.  MMD breaks
ties in input order, and on the mesh's own numbering it fills those two to
15.2 M and 19.0 M, hence the pre-order.  The threshold must be 0: at 0.01
SuperLU pivots off the diagonal on the L1 and L2 pencils and the inertia
comes out wrong; with partial pivoting the ordering did not finish at L4 in
10 min.  ARPACK gets these factors through OPinv and builds none of its own;
its M is only ever multiplied.  SuperLU's supernodal kernels are level-2 BLAS
(Demmel et al., SIAM J. Matrix Anal. Appl. 1999), so a factorization gains
nothing from BLAS threads, and the experiments pool runs each job on one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh  # rebound by perfbench/tracing.py
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence

from . import fem, materials as mats
from .fem import EDGE, SCALAR, EdgeSpace, FeField, Formulation, ScalarSpace
from .mesh import Mesh

__all__ = [
    "SolverError", "SourceSolution", "MatrixPencil", "PencilLayout",
    "EigenPair", "InfSupEstimate", "xnorm_gram", "solve_source",
    "solve_scalar_potential", "build_pencil", "schur_action", "solve_eigen",
    "count_eigen_window", "residual_evaluator", "discrete_infsup",
]


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SourceSolution:
    field: FeField            # full edge coefficients (boundary dofs zero)
    lam: float
    residual: float           # relative algebraic residual, <= 1e-10
    wall_time: float


@dataclass(frozen=True)
class PencilLayout:
    kind: str                 # "edge" (field problem) | "scalar" (potential)
    n_primary: int            # primary dofs (first block)
    n_aux: int                # auxiliary minus-region dofs (second block)
    coupled: bool             # False when the resonance is absent (one block)
    pole: float               # omega_mu^2 (edge) / omega_eps^2 (scalar)


@dataclass(frozen=True)
class MatrixPencil:
    S: sp.csr_matrix
    T: sp.csr_matrix          # block diagonal, positive definite
    layout: PencilLayout


@dataclass(frozen=True)
class EigenPair:
    lam: float
    u: np.ndarray             # full coefficients on the formulation's space
    v: np.ndarray             # auxiliary part (empty for one-block pencils)
    residual: float           # rational residual ||A(lam)u|| / ||u||_X
    # edge pairs only (None for scalar pairs):
    classification: Optional[str]    # "gradient-dominated" | "curl-carrying"
    curl_fraction: Optional[float]   # curl energy over total H(curl) energy


@dataclass(frozen=True)
class InfSupEstimate:
    lam: float
    beta_n: float
    level: int


def xnorm_gram(blocks: Dict[str, sp.csr_matrix], space,
               form: Formulation = EDGE) -> sp.csr_matrix:
    """Unweighted Gram on the free dofs: stiffness + mass over both regions,
    the H(curl) Gram for the edge problem and the H1 Gram for the scalar one."""
    K, M = form.stiffness, form.mass
    G = (blocks[K + "_plus"] + blocks[K + "_minus"]
         + blocks[M + "_plus"] + blocks[M + "_minus"])
    return space.restrict_matrix(G)


def _as_callable(f) -> Callable:
    if callable(f):
        return f
    c = np.asarray(f, dtype=float)
    if c.shape != (2,):
        raise SolverError(f"constant source must have shape (2,), got {c.shape}")
    return lambda x: np.broadcast_to(c, x.shape)


@dataclass(frozen=True)
class _Factor:
    lu: spla.SuperLU          # factor of A[order][:, order]
    order: np.ndarray         # the pre-order

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self.lu.solve(b[self.order])
        x = np.empty_like(y)
        x[self.order] = y
        return x

    def inverse(self) -> spla.LinearOperator:
        return spla.LinearOperator(self.lu.shape, matvec=self.solve, dtype=float)


def _factorize(A: sp.spmatrix, what: str) -> _Factor:
    """The one sparse factorization (policy in the module docstring)."""
    A = A.tocsr()
    order = reverse_cuthill_mckee(A, symmetric_mode=True)
    try:
        lu = spla.splu(A[order][:, order].tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"factorization failed for {what}: {exc}") from exc
    return _Factor(lu, order)


_REFINE_STEPS = 6


def _refined_solve(lu, A: sp.spmatrix, b: np.ndarray) -> Tuple[np.ndarray, float]:
    """LU solve plus iterative refinement with extended-precision carry.

    Refinement that stores u in float64 stalls at eps*|| |A||u| ||/||b||, and
    the corner-fan rows (stiffness ~ 1/h^2 on the smallest patch triangles)
    push that stall above 1e-10 once the fans shrink past ~1e-2.  Keeping the
    accumulated u and the residual in longdouble removes the storage floor --
    one correction step typically lands near 1e-13 -- while every triangular
    solve stays in the double-precision factors.
    """
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return np.zeros(b.shape[0], dtype=np.longdouble), 0.0
    Ax = A.astype(np.longdouble)
    bx = b.astype(np.longdouble)

    def rel(v):
        return float(np.linalg.norm(np.asarray(bx - Ax @ v, dtype=np.float64))) / nb

    u = lu.solve(b).astype(np.longdouble)
    res = rel(u)
    for _ in range(_REFINE_STEPS):
        if not np.isfinite(res) or res <= 1e-12:
            break
        cand = u + lu.solve(np.asarray(bx - Ax @ u, dtype=np.float64))
        new = rel(cand)
        if not np.isfinite(new) or new >= res:
            break
        u, res = cand, new
    return u, res


def _gated_solve(A: sp.spmatrix, b: np.ndarray,
                 what: str) -> Tuple[np.ndarray, float, float]:
    """Factor, refine, and hold the relative residual to the 1e-10 gate.
    Returns (solution, residual, wall time of factor and refinement)."""
    t0 = time.perf_counter()
    lu = _factorize(A, what)
    u, res = _refined_solve(lu, A, b)
    wall = time.perf_counter() - t0
    if not np.isfinite(res) or res > 1e-10:
        d = np.abs(lu.lu.U.diagonal())
        raise SolverError(
            f"{what} is numerically singular: relative residual {res:.3e} "
            f"after refinement (min|U_ii|/max|U_ii| = {d.min() / d.max():.3e})")
    return u, res, wall


def solve_source(mesh: Mesh, blocks: Dict[str, sp.csr_matrix],
                 mat: mats.DrudeMaterial, lam, f,
                 space: Optional[EdgeSpace] = None) -> SourceSolution:
    """Direct solve of A(lam) u = b with b_e = <f, Whitney_e>.

    f is a constant vector (shape (2,)) or a callable x -> (..., 2).  Iterative
    refinement keeps the relative residual at the 1e-10 gate even on deep
    meshes; a residual still above it means lam sits at or near an eigenvalue
    and is reported with pivot diagnostics instead of returned.  Passing a
    space overrides the default clamped one (natural-boundary fixtures).
    """
    if space is None:
        space = EdgeSpace(mesh)
    A = fem.assemble_A(blocks, mat, lam, space)
    b = space.restrict_vec(fem.assemble_rhs(mesh, _as_callable(f)))
    u, res, wall = _gated_solve(A, b, f"A({lam})")
    field = FeField(space, space.expand_vec(u), lam=lam, description="source solve")
    return SourceSolution(field, lam, res, wall)


def solve_scalar_potential(mesh: Mesh, blocks: Dict[str, sp.csr_matrix],
                           mat: mats.DrudeMaterial, lam,
                           f0: Optional[Callable] = None
                           ) -> Tuple[FeField, np.ndarray]:
    """Solve the scalar-potential form and return (v, eps(lam)^-1 Curl v).

    The potential lives on the P1 space with natural boundary conditions; the
    derived vector field is elementwise constant, (T, 2).
    """
    S, rhs = fem.assemble_scalar_problem(blocks, mat, lam, mesh, f0=f0)
    v, _, _ = _gated_solve(S, rhs, f"scalar operator at lam={lam}")
    flux = fem.potential_flux(mesh, mat, lam, v)
    return FeField(ScalarSpace(mesh), v, lam=lam, description="scalar potential"), flux


def build_pencil(mesh: Mesh, blocks: Dict[str, sp.csr_matrix],
                 mat: mats.DrudeMaterial, form: Formulation = EDGE) -> MatrixPencil:
    """Assemble the symmetric linearization of the rational eigenproblem.

    Coupled edge form (omega_mu > 0), on free edge dofs u and auxiliary
    constants v:

        S = [ mu_+^-1 K_+ + mu_-^-1 K_- + w_e^2 eps_- M_-   w_m mu_-^-1/2 C^T ]
            [ w_m mu_-^-1/2 C                               w_m^2 MY          ]
        T = [ eps_+ M_+ + eps_- M_-                         0                 ]
            [ 0                                             MY                ]

    with w_m^2 = omega_mu^2, w_e^2 = omega_eps^2.  For omega_mu = 0 the
    problem is already linear in lam and the pencil degenerates to the
    one-block form (upper-left corner only).

    form=SCALAR reads Ks/Ms/Cs/MYs on every vertex with mu and eps swapped:
    the auxiliary variable is the minus-region gradient, the pole is
    omega_eps^2, and omega_eps = 0 gives the one-block form.
    """
    space = form.space(mesh)
    free = space.free
    m = form.roles(mat)
    wmu2 = float(m.omega_mu_sq)
    weps2 = float(m.omega_eps_sq)
    mu_p, mu_m = float(m.mu_plus), float(m.mu_minus)
    eps_p, eps_m = float(m.eps_plus), float(m.eps_minus)
    K, M = form.stiffness, form.mass

    Auu = (blocks[K + "_plus"] / mu_p + blocks[K + "_minus"] / mu_m
           + (weps2 * eps_m) * blocks[M + "_minus"])
    Mass = eps_p * blocks[M + "_plus"] + eps_m * blocks[M + "_minus"]
    Auu = space.restrict_matrix(Auu)
    Mass = space.restrict_matrix(Mass)
    if wmu2 == 0.0:
        layout = PencilLayout(form.kind, Auu.shape[0], 0, False, 0.0)
        return MatrixPencil(Auu, Mass, layout)

    scale = np.sqrt(wmu2 / mu_m)
    Cf = blocks[form.pairing].tocsr()[:, free]
    MY = blocks[form.aux_mass]
    S = sp.bmat([[Auu, scale * Cf.T], [scale * Cf, wmu2 * MY]], format="csr")
    T = sp.block_diag([Mass, MY], format="csr")
    layout = PencilLayout(form.kind, Auu.shape[0], Cf.shape[0], True, wmu2)
    return MatrixPencil(S, T, layout)


def schur_action(pencil: MatrixPencil, lam: float, u: np.ndarray) -> np.ndarray:
    """A(lam) u reconstructed by eliminating the auxiliary block of S - lam*T.

    Independent of assemble_A's coefficient algebra: only the pencil blocks
    and the diagonal auxiliary mass enter.  Requires lam != omega_mu^2.
    """
    lay = pencil.layout
    if not lay.coupled:
        return pencil.S @ u - lam * (pencil.T @ u)
    if lam == lay.pole:
        raise SolverError("substitution undefined at the resonance pole")
    nu = lay.n_primary
    S = pencil.S
    S11, S12, S21 = S[:nu, :nu], S[:nu, nu:], S[nu:, :nu]
    T11 = pencil.T[:nu, :nu]
    my = pencil.T[nu:, nu:].diagonal()
    v = (S21 @ u) / ((lay.pole - lam) * my)
    return S11 @ u - lam * (T11 @ u) - S12 @ v


def _shift_invert(pencil: MatrixPencil, sigma: float, k: int, vectors: bool):
    """The k eigenpairs nearest sigma, as (values, vectors or None).  A sigma on
    an eigenvalue fails the factor of S - sigma*T and raises; it is never moved."""
    n = pencil.S.shape[0]
    lu = _factorize(pencil.S - sigma * pencil.T, f"S - sigma*T at sigma={sigma}")
    try:
        out = spla.eigsh(pencil.S, k=min(k, n - 2), M=pencil.T, sigma=sigma,
                         OPinv=lu.inverse(), v0=np.ones(n) / np.sqrt(n),
                         return_eigenvectors=vectors)
    except ArpackNoConvergence as exc:  # partial results are not trustworthy
        raise SolverError(f"shift-invert at sigma={sigma} did not converge: "
                          f"{exc}") from exc
    return out if vectors else (out, None)


def _window(window: Tuple[float, float]) -> Tuple[float, float]:
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise SolverError(f"empty window {window}")
    return a, b


def _eigen_window(pencil: MatrixPencil, window: Tuple[float, float],
                  shift: float, count: float, vectors: bool):
    """The one eigen path: up to count eigenvalues of S x = lam T x in the
    window, those nearest the shift, sorted, as (values, vectors or None).

    T is SPD, so by Sylvester's law of inertia [a, b] holds n = nu_-(S - bT)
    - nu_-(S - aT) eigenvalues.  If n <= count, one shift-invert Lanczos solve
    at the midpoint asks for exactly n (more can stall in the clusters beside
    the window), and all n must land in [a, b].  Else one solve at the shift
    asks for count + 1; with r halfway between the count-th and (count+1)-th
    distance, inertia must count the count values found in [shift - r,
    shift + r].  Anything else, such as a skipped eigenvalue, raises
    SolverError, as does an edge-pencil window strictly containing lam = 0,
    where the plus-region gradient kernel (315 eigenvalues at L0) stalls ARPACK.
    """
    a, b = _window(window)
    if not (a <= shift <= b):
        raise SolverError(f"shift {shift} outside window [{a}, {b}]")
    if pencil.layout.kind == EDGE.kind and a < 0.0 < b:
        raise SolverError(f"window [{a}, {b}] contains lam = 0, the edge "
                          f"pencil's plus-region gradient kernel")
    lo, hi = a, b
    n = _negative_count(pencil, hi) - _negative_count(pencil, lo)
    if n == 0:
        return np.zeros(0), np.zeros((pencil.S.shape[0], 0)) if vectors else None
    sigma, k = (0.5 * (a + b), n) if n <= count else (shift, count + 1)
    vals, vecs = _shift_invert(pencil, sigma, k, vectors)
    if n > count:
        d = np.sort(np.abs(vals - sigma))
        r = 0.5 * (d[count - 1] + d[count])
        lo, hi = sigma - r, sigma + r
        n = _negative_count(pencil, hi) - _negative_count(pencil, lo)
    hit = (vals >= lo) & (vals <= hi)
    if np.count_nonzero(hit) != n:
        raise SolverError(f"[{lo}, {hi}]: inertia counts {n} eigenvalues, "
                          f"shift-invert Lanczos found {np.count_nonzero(hit)}")
    sel = np.flatnonzero(hit & (vals >= a) & (vals <= b))
    sel = sel[np.argsort(vals[sel])]
    return vals[sel], (vecs[:, sel] if vectors else None)


def residual_evaluator(mesh: Mesh, blocks: Dict[str, sp.csr_matrix],
                       mat: mats.DrudeMaterial, form: Formulation = EDGE
                       ) -> Callable[[float, np.ndarray], float]:
    """Rational residual of a formulation, with the Gram factored once.

    The returned evaluate(lam, u_full) is ||A(lam) u|| in the inverse-Gram
    sense over ||u||, with A(lam) and the Gram of the formulation (H(curl)
    for the edge problem, H1 for the scalar one) and u_full a vector on all
    of its space's dofs.  Zero for exact discrete eigenpairs at admissible
    lam; O(1) for generic vectors.  Guarded at the poles lam = 0 and the
    resonance the pencil linearizes (omega_mu^2 for the edge problem,
    omega_eps^2 for the scalar one).
    """
    space = form.space(mesh)
    G = xnorm_gram(blocks, space, form)
    luG = _factorize(G, f"{form.kind} Gram")
    pole = float(form.roles(mat).omega_mu_sq)

    def evaluate(lam: float, u_full: np.ndarray) -> float:
        if lam == 0 or (pole > 0 and abs(lam - pole) < 1e-12):
            raise SolverError(f"rational residual undefined at lam={lam} (pole)")
        u = space.restrict_vec(u_full)
        den = float(u @ (G @ u))
        if den <= 0:
            raise SolverError("rational residual undefined for u = 0")
        A = fem.assemble_A(blocks, mat, lam, space, form)
        r = A @ u
        num = float(r @ luG.solve(r))
        return float(np.sqrt(max(num, 0.0) / den))

    return evaluate


_FORMS = {form.kind: form for form in (EDGE, SCALAR)}


def solve_eigen(mesh: Mesh, blocks: Dict[str, sp.csr_matrix],
                mat: mats.DrudeMaterial, pencil: MatrixPencil,
                window: Tuple[float, float], shift: float,
                count: int = 8) -> List[EigenPair]:
    """Up to count eigenpairs of the pencil in the window, those nearest the
    shift, sorted by lam and certified by inertia (see _eigen_window).

    Either formulation's pencil is served: pencil.layout.kind names the row
    whose space and rational residual (residual_evaluator) the pairs use.
    Every pair carries its residual value; edge pairs also carry a Helmholtz
    classification of their edge part (curl energy fraction <= 1e-8 means
    gradient-dominated; those populate the accumulation window of the
    permittivity contrast).  A shift within 0.05 of the pencil's resonance
    pole, or a residual that cannot be evaluated, raises SolverError.
    """
    lay = pencil.layout
    form = _FORMS[lay.kind]
    if lay.coupled and abs(shift - lay.pole) < 0.05:
        raise SolverError(
            f"shift {shift} within the guard band of the resonance pole "
            f"{lay.pole}")
    vals, vecs = _eigen_window(pencil, window, shift, count, vectors=True)

    space = form.space(mesh)
    evaluate = residual_evaluator(mesh, blocks, mat, form)
    pairs: List[EigenPair] = []
    for lam, x in zip(vals, vecs.T):
        lam = float(lam)
        u = space.expand_vec(x[:lay.n_primary])
        v = x[lay.n_primary:].copy()
        cls = frac = None
        if form is EDGE:
            norms = fem.field_norms(mesh, u)
            frac = float((norms.curl / norms.hcurl) ** 2)
            cls = "gradient-dominated" if frac <= 1e-8 else "curl-carrying"
        try:
            res = evaluate(lam, u)
        except SolverError as exc:
            raise SolverError(f"rational residual of the eigenpair at lam={lam} "
                              f"failed: {exc}") from exc
        pairs.append(EigenPair(lam, u, v, res, cls, frac))
    return pairs


def _negative_count(pencil: MatrixPencil, sigma: float) -> int:
    """nu_-(S - sigma*T), the number of eigenvalues below sigma, from the signs
    of diag(U).  Only an LDL^T factor (perm_r == perm_c) that passes a
    backward-error probe is accepted; anything else raises."""
    what = f"S - sigma*T at sigma={sigma}"
    A = pencil.S - sigma * pencil.T
    lu = _factorize(A, what)
    if not np.array_equal(lu.lu.perm_r, lu.lu.perm_c):
        raise SolverError(f"{what} pivoted off the diagonal: no inertia")
    y = np.random.default_rng(0).standard_normal(A.shape[0])
    err = float(np.linalg.norm(A @ lu.solve(y) - y) / np.linalg.norm(y))
    if not err <= 1e-10:
        raise SolverError(f"{what}: backward error {err:.1e} > 1e-10, no inertia")
    return int(np.count_nonzero(lu.lu.U.diagonal() < 0))


def count_eigen_window(pencil: MatrixPencil,
                       window: Tuple[float, float]) -> np.ndarray:
    """All pencil eigenvalues inside the window, sorted: _eigen_window with no
    cap, so Lanczos at the midpoint must find the inertia count of the window."""
    return _eigen_window(pencil, window, float(window[0]), np.inf, False)[0]


def discrete_infsup(mesh: Mesh, blocks: Dict[str, sp.csr_matrix],
                    mat: mats.DrudeMaterial, lam: float,
                    level: int = 0) -> InfSupEstimate:
    """Smallest generalized singular value of A(lam) in the H(curl) Gram G.

    For symmetric A(lam), beta_n is the smallest |mu| of A x = mu G x, set by
    the discrete eigenvalue nearest lam.  One shift-invert Lanczos solve at
    sigma = 0 finds its vector x, each step one solve with the factor of
    A(lam) and one product with G, which is never factored.  beta_n is the
    Rayleigh quotient |x^T A x| / (x^T G x) with both products in longdouble,
    not the Ritz value: its error is quadratic in that of x, and it uses the
    exact A, not the unpivoted LDL^T of an indefinite A(lam).

    Every failure raises SolverError naming lam and the cause: a failed
    factorization (A(lam) singular to working precision), an unconverged
    Lanczos iteration, or a quotient that is not finite and positive.

    At an admissible lam beta_n stays bounded below under refinement.  At a
    critical contrast (kappa = -1) discrete eigenvalues accumulate at lam, so
    beta_n tends to zero with h, but not monotonically: one refinement can
    move the nearest eigenvalue away and raise beta_n.
    """
    space = EdgeSpace(mesh)
    A = fem.assemble_A(blocks, mat, lam, space)
    G = xnorm_gram(blocks, space)
    luA = _factorize(A, f"inf-sup A(lam) at lam={lam}")
    n = A.shape[0]
    try:
        _, vecs = spla.eigsh(A, k=1, M=G, sigma=0.0, OPinv=luA.inverse(),
                             v0=np.ones(n) / np.sqrt(n), tol=1e-10)
    except ArpackNoConvergence as exc:
        raise SolverError(
            f"inf-sup iteration did not converge at lam={lam}; "
            f"{len(exc.eigenvalues)} partial Ritz values discarded") from exc
    x = vecs[:, 0].astype(np.longdouble)
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = float(abs(x @ (A.astype(np.longdouble) @ x))
                     / (x @ (G.astype(np.longdouble) @ x)))
    if not np.isfinite(beta) or beta <= 0:
        raise SolverError(
            f"inf-sup iteration at lam={lam} returned beta_n = {beta}, "
            f"which is not finite and positive")
    return InfSupEstimate(lam, beta, level)
