"""Direct solves, the linearized eigenvalue pencil, and stability diagnostics.

The eigenvalue problem is rational in the spectral parameter through the Drude
laws.  With constant mu_minus the curl of the edge space restricted to the
inclusion is exactly the piecewise-constant auxiliary space, so introducing
v = (omega_mu/sqrt(mu_minus)) (lam - omega_mu^2)^{-1} curl u|_- linearizes the
problem into a symmetric pencil (S, T) with T block-diagonal positive
definite.  Its auxiliary block D(lam) = (pole - lam) MY is diagonal, and
eliminating it from S - lam*T gives back the rational operator A(lam)
(schur_complement).  So S - sigma*T is never factored: its inertia is
nu_-(A(sigma)) + n_aux [sigma > pole] (Haynsworth, Linear Algebra Appl. 1,
1968), and shift-invert solves with it by block elimination on A(sigma).

In 2D the scalar-potential problem is the edge problem with mu and eps
swapped: eps(lam)^-1 weights the P1 stiffness, mu(lam) the mass, and the
auxiliary variable is the piecewise-constant gradient on the inclusion.  The
blocks of fem.assemble_blocks carry their row of the formulation table
(fem.EDGE or fem.SCALAR), and every routine here reads its space and its
material roles from blocks.form; every pencil carries the row it linearizes
(MatrixPencil.form).  solve_eigen builds its own pencil from the blocks, so
one eigen path serves both formulations; so does solve_source, whose load is
the row's load kernel.  Solves return plain arrays: SourceSolution.coeffs and
EigenPair.u hold every dof of their row's space, boundary dofs zero.

Every sparse factorization goes through _factorize, with one policy: a
reverse Cuthill-McKee pre-order, then SuperLU in SymmetricMode with ordering
MMD_AT_PLUS_A and diag_pivot_thresh=0.  Each matrix factored here is A(lam)
of one formulation or the Gram of residual_evaluator (the only Gram
factored); each is symmetric, and with the pivots on the diagonal (perm_r ==
perm_c) diag(U) is the D of LDL^T, whose signs certify window counts.  On the
section 5.2 edge pencil at L3 A(4/3) fills 2.42 M, S - (4/3)T filled 2.58 M,
and the backward-error probe moves from 5.3e-11 to 3.2e-11.  Fill at L4: A(1)
32.6 M with COLAMD, 11.8 M now; the P1 scalar operator 11.9 M and 8.8 M.  MMD
breaks ties in input order, and on the mesh's own numbering it fills those two
to 15.2 M and 19.0 M, hence the pre-order.  The threshold must be 0: at 0.01
SuperLU pivoted off the diagonal on the L1 and L2 pencils and the inertia
came out wrong; with partial pivoting the ordering did not finish at L4 in
10 min.  ARPACK gets these factors through OPinv and builds none of its own;
its M is only ever multiplied.  SuperLU's supernodal kernels are level-2 BLAS
(Demmel et al., SIAM J. Matrix Anal. Appl. 1999), so a factorization gains
nothing from BLAS threads, and the experiments pool runs each job on one.

Every factorization starts on a trimmed heap: glibc's malloc_trim(0) right
before splu hands the free memory of every malloc arena back to the system
(_malloc_trim; a no-op under a C library without it).  SuperLU takes its
factor arrays from fresh mmaps, which never reuse what assembly freed, so
without the trim those temporaries stay resident under every factor.  In the
source_deep benchmark about 330 MB were resident, of them about 160 MB live,
when its two L4 factorizations started: assembling the L4 edge blocks makes
115 MB of temporaries for 44 MB of blocks, and assemble_A 74 MB for 19.5 MB.
The one policy covers source solves, inertia counts, shift-invert, the
residual Gram and the inf-sup factor.  A fixed mallopt M_MMAP_THRESHOLD, tried
in its place, cut 17 MB but made the eigen-convergence study about 20% slower.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh  # rebound by perfbench/tracing.py
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackNoConvergence

from . import fem, materials as mats
from .fem import EDGE, Blocks, Formulation, Space
from .mesh import Mesh

__all__ = [
    "SolverError", "SourceSolution", "MatrixPencil", "EigenPair", "xnorm_gram",
    "solve_source", "build_pencil", "schur_complement",
    "solve_eigen", "count_eigen_window", "residual_evaluator", "discrete_infsup",
]


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SourceSolution:
    coeffs: np.ndarray        # every dof (boundary dofs zero), longdouble
    residual: float           # relative algebraic residual, <= 1e-10


@dataclass(frozen=True)
class MatrixPencil:
    S: sp.csr_matrix
    T: sp.csr_matrix          # block diagonal, positive definite
    form: Formulation         # the row it linearizes
    n_primary: int            # primary dofs (first block)
    n_aux: int                # auxiliary minus-region dofs; 0: one block
    pole: float               # omega_mu^2 (edge) / omega_eps^2 (scalar)


@dataclass(frozen=True)
class EigenPair:
    lam: float
    u: np.ndarray             # full coefficients on the formulation's space
    residual: float           # rational residual ||A(lam)u|| / ||u||_X
    # edge pairs only (None for scalar pairs):
    classification: Optional[str]    # "gradient-dominated" | "curl-carrying"
    curl_fraction: Optional[float]   # curl energy over total H(curl) energy


def xnorm_gram(blocks: Blocks, space: Space) -> sp.csr_matrix:
    """Unweighted Gram on the free dofs: stiffness + mass over both regions,
    the H(curl) Gram for the edge problem and the H1 Gram for the scalar one."""
    (K_p, K_m), (M_p, M_m) = blocks.stiffness, blocks.mass
    return space.restrict_matrix(K_p + K_m + M_p + M_m)


@dataclass(frozen=True)
class _Factor:
    lu: spla.SuperLU          # factor of A[order][:, order]
    order: np.ndarray         # the pre-order

    def solve(self, b: np.ndarray) -> np.ndarray:
        y = self.lu.solve(b[self.order])
        x = np.empty_like(y)
        x[self.order] = y
        return x


@functools.lru_cache(maxsize=None)
def _malloc_trim() -> Optional[Callable]:
    """glibc's malloc_trim; None under a C library without it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _factorize(A: sp.spmatrix, what: str) -> _Factor:
    """The one sparse factorization (policy in the module docstring), started
    on a trimmed heap."""
    A = A.tocsr()
    order = reverse_cuthill_mckee(A, symmetric_mode=True)
    Ap = A[order][:, order].tocsc()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)
    try:
        lu = spla.splu(Ap, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"factorization failed for {what}: {exc}") from exc
    return _Factor(lu, order)


def _longdouble(A: sp.csr_matrix) -> sp.csr_matrix:
    """A with its values in longdouble, on A's own indices and indptr:
    A.astype(np.longdouble) copies those too (6.8 MB at the L4 edge A(1)).
    Its products are bit for bit those of the astype copy."""
    return sp.csr_matrix((A.data.astype(np.longdouble), A.indices, A.indptr),
                         shape=A.shape)


_REFINE_STEPS = 6


def _refined_solve(lu, A: sp.csr_matrix, b: np.ndarray) -> Tuple[np.ndarray, float]:
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
    Ax = _longdouble(A)
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


def _gated_solve(A: sp.csr_matrix, b: np.ndarray,
                 what: str) -> Tuple[np.ndarray, float]:
    """Factor, refine, and hold the relative residual to the 1e-10 gate.
    Returns (solution, residual)."""
    lu = _factorize(A, what)
    u, res = _refined_solve(lu, A, b)
    if not np.isfinite(res) or res > 1e-10:
        d = np.abs(lu.lu.U.diagonal())
        raise SolverError(
            f"{what} is numerically singular: relative residual {res:.3e} "
            f"after refinement (min|U_ii|/max|U_ii| = {d.min() / d.max():.3e})")
    return u, res


def solve_source(mesh: Mesh, blocks: Blocks, mat: mats.DrudeMaterial, lam,
                 f) -> SourceSolution:
    """Direct solve of A(lam) u = b on the space of the blocks' row, with b
    the row's load of the source f (Formulation.load).

    f is a constant vector (shape (2,)); the edge row also takes a callable
    x -> (..., 2).  Iterative refinement keeps the relative residual at the
    1e-10 gate even on deep meshes; a residual still above it means lam sits
    at or near an eigenvalue and is reported with pivot diagnostics instead
    of returned.  The blocks are let go once A(lam) and b are built, so a
    caller that holds no other reference frees them before the factorization.
    """
    form = blocks.form
    if not callable(f):
        f = np.asarray(f, dtype=float)
        if f.shape != (2,):
            raise SolverError(f"constant source must have shape (2,), got {f.shape}")
    elif form is not EDGE:
        raise SolverError(f"the {form.kind} row takes a constant source, not a callable")
    space = form.space(mesh)
    A = fem.assemble_A(blocks, mat, lam, space)
    b = space.restrict_vec(form.load(mesh, mat, lam, f))
    del blocks
    u, res = _gated_solve(A, b, f"{form.kind} A({lam})")
    return SourceSolution(space.expand_vec(u), res)


def build_pencil(mesh: Mesh, blocks: Blocks,
                 mat: mats.DrudeMaterial) -> MatrixPencil:
    """Assemble the symmetric linearization of the rational eigenproblem.

    Coupled edge form (omega_mu > 0), on free edge dofs u and auxiliary
    constants v:

        S = [ mu_+^-1 K_+ + mu_-^-1 K_- + w_e^2 eps_- M_-   w_m mu_-^-1/2 C^T ]
            [ w_m mu_-^-1/2 C                               w_m^2 MY          ]
        T = [ eps_+ M_+ + eps_- M_-                         0                 ]
            [ 0                                             MY                ]

    with w_m^2 = omega_mu^2, w_e^2 = omega_eps^2.  The pencil is the
    one-block form (upper-left corner only, n_aux = 0) exactly when the
    auxiliary block is empty: for omega_mu = 0, where the problem is already
    linear in lam, and on a mesh with no minus triangle.

    Blocks of the scalar row give the same pencil on every vertex with mu and
    eps swapped: the auxiliary variable is the minus-region gradient and the
    pole is omega_eps^2.  The pencil carries its row as pencil.form.
    """
    form = blocks.form
    space = form.space(mesh)
    m = form.roles(mat)
    wmu2 = float(m.omega_mu_sq)
    weps2 = float(m.omega_eps_sq)
    mu_p, mu_m = float(m.mu_plus), float(m.mu_minus)
    eps_p, eps_m = float(m.eps_plus), float(m.eps_minus)
    (K_p, K_m), (M_p, M_m) = blocks.stiffness, blocks.mass

    Auu = space.restrict_matrix(K_p / mu_p + K_m / mu_m + (weps2 * eps_m) * M_m)
    Mass = space.restrict_matrix(eps_p * M_p + eps_m * M_m)
    MY = blocks.aux_mass
    if wmu2 == 0.0 or MY.shape[0] == 0:
        return MatrixPencil(Auu, Mass, form, Auu.shape[0], 0, wmu2)

    scale = np.sqrt(wmu2 / mu_m)
    Cf = blocks.pairing.tocsr()[:, space.free]
    S = sp.bmat([[Auu, scale * Cf.T], [scale * Cf, wmu2 * MY]], format="csr")
    T = sp.block_diag([Mass, MY], format="csr")
    return MatrixPencil(S, T, form, Auu.shape[0], MY.shape[0], wmu2)


def schur_complement(pencil: MatrixPencil, lam: float) -> sp.csr_matrix:
    """A(lam) = S11 - lam*T11 - S12 D(lam)^-1 S21, the auxiliary block D(lam) =
    (pole - lam) MY of S - lam*T eliminated, from the pencil blocks alone
    (independent of assemble_A's coefficient algebra).  A one-block pencil
    has nothing to eliminate and gives S - lam*T; otherwise it raises at the
    pole."""
    if not pencil.n_aux:
        return pencil.S - lam * pencil.T
    if lam == pencil.pole:
        raise SolverError(f"no elimination at the resonance pole {pencil.pole}")
    S, T, nu = pencil.S, pencil.T, pencil.n_primary
    Dinv = sp.diags(1.0 / ((pencil.pole - lam) * T.diagonal()[nu:]))
    return (S[:nu, :nu] - lam * T[:nu, :nu] - S[:nu, nu:] @ Dinv @ S[nu:, :nu]).tocsr()


def _shift_invert(pencil: MatrixPencil, sigma: float, k: int, vectors: bool):
    """The k eigenpairs nearest sigma, as (values, vectors or None).  OPinv
    solves (S - sigma*T) x = b by block elimination on one factor of A(sigma):
    g = b2/d, u = A^-1 (b1 - S12 g), v = g - S21 u / d.  A sigma on an
    eigenvalue fails that factor and raises; it is never moved."""
    n, nu = pencil.S.shape[0], pencil.n_primary
    lu = _factorize(schur_complement(pencil, sigma), f"A(sigma) at sigma={sigma}")
    S12, S21 = pencil.S[:nu, nu:], pencil.S[nu:, :nu]
    d = (pencil.pole - sigma) * pencil.T.diagonal()[nu:]

    def solve(b):
        g = b[nu:] / d
        u = lu.solve(b[:nu] - S12 @ g)
        return np.concatenate([u, g - (S21 @ u) / d])

    try:
        out = spla.eigsh(pencil.S, k=min(k, n - 2), M=pencil.T, sigma=sigma,
                         OPinv=spla.LinearOperator((n, n), matvec=solve, dtype=float),
                         v0=np.ones(n) / np.sqrt(n), return_eigenvectors=vectors)
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
    if pencil.form is EDGE and a < 0.0 < b:
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


def residual_evaluator(mesh: Mesh, blocks: Blocks, mat: mats.DrudeMaterial
                       ) -> Callable[[float, np.ndarray], float]:
    """Rational residual of the blocks' row, with the Gram factored once.

    The returned evaluate(lam, u_full) is ||A(lam) u|| in the inverse-Gram
    sense over ||u||, with A(lam) and the Gram of the formulation (H(curl)
    for the edge problem, H1 for the scalar one) and u_full a vector on all
    of its space's dofs.  Zero for exact discrete eigenpairs at admissible
    lam; O(1) for generic vectors.  Guarded at the poles lam = 0 and the
    resonance the pencil linearizes (omega_mu^2 for the edge problem,
    omega_eps^2 for the scalar one).
    """
    form = blocks.form
    space = form.space(mesh)
    G = xnorm_gram(blocks, space)
    luG = _factorize(G, f"{form.kind} Gram")
    pole = float(form.roles(mat).omega_mu_sq)

    def evaluate(lam: float, u_full: np.ndarray) -> float:
        if lam == 0 or (pole > 0 and abs(lam - pole) < 1e-12):
            raise SolverError(f"rational residual undefined at lam={lam} (pole)")
        u = space.restrict_vec(u_full)
        den = float(u @ (G @ u))
        if den <= 0:
            raise SolverError("rational residual undefined for u = 0")
        A = fem.assemble_A(blocks, mat, lam, space)
        r = A @ u
        num = float(r @ luG.solve(r))
        return float(np.sqrt(max(num, 0.0) / den))

    return evaluate


def solve_eigen(mesh: Mesh, blocks: Blocks, mat: mats.DrudeMaterial,
                window: Tuple[float, float], shift: float,
                count: int = 8) -> List[EigenPair]:
    """Up to count eigenpairs of the pencil of the blocks' row (build_pencil)
    in the window, those nearest the shift, sorted by lam and certified by
    inertia (see _eigen_window).

    Either formulation is served: blocks.form gives the pencil, the space
    and the rational residual (residual_evaluator) the pairs use.  Every pair
    carries its residual value; edge pairs also carry a Helmholtz
    classification of their edge part (curl energy fraction <= 1e-8 means
    gradient-dominated; those populate the accumulation window of the
    permittivity contrast).  A shift within 0.05 of the pencil's resonance
    pole, or a residual that cannot be evaluated, raises SolverError.
    """
    pencil = build_pencil(mesh, blocks, mat)
    if pencil.n_aux and abs(shift - pencil.pole) < 0.05:
        raise SolverError(
            f"shift {shift} within the guard band of the resonance pole "
            f"{pencil.pole}")
    vals, vecs = _eigen_window(pencil, window, shift, count, vectors=True)

    space = blocks.form.space(mesh)
    evaluate = residual_evaluator(mesh, blocks, mat)
    pairs: List[EigenPair] = []
    for lam, x in zip(vals, vecs.T):
        lam = float(lam)
        u = space.expand_vec(x[:pencil.n_primary])
        cls = frac = None
        if blocks.form is EDGE:
            curl = fem.block_norm_sq(blocks.stiffness, u)
            frac = curl / (curl + fem.block_norm_sq(blocks.mass, u))
            cls = "gradient-dominated" if frac <= 1e-8 else "curl-carrying"
        try:
            res = evaluate(lam, u)
        except SolverError as exc:
            raise SolverError(f"rational residual of the eigenpair at lam={lam} "
                              f"failed: {exc}") from exc
        pairs.append(EigenPair(lam, u, res, cls, frac))
    return pairs


def _negative_count(pencil: MatrixPencil, sigma: float) -> int:
    """nu_-(S - sigma*T), the number of eigenvalues below sigma: the negative
    signs of diag(U) of A(sigma), plus n_aux if sigma > pole (Haynsworth).
    Only an LDL^T factor (perm_r == perm_c) that passes a backward-error probe
    is accepted; anything else raises.  Reading lu.U makes scipy build and
    cache CSC copies of both L and U: 14-18 MB more resident and 12-13 ms for
    A(1.27) of the section 5.2 edge pencil at L3 (2.42 M fill)."""
    what = f"A(sigma) at sigma={sigma}"
    A = schur_complement(pencil, sigma)
    lu = _factorize(A, what)
    if not np.array_equal(lu.lu.perm_r, lu.lu.perm_c):
        raise SolverError(f"{what} pivoted off the diagonal: no inertia")
    y = np.random.default_rng(0).standard_normal(A.shape[0])
    err = float(np.linalg.norm(A @ lu.solve(y) - y) / np.linalg.norm(y))
    if not err <= 1e-10:
        raise SolverError(f"{what}: backward error {err:.1e} > 1e-10, no inertia")
    aux = pencil.n_aux if sigma > pencil.pole else 0
    return int(np.count_nonzero(lu.lu.U.diagonal() < 0)) + aux


def count_eigen_window(pencil: MatrixPencil,
                       window: Tuple[float, float]) -> np.ndarray:
    """All pencil eigenvalues inside the window, sorted: _eigen_window with no
    cap, so Lanczos at the midpoint must find the inertia count of the window."""
    return _eigen_window(pencil, window, float(window[0]), np.inf, False)[0]


def discrete_infsup(mesh: Mesh, blocks: Blocks, mat: mats.DrudeMaterial,
                    lam: float) -> float:
    """beta_n: the smallest generalized singular value of A(lam) of the
    blocks' row in its Gram G (xnorm_gram), H(curl) for the edge row.

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
    space = blocks.form.space(mesh)
    A = fem.assemble_A(blocks, mat, lam, space)
    G = xnorm_gram(blocks, space)
    luA = _factorize(A, f"inf-sup A(lam) at lam={lam}")
    n = A.shape[0]
    try:
        _, vecs = spla.eigsh(A, k=1, M=G, sigma=0.0, v0=np.ones(n) / np.sqrt(n),
                             OPinv=spla.LinearOperator(A.shape, matvec=luA.solve,
                                                       dtype=float), tol=1e-10)
    except ArpackNoConvergence as exc:
        raise SolverError(
            f"inf-sup iteration did not converge at lam={lam}; "
            f"{len(exc.eigenvalues)} partial Ritz values discarded") from exc
    x = vecs[:, 0].astype(np.longdouble)
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = float(abs(x @ (_longdouble(A) @ x)) / (x @ (_longdouble(G) @ x)))
    if not np.isfinite(beta) or beta <= 0:
        raise SolverError(
            f"inf-sup iteration at lam={lam} returned beta_n = {beta}, "
            f"which is not finite and positive")
    return beta
