"""Direct solves, the linearization pencil, eigenpairs, and inf-sup estimates."""

import dataclasses
import platform
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from signfem import fem, materials as mats, solvers as sol
from signfem.geometry import make_reference_domain
from signfem.materials import DrudeMaterial, lambda_admissible
from signfem.mesh import refine_red
from signfem.meshgen import build_r_conform_coarse, square_mesh

REFERENCE = DrudeMaterial(mu_minus=10.0, eps_minus=10.0,
                          omega_mu_sq=4.0, omega_eps_sq=2.0)
CONTRAST_TEN = DrudeMaterial(mu_minus=0.1, eps_minus=10.0,
                             omega_mu_sq=2.0, omega_eps_sq=2.0)
HOMOGENEOUS = DrudeMaterial()

# outside the critical windows and away from both resonances, for both
# materials above
ADMISSIBLE_LAMS = (0.7, 1.1, 2.2, 4.2, 4.7)
SPECTRUM_WINDOW = (4 / 3, 100 / 51)


@pytest.fixture(scope="module")
def dom():
    return make_reference_domain()


@pytest.fixture(scope="module")
def mesh_seq(dom):
    seq = [build_r_conform_coarse(dom, 0.2)]
    for _ in range(2):
        seq.append(refine_red(seq[-1]))
    return seq


@pytest.fixture(scope="module")
def blocks_seq(mesh_seq):
    return [fem.assemble_blocks(m) for m in mesh_seq]


@pytest.fixture(scope="module")
def scalar_seq(mesh_seq):
    return [fem.assemble_blocks(m, fem.SCALAR) for m in mesh_seq]


@pytest.fixture(scope="module")
def rows(blocks_seq, scalar_seq):
    """Each formulation row's blocks, level by level."""
    return {fem.EDGE: blocks_seq, fem.SCALAR: scalar_seq}


def test_source_solution_contract(mesh_seq, blocks_seq):
    m, bl = mesh_seq[1], blocks_seq[1]
    s = sol.solve_source(m, bl, CONTRAST_TEN, 1.0, (1.0, 1.0))
    assert s.residual <= 1e-10
    space = fem.EDGE.space(m)
    bdry = np.setdiff1d(np.arange(m.num_edges), space.free)
    assert s.coeffs.shape == (m.num_edges,)
    assert np.all(s.coeffs[bdry] == 0.0)
    assert sum(fem.block_norm_sq(pair, s.coeffs) for pair in (bl.stiffness, bl.mass)) > 0


def test_source_solve_holds_one_copy_of_A_under_the_factor(mesh_seq, rows,
                                                          monkeypatch):
    # solve_source factors, and refines against, the pre-ordered copy of the
    # A(lam) it assembles; that A itself is gone when splu runs.  The gate
    # holds on the residual of the returned solution in its own numbering.
    made, alive = [], []
    real_assemble_A, real_splu = fem.assemble_A, spla.splu

    def assemble_A(*args):
        A = real_assemble_A(*args)
        made.append(weakref.ref(A))
        return A

    def splu(*args, **kwargs):
        alive.append([ref() is not None for ref in made])
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(fem, "assemble_A", assemble_A)
    monkeypatch.setattr(sol.spla, "splu", splu)
    m = mesh_seq[1]
    for form, bl in rows.items():
        s = sol.solve_source(m, bl[1], CONTRAST_TEN, 1.0, (1.0, 1.0))
        assert s.residual <= 1e-10
        space = form.space(m)
        A = real_assemble_A(bl[1], CONTRAST_TEN, 1.0, space)
        b = space.restrict_vec(form.load(m, CONTRAST_TEN, 1.0, np.array([1.0, 1.0])))
        assert s.coeffs.dtype == np.float64
        u = space.restrict_vec(s.coeffs)
        assert np.linalg.norm(b - A @ u) <= 1e-10 * np.linalg.norm(b)
    assert alive == [[False], [False, False]]


def test_refinement_takes_one_product_per_solve(mesh_seq, blocks_seq, monkeypatch):
    # the residual that measures an iterate is the one the next step
    # corrects, so the products of A with the longdouble iterate match the
    # factor's solves one for one, with no product taken twice for the same
    # iterate
    counts = {"solve": 0, "product": 0}

    class Counted:
        def __init__(self, inner, key):
            self.inner, self.key = inner, key

        def solve(self, b):
            counts[self.key] += 1
            return self.inner.solve(b)

        def __matmul__(self, v):
            counts[self.key] += 1
            return self.inner @ v

    m, bl = mesh_seq[1], blocks_seq[1]
    space = fem.EDGE.space(m)
    A, order = sol._preorder(fem.assemble_A(bl, CONTRAST_TEN, 1.0, space))
    b = space.restrict_vec(fem.EDGE.load(m, CONTRAST_TEN, 1.0, np.array([1.0, 1.0])))
    lu = sol._factorize(A, "A(1)", order).lu
    _, res = sol._refined_solve(Counted(lu, "solve"), Counted(A, "product"), b[order])
    assert res <= 1e-10
    assert counts["product"] == counts["solve"] >= 2


def test_source_zero_load(mesh_seq, blocks_seq):
    s = sol.solve_source(mesh_seq[0], blocks_seq[0], CONTRAST_TEN, 1.0, (0.0, 0.0))
    assert s.residual == 0.0
    assert np.all(s.coeffs == 0.0)


def test_source_constant_equals_callable(mesh_seq, blocks_seq):
    m, bl = mesh_seq[0], blocks_seq[0]
    a = sol.solve_source(m, bl, REFERENCE, -1.0, (1.0, 2.0))
    b = sol.solve_source(m, bl, REFERENCE, -1.0,
                         lambda x: np.broadcast_to((1.0, 2.0), x.shape))
    assert np.array_equal(a.coeffs, b.coeffs)


def test_source_coercive_matches_dense(mesh_seq, blocks_seq):
    m, bl = mesh_seq[0], blocks_seq[0]
    space = fem.EDGE.space(m)
    A = fem.assemble_A(bl, CONTRAST_TEN, -1.0, space).toarray()
    b = space.restrict_vec(fem.assemble_rhs(m, lambda x: np.broadcast_to((1.0, 1.0), x.shape)))
    want = np.linalg.solve(A, b)
    got = sol.solve_source(m, bl, CONTRAST_TEN, -1.0, (1.0, 1.0))
    err = np.linalg.norm(space.restrict_vec(got.coeffs) - want)
    assert err <= 1e-10 * np.linalg.norm(want)


def test_source_rejects_complex_lambda(mesh_seq, blocks_seq, monkeypatch):
    # lam is real (symmetric pencil, real admissible source lam): a complex
    # lam stops at the Drude law, naming lam, before anything is factored
    splu_calls = []
    real_splu = spla.splu

    def splu(*args, **kwargs):
        splu_calls.append(args)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(sol.spla, "splu", splu)
    with pytest.raises(mats.MaterialError, match=r"lam = \(1\+0\.2j\)"):
        sol.solve_source(mesh_seq[0], blocks_seq[0], CONTRAST_TEN, 1 + 0.2j,
                         (1.0, 1.0))
    assert splu_calls == []


def test_source_bad_constant_shape(mesh_seq, rows):
    for form in (fem.EDGE, fem.SCALAR):
        with pytest.raises(sol.SolverError, match="shape"):
            sol.solve_source(mesh_seq[0], rows[form][0], REFERENCE, -1.0,
                             (1.0, 2.0, 3.0))


@pytest.mark.parametrize("f, match", [
    (lambda x: np.broadcast_to((1.0, 1.0), x.shape), "constant source"),
    (np.ones((1, 2)), "shape"),
], ids=["callable", "row-matrix"])
def test_scalar_source_rejected_before_factorization(mesh_seq, scalar_seq,
                                                     monkeypatch, f, match):
    # the scalar row's load is that of a linear potential, so it takes only a
    # constant vector of shape (2,); anything else stops before SuperLU
    splu_calls = []
    monkeypatch.setattr(sol.spla, "splu", lambda *a, **k: splu_calls.append(a))
    with pytest.raises(sol.SolverError, match=match):
        sol.solve_source(mesh_seq[0], scalar_seq[0], REFERENCE, -1.0, f)
    assert splu_calls == []


def test_scalar_potential_cross_check_decreases(mesh_seq, blocks_seq, scalar_seq):
    crosses = []
    for m, bl, bs in zip(mesh_seq, blocks_seq, scalar_seq):
        u = sol.solve_source(m, bl, CONTRAST_TEN, 1.0, (1.0, 1.0))
        v = sol.solve_source(m, bs, CONTRAST_TEN, 1.0, (1.0, 1.0)).coeffs
        flux = fem.potential_flux(m, CONTRAST_TEN, 1.0, v)
        assert v.shape == (m.num_vertices,)
        assert flux.shape == (m.num_triangles, 2)
        crosses.append(fem.cross_error(m, u.coeffs, flux))
    assert crosses[0] > crosses[1] > crosses[2]


def test_pencil_structure(mesh_seq, blocks_seq):
    m, bl = mesh_seq[0], blocks_seq[0]
    for mat, pole in ((CONTRAST_TEN, 2.0), (REFERENCE, 4.0)):
        p = sol.build_pencil(m, bl, mat)
        assert p.form is fem.EDGE and p.pole == pole
        assert p.n_aux == np.count_nonzero(m.region == -1) > 0
        assert p.n_primary + p.n_aux == p.S.shape[0]
        assert abs(p.S - p.S.T).max() == 0.0
        assert abs(p.T - p.T.T).max() == 0.0
        assert np.linalg.eigvalsh(p.T.toarray()).min() > 0


def test_pencil_one_block_when_dispersionless(mesh_seq, blocks_seq):
    p = sol.build_pencil(mesh_seq[0], blocks_seq[0], HOMOGENEOUS)
    assert p.n_aux == 0 and p.n_primary == p.S.shape[0]
    # nothing to eliminate: the complement is the pencil matrix itself
    A, want = sol.schur_complement(p, 0.5), p.S - 0.5 * p.T
    assert A.shape == want.shape and (A != want).nnz == 0


def test_pencil_one_block_without_minus_triangles():
    # a mesh with no minus triangle has an empty auxiliary block even with
    # omega_mu > 0: the pencil is the one-block form, and at omega_mu^2 the
    # complement is S - lam*T, with no pole to raise at
    m = square_mesh(4)
    assert not np.any(m.region == -1)
    for form in (fem.EDGE, fem.SCALAR):
        p = sol.build_pencil(m, fem.assemble_blocks(m, form), REFERENCE)
        assert p.form is form and p.n_aux == 0 and p.n_primary == p.S.shape[0]
        lam = p.pole
        A, want = sol.schur_complement(p, lam), p.S - lam * p.T
        assert lam > 0 and A.shape == want.shape and (A != want).nnz == 0


def test_nonpositive_drude_constant_rejected_at_the_type(mesh_seq, blocks_seq):
    # the pencils assume positive Drude constants; the material type enforces
    # that invariant at construction, so no bad material can reach them
    with pytest.raises(mats.MaterialError, match="positive"):
        dataclasses.replace(CONTRAST_TEN, mu_minus=type(CONTRAST_TEN.mu_minus)(0))
    with pytest.raises(mats.MaterialError, match="positive"):
        dataclasses.replace(CONTRAST_TEN, eps_minus=type(CONTRAST_TEN.eps_minus)(0))


def test_schur_substitution_reproduces_operator(mesh_seq, blocks_seq):
    rng = np.random.default_rng(7)
    for lvl in (0, 1):
        m, bl = mesh_seq[lvl], blocks_seq[lvl]
        space = fem.EDGE.space(m)
        for mat in (CONTRAST_TEN, REFERENCE):
            p = sol.build_pencil(m, bl, mat)
            for lam in ADMISSIBLE_LAMS:
                A = fem.assemble_A(bl, mat, lam, space)
                schur = sol.schur_complement(p, lam)
                for _ in range(6):
                    x = rng.standard_normal(len(space.free))
                    want = A @ x
                    got = schur @ x
                    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def test_schur_substitution_scalar_formulation(mesh_seq, scalar_seq):
    rng = np.random.default_rng(8)
    m, bl = mesh_seq[0], scalar_seq[0]
    for mat in (CONTRAST_TEN, REFERENCE):
        p = sol.build_pencil(m, bl, mat)
        assert p.form is fem.SCALAR
        assert p.n_aux == 2 * np.count_nonzero(m.region == -1)
        for lam in ADMISSIBLE_LAMS:
            S = fem.assemble_A(bl, mat, lam, fem.SCALAR.space(m))
            schur = sol.schur_complement(p, lam)
            for _ in range(4):
                x = rng.standard_normal(m.num_vertices)
                want = S @ x
                got = schur @ x
                assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


# hypothesis interacts badly with function-scoped heavyweight fixtures; pin a
# small mesh once at import instead
_HYP_MESH = build_r_conform_coarse(make_reference_domain(), 0.3)
_HYP_BLOCKS = fem.assemble_blocks(_HYP_MESH)
_HYP_PENCIL = sol.build_pencil(_HYP_MESH, _HYP_BLOCKS, CONTRAST_TEN)


_HYP_WINDOWS = mats.critical_lambda_windows(
    CONTRAST_TEN, mats.critical_interval(make_reference_domain()))


@settings(max_examples=12, deadline=None)
@given(st.floats(min_value=0.05, max_value=4.95))
def test_schur_substitution_any_admissible_lambda(lam):
    assume(lambda_admissible(CONTRAST_TEN, _HYP_WINDOWS, lam))
    assume(abs(lam - 2.0) > 0.05)
    space = fem.EDGE.space(_HYP_MESH)
    A = fem.assemble_A(_HYP_BLOCKS, CONTRAST_TEN, lam, space)
    x = np.linspace(-1, 1, len(space.free))
    want = A @ x
    got = sol.schur_complement(_HYP_PENCIL, lam) @ x
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def test_schur_undefined_at_pole(mesh_seq, blocks_seq):
    p = sol.build_pencil(mesh_seq[0], blocks_seq[0], CONTRAST_TEN)
    with pytest.raises(sol.SolverError, match="pole"):
        sol.schur_complement(p, 2.0)


def test_eigen_reference_target(mesh_seq, blocks_seq):
    # the reference material has an isolated eigenvalue just below 4/3
    m, bl = mesh_seq[2], blocks_seq[2]
    pairs = sol.solve_eigen(m, bl, REFERENCE, window=(1.2, 4 / 3),
                            shift=1.27)
    assert pairs, "no eigenpair found in the target window"
    lams = [q.lam for q in pairs]
    assert lams == sorted(lams)
    target = max(lams)
    assert abs(target - 1.276) <= 0.05
    for q in pairs:
        assert q.residual <= 1e-8
        assert q.classification in ("gradient-dominated", "curl-carrying")
        assert 0.0 <= q.curl_fraction <= 1.0
        assert q.u.shape == (m.num_edges,)


@pytest.mark.parametrize("seq, level, window, shift, count", [
    ("mesh_seq", 0, (1.2, 4 / 3), 1.27, 8),
    ("mesh_seq", 1, (1.2, 4 / 3), 1.27, 8),
    ("small_patch_seq", 1, SPECTRUM_WINDOW, 1.6, 24),
], ids=["L0", "L1", "L1-eps-window-small-patch"])
def test_curl_fraction_matches_quadrature(request, seq, level, window, shift,
                                          count):
    # the curl fraction read from the K and M blocks against the quadrature
    # of the field's values and elementwise curls.  In the permittivity
    # window at patch radius 0.05 the fractions go down to 0.14, and block
    # products summed in float64 were 1.9e-12 off there
    m = request.getfixturevalue(seq)[level]
    bl = fem.assemble_blocks(m)
    pairs = sol.solve_eigen(m, bl, REFERENCE, window=window,
                            shift=shift, count=count)
    assert pairs
    for q in pairs:
        l2sq = sum(w * float(fem._rowdot(vals, vals) @ m.areas)
                   for w, _, vals in fem._edge_values(m, q.u, fem.MID_RULE))
        curlsq = float((fem._edge_curls(m, q.u) ** 2) @ m.areas)
        ref = curlsq / (curlsq + l2sq)
        assert q.curl_fraction == pytest.approx(ref, rel=1e-12, abs=0)
        label = "gradient-dominated" if ref <= 1e-8 else "curl-carrying"
        assert q.classification == label


def test_eigen_shift_independence(mesh_seq, blocks_seq):
    m, bl = mesh_seq[1], blocks_seq[1]
    a = sol.solve_eigen(m, bl, REFERENCE, window=(1.2, 4 / 3), shift=1.22)
    b = sol.solve_eigen(m, bl, REFERENCE, window=(1.2, 4 / 3), shift=1.31)
    la = max(q.lam for q in a)
    lb = max(q.lam for q in b)
    assert abs(la - lb) <= 1e-9 * max(1.0, abs(la))


def test_eigen_input_validation(mesh_seq, blocks_seq):
    m, bl = mesh_seq[0], blocks_seq[0]
    with pytest.raises(sol.SolverError, match="window"):
        sol.solve_eigen(m, bl, REFERENCE, window=(2.0, 1.0), shift=1.5)
    with pytest.raises(sol.SolverError, match="shift"):
        sol.solve_eigen(m, bl, REFERENCE, window=(1.0, 2.0), shift=5.0)
    with pytest.raises(sol.SolverError, match="guard"):
        sol.solve_eigen(m, bl, REFERENCE, window=(3.8, 4.3), shift=3.98)


def test_scalar_eigen_guard_band_at_omega_eps_sq(mesh_seq, scalar_seq):
    # the scalar pencil linearizes the resonance at omega_eps^2 = 2, not at
    # omega_mu^2 = 4: a shift within 0.05 of 2 raises before any factor
    m, bl = mesh_seq[0], scalar_seq[0]
    ps = sol.build_pencil(m, bl, REFERENCE)
    assert ps.pole == float(REFERENCE.omega_eps_sq)
    with pytest.raises(sol.SolverError, match="guard band.*pole 2.0"):
        sol.solve_eigen(m, bl, REFERENCE, window=(1.9, 2.1), shift=2.04)


@pytest.mark.parametrize("form, window, shift", [
    (fem.EDGE, (1.2, 4 / 3), 1.27),
    (fem.SCALAR, (2.1, 3.0), 2.5),    # L0 has no scalar value below 4/3
], ids=["edge", "scalar"])
def test_solve_eigen_matches_dense(mesh_seq, rows, form, window, shift):
    from scipy.linalg import eigh
    m, bl = mesh_seq[0], rows[form][0]
    p = sol.build_pencil(m, bl, REFERENCE)
    vals = eigh(p.S.toarray(), p.T.toarray(), eigvals_only=True)
    want = np.sort(vals[(vals >= window[0]) & (vals <= window[1])])
    pairs = sol.solve_eigen(m, bl, REFERENCE, window=window, shift=shift,
                            count=64)
    got = np.array([q.lam for q in pairs])
    assert want.size and got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
    assert all(q.u.shape == (form.space(m).ndof,) for q in pairs)


def test_vector_and_scalar_spectra_agree(mesh_seq, rows):
    # the two formulations discretize the same eigenvalue from opposite sides
    m = mesh_seq[2]
    lv, ls = ([q.lam for q in sol.solve_eigen(m, rows[form][2], REFERENCE,
                                              window=(1.2, 4 / 3), shift=1.27, count=4)]
              for form in (fem.EDGE, fem.SCALAR))
    assert lv and ls
    assert abs(max(lv) - max(ls)) <= 1e-2 * max(lv)


def test_count_window_matches_dense(mesh_seq, blocks_seq):
    from scipy.linalg import eigh
    m, bl = mesh_seq[0], blocks_seq[0]
    p = sol.build_pencil(m, bl, REFERENCE)
    a, b = SPECTRUM_WINDOW
    vals = eigh(p.S.toarray(), p.T.toarray(), eigvals_only=True)
    dense = vals[(vals >= a) & (vals <= b)]
    got = sol.count_eigen_window(p, SPECTRUM_WINDOW)
    assert len(got) == len(dense)
    assert np.allclose(got, dense, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("form, window, shift", [
    (fem.EDGE, (1.2, 4 / 3), 1.27),
    (fem.SCALAR, (2.1, 3.0), 2.5),    # above the scalar pole: D(sigma) < 0
], ids=["edge", "scalar"])
def test_inertia_and_solves_factor_only_the_schur_complement(
        mesh_seq, rows, monkeypatch, form, window, shift):
    # nu_-(S - sigma*T) = nu_-(A(sigma)) + n_aux [sigma > pole], with the edge
    # pole at 4 and the scalar pole at 2.  Single shifts on both sides of each
    # pole are needed: a window with both edges above the pole cancels n_aux.
    from scipy.linalg import eigh
    m, bl = mesh_seq[0], rows[form][0]
    p = sol.build_pencil(m, bl, REFERENCE)
    vals = eigh(p.S.toarray(), p.T.toarray(), eigvals_only=True)
    for sigma in (1.5, 2.5, 3.9, 4.2):
        assert sol._negative_count(p, sigma) == np.count_nonzero(vals < sigma)

    # no path factors S - sigma*T: every factor is A(sigma) or a Gram
    rows = []
    real_factorize = sol._factorize

    def factorize(A, what):
        rows.append(A.shape[0])
        return real_factorize(A, what)

    monkeypatch.setattr(sol, "_factorize", factorize)
    assert sol.count_eigen_window(p, window).size
    assert sol.solve_eigen(m, bl, REFERENCE, window=window, shift=shift)
    assert rows and max(rows) <= p.n_primary


@pytest.fixture(scope="module")
def small_patch_seq():
    seq = [build_r_conform_coarse(make_reference_domain(patch_radius=0.05), 0.2)]
    seq.append(refine_red(seq[0]))
    return seq


@pytest.mark.parametrize("form", [fem.EDGE, fem.SCALAR], ids=["edge", "scalar"])
def test_count_window_certified_at_small_patch_radius(small_patch_seq, form):
    # at patch radius 0.05 a factor of S - (100/51) T fails the 1e-10 inertia
    # probe (1.2e-10 at L0, 1.9e-10 at L1); the factor of A(100/51) passes
    got = [len(sol.count_eigen_window(
        sol.build_pencil(m, fem.assemble_blocks(m, form), REFERENCE),
        SPECTRUM_WINDOW)) for m in small_patch_seq]
    assert got == [20, 41]


MU_WINDOW = (8 / 3, 200 / 51)


@pytest.mark.parametrize("form, window, counts", [
    (fem.EDGE, SPECTRUM_WINDOW, [15, 30, 60]),
    (fem.SCALAR, SPECTRUM_WINDOW, [14, 29, 59]),
    (fem.EDGE, MU_WINDOW, [1, 1, 1]),
    (fem.SCALAR, MU_WINDOW, [1, 1, 1]),
    (fem.EDGE, (2.1, 3.0), [2, 2, 2]),
    (fem.SCALAR, (2.1, 3.0), [2, 2, 2]),
], ids=["edge-eps", "scalar-eps", "edge-mu", "scalar-mu", "edge-gap", "scalar-gap"])
def test_count_window_exact_under_refinement(mesh_seq, rows, form, window,
                                             counts):
    # the discrete eigenvalues accumulate in the permittivity-critical window,
    # where each red refinement doubles their number; the permeability-critical
    # window and the admissible gap hold the same few at every level
    got = [len(sol.count_eigen_window(sol.build_pencil(m, bl, REFERENCE), window))
           for m, bl in zip(mesh_seq, rows[form])]
    assert got == counts


def test_count_window_empty(mesh_seq, blocks_seq):
    # S is positive semidefinite, so no eigenvalue lies below zero
    p = sol.build_pencil(mesh_seq[0], blocks_seq[0], REFERENCE)
    assert sol.count_eigen_window(p, (-2.0, -1.0)).shape == (0,)


def test_count_window_mu_critical_single_value(mesh_seq, blocks_seq):
    # the permeability-critical window holds one eigenvalue; Lanczos asks for
    # exactly that one, not for extras from the clusters beside the window
    windows = mats.critical_lambda_windows(REFERENCE, 5)
    assert np.allclose(windows.window_mu, MU_WINDOW, rtol=1e-15, atol=0)
    p = sol.build_pencil(mesh_seq[0], blocks_seq[0], REFERENCE)
    got = sol.count_eigen_window(p, windows.window_mu)
    assert got.shape == (1,)
    assert abs(got[0] - 2.93178) <= 1e-5


def test_count_window_rejects_off_diagonal_pivots(mesh_seq, blocks_seq,
                                                  monkeypatch):
    # with perm_r != perm_c, diag(U) is not the D of LDL^T and its signs say
    # nothing about the inertia
    real_splu = sol.spla.splu

    class Pivoted:
        def __init__(self, lu):
            self._lu = lu
            self.perm_r = np.roll(lu.perm_r, 1)

        def __getattr__(self, name):
            return getattr(self._lu, name)

    monkeypatch.setattr(sol.spla, "splu",
                        lambda *args, **kwargs: Pivoted(real_splu(*args, **kwargs)))
    p = sol.build_pencil(mesh_seq[0], blocks_seq[0], REFERENCE)
    with pytest.raises(sol.SolverError, match="pivoted off the diagonal"):
        sol.count_eigen_window(p, SPECTRUM_WINDOW)


def test_shift_invert_failure_names_sigma(mesh_seq, blocks_seq, monkeypatch):
    # a shift on an eigenvalue makes S - sigma*T singular: the solve must
    # fail naming the shift it was given, not move it and retry.  The first
    # factor is the inertia factor at the window's upper edge.
    p = sol.build_pencil(mesh_seq[0], blocks_seq[0], REFERENCE)

    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    calls = []
    real_eigsh = sol.spla.eigsh

    def eigsh(*args, **kwargs):
        calls.append(kwargs)
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(sol.spla, "splu", singular)
    monkeypatch.setattr(sol.spla, "eigsh", eigsh)
    with pytest.raises(sol.SolverError,
                       match=r"sigma=1\.3333333333333333: Factor is exactly singular"):
        sol.count_eigen_window(p, (1.2, 4 / 3))
    assert calls == []


@pytest.mark.parametrize("level, window, shift, count", [
    (0, (1.2, 4 / 3), 1.27, 8),       # 2 in the window: solve at the midpoint
    (1, SPECTRUM_WINDOW, 1.6, 24),    # 30 in the window: solve at the shift
], ids=["L0-midpoint", "L1-shift"])
def test_certificate_catches_skipped_eigenvalue(mesh_seq, blocks_seq, monkeypatch,
                                                level, window, shift, count):
    # a Lanczos run that skips the eigenvalue nearest its shift: ARPACK is
    # asked for one value more and that one is dropped, so the right number
    # comes back with a hole in it; only the inertia certificate sees it
    real_eigsh = sol.spla.eigsh

    def skipping(A, k, sigma, return_eigenvectors, **kwargs):
        out = real_eigsh(A, k=k + 1, sigma=sigma,
                         return_eigenvectors=return_eigenvectors, **kwargs)
        vals = out[0] if return_eigenvectors else out
        keep = np.arange(vals.size) != np.argmin(np.abs(vals - sigma))
        return (vals[keep], out[1][:, keep]) if return_eigenvectors else vals[keep]

    m, bl = mesh_seq[level], blocks_seq[level]
    monkeypatch.setattr(sol.spla, "eigsh", skipping)
    with pytest.raises(sol.SolverError, match="inertia counts"):
        sol.solve_eigen(m, bl, REFERENCE, window=window, shift=shift,
                        count=count)


def test_edge_window_around_zero_fails_at_once(mesh_seq, blocks_seq):
    # lam = 0 carries the plus-region gradient kernel of the edge pencil (315
    # eigenvalues at L0), where shift-invert Lanczos stalls for thousands of
    # iterations; such a window must raise before any factor or solve
    m, bl = mesh_seq[0], blocks_seq[0]
    p = sol.build_pencil(m, bl, REFERENCE)
    t0 = time.perf_counter()
    with pytest.raises(sol.SolverError, match="plus-region gradient kernel"):
        sol.solve_eigen(m, bl, REFERENCE, window=(-0.1, 0.3), shift=0.1)
    with pytest.raises(sol.SolverError, match="plus-region gradient kernel"):
        sol.count_eigen_window(p, (-0.1, 0.3))
    assert time.perf_counter() - t0 < 1.0


def test_eigen_residual_failure_raises(mesh_seq, blocks_seq, monkeypatch):
    # a residual that cannot be evaluated must raise naming the pair, not
    # turn into inf and reach the studies' gate as if it were inaccurate
    def evaluator(*args, **kwargs):
        def evaluate(lam, u):
            raise sol.SolverError("evaluator broke")
        return evaluate

    m, bl = mesh_seq[0], blocks_seq[0]
    monkeypatch.setattr(sol, "residual_evaluator", evaluator)
    with pytest.raises(sol.SolverError, match=r"lam=1\.2.*evaluator broke"):
        sol.solve_eigen(m, bl, REFERENCE, window=(1.2, 4 / 3), shift=1.27)


@pytest.mark.parametrize("form", [fem.EDGE, fem.SCALAR], ids=["edge", "scalar"])
def test_solve_eigen_gates_every_pair(mesh_seq, rows, monkeypatch, form):
    # solve_eigen owns the RESIDUAL_FILTER gate: a pair at the gate is
    # returned, and one pair above it makes the whole solve raise, naming
    # the row, lam, the residual, the gate and the free-dof count
    m, bl = mesh_seq[1], rows[form][1]
    bad = []

    def evaluator(*args):
        def evaluate(lam, u):
            return 2e-8 if lam in bad else sol.RESIDUAL_FILTER
        return evaluate

    monkeypatch.setattr(sol, "residual_evaluator", evaluator)
    kwargs = dict(window=(1.2, 4 / 3), shift=1.27, count=4)
    pairs = sol.solve_eigen(m, bl, REFERENCE, **kwargs)
    assert pairs and all(q.residual == sol.RESIDUAL_FILTER for q in pairs)
    bad.append(pairs[-1].lam)
    dofs = len(form.space(m).free)
    with pytest.raises(sol.SolverError) as exc:
        sol.solve_eigen(m, bl, REFERENCE, **kwargs)
    assert str(exc.value) == (
        f"{form.kind} eigenpair at lam={pairs[-1].lam} has rational residual "
        f"2.000e-08 > 1e-08 ({dofs} free dofs)")


def test_rational_residual_contract(mesh_seq, blocks_seq):
    m, bl = mesh_seq[1], blocks_seq[1]
    pairs = sol.solve_eigen(m, bl, REFERENCE, window=(1.2, 4 / 3),
                            shift=1.27)
    q = max(pairs, key=lambda r: r.lam)
    evaluate = sol.residual_evaluator(m, bl, REFERENCE)
    assert evaluate(q.lam, q.u) <= 1e-8

    rng = np.random.default_rng(3)
    space = fem.EDGE.space(m)
    u = space.expand_vec(rng.standard_normal(len(space.free)))
    assert evaluate(1.1, u) >= 1e-3

    with pytest.raises(sol.SolverError, match="pole"):
        evaluate(0.0, u)
    with pytest.raises(sol.SolverError, match="pole"):
        evaluate(4.0, u)
    with pytest.raises(sol.SolverError, match="u = 0"):
        evaluate(1.1, np.zeros(m.num_edges))


def test_scalar_residual_contract(mesh_seq, scalar_seq):
    # the scalar row of the shared evaluator: H1 Gram, scalar operator, and
    # the pole at omega_eps^2; each scalar pair of solve_eigen carries exactly
    # that residual of its own vector, and no edge classification
    m, bl = mesh_seq[1], scalar_seq[1]
    pairs = sol.solve_eigen(m, bl, REFERENCE, window=(1.2, 4 / 3),
                            shift=1.27, count=4)
    assert pairs
    evaluate = sol.residual_evaluator(m, bl, REFERENCE)
    for q in pairs:
        assert q.u.shape == (m.num_vertices,)
        assert q.residual == evaluate(q.lam, q.u)
        assert q.classification is None and q.curl_fraction is None
    q = max(pairs, key=lambda r: r.lam)
    assert evaluate(q.lam, q.u) <= 1e-8

    v = np.random.default_rng(4).standard_normal(m.num_vertices)
    assert evaluate(1.1, v) >= 1e-3

    with pytest.raises(sol.SolverError, match="pole"):
        evaluate(float(REFERENCE.omega_eps_sq), v)


def test_infsup_coercive_value_is_unit(mesh_seq, blocks_seq):
    # at lam = -1 both coefficients exceed one, so A(-1) >= G with equality on
    # plus-supported fields: the smallest singular value is exactly 1,
    # independent of the level
    for lvl in (0, 1):
        beta = sol.discrete_infsup(mesh_seq[lvl], blocks_seq[lvl],
                                   CONTRAST_TEN, -1.0)
        assert abs(beta - 1.0) <= 1e-13


def test_infsup_critical_contrast_decays(mesh_seq, blocks_seq):
    # kappa_eps(20/11) = -1: the worst contrast, where no uniform inf-sup
    # constant exists.  beta_n is set by the discrete eigenvalue nearest lam,
    # and those accumulate here, so beta_n collapses with refinement but not
    # monotonically (one level can move the nearest eigenvalue away).  Each
    # level is therefore measured against the coarsest mesh, and the
    # admissible 2.2 on the same meshes shows that the collapse is the
    # contrast's, not the estimator's.
    def betas(lam):
        return [sol.discrete_infsup(m, bl, CONTRAST_TEN, lam)
                for m, bl in zip(mesh_seq, blocks_seq)]

    crit, ctrl = betas(20 / 11), betas(2.2)
    assert min(crit) > 0
    for lvl in (1, 2):
        assert crit[lvl] <= crit[0] * 1.5 ** -lvl
        assert ctrl[lvl] >= ctrl[0] / 1.5
    assert crit[2] <= 1e-2 * ctrl[2]


def test_infsup_matches_generalized_eigenproblem(mesh_seq, rows):
    # for symmetric A(lam) and SPD G, beta_n is the smallest |mu| of
    # A x = mu G x; pin the Lanczos estimate to a direct shift-invert solve.
    # The scalar blocks give the scalar row's A(lam) in its H1 Gram.
    lam = 20 / 11
    for form in (fem.EDGE, fem.SCALAR):
        for lvl in (0, 1):
            m, bl = mesh_seq[lvl], rows[form][lvl]
            space = form.space(m)
            A = fem.assemble_A(bl, CONTRAST_TEN, lam, space)
            G = sol.xnorm_gram(bl, space)
            mu = spla.eigsh(A.tocsc(), k=2, M=G.tocsc(), sigma=0,
                            return_eigenvectors=False)
            ref = float(np.abs(mu).min())
            beta = sol.discrete_infsup(m, bl, CONTRAST_TEN, lam)
            assert abs(beta - ref) <= 1e-6 * ref


@pytest.mark.parametrize("mat", [CONTRAST_TEN, REFERENCE], ids=["5.1", "5.2"])
@pytest.mark.parametrize("form", [fem.EDGE, fem.SCALAR], ids=["edge", "scalar"])
def test_infsup_inertia_bracket(mesh_seq, rows, mat, form):
    # G is SPD, so the mu of A(lam) x = mu G x in (-b, b) number
    # nu_-(A - bG) - nu_-(A + bG), read from the inf-sup pencil by the
    # window solver's own count: none below beta_n, at least one above it.
    # At delta = 0.01 the probe refuses A(-b) at section 5.1 L0 edge
    # (backward error 1.6e-10 > 1e-10), the probe's known defect, so the
    # bracket is tested at delta = 0.05.
    for lvl in (0, 1):
        m, bl = mesh_seq[lvl], rows[form][lvl]
        beta = sol.discrete_infsup(m, bl, mat, 1.0)
        pencil = sol._infsup_pencil(m, bl, mat, 1.0)
        inside = [sol._negative_count(pencil, b) - sol._negative_count(pencil, -b)
                  for b in (0.95 * beta, 1.05 * beta)]
        assert inside[0] == 0 and inside[1] >= 1, (lvl, inside)


def test_infsup_rejects_partial_arpack_result(mesh_seq, blocks_seq,
                                              monkeypatch):
    # an unconverged Ritz value overstates beta_n: it must not be reported
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([4.0]),
                                  np.zeros((mesh_seq[0].num_edges, 1)))

    monkeypatch.setattr(sol.spla, "eigsh", no_convergence)
    with pytest.raises(sol.SolverError, match="did not converge"):
        sol.discrete_infsup(mesh_seq[0], blocks_seq[0], CONTRAST_TEN, 2.2)


def test_infsup_rejects_failed_factorization(mesh_seq, blocks_seq, monkeypatch):
    # a failed factorization of A(lam) is an error, not beta_n = 0
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(sol.spla, "splu", singular)
    with pytest.raises(sol.SolverError, match="lam=2.2: Factor is exactly singular"):
        sol.discrete_infsup(mesh_seq[0], blocks_seq[0], CONTRAST_TEN, 2.2)


def test_infsup_rejects_nonpositive_eigenvalue(mesh_seq, blocks_seq, monkeypatch):
    # a zero vector has the Rayleigh quotient 0/0: no beta_n to report
    monkeypatch.setattr(sol.spla, "eigsh", lambda A, *args, **kwargs:
                        (np.array([0.0]), np.zeros((A.shape[0], 1))))
    with pytest.raises(sol.SolverError, match="lam=2.2 .*not finite and positive"):
        sol.discrete_infsup(mesh_seq[0], blocks_seq[0], CONTRAST_TEN, 2.2)


def _refined_infsup(m, bl, mat, lam):
    """Reference beta_n: the longdouble Rayleigh quotient |x^T A x| / x^T G x,
    smallest over the 3 eigenvectors of A x = mu G x nearest 0, from a
    shift-invert solve to full ARPACK precision whose every A-solve takes three
    refinement steps with a longdouble residual."""
    space = bl.form.space(m)
    A = fem.assemble_A(bl, mat, lam, space)
    G = sol.xnorm_gram(bl, space)
    lu = sol._factorize(A, "reference A(lam)")
    Ax, Gx = A.astype(np.longdouble), G.astype(np.longdouble)

    def solve(b):
        bx = b.astype(np.longdouble)
        x = lu.solve(b).astype(np.longdouble)
        for _ in range(3):
            x = x + lu.solve(np.asarray(bx - Ax @ x, dtype=np.float64))
        return np.asarray(x, dtype=np.float64)

    n = A.shape[0]
    op = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    _, vecs = spla.eigsh(A, k=3, M=G, sigma=0.0, OPinv=op, v0=v0, tol=0)
    xs = vecs.T.astype(np.longdouble)
    return min(float(abs(x @ (Ax @ x)) / (x @ (Gx @ x))) for x in xs)


@pytest.mark.parametrize("lam, levels, tol", [
    (1.0, (0, 1), 1e-13), (2.2, (0, 1), 1e-13),
    (20 / 11, (1,), 1e-9),     # critical: A(lam) is nearly singular
])
def test_infsup_is_the_rayleigh_quotient(mesh_seq, blocks_seq, lam, levels, tol):
    for lvl in levels:
        m, bl = mesh_seq[lvl], blocks_seq[lvl]
        ref = _refined_infsup(m, bl, CONTRAST_TEN, lam)
        beta = sol.discrete_infsup(m, bl, CONTRAST_TEN, lam)
        assert abs(beta - ref) <= tol * ref


def test_infsup_factors_once(mesh_seq, blocks_seq, monkeypatch):
    # one factor of A(lam); the Gram is only multiplied, never factored
    splu_calls, eigsh_kwargs = [], []
    real_splu, real_eigsh = spla.splu, spla.eigsh

    def splu(*args, **kwargs):
        splu_calls.append(args)
        return real_splu(*args, **kwargs)

    def eigsh(*args, **kwargs):
        eigsh_kwargs.append(kwargs)
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(sol.spla, "splu", splu)
    monkeypatch.setattr(sol.spla, "eigsh", eigsh)
    assert sol.discrete_infsup(mesh_seq[0], blocks_seq[0], CONTRAST_TEN, 2.2) > 0
    assert len(splu_calls) == 1
    assert eigsh_kwargs and all("Minv" not in kw for kw in eigsh_kwargs)


def _trace_factorizations(monkeypatch, has_trim):
    """Record each malloc_trim(pad) as ("trim", pad) and each splu call as
    "splu", in call order; has_trim=False stands for a C library without
    malloc_trim."""
    events = []
    real_splu = spla.splu

    def splu(*args, **kwargs):
        events.append("splu")
        return real_splu(*args, **kwargs)

    def trim(pad):
        events.append(("trim", pad))

    monkeypatch.setattr(sol, "_malloc_trim", lambda: trim if has_trim else None)
    monkeypatch.setattr(sol.spla, "splu", splu)
    return events


def test_every_factorization_trims_first(mesh_seq, blocks_seq, monkeypatch):
    # each _factorize call hands freed arena memory back right before its
    # splu, a failing one too
    events = _trace_factorizations(monkeypatch, has_trim=True)
    m, bl = mesh_seq[0], blocks_seq[0]
    A = fem.assemble_A(bl, CONTRAST_TEN, 1.0, bl.form.space(m))
    sol._factorize(A, "A(1)")
    with pytest.raises(sol.SolverError, match="factorization failed"):
        sol._factorize(sp.csr_matrix(A.shape), "zero")
    assert events == [("trim", 0), "splu"] * 2


def test_every_factorization_uses_the_one_policy(mesh_seq, rows, monkeypatch):
    # source solves, inertia counts, shift-invert, the residual Gram and the
    # inf-sup factor all reach splu with the same options (module docstring)
    calls = []
    real_splu = spla.splu

    def splu(A, **kwargs):
        calls.append(kwargs)
        return real_splu(A, **kwargs)

    monkeypatch.setattr(sol.spla, "splu", splu)
    m = mesh_seq[0]
    for form in (fem.EDGE, fem.SCALAR):
        bl = rows[form][0]
        sol.solve_source(m, bl, REFERENCE, 0.7, (1.0, 1.0))
        sol.solve_eigen(m, bl, REFERENCE, window=SPECTRUM_WINDOW, shift=1.6)
        sol.residual_evaluator(m, bl, REFERENCE)(1.1, np.ones(bl.form.space(m).ndof))
    sol.discrete_infsup(m, rows[fem.EDGE][0], CONTRAST_TEN, 2.2)
    assert len(calls) >= 7
    for kwargs in calls:
        assert kwargs == dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                              panel_size=1, options=dict(SymmetricMode=True))


def test_every_lanczos_solve_uses_the_one_routine(mesh_seq, rows, monkeypatch):
    # the eigen windows and the inf-sup pencil all reach eigsh through
    # _shift_invert: a shift, the pencil's T as M (only multiplied), the
    # factor as OPinv, the start vector 1/sqrt(n), and ARPACK's tol 0 for
    # the windows and 1e-10 for beta_n
    calls = []
    real_eigsh = spla.eigsh

    def eigsh(A, **kwargs):
        calls.append((A.shape[0], kwargs))
        return real_eigsh(A, **kwargs)

    monkeypatch.setattr(sol.spla, "eigsh", eigsh)
    m = mesh_seq[0]
    for form in (fem.EDGE, fem.SCALAR):
        bl = rows[form][0]
        sol.solve_eigen(m, bl, REFERENCE, window=SPECTRUM_WINDOW, shift=1.6)
        sol.discrete_infsup(m, bl, CONTRAST_TEN, 2.2)
    pencil = sol.build_pencil(m, rows[fem.EDGE][0], REFERENCE)
    sol.count_eigen_window(pencil, SPECTRUM_WINDOW)
    assert sorted(kw["tol"] for _, kw in calls) == [0.0] * 3 + [1e-10] * 2
    for n, kw in calls:
        assert set(kw) == {"k", "M", "sigma", "OPinv", "v0", "tol",
                           "return_eigenvectors"}
        assert kw["sigma"] == 0.0 if kw["tol"] else np.isfinite(kw["sigma"])
        assert kw["M"].shape == (n, n)
        assert isinstance(kw["OPinv"], spla.LinearOperator)
        assert np.array_equal(kw["v0"], np.ones(n) / np.sqrt(n))


def test_factorization_without_malloc_trim(mesh_seq, blocks_seq, monkeypatch):
    # under a C library without malloc_trim the factorization runs untrimmed
    events = _trace_factorizations(monkeypatch, has_trim=False)
    m, bl = mesh_seq[0], blocks_seq[0]
    assert sol.solve_source(m, bl, CONTRAST_TEN, 1.0, (1.0, 1.0)).residual <= 1e-10
    assert events == ["splu"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_malloc_trim_found_under_glibc():
    assert sol._malloc_trim()(0) in (0, 1)


def test_float64_matrix_times_longdouble_vector_sums_in_longdouble(mesh_seq, blocks_seq):
    # the refinement multiplies the float64 A, pre-ordered CSC included, by
    # its longdouble iterate, and the inf-sup readout the Gram by a vector
    # in longdouble (fem.block_norm_sq): each product is the one of a
    # longdouble copy of the matrix, bit for bit
    m, bl = mesh_seq[1], blocks_seq[1]
    space = bl.form.space(m)
    x = np.random.default_rng(3).standard_normal(len(space.free)).astype(np.longdouble)
    x *= 1 + np.longdouble(2.0) ** -60
    A = fem.assemble_A(bl, CONTRAST_TEN, 2.2, space)
    Ap, order = sol._preorder(A)
    for B, v in ((A, x), (Ap, x[order]), (sol.xnorm_gram(bl, space), x)):
        assert B.dtype == np.float64
        Bv = B @ v
        assert Bv.dtype == np.longdouble
        assert np.array_equal(Bv, B.astype(np.longdouble) @ v)
