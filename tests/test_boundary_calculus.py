import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky, lu_factor, lu_solve

from hypothesis import given, settings
from hypothesis import strategies as st

import bubblebem.boundary_calculus as boundary_calculus
from bubblebem import layer_ops
from bubblebem.boundary_calculus import (NumericalGuardError,
                                         _contrast_factors,
                                         _factor_transmission, _guarded_lu,
                                         _transmission_flux, check_eps,
                                         expansion_residual,
                                         k2_resonance_frequency,
                                         spectral_data)
from bubblebem.layer_ops import (assemble_double_layer, assemble_layer_pair,
                                 assemble_series_stack, assemble_single_layer)
from bubblebem.mesh import make_ellipsoid, make_icosphere, scale_about
from reference import (affine_transform, contrast_matrix,
                       dirichlet_to_neumann, expansion_coefficients, s0_inner,
                       s0_operator_norm, schur_blocks)


# ----------------------------------------------------------------------------
# inner product and projectors


def test_inner_product_of_ones_is_capacitance(spectral2, sphere2):
    one = np.ones(sphere2.n_panels)
    assert s0_inner(spectral2, one, one) == pytest.approx(
        spectral2.capacitance, rel=1e-13)


def test_inner_product_hermitian(spectral2, sphere2):
    # exact symmetry of S_0 holds only up to quadrature error, which bounds
    # the Hermitian defect of the induced product: its Gram matrix
    # W[i, j] = <S_0^{-1} e_i, e_j>, i.e. W = S_0^{-T} diag(areas)
    basis = np.eye(sphere2.n_panels)
    gram = lu_solve(spectral2.s0_lu, basis).conj().T * sphere2.areas
    assert s0_inner(spectral2, basis[3], basis[200]) == pytest.approx(
        gram[3, 200], rel=1e-12)
    assert (np.linalg.norm(gram - gram.conj().T, 2)
            <= 2e-2 * np.linalg.norm(gram, 2))


def test_inner_product_positive(spectral2, sphere2, rng):
    for _ in range(5):
        phi = rng.normal(size=sphere2.n_panels)
        assert np.real(s0_inner(spectral2, phi, phi)) > 0


def _dense_p0(spectral):
    """P_0 = 1 w^T as an n x n matrix, for comparison only."""
    return np.outer(np.ones(spectral.mesh.n_panels), spectral.p0_row)


def test_projector_identities(spectral2, sphere2):
    p0 = _dense_p0(spectral2)
    q0 = np.eye(sphere2.n_panels) - p0
    ones = np.ones(sphere2.n_panels)
    assert np.abs(p0 @ ones - 1.0).max() < 1e-12
    assert np.abs(q0 @ ones).max() < 1e-12
    assert np.linalg.norm(p0 @ p0 - p0) <= 1e-10
    assert np.linalg.norm(p0 @ q0) <= 1e-10


def test_spectral_data_peak_memory():
    # bound stated before measuring: S_0 is assembled in F order and
    # factored in place, so its 12.5 MiB at n = 1280 and the kernel pass's
    # chunk temporaries are the peak (19.2 MiB in a prototype); S_0 kept
    # beside its LU (37.5 MiB) would exceed the bound
    mesh = make_icosphere(1.0, 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        data = spectral_data(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.capacitance > 0
    assert peak - start <= 22 * 2 ** 20


def test_spectral_data_factors_s0_where_it_was_assembled(sphere2, spectral2):
    # only the LU is kept, and it is lu_factor's of the publicly assembled
    # S_0, bit for bit, and so are q_eq and the capacitance
    s0 = assemble_single_layer(sphere2, 0.0)
    lu = lu_factor(s0)
    assert [a.tobytes() for a in spectral2.s0_lu] == [a.tobytes() for a in lu]
    assert spectral2.s0_lu[0].flags.f_contiguous
    q = lu_solve(lu, np.ones(sphere2.n_panels))
    assert spectral2.q_eq.tobytes() == q.tobytes()
    assert spectral2.capacitance == float(q @ sphere2.areas)
    assert "s0" not in {f.name for f in dataclasses.fields(spectral2)}


def test_gram_cholesky_in_place(sphere2, spectral2, sphere3, spectral3):
    # the in-place solve, symmetrize and factor give the bits of the
    # out-of-place formula; bound stated before measuring: at n = 1280 the
    # one 12.5 MiB array, a block of columns and the finite checks stay
    # under 20 MiB (the out-of-place formula peaks at 37.6 MiB)
    w = lu_solve(spectral2.s0_lu, np.diag(sphere2.areas), trans=1)
    expected = cholesky(0.5 * (w + w.T), lower=True)
    fresh = dataclasses.replace(spectral2, _gram_chol=None)
    assert fresh.gram_cholesky().tobytes() == expected.tobytes()
    fresh = dataclasses.replace(spectral3, _gram_chol=None)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ell = fresh.gram_cholesky()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ell.shape == (sphere3.n_panels,) * 2
    assert peak - start <= 20 * 2 ** 20


# ----------------------------------------------------------------------------
# capacitance and Minnaert frequency


def test_capacitance_unit_sphere(spectral3):
    assert spectral3.capacitance == pytest.approx(4 * np.pi, rel=2e-2)


def test_capacitance_scaling():
    data = spectral_data(make_icosphere(2.0, 2))
    assert data.capacitance == pytest.approx(8 * np.pi, rel=2e-2)


def test_capacitance_positive(ellipsoid2):
    assert spectral_data(ellipsoid2).capacitance > 0


def test_minnaert_unit_sphere(spectral3):
    assert spectral3.minnaert_omega == pytest.approx(np.sqrt(3), rel=1.5e-2)


def test_minnaert_radius_scaling():
    data = spectral_data(make_icosphere(3.0, 2))
    assert data.minnaert_omega == pytest.approx(np.sqrt(3) / 3.0, rel=1.5e-2)


SCALING_MESHES = (make_icosphere(1.0, 1), make_ellipsoid((1.0, 1.3, 1.7), 1))
SCALING_DATA = [spectral_data(mesh) for mesh in SCALING_MESHES]


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.2, 5.0),
       shift=st.lists(st.floats(-10 / np.sqrt(3), 10 / np.sqrt(3)),
                      min_size=3, max_size=3))
def test_minnaert_exact_discrete_scaling(scale, shift):
    # the discrete formulas are exact under x -> s x + t (|t| <= 10): the
    # capacitance scales like s and omega_M like 1/s, independent of t
    for mesh, data in zip(SCALING_MESHES, SCALING_DATA):
        moved = spectral_data(affine_transform(mesh, scale * np.eye(3), shift))
        assert moved.capacitance / scale == pytest.approx(data.capacitance,
                                                          rel=1e-12)
        assert moved.minnaert_omega * scale == pytest.approx(
            data.minnaert_omega, rel=1e-12)


# ----------------------------------------------------------------------------
# Dirichlet-to-Neumann map


def test_dn_kills_constants(sphere2):
    dn = dirichlet_to_neumann(sphere2, 0.0)
    ones = np.ones(sphere2.n_panels)
    assert np.abs(dn @ ones).max() <= 1e-8 * np.linalg.norm(dn, 2)


def test_dn_harmonic_eigenvalues(sphere3):
    dn = dirichlet_to_neumann(sphere3, 0.0)
    r = np.linalg.norm(sphere3.centroids, axis=1)
    samples = {1: sphere3.centroids[:, 2] / r,
               2: sphere3.centroids[:, 0] * sphere3.centroids[:, 1] / r ** 2}
    for degree, y in samples.items():
        w = sphere3.areas * y
        lam = (w @ (dn @ y)) / (w @ y)
        assert lam == pytest.approx(degree, rel=3e-2)


def test_dn_near_symmetry(sphere3):
    # self-adjointness in the surface duality: the area-weighted bilinear
    # form of DN is symmetric up to discretization error
    dn = dirichlet_to_neumann(sphere3, 0.5)
    weighted = sphere3.areas[:, None] * dn
    gap = np.linalg.norm(weighted - weighted.T) / np.linalg.norm(weighted)
    assert gap <= 1e-2


def test_condition_guard_trips():
    nearly_singular = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(NumericalGuardError, match="condition"):
        _guarded_lu(nearly_singular, "test matrix")


@pytest.mark.parametrize("dtype", [float, complex])
def test_guarded_lu_returns_the_norm_and_estimate_it_guarded_on(dtype):
    # the 1-norm is np.linalg.norm(matrix, 1)'s and the estimate is
    # 1/rcond of LAPACK's gecon on the LU, bit for bit, for the F-ordered
    # matrix the guard factors in place; SpectralData keeps S_0's
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(40, 40)).astype(dtype)
    if dtype is complex:
        matrix += 1j * rng.normal(size=(40, 40))
    matrix = np.asfortranarray(matrix)
    norm = np.linalg.norm(matrix, 1)
    lu = lu_factor(matrix)
    gecon = (boundary_calculus.lapack.zgecon if dtype is complex
             else boundary_calculus.lapack.dgecon)
    rcond = gecon(lu[0], norm, norm="1")[0]
    got_lu, got_norm, got_condition = _guarded_lu(matrix, "test matrix")
    assert [a.tobytes() for a in got_lu] == [a.tobytes() for a in lu]
    assert (got_norm, got_condition) == (norm, 1.0 / rcond)


def test_spectral_data_keeps_the_s0_guard_figures(monkeypatch, sphere2):
    # the figures kept are those the guard returned while this SpectralData
    # was built.  A second factorization is no reference: LAPACK's gecon
    # on the same LU, pivots and norm has read a different last digit later
    # in the same process, so a condition estimate is not reproducible
    returned = []

    def recorded(matrix, context):
        returned.append(_guarded_lu(matrix, context))
        return returned[-1]

    monkeypatch.setattr(boundary_calculus, "_guarded_lu", recorded)
    spectral = spectral_data(sphere2)
    [(lu, norm, condition)] = returned
    assert spectral.s0_lu is lu
    assert (spectral.s0_norm, spectral.s0_condition) == (norm, condition)
    assert 1.0 < condition <= boundary_calculus.CONDITION_LIMIT


def test_guarded_lu_rejects_nonfinite_entries():
    # lu_factor's own finite check: a sweep records the ValueError as that
    # row's error
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            _guarded_lu(np.array([[1.0, bad], [0.0, 1.0]]), "test matrix")


def test_transmission_factors_share_one_kernel_pass(monkeypatch):
    # S_w and K_w come from one pass: one e^{iwr} per chunk of each row
    # block, not one per operator, so each row gets exactly one; and the
    # pair is the bits of the separately assembled operators
    mesh = make_icosphere(1.0, 1)
    n, rows, w = mesh.n_panels, 7, 1.6
    monkeypatch.setattr(layer_ops, "_CHUNK_PAIRS", rows * 6 * n)
    nodes, _ = layer_ops.panel_quadrature(mesh)
    distances = np.linalg.norm(
        mesh.centroids[:, None, :] - nodes.reshape(-1, 3)[None], axis=2)
    single = assemble_single_layer(mesh, w).tobytes()
    double = assemble_double_layer(mesh, w).tobytes()
    original = layer_ops._expi
    calls = []

    def counted(z, r, out):
        calls.append(r.copy())
        return original(z, r, out)

    monkeypatch.setattr(layer_ops, "_expi", counted)
    for workers in (1, 2, 3):
        calls.clear()
        monkeypatch.setattr(layer_ops, "_worker_count",
                            lambda chunks, k=workers: k)
        s, k = assemble_layer_pair(mesh, w)
        chunk_rows = max(1, rows // workers)
        blocks = np.array_split(np.arange(n), workers)
        assert len(calls) == sum(-(-len(b) // chunk_rows) for b in blocks)
        seen = np.concatenate([
            np.abs(distances[:, None, :] - r[None]).max(axis=2).argmin(axis=0)
            for r in calls])
        assert np.array_equal(np.bincount(seen, minlength=n), np.ones(n, int))
        assert s.tobytes() == single and k.tobytes() == double


def test_exact_contrast_product_peak_memory():
    # bound stated before measuring: at z != w and n = 1280 the product
    # M S_w = S_w + kappa (1/2 + K_w) S_z holds four n x n arrays (S_w,
    # 1/2 + K_w, S_z and the F-ordered product, 25 MiB each) and is then
    # factored in place, so S_w and the LU (50 MiB) are kept; a fifth
    # n x n array held beside the four, or kept after, exceeds the bound
    mesh = make_icosphere(1.0, 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        factors = _factor_transmission(mesh, 0.065, 0.035, 399.0)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factors.s is not None
    assert peak - start <= 101 * 2 ** 20
    assert kept - start <= 51 * 2 ** 20


def test_stacked_contrast_product_peak_memory():
    # bound stated before measuring: at z != w and n = 320 (1.56 MiB per
    # complex n x n array) the stacked product holds three arrays at once,
    # 4.7 MiB: 1/2 + K_w, S_z and M S_w, or beside 1/2 + K_w a matrix
    # product's real planes and complex result, and S_w is summed only
    # once 1/2 + K_w and S_z are released.  A fourth array held beside
    # them (6.25 MiB) exceeds the bound; S_w and the LU (3.1 MiB) are kept
    mesh = make_icosphere(1.0, 2)
    stack = assemble_series_stack(mesh, 10)
    w, z = 0.04 * 1.9, 0.04 * 0.7
    assert stack.reaches(w) and stack.reaches(z)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        factors = _factor_transmission(mesh, w, z, 0.04 ** -2 - 1.0, stack)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert factors.s is not None
    assert peak - start <= 5.5 * 2 ** 20
    assert kept - start <= 3.5 * 2 ** 20


# ----------------------------------------------------------------------------
# one frequency by Krylov


def krylov_and_lu_fluxes(mesh, spectral, eps, omega, route):
    """The flux of ``_transmission_flux`` and S_w^{-1} M^{-1} (1/2 + K_w)
    trace from the LUs of the public assemblers' S_w and M on the same
    problem: the reference mesh at eps * omega (dilated) or the mesh
    dilated by eps about the origin at omega (direct)."""
    kappa = eps ** -2 - 1.0
    scaled = mesh if route == "dilated" else scale_about(mesh, eps,
                                                         np.zeros(3))
    w = eps * omega if route == "dilated" else omega
    trace = np.exp(1j * w * (scaled.centroids @ np.array([0.3, -0.5, 0.8])))
    flux, why = _transmission_flux(scaled, w, kappa, trace, spectral,
                                   1.0 if route == "dilated" else eps)
    n = scaled.n_panels
    half_k = assemble_double_layer(scaled, w)
    half_k.flat[::n + 1] += 0.5
    rhs = half_k @ trace
    m = kappa * half_k
    m.flat[::n + 1] += 1.0
    return flux, why, lu_solve(lu_factor(assemble_single_layer(scaled, w)),
                               lu_solve(lu_factor(m), rhs))


@pytest.mark.parametrize("mesh_name", ["sphere1", "sphere2", "ellipsoid2"])
@pytest.mark.parametrize("route", ["dilated", "direct"])
@pytest.mark.parametrize("eps, bound", [(0.05, 1e-11), (0.01, 1e-9)])
def test_krylov_flux_matches_the_lu_flux(mesh_name, route, eps, bound,
                                         request):
    # results contract, stated before measuring: GMRES is accepted and its
    # flux is within 1e-11 (eps = 0.05) and 1e-9 (eps = 0.01), relative,
    # of the flux the LUs of S_w and M give, on either route
    mesh = (make_icosphere(1.0, 1) if mesh_name == "sphere1"
            else request.getfixturevalue(mesh_name))
    spectral = spectral_data(mesh)
    for omega in (1.3, 1.6):
        flux, why, exact = krylov_and_lu_fluxes(mesh, spectral, eps, omega,
                                                route)
        assert why is None
        assert (np.linalg.norm(flux - exact) / np.linalg.norm(exact)
                <= bound), omega


def test_krylov_flux_takes_no_lu(monkeypatch):
    # with S_0's LU given, a solve at z == w factors nothing and passes
    # every operator through one kernel pass
    mesh = make_icosphere(1.0, 1)
    spectral = spectral_data(mesh)
    factored, passes = [], []
    monkeypatch.setattr(boundary_calculus, "lu_factor",
                        lambda *args, **kwargs: factored.append(args))
    original = boundary_calculus.assemble_layer_pair
    monkeypatch.setattr(boundary_calculus, "assemble_layer_pair",
                        lambda mesh, z: passes.append(z) or original(mesh, z))
    _, why = _transmission_flux(mesh, 0.08, 399.0,
                                np.ones(mesh.n_panels, dtype=complex),
                                spectral)
    assert why is None and factored == [] and passes == [0.08]


@pytest.mark.parametrize("route", ["dilated", "direct"])
def test_a_refused_krylov_solve_is_the_lu_flux(route, monkeypatch):
    # one step is too few for M: the flux is that of the LUs of the public
    # assemblers' S_w and M, bit for bit, and the reason is returned; the
    # LUs are taken of the S_w and M the solve holds, so it runs one
    # kernel pass
    mesh = make_icosphere(1.0, 1)
    spectral = spectral_data(mesh)
    monkeypatch.setattr(boundary_calculus, "_SINGLE_STEPS", 1)
    passes = []
    original = boundary_calculus.assemble_layer_pair
    monkeypatch.setattr(boundary_calculus, "assemble_layer_pair",
                        lambda mesh, z: passes.append(z) or original(mesh, z))
    flux, why, exact = krylov_and_lu_fluxes(mesh, spectral, 0.05, 1.6, route)
    assert why == "M system: backward error above 1e-14 after 1 Krylov steps"
    assert flux.tobytes() == exact.tobytes()
    assert len(passes) == 1


@pytest.mark.parametrize("s_refused", [False, True])
def test_when_both_lanes_trip_the_s_error_is_raised(monkeypatch, s_refused):
    # with the guard at 1 once GMRES refuses, both S_w's and M's guards
    # would trip: whether GMRES refuses the M system or, M accepted, the S
    # system, S_w is factored first, so its error is raised and M's guard
    # is not reached, and no thread starts although two workers are allowed
    mesh = make_icosphere(1.0, 1)
    spectral = spectral_data(mesh)
    monkeypatch.setattr(layer_ops, "_worker_count",
                        lambda chunks: min(chunks, 2))
    original_gmres, original_lu, original_start = (
        boundary_calculus._lockstep_gmres, boundary_calculus._guarded_lu,
        threading.Thread.start)
    systems, contexts, started = [], [], []

    def gmres(*args):
        # the M system is solved first, then the S system; only the one
        # chosen is refused
        systems.append(len(systems))
        x, _ = original_gmres(*args)
        if len(systems) < (2 if s_refused else 1):
            return x, [None]
        monkeypatch.setattr(boundary_calculus, "CONDITION_LIMIT", 1.0)
        return x, ["refused"]

    def recorder(matrix, context, **kwargs):
        contexts.append(context)
        return original_lu(matrix, context, **kwargs)

    def start(thread):
        started.append(thread.name)
        return original_start(thread)

    monkeypatch.setattr(boundary_calculus, "_lockstep_gmres", gmres)
    monkeypatch.setattr(boundary_calculus, "_guarded_lu", recorder)
    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(NumericalGuardError,
                       match="^single layer S at wavenumber 1.6: "
                             "condition number"):
        _transmission_flux(mesh, 1.6, 0.5,
                           np.ones(mesh.n_panels, dtype=complex), spectral)
    assert len(systems) == (2 if s_refused else 1)
    assert contexts == ["single layer S at wavenumber 1.6"]
    assert started == []


def test_krylov_flux_peak_memory(sphere3, spectral3):
    # bound stated before measuring: the kernel pass returns S_w
    # and 1/2 + K_w (25 MiB each) beside one chunk's temporaries, M is
    # formed in place, and the two Krylov bases hold 31 vectors each; a
    # copy of S_w or a separate M (75 MiB) would exceed the bound
    trace = np.ones(sphere3.n_panels, dtype=complex)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, why = _transmission_flux(sphere3, 0.08, 399.0, trace, spectral3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert why is None
    assert peak - start <= 66 * 2 ** 20


def test_refused_krylov_solve_peak_memory(sphere3, spectral3, monkeypatch):
    # bound stated before measuring, that of the accepted solve: a refused
    # solve factors the S_w and M it holds in place, so it holds the two
    # n x n arrays (25 MiB each) and the kernel pass's temporaries and
    # nothing more; a second pass's pair or a copy of either array beside
    # the two (75 MiB) would exceed the bound
    monkeypatch.setattr(boundary_calculus, "_SINGLE_STEPS", 1)
    trace = np.ones(sphere3.n_panels, dtype=complex)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, why = _transmission_flux(sphere3, 0.08, 399.0, trace, spectral3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert why is not None
    assert peak - start <= 66 * 2 ** 20


def test_factoring_leaves_the_kept_arrays_unchanged():
    # the in-place LU touches only its own F-ordered M S_w: the stack's
    # term blocks and the factors' S_w keep their bits through factoring
    # and solves, at z == w as at z != w, and M S_w is factored as formed
    mesh = make_icosphere(1.0, 1)
    n, kappa = mesh.n_panels, 399.0
    stack = assemble_series_stack(mesh, 12)
    blocks = (stack.single.tobytes(), stack.double.tobytes())
    _factor_transmission(mesh, 0.08, 0.08, kappa, stack)
    assert (stack.single.tobytes(), stack.double.tobytes()) == blocks

    # the order-12 stack reaches z too, so S_z is its product as well
    w, z = 0.08, 0.05
    assert stack.reaches(z)
    s, half_k = stack.single_layer(w), stack.double_layer(w)
    half_k.flat[::n + 1] += 0.5
    ms = half_k @ stack.single_layer(z)
    ms *= kappa
    ms += s
    factors = _factor_transmission(mesh, w, z, kappa, stack)
    rhs = np.linspace(1.0, 2.0, n)
    factors.solve(rhs), factors.m_solve(rhs), factors.m_adjoint_solve(rhs)
    assert factors.s.tobytes() == s.tobytes()
    assert ([a.tobytes() for a in factors.lu]
            == [a.tobytes() for a in lu_factor(ms)])
    assert (stack.single.tobytes(), stack.double.tobytes()) == blocks


@pytest.mark.parametrize("mesh_name", ["sphere", "ellipsoid"])
@pytest.mark.parametrize("eps, omega, z", [(0.04, "resonance", 0.7),
                                           (0.2, 1.0, 1j)])
def test_stacked_factors_at_z_not_w_match_the_exact_ones(mesh_name, eps,
                                                         omega, z):
    # a stack that reaches both eps w and eps z gives S_w, K_w and S_z by
    # matrix products: M S_w matches the exact one to rounding, and solve,
    # M^{-1} and M^{-H} of a fixed vector match the exact factors within
    # 1e-12 relative, or within twice the first-order perturbation bound
    # cond(M S_w) * delta where that is larger: at the sphere's resonance
    # cond(M S_w) = 2.8e3 and delta = 2.3e-15 give 6.3e-12
    mesh = (make_icosphere(1.0, 1) if mesh_name == "sphere"
            else make_ellipsoid((1.0, 1.3, 1.7), 1))
    spectral = spectral_data(mesh)
    if omega == "resonance":
        omega = k2_resonance_frequency(spectral)
    stack = assemble_series_stack(mesh, 15)
    w, kappa = eps * omega, eps ** -2 - 1.0
    assert stack.reaches(w) and stack.reaches(eps * z)

    def m_s_w(s, half_k, s_z):
        half_k.flat[::mesh.n_panels + 1] += 0.5
        ms = half_k @ s_z
        ms *= kappa
        ms += s
        return ms

    rhs = np.exp(1j * np.linspace(0.0, 3.0, mesh.n_panels))
    stacked = _contrast_factors(mesh, eps, omega, z, stack)
    exact = _contrast_factors(mesh, eps, omega, z)
    matrices = (m_s_w(stack.single_layer(w), stack.double_layer(w),
                      stack.single_layer(eps * z)),
                m_s_w(*assemble_layer_pair(mesh, w),
                      assemble_single_layer(mesh, eps * z)))
    for factors, matrix in zip((stacked, exact), matrices):
        assert ([a.tobytes() for a in factors.lu]
                == [a.tobytes() for a in lu_factor(matrix)])
    delta = (np.linalg.norm(matrices[0] - matrices[1], 2)
             / np.linalg.norm(matrices[1], 2))
    assert delta <= 1e-14
    bound = max(1e-12, 2 * np.linalg.cond(matrices[1]) * delta)
    for name in ("solve", "m_solve", "m_adjoint_solve"):
        got = getattr(stacked, name)(rhs)
        expected = getattr(exact, name)(rhs)
        assert (np.linalg.norm(got - expected)
                <= bound * np.linalg.norm(expected)), name


def test_stack_that_misses_z_assembles_s_z_exactly():
    # an order-3 stack reaches w = 1e-4 but not z = 0.5: S_w and K_w are its
    # products and S_z is assembled exactly, bit for bit
    mesh, kappa, w, z = make_icosphere(1.0, 1), 399.0, 1e-4, 0.5
    n = mesh.n_panels
    stack = assemble_series_stack(mesh, 3)
    assert stack.reaches(w) and not stack.reaches(z)
    s, half_k = stack.single_layer(w), stack.double_layer(w)
    half_k.flat[::n + 1] += 0.5
    ms = half_k @ assemble_single_layer(mesh, z)
    ms *= kappa
    ms += s
    factors = _factor_transmission(mesh, w, z, kappa, stack)
    assert factors.s.tobytes() == s.tobytes()
    assert ([a.tobytes() for a in factors.lu]
            == [a.tobytes() for a in lu_factor(ms)])


def _dense_coupling(mesh, w, z):
    """S_w and (1/2 + K_w) S_z S_w^{-1}, with M = I + kappa times the
    latter, by a dense solve."""
    n = mesh.n_panels
    s_w = assemble_single_layer(mesh, w)
    half_k = 0.5 * np.eye(n) + assemble_double_layer(mesh, w)
    coupling = half_k @ np.linalg.solve(s_w.T,
                                        assemble_single_layer(mesh, z).T).T
    return s_w, coupling


@pytest.mark.parametrize("mesh_name", ["sphere", "ellipsoid"])
@pytest.mark.parametrize("w, z, kappa", [(0.065, 0.035, 399.0),
                                         (0.065, 0.05j, 399.0),
                                         (1.3, 0.7, 0.5)])
def test_one_lu_factors_at_z_not_w(mesh_name, w, z, kappa):
    # at z != w the factors hold the LU of M S_w and S_w: solve, M^{-1} and
    # M^{-H} match the dense S_w^{-1} M^{-1}, M^{-1} and M^{-H}, and the
    # reference M, formed from M S_w, matches the dense M
    mesh = (make_icosphere(1.0, 1) if mesh_name == "sphere"
            else make_ellipsoid((1.0, 1.3, 1.7), 1))
    n = mesh.n_panels
    s_w, coupling = _dense_coupling(mesh, w, z)
    m = np.eye(n) + kappa * coupling
    minv = np.linalg.inv(m)
    factors = _factor_transmission(mesh, w, z, kappa)
    ident = np.eye(n, dtype=complex)
    for got, expected in ((factors.solve(ident), np.linalg.solve(s_w, minv)),
                          (factors.m_solve(ident), minv),
                          (factors.m_adjoint_solve(ident), minv.conj().T),
                          (contrast_matrix(mesh, w, z, kappa), m)):
        assert (np.linalg.norm(got - expected)
                <= 1e-12 * np.linalg.norm(expected))


def test_one_lu_guard_trips_on_singular_m():
    # kappa = -1/lambda for an eigenvalue lambda of (1/2 + K_w) S_z S_w^{-1}
    # makes M singular, and with it M S_w (det(M S_w) = det M det S_w)
    mesh, w, z = make_icosphere(1.0, 1), 1.3, 0.7
    lam = np.linalg.eigvals(_dense_coupling(mesh, w, z)[1])
    kappa = -1.0 / lam[np.argmax(np.abs(lam))]
    with pytest.raises(NumericalGuardError, match="contrast matrix M S_w"):
        _factor_transmission(mesh, w, z, kappa)
    # the same factoring at a regular kappa passes the guard
    _factor_transmission(mesh, w, z, 2 * kappa)


# ----------------------------------------------------------------------------
# series-coefficient identities (quadratic and cubic)


@pytest.mark.parametrize("mesh_name", ["sphere2", "ellipsoid2"])
def test_quadratic_coefficient_identity(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    spectral = spectral_data(mesh)
    k2m = spectral.k2_average()
    wm2 = spectral.minnaert_omega ** 2
    for omega in (0.5, 1.0, 2.0):
        lhs = 1.0 + omega ** 2 * k2m
        rhs = 1.0 - omega ** 2 / wm2
        assert abs(lhs - rhs) <= 2e-2 * abs(rhs)


@pytest.mark.parametrize("mesh_name", ["sphere2", "ellipsoid2"])
def test_cubic_coefficient_identity(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    spectral = spectral_data(mesh)
    k3m = spectral.k3_average()
    target = -1j * mesh.volume / (4 * np.pi)
    assert abs(k3m - target) <= 2e-2 * abs(target)


def test_k2_resonance_close_to_minnaert(sphere2, spectral2):
    what = k2_resonance_frequency(spectral2)
    assert what == pytest.approx(spectral2.minnaert_omega, rel=2e-2)


def test_series_averages_share_one_pass(monkeypatch):
    # one kernel pass sums the rows of B_2 and B_3 and builds no series
    # stack; the averages match those of an order-3 stack's terms within
    # 1e-14 (summed in another order) and the S_0^{-1} product within 1e-13
    mesh = make_icosphere(1.0, 1)
    data = spectral_data(mesh)
    orders = []
    original = boundary_calculus._double_term_row_sums

    def counted(mesh, order):
        orders.append(order)
        return original(mesh, order)

    def refuse(*args):
        raise AssertionError("series stack built")

    monkeypatch.setattr(boundary_calculus, "_double_term_row_sums", counted)
    monkeypatch.setattr(boundary_calculus, "assemble_series_stack", refuse)
    k2, k3 = data.k2_average(), data.k3_average()
    assert (data.k2_average(), data.k3_average()) == (k2, k3)
    assert orders == [3]
    one = np.ones(mesh.n_panels)
    double = assemble_series_stack(mesh, 3).double
    for n, mean in ((2, k2), (3, k3)):
        stacked = 1j ** n * data.on_constants(double[n] @ one).real
        assert mean == pytest.approx(stacked, rel=1e-14)
        k_one = 1j ** n * double[n] @ one
        assert mean == pytest.approx(s0_inner(data, one, k_one)
                                     / data.capacitance, rel=1e-13)


def test_series_averages_peak_memory(spectral3):
    # bound stated before measuring: at n = 1280 the pass keeps two row
    # sums and one chunk's temporaries, 13.4 MiB for an exact pass; an
    # order-3 stack holds 50 MiB (110 MiB traced)
    fresh = dataclasses.replace(spectral3, _k_means=None)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fresh.k2_average()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 16 * 2 ** 20


# ----------------------------------------------------------------------------
# block decomposition (the reference's) and the expansions


def test_recomposition(spectral2):
    blocks = schur_blocks(spectral2, 0.05, 1.0, 0.7)
    assert blocks.recomposition_residual() <= 1e-10


@pytest.mark.parametrize("mesh_name", ["sphere2", "ellipsoid2"])
def test_rank_one_blocks_equal_the_dense_products(mesh_name, request):
    # P_i eps^2 M P_j with a dense P_0 built from q_eq (P_1 = I - P_0),
    # and the Schur complement from a dense bordered solve with every
    # column of M_10
    mesh = request.getfixturevalue(mesh_name)
    spectral = spectral_data(mesh)
    blocks = schur_blocks(spectral, 0.04, 1.0, 0.7)
    n = mesh.n_panels
    cap = spectral.q_eq @ mesh.areas
    p0 = np.outer(np.ones(n), spectral.q_eq * mesh.areas / cap)
    m = blocks.full
    mp = m @ p0
    m00, m01 = p0 @ mp, p0 @ (m - mp)
    dense = {"m00": m00, "m01": m01, "m10": mp - m00,
             "m11": m - mp - m01}
    scale = np.abs(m).max()
    for name, expected in dense.items():
        assert np.abs(getattr(blocks, name) - expected).max() \
            <= 8 * np.finfo(float).eps * scale, name
    bordered = np.zeros((n + 1, n + 1), dtype=complex)
    bordered[:n, :n] = dense["m11"]
    bordered[:n, n] = 1.0
    bordered[n, :n] = p0[0]
    y = np.linalg.solve(bordered, np.vstack([dense["m10"],
                                             np.zeros((1, n))]))[:n]
    c00 = dense["m00"] - dense["m01"] @ y
    assert np.abs(blocks.c00 - c00).max() <= 1e-12 * np.abs(c00).max()
    one = np.ones(n)
    assert blocks.c00_on_constants == pytest.approx(
        s0_inner(spectral, one, c00 @ one) / cap, rel=1e-12)


def test_block_structure_smallness(spectral2):
    # off-diagonal blocks are O(eps^2); the diagonal trace block is O(1)
    blocks = schur_blocks(spectral2, 0.02, 1.0, 0.7)
    norm_m = np.linalg.norm(blocks.full, 2)
    assert np.linalg.norm(blocks.m10, 2) <= 1e-2 * norm_m
    assert np.linalg.norm(blocks.m00, 2) <= 1e-2 * norm_m


def test_schur_nonresonant_scaling(spectral2):
    values = {}
    for eps in (0.02, 0.01):
        blocks = schur_blocks(spectral2, eps, 1.0, 1.0)
        values[eps] = blocks.c00_on_constants
    power = np.log(abs(values[0.02] / values[0.01])) / np.log(2.0)
    assert abs(power - 2.0) <= 0.1
    quad = schur_blocks(spectral2, 0.02, 1.0, 1.0).quadratic_coefficient
    assert values[0.01] == pytest.approx(quad * 0.01 ** 2, rel=5e-2)


def test_schur_resonant_scaling(spectral2):
    what = k2_resonance_frequency(spectral2)
    values = {}
    for eps in (0.02, 0.01):
        blocks = schur_blocks(spectral2, eps, what, 0.7)
        values[eps] = blocks.c00_on_constants
    power = np.log(abs(values[0.02] / values[0.01])) / np.log(2.0)
    assert abs(power - 3.0) <= 0.15
    # the resonant cubic coefficient matches -i (c/4 pi) z within the
    # discretization gap of the coefficient identities
    cubic = schur_blocks(spectral2, 0.02, what, 0.7).cubic_coefficient
    formula = -1j * spectral2.capacitance / (4 * np.pi) * 0.7
    assert cubic == pytest.approx(formula, rel=2e-2)


def test_m11_invertible_on_mean_free(spectral2):
    smallest = []
    for eps in (0.08, 0.04, 0.02):
        blocks = schur_blocks(spectral2, eps, 1.0, 0.7)
        sv = np.linalg.svd(blocks.m11, compute_uv=False)
        # one singular value is the deflated null direction; the next must
        # stay bounded away from zero as eps -> 0
        smallest.append(sv[-2])
    assert min(smallest) > 0.05
    assert max(smallest) <= 2.0 * min(smallest)


@pytest.mark.parametrize("mesh_name", ["sphere2", "ellipsoid2"])
def test_schur_full_is_the_contrast_operator(mesh_name, request):
    # eps^2 + (1-eps^2)(1/2 + K_{eps w}) S_{eps z} S_{eps w}^{-1}, rebuilt
    # from the public assemblers with a dense solve
    mesh = request.getfixturevalue(mesh_name)
    spectral = spectral_data(mesh)
    eps, omega, z = 0.04, 1.0, 0.7
    n = mesh.n_panels
    half_k = 0.5 * np.eye(n) + assemble_double_layer(mesh, eps * omega)
    s_w = assemble_single_layer(mesh, eps * omega)
    s_z = assemble_single_layer(mesh, eps * z)
    x = np.linalg.solve(s_w.T, s_z.T).T
    reference = eps ** 2 * np.eye(n) + (1 - eps ** 2) * (half_k @ x)
    full = schur_blocks(spectral, eps, omega, z).full
    assert (np.linalg.norm(full - reference)
            <= 1e-12 * np.linalg.norm(reference))


@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("family", [schur_blocks, expansion_residual])
def test_contrast_family_rejects_eps_outside_unit_interval(family, eps,
                                                           spectral2):
    # the message is the eps rule's own, word for word
    with pytest.raises(ValueError) as rule:
        check_eps(eps)
    with pytest.raises(ValueError, match="eps must lie in") as raised:
        family(spectral2, eps, 1.0, 0.7)
    assert str(raised.value) == str(rule.value)


def _coefficient_gap(reference, formula):
    return abs(reference - formula) / abs(formula)


def test_expansion_residual_offres_ratio(spectral2):
    coarse = expansion_residual(spectral2, 0.04, 1.0, 0.7)
    fine = expansion_residual(spectral2, 0.02, 1.0, 0.7)
    resonant, reference, formula = expansion_coefficients(spectral2, 1.0, 0.7)
    assert not resonant
    ratio = coarse / fine
    assert 1.6 <= ratio <= 2.6
    assert _coefficient_gap(reference, formula) <= 2e-2


def test_expansion_residual_resonant_ratio(spectral2):
    what = k2_resonance_frequency(spectral2)
    coarse = expansion_residual(spectral2, 0.04, what, 0.7)
    fine = expansion_residual(spectral2, 0.02, what, 0.7)
    resonant, reference, formula = expansion_coefficients(spectral2, what, 0.7)
    assert resonant
    ratio = coarse / fine
    assert 1.6 <= ratio <= 2.6
    assert _coefficient_gap(reference, formula) <= 2e-2


@pytest.mark.parametrize("mesh_name, eps, omega",
                         [("sphere2", eps, omega) for omega in ("off", "res")
                          for eps in (0.04, 0.02)]
                         + [("ellipsoid2", 0.04, "res")])
def test_expansion_norm_matches_dense_svd(mesh_name, eps, omega, request):
    # the Golub-Kahan norm against a dense SVD of the same operator
    # L^T (scale M^{-1} - c 1 w^T) L^{-T}, with M^{-1} from the same factors
    mesh = request.getfixturevalue(mesh_name)
    spectral = spectral_data(mesh)
    omega = k2_resonance_frequency(spectral) if omega == "res" else 1.0
    residual = expansion_residual(spectral, eps, omega, 0.7)
    resonant, reference, _ = expansion_coefficients(spectral, omega, 0.7)
    minv = _contrast_factors(mesh, eps, omega, 0.7).m_solve(
        np.eye(mesh.n_panels, dtype=complex))
    scale = eps if resonant else 1.0
    dense = s0_operator_norm(spectral, scale * minv - reference
                             * spectral.p0_row)
    assert residual == pytest.approx(dense, rel=1e-12)


def test_expansion_residual_takes_no_dense_svd_or_inverse(monkeypatch,
                                                          spectral2):
    # no SVD of an n x n matrix and no n-column solve: the norm is reached
    # through single-vector solves (the Gram factor is cached per mesh)
    n = spectral2.mesh.n_panels
    spectral2.gram_cholesky()

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    solves, svds = [], []
    original_solve, original_svd = boundary_calculus.lu_solve, \
        boundary_calculus.svd

    def recorded_solve(lu, rhs, **kwargs):
        solves.append(np.shape(rhs))
        return original_solve(lu, rhs, **kwargs)

    def recorded_svd(a, **kwargs):
        svds.append(np.shape(a))
        return original_svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(boundary_calculus, "lu_solve", recorded_solve)
    monkeypatch.setattr(boundary_calculus, "svd", recorded_svd)
    what = k2_resonance_frequency(spectral2)
    for omega in (1.0, what):
        expansion_residual(spectral2, 0.04, omega, 0.7)
    assert solves and all(shape == (n,) for shape in solves)
    assert svds and max(max(shape) for shape in svds) \
        <= boundary_calculus._GK_MAX_STEPS


def test_operator_norm_raises_when_unconverged(monkeypatch):
    # a step cap below the Krylov dimension the norm needs ends in the
    # guard, never in an unconverged value
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    exact = np.linalg.norm(a, 2)
    norm = boundary_calculus._operator_norm(lambda v: a @ v,
                                            lambda u: a.T @ u, 40, "test")
    assert norm == pytest.approx(exact, rel=1e-12)
    monkeypatch.setattr(boundary_calculus, "_GK_MAX_STEPS", 3)
    with pytest.raises(NumericalGuardError, match="did not converge"):
        boundary_calculus._operator_norm(lambda v: a @ v, lambda u: a.T @ u,
                                         40, "test")


def test_contrast_family_limit_direction(sphere2, spectral2):
    # eps^2 M(eps) approaches the mean-free static block as eps -> 0
    k0 = assemble_double_layer(sphere2, 0.0)
    q0 = np.eye(sphere2.n_panels) - _dense_p0(spectral2)
    target = q0 @ (0.5 * np.eye(sphere2.n_panels) + k0) @ q0
    gaps = []
    for eps in (0.04, 0.02, 0.01):
        m = eps ** 2 * contrast_matrix(sphere2, eps * 1.0, eps * 0.7,
                                       eps ** -2 - 1.0)
        gaps.append(s0_operator_norm(spectral2, m - target))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 1e-2


def test_dn_factorization_small_z_consistency(sphere2, spectral2):
    # S_z DN_z - (Q0 (1/2+K0) Q0 + z^2 K_(2)) shrinks at cubic order in z
    # (a fixed quadrature-level floor sets in below z ~ 0.1)
    k0 = assemble_double_layer(sphere2, 0.0)
    k2 = 1j ** 2 * assemble_series_stack(sphere2, 2).double[2]
    q0 = np.eye(sphere2.n_panels) - _dense_p0(spectral2)
    static = q0 @ (0.5 * np.eye(sphere2.n_panels) + k0) @ q0
    residuals = []
    zs = (0.2, 0.4)
    for z in zs:
        s = assemble_single_layer(sphere2, z)
        lhs = s @ dirichlet_to_neumann(sphere2, z)
        residuals.append(np.linalg.norm(lhs - static - z ** 2 * k2, 2))
    order = np.log(residuals[1] / residuals[0]) / np.log(zs[1] / zs[0])
    assert order >= 2.5
