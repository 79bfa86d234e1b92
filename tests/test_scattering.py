import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import bubblebem.boundary_calculus as boundary_calculus
import bubblebem.layer_ops as layer_ops
import bubblebem.scattering as scattering
from bubblebem.boundary_calculus import (NumericalGuardError,
                                         expansion_residual,
                                         k2_resonance_frequency, spectral_data)
from bubblebem.cli import RunConfig, main, verification_checks
from bubblebem.layer_ops import (assemble_double_layer, assemble_layer_pair,
                                 assemble_series_stack, assemble_single_layer,
                                 eval_single_layer_potential)
from bubblebem.mesh import make_ellipsoid, make_icosphere
from bubblebem.mie import mie_monopole_amplitude, mie_solve
from bubblebem.scattering import (METHODS, FitError, PlaneWave, PointSource,
                                  ScatteringProblem, far_field_points,
                                  frequency_sweep, green_function,
                                  nonresonant_amplitude,
                                  point_perturbation_kernel,
                                  resolvent_correction_kernel, resonance_peak,
                                  resonant_amplitude, scattered_field,
                                  scattered_field_dilated,
                                  scattered_field_direct, uniform_amplitude)
import reference
from reference import (affine_transform, dirichlet_to_neumann,
                       interaction_operator, lorentzian_halfwidth,
                       radiation_defect, stacked_row_amplitude,
                       transmission_residual, with_notes)

OBS = np.array([[3.0, 1.0, 0.5], [0.0, 4.0, 1.0], [-2.0, 0.0, 3.0]])


def make_problem(mesh, eps, omega, direction=(0, 0, 1), **kw):
    kw.setdefault("validity_threshold", np.inf)
    return ScatteringProblem(mesh, eps, omega, PlaneWave(np.asarray(direction)),
                             **kw)


# ----------------------------------------------------------------------------
# interaction operator


@pytest.mark.parametrize("z", [0.0, 1.6, 0.2 + 0.1j])
def test_boundary_operators_are_plain_arrays(z):
    # float64 at z = 0, where both kernels are real, complex otherwise; the
    # interaction operator's contracted frequency eps * omega is never 0
    mesh = make_icosphere(1.0, 1)
    n = mesh.n_panels
    dtype = np.float64 if z == 0 else np.complex128
    for op in (assemble_single_layer(mesh, z), assemble_double_layer(mesh, z),
               *assemble_layer_pair(mesh, z), dirichlet_to_neumann(mesh, z)):
        assert type(op) is np.ndarray
        assert (op.dtype, op.shape) == (dtype, (n, n))
    lam = interaction_operator(make_problem(mesh, 0.05, 1.5), z)
    assert type(lam) is np.ndarray
    assert (lam.dtype, lam.shape) == (np.complex128, (n, n))


def test_interaction_scaling_off_resonance(sphere2, spectral2):
    norms = []
    eps_list = (0.04, 0.02, 0.01)
    for eps in eps_list:
        lam = interaction_operator(make_problem(sphere2, eps, 1.0), 0.7)
        v = lam @ np.ones(sphere2.n_panels)
        norms.append(np.sqrt(np.sum(np.abs(v) ** 2 * sphere2.areas)))
    power = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
    assert abs(power - 1.0) <= 0.15


def test_interaction_scaling_at_resonance(sphere2, spectral2):
    what = k2_resonance_frequency(spectral2)
    norms = []
    eps_list = (0.04, 0.02, 0.01)
    for eps in eps_list:
        lam = interaction_operator(make_problem(sphere2, eps, what), 0.7)
        v = lam @ np.ones(sphere2.n_panels)
        norms.append(np.sqrt(np.sum(np.abs(v) ** 2 * sphere2.areas)))
    power = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
    assert abs(power) <= 0.15


def test_interaction_continuous_in_z(sphere2):
    problem = make_problem(sphere2, 0.05, 1.0)
    zs = np.linspace(0.1, 1.0, 10)
    samples = [interaction_operator(problem, z)[::97, ::101]
               for z in zs]
    steps = [np.abs(samples[i + 1] - samples[i]).max()
             for i in range(len(zs) - 1)]
    scale = np.abs(samples[0]).max()
    assert max(steps) <= 0.2 * scale        # no spikes across the grid


def test_interaction_operator_right_hand_side_is_half_k():
    # the interaction operator's right-hand side is (1/2 + K_{eps w}) I,
    # the bits of 1/2 + K_{eps w}; the operator is its solve
    mesh, eps, omega = make_icosphere(1.0, 1), 0.05, 1.5
    n = mesh.n_panels
    f = boundary_calculus._contrast_factors(mesh, eps, omega, omega,
                                            trace=np.eye(n))
    half_k = assemble_double_layer(mesh, eps * omega)
    half_k.flat[::n + 1] += 0.5
    assert f.rhs.tobytes() == half_k.tobytes()
    lam = interaction_operator(make_problem(mesh, eps, omega), omega)
    assert np.array_equal(lam, eps * (eps ** -2 - 1.0) * f.solve(half_k))


# ----------------------------------------------------------------------------
# solvers


def test_sub3_solve_peak_memory(sphere3):
    # bound stated before measuring: spectral_data keeps S_0's LU
    # (12.5 MiB at n = 1280); the dilated solve's exact pair pass holds
    # S_w and 1/2 + K_w (25 MiB each) and one chunk's temporaries, about
    # 76 MiB in all.  A kept S_0, an F-ordered copy of S_w or a separate M
    # adds 12.5 to 25 MiB (102.2 MiB traced with all three)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        spectral = spectral_data(sphere3)
        problem = make_problem(sphere3, 0.05, 1.6)
        fld = scattered_field_dilated(problem, far_field_points(problem)[0],
                                      spectral)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(fld.scattered))
    assert peak - start <= 80 * 2 ** 20


def test_solver_equivalence(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.3)
    dilated = scattered_field_dilated(problem, OBS, spectral2)
    direct = scattered_field_direct(problem, OBS, spectral2)
    gap = np.abs(dilated.scattered - direct.scattered).max() \
        / np.abs(dilated.scattered).max()
    assert gap <= 1e-6


def test_dilated_matches_oracle(sphere3, spectral3):
    omega = 0.9 * spectral3.minnaert_omega
    problem = make_problem(sphere3, 0.05, omega, y0=np.zeros(3))
    fld = scattered_field_dilated(problem, OBS, spectral3)
    reference = mie_monopole_amplitude(mie_solve(1.0, 0.05, omega, 14))
    assert abs(fld.amplitude) == pytest.approx(abs(reference), rel=5e-2)


def test_direct_matches_oracle(sphere3, spectral3):
    problem = make_problem(sphere3, 0.05, 1.0, y0=np.zeros(3))
    fld = scattered_field_direct(problem, OBS, spectral3)
    reference = mie_monopole_amplitude(mie_solve(1.0, 0.05, 1.0, 14))
    assert abs(fld.amplitude) == pytest.approx(abs(reference), rel=5e-2)


def test_linearity(sphere2, spectral2):
    base = make_problem(sphere2, 0.05, 1.3)
    doubled = ScatteringProblem(sphere2, 0.05, 1.3,
                                PlaneWave(np.array([0, 0, 1.0]), amplitude=2.0),
                                validity_threshold=np.inf)
    f1 = scattered_field_dilated(base, OBS, spectral2)
    f2 = scattered_field_dilated(doubled, OBS, spectral2)
    assert np.abs(f2.scattered - 2.0 * f1.scattered).max() \
        <= 1e-12 * np.abs(f1.scattered).max()


def test_reciprocity_on_the_sphere(sphere2, spectral2):
    forward = make_problem(sphere2, 0.05, 1.5, direction=(0, 0, 1),
                           y0=np.zeros(3))
    backward = make_problem(sphere2, 0.05, 1.5, direction=(0, 0, -1),
                            y0=np.zeros(3))
    f1 = scattered_field_dilated(forward, OBS, spectral2)
    f2 = scattered_field_dilated(backward, -OBS, spectral2)
    assert np.abs(np.abs(f1.scattered) - np.abs(f2.scattered)).max() \
        <= 1e-10 * np.abs(f1.scattered).max()
    assert abs(f1.amplitude) == pytest.approx(abs(f2.amplitude), rel=1e-10)


# The solvers factor S and the contrast matrix M instead of forming DN; the
# reference below is the explicit algebra they replace.


def explicit_core_solve(mesh, w, z, shift, weight, rhs):
    """(shift + weight DN_w S_z)^{-1} DN_w rhs with DN_w formed as a matrix."""
    dn = dirichlet_to_neumann(mesh, w)
    core = shift * np.eye(mesh.n_panels) \
        + weight * (dn @ assemble_single_layer(mesh, z))
    return np.linalg.solve(core, dn @ rhs)


def rel_gap(value, reference):
    return np.linalg.norm(value - reference) / np.linalg.norm(reference)


@pytest.mark.parametrize("mesh_name", ["sphere2", "ellipsoid2"])
@pytest.mark.parametrize("omega", [1.3, 1.7])
def test_factored_solves_match_explicit_dn(mesh_name, omega, request):
    mesh = request.getfixturevalue(mesh_name)
    spectral = spectral_data(mesh)
    eps = 0.05
    kappa = eps ** -2 - 1.0
    problem = make_problem(mesh, eps, omega)
    for z in (omega, 0.7, 1j):
        lam = interaction_operator(problem, z)
        reference = eps * (1 - eps ** 2) * explicit_core_solve(
            mesh, eps * omega, eps * z, eps ** 2, 1 - eps ** 2,
            np.eye(mesh.n_panels))
        assert rel_gap(lam, reference) <= 1e-10, z

    trace = problem.incident.evaluate(problem.dilate(mesh.centroids), omega)
    charge = eps * (1 - eps ** 2) * explicit_core_solve(
        mesh, eps * omega, eps * omega, eps ** 2, 1 - eps ** 2, trace)
    reference = -eval_single_layer_potential(
        mesh, charge, eps * omega, problem.contract(OBS)) / eps
    dilated = scattered_field_dilated(problem, OBS, spectral)
    assert rel_gap(dilated.scattered, reference) <= 1e-10

    scaled = problem.scaled_mesh()
    trace = problem.incident.evaluate(scaled.centroids, omega)
    flux = explicit_core_solve(scaled, omega, omega, 1.0, kappa, trace)
    reference = -kappa * eval_single_layer_potential(
        scaled, flux, omega, OBS)
    direct = scattered_field_direct(problem, OBS, spectral)
    assert rel_gap(direct.scattered, reference) <= 1e-10


SUB1 = make_icosphere(1.0, 1)
SPECTRAL1 = spectral_data(SUB1)
ROUTES = {
    "dilated": lambda p: scattered_field_dilated(p, OBS, SPECTRAL1),
    "direct": lambda p: scattered_field_direct(p, OBS, SPECTRAL1),
    "interaction": lambda p: interaction_operator(p, 0.7),
    "resolvent": lambda p: resolvent_correction_kernel(p, 1j, OBS[0], OBS[1]),
    "expansion": lambda p: expansion_residual(SPECTRAL1, p.eps, p.omega, 0.7),
}
# at z == w, S_w and M are solved by GMRES and, where it is refused,
# factored apart, S_w first; at z != w the one guarded LU of M S_w covers
# both, since det(M S_w) = det M det S_w
GUARDED = {"dilated": ("single layer S", "contrast matrix M"),
           "direct": ("single layer S", "contrast matrix M"),
           "interaction": ("contrast matrix M S_w",),
           "resolvent": ("contrast matrix M S_w",),
           "expansion": ("contrast matrix M S_w",)}


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_guards_s_and_m(route, monkeypatch):
    # a route at z == w factors only where GMRES is refused: one step is
    # too few for it, so every such solve reaches the guarded LUs
    monkeypatch.setattr(boundary_calculus, "_SINGLE_STEPS", 1)
    problem = make_problem(SUB1, 0.05, 1.3)
    original = boundary_calculus._guarded_lu
    contexts = []

    def recorder(matrix, context, **kwargs):
        contexts.append(context)
        return original(matrix, context, **kwargs)

    monkeypatch.setattr(boundary_calculus, "_guarded_lu", recorder)
    ROUTES[route](problem)
    assert [c.split(" at ")[0] for c in contexts] == list(GUARDED[route])

    for name in GUARDED[route]:
        def trip(matrix, context, name=name, **kwargs):
            if context.startswith(name):
                raise NumericalGuardError(f"{context}: tripped")
            return original(matrix, context, **kwargs)

        monkeypatch.setattr(boundary_calculus, "_guarded_lu", trip)
        with pytest.raises(NumericalGuardError, match=name):
            ROUTES[route](problem)

    monkeypatch.setattr(boundary_calculus, "_guarded_lu", original)
    monkeypatch.setattr(boundary_calculus, "CONDITION_LIMIT", 1.0)
    with pytest.raises(NumericalGuardError, match="condition number"):
        ROUTES[route](problem)


CONTRACTED_Z = {"dilated": 1.3, "interaction": 0.7, "resolvent": 1j,
                "expansion": 0.7}


@pytest.mark.parametrize("route", CONTRACTED_Z)
def test_each_contracted_route_factors_once(route, monkeypatch):
    # every route on the reference mesh reaches M through the one
    # contraction, boundary_calculus._contract, exactly once: by
    # _contrast_factors at z != w, by _transmission_flux at z == w
    problem = make_problem(SUB1, 0.05, 1.3)
    original = boundary_calculus._contract
    calls, meshes = [], []

    def recorder(eps, omega, z):
        calls.append((eps, omega, z))
        return original(eps, omega, z)

    def record_mesh(inner):
        def recorded(mesh, *args, **kwargs):
            meshes.append(mesh)
            return inner(mesh, *args, **kwargs)
        return recorded

    for module in (boundary_calculus, scattering):
        monkeypatch.setattr(module, "_contract", recorder)
    for name in ("_contrast_factors", "_transmission_flux"):
        recorded = record_mesh(getattr(boundary_calculus, name))
        for module in (boundary_calculus, scattering, reference):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recorded)
    ROUTES[route](problem)
    assert calls == [(0.05, 1.3, CONTRACTED_Z[route])]
    assert len(meshes) == 1 and meshes[0] is SUB1


def test_transmission_residual_small(sphere2):
    problem = make_problem(sphere2, 0.05, 1.3)
    assert transmission_residual(problem) <= 1e-8


def test_radiation_defect_outgoing(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.5)
    defect = radiation_defect(problem, spectral2, step=1e-3)
    # an exact outgoing monopole gives 1; an incoming wave would give
    # about 2 omega r >> 1
    assert defect <= 2.0


def test_point_source_incidence(sphere2, spectral2):
    # a distant monopole source looks locally like a plane wave, so the
    # normalized amplitude must be close to the plane-wave one
    source = PointSource(np.array([0.0, 0.0, -60.0]))
    problem = ScatteringProblem(sphere2, 0.05, 1.3, source,
                                validity_threshold=np.inf)
    fld = scattered_field_dilated(problem, OBS, spectral2)
    uin_center = source.evaluate(np.zeros((1, 3)), 1.3)[0]
    plane = make_problem(sphere2, 0.05, 1.3)
    fld_plane = scattered_field_dilated(plane, OBS, spectral2)
    assert abs(fld.amplitude / uin_center) == pytest.approx(
        abs(fld_plane.amplitude), rel=2e-2)


def test_point_source_inside_rejected(sphere2):
    with pytest.raises(ValueError, match="inside"):
        ScatteringProblem(sphere2, 0.1, 1.0,
                          PointSource(np.array([0.0, 0.0, 0.05])))


@settings(max_examples=20, deadline=None)
@given(axes=st.lists(st.floats(0.7, 1.5), min_size=3, max_size=3),
       angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
       shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
       eps=st.floats(0.02, 0.2), size=st.floats(0.05, 1.0))
def test_direct_and_dilated_agree_on_moved_ellipsoids(axes, angles, shift,
                                                      eps, size):
    # the two routes are one transmission problem under the similarity
    # x = y0 + eps (y - y0), for any placement of any shape; size is
    # eps * omega * diameter, at most the validity threshold
    rotation = Rotation.from_euler("zyz", angles).as_matrix()
    mesh = affine_transform(make_ellipsoid(tuple(axes), 1), rotation, shift)
    problem = make_problem(mesh, eps, size / (eps * mesh.diameter),
                           direction=(0.3, -0.5, 0.8))
    points = problem.y0 + OBS
    spectral = spectral_data(mesh)
    dilated = scattered_field_dilated(problem, points, spectral)
    direct = scattered_field_direct(problem, points, spectral)
    assert np.abs(dilated.scattered - direct.scattered).max() \
        <= 1e-6 * np.abs(direct.scattered).max()
    assert abs(dilated.amplitude - direct.amplitude) \
        <= 1e-6 * abs(direct.amplitude)


def test_validity_warning():
    _, notes = with_notes(ScatteringProblem, SUB1, 0.5, 2.0,
                          PlaneWave(np.array([0, 0, 1.0])))
    assert len(notes) == 1 and "validity" in notes[0]


@pytest.mark.parametrize("omega", [np.nan, np.inf, 0.0, -1.0])
def test_problem_rejects_a_nonfinite_or_nonpositive_omega(omega):
    with pytest.raises(ValueError, match="finite and positive"):
        make_problem(SUB1, 0.05, omega)


@pytest.mark.parametrize("method, source", [
    ("direct", scattered_field_direct), ("dilated", scattered_field_dilated),
    ("uniform", uniform_amplitude), ("nonresonant", nonresonant_amplitude)])
def test_scattered_field_dispatches_each_method(method, source):
    problem = make_problem(SUB1, 0.05, 1.3)
    fld = scattered_field(problem, OBS, method, SPECTRAL1)
    if method in ("direct", "dilated"):
        reference = source(problem, OBS, SPECTRAL1)
        scattered, amplitude = reference.scattered, reference.amplitude
    else:
        # a closed-form amplitude times the monopole about y0
        amplitude = source(problem, SPECTRAL1)
        scattered = amplitude * green_function(problem.omega, OBS - problem.y0)
    assert fld.method == method
    assert np.array_equal(fld.scattered, scattered)
    assert fld.amplitude == amplitude


def test_scattered_field_rejects_an_unknown_method():
    assert METHODS == ("direct", "dilated", "uniform", "nonresonant")
    with pytest.raises(ValueError, match="unknown method 'mystery'"):
        scattered_field(make_problem(SUB1, 0.05, 1.3), OBS, "mystery",
                        SPECTRAL1)


def test_every_method_gives_the_same_guard_band_note(tmp_path):
    # a solve notes the guard band once, before it solves, whatever its
    # method, and notes nothing outside it
    omega = SPECTRAL1.minnaert_omega + 0.01
    notes = set()
    for method in METHODS:
        out = tmp_path / method
        assert main(["solve", "--icosphere", "1.0,1", "--eps", "0.05",
                     "--omega", repr(omega), "--method", method,
                     "--out", str(out)]) == 0
        notes.add(tuple(json.loads((out / "manifest.json").read_text())
                        ["warnings"]))
    assert notes == {("omega within 1*eps of the Minnaert frequency: "
                      "quasi-resonant guard band",)}
    assert main(["solve", "--icosphere", "1.0,1", "--eps", "0.05",
                 "--omega", "1.3", "--method", "uniform",
                 "--out", str(tmp_path / "outside")]) == 0
    manifest = json.loads((tmp_path / "outside" / "manifest.json").read_text())
    assert manifest["warnings"] == []


def test_dn_factors_read_the_stack_only_where_it_reaches():
    # a single factorization reads a stack by one rule at every (w, z):
    # S_w and K_w are the stack's products where it reaches w and exact
    # assemblies where it does not, at z == w as at z != w
    stack = assemble_series_stack(SUB1, 8)
    near, far, z = 0.02, 0.5, 0.01
    assert stack.reaches(near) and not stack.reaches(far)
    assert stack.reaches(z)
    trace = np.linspace(-1.0, 1.0, SUB1.n_panels)
    for w, zs, s_ref, k_ref in (
            (near, (z, near), stack.single_layer(near),
             stack.double_layer(near)),
            (far, (z, far), assemble_single_layer(SUB1, far),
             assemble_double_layer(SUB1, far))):
        k_ref.flat[::SUB1.n_panels + 1] += 0.5
        for spectral_z in zs:
            f = boundary_calculus._factor_transmission(SUB1, w, spectral_z,
                                                       0.5, stack, trace)
            assert np.array_equal(f.rhs, np.asfortranarray(k_ref) @ trace)
            assert np.array_equal(f.s, s_ref)


# ----------------------------------------------------------------------------
# asymptotic amplitudes


def test_nonresonant_amplitude_value(sphere3, spectral3):
    problem = make_problem(sphere3, 0.05, 1.0, y0=np.zeros(3))
    fld = scattered_field(problem, OBS, "nonresonant", spectral3)
    cap, wm2 = spectral3.capacitance, spectral3.minnaert_omega ** 2
    expected = 0.05 * cap / (wm2 - 1.0)
    assert fld.amplitude == pytest.approx(expected, rel=1e-12)
    # with the analytic sphere constants this is 0.1 pi
    assert abs(fld.amplitude) == pytest.approx(0.1 * np.pi, rel=2e-2)


def test_nonresonant_linear_in_eps(sphere2, spectral2):
    amps = [nonresonant_amplitude(make_problem(sphere2, eps, 1.0), spectral2)
            for eps in (0.04, 0.02, 0.01)]
    assert amps[0] == pytest.approx(2 * amps[1], rel=1e-12)
    assert amps[1] == pytest.approx(2 * amps[2], rel=1e-12)


def test_nonresonant_sign_flip(sphere2, spectral2):
    wm = spectral2.minnaert_omega
    below = nonresonant_amplitude(make_problem(sphere2, 0.05, wm - 0.3,
                                               y0=np.zeros(3)), spectral2)
    above = nonresonant_amplitude(make_problem(sphere2, 0.05, wm + 0.3,
                                               y0=np.zeros(3)), spectral2)
    assert below.real > 0 > above.real


def test_nonresonant_rejects_resonance(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, spectral2.minnaert_omega)
    with pytest.raises(ValueError, match="Minnaert"):
        scattered_field(problem, OBS, "nonresonant", spectral2)


def test_resonant_amplitude(sphere2, spectral2):
    wm = spectral2.minnaert_omega
    problem = make_problem(sphere2, 0.05, wm, y0=np.zeros(3))
    amplitude = resonant_amplitude(problem)
    assert abs(amplitude) == pytest.approx(4 * np.pi / wm, rel=1e-12)
    # in the analytic sphere limit, 4 pi / sqrt(3) = 7.2552
    assert abs(amplitude) == pytest.approx(4 * np.pi / np.sqrt(3), rel=2e-2)


def test_resonant_phase_and_eps_independence(sphere2, spectral2):
    wm = spectral2.minnaert_omega
    a = resonant_amplitude(make_problem(sphere2, 0.05, wm, y0=np.zeros(3)))
    b = resonant_amplitude(make_problem(sphere2, 0.01, wm, y0=np.zeros(3)))
    # equal amplitudes give equal monopole fields a G(. - y0) = b G(. - y0)
    assert a == b
    # the plane wave is 1 at the origin, so the phase of a is its own
    assert np.angle(a) == pytest.approx(np.pi / 2, abs=1e-12)


def test_uniform_reduces_to_resonant_at_peak(sphere2, spectral2):
    wm = spectral2.minnaert_omega
    problem = make_problem(sphere2, 0.05, wm, y0=np.zeros(3))
    uniform = uniform_amplitude(problem, spectral2)
    resonant = resonant_amplitude(problem)
    assert abs(uniform - resonant) <= 1e-14 * abs(resonant)


def test_uniform_approaches_nonresonant(sphere2, spectral2):
    # far from resonance the two formulas differ at first order in eps
    omega = 1.0
    rel = []
    for eps in (0.04, 0.02, 0.01):
        problem = make_problem(sphere2, eps, omega)
        u = uniform_amplitude(problem, spectral2)
        n = nonresonant_amplitude(problem, spectral2)
        rel.append(abs(u - n) / abs(n))
    assert rel[0] == pytest.approx(2 * rel[1], rel=0.1)
    assert rel[1] == pytest.approx(2 * rel[2], rel=0.1)


def test_uniform_halfwidth_matches_lorentzian_algebra(sphere2, spectral2):
    # the resonance-frozen Lorentzian of the uniform amplitude has
    # half-maximum points exactly at center +/- width in the omega^2 variable
    from scipy.optimize import brentq
    eps = 0.05
    w = lorentzian_halfwidth(eps, spectral2)
    m = spectral2.minnaert_omega ** 2
    cap = spectral2.capacitance

    def frozen(nu):
        return abs(eps * m * cap / (m - nu - 1j * eps
                                    * spectral2.minnaert_omega ** 3 * cap
                                    / (4 * np.pi))) ** 2

    peak = frozen(m)
    lo = brentq(lambda nu: frozen(nu) - peak / 2, m - 5 * w, m, xtol=1e-13)
    hi = brentq(lambda nu: frozen(nu) - peak / 2, m, m + 5 * w, xtol=1e-13)
    assert hi - lo == pytest.approx(2 * w, abs=1e-12)
    # and the full formula's numerical half-width agrees to first order
    def full(nu):
        p = make_problem(sphere2, eps, float(np.sqrt(nu)))
        return abs(uniform_amplitude(p, spectral2)) ** 2

    peak_full = full(m)
    lo_f = brentq(lambda nu: full(nu) - peak_full / 2, m - 5 * w, m - 1e-9)
    hi_f = brentq(lambda nu: full(nu) - peak_full / 2, m + 1e-9, m + 5 * w)
    assert hi_f - lo_f == pytest.approx(2 * w, rel=3e-2)


# ----------------------------------------------------------------------------
# monopole amplitude


@pytest.mark.parametrize("route", [scattered_field_dilated,
                                   scattered_field_direct])
def test_amplitude_does_not_depend_on_the_incidence_direction(sphere2,
                                                              spectral2,
                                                              route):
    # on a sphere about y0 the monopole response to a unit plane wave is
    # the same for every direction; the icosphere's symmetry breaks that
    # only from degree 6 on, O((eps omega)^6) below the amplitude
    directions = ((0, 0, 1), (0.3, -0.5, 0.8), (1, 0, 0), (-0.6, 0.7, -0.4),
                  (0.2, 0.9, 0.1))
    for omega in (1.0, 1.6, np.sqrt(3)):
        amps = [abs(route(make_problem(sphere2, 0.05, omega, direction=d,
                                       y0=np.zeros(3)),
                          np.empty((0, 3)), spectral2).amplitude)
                for d in directions]
        assert np.ptp(amps) <= 1e-11 * max(amps), omega


def test_field_result_total_consistency(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.3)
    fld = scattered_field_dilated(problem, OBS, spectral2)
    assert np.array_equal(fld.total, fld.incident + fld.scattered)


# ----------------------------------------------------------------------------
# sweeps and peaks


def test_sweep_uniform_method_matches_formula(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.6)
    grid = np.arange(1.5, 1.9001, 0.05)
    sweep = frequency_sweep(problem, grid, "uniform", spectral2)
    for row in sweep.rows:
        sub = make_problem(sphere2, 0.05, row.omega)
        assert row.amplitude == pytest.approx(
            uniform_amplitude(sub, spectral2), rel=1e-14)
        assert row.amplitude == row.prediction_uniform


def test_sweep_grid_validation(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.6)
    with pytest.raises(ValueError, match="sorted"):
        frequency_sweep(problem, [1.5, 1.2], "uniform", spectral2)
    with pytest.raises(ValueError, match="method"):
        frequency_sweep(problem, [1.5, 1.6], "mystery", spectral2)
    for grid in ([1.5, np.nan, 1.7], [1.5, np.inf], [-np.inf, 1.5], [0.0],
                 []):
        with pytest.raises(ValueError, match="sorted"):
            frequency_sweep(problem, grid, "dilated", spectral2)


def test_sweep_guard_band_flag(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.6)
    wm = spectral2.minnaert_omega
    grid = sorted([1.5, wm - 0.02, wm + 0.02, 1.9])
    sweep = frequency_sweep(problem, grid, "uniform", spectral2)
    flags = [row.guard_band for row in sweep.rows]
    assert flags == [False, True, True, False]


def test_sweep_nonresonant_failure_recorded(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.6)
    wm = spectral2.minnaert_omega
    sweep = frequency_sweep(problem, [1.5, wm, 1.9], "nonresonant", spectral2)
    assert sweep.rows[1].amplitude is None
    assert sweep.rows[1].error is not None
    assert sweep.rows[0].amplitude is not None


def test_peak_fit_on_synthetic_uniform(sphere2, spectral2):
    from scipy.optimize import minimize_scalar
    problem = make_problem(sphere2, 0.05, 1.6)
    grid = np.arange(1.5, 2.0001, 0.005)
    sweep = frequency_sweep(problem, grid, "uniform", spectral2)
    peak = resonance_peak(sweep)

    def neg_amp(w):
        return -abs(uniform_amplitude(make_problem(sphere2, 0.05, float(w)),
                                      spectral2))

    analytic = minimize_scalar(neg_amp, bounds=(1.6, 1.85), method="bounded",
                               options={"xatol": 1e-12}).x
    assert abs(peak.omega_peak - analytic) <= 1e-3
    assert peak.width == pytest.approx(lorentzian_halfwidth(0.05, spectral2),
                                       rel=1e-2)


def test_peak_uncertainty_is_the_vertex_uncertainty(sphere2, spectral2):
    # on the fine grid at least 5 points clear 90 % of the maximum, so
    # omega_peak is the vertex of the quadratic through them; its
    # uncertainty is the vertex's, which a fit of that quadratic in vertex
    # form h + c (nu - v)^2 gives directly, not the Lorentzian centre's
    from scipy.optimize import curve_fit
    problem = make_problem(sphere2, 0.05, 1.6)
    sweep = frequency_sweep(problem, np.arange(1.5, 2.0001, 0.005), "uniform",
                            spectral2)
    peak = resonance_peak(sweep)
    nu, abs2 = sweep.column("omega") ** 2, sweep.column("abs2")
    top = abs2 >= 0.9 * abs2.max()
    assert top.sum() >= 5
    (vertex, _, _), cov = curve_fit(
        lambda x, v, c, h: h + c * (x - v) ** 2, nu[top], abs2[top],
        p0=(nu[np.argmax(abs2)], -abs2.max(), abs2.max()))
    assert peak.omega_peak == pytest.approx(np.sqrt(vertex), rel=1e-9)
    sigma = np.sqrt(cov[0, 0]) / (2 * np.sqrt(vertex))
    assert peak.uncertainties[0] == pytest.approx(sigma, rel=1e-3)
    lorentzian = np.sqrt(peak.covariance[0, 0]) / (2 * peak.omega_peak)
    assert abs(peak.uncertainties[0] - lorentzian) > 0.5 * lorentzian


def test_peak_fit_requires_interior_maximum(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.0)
    grid = np.arange(1.0, 1.2001, 0.02)   # monotone stretch, max at the edge
    sweep = frequency_sweep(problem, grid, "uniform", spectral2)
    with pytest.raises(FitError, match="interior"):
        resonance_peak(sweep)


def lorentzian(x, center, width, height):
    return height / (1.0 + ((x - center) / width) ** 2)


def recorded_fit(sweep, monkeypatch):
    """resonance_peak's Lorentzian fit of ``sweep``: its core points x and
    y, its start p0 and the (parameters, covariance) it returned."""
    fits, fit = [], scattering._lorentzian_fit

    def record(x, y, p0):
        fits.append((x, y, p0, fit(x, y, p0)))
        return fits[-1][3]

    monkeypatch.setattr(scattering, "_lorentzian_fit", record)
    resonance_peak(sweep)
    (found,) = fits
    return found


def peak_fit_sweep(request, name):
    if name == "c08":
        return request.getfixturevalue("bem_sweep")
    if name == "uniform-sub2":
        # the synthetic grid of test_peak_fit_on_synthetic_uniform
        return frequency_sweep(
            make_problem(request.getfixturevalue("sphere2"), 0.05, 1.6),
            np.arange(1.5, 2.0001, 0.005), "uniform",
            request.getfixturevalue("spectral2"))
    sphere = make_icosphere(1.0, 1)
    return frequency_sweep(make_problem(sphere, 0.05, 1.6),
                           np.round(np.arange(1.5, 2.0001, 0.02), 10),
                           "direct", spectral_data(sphere))


@pytest.mark.parametrize("name", ["c08", "uniform-sub2", "direct-sub1"])
def test_peak_fit_matches_curve_fit(request, monkeypatch, name):
    # from the same start on the same core points, scipy's curve_fit
    # (MINPACK, a finite-difference Jacobian, xtol 1.5e-8) reaches the same
    # Lorentzian with the same uncertainties, and no lower sum of squares
    from scipy.optimize import curve_fit
    x, y, p0, (popt, pcov) = recorded_fit(peak_fit_sweep(request, name),
                                          monkeypatch)
    ref, ref_cov = curve_fit(lorentzian, x, y, p0=p0, maxfev=20000)
    assert popt == pytest.approx(ref, rel=1e-6)
    assert np.sqrt(np.diag(pcov)) == pytest.approx(np.sqrt(np.diag(ref_cov)),
                                                   rel=1e-5)
    ssr = np.sum((lorentzian(x, *popt) - y) ** 2)
    assert ssr <= np.sum((lorentzian(x, *ref) - y) ** 2) * (1 + 1e-12)


def test_peak_fit_that_does_not_converge_raises():
    # |A|^2 flat but for one raised row beside the low edge: the sum of
    # squares keeps falling as the Lorentzian's centre runs off below the
    # grid and its width grows (omega^2 = -872, width 3931 after 500
    # steps), so the fit runs into its step cap.  curve_fit instead
    # stopped by its relative-reduction test (ier 1, 2957 evaluations) at
    # omega^2 = -1287.29, width 4716.6, and the sweep ended in FitError as
    # a nonphysical peak
    grid = np.round(np.arange(1.5, 2.0001, 0.02), 10)
    abs2 = np.ones(len(grid))
    abs2[1] = 1.001
    sweep = scattering.SweepResult("uniform", 0.05, [
        scattering.SweepRow(float(w), None, float(a), 0j, None, 0j, False)
        for w, a in zip(grid, abs2)])
    with pytest.raises(FitError, match="did not converge in"):
        resonance_peak(sweep)


def test_peak_fit_singular_step_raises():
    # h = 0 zeroes the model's derivatives in c and w, so the damped
    # normal matrix has no Cholesky factor and the first step is singular
    x = np.linspace(2.0, 4.0, 9)
    with pytest.raises(FitError, match="singular step"):
        scattering._lorentzian_fit(x, lorentzian(x, 3.0, 0.3, 1.0),
                                   (3.0, 0.3, 0.0))


def test_sweep_monotone_growth_below_resonance(sphere2, spectral2):
    # |A| grows monotonically approaching the resonance from below, outside
    # the peak half-width
    problem = make_problem(sphere2, 0.05, 1.2)
    grid = np.arange(1.0, 1.55, 0.05)
    sweep = frequency_sweep(problem, grid, "uniform", spectral2)
    width_nu = lorentzian_halfwidth(0.05, spectral2)
    wm2 = spectral2.minnaert_omega ** 2
    mags = [abs(r.amplitude) for r in sweep.rows
            if wm2 - r.omega ** 2 > width_nu]
    assert all(np.diff(mags) > 0)


def test_bem_sweep_has_interior_peak_near_minnaert(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.6, y0=np.zeros(3))
    grid = np.arange(1.55, 1.921, 0.03)
    sweep = frequency_sweep(problem, grid, "dilated", spectral2)
    abs2 = sweep.column("abs2").astype(float)
    assert int(np.argmax(abs2)) not in (0, len(abs2) - 1)
    peak = resonance_peak(sweep)
    assert abs(peak.omega_peak - spectral2.minnaert_omega) <= 0.1


def sweep_amplitudes(sweep):
    return np.array([row.amplitude for row in sweep.rows])


def test_dilated_sweep_stack_matches_exact_assembly(sphere2, spectral2,
                                                    monkeypatch):
    problem = make_problem(sphere2, 0.05, 1.5, y0=np.zeros(3))
    grid = np.round(np.arange(1.5, 2.0001, 0.1), 10)
    stacked, notes = with_notes(frequency_sweep, problem, grid, "dilated",
                                spectral2)
    assert notes == []
    monkeypatch.setattr(boundary_calculus, "SERIES_STACK_LIMIT", 0)
    exact, notes = with_notes(frequency_sweep, problem, grid, "dilated",
                              spectral2)
    assert len(notes) == 1
    assert "assembled exactly at every wavenumber" in notes[0]
    a, b = sweep_amplitudes(stacked), sweep_amplitudes(exact)
    assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


def test_sweep_stack_size_estimate_is_the_stack_bytes(monkeypatch):
    # the size _series_stack checks against SERIES_STACK_LIMIT for a sweep's
    # studies (eps, omega, omega) is the bytes the stack's two term blocks
    # hold
    studies = [(0.05, w, w) for w in np.round(np.arange(1.5, 2.0001, 0.1), 10)]
    stack, notes = with_notes(boundary_calculus._series_stack, SPECTRAL1,
                              studies)
    assert notes == []
    monkeypatch.setattr(boundary_calculus, "SERIES_STACK_LIMIT", 0)
    none, notes = with_notes(boundary_calculus._series_stack, SPECTRAL1,
                             studies)
    assert none is None and len(notes) == 1
    size = int(notes[0].split(" needs ")[1].split()[0])
    assert size == stack.single.nbytes + stack.double.nbytes


@pytest.mark.parametrize("study", [(0.05, 1.5, 6.0), (0.05, 6.0, 1.5),
                                   (0.05, 1.5, 6j)])
def test_series_stack_reaches_the_larger_contracted_wavenumber(study):
    # a study (eps, omega, z) factors at eps * omega and eps * z, so its
    # stack has the order the tail bound needs at the larger of the two
    # moduli, 0.3 here, and reaches both
    stack, notes = with_notes(boundary_calculus._series_stack, SPECTRAL1,
                              [study])
    assert notes == []
    assert stack.order == layer_ops._series_order(0.3 * SUB1.diameter)
    assert stack.order > layer_ops._series_order(0.075 * SUB1.diameter)
    assert stack.reaches(0.3) and stack.reaches(0.075)


def count_assemblies(monkeypatch):
    """Record the wavenumber of every exact S assembly and every exact S and
    K pass made through boundary_calculus, and the order of every series
    stack built."""
    calls = {"single": [], "pair": [], "stack": []}
    for kind, module, name in (
            ("single", boundary_calculus, "assemble_single_layer"),
            ("pair", boundary_calculus, "assemble_layer_pair"),
            ("stack", boundary_calculus, "assemble_series_stack")):
        original = getattr(module, name)

        def counted(mesh, arg, *rest, original=original, kind=kind):
            calls[kind].append(arg)
            return original(mesh, arg, *rest)

        monkeypatch.setattr(module, name, counted)
    return calls


def count_potential_points(monkeypatch):
    """Record the number of points of every single-layer potential
    evaluation made through scattering."""
    points = []
    original = scattering.eval_single_layer_potential

    def counted(mesh, density, z, pts):
        points.append(len(pts))
        return original(mesh, density, z, pts)

    monkeypatch.setattr(scattering, "eval_single_layer_potential", counted)
    return points


def test_dilated_sweep_assembles_once(monkeypatch):
    problem = make_problem(SUB1, 0.05, 1.5)
    grid = [1.5, 1.6, 1.7, 1.8]
    calls = count_assemblies(monkeypatch)
    points = count_potential_points(monkeypatch)
    sweep = frequency_sweep(problem, grid, "dilated", SPECTRAL1)
    assert all(row.error is None for row in sweep.rows)
    assert [z for z in calls["single"] + calls["pair"] if z != 0] == []
    assert len(calls["stack"]) == 1
    # the amplitude is a panel sum, so no row samples the field
    assert set(points) <= {0}
    direct = frequency_sweep(problem, grid, "direct", SPECTRAL1)
    assert all(row.error is None for row in direct.rows)
    assert set(points) <= {0}

    calls = count_assemblies(monkeypatch)
    points = count_potential_points(monkeypatch)
    scattered_field_dilated(problem, OBS, SPECTRAL1)
    # S and K at z = w come from one pass, and S_z is not built
    assert (calls["single"], len(calls["pair"])) == ([], 1)
    assert calls["stack"] == []
    assert points == [len(OBS)]


def test_sweep_past_the_highest_order_is_assembled_exactly(monkeypatch):
    # eps * omega * diameter = 0.6 is within the stack's reach, 1.2 is not
    problem = make_problem(SUB1, 0.3, 1.0)
    calls = count_assemblies(monkeypatch)
    sweep, notes = with_notes(frequency_sweep, problem, [1.0, 2.0],
                              "dilated", SPECTRAL1)
    assert all(row.error is None for row in sweep.rows)
    assert len(calls["stack"]) == 1
    assert (calls["single"], calls["pair"]) == ([], [0.6])
    assert len(notes) == 1 and "|eps w| = 0.6" in notes[0]
    exact = scattered_field_dilated(make_problem(SUB1, 0.3, 2.0), OBS,
                                    SPECTRAL1)
    assert sweep.rows[1].amplitude == pytest.approx(exact.amplitude, rel=1e-12)


# ----------------------------------------------------------------------------
# the dilated sweep in lockstep


@pytest.mark.parametrize("mesh_name, low, high", [("sphere2", 1.5, 2.0),
                                                  ("ellipsoid2", 1.2, 1.5)])
def test_lockstep_sweep_matches_the_per_row_solves(mesh_name, low, high,
                                                   request):
    # results contract, stated before measuring: every row the stack
    # reaches is accepted in lockstep, and its amplitude is within 1e-11,
    # its |A|^2 within 1e-12, relative, of the per-row solve that sums S_w
    # and K_w from the same stack and factors both (7.2e-13 and 8.4e-13
    # measured, on the ellipsoid)
    mesh = request.getfixturevalue(mesh_name)
    spectral = spectral_data(mesh)
    problem = make_problem(mesh, 0.05, low)
    grid = np.round(np.arange(low, high + 1e-4, 0.02), 10)
    sweep, notes = with_notes(frequency_sweep, problem, grid, "dilated",
                              spectral)
    assert notes == []
    stack = boundary_calculus._series_stack(
        spectral, [(0.05, w, w) for w in grid])
    per_row = np.array([stacked_row_amplitude(make_problem(mesh, 0.05, w),
                                              stack) for w in grid])
    lockstep = sweep_amplitudes(sweep)
    assert np.max(np.abs(lockstep - per_row) / np.abs(per_row)) <= 1e-11
    abs2 = np.abs(per_row) ** 2
    assert np.max(np.abs(sweep.column("abs2") - abs2) / abs2) <= 1e-12


def test_a_row_the_lockstep_solve_misses_is_factored_exactly(monkeypatch):
    # with one Krylov step no row reaches the backward error: each row is
    # left to its own solve from exact operators, listed in the warnings,
    # and the sweep has the bytes of one with no stack at all
    problem = make_problem(SUB1, 0.05, 1.5)
    grid = [1.5, 1.6, 1.7, 1.8]
    monkeypatch.setattr(boundary_calculus, "_LOCKSTEP_STEPS", 1)
    missed, notes = with_notes(frequency_sweep, problem, grid, "dilated",
                               SPECTRAL1)
    assert all(row.error is None for row in missed.rows)
    assert notes == [
        f"lockstep sweep: omega = {w:g} solved on its own "
        "(M system: backward error above 1e-14 after 1 Krylov steps)"
        for w in grid]
    monkeypatch.setattr(boundary_calculus, "SERIES_STACK_LIMIT", 0)
    exact = frequency_sweep(problem, grid, "dilated", SPECTRAL1)
    assert (sweep_amplitudes(missed).tobytes()
            == sweep_amplitudes(exact).tobytes())


def test_lockstep_rows_keep_the_per_row_guard_errors(monkeypatch):
    # at a condition limit of 1 the centre's guard trips, every row is
    # solved on its own, where GMRES is refused too and S_w and M are
    # factored, and each records the error of the sweep that reads no
    # stack: S_w's guard, as a single dilated solve reports it
    problem = make_problem(SUB1, 0.05, 1.5)
    grid = [1.5, 1.6, 1.7]
    monkeypatch.setattr(boundary_calculus, "CONDITION_LIMIT", 1.0)
    sweep, notes = with_notes(frequency_sweep, problem, grid, "dilated",
                              SPECTRAL1)
    assert len(notes) == len(grid)
    assert all("(centre preconditioner: contrast matrix M at wavenumber"
               in note for note in notes)
    errors = [row.error for row in sweep.rows]
    for w, error in zip(grid, errors):
        assert error.startswith(f"single layer S at wavenumber {0.05 * w:.6g}"
                                ": condition number ")
    monkeypatch.setattr(boundary_calculus, "SERIES_STACK_LIMIT", 0)
    exact = frequency_sweep(problem, grid, "dilated", SPECTRAL1)
    assert errors == [row.error for row in exact.rows]


def test_a_stacked_dilated_sweep_never_solves_a_row_on_its_own(
        monkeypatch, sphere2, spectral2):
    # every row of a sub-2 dilated sweep that the stack reaches is solved
    # in lockstep, so no row enters the one-frequency solve; a direct
    # sweep enters it once per row
    calls = []
    original = boundary_calculus._transmission_flux

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(scattering, "_transmission_flux", counted)
    problem = make_problem(sphere2, 0.05, 1.5)
    grid = np.round(np.arange(1.5, 2.0001, 0.02), 10)
    _, notes = with_notes(frequency_sweep, problem, grid, "dilated",
                          spectral2)
    assert notes == [] and calls == []
    direct = frequency_sweep(problem, grid[:3], "direct", spectral2)
    assert all(row.error is None for row in direct.rows)
    assert calls == list(grid[:3])


def test_a_refused_solve_notes_why_in_its_warnings(monkeypatch, tmp_path):
    # with one Krylov step GMRES is refused: the solve takes the flux of
    # the LUs of S_w and M, and warns why, and so the manifest says why
    monkeypatch.setattr(boundary_calculus, "_SINGLE_STEPS", 1)
    note = ("omega = 1.3: GMRES refused (M system: backward error above "
            "1e-14 after 1 Krylov steps); solved by LU factorization")
    for route in (scattered_field_dilated, scattered_field_direct):
        _, notes = with_notes(route, make_problem(SUB1, 0.05, 1.3), OBS,
                              SPECTRAL1)
        assert notes == [note]
    assert main(["solve", "--icosphere", "1.0,1", "--eps", "0.05",
                 "--omega", "1.3", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["warnings"] == [note]


@pytest.mark.parametrize("method", ["direct", "dilated"])
def test_a_refused_sweep_row_notes_why_in_its_warnings(monkeypatch, tmp_path,
                                                       method):
    # with one Krylov step every row is left to its own solve, whose GMRES
    # is refused: the sweep warns, and so its manifest carries, the single
    # solve's note once per row, after the lockstep's notes; the guard
    # band of the row at 1.8 stays a column
    monkeypatch.setattr(boundary_calculus, "_SINGLE_STEPS", 1)
    monkeypatch.setattr(boundary_calculus, "_LOCKSTEP_STEPS", 1)
    grid = [1.7, 1.8, 1.9]
    refused = [f"omega = {w:g}: GMRES refused (M system: backward error "
               "above 1e-14 after 1 Krylov steps); solved by LU factorization"
               for w in grid]
    sweep, notes = with_notes(frequency_sweep,
                              make_problem(SUB1, 0.05, 1.7), grid, method,
                              SPECTRAL1)
    assert [row.guard_band for row in sweep.rows] == [False, True, False]
    assert all(row.error is None for row in sweep.rows)
    lockstep = notes[:-len(grid)]
    assert len(lockstep) == (len(grid) if method == "dilated" else 0)
    assert all(note.startswith("lockstep sweep: ") for note in lockstep)
    assert notes[-len(grid):] == refused
    assert main(["sweep", "--icosphere", "1.0,1", "--eps", "0.05",
                 "--omega-grid", "1.7,1.8,1.9", "--method", method,
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["warnings"][:len(notes)] == notes


def test_lockstep_sweep_bytes_do_not_depend_on_the_worker_count(
        monkeypatch, sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.5)
    grid = np.round(np.arange(1.5, 2.0001, 0.02), 10)
    amplitudes = []
    for workers in (1, 2):
        monkeypatch.setattr(layer_ops, "_worker_count",
                            lambda chunks, workers=workers: min(chunks,
                                                                workers))
        sweep, notes = with_notes(frequency_sweep, problem, grid, "dilated",
                                  spectral2)
        assert notes == []
        amplitudes.append(sweep_amplitudes(sweep).tobytes())
    assert amplitudes[0] == amplitudes[1]


def test_lockstep_blocks_keep_their_rows_apart(monkeypatch):
    # sub 1: n // 22 = 3 rows per block, so these 10 rows run as
    # 3 + 3 + 3 + 1, blocks 0 and 2 in one lane, 1 and 3 in the other.
    # One row per block gives each row's amplitude to 1e-12 relative; not
    # to the bit, since a BLAS product or a numpy reduction may sum a
    # column in an order that depends on how many columns the block has
    # and where the column sits (1.5e-13 measured)
    problem = make_problem(SUB1, 0.05, 1.5)
    grid = np.round(np.arange(1.5, 1.951, 0.05), 10)
    assert boundary_calculus._lockstep_width(SUB1.n_panels, len(grid)) == 3
    assert len(grid) == 10
    blocked, blocked_notes = with_notes(frequency_sweep, problem, grid,
                                        "dilated", SPECTRAL1)
    monkeypatch.setattr(boundary_calculus, "_lockstep_width",
                        lambda n, rows: 1)
    single, single_notes = with_notes(frequency_sweep, problem, grid,
                                      "dilated", SPECTRAL1)
    assert blocked_notes == single_notes == []
    a, b = sweep_amplitudes(blocked), sweep_amplitudes(single)
    assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-12


def test_lockstep_lanes_write_the_bytes_of_one_block(monkeypatch, tmp_path):
    # 26 rows at sub 2 run as two blocks of 13, one per lane; the same
    # sweep as one block of 26 writes the same sweep.csv, byte for byte
    argv = ["sweep", "--icosphere", "1,2", "--eps", "0.05",
            "--omega-grid", "1.5:2.0:0.02", "--method", "dilated"]
    assert boundary_calculus._lockstep_width(320, 26) == 13
    written = []
    for width in (boundary_calculus._lockstep_width, lambda n, rows: rows):
        monkeypatch.setattr(boundary_calculus, "_lockstep_width", width)
        out = tmp_path / f"run{len(written)}"
        assert main([*argv, "--out", str(out)]) == 0
        written.append((out / "sweep.csv").read_bytes())
    assert written[0] == written[1]


def test_no_solve_hands_lapack_a_stored_pivot_array(monkeypatch):
    # LAPACK's wrapper writes to the pivot array it is given while it
    # solves, so no solve of a lockstep sweep (both lanes share the centre
    # LU and S_0's) or of a Gram fill gets the array kept in the factor
    spectral = dataclasses.replace(SPECTRAL1, _gram_chol=None)
    stored, given = [spectral.s0_lu[1]], []
    original_lu, original_solve = (boundary_calculus._guarded_lu,
                                   boundary_calculus.lu_solve)

    def recorded_lu(matrix, context):
        result = original_lu(matrix, context)
        stored.append(result[0][1])
        return result

    def recorded_solve(lu_and_piv, rhs, **kwargs):
        given.append(lu_and_piv[1])
        return original_solve(lu_and_piv, rhs, **kwargs)

    monkeypatch.setattr(boundary_calculus, "_guarded_lu", recorded_lu)
    monkeypatch.setattr(boundary_calculus, "lu_solve", recorded_solve)
    _, notes = with_notes(frequency_sweep, make_problem(SUB1, 0.05, 1.5),
                          [1.5, 1.6, 1.7, 1.8], "dilated", spectral)
    assert notes == [] and len(stored) == 2
    spectral.gram_cholesky()
    assert given
    assert not any(np.shares_memory(piv, kept)
                   for piv in given for kept in stored)


def test_lockstep_sweep_peak_memory(sphere2, spectral2):
    # bound: at n = 320 a complex n x n array is 1.56 MiB.  The solve holds
    # the centre's LU, a block's Krylov basis and the copy of its running
    # vectors (at most one array each) and a stack product's planes and
    # result (about one): 7 MiB.  A block holds at most n // 11 rows, so
    # 76 rows in three blocks peak like 26 in one
    grid = np.round(np.arange(1.5, 2.0001, 0.02), 10)
    fine = np.round(np.arange(1.5, 2.0001, 0.02 / 3), 10)
    stack = boundary_calculus._series_stack(
        spectral2, [(0.05, w, w) for w in fine])
    incident = PlaneWave(np.array([0.0, 0.0, 1.0]))
    peaks = []
    for omegas in (grid, fine):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rows = [j for j, flux, why in boundary_calculus._lockstep_flux(
                spectral2, stack, 0.05, omegas,
                lambda j: incident.evaluate(0.05 * sphere2.centroids,
                                            omegas[j]))
                    if flux is not None]
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert rows == list(range(len(omegas)))
    assert max(peaks) <= 7 * 2 ** 20


def test_every_factorization_consumes_its_operand(monkeypatch):
    # every LU the package takes is of an F-ordered operand, in place: the
    # input of lu_factor is F-contiguous and the LU is that input's memory,
    # so no factorization copies its matrix, at z == w or z != w, exact or
    # read from a series stack
    records = []
    original = boundary_calculus.lu_factor

    def recorded(matrix, *args, **kwargs):
        lu, piv = original(matrix, *args, **kwargs)
        records.append((matrix.flags.f_contiguous,
                        np.shares_memory(lu, matrix)))
        return lu, piv

    monkeypatch.setattr(boundary_calculus, "lu_factor", recorded)
    problem = make_problem(SUB1, 0.05, 1.6)
    scattered_field_dilated(problem, OBS, SPECTRAL1)
    scattered_field_direct(problem, OBS, SPECTRAL1)
    sweep = frequency_sweep(problem, [1.5, 1.6], "dilated", SPECTRAL1)
    assert all(row.error is None for row in sweep.rows)
    verification_checks(RunConfig(icosphere=(1.0, 1)))
    assert records and set(records) == {(True, True)}


# ----------------------------------------------------------------------------
# resolvent correction and the point-interaction kernel


def test_resolvent_kernel_requires_upper_half_plane(sphere2):
    problem = make_problem(sphere2, 0.1, 1.0)
    with pytest.raises(ValueError, match="Im z"):
        resolvent_correction_kernel(problem, 0.7, OBS[0], OBS[1])


def test_resolvent_kernel_symmetry(sphere2):
    problem = make_problem(sphere2, 0.1, 1.0, y0=np.zeros(3))
    x, y = OBS[0], OBS[1]
    kxy = resolvent_correction_kernel(problem, 1j, x, y)
    kyx = resolvent_correction_kernel(problem, 1j, y, x)
    assert abs(kxy - kyx) <= 1e-8 * abs(kxy)


def test_resolvent_kernel_vanishes_off_resonance(sphere2):
    x, y = OBS[0], OBS[1]
    errors = []
    eps_list = (0.2, 0.1, 0.05)
    for eps in eps_list:
        problem = make_problem(sphere2, eps, 1.0, y0=np.zeros(3))
        errors.append(abs(resolvent_correction_kernel(problem, 1j, x, y)))
    slope = np.polyfit(np.log(eps_list), np.log(errors), 1)[0]
    assert abs(slope - 1.0) <= 0.2


def test_resolvent_kernel_resonant_limit(sphere2, spectral2):
    # the kernel approaches the point-interaction correction
    # 4 pi (i/z) G_z(x - y0) G_z(y - y0); the measured pointwise rate is
    # first order (all expansions carry integer powers pointwise)
    what = k2_resonance_frequency(spectral2)
    x, y = OBS[0], OBS[1]
    limit = 4 * np.pi * green_function(1j, x[None])[0] \
        * green_function(1j, y[None])[0]
    errors = []
    for eps in (0.2, 0.1, 0.05):
        problem = make_problem(sphere2, eps, what, y0=np.zeros(3))
        value = resolvent_correction_kernel(problem, 1j, x, y)
        errors.append(abs(value - limit))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] <= 2e-2 * abs(limit)


def test_point_kernel_example_value():
    y0 = np.zeros(3)
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    value = point_perturbation_kernel(1j, y0, x, y)
    direct = green_function(1j, (x - y)[None])[0]
    assert value - direct == pytest.approx(np.exp(-2) / (4 * np.pi), rel=1e-14)


def test_point_kernel_symmetry_and_decay():
    y0 = np.zeros(3)
    x = np.array([1.0, 0.2, -0.3])
    y = np.array([-0.7, 1.1, 0.4])
    assert point_perturbation_kernel(2j, y0, x, y) == pytest.approx(
        point_perturbation_kernel(2j, y0, y, x), rel=1e-14)
    corr_small = point_perturbation_kernel(1j, y0, x, y) \
        - green_function(1j, (x - y)[None])[0]
    corr_large = point_perturbation_kernel(8j, y0, x, y) \
        - green_function(8j, (x - y)[None])[0]
    assert abs(corr_large) < 1e-4 * abs(corr_small)


def test_point_kernel_rejects_coincident_points():
    y0 = np.zeros(3)
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="distinct"):
        point_perturbation_kernel(1j, y0, x, x)
    with pytest.raises(ValueError, match="z = 0"):
        point_perturbation_kernel(0.0, y0, x, np.array([0.0, 1.0, 0.0]))
