import warnings

import numpy as np
import pytest

import bubblebem.boundary_calculus as boundary_calculus
import bubblebem.scattering as scattering
from bubblebem.boundary_calculus import (NumericalGuardError,
                                         dirichlet_to_neumann,
                                         k2_resonance_frequency)
from bubblebem.layer_ops import (DENSITY, TRACE, BoundaryDensity,
                                 assemble_single_layer,
                                 eval_single_layer_potential)
from bubblebem.mesh import make_icosphere
from bubblebem.mie import mie_monopole_amplitude, mie_solve
from bubblebem.scattering import (FitError, PlaneWave, PointSource,
                                  ScatteringProblem, asymptotic_nonresonant,
                                  asymptotic_resonant, asymptotic_uniform,
                                  far_field_points, fit_monopole,
                                  frequency_sweep, green_function,
                                  interaction_operator, lorentzian_halfwidth,
                                  monopole_amplitude, point_perturbation_kernel,
                                  radiation_defect, resolvent_correction_kernel,
                                  resonance_peak, scattered_field_dilated,
                                  scattered_field_direct, spherical_point_set,
                                  transmission_residual, uniform_amplitude)

OBS = np.array([[3.0, 1.0, 0.5], [0.0, 4.0, 1.0], [-2.0, 0.0, 3.0]])


def make_problem(mesh, eps, omega, direction=(0, 0, 1), **kw):
    kw.setdefault("validity_threshold", np.inf)
    return ScatteringProblem(mesh, eps, omega, PlaneWave(np.asarray(direction)),
                             **kw)


# ----------------------------------------------------------------------------
# interaction operator


def test_interaction_operator_tags(sphere2):
    lam = interaction_operator(make_problem(sphere2, 0.05, 1.0), 0.7)
    assert lam.domain == TRACE and lam.codomain == DENSITY


def test_interaction_scaling_off_resonance(sphere2, spectral2):
    norms = []
    eps_list = (0.04, 0.02, 0.01)
    for eps in eps_list:
        lam = interaction_operator(make_problem(sphere2, eps, 1.0), 0.7)
        v = lam.matrix @ np.ones(sphere2.n_panels)
        norms.append(np.sqrt(np.sum(np.abs(v) ** 2 * sphere2.areas)))
    power = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
    assert abs(power - 1.0) <= 0.15


def test_interaction_scaling_at_resonance(sphere2, spectral2):
    what = k2_resonance_frequency(sphere2, spectral2)
    norms = []
    eps_list = (0.04, 0.02, 0.01)
    for eps in eps_list:
        lam = interaction_operator(make_problem(sphere2, eps, what), 0.7)
        v = lam.matrix @ np.ones(sphere2.n_panels)
        norms.append(np.sqrt(np.sum(np.abs(v) ** 2 * sphere2.areas)))
    power = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
    assert abs(power) <= 0.15


def test_interaction_continuous_in_z(sphere2):
    problem = make_problem(sphere2, 0.05, 1.0)
    zs = np.linspace(0.1, 1.0, 10)
    samples = [interaction_operator(problem, z).matrix[::97, ::101]
               for z in zs]
    steps = [np.abs(samples[i + 1] - samples[i]).max()
             for i in range(len(zs) - 1)]
    scale = np.abs(samples[0]).max()
    assert max(steps) <= 0.2 * scale        # no spikes across the grid


# ----------------------------------------------------------------------------
# solvers


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


def test_contrast_off_means_no_scattering(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.3)
    fld = scattered_field_direct(problem, OBS, spectral2, contrast=0.0)
    assert np.abs(fld.scattered).max() == 0.0


# The solvers factor S and the contrast matrix M instead of forming DN; the
# reference below is the explicit algebra they replace.


def explicit_core_solve(mesh, w, z, shift, weight, rhs):
    """(shift + weight DN_w S_z)^{-1} DN_w rhs with DN_w formed as a matrix."""
    dn = dirichlet_to_neumann(mesh, w).matrix
    core = shift * np.eye(mesh.n_panels) \
        + weight * (dn @ assemble_single_layer(mesh, z).matrix)
    return np.linalg.solve(core, dn @ rhs)


def rel_gap(value, reference):
    return np.linalg.norm(value - reference) / np.linalg.norm(reference)


@pytest.mark.parametrize("mesh_name", ["sphere2", "ellipsoid2"])
@pytest.mark.parametrize("omega", [1.3, 1.7])
def test_factored_solves_match_explicit_dn(mesh_name, omega, request):
    mesh = request.getfixturevalue(mesh_name)
    eps = 0.05
    kappa = eps ** -2 - 1.0
    problem = make_problem(mesh, eps, omega)
    for z in (omega, 0.7, 1j):
        lam = interaction_operator(problem, z).matrix
        reference = eps * (1 - eps ** 2) * explicit_core_solve(
            mesh, eps * omega, eps * z, eps ** 2, 1 - eps ** 2,
            np.eye(mesh.n_panels))
        assert rel_gap(lam, reference) <= 1e-10, z

    trace = problem.incident.evaluate(problem.dilate(mesh.centroids), omega)
    charge = eps * (1 - eps ** 2) * explicit_core_solve(
        mesh, eps * omega, eps * omega, eps ** 2, 1 - eps ** 2, trace)
    reference = -eval_single_layer_potential(
        mesh, BoundaryDensity(charge), eps * omega, problem.contract(OBS)) / eps
    dilated = scattered_field_dilated(problem, OBS)
    assert rel_gap(dilated.scattered, reference) <= 1e-10

    scaled = problem.scaled_mesh()
    trace = problem.incident.evaluate(scaled.centroids, omega)
    flux = explicit_core_solve(scaled, omega, omega, 1.0, kappa, trace)
    reference = -kappa * eval_single_layer_potential(
        scaled, BoundaryDensity(flux), omega, OBS)
    direct = scattered_field_direct(problem, OBS)
    assert rel_gap(direct.scattered, reference) <= 1e-10


ROUTES = {
    "dilated": lambda p: scattered_field_dilated(p, OBS),
    "direct": lambda p: scattered_field_direct(p, OBS),
    "interaction": lambda p: interaction_operator(p, 0.7),
    "resolvent": lambda p: resolvent_correction_kernel(p, 1j, OBS[0], OBS[1]),
}
GUARDED = ("single layer S", "contrast matrix M")


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_guards_s_and_m(route, monkeypatch):
    problem = make_problem(make_icosphere(1.0, 1), 0.05, 1.3)
    original = scattering._guarded_lu
    contexts = []

    def recorder(matrix, context):
        contexts.append(context)
        return original(matrix, context)

    monkeypatch.setattr(scattering, "_guarded_lu", recorder)
    ROUTES[route](problem)
    assert [c.split(" at ")[0] for c in contexts] == list(GUARDED)

    for name in GUARDED:
        def trip(matrix, context, name=name):
            if context.startswith(name):
                raise NumericalGuardError(f"{context}: tripped")
            return original(matrix, context)

        monkeypatch.setattr(scattering, "_guarded_lu", trip)
        with pytest.raises(NumericalGuardError, match=name):
            ROUTES[route](problem)

    monkeypatch.setattr(scattering, "_guarded_lu", original)
    monkeypatch.setattr(boundary_calculus, "CONDITION_LIMIT", 1.0)
    with pytest.raises(NumericalGuardError, match="condition number"):
        ROUTES[route](problem)


def test_transmission_residual_small(sphere2):
    problem = make_problem(sphere2, 0.05, 1.3)
    assert transmission_residual(problem) <= 1e-8


def test_radiation_defect_outgoing(sphere2):
    problem = make_problem(sphere2, 0.05, 1.5)
    defect = radiation_defect(problem, step=1e-3)
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


def test_validity_warning():
    from bubblebem.mesh import make_icosphere
    mesh = make_icosphere(1.0, 1)
    with pytest.warns(UserWarning, match="validity"):
        ScatteringProblem(mesh, 0.5, 2.0, PlaneWave(np.array([0, 0, 1.0])))


# ----------------------------------------------------------------------------
# asymptotic amplitudes


def test_nonresonant_amplitude_value(sphere3, spectral3):
    problem = make_problem(sphere3, 0.05, 1.0, y0=np.zeros(3))
    fld = asymptotic_nonresonant(problem, OBS, spectral3)
    cap, wm2 = spectral3.capacitance, spectral3.minnaert_omega ** 2
    expected = 0.05 * cap / (wm2 - 1.0)
    assert fld.amplitude == pytest.approx(expected, rel=1e-12)
    # with the analytic sphere constants this is 0.1 pi
    assert abs(fld.amplitude) == pytest.approx(0.1 * np.pi, rel=2e-2)


def test_nonresonant_linear_in_eps(sphere2, spectral2):
    amps = [asymptotic_nonresonant(make_problem(sphere2, eps, 1.0), OBS,
                                   spectral2).amplitude
            for eps in (0.04, 0.02, 0.01)]
    assert amps[0] == pytest.approx(2 * amps[1], rel=1e-12)
    assert amps[1] == pytest.approx(2 * amps[2], rel=1e-12)


def test_nonresonant_sign_flip(sphere2, spectral2):
    wm = spectral2.minnaert_omega
    below = asymptotic_nonresonant(make_problem(sphere2, 0.05, wm - 0.3,
                                                y0=np.zeros(3)),
                                   OBS, spectral2).amplitude
    above = asymptotic_nonresonant(make_problem(sphere2, 0.05, wm + 0.3,
                                                y0=np.zeros(3)),
                                   OBS, spectral2).amplitude
    assert below.real > 0 > above.real


def test_nonresonant_rejects_resonance(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, spectral2.minnaert_omega)
    with pytest.raises(ValueError, match="Minnaert"):
        asymptotic_nonresonant(problem, OBS, spectral2)


def test_resonant_amplitude(sphere2, spectral2):
    wm = spectral2.minnaert_omega
    problem = make_problem(sphere2, 0.05, wm, y0=np.zeros(3))
    fld = asymptotic_resonant(problem, OBS, spectral2)
    assert abs(fld.amplitude) == pytest.approx(4 * np.pi / wm, rel=1e-12)
    # in the analytic sphere limit, 4 pi / sqrt(3) = 7.2552
    assert abs(fld.amplitude) == pytest.approx(4 * np.pi / np.sqrt(3), rel=2e-2)


def test_resonant_phase_and_eps_independence(sphere2, spectral2):
    wm = spectral2.minnaert_omega
    a = asymptotic_resonant(make_problem(sphere2, 0.05, wm, y0=np.zeros(3)),
                            OBS, spectral2)
    b = asymptotic_resonant(make_problem(sphere2, 0.01, wm, y0=np.zeros(3)),
                            OBS, spectral2)
    assert np.array_equal(a.scattered, b.scattered)
    uin_center = complex(a.incident[0]) * 0 + 1.0  # plane wave through origin
    assert np.angle(a.amplitude / uin_center) == pytest.approx(np.pi / 2,
                                                               abs=1e-12)


def test_uniform_reduces_to_resonant_at_peak(sphere2, spectral2):
    wm = spectral2.minnaert_omega
    problem = make_problem(sphere2, 0.05, wm, y0=np.zeros(3))
    uniform = asymptotic_uniform(problem, OBS, spectral2)
    resonant = asymptotic_resonant(problem, OBS, spectral2)
    assert abs(uniform.amplitude - resonant.amplitude) \
        <= 1e-14 * abs(resonant.amplitude)


def test_uniform_approaches_nonresonant(sphere2, spectral2):
    # far from resonance the two formulas differ at first order in eps
    omega = 1.0
    rel = []
    for eps in (0.04, 0.02, 0.01):
        problem = make_problem(sphere2, eps, omega)
        u = uniform_amplitude(problem, spectral2)
        n = asymptotic_nonresonant(problem, OBS, spectral2).amplitude
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
# monopole fitting


def test_fit_monopole_exact(sphere2):
    points = 12.0 * spherical_point_set(64)
    synthetic = 3j * green_function(1.1, points)
    amp, residual = fit_monopole(points, synthetic, 1.1, np.zeros(3))
    assert amp == pytest.approx(3j, rel=1e-13)
    assert residual <= 1e-13


def test_fit_monopole_with_dipole_contamination(sphere2):
    points = 12.0 * spherical_point_set(64)
    r = np.linalg.norm(points, axis=1)
    monopole = green_function(1.1, points)
    dipole = (points[:, 2] / r) * np.exp(1j * 1.1 * r) / r
    synthetic = 2.0 * monopole + 0.01 * np.abs(monopole).mean() * dipole
    amp, _ = fit_monopole(points, synthetic, 1.1, np.zeros(3))
    assert amp == pytest.approx(2.0, rel=2e-2)


def test_fit_monopole_pure_dipole_flagged(sphere2):
    points = 12.0 * spherical_point_set(64)
    r = np.linalg.norm(points, axis=1)
    dipole = (points[:, 2] / r) * np.exp(1j * 1.1 * r) / (4 * np.pi * r)
    amp, residual = fit_monopole(points, dipole, 1.1, np.zeros(3))
    scale = np.abs(dipole).max() * 4 * np.pi * 12.0
    assert abs(amp) <= 0.05 * scale
    assert residual >= 0.9


def test_monopole_amplitude_needs_enough_points(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.3)
    fld = scattered_field_dilated(problem, OBS, spectral2)
    with pytest.raises(FitError, match="16"):
        monopole_amplitude(fld, 1.3, np.zeros(3))


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


def test_sweep_workers_deterministic(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.6)
    grid = np.arange(1.5, 1.9001, 0.1)
    serial = frequency_sweep(problem, grid, "uniform", spectral2, workers=1)
    parallel = frequency_sweep(problem, grid, "uniform", spectral2, workers=4)
    assert [r.amplitude for r in serial.rows] \
        == [r.amplitude for r in parallel.rows]


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


def test_peak_fit_requires_interior_maximum(sphere2, spectral2):
    problem = make_problem(sphere2, 0.05, 1.0)
    grid = np.arange(1.0, 1.2001, 0.02)   # monotone stretch, max at the edge
    sweep = frequency_sweep(problem, grid, "uniform", spectral2)
    with pytest.raises(FitError, match="interior"):
        resonance_peak(sweep)


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
    what = k2_resonance_frequency(sphere2, spectral2)
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
