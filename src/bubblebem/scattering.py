"""Physical scattering solvers and their closed-form asymptotics.

Two independent solver routes are kept:

* ``scattered_field_direct`` assembles everything on the physically scaled
  boundary and solves the transmission integral equation there;
* ``scattered_field_dilated`` works on the unit-scale reference mesh with
  contracted wavenumbers and maps the result back through the similarity
  x = y0 + eps (y - y0).

The two are algebraically identical (see docs/scaling_identities.md for the
unwound change of variables) and agreeing to solver tolerance is a standing
invariant.  Asymptotic amplitudes, frequency sweeps, Lorentzian peak fits,
and the resolvent correction/point-interaction kernels complete the module.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_solve
from scipy.optimize import curve_fit

from .boundary_calculus import (NumericalGuardError, SpectralData, _guarded_lu,
                                spectral_data)
from .layer_ops import (DENSITY, TRACE, BoundaryDensity, BoundaryOperator,
                        assemble_double_layer, assemble_single_layer,
                        eval_single_layer_potential)
from .mesh import SurfaceMesh, build_mesh, surface_centroid

FIT_POINTS = 64
FIT_RADIUS_FACTOR = 10.0


class FitError(RuntimeError):
    """A least-squares fit could not be set up or did not converge."""


def green_function(z: complex, displacement: np.ndarray) -> np.ndarray:
    """Outgoing Helmholtz kernel e^{iz|d|}/(4 pi |d|)."""
    r = np.linalg.norm(np.atleast_2d(displacement), axis=-1)
    return np.exp(1j * z * r) / (4.0 * np.pi * r)


@dataclass(frozen=True)
class PlaneWave:
    """Plane wave A e^{i omega direction.x}; Helmholtz by construction."""

    direction: np.ndarray
    amplitude: complex = 1.0

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        n = np.linalg.norm(d)
        if n == 0:
            raise ValueError("plane-wave direction must be nonzero")
        object.__setattr__(self, "direction", d / n)

    def evaluate(self, points: np.ndarray, omega: float) -> np.ndarray:
        return self.amplitude * np.exp(
            1j * omega * (np.atleast_2d(points) @ self.direction))


@dataclass(frozen=True)
class PointSource:
    """Monopole source A G_omega(x - location); Helmholtz away from it."""

    location: np.ndarray
    amplitude: complex = 1.0

    def __post_init__(self):
        object.__setattr__(self, "location",
                           np.asarray(self.location, dtype=float))

    def evaluate(self, points: np.ndarray, omega: float) -> np.ndarray:
        return self.amplitude * green_function(
            omega, np.atleast_2d(points) - self.location)


@dataclass
class ScatteringProblem:
    """One bubble configuration: reference shape, placement, scale, drive.

    The reference mesh is unit scale; the physical scatterer is its image
    under x = y0 + eps (y - y0).  A loose validity warning fires when
    eps * omega * diameter exceeds ``validity_threshold``.
    """

    mesh: SurfaceMesh
    eps: float
    omega: float
    incident: PlaneWave | PointSource
    y0: np.ndarray | None = None
    guard_constant: float = 1.0
    validity_threshold: float = 1.0

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.y0 is None:
            self.y0 = surface_centroid(self.mesh)
        else:
            self.y0 = np.asarray(self.y0, dtype=float)
        product = self.eps * self.omega * self.mesh.diameter
        if product > self.validity_threshold:
            warnings.warn(
                f"eps*omega*diameter = {product:.3g} exceeds the validity "
                f"threshold {self.validity_threshold:g}; the small-bubble "
                "regime is doubtful", stacklevel=2)
        if isinstance(self.incident, PointSource):
            reach = self.eps * np.linalg.norm(self.mesh.vertices - self.y0,
                                              axis=1).max()
            if np.linalg.norm(self.incident.location - self.y0) <= reach:
                raise ValueError("point source lies inside the scatterer")

    @property
    def kappa(self) -> float:
        """Contrast factor 1/eps^2 - 1 of the transmission problem."""
        return self.eps ** -2 - 1.0

    def contract(self, points: np.ndarray) -> np.ndarray:
        """Physical coordinates -> reference coordinates."""
        return self.y0 + (np.atleast_2d(points) - self.y0) / self.eps

    def dilate(self, points: np.ndarray) -> np.ndarray:
        """Reference coordinates -> physical coordinates."""
        return self.y0 + self.eps * (np.atleast_2d(points) - self.y0)

    def scaled_mesh(self) -> SurfaceMesh:
        vertices = self.y0 + self.eps * (self.mesh.vertices - self.y0)
        return build_mesh(vertices, self.mesh.triangles)

    def in_guard_band(self, spectral: SpectralData) -> bool:
        return abs(self.omega - spectral.minnaert_omega) \
            < self.guard_constant * self.eps


@dataclass
class FieldResult:
    """Field samples plus the fitted monopole strength of the scattered part.

    total = incident + scattered pointwise; the fit residual is always
    reported, never silently dropped.
    """

    points: np.ndarray
    incident: np.ndarray
    scattered: np.ndarray
    total: np.ndarray
    amplitude: complex
    fit_residual: float
    method: str
    warnings: list[str] = field(default_factory=list)


def spherical_point_set(n: int) -> np.ndarray:
    """Deterministic near-uniform unit-sphere sample (Fibonacci lattice)."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)


def far_field_points(problem: ScatteringProblem) -> tuple[np.ndarray, float]:
    """Canonical 64-point fit sphere; radius 10*max(eps*diameter, 1/omega)."""
    radius = FIT_RADIUS_FACTOR * max(problem.eps * problem.mesh.diameter,
                                     1.0 / problem.omega)
    return problem.y0 + radius * spherical_point_set(FIT_POINTS), radius


def fit_monopole(points: np.ndarray, scattered: np.ndarray, omega: float,
                 y0: np.ndarray) -> tuple[complex, float]:
    """Least-squares monopole coefficient of u against G_omega(. - y0)."""
    g = green_function(omega, np.atleast_2d(points) - y0)
    denom = float(np.real(np.conj(g) @ g))
    if denom == 0.0:
        raise FitError("degenerate sample geometry: monopole basis vanishes")
    amplitude = complex(np.conj(g) @ scattered / denom)
    norm = float(np.linalg.norm(scattered))
    residual = float(np.linalg.norm(scattered - amplitude * g))
    return amplitude, residual / norm if norm > 0 else 0.0


def monopole_amplitude(fld: FieldResult, omega: float,
                       y0: np.ndarray) -> tuple[complex, float]:
    """Re-fit the monopole coefficient of a field result.

    Needs at least 16 sample points; the relative residual is returned with
    the coefficient so a poor monopole model is visible to the caller.
    """
    if len(fld.points) < 16:
        raise FitError(f"monopole fit needs >= 16 points, got {len(fld.points)}")
    return fit_monopole(fld.points, fld.scattered, omega, np.asarray(y0, float))


def _package_field(problem, points, scattered_at, method, spectral=None):
    """Assemble a FieldResult: user points + canonical fit sphere."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    fit_pts, _ = far_field_points(problem)
    all_pts = np.vstack([points, fit_pts])
    usc = scattered_at(all_pts)
    uin = problem.incident.evaluate(points, problem.omega)
    amplitude, residual = fit_monopole(fit_pts, usc[len(points):],
                                       problem.omega, problem.y0)
    notes = []
    if spectral is not None and problem.in_guard_band(spectral):
        notes.append(
            f"omega within {problem.guard_constant:g}*eps of the Minnaert "
            "frequency: quasi-resonant guard band")
    return FieldResult(points=points, incident=uin, scattered=usc[:len(points)],
                       total=uin + usc[:len(points)], amplitude=amplitude,
                       fit_residual=residual, method=method, warnings=notes)


# ----------------------------------------------------------------------------
# Interaction operator and the two solver routes


def _factor_transmission(mesh: SurfaceMesh, w: complex, z: complex,
                         kappa: float) -> tuple:
    """Factor S_w and M = I + kappa (1/2 + K_w) S_z S_w^{-1} on ``mesh``,
    each under the condition guard, without forming DN_w.

    Since DN_w = S_w^{-1}(1/2 + K_w), S_w^{-1} M S_w = I + kappa DN_w S_z and

        (I + kappa DN_w S_z)^{-1} DN_w = S_w^{-1} M^{-1} (1/2 + K_w).

    At z == w the factor S_z S_w^{-1} is the identity and S_z is not built.
    Returns S_w, 1/2 + K_w and the LU factors of S_w and of M.
    """
    # K has the larger assembly temporaries, so it is built before any n x n
    # matrix is alive; the identity shifts are added in place.
    diagonal = slice(None, None, mesh.n_panels + 1)
    half_k = assemble_double_layer(mesh, w).matrix
    half_k.flat[diagonal] += 0.5
    s = assemble_single_layer(mesh, w).matrix
    s_lu = _guarded_lu(s, f"single layer S at wavenumber {w:.6g}")
    coupling = half_k
    if z != w:
        s_z = assemble_single_layer(mesh, z).matrix
        coupling = half_k @ lu_solve(s_lu, s_z.T, trans=1).T
    m = kappa * coupling
    m.flat[diagonal] += 1.0
    m_lu = _guarded_lu(m, f"contrast matrix M at wavenumber {w:.6g}, "
                          f"spectral parameter {z:.6g}")
    return s, half_k, s_lu, m_lu


def interaction_operator(problem: ScatteringProblem,
                         z: complex) -> BoundaryOperator:
    """Frequency-dependent boundary operator of the resolvent difference:

        eps (1 - eps^2) (eps^2 + (1 - eps^2) DN_{eps w} S_{eps z})^{-1} DN_{eps w}
          = eps kappa S_{eps w}^{-1} M^{-1} (1/2 + K_{eps w}),

    assembled exactly from the discrete contracted-wavenumber operators
    (M as in ``_factor_transmission``).
    """
    eps = problem.eps
    _, half_k, s_lu, m_lu = _factor_transmission(
        problem.mesh, eps * problem.omega, eps * z, problem.kappa)
    matrix = eps * problem.kappa * lu_solve(s_lu, lu_solve(m_lu, half_k))
    return BoundaryOperator(matrix, domain=TRACE, codomain=DENSITY,
                            wavenumber=complex(z), label="Lambda")


def _transmission_solve(mesh: SurfaceMesh, w: complex, z: complex,
                        kappa: float, trace: np.ndarray) -> np.ndarray:
    """(I + kappa DN_w S_z)^{-1} DN_w trace = S_w^{-1} M^{-1} (1/2 + K_w) trace;
    the factors are released on return."""
    _, half_k, s_lu, m_lu = _factor_transmission(mesh, w, z, kappa)
    return lu_solve(s_lu, lu_solve(m_lu, half_k @ trace))


def scattered_field_dilated(problem: ScatteringProblem, points: np.ndarray,
                            spectral: SpectralData | None = None) -> FieldResult:
    """Reference-mesh solve: u_sc = -(1/eps) SL_{eps w}[Lambda trace] o contract.

    The incident trace is evaluated analytically at the images of the panel
    centroids; the single-layer potential at contracted wavenumber eps*omega
    is mapped back to physical coordinates by the similarity.
    """
    eps, omega, mesh = problem.eps, problem.omega, problem.mesh
    trace = problem.incident.evaluate(problem.dilate(mesh.centroids), omega)
    charge = eps * problem.kappa * _transmission_solve(
        mesh, eps * omega, eps * omega, problem.kappa, trace)

    def scattered_at(pts):
        return -eval_single_layer_potential(
            mesh, BoundaryDensity(charge, space=DENSITY), eps * omega,
            problem.contract(pts)) / eps

    return _package_field(problem, points, scattered_at, "dilated", spectral)


def scattered_field_direct(problem: ScatteringProblem, points: np.ndarray,
                           spectral: SpectralData | None = None,
                           contrast: float | None = None) -> FieldResult:
    """Physical-boundary solve of the transmission integral equation.

    Solves (I + contrast DN S) flux = DN trace for the interior flux as
    S^{-1} M^{-1} (1/2 + K) trace and represents u_sc as a single-layer
    potential with strength -(1/eps^2 - 1).  ``contrast`` overrides the
    physical factor (0 recovers the homogeneous medium).
    """
    omega = problem.omega
    if contrast is None:
        contrast = problem.kappa
    scaled = problem.scaled_mesh()
    trace = problem.incident.evaluate(scaled.centroids, omega)
    flux = _transmission_solve(scaled, omega, omega, contrast, trace)

    def scattered_at(pts):
        return -contrast * eval_single_layer_potential(
            scaled, BoundaryDensity(flux, space=DENSITY), omega, pts)

    return _package_field(problem, points, scattered_at, "direct", spectral)


def transmission_residual(problem: ScatteringProblem) -> float:
    """Interface-condition check of the direct solve: the computed flux must
    equal DN applied to the total boundary trace (relative residual), with
    DN applied through the LU of S."""
    omega, contrast = problem.omega, problem.kappa
    scaled = problem.scaled_mesh()
    trace = problem.incident.evaluate(scaled.centroids, omega)
    s, half_k, s_lu, m_lu = _factor_transmission(scaled, omega, omega, contrast)
    flux = lu_solve(s_lu, lu_solve(m_lu, half_k @ trace))
    dn_total = lu_solve(s_lu, half_k @ (trace - contrast * (s @ flux)))
    return float(np.linalg.norm(dn_total - flux) / np.linalg.norm(flux))


# ----------------------------------------------------------------------------
# Closed-form asymptotic fields


def _asymptotic_field(problem, points, amplitude, method, spectral):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    uin = problem.incident.evaluate(points, problem.omega)
    usc = amplitude * green_function(problem.omega, points - problem.y0)
    notes = []
    if spectral is not None and problem.in_guard_band(spectral):
        notes.append("inside the quasi-resonant guard band")
    return FieldResult(points=points, incident=uin, scattered=usc,
                       total=uin + usc, amplitude=complex(amplitude),
                       fit_residual=0.0, method=method, warnings=notes)


def _incident_at_center(problem) -> complex:
    return complex(problem.incident.evaluate(problem.y0[None, :],
                                             problem.omega)[0])


def nonresonant_amplitude(problem: ScatteringProblem,
                          spectral: SpectralData) -> complex:
    omega, eps = problem.omega, problem.eps
    wm2 = spectral.minnaert_omega ** 2
    if omega ** 2 == wm2:
        raise ValueError("the off-resonance formula is undefined at the "
                         "Minnaert frequency")
    return (eps * omega ** 2 * spectral.capacitance / (wm2 - omega ** 2)
            * _incident_at_center(problem))


def resonant_amplitude(problem: ScatteringProblem) -> complex:
    return 4j * np.pi / problem.omega * _incident_at_center(problem)


def uniform_amplitude(problem: ScatteringProblem,
                      spectral: SpectralData) -> complex:
    omega, eps, cap = problem.omega, problem.eps, spectral.capacitance
    denom = (spectral.minnaert_omega ** 2 - omega ** 2
             - 1j * eps * omega ** 3 * cap / (4.0 * np.pi))
    return eps * omega ** 2 * cap / denom * _incident_at_center(problem)


def asymptotic_nonresonant(problem: ScatteringProblem, points: np.ndarray,
                           spectral: SpectralData | None = None) -> FieldResult:
    """Leading-order monopole field away from resonance (rejects omega_M)."""
    if spectral is None:
        spectral = spectral_data(problem.mesh)
    return _asymptotic_field(problem, points,
                             nonresonant_amplitude(problem, spectral),
                             "nonresonant", spectral)


def asymptotic_resonant(problem: ScatteringProblem, points: np.ndarray,
                        spectral: SpectralData | None = None) -> FieldResult:
    """Scale-free resonant monopole field (intended at omega = omega_M)."""
    return _asymptotic_field(problem, points, resonant_amplitude(problem),
                             "resonant", spectral)


def asymptotic_uniform(problem: ScatteringProblem, points: np.ndarray,
                       spectral: SpectralData | None = None) -> FieldResult:
    """Lorentzian-type amplitude interpolating both regimes."""
    if spectral is None:
        spectral = spectral_data(problem.mesh)
    return _asymptotic_field(problem, points,
                             uniform_amplitude(problem, spectral),
                             "uniform", spectral)


def lorentzian_halfwidth(eps: float, spectral: SpectralData) -> float:
    """Half-width in omega^2 of the uniform amplitude at resonance:
    eps * omega_M^3 * capacitance / 4 pi."""
    return eps * spectral.minnaert_omega ** 3 * spectral.capacitance / (4 * np.pi)


def radiation_defect(problem: ScatteringProblem, solver=scattered_field_dilated,
                     step: float = 1e-4) -> float:
    """Discrete outgoing-wave check on the fit sphere.

    Returns max |d u_sc/dr - i omega u_sc| * r / max|u_sc|; an exact outgoing
    monopole gives 1, an incoming wave gives O(omega r) >> 1.
    """
    pts, radius = far_field_points(problem)
    rays = (pts - problem.y0) / radius
    fld = solver(problem, np.vstack([pts, pts + step * rays]))
    n = len(pts)
    du = (fld.scattered[n:] - fld.scattered[:n]) / step
    defect = np.abs(du - 1j * problem.omega * fld.scattered[:n])
    return float(defect.max() * radius / np.abs(fld.scattered[:n]).max())


# ----------------------------------------------------------------------------
# Frequency sweeps and peak extraction


@dataclass
class SweepRow:
    omega: float
    amplitude: complex | None
    abs2: float | None
    prediction_uniform: complex
    prediction_nonresonant: complex | None
    prediction_resonant: complex
    guard_band: bool
    error: str | None = None


@dataclass
class SweepResult:
    method: str
    eps: float
    rows: list[SweepRow]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def frequency_sweep(problem: ScatteringProblem, omega_grid, method: str,
                    spectral: SpectralData | None = None,
                    workers: int = 1) -> SweepResult:
    """Amplitude table over a sorted positive frequency grid.

    Per-frequency solver failures are recorded in the row and the sweep
    continues; rows inside |omega - omega_M| < guard_constant * eps carry a
    warning flag rather than an error.
    """
    grid = [float(w) for w in omega_grid]
    if any(w <= 0 for w in grid) or grid != sorted(grid):
        raise ValueError("frequency grid must be sorted and positive")
    if spectral is None:
        spectral = spectral_data(problem.mesh)
    solvers = {"direct": scattered_field_direct,
               "dilated": scattered_field_dilated}
    if method not in solvers and method not in ("uniform", "nonresonant"):
        raise ValueError(f"unknown sweep method {method!r}")

    def one(omega: float) -> SweepRow:
        sub = ScatteringProblem(problem.mesh, problem.eps, omega,
                                problem.incident, y0=problem.y0,
                                guard_constant=problem.guard_constant,
                                validity_threshold=np.inf)
        wm = spectral.minnaert_omega
        try:
            nonres = (None if omega == wm
                      else nonresonant_amplitude(sub, spectral))
        except ValueError:
            nonres = None
        unif = uniform_amplitude(sub, spectral)
        reso = resonant_amplitude(sub)
        guard = sub.in_guard_band(spectral)
        try:
            if method == "uniform":
                amp = unif
            elif method == "nonresonant":
                if nonres is None:
                    raise ValueError("off-resonance formula undefined at omega_M")
                amp = nonres
            else:
                fld = solvers[method](sub, far_field_points(sub)[0], spectral)
                amp = fld.amplitude
            return SweepRow(omega, complex(amp), float(abs(amp) ** 2), unif,
                            nonres, reso, guard)
        except (NumericalGuardError, ValueError) as exc:
            return SweepRow(omega, None, None, unif, nonres, reso, guard,
                            error=str(exc))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, grid))
    else:
        rows = [one(w) for w in grid]
    return SweepResult(method=method, eps=problem.eps, rows=rows)


@dataclass
class PeakFit:
    omega_peak: float
    width: float       # half-width of |A|^2 in the omega^2 variable
    height: float
    uncertainties: tuple[float, float, float]  # (omega_peak, width, height)
    covariance: np.ndarray


def resonance_peak(sweep: SweepResult) -> PeakFit:
    """Lorentzian fit of |A|^2 in omega^2, initialized at the grid maximum.

    The Lorentzian (restricted to its core, |A|^2 >= max/3) sets width and
    height; the peak location is then refined by the vertex of a quadratic
    through the top of the curve, which tracks the true maximizer even when
    the slowly varying prefactor skews the line shape.  Raises FitError when
    the grid maximum sits on the boundary (no interior peak) or the fit does
    not converge.
    """
    omegas = np.array([r.omega for r in sweep.rows if r.abs2 is not None])
    abs2 = np.array([r.abs2 for r in sweep.rows if r.abs2 is not None])
    if len(omegas) < 5:
        raise FitError("too few valid sweep rows for a peak fit")
    imax = int(np.argmax(abs2))
    if imax in (0, len(omegas) - 1):
        raise FitError("no interior maximum in the sweep")
    nu = omegas ** 2

    def model(x, center, width, height):
        return height / (1.0 + ((x - center) / width) ** 2)

    core = abs2 >= abs2[imax] / 3.0
    if core.sum() < 5:
        core = np.ones_like(abs2, dtype=bool)
    span = nu[-1] - nu[0]
    above = abs2 >= abs2[imax] / 2.0
    width0 = max(0.5 * (nu[above][-1] - nu[above][0]), span / len(nu))
    p0 = (nu[imax], width0, abs2[imax])
    try:
        popt, pcov = curve_fit(model, nu[core], abs2[core], p0=p0, maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"peak fit did not converge: {exc}") from exc
    center, width, height = popt

    for frac in (0.9, 0.75):
        top = abs2 >= frac * abs2[imax]
        if top.sum() >= 5:
            quad = np.polyfit(nu[top], abs2[top], 2)
            if quad[0] < 0:
                center = -quad[1] / (2.0 * quad[0])
            break
    if center <= 0:
        raise FitError(f"peak fit landed at nonphysical omega^2 = {center:g}")
    sigma = np.sqrt(np.maximum(np.diag(pcov), 0.0))
    # d omega = d nu / (2 omega)
    return PeakFit(omega_peak=float(np.sqrt(center)),
                   width=float(abs(width)), height=float(height),
                   uncertainties=(float(sigma[0] / (2 * np.sqrt(center))),
                                  float(sigma[1]), float(sigma[2])),
                   covariance=pcov)


# ----------------------------------------------------------------------------
# Resolvent correction and the point-interaction limit


def resolvent_correction_kernel(problem: ScatteringProblem, z: complex,
                                x: np.ndarray, y: np.ndarray) -> complex:
    """Kernel of the resolvent difference at (x, y), for Im z > 0.

    Realized as -(1/eps) times the single-layer potential (contracted
    wavenumber eps z) of the interaction operator applied to the boundary
    trace of G_z(. - y) composed with the dilation.
    """
    if complex(z).imag <= 0:
        raise ValueError(f"resolvent kernel needs Im z > 0, got z = {z}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eps, mesh = problem.eps, problem.mesh
    trace = green_function(z, problem.dilate(mesh.centroids) - y)
    charge = eps * problem.kappa * _transmission_solve(
        mesh, eps * problem.omega, eps * z, problem.kappa, trace)
    value = -eval_single_layer_potential(
        mesh, BoundaryDensity(charge, space=DENSITY), eps * z,
        problem.contract(x[None, :])) / eps
    return complex(value[0])


def point_perturbation_kernel(z: complex, y0: np.ndarray, x: np.ndarray,
                              y: np.ndarray) -> complex:
    """Resolvent kernel of the point-perturbed Laplacian at y0:

        G_z(x - y) + 4 pi (i/z) G_z(x - y0) G_z(y - y0).
    """
    z = complex(z)
    if z == 0:
        raise ValueError("the point-interaction kernel is undefined at z = 0")
    y0 = np.asarray(y0, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for a, b, names in ((x, y, "x and y"), (x, y0, "x and y0"),
                        (y, y0, "y and y0")):
        if np.linalg.norm(a - b) == 0:
            raise ValueError(f"{names} must be distinct")
    direct = green_function(z, (x - y)[None, :])[0]
    correction = (4.0 * np.pi * (1j / z)
                  * green_function(z, (x - y0)[None, :])[0]
                  * green_function(z, (y - y0)[None, :])[0])
    return complex(direct + correction)
