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

A dilated sweep reads its contracted S and K from one wavenumber series
stack, built by the rule it shares with ``verify``
(``boundary_calculus._series_stack``), and solves the rows the stack
reaches together, by Krylov passes over the stack preconditioned by one
factorization at the grid's centre (``boundary_calculus._lockstep_flux``).
The peak fit, ``resonance_peak``, is a Levenberg-Marquardt fit on numpy
arrays (``_lorentzian_fit``), each damped step solved by numpy's Cholesky
factorization, so no command loads ``scipy.optimize`` and a process that
fits a peak keeps no optimizer resident for the sweeps after it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .boundary_calculus import (NumericalGuardError, SpectralData,
                                _contract, _contrast_factors, _kappa,
                                _lockstep_flux, _series_stack,
                                _transmission_flux, check_eps)
# assemble_single_layer is not called here; it stays importable from this
# module because perfbench's tracer test looks it up in every namespace.
from .layer_ops import (SeriesStack, assemble_single_layer,
                        eval_single_layer_potential, single_layer_monopole)
from .mesh import SurfaceMesh, scale_about, surface_centroid

METHODS = ("direct", "dilated", "uniform", "nonresonant")


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
        # a non-finite component makes the norm inf or nan
        if not (math.isfinite(n) and n > 0):
            raise ValueError(f"plane-wave direction {d} is zero or not finite")
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
        location = np.asarray(self.location, dtype=float)
        if not np.all(np.isfinite(location)):
            raise ValueError(f"point-source location {location} is not finite")
        object.__setattr__(self, "location", location)

    def evaluate(self, points: np.ndarray, omega: float) -> np.ndarray:
        return self.amplitude * green_function(
            omega, np.atleast_2d(points) - self.location)


# The rule for valid physical input, one check each; ScatteringProblem,
# frequency_sweep and the CLI's settings all call these, and check_eps with
# them (it lives in boundary_calculus, beside the contraction it guards).
# The incident waves check themselves, and ScatteringProblem checks its
# center, its guard constant and that a point source lies outside.


# the largest omega whose cube, the highest power of omega the closed-form
# amplitudes take, is a finite float
_OMEGA_MAX = float(np.finfo(float).max) ** (1 / 3)


# the smallest contracted wavenumber eps * omega: the fit sphere
# (``far_field_points``), of radius 10/omega, contracted by 1/eps, then has
# a squared radius of at most half the largest float, so that the squared
# distances the dilated route's potential takes there are finite
_CONTRACTED_MIN = 10 * (2 / float(np.finfo(float).max)) ** 0.5


def check_omega(omega: float) -> None:
    if not 0 < omega <= _OMEGA_MAX:
        raise ValueError("omega must be finite and positive, with omega^3 "
                         f"finite, got {omega}")


def check_grid(omega_grid) -> list[float]:
    """The grid as floats, if it is non-empty and sorted and every omega
    in it meets ``check_omega``'s rule."""
    grid = [float(w) for w in omega_grid]
    if (not grid or not all(0 < w <= _OMEGA_MAX for w in grid)
            or grid != sorted(grid)):
        raise ValueError("frequency grid must be non-empty, sorted, finite "
                         f"and positive, with omega^3 finite, got {grid}")
    return grid


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
        check_eps(self.eps)
        check_omega(self.omega)
        if self.eps * self.omega < _CONTRACTED_MIN:
            raise ValueError(f"eps * omega must be at least "
                             f"{_CONTRACTED_MIN:.3g}, with the fit sphere's "
                             "squared radius finite, got "
                             f"{self.eps * self.omega:g}")
        self.y0 = (surface_centroid(self.mesh) if self.y0 is None
                   else np.asarray(self.y0, dtype=float))
        if not np.all(np.isfinite(self.y0)):
            raise ValueError(f"center y0 = {self.y0} is not finite")
        if not (math.isfinite(self.guard_constant)
                and self.guard_constant >= 0):
            raise ValueError("guard constant must be finite and "
                             f"non-negative, got {self.guard_constant}")
        product = self.eps * self.omega * self.mesh.diameter
        if product > self.validity_threshold:
            warnings.warn(
                f"eps*omega*diameter = {product:.3g} exceeds the validity "
                f"threshold {self.validity_threshold:g}; the small-bubble "
                "regime is doubtful", stacklevel=2)
        # the norm squares the components, so a distance past about 1e154
        # overflows: the center's to the mesh in the monopole amplitude,
        # the point source's in every field of the source
        reach = np.linalg.norm(self.mesh.vertices - self.y0, axis=1).max()
        if not math.isfinite(reach):
            raise ValueError("center distance to the mesh overflows a float")
        if isinstance(self.incident, PointSource):
            distance = np.linalg.norm(self.incident.location - self.y0)
            if not math.isfinite(distance):
                raise ValueError("point source distance overflows a float")
            if distance <= self.eps * reach:
                raise ValueError("point source lies inside the scatterer")

    @property
    def kappa(self) -> float:
        """Contrast factor 1/eps^2 - 1 of the transmission problem."""
        return _kappa(self.eps)

    def contract(self, points: np.ndarray) -> np.ndarray:
        """Physical coordinates -> reference coordinates."""
        return self.y0 + (np.atleast_2d(points) - self.y0) / self.eps

    def dilate(self, points: np.ndarray) -> np.ndarray:
        """Reference coordinates -> physical coordinates."""
        return self.y0 + self.eps * (np.atleast_2d(points) - self.y0)

    def scaled_mesh(self) -> SurfaceMesh:
        """The physical scatterer: the reference mesh under ``dilate``."""
        return scale_about(self.mesh, self.eps, self.y0)

    def in_guard_band(self, spectral: SpectralData) -> bool:
        return abs(self.omega - spectral.minnaert_omega) \
            < self.guard_constant * self.eps


@dataclass
class FieldResult:
    """Field samples plus the monopole amplitude A of the scattered part,
    u_sc = A G_omega(. - y0) + (terms of order l >= 1) outside the
    scatterer; total = incident + scattered pointwise.

    A solve's A is the exact l = 0 coefficient of its single-layer
    potential (``layer_ops.single_layer_monopole``), a closed form's the
    formula's value.
    """

    points: np.ndarray
    incident: np.ndarray
    scattered: np.ndarray
    total: np.ndarray
    amplitude: complex
    method: str


def spherical_point_set(n: int) -> np.ndarray:
    """Deterministic near-uniform unit-sphere sample (Fibonacci lattice)."""
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)


def far_field_points(problem: ScatteringProblem) -> tuple[np.ndarray, float]:
    """Canonical 64-point fit sphere; radius 10*max(eps*diameter, 1/omega)."""
    radius = 10.0 * max(problem.eps * problem.mesh.diameter, 1.0 / problem.omega)
    return problem.y0 + radius * spherical_point_set(64), radius


def _field_result(problem, points, scattered_at, amplitude, method):
    """FieldResult of ``method`` at ``points``, which may be none: the
    scattered field ``scattered_at(points)``, the incident and total fields
    and the monopole ``amplitude``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    uin = problem.incident.evaluate(points, problem.omega)
    scattered = scattered_at(points)
    return FieldResult(points=points, incident=uin, scattered=scattered,
                       total=uin + scattered, amplitude=complex(amplitude),
                       method=method)


def _warn_refused(omega: float, why: str | None) -> None:
    """Warn, given ``why``, that a solve's GMRES was refused and why."""
    if why is not None:
        warnings.warn(f"omega = {omega:g}: GMRES refused ({why}); solved by "
                      "LU factorization")


# ----------------------------------------------------------------------------
# The two solver routes


def _dilated_potential(problem: ScatteringProblem, flux: np.ndarray,
                       z: complex) -> tuple:
    """The reference-mesh charge eps kappa ``flux`` of an interior flux of
    the contracted problem at spectral parameter ``z``, and its scattered
    field u_sc = -(1/eps) SL_{eps z}[charge] o contract as a function of
    physical points: the tail the dilated solve and the resolvent kernel
    share."""
    eps = problem.eps
    charge = eps * problem.kappa * flux
    return charge, lambda pts: -eval_single_layer_potential(
        problem.mesh, charge, eps * z, problem.contract(pts)) / eps


def scattered_field_dilated(problem: ScatteringProblem, points: np.ndarray,
                            spectral: SpectralData) -> FieldResult:
    """Reference-mesh solve: u_sc = -(1/eps) SL_{eps w}[Lambda trace] o contract.

    The incident trace is evaluated analytically at the images of the panel
    centroids, and the interior flux at the contracted wavenumber eps*omega
    is ``boundary_calculus._transmission_flux``'s, by GMRES preconditioned
    by the LU of S_0 in ``spectral``, the reference mesh's; the operators
    are released once it is solved, and a refused GMRES is a warning.
    The single-layer potential of the charge eps kappa flux at eps*omega is
    mapped back to physical coordinates by the similarity.  Since
    G_{eps w}((x - y0)/eps) = eps G_w(x - y0), the amplitude is
    -Σ_j charge_j ∫_{T_j} j_0(eps w |y - y0|) dσ on the reference mesh.
    """
    omega, mesh = problem.omega, problem.mesh
    flux, why = _transmission_flux(
        mesh, _contract(problem.eps, omega, omega)[0], problem.kappa,
        problem.incident.evaluate(problem.dilate(mesh.centroids), omega),
        spectral)
    _warn_refused(omega, why)
    charge, potential = _dilated_potential(problem, flux, omega)
    return _field_result(problem, points, potential,
                         _dilated_amplitude(problem, charge, omega),
                         "dilated")


def _dilated_amplitude(problem: ScatteringProblem, charge, omega):
    """The monopole amplitude of the dilated route's reference-mesh charge
    at frequency ``omega``: -Σ_j charge_j ∫_{T_j} j_0(eps w |y - y0|) dσ.
    A block of charges, one row per frequency in ``omega``, gives the array
    of their amplitudes."""
    return -single_layer_monopole(problem.mesh, charge,
                                  problem.eps * np.asarray(omega), problem.y0)


def scattered_field_direct(problem: ScatteringProblem, points: np.ndarray,
                           spectral: SpectralData) -> FieldResult:
    """Physical-boundary solve of the transmission integral equation.

    Solves (I + kappa DN S) flux = DN trace, kappa = 1/eps^2 - 1, for the
    interior flux as S^{-1} M^{-1} (1/2 + K) trace and represents u_sc as a
    single-layer potential with strength -kappa; the amplitude is
    -kappa Σ_j flux_j ∫_{T_j} j_0(omega |y - y0|) dσ.  The flux is
    ``boundary_calculus._transmission_flux``'s: the scaled mesh's S_0 is
    eps times the reference mesh's, whose LU in ``spectral`` preconditions
    S.  The operators are released once the flux is solved, before the
    potential is evaluated, and a refused GMRES is a warning.
    """
    omega, kappa = problem.omega, problem.kappa
    scaled = problem.scaled_mesh()
    flux, why = _transmission_flux(
        scaled, omega, kappa, problem.incident.evaluate(scaled.centroids,
                                                        omega),
        spectral, problem.eps)
    _warn_refused(omega, why)
    return _field_result(
        problem, points,
        lambda pts: -kappa * eval_single_layer_potential(scaled, flux, omega,
                                                         pts),
        -kappa * single_layer_monopole(scaled, flux, omega, problem.y0),
        "direct")


# ----------------------------------------------------------------------------
# Closed-form asymptotic amplitudes


def _incident_at_center(problem) -> complex:
    return complex(problem.incident.evaluate(problem.y0[None, :],
                                             problem.omega)[0])


def nonresonant_amplitude(problem: ScatteringProblem,
                          spectral: SpectralData) -> complex:
    """Leading-order monopole amplitude away from resonance (rejects
    omega_M)."""
    omega, eps = problem.omega, problem.eps
    wm2 = spectral.minnaert_omega ** 2
    if omega ** 2 == wm2:
        raise ValueError("the off-resonance formula is undefined at the "
                         "Minnaert frequency")
    return (eps * omega ** 2 * spectral.capacitance / (wm2 - omega ** 2)
            * _incident_at_center(problem))


def resonant_amplitude(problem: ScatteringProblem) -> complex:
    """Scale-free resonant monopole amplitude (intended at omega = omega_M)."""
    return 4j * np.pi / problem.omega * _incident_at_center(problem)


def uniform_amplitude(problem: ScatteringProblem,
                      spectral: SpectralData) -> complex:
    """Lorentzian-type monopole amplitude interpolating both regimes."""
    omega, eps, cap = problem.omega, problem.eps, spectral.capacitance
    denom = (spectral.minnaert_omega ** 2 - omega ** 2
             - 1j * eps * omega ** 3 * cap / (4.0 * np.pi))
    return eps * omega ** 2 * cap / denom * _incident_at_center(problem)


def scattered_field(problem: ScatteringProblem, points: np.ndarray, method: str,
                    spectral: SpectralData) -> FieldResult:
    """The field of ``method``, one of METHODS: the direct or the dilated
    solve, or the monopole field A G_omega(. - y0) of the uniform or
    off-resonance asymptotic amplitude A.
    """
    if method == "direct":
        return scattered_field_direct(problem, points, spectral)
    if method == "dilated":
        return scattered_field_dilated(problem, points, spectral)
    closed_form = {"uniform": uniform_amplitude,
                   "nonresonant": nonresonant_amplitude}
    if method not in closed_form:
        raise ValueError(f"unknown method {method!r}; choose from "
                         f"{', '.join(METHODS)}")
    amplitude = closed_form[method](problem, spectral)
    return _field_result(
        problem, points,
        lambda pts: amplitude * green_function(problem.omega, pts - problem.y0),
        amplitude, method)


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
                    spectral: SpectralData) -> SweepResult:
    """Amplitude table of ``method`` (one of METHODS) over a sorted, finite,
    positive frequency grid.

    A row's amplitude is its solve's exact monopole coefficient (or the
    closed form's value), so no row samples the field.  Per-frequency
    solver failures are recorded in the row and the sweep continues; rows
    inside |omega - omega_M| < guard_constant * eps carry a warning flag
    rather than an error.

    A dilated sweep assembles the reference mesh once, as a series stack
    (``boundary_calculus._series_stack`` of the studies (eps, omega, omega)
    over the grid), and solves every row the stack reaches in lockstep
    (``boundary_calculus._lockstep_flux``): Krylov passes over the stack
    from one factorization at the grid's centre, no factorization per row.
    A row the stack does not reach, or that the lockstep solve does not
    accept, is solved on its own from exact operators, as a single dilated
    solve is (``boundary_calculus._transmission_flux``), and so is every
    row of a direct sweep.  The stack's fallbacks and each row the
    lockstep solve left, with the reason, are warnings, and then, in grid
    order, so is each refused GMRES of a row solved on its own, in the
    single solve's words.
    """
    grid = check_grid(omega_grid)
    if method not in METHODS:
        raise ValueError(f"unknown sweep method {method!r}")
    subs = [ScatteringProblem(problem.mesh, problem.eps, omega,
                              problem.incident, y0=problem.y0,
                              guard_constant=problem.guard_constant,
                              validity_threshold=np.inf) for omega in grid]
    amplitudes = {}
    if method == "dilated":
        stack = _series_stack(
            spectral, [(sub.eps, sub.omega, sub.omega) for sub in subs])
        centroids = problem.dilate(problem.mesh.centroids)
        fluxes = {}
        for j, flux, why in _lockstep_flux(
                spectral, stack, problem.eps, grid,
                lambda j: problem.incident.evaluate(centroids, grid[j])):
            if flux is None:
                warnings.warn(f"lockstep sweep: omega = {grid[j]:g} solved "
                              f"on its own ({why})")
            else:
                fluxes[j] = flux
        if fluxes:
            # one monopole pass for every lockstep row's charge
            amplitudes = dict(zip(fluxes, map(complex, _dilated_amplitude(
                problem,
                problem.eps * problem.kappa * np.array([*fluxes.values()]),
                [grid[j] for j in fluxes]))))

    def one(j: int, sub: ScatteringProblem) -> SweepRow:
        try:
            nonres = nonresonant_amplitude(sub, spectral)
        except ValueError:
            nonres = None
        row = SweepRow(sub.omega, None, None, uniform_amplitude(sub, spectral),
                       nonres, resonant_amplitude(sub),
                       sub.in_guard_band(spectral))
        try:
            if j not in amplitudes:
                # the amplitude is a panel sum: a row samples no field
                amplitudes[j] = scattered_field(sub, np.empty((0, 3)), method,
                                                spectral).amplitude
            row.amplitude = amplitudes[j]
            row.abs2 = float(abs(row.amplitude) ** 2)
        except (NumericalGuardError, ValueError) as exc:
            row.error = str(exc)
        return row

    return SweepResult(method=method, eps=problem.eps,
                       rows=[one(j, sub) for j, sub in enumerate(subs)])


@dataclass
class PeakFit:
    omega_peak: float
    width: float       # half-width of |A|^2 in the omega^2 variable
    height: float
    uncertainties: tuple[float, float, float]  # (omega_peak, width, height)
    covariance: np.ndarray


# The Lorentzian fit: the steps it may take, and the relative change of
# every parameter below which a step ends it
_FIT_STEPS = 500
_FIT_XTOL = 1e-9


def _lorentzian_fit(x: np.ndarray, y: np.ndarray,
                    p0) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fit of h / (1 + ((x - c) / w)^2) to the points (x, y)
    from p0 = (c, w, h), and the covariance of (c, w, h).

    Levenberg-Marquardt with the analytic Jacobian J: each step solves
    (J^T J + mu D) step = -J^T r, D the diagonal of J^T J (Marquardt's
    scaling), through numpy's Cholesky factor of the damped matrix; a
    matrix that has none is a singular step.  mu follows Nielsen's rule
    (Madsen, Nielsen and Tingleff, "Methods for non-linear least squares
    problems", 2004): after a step that lowers the sum of squared
    residuals (SSR) it is scaled by max(1/3, 1 - (2 rho - 1)^3), rho (at
    most 1) the fall in SSR over the fall the linear model predicts; after
    one that does not it grows by a factor that doubles with each such
    step in a row.  The fit ends once a step moves no parameter by more
    than ``_FIT_XTOL`` of its value; a step that cannot lower the SSR any
    more is that small.  The covariance is curve_fit's: the SVD
    pseudo-inverse of J^T J at the fit, times SSR / (m - 3).  Raises
    FitError after ``_FIT_STEPS`` steps or on a singular step.
    """
    def at(c, w, h):
        t = (x - c) / w
        d = 1.0 / (1.0 + t * t)
        r = h * d - y
        u = (2.0 * h / w) * d * d * t
        # rows: the model's derivatives in c, w and h
        return r, float(r @ r), np.array([u, u * t, d])

    p = np.array(p0, dtype=float)
    r, ssr, jac = at(*p)
    mu, growth = 1e-3, 2.0
    for _ in range(_FIT_STEPS):
        normal, grad = jac @ jac.T, jac @ r
        scale = normal.diagonal()
        try:
            lower = np.linalg.cholesky(normal + np.diag(mu * scale))
        except np.linalg.LinAlgError:
            raise FitError("peak fit did not converge: singular step") \
                from None
        step = -np.linalg.solve(lower.T, np.linalg.solve(lower, grad))
        trial = p + step
        r_t, ssr_t, jac_t = at(*trial)
        if ssr_t < ssr:
            fall = ssr - ssr_t
            predicted = step @ (mu * scale * step - grad)
            # rho past 0.94 scales mu by 1/3 as rho = 1 does
            rho = 1.0 if fall >= predicted else fall / predicted
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            growth = 2.0
            p, r, ssr, jac = trial, r_t, ssr_t, jac_t
        else:
            mu *= growth
            growth *= 2.0
        if np.all(np.abs(step) <= _FIT_XTOL * np.abs(p)):
            break
    else:
        raise FitError(f"peak fit did not converge in {_FIT_STEPS} steps")
    _, s, vt = np.linalg.svd(jac.T, full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    cov = (vt[keep].T / s[keep] ** 2) @ vt[keep]
    return p, cov * (ssr / (len(x) - 3))


def resonance_peak(sweep: SweepResult) -> PeakFit:
    """Lorentzian fit of |A|^2 in omega^2, initialized at the grid maximum.

    The Lorentzian h / (1 + ((nu - c) / w)^2), nu = omega^2, is fitted to
    its core (|A|^2 >= max/3) by least squares (``_lorentzian_fit``:
    Levenberg-Marquardt in numpy with the analytic Jacobian) and sets width
    and height, with curve_fit's covariance, the pseudo-inverse of J^T J
    times SSR / (m - 3).  The peak location is then refined by the vertex
    of a quadratic through the top of the curve, which tracks the true
    maximizer even when the slowly varying prefactor skews the line shape;
    the peak location's uncertainty is then that of the vertex, from the
    quadratic's covariance.  Raises FitError when the grid maximum sits on
    the boundary (no interior peak) or the fit does not converge, and
    warns when the peak lies outside the swept grid.
    """
    omegas = np.array([r.omega for r in sweep.rows if r.abs2 is not None])
    abs2 = np.array([r.abs2 for r in sweep.rows if r.abs2 is not None])
    if len(omegas) < 5:
        raise FitError("too few valid sweep rows for a peak fit")
    imax = int(np.argmax(abs2))
    if imax in (0, len(omegas) - 1):
        raise FitError("no interior maximum in the sweep")
    nu = omegas ** 2

    core = abs2 >= abs2[imax] / 3.0
    if core.sum() < 5:
        core = np.ones_like(abs2, dtype=bool)
    span = nu[-1] - nu[0]
    above = abs2 >= abs2[imax] / 2.0
    width0 = max(0.5 * (nu[above][-1] - nu[above][0]), span / len(nu))
    p0 = (nu[imax], width0, abs2[imax])
    popt, pcov = _lorentzian_fit(nu[core], abs2[core], p0)
    center, width, height = popt
    sigma = np.sqrt(np.maximum(np.diag(pcov), 0.0))

    for frac in (0.9, 0.75):
        top = abs2 >= frac * abs2[imax]
        if top.sum() >= 5:
            (a, b, _), qcov = np.polyfit(nu[top], abs2[top], 2, cov=True)
            if a < 0:
                # the vertex -b/2a, and its sigma propagated to first order
                center = -b / (2.0 * a)
                grad = np.array([b / (2.0 * a ** 2), -1.0 / (2.0 * a), 0.0])
                sigma[0] = np.sqrt(max(grad @ qcov @ grad, 0.0))
            break
    if center <= 0:
        raise FitError(f"peak fit landed at nonphysical omega^2 = {center:g}")
    omega_peak = float(np.sqrt(center))
    low, high = sweep.rows[0].omega, sweep.rows[-1].omega
    if not low <= omega_peak <= high:
        warnings.warn(f"fitted peak omega={omega_peak:.6g} lies outside the "
                      f"swept grid [{low:g}, {high:g}]", stacklevel=2)
    # d omega = d nu / (2 omega)
    return PeakFit(omega_peak=omega_peak, width=float(abs(width)),
                   height=float(height),
                   uncertainties=(float(sigma[0] / (2 * omega_peak)),
                                  float(sigma[1]), float(sigma[2])),
                   covariance=pcov)


# ----------------------------------------------------------------------------
# Resolvent correction and the point-interaction limit


def resolvent_correction_kernel(problem: ScatteringProblem, z: complex,
                                x: np.ndarray, y: np.ndarray,
                                stack: SeriesStack | None = None) -> complex:
    """Kernel of the resolvent difference at (x, y), for Im z > 0.

    Realized as -(1/eps) times the single-layer potential (contracted
    wavenumber eps z) of the interaction operator applied to the boundary
    trace of G_z(. - y) composed with the dilation: the charge of the flux
    of the one LU of M S_w at the contracted wavenumbers (eps omega, eps z)
    (``boundary_calculus._contrast_factors``).  Given a series ``stack`` of
    the reference mesh, S and K are read from it where it reaches
    (``verify`` hands on its own).  The operators are released once the
    flux is solved.
    """
    if complex(z).imag <= 0:
        raise ValueError(f"resolvent kernel needs Im z > 0, got z = {z}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    trace = green_function(z, problem.dilate(problem.mesh.centroids) - y)
    flux = _contrast_factors(problem.mesh, problem.eps, problem.omega, z,
                             stack, trace).flux()
    _, potential = _dilated_potential(problem, flux, z)
    return complex(potential(x[None, :])[0])


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
