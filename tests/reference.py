"""Reference algebra the tests compare the solvers against, and the
helpers only tests call.

The package never forms these quantities: it factors S and the contrast
matrix M instead of building the Dirichlet-to-Neumann map or keeping M,
and applies the S_0^{-1} product through ``SpectralData``.  Each helper
writes the explicit form out once, so a test can check a solver's shortcut
against it.  The package keeps only what its commands and the benchmark
run, so the rest lives here too: the dense interaction operator, the
expansion residual's limit coefficients with their closed forms from the
capacitance and Minnaert frequency, the resonance half-width, an affine
mesh map and an OFF writer, the Mie oracle's field evaluation,
partial-wave check and frozen fixtures, and the recorder of run notes.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_triangular
from scipy.special import eval_legendre, spherical_jn, spherical_yn

from bubblebem.boundary_calculus import (SpectralData, _contrast_factors,
                                         _discrete_coefficients, _guarded_lu,
                                         _transmission_flux, check_eps,
                                         spectral_data)
from bubblebem.layer_ops import (SeriesStack, _check_im, _series_order,
                                 assemble_double_layer, assemble_layer_pair,
                                 assemble_single_layer, single_layer_monopole)
from bubblebem.mesh import MeshError, SurfaceMesh, build_mesh
from bubblebem.mie import MieSolution
from bubblebem.scattering import (ScatteringProblem, far_field_points,
                                  scattered_field_dilated)


def stacked_row_amplitude(problem: ScatteringProblem,
                          stack: SeriesStack) -> complex:
    """The dilated monopole amplitude of ``problem`` with S_w and K_w summed
    from a series ``stack`` and each LU-factored: the per-row solve of a
    stacked sweep row before the rows were solved in lockstep, bit for
    bit."""
    mesh, eps, kappa = problem.mesh, problem.eps, problem.kappa
    n, w = mesh.n_panels, eps * problem.omega
    s, m = stack.single_layer(w), stack.double_layer(w)
    m.flat[::n + 1] += 0.5
    rhs = m @ problem.incident.evaluate(problem.dilate(mesh.centroids),
                                        problem.omega)
    m *= kappa
    m.flat[::n + 1] += 1.0
    flux = lu_solve(lu_factor(s), lu_solve(lu_factor(m), rhs))
    return -single_layer_monopole(mesh, eps * kappa * flux, w, problem.y0)


def s0_inner(spectral: SpectralData, phi: np.ndarray,
             psi: np.ndarray) -> complex:
    """Inner product <S_0^{-1} phi, psi> of two traces (conjugate-linear
    in phi)."""
    solved = lu_solve(spectral.s0_lu, phi)
    return complex(np.conj(solved) @ (spectral.mesh.areas * psi))


def s0_operator_norm(spectral: SpectralData, matrix: np.ndarray) -> float:
    """Operator norm of an (n, n) array on the trace space metrized by the
    S_0^{-1} product: the 2-norm of the similarity L^T T L^{-T}, L the Gram
    Cholesky factor, by a dense SVD (``expansion_residual`` reaches it by
    Golub-Kahan bidiagonalization instead)."""
    ell = spectral.gram_cholesky()
    y = solve_triangular(ell, matrix.T.conj(), lower=True).T.conj()
    return float(np.linalg.norm(ell.T @ y, 2))


def series_horner(stack: SeriesStack, terms: np.ndarray,
                  z: complex) -> np.ndarray:
    """S_z or K_z from one of ``stack``'s term blocks by Horner's rule in
    iz, at the order the tail bound needs: the sum ``SeriesStack`` takes by
    one matrix product instead, with the same checks and errors."""
    z = _check_im(z)
    if not stack.reaches(z):
        raise ValueError(f"series stack of order {stack.order} does not "
                         f"reach wavenumber {z:.6g}")
    iz = 1j * z
    acc = np.zeros(terms[0].shape, dtype=complex)
    needed = _series_order(abs(z) * stack.diameter)
    for term in reversed(terms[:needed + 1]):
        acc *= iz
        acc += term
    return acc


def dirichlet_to_neumann(mesh: SurfaceMesh, z: complex) -> np.ndarray:
    """Interior Dirichlet-to-Neumann map S_z^{-1}(1/2 + K_z) as an (n, n)
    array that takes a trace to its flux, a density.

    Well-posed away from interior Dirichlet eigenvalues.  S_z is factored
    under the generic condition guard, which trips only when S_z is
    numerically singular; it does not detect nearness to an eigenvalue.
    On the unit sphere at subdivision 2 the largest condition estimate of
    S_z near z = pi is about 5.6e3.
    """
    s, half_k = assemble_layer_pair(mesh, z)
    half_k.flat[::mesh.n_panels + 1] += 0.5
    lu = _guarded_lu(s, f"single layer S at wavenumber {z:.6g}")[0]
    return lu_solve(lu, half_k)


def transmission_residual(problem: ScatteringProblem) -> float:
    """Interface-condition check of the direct solve: the computed flux must
    equal DN applied to the total boundary trace (relative residual), with
    DN applied through an LU of a separately assembled S and 1/2 + K.  The
    trace and the flux are those ``scattered_field_direct`` builds, bit for
    bit."""
    omega = problem.omega
    scaled = problem.scaled_mesh()
    trace = problem.incident.evaluate(scaled.centroids, omega)
    flux, _ = _transmission_flux(scaled, omega, problem.kappa, trace,
                                 spectral_data(problem.mesh), problem.eps)
    s, half_k = assemble_layer_pair(scaled, omega)
    half_k.flat[::scaled.n_panels + 1] += 0.5
    dn_total = lu_solve(lu_factor(s),
                        half_k @ (trace - problem.kappa * (s @ flux)))
    return float(np.linalg.norm(dn_total - flux) / np.linalg.norm(flux))


def contrast_matrix(mesh: SurfaceMesh, w: complex, z: complex,
                    kappa: float) -> np.ndarray:
    """The contrast matrix M = I + kappa (1/2 + K_w) S_z S_w^{-1} from the
    public assemblers: I + kappa (1/2 + K_w) at z == w, the matrix the
    package factors there, and (M S_w) S_w^{-1} by an LU of S_w at z != w,
    from the product M S_w = S_w + kappa (1/2 + K_w) S_z it factors."""
    n = mesh.n_panels
    half_k = assemble_double_layer(mesh, w)
    half_k.flat[::n + 1] += 0.5
    if z == w:
        m = kappa * half_k
        m.flat[::n + 1] += 1.0
        return m
    s_w = assemble_single_layer(mesh, w)
    ms = half_k @ assemble_single_layer(mesh, z)
    ms *= kappa
    ms += s_w
    return lu_solve(lu_factor(s_w), ms.T, trans=1).T


@dataclass
class SchurBlocks:
    """Two-block split of the contrast operator
    eps^2 M = eps^2 + (1-eps^2)(1/2+K_{eps w})S_{eps z}S_{eps w}^{-1}.

    Blocks live in the full panel basis (each is P_i eps^2 M P_j, with
    P_1 = I - P_0); the Schur complement of the constants block is computed
    with the complementary block inverted on the mean-free subspace by a
    bordered solve.
    """

    eps: float
    omega: complex
    z: complex
    full: np.ndarray
    m00: np.ndarray
    m01: np.ndarray
    m10: np.ndarray
    m11: np.ndarray
    c00: np.ndarray
    c00_on_constants: complex
    quadratic_coefficient: complex   # discrete eps^2 coefficient on constants
    cubic_coefficient: complex       # discrete eps^3 coefficient on constants

    def recomposition_residual(self) -> float:
        total = self.m00 + self.m01 + self.m10 + self.m11
        return float(np.linalg.norm(total - self.full)
                     / np.linalg.norm(self.full))


def schur_blocks(spectral: SpectralData, eps: float, omega: complex,
                 z: complex) -> SchurBlocks:
    """Project the contrast operator eps^2 M (``contrast_matrix`` at the
    contracted wavenumbers, under the package's eps rule) onto the
    constants/mean-free splitting.

    With P_0 = 1 w^T, M P_0 = (M 1) w^T and P_0 M = 1 (w^T M), so the four
    blocks are rank-one updates of M that take O(n^2) work.  The
    complementary block is inverted on the mean-free subspace by a bordered
    solve that pins <1, .>_{S_0^{-1}} = 0, avoiding the spurious null
    direction of the full-space block; M_10 is rank one, so that solve
    takes one right-hand side (docs/scaling_identities.md, "The projector
    onto constants").
    """
    check_eps(eps)
    m = eps ** 2 * contrast_matrix(spectral.mesh, eps * omega, eps * z,
                                   eps ** -2 - 1.0)
    n = spectral.mesh.n_panels
    ones = np.ones(n)
    w = spectral.p0_row
    m_one = m @ ones
    w_m_one = w @ m_one
    m00 = np.outer(ones, w_m_one * w)
    m10 = np.outer(m_one - w_m_one, w)
    mean_free_row = w @ m - w_m_one * w
    m01 = np.outer(ones, mean_free_row)
    m11 = m - m00 - m10 - m01

    bordered = np.zeros((n + 1, n + 1), dtype=complex)
    bordered[:n, :n] = m11
    bordered[:n, n] = 1.0
    bordered[n, :n] = w
    lu = _guarded_lu(bordered, "mean-free block of the contrast operator")[0]
    # M_11^{-1} M_10 = (M_11^{-1} (M 1 - w^T M 1)) w^T on the mean-free space
    y = lu_solve(lu, np.append(m_one - w_m_one, 0.0))[:n]
    c00 = np.outer(ones, (w_m_one - mean_free_row @ y) * w)

    quad, cubic = _discrete_coefficients(spectral, omega, z)
    return SchurBlocks(
        eps=eps, omega=complex(omega), z=complex(z), full=m,
        m00=m00, m01=m01, m10=m10, m11=m11, c00=c00,
        c00_on_constants=spectral.on_constants(c00 @ ones),
        quadratic_coefficient=quad,
        cubic_coefficient=cubic,
    )


def expansion_coefficients(spectral: SpectralData, omega: complex,
                           z: complex) -> tuple:
    """(resonant, reference, formula) for ``expansion_residual`` at
    ``omega`` and ``z``: whether it counts ``omega`` as resonant (the
    discrete quadratic coefficient vanishes to 1e-8), the limit coefficient
    it subtracts (the reciprocal of the discrete quadratic coefficient off
    resonance, of the discrete cubic one at resonance), and that
    coefficient's closed form from the capacitance c and Minnaert frequency
    omega_M of ``spectral``: 1/(1 - omega^2/omega_M^2) off resonance,
    (4 pi / c) i/z at resonance.  The relative gap of the last two is
    discretization error."""
    quad, cubic = _discrete_coefficients(spectral, omega, z)
    if abs(quad) < 1e-8:
        return (True, 1.0 / cubic,
                (4 * np.pi / spectral.capacitance) * (1j / z))
    return (False, 1.0 / quad,
            1.0 / (1.0 - omega ** 2 / spectral.minnaert_omega ** 2))


def with_notes(call, *args, **kwargs) -> tuple:
    """``call(*args, **kwargs)`` and the run notes it warned, in the order
    it warned them: the package's one channel for notes is ``warnings``,
    which ``cli.main`` records the same way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args, **kwargs)
    return result, [str(w.message) for w in caught]


def radiation_defect(problem: ScatteringProblem, spectral: SpectralData,
                     step: float = 1e-4) -> float:
    """Discrete outgoing-wave check on the fit sphere (dilated solve).

    Returns max |d u_sc/dr - i omega u_sc| * r / max|u_sc|; an exact outgoing
    monopole gives 1, an incoming wave gives O(omega r) >> 1.
    """
    pts, radius = far_field_points(problem)
    rays = (pts - problem.y0) / radius
    fld = scattered_field_dilated(problem, np.vstack([pts, pts + step * rays]),
                                  spectral)
    n = len(pts)
    du = (fld.scattered[n:] - fld.scattered[:n]) / step
    defect = np.abs(du - 1j * problem.omega * fld.scattered[:n])
    return float(defect.max() * radius / np.abs(fld.scattered[:n]).max())


def interaction_operator(problem: ScatteringProblem, z: complex) -> np.ndarray:
    """Frequency-dependent boundary operator of the resolvent difference:

        eps (1 - eps^2) (eps^2 + (1 - eps^2) DN_{eps w} S_{eps z})^{-1} DN_{eps w}
          = eps kappa S_{eps w}^{-1} M^{-1} (1/2 + K_{eps w}),

    assembled exactly from the discrete contracted-wavenumber operators
    (M as in ``boundary_calculus._factor_transmission``): an (n, n) array
    on the reference mesh that takes a trace to a charge, a density.  Its
    right-hand side is (1/2 + K_{eps w}) I, the bits of 1/2 + K_{eps w},
    since products with 1 and 0 are exact.  At z != w,
    S_{eps w}^{-1} M^{-1} = (M S_{eps w})^{-1}, so the n-column solve runs
    through that one LU.
    """
    return problem.eps * problem.kappa * _contrast_factors(
        problem.mesh, problem.eps, problem.omega, z,
        trace=np.eye(problem.mesh.n_panels)).flux()


def lorentzian_halfwidth(eps: float, spectral: SpectralData) -> float:
    """Half-width in omega^2 of the uniform amplitude at resonance:
    eps * omega_M^3 * capacitance / 4 pi."""
    return eps * spectral.minnaert_omega ** 3 * spectral.capacitance / (4 * np.pi)


# ----------------------------------------------------------------------------
# Meshes


def affine_transform(mesh: SurfaceMesh, matrix: np.ndarray | None = None,
                     shift: np.ndarray | None = None) -> SurfaceMesh:
    """Rebuild the mesh with vertices mapped through x -> matrix @ x + shift.

    The linear part must be orientation-preserving (det > 0); the rebuilt
    mesh is re-validated from scratch.
    """
    v = mesh.vertices
    if matrix is not None:
        matrix = np.asarray(matrix, dtype=float)
        if np.linalg.det(matrix) <= 0:
            raise MeshError("transform must preserve orientation (det > 0)")
        v = v @ matrix.T
    if shift is not None:
        v = v + np.asarray(shift, dtype=float)
    return build_mesh(v, mesh.triangles)


def save_off(mesh: SurfaceMesh, path: str) -> None:
    """Write the mesh as ASCII OFF (round-trips through load_mesh)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


# ----------------------------------------------------------------------------
# The Mie oracle beyond the coefficient solve


def mie_eval(solution: MieSolution,
             points: np.ndarray) -> tuple[np.ndarray, float]:
    """Scattered field at exterior points, with a truncation-error bound.

    Returns (values, bound) where bound is the magnitude of the last
    retained term maximized over the evaluation points.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(points, axis=1)
    if np.any(r <= solution.physical_radius):
        bad = int(np.argmin(r))
        raise ValueError(f"point {bad} at radius {r[bad]:.3g} is inside the "
                         f"sphere (radius {solution.physical_radius:.3g})")
    mu = points[:, 2] / r
    values = np.zeros(len(points), dtype=complex)
    last = np.zeros(len(points))
    for l in range(solution.order + 1):
        radial = solution.b[l] * (spherical_jn(l, solution.omega * r)
                                  + 1j * spherical_yn(l, solution.omega * r))
        contrib = radial * eval_legendre(l, mu)
        values += contrib
        last = np.abs(contrib)
    return values, float(last.max())


def mie_partial_wave_matrix(solution: MieSolution) -> np.ndarray:
    """Per-degree combination 1 + 2 b_l / (i^l (2l+1)).

    For real frequencies the problem is lossless and each entry has unit
    modulus; useful as an energy sanity check.
    """
    ls = np.arange(solution.order + 1)
    return 1.0 + 2.0 * solution.b / ((1j ** ls) * (2 * ls + 1))


# Frozen fixtures: the oracle outputs are pinned once so regressions in the
# solver stack are caught against stored coefficients, not a rerun.  To
# regenerate one, write fixture_payload(mie_solve(R, eps, omega, L)) to its
# file and add the payload's sha256 to tests/fixtures/checksums.json.


def fixture_payload(solution: MieSolution) -> str:
    record = {
        "R": float(solution.radius),
        "eps": float(solution.eps),
        "omega": float(solution.omega),
        "L": int(solution.order),
        "b": [[float(f"{c.real:.17g}"), float(f"{c.imag:.17g}")]
              for c in solution.b],
    }
    return json.dumps(record, indent=1, sort_keys=True)


def load_fixture(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        record = json.load(fh)
    record["b"] = np.array([complex(re, im) for re, im in record["b"]])
    return record
