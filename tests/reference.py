"""Reference algebra the tests compare the solvers against.

The package never forms these quantities: it factors S and the contrast
matrix M instead of building the Dirichlet-to-Neumann map, and applies the
S_0^{-1} product through ``SpectralData``.  Each helper writes the explicit
form out once, so a test can check a solver's shortcut against it.
"""

import numpy as np
from scipy.linalg import lu_solve, solve_triangular

from bubblebem.boundary_calculus import (SpectralData, _factor_transmission,
                                         _guarded_lu)
from bubblebem.layer_ops import (SeriesStack, _check_im, _series_order,
                                 assemble_layer_pair, assemble_single_layer)
from bubblebem.mesh import SurfaceMesh
from bubblebem.scattering import (ScatteringProblem, far_field_points,
                                  scattered_field_dilated)


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
    return lu_solve(_guarded_lu(s, f"single layer S at wavenumber {z:.6g}"),
                    half_k)


def transmission_residual(problem: ScatteringProblem) -> float:
    """Interface-condition check of the direct solve: the computed flux must
    equal DN applied to the total boundary trace (relative residual), with
    DN applied through the solve's own LU of S.  The trace and the factors
    are those ``scattered_field_direct`` builds, bit for bit."""
    omega = problem.omega
    scaled = problem.scaled_mesh()
    trace = problem.incident.evaluate(scaled.centroids, omega)
    f = _factor_transmission(scaled, omega, omega, problem.kappa)
    flux = f.flux(trace)
    s = assemble_single_layer(scaled, omega)
    dn_total = lu_solve(f.s_lu,
                        f.half_k @ (trace - problem.kappa * (s @ flux)))
    return float(np.linalg.norm(dn_total - flux) / np.linalg.norm(flux))


def radiation_defect(problem: ScatteringProblem, step: float = 1e-4) -> float:
    """Discrete outgoing-wave check on the fit sphere (dilated solve).

    Returns max |d u_sc/dr - i omega u_sc| * r / max|u_sc|; an exact outgoing
    monopole gives 1, an incoming wave gives O(omega r) >> 1.
    """
    pts, radius = far_field_points(problem)
    rays = (pts - problem.y0) / radius
    fld = scattered_field_dilated(problem, np.vstack([pts, pts + step * rays]))
    n = len(pts)
    du = (fld.scattered[n:] - fld.scattered[:n]) / step
    defect = np.abs(du - 1j * problem.omega * fld.scattered[:n])
    return float(defect.max() * radius / np.abs(fld.scattered[:n]).max())
