"""Derived boundary objects: equilibrium density, capacitance, Minnaert
frequency, spectral projectors, the Dirichlet-to-Neumann map, and the
two-block decomposition of the contrast operator family with its small-scale
expansions.

All operator-norm statements are evaluated in the norm induced by the
discrete S_0^{-1} inner product (the norm in which the rank-one projector
onto constants is orthogonal), so the expansion claims become literal matrix
statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lapack, lu_factor, lu_solve, solve_triangular

from .layer_ops import (DENSITY, TRACE, BoundaryDensity, BoundaryOperator,
                        SpaceTagError, assemble_double_layer,
                        assemble_series_term_K, assemble_series_term_S,
                        assemble_single_layer)
from .mesh import SurfaceMesh

CONDITION_LIMIT = 1e12


class NumericalGuardError(RuntimeError):
    """A factorization exceeded the condition-number guard."""


def _guarded_lu(matrix: np.ndarray, context: str):
    """LU factorization with a 1-norm condition estimate, 1e12 hard limit."""
    lu, piv = lu_factor(matrix)
    anorm = np.linalg.norm(matrix, 1)
    gecon = lapack.zgecon if np.iscomplexobj(matrix) else lapack.dgecon
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:
        raise NumericalGuardError(f"condition estimate failed for {context}")
    if rcond == 0.0 or 1.0 / rcond > CONDITION_LIMIT:
        est = np.inf if rcond == 0.0 else 1.0 / rcond
        raise NumericalGuardError(
            f"{context}: condition number {est:.3g} exceeds {CONDITION_LIMIT:.0e}")
    return lu, piv


@dataclass
class SpectralData:
    """Static boundary data of one mesh, reused across solves.

    The factorization handle supports concurrent solves (scipy lu_solve only
    reads it); everything else is immutable arrays.
    """

    mesh: SurfaceMesh
    capacitance: float
    minnaert_omega: float
    q_eq: BoundaryDensity
    p0: BoundaryOperator
    q0: BoundaryOperator
    s0: BoundaryOperator
    s0_lu: tuple
    _gram_chol: object = field(default=None, repr=False)

    @property
    def areas(self) -> np.ndarray:
        return self.mesh.areas

    def solve_s0(self, rhs: np.ndarray) -> np.ndarray:
        return lu_solve(self.s0_lu, rhs)

    def gram_cholesky(self):
        """Lower Cholesky factor of the symmetrized S_0^{-1} Gram matrix."""
        if self._gram_chol is None:
            a = np.diag(self.areas)
            w = lu_solve(self.s0_lu, a, trans=1)
            w = 0.5 * (w + w.T)
            self._gram_chol = cho_factor(w, lower=True)
        return self._gram_chol


def spectral_data(mesh: SurfaceMesh, s0: BoundaryOperator | None = None) -> SpectralData:
    """Equilibrium density, capacitance, Minnaert frequency and projectors.

    The static single layer is real symmetric positive definite up to
    quadrature error; its LU factorization is kept for reuse.
    """
    if s0 is None:
        s0 = assemble_single_layer(mesh, 0.0)
    s0_real = BoundaryOperator(np.ascontiguousarray(s0.matrix.real),
                               domain=DENSITY, codomain=TRACE,
                               wavenumber=0.0, label="S")
    lu = _guarded_lu(s0_real.matrix, "static single layer")
    ones = np.ones(mesh.n_panels)
    q = lu_solve(lu, ones)
    cap = float(q @ mesh.areas)
    if cap <= 0:
        raise NumericalGuardError(f"nonpositive capacitance {cap:g}")
    # rank-one projector onto constants, orthogonal in the S_0^{-1} product
    p0 = np.outer(ones, q * mesh.areas) / cap
    q0 = np.eye(mesh.n_panels) - p0
    return SpectralData(
        mesh=mesh,
        capacitance=cap,
        minnaert_omega=float(np.sqrt(cap / mesh.volume)),
        q_eq=BoundaryDensity(q, space=DENSITY),
        p0=BoundaryOperator(p0, domain=TRACE, codomain=TRACE, label="P0"),
        q0=BoundaryOperator(q0, domain=TRACE, codomain=TRACE, label="Q0"),
        s0=s0_real,
        s0_lu=lu,
    )


def capacitance(mesh: SurfaceMesh) -> float:
    """Total charge of the equilibrium density solving S_0 q = 1."""
    return spectral_data(mesh).capacitance


def minnaert_frequency(mesh: SurfaceMesh) -> float:
    """sqrt(capacitance / volume)."""
    return spectral_data(mesh).minnaert_omega


def projectors(mesh: SurfaceMesh) -> SpectralData:
    """Alias of spectral_data; the projectors come with the full bundle."""
    return spectral_data(mesh)


def s0_inner(spectral: SpectralData, phi: BoundaryDensity,
             psi: BoundaryDensity) -> complex:
    """Inner product <S_0^{-1} phi, psi> (conjugate-linear in phi).

    Both arguments must carry the Dirichlet-trace role.
    """
    for name, arg in (("phi", phi), ("psi", psi)):
        if arg.space != TRACE:
            raise SpaceTagError(f"s0_inner expects {TRACE} data, {name} "
                                f"is tagged {arg.space}")
    solved = spectral.solve_s0(phi.values)
    return complex(np.conj(solved) @ (spectral.areas * psi.values))


def s0_norm(spectral: SpectralData, values: np.ndarray) -> float:
    v = BoundaryDensity(np.asarray(values, dtype=complex), space=TRACE)
    return float(np.sqrt(abs(s0_inner(spectral, v, v))))


def s0_operator_norm(spectral: SpectralData, matrix: np.ndarray) -> float:
    """Operator norm on the trace space metrized by the S_0^{-1} product."""
    c, low = spectral.gram_cholesky()
    ell = np.tril(c) if low else np.triu(c).T
    # similarity L^T T L^{-T}; its 2-norm is the weighted operator norm
    y = solve_triangular(ell, matrix.T.conj(), lower=True).T.conj()
    return float(np.linalg.norm(ell.T @ y, 2))


# ----------------------------------------------------------------------------
# Dirichlet-to-Neumann map


def dirichlet_to_neumann(mesh: SurfaceMesh, z: complex,
                         s: BoundaryOperator | None = None,
                         k: BoundaryOperator | None = None) -> BoundaryOperator:
    """Interior Dirichlet-to-Neumann map S_z^{-1}(1/2 + K_z).

    Well-posed away from interior Dirichlet eigenvalues.  S_z is factored
    under the generic condition guard, which trips only when S_z is
    numerically singular (estimate above CONDITION_LIMIT); it does not
    detect nearness to an eigenvalue.  On the unit sphere at subdivision 2
    the largest condition estimate of S_z near z = pi is about 5.6e3.

    The solvers never form this matrix: they factor S and the contrast
    matrix instead (see scattering._factor_transmission).
    """
    if s is None:
        s = assemble_single_layer(mesh, z)
    if k is None:
        k = assemble_double_layer(mesh, z)
    lu = _guarded_lu(s.matrix, f"single layer S_z at z = {z} in the "
                               "trace-to-flux map")
    rhs = 0.5 * np.eye(mesh.n_panels) + k.matrix
    return BoundaryOperator(lu_solve(lu, rhs), domain=TRACE, codomain=DENSITY,
                            wavenumber=complex(z), label="DN")


# ----------------------------------------------------------------------------
# Block decomposition of the contrast operator family


@dataclass
class SchurBlocks:
    """Two-block split of eps^2 + (1-eps^2)(1/2+K_{eps w})S_{eps z}S_{eps w}^{-1}.

    Blocks live in the full panel basis (each is P_i M P_j); the Schur
    complement of the constants block is computed with the complementary
    block inverted on the mean-free subspace by a bordered solve.
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
    e_omega_0: complex          # 1 - omega^2/omega_M^2 from capacitance/volume
    e_omega_1: complex          # -i omega^3 |Omega| / 4 pi
    quadratic_coefficient: complex   # discrete eps^2 coefficient on constants
    cubic_coefficient: complex       # discrete eps^3 coefficient on constants

    def recomposition_residual(self) -> float:
        total = self.m00 + self.m01 + self.m10 + self.m11
        return float(np.linalg.norm(total - self.full)
                     / np.linalg.norm(self.full))


def k2_average(mesh: SurfaceMesh, spectral: SpectralData,
               k2: BoundaryOperator | None = None) -> float:
    """<1, K_(2) 1> / <1, 1> in the S_0^{-1} product (a real number)."""
    if k2 is None:
        k2 = assemble_series_term_K(mesh, 2)
    one = BoundaryDensity(np.ones(mesh.n_panels), space=TRACE)
    k2_one = BoundaryDensity(k2.matrix.real @ one.values, space=TRACE)
    return float(np.real(s0_inner(spectral, one, k2_one))) / spectral.capacitance


def k3_average(mesh: SurfaceMesh, spectral: SpectralData,
               k3: BoundaryOperator | None = None) -> complex:
    """<1, K_(3) 1> / <1, 1> in the S_0^{-1} product (purely imaginary)."""
    if k3 is None:
        k3 = assemble_series_term_K(mesh, 3)
    one = BoundaryDensity(np.ones(mesh.n_panels), space=TRACE)
    k3_one = BoundaryDensity(k3.matrix @ one.values, space=TRACE)
    return complex(s0_inner(spectral, one, k3_one)) / spectral.capacitance


def k2_resonance_frequency(mesh: SurfaceMesh,
                           spectral: SpectralData | None = None,
                           k2: BoundaryOperator | None = None) -> float:
    """Frequency where the discrete quadratic coefficient 1 + w^2 <K_(2)>
    vanishes.

    This is the resonance of the assembled operator family; it matches the
    Minnaert frequency sqrt(capacitance/volume) up to discretization error
    and is the right center for expansion-order studies on a fixed mesh.
    """
    if spectral is None:
        spectral = spectral_data(mesh)
    mean = k2_average(mesh, spectral, k2)
    if mean >= 0:
        raise NumericalGuardError(f"expected a negative K_(2) average, got {mean:g}")
    return float(1.0 / np.sqrt(-mean))


def _discrete_coefficients(mesh, spectral, omega, z, k2=None, k3=None):
    k2m = k2_average(mesh, spectral, k2)
    k3m = k3_average(mesh, spectral, k3)
    quad = 1.0 + omega ** 2 * k2m
    cubic = (omega ** 3 * k3m
             + omega ** 2 * (z - omega) * (1j * spectral.capacitance / (4 * np.pi)) * k2m)
    return complex(quad), complex(cubic)


def contrast_operator(mesh: SurfaceMesh, eps: float, omega: complex, z: complex,
                      s_ew: BoundaryOperator | None = None,
                      s_ez: BoundaryOperator | None = None,
                      k_ew: BoundaryOperator | None = None) -> np.ndarray:
    """Matrix of eps^2 + (1-eps^2)(1/2 + K_{eps w}) S_{eps z} S_{eps w}^{-1}.

    At z == omega the right factor S_{eps z} S_{eps w}^{-1} is the identity,
    so no single layer is assembled or factored.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if k_ew is None:
        k_ew = assemble_double_layer(mesh, eps * omega)
    n = mesh.n_panels
    coupling = 0.5 * np.eye(n) + k_ew.matrix
    if z != omega:
        if s_ew is None:
            s_ew = assemble_single_layer(mesh, eps * omega)
        if s_ez is None:
            s_ez = assemble_single_layer(mesh, eps * z)
        lu = _guarded_lu(s_ew.matrix, "single layer at the contracted frequency")
        # right inverse: X = S_{eps z} S_{eps w}^{-1} via the transposed solve
        coupling = coupling @ lu_solve(lu, s_ez.matrix.T, trans=1).T
    return eps ** 2 * np.eye(n) + (1.0 - eps ** 2) * coupling


def schur_blocks(mesh: SurfaceMesh, eps: float, omega: complex, z: complex,
                 spectral: SpectralData | None = None,
                 **operators) -> SchurBlocks:
    """Project the contrast operator onto the constants/mean-free splitting.

    The complementary block is inverted on the mean-free subspace by a
    bordered solve that pins <1, .>_{S_0^{-1}} = 0, avoiding the spurious
    null direction of the full-space block.
    """
    if spectral is None:
        spectral = spectral_data(mesh)
    m = contrast_operator(mesh, eps, omega, z, **operators)
    p0 = spectral.p0.matrix
    q0 = spectral.q0.matrix
    mp = m @ p0
    mq = m - mp
    m00 = p0 @ mp
    m10 = mp - m00
    m01 = p0 @ mq
    m11 = mq - m01

    n = mesh.n_panels
    constraint = spectral.q_eq.values * spectral.areas
    bordered = np.zeros((n + 1, n + 1), dtype=complex)
    bordered[:n, :n] = m11
    bordered[:n, n] = 1.0
    bordered[n, :n] = constraint
    rhs = np.vstack([m10, np.zeros((1, n))])
    lu = _guarded_lu(bordered, "mean-free block of the contrast operator")
    y = lu_solve(lu, rhs)[:n]
    c00 = m00 - m01 @ y

    one = BoundaryDensity(np.ones(n), space=TRACE)
    c00_one = BoundaryDensity(c00 @ one.values, space=TRACE)
    c00_const = s0_inner(spectral, one, c00_one) / spectral.capacitance

    quad, cubic = _discrete_coefficients(mesh, spectral, omega, z)
    return SchurBlocks(
        eps=eps, omega=complex(omega), z=complex(z), full=m,
        m00=m00, m01=m01, m10=m10, m11=m11, c00=c00,
        c00_on_constants=complex(c00_const),
        e_omega_0=complex(1.0 - omega ** 2 / spectral.minnaert_omega ** 2),
        e_omega_1=complex(-1j * omega ** 3 * mesh.volume / (4 * np.pi)),
        quadratic_coefficient=quad,
        cubic_coefficient=cubic,
    )


@dataclass
class ExpansionResidual:
    """Distance of the rescaled inverse contrast operator from its limit.

    ``reference_coefficient`` is the limit coefficient of the discrete
    operator family itself; ``formula_coefficient`` is the closed-form value
    from capacitance and volume.  Their relative gap isolates discretization
    error from the scale-expansion error measured by ``residual``.
    """

    eps: float
    omega: complex
    z: complex
    resonant: bool
    order: int
    residual: float
    reference_coefficient: complex
    formula_coefficient: complex

    @property
    def coefficient_gap(self) -> float:
        return abs(self.reference_coefficient - self.formula_coefficient) \
            / abs(self.formula_coefficient)


def expansion_residual(mesh: SurfaceMesh, eps: float, omega: complex, z: complex,
                       spectral: SpectralData | None = None,
                       resonant: bool | None = None,
                       **operators) -> ExpansionResidual:
    """Residual of eps^2 M^{-1} ~ P_0/E (off resonance) or of
    eps^3 M^{-1} ~ coefficient * P_0 (at resonance), in the S_0^{-1} norm.

    Off resonance the limit coefficient is the reciprocal of the discrete
    quadratic coefficient; at resonance it is the reciprocal of the discrete
    cubic coefficient (the closed forms 1/E_w^0 and (4 pi / c) i/z are
    reported alongside).
    """
    if spectral is None:
        spectral = spectral_data(mesh)
    quad, cubic = _discrete_coefficients(mesh, spectral, omega, z)
    if resonant is None:
        resonant = abs(quad) < 1e-8
    m = contrast_operator(mesh, eps, omega, z, **operators)
    lu = _guarded_lu(m, "contrast operator")
    minv = lu_solve(lu, np.eye(mesh.n_panels, dtype=complex))
    p0 = spectral.p0.matrix
    if resonant:
        if z == 0:
            raise ValueError("the resonant expansion needs z != 0")
        reference = 1.0 / cubic
        formula = (4 * np.pi / spectral.capacitance) * (1j / z)
        diff = eps ** 3 * minv - reference * p0
        order = 3
    else:
        reference = 1.0 / quad
        formula = 1.0 / (1.0 - omega ** 2 / spectral.minnaert_omega ** 2)
        diff = eps ** 2 * minv - reference * p0
        order = 2
    return ExpansionResidual(
        eps=eps, omega=complex(omega), z=complex(z), resonant=bool(resonant),
        order=order, residual=s0_operator_norm(spectral, diff),
        reference_coefficient=complex(reference),
        formula_coefficient=complex(formula),
    )
