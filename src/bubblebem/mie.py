"""Separation-of-variables reference solution for the penetrable sphere.

Independent ground truth for every sphere test: a homogeneous ball of
physical radius eps*radius whose density and bulk modulus both carry the
1/eps^2 contrast, hit by a unit plane wave travelling along +z.  Interior
and exterior wavenumbers coincide (the contrast cancels in the speed), so
each angular degree couples through a 2x2 transmission system:

    a_l j_l(x) = i^l (2l+1) j_l(x) + b_l h_l(x)
    eps^{-2} a_l j_l'(x) = i^l (2l+1) j_l'(x) + b_l h_l'(x)

with x = omega * eps * radius evaluated at the physical interface, j_l the
spherical Bessel function and h_l the outgoing spherical Hankel function.

The package keeps the coefficient solve, ``mie_solve``, and the monopole
amplitude, ``mie_monopole_amplitude``, because the benchmark's solve and
sweep gates compare against them; the tests' field evaluation,
partial-wave check and frozen fixtures live in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import spherical_jn, spherical_yn


@dataclass(frozen=True)
class MieSolution:
    """Transmission coefficients of one (radius, eps, omega) configuration.

    ``a`` are interior coefficients, ``b`` exterior scattered coefficients,
    ``system_residuals`` the per-degree residual of the 2x2 solves.
    """

    radius: float
    eps: float
    omega: float
    order: int
    a: np.ndarray
    b: np.ndarray
    system_residuals: np.ndarray

    @property
    def physical_radius(self) -> float:
        return self.eps * self.radius


def _spherical_h1(n: np.ndarray, x: float, derivative: bool = False):
    return (spherical_jn(n, x, derivative=derivative)
            + 1j * spherical_yn(n, x, derivative=derivative))


def mie_solve(radius: float, eps: float, omega: float, order: int) -> MieSolution:
    """Solve the per-degree transmission systems up to degree ``order``.

    Requires order >= omega * eps * radius + 10 so the retained tail is
    negligible.  A numerically singular 2x2 system (interior-eigenvalue
    coincidence) is flagged as an error.
    """
    if radius <= 0 or omega <= 0:
        raise ValueError(f"radius and omega must be positive, got {radius}, {omega}")
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    x = omega * eps * radius
    if order < x + 10:
        raise ValueError(f"truncation order {order} below {x:.3g} + 10")

    ls = np.arange(order + 1)
    j = spherical_jn(ls, x)
    jp = spherical_jn(ls, x, derivative=True)
    h = _spherical_h1(ls, x)
    hp = _spherical_h1(ls, x, derivative=True)
    forcing = (1j ** ls) * (2 * ls + 1)

    a = np.empty(order + 1, dtype=complex)
    b = np.empty(order + 1, dtype=complex)
    residuals = np.empty(order + 1)
    inv_contrast = eps ** -2
    for l in ls:
        mat = np.array([[j[l], -h[l]],
                        [inv_contrast * jp[l], -hp[l]]])
        rhs = forcing[l] * np.array([j[l], jp[l]])
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        # singular only through cancellation of the two products, not through
        # the wild scale spread between j_l and h_l at high degree
        prod_scale = abs(mat[0, 0] * mat[1, 1]) + abs(mat[0, 1] * mat[1, 0])
        if prod_scale == 0.0 or abs(det) < 1e-14 * prod_scale:
            raise ValueError(
                f"transmission system for degree {l} is singular "
                "(interior eigenvalue coincidence)")
        sol = np.linalg.solve(mat, rhs)
        a[l], b[l] = sol
        norm = np.linalg.norm(rhs) + np.linalg.norm(mat) * np.linalg.norm(sol)
        residuals[l] = np.linalg.norm(mat @ sol - rhs) / max(norm, 1e-300)
    return MieSolution(radius=float(radius), eps=float(eps), omega=float(omega),
                       order=int(order), a=a, b=b, system_residuals=residuals)


def mie_monopole_amplitude(solution: MieSolution) -> complex:
    """Coefficient A of e^{i omega r}/(4 pi r) in the far scattered field."""
    return -4j * np.pi * solution.b[0] / solution.omega
