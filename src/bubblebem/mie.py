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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_legendre, spherical_jn, spherical_yn


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


def mie_monopole_amplitude(solution: MieSolution) -> complex:
    """Coefficient A of e^{i omega r}/(4 pi r) in the far scattered field."""
    return -4j * np.pi * solution.b[0] / solution.omega


def mie_partial_wave_matrix(solution: MieSolution) -> np.ndarray:
    """Per-degree combination 1 + 2 b_l / (i^l (2l+1)).

    For real frequencies the problem is lossless and each entry has unit
    modulus; useful as an energy sanity check.
    """
    ls = np.arange(solution.order + 1)
    return 1.0 + 2.0 * solution.b / ((1j ** ls) * (2 * ls + 1))


# ----------------------------------------------------------------------------
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
