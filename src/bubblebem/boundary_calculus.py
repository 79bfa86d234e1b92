"""Derived boundary objects: the per-mesh spectral data (the LU of the
real static single layer S_0, equilibrium density, capacitance, Minnaert
frequency and the series averages <K_(2)>, <K_(3)>), the solves with the
contrast matrix M that every solver uses in place of the
Dirichlet-to-Neumann map S^{-1}(1/2 + K) (S and M apart at z == w, the one
product M S_w at z != w), and the small-scale expansions of the contrast
operator family.

At z == w a single solve, ``_transmission_flux``, solves S_w and M by
GMRES on the exact operators from one kernel pass, preconditioned by the
LU of S_0 that ``SpectralData`` keeps, and factors nothing; only where
GMRES is refused does it factor the S_w and M it holds, in place under the
guard, S_w first.  Every other study factors the one product
M S_w = S_w + kappa (1/2 + K_w) S_z through ``_factor_transmission``.

Operators are read only through the public ``layer_ops`` assemblers and
``SeriesStack`` readers, which return them F-ordered, and every
factorization (``_guarded_lu``) consumes its operand: LAPACK factors S_0,
S_w, M and M S_w where they were formed.  A caller states the trace whose
right-hand side (1/2 + K_w) trace it needs, and that product is formed
before 1/2 + K_w becomes M, so no S_0, S_w, 1/2 + K_w or layout copy is
kept once its factor exists: one n x n array per live operator.

A study that solves at many contracted wavenumbers, a dilated sweep or
``verify``, sizes one wavenumber series stack for all of them by one rule
(``_series_stack``), from the (eps, omega, z) of each of its contracted
solves.  ``verify``'s studies, all at z != w, factor through
``_factor_transmission``, which reads each of S_w, K_w and S_z from the
stack where it reaches and assembles the others exactly.  A dilated
sweep's rows, at z == w, take no factorization where the stack reaches
them: ``_lockstep_flux`` solves them together by GMRES, each Krylov step
one product of the stack's terms with a block of rows, preconditioned by
one guarded LU of M at the grid's centre and by the LU of S_0, the blocks
in two lanes side by side (docs/scaling_identities.md, "The sweep in
lockstep"); a row it does not accept is solved on its own, exactly, as a
single solve is.  Every solve passes its own copy of the pivots
(``_lu_solve``), so lanes and tasks may share a factor.

All operator-norm statements are evaluated in the norm induced by the
discrete S_0^{-1} inner product, in which the projector onto constants is
orthogonal, so the expansion claims become literal matrix statements.  That
projector is rank one, P_0 = 1 w^T with w = q_eq * areas / capacitance
(``SpectralData.p0_row``), and is applied as such: no n x n P_0 is
formed.  Such a norm is taken by Golub-Kahan bidiagonalization through
the factors, one vector at a time: no n x n inverse or SVD is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.linalg import (blas, cholesky, lapack, lu_factor, lu_solve,
                          solve_triangular, svd)

from .layer_ops import (SERIES_MAX_ORDER, SeriesStack, _double_term_row_sums,
                        _series_order, _side_by_side, assemble_layer_pair,
                        assemble_series_stack, assemble_single_layer)
from .mesh import _CHUNK_PAIRS, SurfaceMesh

CONDITION_LIMIT = 1e12

# Largest series stack (bytes of real coefficient matrices) one sweep or
# one verify run may hold; past it every contracted operator is assembled
# exactly.
SERIES_STACK_LIMIT = 2 ** 29


class NumericalGuardError(RuntimeError):
    """A factorization exceeded the condition-number guard."""


def _lu_solve(lu_and_piv: tuple, rhs: np.ndarray, **kwargs) -> np.ndarray:
    """``lu_solve`` with a copy of the pivots: the one solve of the package.

    scipy's LAPACK wrapper shifts the pivot array it is given to one-based
    indices and back while it runs, so two threads that solve with one
    factor's own pivot array corrupt each other's pivots and the heap.  A
    factor may outlive the task that made it (S_0's in ``SpectralData``,
    the lockstep sweep's centre LU, which both lanes read), so every solve
    gets its own copy: O(n) per O(n^2) solve.
    """
    lu, piv = lu_and_piv
    return lu_solve((lu, piv.copy()), rhs, **kwargs)


def _one_norm(matrix: np.ndarray) -> float:
    """The 1-norm of ``matrix``, summed in blocks of columns: the bits of
    ``np.linalg.norm(matrix, 1)`` of an F-ordered matrix without its
    n x n temporary."""
    step = max(1, _CHUNK_PAIRS // len(matrix))
    return max(np.abs(matrix[:, j:j + step]).sum(axis=0).max()
               for j in range(0, matrix.shape[1], step))


def _guarded_lu(matrix: np.ndarray, context: str) -> tuple:
    """LU factorization with a 1-norm condition estimate, 1e12 hard limit:
    the LU as ``lu_factor`` gives it, the 1-norm of ``matrix`` and the
    condition estimate 1/rcond it was guarded on.

    Consumes its operand: an F-ordered ``matrix``, the layout of every
    operator ``layer_ops`` returns, is factored in place and becomes the
    LU, and a caller that reads its matrix afterwards passes a copy.
    ``lu_factor`` checks its input: a non-finite entry raises ValueError,
    which a sweep records as that row's error.  The 1-norm is
    ``_one_norm``'s, taken before the factorization.  The lockstep sweep
    reads the norm and the estimate of its preconditioners back
    (``_lockstep_flux``).
    """
    anorm = _one_norm(matrix)
    lu, piv = lu_factor(matrix, overwrite_a=True)
    gecon = lapack.zgecon if np.iscomplexobj(matrix) else lapack.dgecon
    rcond, info = gecon(lu, anorm, norm="1")
    if info != 0:
        raise NumericalGuardError(f"condition estimate failed for {context}")
    est = np.inf if rcond == 0.0 else 1.0 / rcond
    if est > CONDITION_LIMIT:
        raise NumericalGuardError(
            f"{context}: condition number {est:.3g} exceeds {CONDITION_LIMIT:.0e}")
    return (lu, piv), float(anorm), float(est)


@dataclass
class SpectralData:
    """Everything about one mesh that does not depend on frequency or scale:
    capacitance, Minnaert frequency, the equilibrium density q_eq = S_0^{-1} 1
    and the LU factors of the real static single layer S_0; S_0 itself is
    not kept, it was factored in place.

    The projector onto constants, orthogonal in the S_0^{-1} product, is
    the rank-one P_0 = 1 w^T with w = ``p0_row``; ``on_constants`` is the
    coefficient <1, v>/<1, 1> it takes.  Built once per mesh by
    ``spectral_data`` and passed to every function that needs these
    quantities.  The S_0^{-1} Gram factor and the series averages <K_(2)>,
    <K_(3)> (both from one pass that sums the rows of B_2 and B_3 and keeps
    no n x n term) are computed on first use and cached; tasks that share
    one SpectralData side by side read them once they are filled, since
    two tasks that found a cache empty would each compute it.  Every solve
    with ``s0_lu``, the Gram fill's included, passes its own copy of the
    pivots (``_lu_solve``): the shared pivot array is never handed to
    LAPACK, which writes to it while it solves.
    """

    mesh: SurfaceMesh
    capacitance: float
    minnaert_omega: float
    q_eq: np.ndarray
    s0_lu: tuple
    s0_norm: float
    s0_condition: float
    _gram_chol: np.ndarray | None = field(default=None, repr=False)
    _k_means: tuple | None = field(default=None, repr=False)

    @property
    def p0_row(self) -> np.ndarray:
        """w in P_0 = 1 w^T: q_eq * areas / capacitance."""
        return self.q_eq * self.mesh.areas / self.capacitance

    def on_constants(self, v: np.ndarray) -> complex:
        """<1, v> / <1, 1> in the S_0^{-1} product for a trace v, the
        coefficient of P_0 v on the constants: q_eq . (areas * v) /
        capacitance, since S_0^{-1} 1 = q_eq and <1, 1> = capacitance."""
        return complex(self.q_eq @ (self.mesh.areas * v)) / self.capacitance

    def gram_cholesky(self) -> np.ndarray:
        """Lower Cholesky factor of the symmetrized S_0^{-1} Gram matrix
        W = S_0^{-T} diag(areas), (W + W^T) / 2.

        One n x n array is held: diag(areas) in F order is solved into in
        place, its lower triangle symmetrized in place by blocks of columns
        and factored in place.  Since a + b = b + a exactly and the Cholesky
        factorization reads only the lower triangle, the factor has the bits
        of ``cholesky(0.5 * (w + w.T), lower=True)``.
        """
        if self._gram_chol is None:
            n = self.mesh.n_panels
            w = np.zeros((n, n), order="F")
            np.fill_diagonal(w, self.mesh.areas)
            w = _lu_solve(self.s0_lu, w, trans=1, overwrite_b=True)
            step = max(1, _CHUNK_PAIRS // n)
            for j in range(0, n, step):
                cols = slice(j, j + step)
                block = w[j:, cols] + w[cols, j:].T
                block *= 0.5
                w[j:, cols] = block
            self._gram_chol = cholesky(w, lower=True, overwrite_a=True)
        return self._gram_chol

    def _series_means(self) -> tuple:
        """<1, B_n 1> / <1, 1> for n = 2, 3, with K_(n) = i^n B_n."""
        if self._k_means is None:
            self._k_means = tuple(
                self.on_constants(row).real
                for row in _double_term_row_sums(self.mesh, 3))
        return self._k_means

    def k2_average(self) -> float:
        """<1, K_(2) 1> / <1, 1> in the S_0^{-1} product (a real number)."""
        return -self._series_means()[0]

    def k3_average(self) -> complex:
        """<1, K_(3) 1> / <1, 1> in the S_0^{-1} product (purely imaginary)."""
        return -1j * self._series_means()[1]


def spectral_data(mesh: SurfaceMesh) -> SpectralData:
    """The LU of the static single layer, equilibrium density, capacitance
    and Minnaert frequency of ``mesh``.

    The static single layer is assembled real, and is symmetric positive
    definite up to quadrature error.  It is factored in place, and only the
    LU is kept.
    """
    lu, norm, condition = _guarded_lu(assemble_single_layer(mesh, 0.0),
                                      "static single layer")
    q = _lu_solve(lu, np.ones(mesh.n_panels))
    cap = float(q @ mesh.areas)
    if cap <= 0:
        raise NumericalGuardError(f"nonpositive capacitance {cap:g}")
    return SpectralData(
        mesh=mesh,
        capacitance=cap,
        minnaert_omega=float(np.sqrt(cap / mesh.volume)),
        q_eq=q,
        s0_lu=lu,
        s0_norm=norm,
        s0_condition=condition,
    )


def _s0_solve(spectral: SpectralData, v: np.ndarray) -> np.ndarray:
    """S_0^{-1} v for a complex block v, through ``spectral.s0_lu``: the
    real LU solves the real and imaginary planes at once."""
    planes = _lu_solve(spectral.s0_lu, np.ascontiguousarray(v).view(float))
    return np.ascontiguousarray(planes).view(complex)


# ----------------------------------------------------------------------------
# The transmission factors


class TransmissionFactors(NamedTuple):
    """The guarded factors ``_factor_transmission`` returns, and ``rhs``,
    the right-hand side (1/2 + K_w) trace of the trace (or block of traces)
    its caller gave, or None.

    ``lu`` is the LU of M S_w = S_w + kappa (1/2 + K_w) S_z, factored in
    place where it was formed, and ``s`` is S_w itself; neither M nor an
    LU of S_w is formed.
    """

    rhs: np.ndarray | None
    lu: tuple                         # guarded LU of M S_w
    s: np.ndarray                     # S_w

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """S_w^{-1} M^{-1} rhs = (M S_w)^{-1} rhs."""
        return _lu_solve(self.lu, rhs)

    def flux(self) -> np.ndarray:
        """The interior flux of the caller's trace, solve(rhs): a density,
        or a block of them."""
        return self.solve(self.rhs)

    def m_solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs, as S_w (M S_w)^{-1} rhs."""
        return self.s @ _lu_solve(self.lu, rhs)

    def m_adjoint_solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-H} rhs, as (M S_w)^{-H} S_w^H rhs."""
        return _lu_solve(self.lu, np.conj(self.s.T @ np.conj(rhs)), trans=2)


def _series_stack(spectral: SpectralData, studies) -> tuple:
    """The series stack of ``spectral.mesh`` that ``studies``, each given
    as the (eps, omega, z) it hands to ``_contrast_factors``, read their
    contracted operators from, or None, plus a note for every fallback to
    exact assembly.

    Each study is contracted by ``_contract``, the rule
    ``_contrast_factors`` applies, to the wavenumbers eps*omega and eps*z.
    The order is the one the tail bound needs at the largest of them that
    SERIES_MAX_ORDER reaches; wavenumbers past that, and every wavenumber
    when the stack would exceed SERIES_STACK_LIMIT bytes, are assembled
    exactly by ``_factor_transmission``.  The sweep and ``verify`` both
    build their stack here.
    """
    mesh = spectral.mesh
    # each contracted wavenumber once, in study order
    wavenumbers = list(dict.fromkeys(k for s in studies for k in _contract(*s)))
    orders = [_series_order(abs(k) * mesh.diameter) for k in wavenumbers]
    reached = [o for o in orders if o is not None]
    notes = []
    if len(reached) < len(orders):
        beyond = min(abs(k) for k, o in zip(wavenumbers, orders) if o is None)
        notes.append(f"series stack: {len(orders) - len(reached)} contracted "
                     f"wavenumbers from |eps w| = {beyond:g} need more than "
                     f"{SERIES_MAX_ORDER} terms; S and K assembled exactly "
                     "there")
    if not reached:
        return None, notes
    order = max(reached)
    size = 16 * (order + 1) * mesh.n_panels ** 2
    if size > SERIES_STACK_LIMIT:
        notes.append(f"series stack of order {order} needs {size:d} bytes, "
                     f"above the limit of {SERIES_STACK_LIMIT:d}; S and K "
                     "assembled exactly at every wavenumber")
        return None, notes
    return assemble_series_stack(mesh, order), notes


def _form_contrast(k: np.ndarray, kappa: float,
                   trace: np.ndarray | None = None) -> np.ndarray | None:
    """Form M = I + kappa (1/2 + K_w) from the F-ordered K_w ``k`` in
    place, and return the right-hand side (1/2 + K_w) ``trace``, taken
    before 1/2 + K_w becomes M, or None."""
    n = len(k)
    k.flat[::n + 1] += 0.5
    rhs = None if trace is None else k @ trace
    k *= kappa
    k.flat[::n + 1] += 1.0
    return rhs


def _contrast_lu(m: np.ndarray, w: complex, z: complex) -> tuple:
    """``_guarded_lu`` of the contrast matrix M, formed in ``m`` by
    ``_form_contrast``, in place: the one text of M's guard, which names
    the wavenumber ``w`` and the spectral parameter ``z``."""
    return _guarded_lu(m, f"contrast matrix M at wavenumber {w:.6g}, "
                          f"spectral parameter {z:.6g}")


def _factor_transmission(mesh: SurfaceMesh, w: complex, z: complex,
                         kappa: float, stack: SeriesStack | None = None,
                         trace: np.ndarray | None = None
                         ) -> TransmissionFactors:
    """Factor the transmission problem on ``mesh`` under the condition
    guard, without forming the Dirichlet-to-Neumann map
    DN_w = S_w^{-1}(1/2 + K_w), and form the right-hand side
    (1/2 + K_w) ``trace`` of a trace or a block of traces, if given.
    Where a series ``stack`` of ``mesh`` reaches w, S_w and K_w are its
    matrix products, and so is S_z where it reaches z; everywhere else
    they are assembled exactly, S_w and K_w in one kernel pass on every
    usable CPU.  This is the one place that choice is made, operator by
    operator.  (A solve at z == w factors nothing unless GMRES is refused,
    and then the operators it holds: ``_transmission_flux``; a dilated
    sweep's stacked rows take no factorization of their own:
    ``_lockstep_flux``.)

    With M = I + kappa (1/2 + K_w) S_z S_w^{-1}, S_w^{-1} M S_w
    = I + kappa DN_w S_z, so

        (I + kappa DN_w S_z)^{-1} DN_w = S_w^{-1} M^{-1} (1/2 + K_w)
                                       = (M S_w)^{-1} (1/2 + K_w).

    The right-hand side is the product (1/2 + K_w) trace, taken before
    1/2 + K_w is consumed; M^{-1} (1/2 + K_w) = (I - M^{-1}) / kappa
    would need no product, but loses digits to cancellation in I - M^{-1}
    far below the resonance (docs/scaling_identities.md).

    The one matrix M S_w = S_w + kappa (1/2 + K_w) S_z is formed
    F-ordered (one matmul; S_z, the stack's product or an exact assembly,
    and 1/2 + K_w are released right after it, and a stacked S_w is summed
    only then) and factored in place, and S_w is kept for
    M^{-1} = S_w (M S_w)^{-1}.  Since
    det(M S_w) = det M det S_w, the guard on M S_w trips when M or S_w is
    singular.

    This is the only place M S_w is factored for one wavenumber: the
    solvers at z != w and ``expansion_residual`` all read it from here.
    """
    # a stacked S_w is summed once 1/2 + K_w and S_z are released, so the
    # product holds three n x n arrays
    stacked = stack is not None and stack.reaches(w)
    s, half_k = ((None, stack.double_layer(w)) if stacked
                 else assemble_layer_pair(mesh, w))
    half_k.flat[::mesh.n_panels + 1] += 0.5
    rhs = None if trace is None else half_k @ trace
    s_z = (stack.single_layer(z) if stack is not None and stack.reaches(z)
           else assemble_single_layer(mesh, z))
    ms = np.matmul(half_k, s_z, order="F")
    del half_k, s_z
    ms *= kappa
    if s is None:
        s = stack.single_layer(w)
    ms += s
    lu = _guarded_lu(ms, f"contrast matrix M S_w at wavenumber {w:.6g}, "
                         f"spectral parameter {z:.6g}")[0]
    return TransmissionFactors(rhs, lu, s)


# ----------------------------------------------------------------------------
# The contrast operator family and its small-scale expansions


def k2_resonance_frequency(spectral: SpectralData) -> float:
    """Frequency where the discrete quadratic coefficient 1 + w^2 <K_(2)>
    vanishes: the zero of the constants block's quadratic coefficient.

    It matches the Minnaert frequency sqrt(capacitance/volume) up to
    discretization error.  It is not the resonance of the assembled
    operator family on every mesh: it leaves out the coupling
    M_01 M_11^{-1} M_10 of the constants to the mean-free block, which
    shifts the eps^0 coefficient of the constants Schur complement.  On a
    sphere that coupling nearly vanishes by symmetry and the two agree
    closely; on other shapes they differ at discretization order, enough
    that the resonant expansion residual centred here loses its rate.
    """
    mean = spectral.k2_average()
    if mean >= 0:
        raise NumericalGuardError(f"expected a negative K_(2) average, got {mean:g}")
    return float(1.0 / np.sqrt(-mean))


def _discrete_coefficients(spectral, omega, z):
    k2m = spectral.k2_average()
    k3m = spectral.k3_average()
    quad = 1.0 + omega ** 2 * k2m
    cubic = (omega ** 3 * k3m
             + omega ** 2 * (z - omega) * (1j * spectral.capacitance / (4 * np.pi)) * k2m)
    return complex(quad), complex(cubic)


def check_eps(eps: float) -> None:
    """The scale rule every contracted solve and the CLI apply: eps lies in
    (0, 1) and its contrast ``_kappa(eps)`` is a finite float."""
    # 1/eps^2 overflows a float exactly when eps <= 2^-512
    if not 2.0 ** -512 < eps < 1:
        raise ValueError("eps must lie in (0, 1), with 1/eps^2 - 1 a finite "
                         f"float, got {eps}")


def _kappa(eps: float) -> float:
    """The contrast kappa = 1/eps^2 - 1 of the transmission problem at scale
    eps: the one place it is written."""
    return eps ** -2 - 1.0


def _contract(eps: float, omega: complex, z: complex) -> tuple:
    """The contracted wavenumbers (eps*omega, eps*z) of a study at scale
    eps: the one place the contraction is written."""
    check_eps(eps)
    return eps * omega, eps * z


def _contrast_factors(mesh: SurfaceMesh, eps: float, omega: complex,
                      z: complex, stack: SeriesStack | None = None,
                      trace: np.ndarray | None = None) -> TransmissionFactors:
    """``_factor_transmission`` on the reference ``mesh`` at the contracted
    wavenumbers ``_contract(eps, omega, z)`` and kappa = ``_kappa(eps)``,
    where eps^2 M is the contrast operator
    eps^2 + (1-eps^2)(1/2 + K_{eps w}) S_{eps z} S_{eps w}^{-1}, with the
    right-hand side of ``trace`` if given.

    The dilated solve, the interaction operator, the resolvent kernel and
    ``expansion_residual`` all factor through it, and ``_series_stack``
    sizes a study's stack by the same contraction.
    """
    return _factor_transmission(mesh, *_contract(eps, omega, z),
                                _kappa(eps), stack, trace)


# The dilated sweep in lockstep (docs/scaling_identities.md, "The sweep in
# lockstep"): the Krylov steps a row may take on each of its two systems,
# and the normwise backward error it must reach on both
_LOCKSTEP_STEPS = 10
_LOCKSTEP_ETA = 1e-14
# The steps each of the two systems of one frequency may take
# (docs/scaling_identities.md, "One frequency by Krylov")
_SINGLE_STEPS = 30


def _lockstep_width(n: int, rows: int) -> int:
    """Rows per lockstep block of a sweep of ``rows`` rows: two blocks are
    live at once, one per lane, and their Krylov bases, steps + 1 vectors
    of n entries per row, hold no more than one complex n x n array
    together; and no more than half the rows, so that both lanes have a
    block.  It depends on n and the row count only, never on the CPUs."""
    return max(1, min(n // (2 * (_LOCKSTEP_STEPS + 1)), -(-rows // 2)))


def _lockstep_gmres(apply, precondition, b: np.ndarray, a_norm: float,
                    a_condition: float, steps: int) -> tuple:
    """Right-preconditioned GMRES (Saad and Schultz, 1986) on the columns
    of ``b`` at once, column j solving its own system A_j x_j = b_j in at
    most ``steps`` steps: ``apply(cols, v)`` gives A_j v_j for the columns
    ``cols`` of the block and their vectors v, and ``precondition(v)``
    gives A_c^{-1} v for a block v, A_c one matrix near every A_j, whose
    condition estimate is ``a_condition``.  ``a_norm`` is the 1-norm the
    backward error is measured against: the lockstep sweep's rows share
    A_c's (``_lockstep_flux``), and one frequency's system is measured
    against its own operator's (``_transmission_flux``).

    Each step is one ``apply`` to all columns still running.  A column is
    accepted once its true normwise backward error
    ||b - A x|| / (a_norm ||x|| + ||b||) is at most _LOCKSTEP_ETA (the
    least-squares residual only says when to compute it) and its condition
    estimate cond(A_c) cond_2(H_j), H_j its (k + 1) x k Hessenberg matrix,
    is within CONDITION_LIMIT.  Returns the solutions and, per column,
    None if it was accepted, else why not.
    """
    n, cols = b.shape
    basis = np.empty((steps + 1, n, cols), dtype=complex)
    hess = np.zeros((cols, steps + 1, steps), dtype=complex)
    b_norm = np.linalg.norm(b, axis=0)
    basis[0] = b / b_norm
    x = np.zeros_like(b)
    why = [f"backward error above {_LOCKSTEP_ETA:g} after "
           f"{steps} Krylov steps"] * cols
    run = np.arange(cols)
    for k in range(steps):
        if not run.size:
            break
        v = basis[:k + 1, :, run]
        u = apply(run, precondition(v[k]))
        for _ in range(2):   # classical Gram-Schmidt, twice
            h = np.einsum("knj,nj->jk", v.conj(), u)
            u -= np.einsum("knj,jk->nj", v, h)
            hess[run, :k + 1, k] += h
        hess[run, k + 1, k] = np.linalg.norm(u, axis=0)
        basis[k + 1][:, run] = u / hess[run, k + 1, k]
        # the least-squares problem min ||beta e_1 - H y|| of each column
        hbar = hess[run, :k + 2, :k + 1]
        beta = np.zeros((len(run), k + 2, 1), dtype=complex)
        beta[:, 0, 0] = b_norm[run]
        q, r = np.linalg.qr(hbar)
        y = np.linalg.solve(r, q.conj().transpose(0, 2, 1) @ beta)
        estimate = np.linalg.norm(beta - hbar @ y, axis=(1, 2))
        xs = precondition(np.einsum("knj,jk->nj", v, y[:, :, 0]))
        scale = a_norm * np.linalg.norm(xs, axis=0) + b_norm[run]
        # an operator whose 1-norm overflows has no backward error
        stop = ~(np.isfinite(estimate) & np.isfinite(scale))
        for j in np.flatnonzero(stop):
            why[run[j]] = f"non-finite residual at Krylov step {k + 1}"
        near = np.flatnonzero(estimate <= _LOCKSTEP_ETA * scale)
        if near.size:
            true = np.linalg.norm(b[:, run[near]] - apply(run[near],
                                                          xs[:, near]),
                                  axis=0) / scale[near]
            sv = np.linalg.svd(hbar[near], compute_uv=False)
            condition = a_condition * sv[:, 0] / sv[:, -1]
            for j, eta, est in zip(near, true, condition):
                if not np.isfinite(eta):
                    why[run[j]] = f"non-finite residual at Krylov step {k + 1}"
                elif eta > _LOCKSTEP_ETA:
                    continue
                elif est > CONDITION_LIMIT:
                    why[run[j]] = (f"condition estimate {est:.3g} exceeds "
                                   f"{CONDITION_LIMIT:.0e}")
                else:
                    why[run[j]] = None
                    x[:, run[j]] = xs[:, j]
                stop[j] = True
        run = run[~stop]
    return x, why


def _lockstep_flux(spectral: SpectralData, stack: SeriesStack | None,
                   eps: float, omegas, trace):
    """Yield (j, flux, why) for every study (eps, omegas[j], omegas[j]) whose
    contracted wavenumber w_j the series ``stack`` reaches: the interior
    flux S_w^{-1} M^{-1} (1/2 + K_w) trace(j) of the trace ``trace(j)`` and
    None, or None and why the row is left to be solved on its own from
    exact operators (``_transmission_flux``, as a single dilated solve).

    The rows are cut into contiguous blocks of ``_lockstep_width`` rows,
    each solved by ``_lockstep_gmres`` on M_j y = (1/2 + K_{w_j}) trace,
    then on S_{w_j} x = y, every operator the stack's products cut at the
    order the tail bound needs at w_j (``SeriesStack.apply``), so no row
    sums an operator or takes an LU.  M is preconditioned by the one
    guarded LU of M at the midpoint of the contracted grid, S by
    ``spectral.s0_lu``; if the centre's guard trips, every row is left to
    its own factorization.  The blocks run in two lanes on
    ``layer_ops._side_by_side``, lane b solving blocks b, b + 2, ... in
    order, each solve with its own copy of the shared pivots
    (``_lu_solve``); the cut does not depend on the worker count, so
    neither do the bytes.  The rows are yielded in grid order.
    """
    if stack is None:
        return
    ws = [_contract(eps, omega, omega)[0] for omega in omegas]
    rows = [j for j, w in enumerate(ws) if stack.reaches(w)]
    if not rows:
        return
    n, kappa = spectral.mesh.n_panels, _kappa(eps)
    centre = 0.5 * (ws[rows[0]] + ws[rows[-1]])
    try:
        m = stack.double_layer(centre)
        _form_contrast(m, kappa)
        m_lu, m_norm, m_condition = _contrast_lu(m, centre, centre)
    except (NumericalGuardError, ValueError) as exc:
        for j in rows:
            yield j, None, f"centre preconditioner: {exc}"
        return

    def solve_block(block):
        zs = np.array([ws[j] for j in block])
        traces = np.stack([trace(j) for j in block], axis=1)

        def m_apply(cols, v):
            out = stack.apply("double", zs[cols], v)
            out += 0.5 * v
            out *= kappa
            out += v
            return out

        rhs = stack.apply("double", zs, traces)
        rhs += 0.5 * traces
        y, why = _lockstep_gmres(m_apply, lambda v: _lu_solve(m_lu, v), rhs,
                                 m_norm, m_condition, _LOCKSTEP_STEPS)
        solved = [c for c, reason in enumerate(why) if reason is None]
        x, why_s = _lockstep_gmres(
            lambda cols, v: stack.apply("single", zs[solved][cols], v),
            partial(_s0_solve, spectral), y[:, solved], spectral.s0_norm,
            spectral.s0_condition, _LOCKSTEP_STEPS)
        out = []
        for c, j in enumerate(block):
            if why[c] is not None:
                out.append((j, None, f"M system: {why[c]}"))
                continue
            i = solved.index(c)
            out.append((j, x[:, i], None) if why_s[i] is None
                       else (j, None, f"S system: {why_s[i]}"))
        return out

    width = _lockstep_width(n, len(rows))
    blocks = [rows[lo:lo + width] for lo in range(0, len(rows), width)]
    lanes = min(2, len(blocks))
    by_lane = _side_by_side(
        [lambda b=b: [solve_block(block) for block in blocks[b::lanes]]
         for b in range(lanes)], "lockstep lane")
    for b in range(len(blocks)):
        yield from by_lane[b % lanes][b // lanes]


def _transmission_flux(mesh: SurfaceMesh, w: float, kappa: float,
                       trace: np.ndarray, spectral: SpectralData,
                       scale: float = 1.0) -> tuple:
    """The interior flux S_w^{-1} M^{-1} (1/2 + K_w) ``trace`` on ``mesh``
    at z == w, and None, or, if GMRES does not accept it, the flux of the
    guarded LUs of S_w and M and why not (docs/scaling_identities.md, "One
    frequency by Krylov").  ``mesh`` is ``spectral.mesh`` dilated by
    ``scale`` about any point, so its S_0 is ``scale`` times
    ``spectral.mesh``'s.

    One kernel pass gives S_w and K_w, and M is formed from K_w in place
    after the right-hand side (``_form_contrast``).  Then two
    single-column ``_lockstep_gmres`` solves of at most _SINGLE_STEPS
    steps each, each measured against its own operator's 1-norm:
    M y = (1/2 + K_w) trace with no preconditioner, since M is
    kappa (1/2 + K_w) off the constants, whose spectrum clusters near
    kappa / 2, and 1 on them; and S_w x = y preconditioned by
    S_0^{-1} / scale.  No LU is taken.  If either system is refused, the
    S_w and M it holds are factored in place under the guard, S_w first
    and then M (``_contrast_lu``), so where both guards trip S_w's error
    is raised, and the flux is S_w^{-1} M^{-1} (1/2 + K_w) trace from
    those LUs: no second kernel pass, and no thread.
    """
    def times(a):
        # by scipy's BLAS, as the S_0 solves are: numpy and scipy each load
        # an OpenBLAS, and steps that alternate the two thread pools ran
        # 100 times slower at n = 80 on two cores
        return lambda _, v: blas.zgemv(1.0, a, v[:, 0])[:, None]

    s, m = assemble_layer_pair(mesh, w)
    rhs = _form_contrast(m, kappa, trace)
    y, (why,) = _lockstep_gmres(times(m), lambda v: v, rhs[:, None],
                                _one_norm(m), 1.0, _SINGLE_STEPS)
    if why is None:
        x, (why,) = _lockstep_gmres(
            times(s), lambda v: _s0_solve(spectral, v) / scale, y,
            _one_norm(s), spectral.s0_condition, _SINGLE_STEPS)
        if why is None:
            return x[:, 0], None
        why = f"S system: {why}"
    else:
        why = f"M system: {why}"
    s_lu = _guarded_lu(s, f"single layer S at wavenumber {w:.6g}")[0]
    return _lu_solve(s_lu, _lu_solve(_contrast_lu(m, w, w)[0], rhs)), why


_GK_TOLERANCE = 1e-12
_GK_MAX_STEPS = 60


def _reorthogonalize(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """x less its components along the orthonormal rows of ``basis``, by
    two classical Gram-Schmidt passes."""
    for _ in range(2):
        x = x - (basis.conj() @ x) @ basis
    return x


def _operator_norm(apply, apply_adjoint, n: int, context: str) -> float:
    """2-norm of the n x n operator A given by v -> A v and u -> A^H u, by
    Golub-Kahan bidiagonalization with full reorthogonalization
    (docs/scaling_identities.md, "Norms without the SVD").

    After j + 1 steps A V = U B and A^H U = V B^T + beta_j v_{j+1} e_j^T,
    with B real upper bidiagonal.  The largest singular value sigma of B,
    with left singular vector x, is at most ||A||, and beta_j |x_j| is its
    Ritz residual.  The start vector is fixed, so the result is
    reproducible; the iteration stops once the residual is at most
    _GK_TOLERANCE sigma and raises NumericalGuardError if it has not within
    _GK_MAX_STEPS steps (or n, if smaller).
    """
    steps = min(n, _GK_MAX_STEPS)
    us = np.zeros((steps, n), dtype=complex)
    vs = np.zeros((steps + 1, n), dtype=complex)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    start = np.sin(np.arange(1.0, n + 1))
    vs[0] = start / np.linalg.norm(start)
    for j in range(steps):
        u = apply(vs[j])
        if j:
            u -= beta[j - 1] * us[j - 1]
        u = _reorthogonalize(u, us[:j])
        alpha[j] = np.linalg.norm(u)
        us[j] = u / alpha[j]
        v = _reorthogonalize(apply_adjoint(us[j]) - alpha[j] * vs[j],
                             vs[:j + 1])
        beta[j] = np.linalg.norm(v)
        x, sigma, _ = svd(np.diag(alpha[:j + 1]) + np.diag(beta[:j], 1))
        if beta[j] * abs(x[-1, 0]) <= _GK_TOLERANCE * sigma[0]:
            return float(sigma[0])
        vs[j + 1] = v / beta[j]
    raise NumericalGuardError(f"{context}: the Golub-Kahan norm did not "
                              f"converge in {steps} steps")


def expansion_residual(spectral: SpectralData, eps: float, omega: complex,
                       z: complex, stack: SeriesStack | None = None) -> float:
    """Distance of the rescaled inverse contrast operator from its limit:
    the residual of M^{-1} ~ P_0/E (off resonance) or of
    eps M^{-1} ~ coefficient * P_0 (at resonance) in the S_0^{-1} norm, a
    float, with M = eps^{-2} times the contrast operator
    (``_factor_transmission``).

    The norm is ||L^T T L^{-T}||_2 for T = scale M^{-1} - coefficient P_0
    and L the Gram Cholesky factor, taken by ``_operator_norm``
    (Golub-Kahan): each step applies M^{-1} and M^{-H} to one vector
    through the one LU of M S_w, P_0 as rank one and L by triangular
    solves, so neither M^{-1} nor an SVD of an n x n matrix is formed.
    Given a series ``stack`` of the mesh, S and K are read from it where it
    reaches (``_factor_transmission``).

    ``omega`` counts as resonant when the discrete quadratic coefficient
    vanishes to 1e-8, as it does at ``k2_resonance_frequency``.  Off
    resonance the limit coefficient is the reciprocal of the discrete
    quadratic coefficient; at resonance it is the reciprocal of the discrete
    cubic coefficient.  Their closed forms, 1/(1 - omega^2/omega_M^2) and
    (4 pi / c) i/z, follow from the capacitance c and the Minnaert
    frequency omega_M that ``spectral`` holds, so they are not computed
    here; the gap between a limit coefficient and its closed form is
    discretization error, apart from the scale-expansion error the
    residual measures (``tests/reference.py``, ``expansion_coefficients``).
    """
    quad, cubic = _discrete_coefficients(spectral, omega, z)
    f = _contrast_factors(spectral.mesh, eps, omega, z, stack)
    resonant = abs(quad) < 1e-8
    if resonant and z == 0:
        raise ValueError("the resonant expansion needs z != 0")
    reference, scale = (1.0 / cubic, eps) if resonant else (1.0 / quad, 1.0)
    # T = scale M^{-1} - reference 1 w^T (w = p0_row) has, in the S_0^{-1}
    # norm, the 2-norm of L^T T L^{-T}, with L the Gram Cholesky factor
    ell, w = spectral.gram_cholesky(), spectral.p0_row

    def apply(v):
        x = solve_triangular(ell, v, lower=True, trans="T")
        return ell.T @ (scale * f.m_solve(x) - reference * (w @ x))

    def apply_adjoint(u):
        y = ell @ u
        return solve_triangular(ell, scale * f.m_adjoint_solve(y)
                                - np.conj(reference) * y.sum() * w,
                                lower=True)

    return _operator_norm(apply, apply_adjoint, spectral.mesh.n_panels,
                          "expansion residual")
