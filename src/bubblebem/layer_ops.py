"""Collocation assembly of Helmholtz boundary operators on flat-panel meshes.

Discretization: piecewise-constant densities, collocation at panel centroids,
a fixed 6-point degree-4 symmetric triangle rule for regular integrals, and
closed-form integration of the 1/|x-y| part on the singular self panel.  The
oscillatory factor is split off as (e^{izr}-1)/r, which is bounded and handled
by the regular rule.

Matrix convention: entry (i, j) approximates the integral of the kernel over
panel j, observed at the centroid of panel i, so matrices act directly on
per-panel coefficient vectors.  Operators are plain F-ordered (n, n)
arrays, float64 at z = 0 and complex otherwise, and boundary data are 1-d
arrays; each function's docstring says whether it takes a trace (Dirichlet
data) or a density (single-layer charge, flux).

Every kernel runs the same pass, ``_row_chunks``: observation points in
chunks against all quadrature nodes, each chunk handed to a chunk body;
``_panel_sum`` folds each panel's 6 node values.  The observation points
are cut into contiguous row blocks, one per CPU in the process's affinity
mask but never more than the chunks a serial pass would make.  The blocks
run on ``_side_by_side``, the package's one worker pool and the one place
threads are started: in every call the calling thread runs the first task
(here, block) and a thread per call each other one, and every thread is
joined before the call returns.  The same pool runs the two lanes of row
blocks of the lockstep sweep (``boundary_calculus._lockstep_flux``) and
the ten contracted studies of
``cli.verification_checks``; no task hands a shared pivot array to
``lu_solve``, which writes to it while it solves
(``boundary_calculus._lu_solve``).  A pool call made inside one of its tasks
runs one task after another, so a pass inside a study runs its blocks on
that study's worker.  Each worker chunks at ``_CHUNK_PAIRS // workers``
(point, node) pairs, so the pairs in flight stay at ``_CHUNK_PAIRS`` per
pass and memory is O(_CHUNK_PAIRS) whatever the mesh size.  Chunk bodies
write only their own rows and call only private helpers and numpy ufuncs,
which release the GIL: no BLAS, whose threads are set apart, and no
public function, which a tracer may wrap with one span stack.  Study
tasks are the exception: each calls public functions from its own
worker, so a tracer sees spans from more than one thread at once.
The pass works on the three coordinate planes of one displacement block,
held in one workspace per call that also gives chunk bodies their scratch,
and ``_expi`` evaluates e^{izr} by real trigonometry for real z; both give
the same bits as the direct formulation (3-vector norms, ``np.einsum``,
``np.exp``), and neither the chunk size nor the worker count changes a
matrix entry or a potential value.

Exact S_z and K_z at one wavenumber take one pass, ``assemble_layer_pair``:
each chunk computes its distances, ν(y)·(x-y) and e^{izr} once for both
operators.  ``assemble_single_layer`` and ``assemble_double_layer`` run the
same chunk body for one operator.  One rule, ``_set_diagonals``, sets the
self-panel diagonals of every S_z and K_z; K_z's is -1/2 minus the static
off-diagonal row sum at every z, so exact and stacked K_z share it.

Every real operator comes from one chunk body, ``_series_pass``: the terms
A_k and B_k of the wavenumber series S_z = Σ (iz)^k A_k and
K_z = Σ (iz)^k B_k, handed to its caller row block by row block, and the
diagonals of A_0 = S_0 and B_0 = K_0.  The exact S_0 and K_0 are its
order-0 pass; ``assemble_series_stack`` keeps every term up to an order,
and a ``SeriesStack`` then gives S_z or K_z by one matrix product of its
terms with the powers of iz, within a stated elementwise tail bound, or
applies them, at one wavenumber per column, to a block of columns by one
product of its terms with the block, which is how a frequency sweep
assembles its mesh only once and factors no row;
``_double_term_row_sums`` keeps only the row sums B_k 1, no n x n term.

Every operator is F-ordered, the layout in which LAPACK factors an
operator where it lies, so a factorization consumes the operator it is
given and copies nothing.

``single_layer_monopole`` gives the exact l = 0 coefficient of a
single-layer potential, a panel sum over the quadrature nodes that needs no
observation point.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .mesh import _CHUNK_PAIRS, SurfaceMesh

# Highest series order: what the tail bound needs at |z| * diameter = 1,
# the package's validity threshold eps * omega * diameter.
SERIES_MAX_ORDER = 17
SERIES_TAIL_TARGET = 1e-13

# Degree-4 symmetric triangle rule (6 points); weights sum to 1.
_QA, _QB, _QWA = 0.816847572980459, 0.091576213509771, 0.109951743655322
_QC, _QD, _QWB = 0.108103018168070, 0.445948490915965, 0.223381589678011
_QUAD_BARY = np.array([
    [_QA, _QB, _QB], [_QB, _QA, _QB], [_QB, _QB, _QA],
    [_QC, _QD, _QD], [_QD, _QC, _QD], [_QD, _QD, _QC],
])
_QUAD_W = np.array([_QWA, _QWA, _QWA, _QWB, _QWB, _QWB])


# ----------------------------------------------------------------------------
# Quadrature and singular integration


def panel_quadrature(mesh: SurfaceMesh) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes (nt, 6, 3) and weights (nt, 6) for every panel."""
    v0, v1, v2 = mesh.panel_vertices()
    nodes = (_QUAD_BARY[None, :, 0, None] * v0[:, None, :]
             + _QUAD_BARY[None, :, 1, None] * v1[:, None, :]
             + _QUAD_BARY[None, :, 2, None] * v2[:, None, :])
    weights = mesh.areas[:, None] * _QUAD_W[None, :]
    return nodes, weights


def triangle_inverse_distance_integral(points: np.ndarray, v0: np.ndarray,
                                       v1: np.ndarray, v2: np.ndarray,
                                       normals: np.ndarray) -> np.ndarray:
    """Closed-form integral of 1/|p-y| over flat triangles, one p per triangle.

    Arbitrary observation points are allowed; the formula sums per-edge
    log terms and an out-of-plane solid-angle correction.
    """
    points = np.atleast_2d(points)
    d = np.einsum("ij,ij->i", points - v0, normals)
    abs_d = np.abs(d)
    total = np.zeros(len(points))
    for a, b in ((v0, v1), (v1, v2), (v2, v0)):
        tangent = b - a
        tangent = tangent / np.linalg.norm(tangent, axis=1)[:, None]
        outward = np.cross(tangent, normals)
        sm = np.einsum("ij,ij->i", a - points, tangent)
        sp = np.einsum("ij,ij->i", b - points, tangent)
        t0 = np.einsum("ij,ij->i", a - points, outward)
        rm = np.linalg.norm(points - a, axis=1)
        rp = np.linalg.norm(points - b, axis=1)
        r0sq = t0 * t0 + d * d
        # log argument degenerates only for p on the edge line; clamp keeps
        # the 0*log(0) limit finite without branching
        num = np.maximum(rp + sp, 1e-300)
        den = np.maximum(rm + sm, 1e-300)
        total += t0 * np.log(num / den)
        total -= abs_d * (np.arctan2(t0 * sp, r0sq + abs_d * rp)
                          - np.arctan2(t0 * sm, r0sq + abs_d * rm))
    return total


def _self_panel_inverse_distance(mesh: SurfaceMesh) -> np.ndarray:
    """Exact ∫_T 1/(4π|c_T - y|) dσ(y) for every panel from its centroid."""
    v0, v1, v2 = mesh.panel_vertices()
    return triangle_inverse_distance_integral(mesh.centroids, v0, v1, v2,
                                              mesh.normals) / (4.0 * np.pi)


# ----------------------------------------------------------------------------
# Operator assembly


def _check_im(z: complex) -> complex:
    z = complex(z)
    if z.imag < 0:
        raise ValueError(f"wavenumber must satisfy Im z >= 0, got {z}")
    return z


def _worker_count(chunks: int) -> int:
    """Workers for ``chunks`` pieces of work that could each run alone (the
    chunks of a serial pass, the lanes of the lockstep sweep, the studies
    of ``verify``): one per CPU in this process's affinity mask
    (``os.cpu_count()`` on platforms without one), and never more than the
    pieces."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus, chunks)


def _row_chunks(targets: np.ndarray, nodes: np.ndarray,
                normals: np.ndarray | None, body) -> None:
    """The one chunked pass of every kernel: targets against all nodes.

    Calls ``body(rows, r, numer, work)`` for each chunk of targets x: the
    row slice, the distances |x-y| to every node y (rows, nodes), given
    the per-panel ``normals`` ν(y)·(x-y) (else None), and two spare
    (rows, nodes) float planes the body may overwrite (``_work_complex``
    views them as one complex array).  Each chunk is one (3, rows, nodes)
    block of coordinate planes, squared in place and summed into its first
    plane as (dx² + dy²) + dz², the order ``np.add.reduce`` sums a 3-vector
    in; that plane is r, the other two are ``work``.

    The targets are cut into contiguous row blocks, one per worker: as
    many as ``_worker_count`` allows for the chunks a serial pass of
    ``_CHUNK_PAIRS`` pairs per chunk makes, so a pass of one chunk starts
    no thread.  ``_side_by_side`` runs them: the calling thread block 0 and
    a ``threading.Thread`` per call each other block, or, inside a pool
    task, the calling thread every block in turn; numpy's ufunc loops
    release the GIL, so the blocks share the CPUs.  Each worker chunks at
    ``_CHUNK_PAIRS // workers`` pairs, so the pairs in flight stay at
    ``_CHUNK_PAIRS`` per pass, and the workers' coordinate planes are one
    workspace allocated once per pass.  A body writes only its own rows of
    preallocated outputs and calls only private helpers and numpy ufuncs:
    no BLAS, whose own threads are set apart, and no public function of
    the package, which a tracer may wrap with one span stack.  Every
    thread is joined before the pass returns, on error too, and the error
    of the lowest block is raised.  Each entry's arithmetic is the same
    whatever the blocks and chunks, so the results are bitwise the same
    for any worker count.
    """
    # contiguous planes keep every broadcast on unit-stride loops
    node_planes = np.ascontiguousarray(nodes.reshape(-1, 3).T)
    # ν(y) is constant on each source panel; (x + z) + y is the order
    # np.einsum sums the 3-term dot product in
    nu_planes = (None if normals is None
                 else np.ascontiguousarray(np.repeat(normals, 6, axis=0).T))
    n_rows, n_nodes = len(targets), node_planes.shape[1]
    serial_step = max(1, _CHUNK_PAIRS // n_nodes)
    workers = max(1, _worker_count(-(-n_rows // serial_step)))
    step = max(1, _CHUNK_PAIRS // workers // n_nodes)
    # np.array_split's blocks: the first n_rows % workers hold one more row
    base, extra = divmod(n_rows, workers)
    starts = [b * base + min(b, extra) for b in range(workers + 1)]
    # three planes per worker chunk, allocated once for the whole pass
    span = min(step, starts[1])
    workspace = np.empty((workers, 3 * span * n_nodes))

    def run_block(b: int) -> None:
        for lo in range(starts[b], starts[b + 1], step):
            rows = slice(lo, min(lo + step, starts[b + 1]))
            size = (rows.stop - rows.start) * n_nodes
            planes = workspace[b, :3 * size].reshape(3, -1, n_nodes)
            np.subtract(targets[rows].T[:, :, None],
                        node_planes[:, None, :], out=planes)
            numer = None
            if nu_planes is not None:
                numer = planes[0] * nu_planes[0]
                term = planes[2] * nu_planes[2]
                numer += term
                np.multiply(planes[1], nu_planes[1], out=term)
                numer += term
                del term
            np.square(planes, out=planes)
            r = planes[0]
            r += planes[1]
            r += planes[2]
            np.sqrt(r, out=r)
            body(rows, r, numer, planes[1:])
            del numer

    _side_by_side([lambda b=b: run_block(b) for b in range(workers)],
                  "row block")


# set on a thread while it runs tasks of a ``_side_by_side`` call
_in_task = threading.local()


def _side_by_side(tasks: list, name: str) -> list:
    """The results of ``tasks``, calls without arguments, in task order:
    the package's one worker pool, and the one place threads are started.

    N tasks run on W = ``_worker_count(N)`` workers, or on one for a call
    made inside a task, so workers never nest.  Worker b runs tasks b,
    b + W, b + 2W, ... in that order and stops at its first error.  The
    calling thread is worker 0; each other worker is a ``threading.Thread``
    named ``bubblebem <name> <b>``.  With one worker the tasks run on the
    calling thread in index order, the first error stopping them.  Every
    thread is joined before the call returns, on error too, and the error
    raised is that of the lowest-indexed failing task, the one a serial
    run raises, however the threads were timed.
    """
    nested = getattr(_in_task, "active", False)
    workers = 1 if nested else min(len(tasks), _worker_count(len(tasks)))
    results, errors = [None] * len(tasks), [None] * len(tasks)

    def run(worker: int) -> None:
        _in_task.active = True
        try:
            for index in range(worker, len(tasks), workers):
                try:
                    results[index] = tasks[index]()
                except BaseException as exc:
                    errors[index] = exc
                    return
        finally:
            _in_task.active = nested

    threads = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=run, args=(worker,),
                                      name=f"bubblebem {name} {worker}")
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    error = next((exc for exc in errors if exc is not None), None)
    if error is not None:
        raise error
    return results


def _work_complex(work: np.ndarray) -> np.ndarray:
    """A chunk's two spare planes (2, rows, nodes) as one complex
    (rows, nodes) array over the same memory."""
    return work.reshape(-1).view(complex).reshape(work.shape[1:])


def _expi(z: complex, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{izr} written into the complex array ``out``: cos and sin of the
    real phase for real z, the same bits as ``np.exp(1j * z * r)`` at about
    half the cost; ``np.exp`` itself for complex z."""
    if z.imag != 0:
        np.multiply(1j * z, r, out=out)
        return np.exp(out, out=out)
    phase = z.real * r
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _panel_sum(vals: np.ndarray) -> np.ndarray:
    """Sum each source panel's 6 node values: (rows, 6n) -> (rows, n).

    Adds whole node planes in the order ``sum(axis=2)`` of the (rows, n, 6)
    view adds six values, ((((v0+v1)+v2)+v3)+v4)+v5 for real and
    (((v0+v1)+(v2+v3))+v4)+v5 for complex data, so the bits are the same
    and no length-6 inner loop is run per entry.
    """
    v = vals.reshape(len(vals), -1, 6)
    acc = v[:, :, 0] + v[:, :, 1]
    if np.iscomplexobj(v):
        acc += v[:, :, 2] + v[:, :, 3]
    else:
        acc += v[:, :, 2]
        acc += v[:, :, 3]
    acc += v[:, :, 4]
    acc += v[:, :, 5]
    return acc


def _set_diagonals(mesh: SurfaceMesh, z: complex, s: np.ndarray | None,
                   k: np.ndarray | None, static_rowsum: np.ndarray) -> None:
    """Set the self-panel diagonals of S_z (``s``) and K_z (``k``), where
    not None: the one rule for both at every z.

    S's is the closed-form integral of 1/(4π|c - y|) over the panel from
    its centroid c, plus at z != 0 the regular rule on the bounded
    remainder (e^{izr}-1)/(4πr).  K's is the solid-angle rule, -1/2 minus
    the static off-diagonal row sum ``static_rowsum``, so that each row of
    K_0 applied to the constant trace 1 gives -1/2: every self-panel term
    of the kernel carries ν(y)·(c - y), which vanishes on a flat panel.
    """
    idx = np.arange(mesh.n_panels)
    if s is not None:
        s[idx, idx] = _self_panel_inverse_distance(mesh)
        if z != 0:
            nodes, weights = panel_quadrature(mesh)
            rself = np.linalg.norm(mesh.centroids[:, None, :] - nodes, axis=2)
            smooth = np.expm1(1j * z * rself) / (4.0 * np.pi * rself)
            s[idx, idx] += np.sum(smooth * weights, axis=1)
    if k is not None:
        k[idx, idx] = -0.5 - static_rowsum


def _one_minus_izr(z: complex, r: np.ndarray) -> np.ndarray:
    """1 - izr as a new complex array with no complex temporary: real part
    1 + Im z r and imaginary part 0 - Re z r, the bits of
    ``1.0 - 1j * z * r`` at every z (the 0 - keeps +0.0 where Re z r is
    0, as the complex product does)."""
    out = np.empty(r.shape, dtype=complex)
    np.multiply(r, z.imag, out=out.real)
    out.real += 1.0
    np.multiply(r, z.real, out=out.imag)
    np.subtract(0.0, out.imag, out=out.imag)
    return out


def _assemble_layers(mesh: SurfaceMesh, z: complex, single: bool,
                     double: bool) -> tuple:
    """S_z if ``single`` and K_z if ``double`` (else None), F-ordered, from
    one ``_row_chunks`` pass: the chunk body of every exact S and K
    assembly.

    At z = 0 both kernels are real: the pass is ``_series_pass`` of order
    0, which writes S_0 = A_0 and K_0 = B_0 as float64.  Otherwise each
    chunk's distances and e^{izr} serve both operators: K's entry
    B_0 * ((1 - izr) e^{izr}), with B_0's node values from
    ``_double_terms``, is formed first, and the same e^{izr} array then
    becomes S's entry e^{izr}/r * w in place.  ``_set_diagonals`` sets
    both diagonals, at z = 0 too.
    """
    z = _check_im(z)
    n = mesh.n_panels
    s_out, k_out = (np.empty((n, n), complex if z else float, order="F")
                    if wanted else None for wanted in (single, double))
    if z == 0:
        def take(kind, k, rows, block):
            (s_out, k_out)[kind][rows] = block

        _series_pass(mesh, 0, single, double, take, (s_out, k_out))
        return s_out, k_out
    nodes, weights = panel_quadrature(mesh)
    flat_w = weights.reshape(-1)
    static_rowsum = np.empty(n)

    def body(rows, r, static, work):
        e_izr = None
        if double:
            # static becomes B_0's node values, ν(y)·(x-y) w / (4π r³)
            static_rowsum[rows] = next(_double_terms(
                rows, r, static, flat_w, 0))[1].sum(axis=1)
            # static * ((1 - izr) e^{izr}) in place; complex products are
            # not bitwise commutative, so (1 - izr) stays the left factor.
            # It is formed after e^{izr}, once _expi's real phase array is
            # freed.
            e_izr = _expi(z, r, _work_complex(work))
            vals = _one_minus_izr(z, r)
            vals *= e_izr
            vals *= static
            block = _panel_sum(vals)
            np.fill_diagonal(block[:, rows], 0.0)
            k_out[rows] = block
            del block
        if single:
            vals = _expi(z, r, _work_complex(work)) if e_izr is None else e_izr
            vals /= r
            vals *= flat_w
            s_out[rows] = _panel_sum(vals) / (4.0 * np.pi)

    _row_chunks(mesh.centroids, nodes, mesh.normals if double else None,
                body)
    _set_diagonals(mesh, z, s_out, k_out, static_rowsum)
    return s_out, k_out


def assemble_single_layer(mesh: SurfaceMesh, z: complex) -> np.ndarray:
    """Single-layer boundary operator S_z with kernel e^{iz r}/(4π r): an
    (n, n) array that takes a density to a trace."""
    return _assemble_layers(mesh, z, single=True, double=False)[0]


def assemble_double_layer(mesh: SurfaceMesh, z: complex) -> np.ndarray:
    """Double-layer boundary operator K_z, kernel ν(y)·∇_y e^{iz r}/(4π r):
    an (n, n) array that takes a trace to a trace.

    Every self-panel term of the kernel carries ν(y)·(x-y), which vanishes
    on a flat panel, so at every z the diagonal is set by the solid-angle
    rule: -1/2 minus the static off-diagonal row sum, so that each row of
    K_0 applied to the constant trace 1 gives -1/2.
    """
    return _assemble_layers(mesh, z, single=False, double=True)[1]


def assemble_layer_pair(mesh: SurfaceMesh,
                        z: complex) -> tuple[np.ndarray, np.ndarray]:
    """S_z and K_z from one kernel pass that computes each distance and
    each e^{izr} once; the same entries, bit for bit, as
    ``assemble_single_layer`` and ``assemble_double_layer``."""
    return _assemble_layers(mesh, z, single=True, double=True)


# ----------------------------------------------------------------------------
# Wavenumber series: S_z = Σ (iz)^n A_n and K_z = Σ (iz)^n B_n


def series_tail_bound(rho: float, order: int) -> float:
    """Elementwise relative bound on the tail of both series past ``order``,
    rho = |z| * diameter, for Im z >= 0: rho^{N+1} e^{2 rho} / N!.

    The single layer's tail is smaller by a factor N+1; the double layer's
    carries the (1-n) factor of its terms (docs/scaling_identities.md).
    A bound past the largest float is inf.
    """
    try:
        return rho ** (order + 1) * math.exp(2.0 * rho) / math.factorial(order)
    except OverflowError:
        return math.inf


def _series_order(rho: float) -> int | None:
    """Smallest order whose tail bound meets SERIES_TAIL_TARGET, or None
    when that needs more than SERIES_MAX_ORDER terms."""
    return next((n for n in range(SERIES_MAX_ORDER + 1)
                 if series_tail_bound(rho, n) <= SERIES_TAIL_TARGET), None)


@dataclass
class SeriesStack:
    """Real series terms of S_z and K_z on one mesh, up to ``order``.

    S_z = Σ (iz)^n A_n with A_0 the static single layer (closed-form self
    panel), and K_z = Σ (iz)^n B_n with B_1 = 0, so the coefficient of z^n,
    the series coefficient operator S_(n) or K_(n), is i^n single[n] or
    i^n double[n].  Each operator's terms are one contiguous float64 block
    of shape (order + 1, n, n), B_1 a zero slot (which ``apply`` does not
    multiply), so the stack holds
    16 (order + 1) n^2 bytes.  S_z or K_z at the order N the tail bound
    needs for |z| * diameter is one matrix product: the 2 x (N + 1) real
    and imaginary parts of (iz)^k times the (N + 1, n^2) view of the first
    N + 1 terms, whose two planes become the real and imaginary parts of
    the complex result, so each evaluation reads each term it needs once.
    ``apply`` gives the products of S_z or K_z, one z per column, with a
    block of columns without forming any of them.
    """

    single: np.ndarray      # A_0, A_1, ..., A_N
    double: np.ndarray      # B_0, B_1 = 0, B_2, ..., B_N
    diameter: float

    @property
    def order(self) -> int:
        return len(self.single) - 1

    def _needed(self, z: complex) -> int | None:
        """The order the tail bound needs at z, or None if that is more
        than this stack holds."""
        needed = _series_order(abs(z) * self.diameter)
        return needed if needed is not None and needed <= self.order else None

    def reaches(self, z: complex) -> bool:
        """Whether the tail bound at |z| * diameter is met within this
        stack's order, so that S_z and K_z may be read from it."""
        return self._needed(z) is not None

    def _sum(self, terms: np.ndarray, z: complex) -> np.ndarray:
        """S_z or K_z, F-ordered, from one of the term blocks."""
        z = _check_im(z)
        needed = self._needed(z)
        if needed is None:
            raise ValueError(f"series stack of order {self.order} does not "
                             f"reach wavenumber {z:.6g}")
        powers = (1j * z) ** np.arange(needed + 1)
        planes = (np.array([powers.real, powers.imag])
                  @ terms[:needed + 1].reshape(needed + 1, -1))
        out = np.empty(terms.shape[1:], dtype=complex, order="F")
        out.real = planes[0].reshape(out.shape)
        out.imag = planes[1].reshape(out.shape)
        return out

    def single_layer(self, z: complex) -> np.ndarray:
        return self._sum(self.single, z)

    def double_layer(self, z: complex) -> np.ndarray:
        return self._sum(self.double, z)

    def apply(self, layer: str, zs, block: np.ndarray) -> np.ndarray:
        """S_z (``layer`` "single") or K_z ("double") at z = ``zs[j]``
        applied to column j of the complex (n, len(zs)) ``block``, each
        column's series cut at the order the tail bound needs at its own z,
        so column j gets the operator ``single_layer(zs[j])`` or
        ``double_layer(zs[j])`` sums.

        One matrix product of the ((N + 1) n, n) view of the first N + 1
        terms, N the largest order needed, with the (n, 2 len(zs)) real view
        of the block: the terms are read once for all columns and never
        made complex.  The double layer skips its zero slot B_1, whose rows
        of the product are 0: B_0 and B_2, ..., B_N take one product each.
        """
        zs = [_check_im(z) for z in zs]
        needed = [self._needed(z) for z in zs]
        if None in needed:
            z = zs[needed.index(None)]
            raise ValueError(f"series stack of order {self.order} does not "
                             f"reach wavenumber {z:.6g}")
        top = max(needed)
        terms = {"single": self.single, "double": self.double}[layer]
        n = terms.shape[1]
        real = np.ascontiguousarray(block).view(float)
        planes = np.zeros((top + 1, n, real.shape[1]))
        for lo, hi in ([(0, top + 1)] if layer == "single"
                       else [(0, 1), (2, top + 1)]):
            np.matmul(terms[lo:hi].reshape(-1, n), real,
                      out=planes[lo:hi].reshape(-1, real.shape[1]))
        planes = planes.view(complex)
        k = np.arange(top + 1)[:, None]
        powers = np.where(k <= needed, (1j * np.array(zs)) ** k, 0.0)
        return np.einsum("kj,knj->nj", powers, planes)


def _double_terms(rows: slice, r: np.ndarray, k_vals: np.ndarray,
                  flat_w: np.ndarray, order: int):
    """A chunk's row blocks of the static double layer B_0 (zero diagonal)
    and of B_k, 2 <= k <= ``order``, as (k, block) pairs.

    ``k_vals``, ν(y)·(x-y) at the chunk's (point, node) pairs, becomes the
    node values of B_0, ν(y)·(x-y) w / (4π r³), and is then raised to
    successive powers of r in place; each block is formed once the caller
    has taken the previous one.  On a flat self panel ν ⟂ (x-y) exactly,
    so each diagonal is set to 0, dropping the rounding residue.
    """
    k_vals /= 4.0 * np.pi * r ** 3
    k_vals *= flat_w
    block = _panel_sum(k_vals)
    np.fill_diagonal(block[:, rows], 0.0)
    yield 0, block
    for k in range(1, order + 1):
        k_vals *= r
        if k > 1:
            block = _panel_sum(k_vals) * ((1 - k) / math.factorial(k))
            np.fill_diagonal(block[:, rows], 0.0)
            yield k, block


def _series_pass(mesh: SurfaceMesh, order: int, single: bool, double: bool,
                 take, outs: tuple = (None, None)) -> None:
    """The one chunked pass that forms real operators: the terms A_k if
    ``single`` and B_k (k != 1) if ``double``, k = 0, ..., ``order``.

    ``take(kind, k, rows, block)`` receives each chunk's row block of A_k
    (kind 0) or B_k (kind 1).  A_0 is the static single layer, 1/r under
    the regular rule; A_k = (1/4π k!) |x-y|^{k-1}, and B_0 and B_k from
    ``_double_terms``, the node values raised to successive powers of r in
    place.  Once the pass is done ``_set_diagonals`` sets the diagonals
    of ``outs`` = (A_0, B_0), where not None.
    """
    nodes, weights = panel_quadrature(mesh)
    flat_w = weights.reshape(-1)
    static_rowsum = np.empty(mesh.n_panels)

    def body(rows, r, k_vals, work):
        if double:
            for k, block in _double_terms(rows, r, k_vals, flat_w, order):
                if k == 0:
                    static_rowsum[rows] = block.sum(axis=1)
                take(1, k, rows, block)
        if single:
            s_vals = np.divide(1.0, r, out=work[0])
            s_vals *= flat_w
            take(0, 0, rows, _panel_sum(s_vals) / (4.0 * np.pi))
            for k in range(1, order + 1):
                if k == 1:
                    s_vals[:] = flat_w / (4.0 * np.pi)
                else:
                    s_vals *= r
                take(0, k, rows, _panel_sum(s_vals) / math.factorial(k))

    _row_chunks(mesh.centroids, nodes, mesh.normals if double else None,
                body)
    _set_diagonals(mesh, 0, *outs, static_rowsum)


def assemble_series_stack(mesh: SurfaceMesh, order: int) -> SeriesStack:
    """Series terms of S and K up to ``order`` in one ``_series_pass``.

    A_0 and B_0 are the real static single and double layers, the bits of
    ``assemble_layer_pair(mesh, 0)``; B_n (n >= 2) vanishes on flat self
    panels.  The terms are one (2, order + 1, n, n) block whose halves are
    ``single`` and ``double``; B_1 = 0 keeps a zero slot, so ``double[k]``
    is B_k for every k.
    """
    if not 0 <= order <= SERIES_MAX_ORDER:
        raise ValueError(f"series order must be in [0, {SERIES_MAX_ORDER}], "
                         f"got {order}")
    n = mesh.n_panels
    terms = np.empty((2, order + 1, n, n))
    terms[1, 1:2] = 0.0

    def take(kind, k, rows, block):
        terms[kind, k, rows] = block

    _series_pass(mesh, order, True, True, take, (terms[0, 0], terms[1, 0]))
    return SeriesStack(terms[0], terms[1], mesh.diameter)


def _double_term_row_sums(mesh: SurfaceMesh, order: int) -> np.ndarray:
    """B_k 1 for k = 2, ..., ``order`` (row k - 2 of the result): the row
    sums of the series stack's double-layer terms from one ``_series_pass``
    that keeps no n x n term, each chunk's blocks summed and dropped."""
    sums = np.empty((order - 1, mesh.n_panels))

    def take(kind, k, rows, block):
        if k > 1:
            sums[k - 2, rows] = block.sum(axis=1)

    _series_pass(mesh, order, False, True, take)
    return sums


def eval_single_layer_potential(mesh: SurfaceMesh, density: np.ndarray,
                                z: complex, points: np.ndarray) -> np.ndarray:
    """Off-surface single-layer potential of a density, given as its
    per-panel coefficients.

    Points must keep at least one panel diameter of clearance from the
    surface; near-surface evaluation is out of scope.
    """
    z = _check_im(z)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not len(points):
        return np.empty(0, dtype=complex)
    _check_clearance(mesh, points)
    nodes, weights = panel_quadrature(mesh)
    flat_w = weights.reshape(-1)
    out = np.empty(len(points), dtype=complex)

    def body(rows, r, _, work):
        vals = _expi(z, r, _work_complex(work))
        vals /= 4.0 * np.pi * r
        vals *= flat_w
        # an elementwise row sum: a matrix-vector product would sum a row
        # in an order that depends on how many rows the chunk holds
        out[rows] = (_panel_sum(vals) * density).sum(axis=1)

    _row_chunks(points, nodes, None, body)
    return out


def single_layer_monopole(mesh: SurfaceMesh, density: np.ndarray,
                          z, center: np.ndarray):
    """The l = 0 coefficient A about ``center`` of the single-layer
    potential of a density q (per-panel coefficients):
    SL_z[q](x) = A G_z(x - center) + (terms of order l >= 1)
    wherever |x - center| exceeds |y - center| for every y on the mesh.

    The l = 0 term of G_z(x - y) about the center is
    j_0(z |y - center|) G_z(x - center), j_0(t) = sin t / t
    = ``np.sinc(t / π)``, so A = Σ_j q_j ∫_{T_j} j_0(z |y - center|) dσ(y),
    summed with the panel rule of ``eval_single_layer_potential``.

    A block of densities, one per row, takes one wavenumber per row in
    ``z`` and gives the array of their coefficients; the rows share the
    quadrature nodes' distances to the center.
    """
    nodes, weights = panel_quadrature(mesh)
    r = np.linalg.norm(nodes - center, axis=2)
    density = np.asarray(density)
    amplitudes = [
        complex(np.sum(np.sinc(_check_im(zj) * r / np.pi) * weights, axis=1)
                @ q)
        for zj, q in zip(np.atleast_1d(z), np.atleast_2d(density),
                         strict=True)]
    return amplitudes[0] if density.ndim == 1 else np.array(amplitudes)


def _check_clearance(mesh: SurfaceMesh, points: np.ndarray) -> None:
    clearance = float(mesh.panel_diameters().max())
    gaps = np.empty(len(points))

    def body(rows, r, *_):
        gaps[rows] = r.min(axis=1)

    _row_chunks(points, mesh.centroids, None, body)
    if len(gaps) and gaps.min() < clearance:
        bad = int(np.argmin(gaps))
        raise ValueError(
            f"evaluation point {bad} is {gaps[bad]:.3g} from the surface, "
            f"closer than one panel diameter ({clearance:.3g})")
