import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from bubblebem import layer_ops
from bubblebem.layer_ops import (SERIES_MAX_ORDER, SERIES_TAIL_TARGET,
                                 assemble_double_layer, assemble_layer_pair,
                                 assemble_series_stack, assemble_single_layer,
                                 eval_single_layer_potential,
                                 panel_quadrature, series_tail_bound,
                                 single_layer_monopole,
                                 triangle_inverse_distance_integral)
from bubblebem.mesh import make_ellipsoid, make_icosphere, scale_about
from reference import affine_transform, series_horner


def duality_opnorm_gap(mesh, matrix):
    """Asymmetry of the L2(Gamma)-duality-weighted form of a collocation
    matrix (the matrix itself carries the source-panel area, so kernel
    symmetry shows up only after weighting by the observation area)."""
    w = mesh.areas[:, None] * matrix
    return np.linalg.norm(w - w.T, 2) / np.linalg.norm(w, 2)


# ----------------------------------------------------------------------------
# singular integration and quadrature building blocks


def test_inverse_distance_integral_offplane(rng):
    # oracle: recursively subdivided midpoint rule (regular integrand)
    def brute(p, tri, n=256):
        v0, v1, v2 = tri
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        up = (i + j) <= n - 1
        l1 = (i[up] + 1 / 3) / n
        l2 = (j[up] + 1 / 3) / n
        pts_up = (1 - l1 - l2)[:, None] * v0 + l1[:, None] * v1 + l2[:, None] * v2
        dn = (i + j) <= n - 2
        l1 = (i[dn] + 2 / 3) / n
        l2 = (j[dn] + 2 / 3) / n
        pts_dn = (1 - l1 - l2)[:, None] * v0 + l1[:, None] * v1 + l2[:, None] * v2
        pts = np.vstack([pts_up, pts_dn])
        area = 0.5 * np.linalg.norm(np.cross(v1 - v0, v2 - v0)) / n ** 2
        return area * np.sum(1.0 / np.linalg.norm(pts - p, axis=1))

    for _ in range(3):
        tri = rng.normal(size=(3, 3))
        normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        normal /= np.linalg.norm(normal)
        p = tri.mean(axis=0) + 0.8 * normal
        exact = triangle_inverse_distance_integral(
            p[None], tri[0][None], tri[1][None], tri[2][None], normal[None])[0]
        assert exact == pytest.approx(brute(p, tri), rel=1e-4)


def test_inverse_distance_integral_centroid(rng):
    # in-plane singular case; oracle integrates in polar coordinates where
    # the 1/r singularity cancels against the area element
    def polar(p, tri, nth=100000):
        v0 = tri[0]
        normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        normal /= np.linalg.norm(normal)
        e1 = (tri[1] - tri[0]) / np.linalg.norm(tri[1] - tri[0])
        e2 = np.cross(normal, e1)
        v2d = np.array([[(v - p) @ e1, (v - p) @ e2] for v in tri])
        th = (np.arange(nth) + 0.5) * 2 * np.pi / nth
        d = np.stack([np.cos(th), np.sin(th)], axis=1)
        rho = np.full(nth, np.inf)
        for a, b in ((v2d[0], v2d[1]), (v2d[1], v2d[2]), (v2d[2], v2d[0])):
            ab = b - a
            det = ab[0] * d[:, 1] - ab[1] * d[:, 0]
            t = (a[1] * d[:, 0] - a[0] * d[:, 1]) / det
            s = (a[1] * ab[0] - a[0] * ab[1]) / det
            ok = (t >= -1e-12) & (t <= 1 + 1e-12) & (s > 0)
            rho[ok] = np.minimum(rho[ok], s[ok])
        return rho.mean() * 2 * np.pi

    for _ in range(3):
        tri = rng.normal(size=(3, 3))
        normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        normal /= np.linalg.norm(normal)
        p = tri.mean(axis=0)
        exact = triangle_inverse_distance_integral(
            p[None], tri[0][None], tri[1][None], tri[2][None], normal[None])[0]
        assert exact == pytest.approx(polar(p, tri), rel=1e-7)


def test_far_panel_limits():
    # one-point limit of the panel integrals for a target far from the panel;
    # the leading error is the phase spread z*h^2/r plus (h/r)^2
    mesh = make_icosphere(0.02, 0)
    nodes, weights = panel_quadrature(mesh)
    z = 0.8
    j = 7
    target = mesh.centroids[j] + 50.0 * mesh.normals[j]
    r = np.linalg.norm(target - nodes[j], axis=1)
    quad_s = np.sum(np.exp(1j * z * r) / (4 * np.pi * r) * weights[j])
    d = target - mesh.centroids[j]
    rc = np.linalg.norm(d)
    one_point_s = np.exp(1j * z * rc) / (4 * np.pi * rc) * mesh.areas[j]
    assert abs(quad_s - one_point_s) <= 1e-6 * abs(one_point_s)

    # double layer: kernel nu(y).(x-y)(1 - izr)e^{izr}/(4 pi r^3)
    diff = target - nodes[j]
    numer = diff @ mesh.normals[j]
    quad_k = np.sum(numer * (1 - 1j * z * r) * np.exp(1j * z * r)
                    / (4 * np.pi * r ** 3) * weights[j])
    one_point_k = (mesh.normals[j] @ d) * (1 - 1j * z * rc) \
        * np.exp(1j * z * rc) / (4 * np.pi * rc ** 3) * mesh.areas[j]
    assert abs(quad_k - one_point_k) <= 1e-6 * abs(one_point_k)


# ----------------------------------------------------------------------------
# single layer


def test_s0_constant_density_identity(sphere3):
    s0 = assemble_single_layer(sphere3, 0.0)
    result = s0 @ np.ones(sphere3.n_panels)
    assert np.abs(result - 1.0).max() < 1e-2


@pytest.mark.parametrize("mesh_name", ["sphere2", "ellipsoid2"])
def test_s0_positive_definite(mesh_name, request):
    mesh = request.getfixturevalue(mesh_name)
    s0 = assemble_single_layer(mesh, 0.0)
    eigs = np.linalg.eigvalsh(0.5 * (s0 + s0.T))
    assert eigs.min() > 0


def test_sz_symmetry(sphere3):
    for z in (0.0, 0.5):
        s = assemble_single_layer(sphere3, z)
        assert duality_opnorm_gap(sphere3, s) <= 1e-3


def test_s_scaling_exact(sphere2):
    s_unit = assemble_single_layer(sphere2, 0.0)
    scaled_mesh = scale_about(sphere2, 3.0, np.zeros(3))
    s_scaled = assemble_single_layer(scaled_mesh, 0.0)
    assert np.abs(s_scaled - 3.0 * s_unit).max() <= 1e-12 * np.abs(s_unit).max()


def test_s_contracted_wavenumber_scaling(sphere2):
    # S_w on the mesh scaled by s equals s * S_{s w} on the unit mesh
    s = 0.1
    scaled = scale_about(sphere2, s, np.zeros(3))
    lhs = assemble_single_layer(scaled, 2.0)
    rhs = s * assemble_single_layer(sphere2, 2.0 * s)
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


# ----------------------------------------------------------------------------
# double layer


def test_gauss_identity_exact(sphere2):
    k0 = assemble_double_layer(sphere2, 0.0)
    ones = np.ones(sphere2.n_panels)
    assert np.abs(0.5 * ones + k0 @ ones).max() < 1e-13


def test_gauss_identity_breaks_at_nonzero_wavenumber(sphere2):
    kz = assemble_double_layer(sphere2, 0.7)
    ones = np.ones(sphere2.n_panels)
    assert np.abs(0.5 * ones + kz @ ones).max() > 1e-4


@settings(max_examples=25, deadline=None)
@given(axes=st.lists(st.floats(0.7, 1.5), min_size=3, max_size=3),
       angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
       shift=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_gauss_identity_on_moved_ellipsoids(axes, angles, shift):
    # the solid-angle diagonal makes (1/2 + K_0) 1 vanish to rounding for
    # any closed mesh in any placement, in the exact K_0 and in the
    # series stack's B_0 alike
    rotation = Rotation.from_euler("zyz", angles).as_matrix()
    mesh = affine_transform(make_ellipsoid(tuple(axes), 1), rotation, shift)
    ones = np.ones(mesh.n_panels)
    stack = assemble_series_stack(mesh, 2)
    for k0 in (assemble_double_layer(mesh, 0.0), stack.double[0]):
        assert np.abs(0.5 * ones + k0 @ ones).max() <= 1e-12


def test_k0_degree_one_eigenvalue(sphere3):
    # double layer with the source-side normal diagonalizes on spherical
    # harmonics: eigenvalue -1/(2(2l+1)), so -1/6 at degree one
    k0 = assemble_double_layer(sphere3, 0.0)
    y1 = sphere3.centroids[:, 2] / np.linalg.norm(sphere3.centroids, axis=1)
    w = sphere3.areas * y1
    lam = (w @ (k0 @ y1)) / (w @ y1)
    assert lam == pytest.approx(-1.0 / 6.0, rel=2e-2)


# ----------------------------------------------------------------------------
# series coefficient operators


def series_coefficients(mesh, order):
    """S_(n) = i^n A_n and K_(n) = i^n B_n, the coefficients of z^n, for
    n <= order, read from one series stack."""
    stack = assemble_series_stack(mesh, order)
    return tuple([1j ** n * term for n, term in enumerate(terms)]
                 for terms in (stack.single, stack.double))


def test_series_s1_rank_one(sphere2):
    s1 = series_coefficients(sphere2, 1)[0][1]
    coeff = np.ones(sphere2.n_panels)
    expected = 1j / (4 * np.pi) * sphere2.areas.sum()
    assert np.allclose(s1 @ coeff, expected, rtol=1e-12)
    assert np.linalg.matrix_rank(s1, tol=1e-10 * np.abs(s1).max()) == 1


def test_series_s1_equilibrium_identity(sphere2, spectral2):
    s1 = series_coefficients(sphere2, 1)[0][1]
    q = spectral2.q_eq
    target = 1j * spectral2.capacitance / (4 * np.pi)
    assert np.abs(s1 @ q - target).max() <= 2e-2 * abs(target)


def test_series_taylor_residual_single_layer(sphere2):
    terms = series_coefficients(sphere2, 3)[0][1:]
    s0 = assemble_single_layer(sphere2, 0.0)
    resid = []
    zs = (0.1, 0.2)
    for z in zs:
        sz = assemble_single_layer(sphere2, z)
        partial = s0 + sum(z ** (n + 1) * terms[n] for n in range(3))
        resid.append(np.linalg.norm(sz - partial, 2))
    order = np.log(resid[1] / resid[0]) / np.log(zs[1] / zs[0])
    assert order == pytest.approx(4.0, abs=0.2)


def test_series_k2_ball_identity(sphere3):
    # K_(2) applied to 1 equals minus the Newtonian potential of the ball on
    # its boundary, i.e. -1/3 on the unit sphere
    k2 = series_coefficients(sphere3, 2)[1][2]
    vals = k2 @ np.ones(sphere3.n_panels)
    assert np.abs(vals - (-1.0 / 3.0)).max() <= 2e-2 * (1.0 / 3.0)


def test_series_k3_volume_identity(sphere2, spectral2):
    from reference import s0_inner
    k3 = series_coefficients(sphere2, 3)[1][3]
    one = np.ones(sphere2.n_panels)
    value = s0_inner(spectral2, one, k3 @ one)
    target = -1j * spectral2.capacitance * sphere2.volume / (4 * np.pi)
    assert abs(value - target) <= 1e-10 * abs(target)


def test_series_taylor_residual_double_layer(sphere2):
    k0 = assemble_double_layer(sphere2, 0.0)
    k2, k3 = series_coefficients(sphere2, 3)[1][2:]
    resid = []
    zs = (0.1, 0.2)
    for z in zs:
        kz = assemble_double_layer(sphere2, z)
        partial = k0 + z ** 2 * k2 + z ** 3 * k3
        resid.append(np.linalg.norm(kz - partial, 2))
    order = np.log(resid[1] / resid[0]) / np.log(zs[1] / zs[0])
    assert order == pytest.approx(4.0, abs=0.2)


def test_series_order_bounds(sphere2):
    for order in (-1, SERIES_MAX_ORDER + 1):
        with pytest.raises(ValueError, match="series order must be in"):
            assemble_series_stack(sphere2, order)


# ----------------------------------------------------------------------------
# the wavenumber series stack


def _sub1_stack(mesh):
    return mesh, assemble_series_stack(mesh, SERIES_MAX_ORDER)


SUB1_STACKS = {"sphere": _sub1_stack(make_icosphere(1.0, 1)),
               "ellipsoid": _sub1_stack(make_ellipsoid((1.0, 1.3, 1.7), 1))}


def test_series_max_order_reaches_the_validity_threshold():
    # eps * omega * diameter <= 1 is the validity regime: the highest order
    # is the one its edge needs
    assert layer_ops._series_order(1.0) == SERIES_MAX_ORDER
    assert series_tail_bound(1.0, SERIES_MAX_ORDER - 1) > SERIES_TAIL_TARGET
    assert layer_ops._series_order(2.0) is None


@pytest.mark.parametrize("rho, order", [(400.0, 0), (1e300, 5)])
def test_a_tail_bound_past_the_largest_float_is_inf(rho, order):
    # e^{2 rho} or rho^{N+1} overflows: no order reaches such a wavenumber,
    # and asking raises nothing
    assert series_tail_bound(rho, order) == np.inf
    assert layer_ops._series_order(rho) is None


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(SUB1_STACKS)),
       rho=st.floats(0.0, 1.0), angle=st.floats(0.0, np.pi))
def test_series_stack_matches_exact_assembly(name, rho, angle):
    # the stack's matrix products against exact assembly, elementwise
    # within the tail bound the evaluation order guarantees, plus rounding
    mesh, stack = SUB1_STACKS[name]
    z = rho / mesh.diameter * np.exp(1j * angle)
    bound = series_tail_bound(rho, layer_ops._series_order(rho))
    for summed, exact in ((stack.single_layer(z),
                           assemble_single_layer(mesh, z)),
                          (stack.double_layer(z),
                           assemble_double_layer(mesh, z))):
        rounding = 64 * np.finfo(float).eps * np.abs(exact).max()
        assert np.all(np.abs(summed - exact)
                      <= bound * np.abs(exact) + rounding)


def _reach_edge(stack):
    """The largest |z| the stack reaches, to bisection precision."""
    lo, hi = 0.0, 2.0 / stack.diameter
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if stack.reaches(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("name", sorted(SUB1_STACKS))
def test_series_stack_product_matches_horner(name):
    # one matrix product per operator against Horner's rule in iz over the
    # same terms, elementwise within a few roundings of the largest entry,
    # at real and complex z, and at the edge of the order-17 reach
    mesh, stack = SUB1_STACKS[name]
    edge = _reach_edge(stack) * (1 - 1e-9)
    assert not stack.reaches(1.001 * edge)
    for z in (0.3 / mesh.diameter, 0.5 / mesh.diameter * np.exp(1.1j),
              edge, edge * np.exp(0.6j), 0.0):
        for terms, summed in ((stack.single, stack.single_layer(z)),
                              (stack.double, stack.double_layer(z))):
            horner = series_horner(stack, terms, z)
            assert np.all(np.abs(summed - horner)
                          <= 8 * np.finfo(float).eps * np.abs(horner).max())


def test_series_stack_apply_gives_each_column_its_own_operator():
    # apply cuts each column's series at its own order and skips the
    # double layer's zero slot B_1: column j is the product with the
    # operator single_layer(z_j) or double_layer(z_j) sums, within a few
    # roundings, also where the largest order needed is 0 (z = 0) or 1
    mesh, stack = SUB1_STACKS["ellipsoid"]
    rng = np.random.default_rng(7)
    assert (stack._needed(0.0), stack._needed(1e-8)) == (0, 1)
    for zs in ([0.0], [1e-8, 0.0],
               [0.05, 0.5 / mesh.diameter * np.exp(0.4j), 0.9 / mesh.diameter]):
        block = (rng.normal(size=(mesh.n_panels, len(zs)))
                 + 1j * rng.normal(size=(mesh.n_panels, len(zs))))
        for layer, operator in (("single", stack.single_layer),
                                ("double", stack.double_layer)):
            got = stack.apply(layer, zs, block)
            for j, z in enumerate(zs):
                want = operator(z) @ block[:, j]
                assert (np.abs(got[:, j] - want).max()
                        <= 1e-13 * np.abs(want).max())


def test_series_stack_product_is_deterministic():
    # two evaluations at the same z give the same bits
    mesh, stack = SUB1_STACKS["ellipsoid"]
    for z in (0.4 / mesh.diameter, 0.7 / mesh.diameter * np.exp(0.3j)):
        for evaluate in (stack.single_layer, stack.double_layer):
            assert evaluate(z).tobytes() == evaluate(z).tobytes()


def test_series_stack_refuses_beyond_its_order():
    mesh, _ = SUB1_STACKS["sphere"]
    stack = assemble_series_stack(mesh, 4)
    assert stack.order == 4
    with pytest.raises(ValueError, match="does not reach"):
        stack.single_layer(0.5)
    with pytest.raises(ValueError, match="Im z"):
        stack.double_layer(-0.01j)


def test_single_layer_assembly_frees_each_chunk(sphere2):
    # each row chunk's temporaries are dropped before the next chunk is
    # built: holding them lifted this peak to 16.6 MiB, without them it is
    # 11.0 MiB, for a 1.6 MiB result
    started = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assemble_single_layer(sphere2, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not started:
            tracemalloc.stop()
    assert peak - start <= 13 * 2 ** 20


def test_double_layer_assembly_peak_memory(sphere3):
    # one complex temporary per chunk of _CHUNK_PAIRS pairs: 38.4 MiB for
    # a 25 MiB result at n = 1280; with several complex temporaries per
    # 128-row chunk this peak was 94.2 MiB
    started = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assemble_double_layer(sphere3, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not started:
            tracemalloc.stop()
    assert peak - start <= 48 * 2 ** 20


def test_layer_pair_peak_memory(sphere3):
    # both n x n results (50 MiB at n = 1280) and one chunk's temporaries,
    # with the one e^{izr} array reused for S: 63.4 MiB at real z
    started = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assemble_layer_pair(sphere3, 1.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not started:
            tracemalloc.stop()
    assert peak - start <= 70 * 2 ** 20


def test_series_stack_reaches_where_its_order_meets_the_tail_target():
    # the order-4 bound meets the target near |z| * diameter = 0.0048
    mesh, _ = SUB1_STACKS["sphere"]
    stack = assemble_series_stack(mesh, 4)
    reached = []
    for z in np.linspace(0.0, 0.01, 101) / mesh.diameter:
        reached.append(stack.reaches(z))
        assert reached[-1] == (series_tail_bound(z * mesh.diameter, 4)
                               <= SERIES_TAIL_TARGET)
    assert reached[0] and not reached[-1]


def test_series_terms_are_slices_of_the_stack(sphere2):
    stack = assemble_series_stack(sphere2, 3)
    # B_1 = 0 is a zero slot of the double-layer block: it adds nothing
    assert stack.double.shape == (4, sphere2.n_panels, sphere2.n_panels)
    assert not stack.double[1].any()
    k0 = assemble_double_layer(sphere2, 0.0)
    assert np.abs(stack.double[0] - k0).max() <= 1e-15 * np.abs(k0).max()
    # A_0 is formed by the stack's own pass with the static single layer's
    # chunk arithmetic: the same bits
    assert stack.single[0].tobytes() == \
        assemble_single_layer(sphere2, 0.0).tobytes()


def test_double_term_row_sums_are_the_stack_terms_row_sums(sphere2):
    # one pass with no n x n term: B_k 1 for k = 2, 3 as the stack's terms
    # give them, up to the order of summation
    stack = assemble_series_stack(sphere2, 3)
    one = np.ones(sphere2.n_panels)
    sums = layer_ops._double_term_row_sums(sphere2, 3)
    assert sums.shape == (2, sphere2.n_panels)
    for k in (2, 3):
        expected = stack.double[k] @ one
        assert np.abs(sums[k - 2] - expected).max() \
            <= 1e-14 * np.abs(expected).max()


@pytest.mark.parametrize("z", [0.0, 1.6, 0.2 + 0.1j])
def test_f_ordered_layers_have_the_same_entries(sphere2, z):
    # every public reader returns an F-ordered operator, the layout LAPACK
    # factors in place, with the entries of the C-ordered formulation bit
    # for bit (tobytes() serializes in C order): the exact assemblers those
    # of the direct formulation, a stack's readers the C-ordered planes of
    # its one matrix product
    single, double, _ = _direct_formulation(
        sphere2, z, np.ones(sphere2.n_panels), np.array([[4.0, 0.0, 0.0]]))
    got = [assemble_single_layer(sphere2, z), assemble_double_layer(sphere2, z),
           *assemble_layer_pair(sphere2, z)]
    stack = assemble_series_stack(sphere2, 12)
    w = 0.04 * np.exp(0.2j) + z / 100
    needed = layer_ops._series_order(abs(w) * stack.diameter)
    powers = (1j * w) ** np.arange(needed + 1)
    wanted = [single, double, single, double]
    for read, terms in ((stack.single_layer, stack.single),
                        (stack.double_layer, stack.double)):
        got.append(read(w))
        planes = (np.array([powers.real, powers.imag])
                  @ terms[:needed + 1].reshape(needed + 1, -1))
        sum_c = np.empty(terms.shape[1:], dtype=complex)
        sum_c.real = planes[0].reshape(sum_c.shape)
        sum_c.imag = planes[1].reshape(sum_c.shape)
        wanted.append(sum_c)
    for operator, want in zip(got, wanted, strict=True):
        assert operator.flags.f_contiguous
        assert operator.tobytes() == want.tobytes()


# ----------------------------------------------------------------------------
# potentials off the surface


def test_potential_equilibrium_far_field(sphere2, spectral2):
    point = np.array([[10.0, 0.0, 0.0]])
    value = eval_single_layer_potential(sphere2, spectral2.q_eq, 0.0, point)[0]
    assert value.real == pytest.approx(spectral2.capacitance / (4 * np.pi * 10),
                                       rel=1e-2)


def test_potential_equilibrium_interior(sphere2, spectral2):
    point = np.array([[0.1, 0.2, -0.1]])
    value = eval_single_layer_potential(sphere2, spectral2.q_eq, 0.0, point)[0]
    assert value.real == pytest.approx(1.0, rel=1e-2)


def test_potential_outgoing_decay(sphere2, rng):
    density = rng.normal(size=sphere2.n_panels)
    radii = (20.0, 40.0, 80.0)
    values = [eval_single_layer_potential(
        sphere2, density, 1.3, np.array([[r, 0.0, 0.0]]))[0] for r in radii]
    scaled = np.abs(values) * np.array(radii)
    assert scaled.max() <= 2.0 * scaled.min()


def test_potential_near_surface_rejected(sphere2, spectral2):
    with pytest.raises(ValueError, match="panel diameter"):
        eval_single_layer_potential(sphere2, spectral2.q_eq, 0.0,
                                    np.array([[1.01, 0.0, 0.0]]))


def test_potential_on_no_points_does_no_panel_work(monkeypatch):
    # zero points (every sweep row) return at once: no quadrature, no
    # clearance scan, no kernel pass; the wavenumber rule still applies
    mesh = make_icosphere(1.0, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("panel work on zero points")

    for name in ("panel_quadrature", "_row_chunks"):
        monkeypatch.setattr(layer_ops, name, refuse)
    monkeypatch.setattr(type(mesh), "panel_diameters", refuse)
    values = eval_single_layer_potential(mesh, np.ones(mesh.n_panels), 1.6,
                                         np.empty((0, 3)))
    assert values.shape == (0,) and values.dtype == complex
    with pytest.raises(ValueError, match="Im z"):
        eval_single_layer_potential(mesh, np.ones(mesh.n_panels), -1j,
                                    np.empty((0, 3)))


def test_single_layer_monopole_is_the_spherical_mean(sphere2, rng):
    # averaging G_z(x - y) over |x - c| = R > |y - c| keeps only the l = 0
    # term j_0(z |y - c|) G_z(R), so the mean of SL_z[q] over that sphere
    # is A G_z(R) for any density q; a 32 x 64 Gauss product grid
    # integrates the potential's degrees up to 63 exactly
    n = sphere2.n_panels
    density = rng.normal(size=n) + 1j * rng.normal(size=n)
    center, radius, z = np.array([0.1, -0.2, 0.05]), 3.0, 1.3
    mu, w = np.polynomial.legendre.leggauss(32)
    phi = 2 * np.pi * np.arange(64) / 64
    rho = np.sqrt(1 - mu ** 2)[:, None]
    points = center + radius * np.stack(
        [rho * np.cos(phi), rho * np.sin(phi),
         np.broadcast_to(mu[:, None], (32, 64))], axis=-1).reshape(-1, 3)
    values = eval_single_layer_potential(sphere2, density, z, points)
    mean = w @ values.reshape(32, 64).mean(axis=1) / 2
    amplitude = single_layer_monopole(sphere2, density, z, center)
    green = np.exp(1j * z * radius) / (4 * np.pi * radius)
    assert abs(mean - amplitude * green) <= 1e-12 * abs(amplitude * green)


def test_single_layer_monopole_block_is_each_row(sphere2, rng):
    # a block of densities, one wavenumber per row, gives each row's own
    # coefficient bit for bit, and every wavenumber is checked
    n = sphere2.n_panels
    block = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    zs, center = [0.075, 0.09 + 0.01j, 1.3], np.array([0.1, -0.2, 0.05])
    rows = [single_layer_monopole(sphere2, q, z, center)
            for q, z in zip(block, zs)]
    assert all(type(a) is complex for a in rows)
    assert single_layer_monopole(sphere2, block, zs, center).tolist() == rows
    with pytest.raises(ValueError, match="Im z >= 0"):
        single_layer_monopole(sphere2, block, [0.075, 0.09 - 0.01j, 1.3],
                              center)


# ----------------------------------------------------------------------------
# the kernel pass


@pytest.mark.parametrize("chunk", [1, 7])
def test_assembly_independent_of_row_chunk(monkeypatch, chunk):
    # the row chunk bounds memory only; the results must not depend on it
    mesh = make_ellipsoid((1.0, 1.3, 1.7), 1)
    density = np.linspace(-1.0, 1.0, mesh.n_panels) + 0.5j
    angles = np.linspace(0.0, 6.0, 20)
    points = np.column_stack([3 * np.cos(angles), 3 * np.sin(angles),
                              np.full(20, 0.9)])

    def matrices():
        stack = assemble_series_stack(mesh, SERIES_MAX_ORDER)
        return ([assemble(mesh, z) for z in (0.0, 1.0 + 1.0j)
                 for assemble in (assemble_single_layer,
                                  assemble_double_layer)]
                + [op for z in (0.0, 1.6, 1.0 + 1.0j)
                   for op in assemble_layer_pair(mesh, z)]
                + [*stack.single, *stack.double])

    def potentials():
        return [eval_single_layer_potential(mesh, density, z, points)
                for z in (0.0, 1.6)]

    default_matrices, default_potentials = matrices(), potentials()
    monkeypatch.setattr(layer_ops, "_CHUNK_PAIRS", chunk * 6 * mesh.n_panels)
    for expected, got in zip(default_matrices, matrices(), strict=True):
        assert got.tobytes() == expected.tobytes()
    for expected, got in zip(default_potentials, potentials(), strict=True):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_assembly_independent_of_worker_count(monkeypatch, workers):
    # the row blocks share the work only; the results must not depend on
    # how many there are.  At 7 rows per serial chunk a sub-1 pass makes 12
    # chunks, 20 points make 3 and 5 points one, so 2 and 3 workers also
    # run more blocks than chunks, and blocks shorter than one chunk.  With
    # 7 workers and a short switch interval the threads outnumber the
    # cores and interleave often
    mesh = make_ellipsoid((1.0, 1.3, 1.7), 1)
    density = np.linspace(-1.0, 1.0, mesh.n_panels) + 0.5j
    angles = np.linspace(0.0, 6.0, 20)
    points = np.column_stack([3 * np.cos(angles), 3 * np.sin(angles),
                              np.full(20, 0.9)])

    def results():
        stack = assemble_series_stack(mesh, SERIES_MAX_ORDER)
        return ([op for z in (0.0, 1.6, 1.0 + 1.0j, 0.2j)
                 for op in (assemble_single_layer(mesh, z),
                            assemble_double_layer(mesh, z),
                            *assemble_layer_pair(mesh, z))]
                + [*stack.single, *stack.double]
                + [eval_single_layer_potential(mesh, density, z, at)
                   for z in (0.0, 1.6, 0.2j) for at in (points, points[:5])])

    expected = results()
    monkeypatch.setattr(layer_ops, "_CHUNK_PAIRS", 7 * 6 * mesh.n_panels)
    monkeypatch.setattr(layer_ops, "_worker_count", lambda chunks: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = results()
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(expected, split, strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("failing, raised", [((1, 2), 1), ((2,), 2)])
def test_row_blocks_join_their_threads_and_raise_the_lowest_error(
        monkeypatch, failing, raised):
    # a failing block does not leave its siblings running, and the error
    # of the lowest failing block is the one the pass raises
    mesh = make_icosphere(1.0, 1)
    monkeypatch.setattr(layer_ops, "_CHUNK_PAIRS", 7 * 6 * mesh.n_panels)
    monkeypatch.setattr(layer_ops, "_worker_count", lambda chunks: 3)
    original = layer_ops._panel_sum
    names = {f"bubblebem row block {b}" for b in failing}

    def failing_panel_sum(vals):
        name = threading.current_thread().name
        if name in names:
            raise RuntimeError(name)
        return original(vals)

    monkeypatch.setattr(layer_ops, "_panel_sum", failing_panel_sum)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"^bubblebem row block {raised}$"):
        assemble_layer_pair(mesh, 1.6)
    assert threading.active_count() == before


def test_a_pass_of_one_chunk_starts_no_thread(monkeypatch):
    mesh = make_icosphere(1.0, 1)
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    monkeypatch.setattr(layer_ops.os, "sched_getaffinity",
                        lambda pid: set(range(4)))
    # 80 rows against 480 nodes fit in one chunk of _CHUNK_PAIRS pairs
    assemble_layer_pair(mesh, 1.6)
    eval_single_layer_potential(mesh, np.ones(mesh.n_panels), 1.6,
                                [[3.0, 0.0, 0.0]])
    assert started == []
    # 12 chunks on 4 CPUs: the caller and 3 threads
    monkeypatch.setattr(layer_ops, "_CHUNK_PAIRS", 7 * 6 * mesh.n_panels)
    before = threading.active_count()
    assemble_layer_pair(mesh, 1.6)
    assert len(started) == 3
    assert threading.active_count() == before


def test_worker_count_follows_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(layer_ops.os, "sched_getaffinity",
                        lambda pid: {0, 3})
    assert [layer_ops._worker_count(c) for c in (1, 2, 12)] == [1, 2, 2]
    # platforms without an affinity mask count every CPU
    monkeypatch.delattr(layer_ops.os, "sched_getaffinity")
    monkeypatch.setattr(layer_ops.os, "cpu_count", lambda: 3)
    assert [layer_ops._worker_count(c) for c in (1, 2, 12)] == [1, 2, 3]


@pytest.fixture
def pool_of(monkeypatch):
    """Sets the pool's worker count and a short switch interval, so the
    threads interleave often; checks that no thread outlives the test."""
    interval, before = sys.getswitchinterval(), threading.active_count()

    def size(workers):
        monkeypatch.setattr(layer_ops, "_worker_count",
                            lambda chunks: min(chunks, workers))

    sys.setswitchinterval(1e-6)
    try:
        yield size
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_runs_each_task_once_in_its_workers_order(pool_of, workers):
    # 11 tasks on W workers: worker b runs tasks b, b + W, ... in that
    # order, the calling thread worker 0, and the results come back in
    # task order
    pool_of(workers)
    runs = []

    def task(index):
        runs.append((threading.current_thread(), index))
        return index * index

    assert (layer_ops._side_by_side(
        [lambda i=i: task(i) for i in range(11)], "test")
        == [i * i for i in range(11)])
    assert sorted(index for _, index in runs) == list(range(11))
    by_thread = {}
    for thread, index in runs:
        by_thread.setdefault(thread, []).append(index)
    expected = {b: list(range(b, 11, workers)) for b in range(workers)}
    assert by_thread.pop(threading.current_thread()) == expected.pop(0)
    assert {int(thread.name.split()[-1]): order
            for thread, order in by_thread.items()} == expected
    assert all(thread.name.startswith("bubblebem test ")
               for thread in by_thread)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_pool_inside_a_task_starts_no_thread(monkeypatch, pool_of,
                                               workers):
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    pool_of(workers)

    def outer(i):
        return layer_ops._side_by_side(
            [lambda j=j: (i, j, threading.current_thread())
             for j in range(4)], "inner")

    results = layer_ops._side_by_side(
        [lambda i=i: outer(i) for i in range(2 * workers)], "outer")
    # the outer call starts W - 1 threads; each inner call runs its tasks
    # on the thread that runs the outer task, in index order
    assert sorted(started) == [f"bubblebem outer {b}"
                               for b in range(1, workers)]
    for i, inner in enumerate(results):
        assert [(a, b) for a, b, _ in inner] == [(i, j) for j in range(4)]
        assert len({thread for *_, thread in inner}) == 1


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("failing, raised", [((3, 6), 3), ((6,), 6)])
def test_pool_raises_the_lowest_failing_task_error(pool_of, workers,
                                                   failing, raised):
    # whichever worker fails first, the error is the one a serial run
    # raises, and every thread is joined (the fixture checks the count)
    pool_of(workers)

    def task(index):
        if index in failing:
            raise RuntimeError(f"task {index}")
        return index

    for _ in range(20):
        with pytest.raises(RuntimeError, match=f"^task {raised}$"):
            layer_ops._side_by_side(
                [lambda i=i: task(i) for i in range(8)], "test")


def test_potential_at_a_point_is_the_same_alone_and_in_a_set(rng):
    # each point's row is summed on its own, so neither the other points
    # of a call nor their number changes its value
    mesh = make_ellipsoid((1.0, 1.3, 1.7), 1)
    density = rng.normal(size=mesh.n_panels) + 1j * rng.normal(
        size=mesh.n_panels)
    directions = rng.normal(size=(130, 3))
    points = 5 * directions / np.linalg.norm(directions, axis=1)[:, None]
    for z in (0.0, 1.6, 0.2 + 0.1j):
        together = eval_single_layer_potential(mesh, density, z, points)
        for k in (0, 128, 129):
            alone = eval_single_layer_potential(mesh, density, z, points[k])
            assert alone.tobytes() == together[k:k + 1].tobytes()
        first = eval_single_layer_potential(mesh, density, z, points[:129])
        assert first.tobytes() == together[:129].tobytes()


def _direct_formulation(mesh, z, density, points):
    """S_z, K_z and the off-surface potential as one chunk of 3-vector
    displacements with ``np.einsum`` for ν(y)·(x-y) and ``np.exp`` for
    e^{izr}: the formulation the coordinate-plane pass replaces.  S_0 and
    K_0 are real, and K_z's diagonal is -1/2 minus the static
    off-diagonal row sum at every z."""
    nodes, weights = panel_quadrature(mesh)
    flat_nodes, flat_w = nodes.reshape(-1, 3), weights.reshape(-1)
    flat_nu = np.repeat(mesh.normals, 6, axis=0)
    n = mesh.n_panels
    idx = np.arange(n)

    def kernel_pass(targets):
        diff = targets[:, None, :] - flat_nodes[None, :, :]
        numer = np.einsum("ijk,jk->ij", diff, flat_nu)
        np.square(diff, out=diff)
        return np.sqrt(np.add.reduce(diff, axis=2)), numer

    def panel_sum(vals):
        return vals.reshape(len(vals), -1, 6).sum(axis=2)

    r, numer = kernel_pass(mesh.centroids)
    r_self = np.linalg.norm(mesh.centroids[:, None, :] - nodes, axis=2)

    vals = np.exp(1j * z * r) / r if z != 0 else 1.0 / r
    vals *= flat_w
    single = panel_sum(vals) / (4.0 * np.pi)
    diag = layer_ops._self_panel_inverse_distance(mesh)
    if z != 0:
        smooth = np.expm1(1j * z * r_self) / (4.0 * np.pi * r_self)
        diag = diag + np.sum(smooth * weights, axis=1)
    single[idx, idx] = diag

    static = numer / (4.0 * np.pi * r ** 3)
    static *= flat_w
    block0 = panel_sum(static)
    double = (panel_sum(static * ((1.0 - 1j * z * r) * np.exp(1j * z * r)))
              if z != 0 else block0.copy())
    np.fill_diagonal(block0, 0.0)
    double[idx, idx] = -0.5 - block0.sum(axis=1)

    r_points, _ = kernel_pass(points)
    vals = np.exp(1j * z * r_points) / (4.0 * np.pi * r_points) * flat_w
    return single, double, (panel_sum(vals) * density).sum(axis=1)


_MOVED = np.array([[1.1, 0.2, -0.1], [0.05, 0.9, 0.3], [-0.2, 0.1, 1.3]])


@pytest.mark.parametrize("mesh", [
    make_icosphere(1.0, 1), make_ellipsoid((1.0, 1.3, 1.7), 1),
    affine_transform(make_ellipsoid((1.0, 1.3, 1.7), 1), _MOVED,
                     np.array([0.3, -0.7, 1.1]))],
    ids=["sphere", "ellipsoid", "moved"])
@pytest.mark.parametrize("z", [0.0, 0.08, 1.6, 3.3, 0.2j, 0.1 + 0.05j,
                               0.2 + 0.1j])
def test_kernel_pass_bitwise_equal_to_direct_formulation(mesh, z):
    # coordinate planes, real trigonometry for real z, strided panel sums
    # and one e^{izr} shared by S and K reorder no floating-point operation
    density = np.linspace(-1.0, 1.0, mesh.n_panels) + 0.5j
    angles = np.linspace(0.0, 6.0, 5)
    points = np.column_stack([4 * np.cos(angles), 4 * np.sin(angles),
                              np.linspace(-1.0, 1.0, 5)])
    points = points + mesh.centroids.mean(axis=0)
    single, double, potential = _direct_formulation(mesh, z, density, points)
    assert assemble_single_layer(mesh, z).tobytes() == single.tobytes()
    assert assemble_double_layer(mesh, z).tobytes() == double.tobytes()
    pair_s, pair_k = assemble_layer_pair(mesh, z)
    assert pair_s.tobytes() == single.tobytes()
    assert pair_k.tobytes() == double.tobytes()
    assert (eval_single_layer_potential(mesh, density, z, points).tobytes()
            == potential.tobytes())


@pytest.mark.parametrize("mesh", [
    make_icosphere(1.0, 1), make_icosphere(1.0, 2), make_icosphere(1.0, 3),
    make_ellipsoid((1.0, 1.3, 1.7), 1), make_ellipsoid((1.0, 1.3, 1.7), 2),
    affine_transform(make_ellipsoid((1.0, 1.3, 1.7), 1), _MOVED,
                     np.array([0.3, -0.7, 1.1]))],
    ids=["sphere1", "sphere2", "sphere3", "ellipsoid1", "ellipsoid2",
         "moved"])
def test_self_panel_double_layer_term_is_rounding_noise(mesh):
    # K_z's diagonal is -1/2 minus the static off-diagonal row sum at every
    # z, with no z-dependent self-panel term: the regular rule on the
    # remainder ν(y)·(c-y) ((1 - izr) e^{izr} - 1) / (4π r³) is rounding
    # noise, since ν(y) ⟂ (c - y) on a flat panel
    nodes, weights = panel_quadrature(mesh)
    diff = mesh.centroids[:, None, :] - nodes
    r = np.linalg.norm(diff, axis=2)
    numer = np.einsum("ijk,ik->ij", diff, mesh.normals)
    for z in (0.08, 0.7, 1.6, 3.3, 0.2j, 1j, 0.1 + 0.05j, 0.2 + 0.1j):
        smooth = numer * ((1.0 - 1j * z * r) * np.exp(1j * z * r) - 1.0)
        smooth /= 4.0 * np.pi * r ** 3
        assert np.abs(np.sum(smooth * weights, axis=1)).max() <= 1e-15, z


def test_one_minus_izr_is_the_complex_formula_bit_for_bit():
    # one formula at every z, +0.0 imaginary parts at r = 0 and for purely
    # imaginary z included
    r = np.concatenate([[0.0], np.linspace(0.01, 3.0, 40), [1e-300, 7.5]])
    for z in (0j, 0.7 + 0j, 1.6 + 0j, 0.2j, 1j, 0.05j, 0.1 + 0.05j,
              -0.3 + 2j):
        assert (layer_ops._one_minus_izr(z, r).tobytes()
                == (1.0 - 1j * z * r).tobytes()), z
