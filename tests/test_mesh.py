import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bubblebem import mesh as mesh_module
from bubblebem.mesh import (MeshError, SurfaceMesh, build_mesh, load_mesh,
                            make_ellipsoid, make_icosphere, scale_about)
from reference import affine_transform, save_off

# unit cube, outward-oriented triangles
CUBE_VERTS = np.array([
    [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
    [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
], dtype=float)
CUBE_TRIS = np.array([
    [0, 2, 1], [0, 3, 2],          # bottom (z=0), normal -z
    [4, 5, 6], [4, 6, 7],          # top
    [0, 1, 5], [0, 5, 4],          # y=0
    [2, 3, 7], [2, 7, 6],          # y=1
    [1, 2, 6], [1, 6, 5],          # x=1
    [3, 0, 4], [3, 4, 7],          # x=0
])


def cube():
    return build_mesh(CUBE_VERTS, CUBE_TRIS)


def test_cube_moments_exact():
    mesh = cube()
    assert mesh.area == pytest.approx(6.0, abs=1e-14)
    assert mesh.volume == pytest.approx(1.0, abs=1e-14)
    assert mesh.diameter == pytest.approx(np.sqrt(3), abs=1e-14)


def test_icosphere_counts_and_radii():
    mesh = make_icosphere(1.0, 0)
    assert mesh.n_panels == 20
    assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 1.0, atol=1e-12)
    mesh3 = make_icosphere(2.0, 3)
    assert mesh3.n_panels == 20 * 4 ** 3
    assert np.allclose(np.linalg.norm(mesh3.vertices, axis=1), 2.0, atol=1e-12)


def test_icosphere_area_and_volume():
    mesh = make_icosphere(1.0, 3)
    assert mesh.area == pytest.approx(4 * np.pi, rel=5e-3)
    # the inscribed polyhedron undershoots the ball volume by ~0.86% at this
    # refinement; the deficit vanishes at second order (next test)
    mesh2 = make_icosphere(2.0, 3)
    assert mesh2.volume == pytest.approx(4 / 3 * np.pi * 8, rel=1e-2)


def test_icosphere_refinement_order():
    # area error should shrink at order >= 1.5 in edge length (halved per level)
    errors = [abs(make_icosphere(1.0, s).area - 4 * np.pi) for s in (1, 2, 3)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders >= 1.5)


def test_normals_unit_and_outward():
    mesh = make_icosphere(1.0, 2)
    assert np.allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-12)
    # outward: normal roughly parallel to centroid direction on a sphere
    align = np.einsum("ij,ij->i", mesh.normals,
                      mesh.centroids / np.linalg.norm(mesh.centroids, axis=1)[:, None])
    assert np.all(align > 0.9)


def test_rigid_motion_invariance():
    mesh = cube()
    shifted = affine_transform(mesh, shift=np.array([5.0, 5.0, 5.0]))
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                    [np.sin(theta), np.cos(theta), 0],
                    [0, 0, 1.0]])
    rotated = affine_transform(mesh, matrix=rot)
    for other in (shifted, rotated):
        assert other.area == pytest.approx(mesh.area, abs=1e-12)
        assert other.volume == pytest.approx(mesh.volume, abs=1e-12)
        assert other.diameter == pytest.approx(mesh.diameter, abs=1e-12)


def test_uniform_scaling_moments():
    mesh = make_icosphere(1.0, 1)
    s = 2.5
    scaled = scale_about(mesh, s, np.zeros(3))
    assert scaled.area == pytest.approx(s ** 2 * mesh.area, rel=1e-13)
    assert scaled.volume == pytest.approx(s ** 3 * mesh.volume, rel=1e-13)
    assert scaled.diameter == pytest.approx(s * mesh.diameter, rel=1e-13)


def test_subdivision_guard():
    with pytest.raises(MeshError):
        make_icosphere(1.0, 8)
    with pytest.raises(MeshError):
        make_icosphere(-1.0, 2)


def test_nonmanifold_edge_rejected():
    verts = np.vstack([CUBE_VERTS, [[0.5, 0.5, 2.0]]])
    tris = np.vstack([CUBE_TRIS, [[0, 2, 8]]])  # edge (0,2) now used 3 times
    with pytest.raises(MeshError, match="non-manifold|direction"):
        build_mesh(verts, tris)


def test_inverted_orientation_rejected():
    with pytest.raises(MeshError, match="orientation"):
        build_mesh(CUBE_VERTS, CUBE_TRIS[:, ::-1])


def test_bad_index_rejected():
    tris = CUBE_TRIS.copy()
    tris[0, 0] = 99
    with pytest.raises(MeshError, match="index"):
        build_mesh(CUBE_VERTS, tris)


def test_off_round_trip(tmp_path):
    mesh = make_icosphere(1.0, 2)
    path = tmp_path / "sphere.off"
    save_off(mesh, str(path))
    back = load_mesh(str(path))
    assert back.n_panels == 320
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert back.volume == pytest.approx(mesh.volume, rel=1e-14)


def test_off_cube_volume_exact(tmp_path):
    path = tmp_path / "cube.off"
    save_off(cube(), str(path))
    mesh = load_mesh(str(path))
    assert mesh.volume == pytest.approx(1.0, abs=1e-14)


def test_off_parse_errors(tmp_path):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n")
    with pytest.raises(MeshError):
        load_mesh(str(bad))
    empty = tmp_path / "empty.off"
    empty.write_text("")
    with pytest.raises(MeshError):
        load_mesh(str(empty))


def test_obj_reader(tmp_path):
    lines = ["# cube"]
    lines += [f"v {v[0]} {v[1]} {v[2]}" for v in CUBE_VERTS]
    lines += [f"f {t[0]+1} {t[1]+1}/1 {t[2]+1}/1/1" for t in CUBE_TRIS]
    path = tmp_path / "cube.obj"
    path.write_text("\n".join(lines) + "\n")
    mesh = load_mesh(str(path))
    assert mesh.volume == pytest.approx(1.0, abs=1e-14)
    quad = tmp_path / "quad.obj"
    quad.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshError, match="triangular"):
        load_mesh(str(quad))


TETRA = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
TETRA_FACES = [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]


def mesh_text(fmt, counts, vertices, faces):
    """OFF or OBJ text of 0-based ``faces``; ``counts`` (OFF only) replaces
    the true vertex and face counts in the header."""
    coords = [" ".join(repr(float(c)) for c in v) for v in vertices]
    if fmt == "obj":
        return "".join([f"v {c}\n" for c in coords]
                       + [f"f {' '.join(str(i + 1) for i in f)}\n"
                          for f in faces])
    nv, nf = counts if counts is not None else (len(vertices), len(faces))
    rows = coords + [" ".join(map(str, [len(f), *f])) for f in faces]
    return "\n".join(["OFF", f"{nv} {nf} 0", *rows]) + "\n"


COUNTS = st.one_of(st.integers(-2, 8), st.just(10 ** 12))
COORDS = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e200, -1e200]),
                   st.floats())      # floats() includes nan and +-inf
INDICES = st.one_of(st.integers(-2, 8), st.sampled_from([10 ** 12, 2 ** 64]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fmt=st.sampled_from(["off", "obj"]),
       counts=st.none() | st.tuples(COUNTS, COUNTS),
       vertices=st.lists(st.tuples(COORDS, COORDS, COORDS), max_size=8),
       faces=st.lists(st.lists(INDICES, min_size=2, max_size=4), max_size=8))
@example(fmt="off", counts=None, vertices=TETRA[:3] + [(0, 0, math.nan)],
         faces=TETRA_FACES)
@example(fmt="obj", counts=None, vertices=TETRA[:3] + [(0, 0, math.inf)],
         faces=TETRA_FACES)
@example(fmt="off", counts=None,
         vertices=[tuple(1e200 * c for c in v) for v in TETRA],
         faces=TETRA_FACES)
@example(fmt="off", counts=(-1, 4), vertices=[], faces=[])
@example(fmt="off", counts=(10 ** 12, 4), vertices=TETRA[:1], faces=[])
@example(fmt="obj", counts=None, vertices=TETRA,
         faces=TETRA_FACES[:3] + [(1, 2, 2 ** 64)])
def test_mesh_file_ends_in_a_mesh_or_a_mesh_error(tmp_path, fmt, counts,
                                                  vertices, faces):
    path = tmp_path / f"fuzz.{fmt}"
    path.write_text(mesh_text(fmt, counts, vertices, faces))
    try:
        mesh = load_mesh(str(path))
    except MeshError:
        return
    assert isinstance(mesh, SurfaceMesh)
    assert all(math.isfinite(x) for x in (mesh.area, mesh.volume,
                                          mesh.diameter))


def test_ellipsoid_volume():
    mesh = make_ellipsoid((1.0, 1.3, 1.7), 3)
    assert mesh.volume == pytest.approx(4 / 3 * np.pi * 1.0 * 1.3 * 1.7, rel=1.5e-2)


def test_diameter_is_the_largest_pairwise_norm_bit_for_bit():
    # sub 3: 642 vertices, two chunks of rows of unequal size
    ellipsoid = make_ellipsoid((1.0, 1.3, 1.7), 3)
    c, s = math.cos(0.7), math.sin(0.7)
    rotation = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]) \
        @ np.array([[1, 0, 0], [0, c, s], [0, -s, c]])
    moved = affine_transform(ellipsoid, rotation, np.array([3.0, -2.0, 0.5]))
    for mesh in (make_icosphere(1.0, 3), ellipsoid, moved):
        v = mesh.vertices
        norms = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)
        assert mesh.diameter == float(norms.max())


def test_diameter_scan_peak_memory():
    # coordinate planes in chunks of _CHUNK_PAIRS vertex pairs: about
    # 13 MiB at sub 4 (2562 vertices); 512-row blocks of 3-vectors and
    # their norms peaked at 90 MiB
    vertices = make_icosphere(1.0, 4).vertices
    started = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        mesh_module._diameter(vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not started:
            tracemalloc.stop()
    assert peak - start <= 24 * 2 ** 20
