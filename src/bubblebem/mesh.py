"""Triangulated closed-surface geometry: generation, file I/O, validation, moments.

A SurfaceMesh is a flat-panel triangulation of a closed orientable surface,
oriented so that panel normals point outward (enforced by the signed-volume
test at construction, never trusted from the input file).  All downstream
boundary-operator assembly collocates at panel centroids, so the panel
centroid/area/normal caches are computed once here and frozen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

MAX_SUBDIVISIONS = 7

# Pairs per chunk of a pairwise scan (vertex pairs here, (point, quadrature
# node) pairs in layer_ops): 128 rows at n = 320, 32 rows at n = 1280.
# Do not shrink it.  Chunk temporaries at least as large as one n = 320
# complex matrix (1.6 MB) likely raise glibc's dynamic mmap threshold, so
# later n x n temporaries come from the heap, not from fresh page-faulted
# mmaps.  Measured when S_w and K_w first shared one kernel pass and a
# dilated sweep still factored each row from its series stack: at a
# quarter of this size, 26 such stack-read S/K factor sets at n = 320
# took about a third longer (medians of 4 runs, 0.26 -> 0.34 s, on 2
# cores), though they run no chunked pass.  A dilated sweep's stacked
# rows no longer take factors (they are solved in lockstep), and the
# effect has not been re-measured on today's paths.
_CHUNK_PAIRS = 245_760


class MeshError(Exception):
    """Invalid mesh topology, geometry, or file content."""


@dataclass(frozen=True)
class SurfaceMesh:
    """Closed triangulated surface with cached panel geometry.

    Attributes:
        vertices: (nv, 3) float array.
        triangles: (nt, 3) int array, counter-clockwise seen from outside.
        centroids: (nt, 3) panel centroids.
        areas: (nt,) panel areas, all positive.
        normals: (nt, 3) unit outward normals.
        area: total surface area.
        volume: enclosed volume from the divergence identity.
        diameter: maximum pairwise vertex distance.

    Instances are immutable after construction (arrays are read-only) and
    safe for concurrent reads.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    centroids: np.ndarray
    areas: np.ndarray
    normals: np.ndarray
    area: float
    volume: float
    diameter: float

    @property
    def n_panels(self) -> int:
        return self.triangles.shape[0]

    def panel_vertices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-panel vertex triples (v0, v1, v2), each (nt, 3)."""
        tri = self.triangles
        return (self.vertices[tri[:, 0]], self.vertices[tri[:, 1]],
                self.vertices[tri[:, 2]])

    def panel_diameters(self) -> np.ndarray:
        """Longest edge of each panel."""
        v0, v1, v2 = self.panel_vertices()
        e = np.stack([np.linalg.norm(v1 - v0, axis=1),
                      np.linalg.norm(v2 - v1, axis=1),
                      np.linalg.norm(v0 - v2, axis=1)])
        return e.max(axis=0)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def build_mesh(vertices: np.ndarray, triangles: np.ndarray) -> SurfaceMesh:
    """Validate raw arrays and construct a SurfaceMesh.

    Raises MeshError on non-finite coordinates, out-of-range indices,
    degenerate panels, non-manifold or unmatched edges, inward orientation
    (negative signed volume), or an area, volume or diameter that overflows.
    """
    vertices = np.asarray(vertices, dtype=float)
    try:
        triangles = np.asarray(triangles, dtype=np.int64)
    except OverflowError:
        raise MeshError("triangle vertex index out of range") from None
    if vertices.ndim != 2 or vertices.shape[1] != 3:
        raise MeshError(f"vertex array must be (n, 3), got {vertices.shape}")
    if not np.isfinite(vertices).all():
        raise MeshError("vertex coordinates must be finite")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshError(f"triangle array must be (n, 3), got {triangles.shape}")
    nv = vertices.shape[0]
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        bad = np.argwhere((triangles < 0) | (triangles >= nv))[0]
        raise MeshError(f"triangle {bad[0]} references vertex index "
                        f"{triangles[bad[0], bad[1]]} outside [0, {nv})")
    if triangles.shape[0] < 4:
        raise MeshError("a closed surface needs at least 4 triangles")

    _check_manifold(triangles)

    v0 = vertices[triangles[:, 0]]
    v1 = vertices[triangles[:, 1]]
    v2 = vertices[triangles[:, 2]]
    cross = np.cross(v1 - v0, v2 - v0)
    two_areas = np.linalg.norm(cross, axis=1)
    if np.any(two_areas <= 1e-14):
        bad = int(np.argmin(two_areas))
        raise MeshError(f"panel {bad} is degenerate (area {two_areas[bad] / 2:g})")
    areas = 0.5 * two_areas
    normals = cross / two_areas[:, None]
    centroids = (v0 + v1 + v2) / 3.0

    volume = float(np.sum(np.einsum("ij,ij->i", centroids, normals) * areas) / 3.0)
    area, diameter = float(areas.sum()), _diameter(vertices)
    if not np.isfinite([area, volume, diameter]).all():
        raise MeshError(f"geometry is not finite: area {area:g}, volume "
                        f"{volume:g}, diameter {diameter:g}")
    if volume <= 0.0:
        raise MeshError(f"inward orientation: signed volume {volume:g} <= 0 "
                        "(triangles must be counter-clockwise from outside)")

    return SurfaceMesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        centroids=_freeze(centroids),
        areas=_freeze(areas),
        normals=_freeze(normals),
        area=area,
        volume=volume,
        diameter=diameter,
    )


def _check_manifold(triangles: np.ndarray) -> None:
    """Every undirected edge must be used exactly twice, once per direction."""
    counts: dict[tuple[int, int], list[int]] = {}
    for t, (a, b, c) in enumerate(triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            counts.setdefault(key, []).append(1 if u < v else -1)
    for (u, v), orients in counts.items():
        if len(orients) != 2:
            raise MeshError(f"non-manifold edge ({u}, {v}): shared by "
                            f"{len(orients)} triangles, expected 2")
        if sum(orients) != 0:
            raise MeshError(f"edge ({u}, {v}) traversed twice in the same "
                            "direction: inconsistent orientation")


def _diameter(vertices: np.ndarray) -> float:
    """Largest vertex-pair distance, by a scan over all pairs: O(nv²) time,
    O(_CHUNK_PAIRS) memory.

    Each chunk of rows is one (3, rows, nv) block of coordinate planes,
    squared in place and summed as (dx² + dy²) + dz², the order
    ``np.linalg.norm`` sums a 3-vector in; one sqrt of the largest sum is
    the largest norm, bit for bit, because sqrt is monotone and correctly
    rounded.
    """
    planes = np.ascontiguousarray(vertices.T)
    step = max(1, _CHUNK_PAIRS // len(vertices))
    best = 0.0
    for lo in range(0, len(vertices), step):
        block = planes[:, lo:lo + step, None] - planes[:, None, :]
        np.square(block, out=block)
        best = max(best, float((block[0] + block[1] + block[2]).max()))
    return float(np.sqrt(best))


# ----------------------------------------------------------------------------
# Generators


_ICO_VERTS = np.array([
    [-1, GOLDEN, 0], [1, GOLDEN, 0], [-1, -GOLDEN, 0], [1, -GOLDEN, 0],
    [0, -1, GOLDEN], [0, 1, GOLDEN], [0, -1, -GOLDEN], [0, 1, -GOLDEN],
    [GOLDEN, 0, -1], [GOLDEN, 0, 1], [-GOLDEN, 0, -1], [-GOLDEN, 0, 1],
], dtype=float)

_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
], dtype=np.int64)


def make_icosphere(radius: float, subdivisions: int) -> SurfaceMesh:
    """Subdivided icosahedron with all vertices projected onto the sphere.

    Produces 20 * 4**subdivisions panels.  Deterministic vertex ordering.
    """
    if radius <= 0:
        raise MeshError(f"radius must be positive, got {radius}")
    if not 0 <= subdivisions <= MAX_SUBDIVISIONS:
        raise MeshError(f"subdivisions must be in [0, {MAX_SUBDIVISIONS}], "
                        f"got {subdivisions}")
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = [tuple(f) for f in _ICO_FACES]

    for _ in range(subdivisions):
        midpoint_cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint_cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint_cache[key] = len(verts) - 1
            return midpoint_cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces

    vertices = radius * np.asarray(verts)
    return build_mesh(vertices, np.asarray(faces, dtype=np.int64))


def make_ellipsoid(semi_axes: tuple[float, float, float],
                   subdivisions: int) -> SurfaceMesh:
    """Icosphere stretched onto an axis-aligned ellipsoid."""
    a, b, c = semi_axes
    if min(a, b, c) <= 0:
        raise MeshError(f"semi-axes must be positive, got {semi_axes}")
    sphere = make_icosphere(1.0, subdivisions)
    return build_mesh(sphere.vertices * np.array([a, b, c]), sphere.triangles)


def scale_about(mesh: SurfaceMesh, factor: float, center: np.ndarray) -> SurfaceMesh:
    """Uniform scaling x -> center + factor * (x - center)."""
    if factor <= 0:
        raise MeshError(f"scale factor must be positive, got {factor}")
    center = np.asarray(center, dtype=float)
    return build_mesh(center + factor * (mesh.vertices - center), mesh.triangles)


def surface_centroid(mesh: SurfaceMesh) -> np.ndarray:
    """Area-weighted centroid of the surface."""
    return mesh.areas @ mesh.centroids / mesh.area


# ----------------------------------------------------------------------------
# File I/O (ASCII OFF and OBJ)


def load_mesh(path: str) -> SurfaceMesh:
    """Read an ASCII OFF or OBJ file (triangles only) and validate it.

    The parser is chosen by the ``.off`` or ``.obj`` extension.  A file that
    cannot be read, or is not ASCII, raises MeshError naming the path.
    """
    parsers = {".off": _parse_off, ".obj": _parse_obj}
    parse = parsers.get(os.path.splitext(str(path))[1].lower())
    if parse is None:
        raise MeshError(f"cannot read {path!r}: expected a .off or .obj file")
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MeshError(f"cannot read {path!r}: {exc}") from None
    return build_mesh(*parse(text))


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_off(text: str) -> tuple[list, list]:
    lines = _content_lines(text)
    lineno, header = next(lines, (None, None))
    if header is None:
        raise MeshError("empty OFF file")
    if not header.startswith("OFF"):
        raise MeshError(f"line {lineno}: expected OFF header, got {header!r}")
    # Tolerate counts folded onto the header line ("OFF 8 12 18").
    header = header[3:].strip()
    if header in ("", "OFF"):
        lineno, header = next(lines, (None, None))
        if header is None:
            raise MeshError("OFF file ends before the counts line")
    try:
        nv, nf = [int(tok) for tok in header.split()[:2]]
    except ValueError:
        raise MeshError(f"line {lineno}: malformed OFF counts line {header!r}") from None
    if nv < 0 or nf < 0:
        raise MeshError(f"line {lineno}: negative OFF counts in {header!r}")

    # rows are collected as read, so a header count allocates nothing
    vertices: list[list[float]] = []
    for i in range(nv):
        lineno, line = next(lines, (None, None))
        if line is None:
            raise MeshError(f"OFF file ends inside vertex block ({i}/{nv} read)")
        parts = line.split()
        if len(parts) < 3:
            raise MeshError(f"line {lineno}: vertex needs 3 coordinates")
        try:
            vertices.append([float(p) for p in parts[:3]])
        except ValueError:
            raise MeshError(f"line {lineno}: bad vertex coordinate in {line!r}") from None

    triangles: list[list[int]] = []
    for i in range(nf):
        lineno, line = next(lines, (None, None))
        if line is None:
            raise MeshError(f"OFF file ends inside face block ({i}/{nf} read)")
        parts = line.split()
        try:
            count = int(parts[0])
            idx = [int(p) for p in parts[1:1 + count]]
        except (ValueError, IndexError):
            raise MeshError(f"line {lineno}: malformed face {line!r}") from None
        if count != 3 or len(idx) != 3:
            raise MeshError(f"line {lineno}: only triangular faces supported, "
                            f"got {count} vertices")
        triangles.append(idx)
    return vertices, triangles


def _parse_obj(text: str) -> tuple[list, list]:
    vertices: list[list[float]] = []
    triangles: list[list[int]] = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise MeshError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                vertices.append([float(p) for p in parts[1:4]])
            except ValueError:
                raise MeshError(f"line {lineno}: bad vertex in {line!r}") from None
        elif tag == "f":
            if len(parts) != 4:
                raise MeshError(f"line {lineno}: only triangular faces supported")
            idx = []
            for p in parts[1:]:
                tok = p.split("/", 1)[0]
                try:
                    k = int(tok)
                except ValueError:
                    raise MeshError(f"line {lineno}: bad face index {p!r}") from None
                if k <= 0:
                    raise MeshError(f"line {lineno}: only positive 1-based "
                                    "indices supported")
                idx.append(k - 1)
            triangles.append(idx)
        # other tags (vn, vt, usemtl, ...) are ignored
    if not vertices or not triangles:
        raise MeshError("OBJ file contains no usable v/f records")
    return vertices, triangles
