"""Triangulated planar domains with boundary flags.

Structured builders only (rectangles and polar annuli), midpoint refinement,
and a plain-text file format.  The domain metric is Euclidean; it enters the
solver solely through triangle areas and the constant gradients of the
barycentric basis functions, which are cached per triangle.

Every topological query reads one unique-edge table that ``TriMesh`` builds
once with ``np.unique`` over the sorted vertex pairs of all triangle sides:
``edges`` (sorted pairs, in order of first appearance over the triangles and
their sides (a,b), (b,c), (c,a)), ``edge_counts`` (triangles per edge) and
``triangle_edges`` (the edge index of each side).  Boundary flags, the edge
set, counts, the mesh size and the Euler characteristic are views over it;
``refine`` numbers the new midpoints by edge index, which reproduces the
first-appearance order of a sequential walk over the triangles.

Mesh file format: line 1 ``nv nt``; then nv lines ``x y b`` with boundary
flag b in {0,1}; then nt lines ``i j k`` of 0-based CCW vertex indices.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ._table import read_table, write_table
from .errors import UsageError

__all__ = [
    "TriMesh",
    "build_rect",
    "build_annulus",
    "build_polar",
    "refine",
    "save_mesh",
    "load_mesh",
]


class TriMesh:
    """Immutable triangle mesh with CCW triangles and exact boundary flags.

    ``areas`` and ``grads`` hold the per-triangle area and the gradients of
    the three barycentric basis functions (shape (nt, 3, 2), rows sum to 0).
    Boundary flags are validated against the edge topology: a vertex is
    boundary iff it lies on an edge that belongs to exactly one triangle.
    """

    def __init__(self, vertices, triangles, boundary=None):
        vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        triangles = np.ascontiguousarray(np.asarray(triangles, dtype=np.int64))
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise UsageError("vertices must have shape (nv, 2)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise UsageError("triangles must have shape (nt, 3)")
        nv = vertices.shape[0]
        if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
            raise UsageError("triangle indices out of range")
        if not np.all(np.isfinite(vertices)):
            raise UsageError("vertex coordinates must be finite")

        a = vertices[triangles[:, 0]]
        b = vertices[triangles[:, 1]]
        c = vertices[triangles[:, 2]]
        cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
        if np.any(cross <= 0.0):
            bad = int(np.argmin(cross))
            raise UsageError(f"triangle {bad} is degenerate or not counter-clockwise")
        areas = 0.5 * cross

        # grad of the basis function at vertex v is perp(opposite edge)/(2A)
        grads = np.empty((triangles.shape[0], 3, 2))
        for v, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
            e = vertices[triangles[:, q]] - vertices[triangles[:, p]]
            grads[:, v, 0] = -e[:, 1]
            grads[:, v, 1] = e[:, 0]
        grads /= (2.0 * areas)[:, None, None]

        if nv > 1:
            pairs = cKDTree(vertices).query_pairs(1e-12)
            if pairs:
                i, j = sorted(next(iter(pairs)))
                raise UsageError(f"duplicate vertices {i} and {j} (closer than 1e-12)")

        edges, counts, triangle_edges = _edge_table(triangles)
        crowded = np.flatnonzero(counts > 2)
        if crowded.size:
            p, q = edges[crowded[0]]
            raise UsageError(
                f"edge ({p},{q}) belongs to {counts[crowded[0]]} triangles (non-manifold)"
            )
        computed = np.zeros(nv, dtype=bool)
        computed[edges[counts == 1].ravel()] = True
        if boundary is None:
            boundary = computed
        else:
            boundary = np.asarray(boundary, dtype=bool)
            if boundary.shape != (nv,):
                raise UsageError("boundary flags must have shape (nv,)")
            if not np.array_equal(boundary, computed):
                raise UsageError("boundary flags disagree with the edge topology")

        self.vertices = vertices
        self.triangles = triangles
        self.boundary = boundary
        self.areas = areas
        self.grads = grads
        self.edges = edges
        self.edge_counts = counts
        self.triangle_edges = triangle_edges
        for table in (vertices, triangles, boundary, edges, counts, triangle_edges):
            table.setflags(write=False)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def interior_indices(self):
        return np.flatnonzero(~self.boundary)

    def boundary_indices(self):
        return np.flatnonzero(self.boundary)

    def edge_set(self):
        """The edges as a set of sorted vertex pairs."""
        return set(map(tuple, self.edges.tolist()))

    def boundary_edge_count(self):
        return int(np.count_nonzero(self.edge_counts == 1))

    def mesh_size(self):
        """Longest edge length."""
        d = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
        return float(np.max(np.hypot(d[:, 0], d[:, 1]), initial=0.0))

    def euler_characteristic(self):
        return self.num_vertices - self.edges.shape[0] + self.num_triangles


def _edge_table(triangles):
    """Unique edges in order of first appearance, their counts, and each side's edge.

    Side m of triangle (a, b, c) is (a, b), (b, c), (c, a) for m = 0, 1, 2.
    """
    pairs = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    span = int(pairs.max()) + 1 if pairs.size else 1
    _, first, inverse, counts = np.unique(
        pairs[:, 0] * span + pairs[:, 1], return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return pairs[first[order]], counts[order], rank[inverse].reshape(-1, 3)


def build_rect(width: float, height: float, nx: int, ny: int) -> TriMesh:
    """Structured triangulation of [0,width] x [0,height] with nx*ny cells."""
    if not (width > 0 and height > 0):
        raise UsageError("rectangle sides must be positive")
    if nx < 1 or ny < 1:
        raise UsageError("cell counts must be at least 1")
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    verts = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10, v01 = v00 + 1, v00 + nx + 1
    v11 = v01 + 1
    tris = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    return TriMesh(verts, tris)


def build_polar(radii, ntheta: int) -> TriMesh:
    """Structured polar mesh over given rings of radii (annulus topology)."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise UsageError("polar mesh needs at least two rings")
    if radii[0] <= 0.0 or np.any(np.diff(radii) <= 0.0):
        raise UsageError("ring radii must be positive and strictly increasing")
    if ntheta < 3:
        raise UsageError("polar mesh needs ntheta >= 3")
    thetas = 2.0 * np.pi * np.arange(ntheta) / ntheta
    verts = np.column_stack([
        (radii[:, None] * np.cos(thetas)).ravel(),
        (radii[:, None] * np.sin(thetas)).ravel(),
    ])
    ring = np.arange(radii.size - 1)[:, None] * ntheta
    sector = np.arange(ntheta)
    a = (ring + sector).ravel()
    d = (ring + (sector + 1) % ntheta).ravel()
    b, c = a + ntheta, d + ntheta
    tris = np.column_stack([a, b, c, a, c, d]).reshape(-1, 3)
    return TriMesh(verts, tris)


def build_annulus(r0: float, r1: float, nr: int, ntheta: int) -> TriMesh:
    """Annulus r0 < |x| < r1 with nr radial cells and ntheta sectors."""
    if not (0.0 < r0 < r1):
        raise UsageError("annulus needs 0 < r0 < r1")
    if nr < 1:
        raise UsageError("annulus needs nr >= 1")
    return build_polar(np.linspace(r0, r1, nr + 1), ntheta)


def refine(mesh: TriMesh) -> TriMesh:
    """Midpoint 1-to-4 subdivision; boundary flags propagate to edge midpoints.

    The midpoint of edge e becomes vertex nv + e, so new vertices follow the
    edges' order of first appearance.
    """
    v, (p, q) = mesh.vertices, mesh.edges.T
    verts = np.concatenate([v, 0.5 * (v[p] + v[q])])
    a, b, c = mesh.triangles.T
    mab, mbc, mca = (mesh.num_vertices + mesh.triangle_edges).T
    tris = np.column_stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca]).reshape(-1, 3)
    return TriMesh(verts, tris)


def save_mesh(path, mesh: TriMesh) -> None:
    write_table(
        path,
        f"{mesh.num_vertices} {mesh.num_triangles}",
        (np.column_stack([mesh.vertices, mesh.boundary]), ["%.17g", "%.17g", "%d"]),
        (mesh.triangles, "%d"),
        delimiter=" ",
    )


def load_mesh(path) -> TriMesh:
    head, rows, error = read_table(path, "mesh", r"\d+\s+\d+", columns=3, delimiter=None)
    nv, nt = (int(n) for n in head.split())
    if rows.shape[0] != nv + nt:
        raise UsageError(f"{path}: mesh file has {rows.shape[0]} rows, expected {nv + nt}")
    integral = np.zeros(rows.shape, dtype=bool)
    integral[:nv, 2] = integral[nv:] = True  # boundary flags and vertex indices
    bad = np.flatnonzero(integral & (np.mod(rows, 1.0) != 0.0))
    if bad.size:
        raise error(bad[0] // 3, f"expected an integer, found {rows.flat[bad[0]]:g}")
    return TriMesh(rows[:nv, :2], rows[nv:].astype(np.int64), boundary=rows[:nv, 2] != 0.0)
