"""Triangulated planar domains with boundary flags.

Structured builders only (rectangles and polar annuli), midpoint refinement,
and a plain-text file format.  The domain metric is Euclidean; it enters the
solver solely through triangle areas and the constant gradients of the
barycentric basis functions, which are cached per triangle.

Every topological query reads one unique-edge table that ``TriMesh`` builds
once from one stable sort of the sorted vertex pairs of all triangle sides:
``edges`` (sorted pairs, in order of first appearance over the triangles and
their sides (a,b), (b,c), (c,a)), ``edge_counts`` (triangles per edge) and
``triangle_edges`` (the edge index of each side).  The sort puts each edge's
first side ahead of its repeats, and a cumulative sum of first-occurrence
flags over the sides numbers the edges in first-appearance order.  Boundary
flags, the edge set, counts, the mesh size and the Euler characteristic are
views over it; ``refine`` numbers the new midpoints by edge index, which
reproduces the first-appearance order of a sequential walk over the
triangles.  The key is built in place and each temporary is freed once
read, so building the table peaks at about 41 bytes per triangle side, its
outputs included: 3.9 MiB at 32768 triangles (tracemalloc).

Two vertices within 1e-12 of each other make a mesh invalid.  They are
found with one ``argsort`` of the vertices' projections onto one fixed
direction, at 1 radian to the x axis: the two vertices of such a pair sit
close together in that order, so comparing sorted neighbours, and
confirming each candidate by its distance, finds every pair.  The worst
case is many vertices whose projections agree within the rounding slack
(a row of them across the direction, or coordinates so large that the
slack exceeds their spacing); they are compared pair by pair.

Mesh file format: line 1 ``nv nt``; then nv lines ``x y b`` with boundary
flag b in {0,1}; then nt lines ``i j k`` of 0-based CCW vertex indices.
"""

from __future__ import annotations

import numpy as np

from ._table import read_table, write_table
from .errors import UsageError, _count, _grid, _interval

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

    All of its arrays (``vertices``, ``triangles``, ``boundary``, ``areas``,
    ``grads``, ``edges``, ``edge_counts``, ``triangle_edges``) are read-only,
    and none is an array the caller passed in, so the caller can neither move
    a vertex under the mesh nor find its own arrays made read-only.  The
    solver keys data derived from a mesh on the mesh object itself.

    ``areas`` and ``grads`` hold the per-triangle area and the gradients of
    the three barycentric basis functions (shape (nt, 3, 2), rows sum to 0).
    Boundary flags are validated against the edge topology: a vertex is
    boundary iff it lies on an edge that belongs to exactly one triangle.

    Every construction (the builders, ``refine`` and ``load_mesh`` too)
    checks that coordinates are finite, triangle indices are integers (of
    an integer or an integral float array) in range, triangles are
    counter-clockwise and not degenerate, their areas and basis gradients
    do not overflow float64, no two vertices lie within 1e-12 of each
    other, no edge belongs to more than two triangles, and given boundary
    flags match the topology; it raises ``UsageError`` otherwise.  Close
    vertices are found with one sort, by their projections onto one fixed
    direction (see ``_close_pairs``); its worst case is many vertices whose
    projections agree within the rounding slack, which are compared pair by
    pair.
    """

    def __init__(self, vertices, triangles, boundary=None):
        vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        triangles = np.asarray(triangles)
        if triangles.dtype.kind not in "iu":  # integral floats (as files hold them) cast exactly
            triangles = np.asarray(triangles, dtype=float)
            if not np.all(np.isfinite(triangles) & (np.floor(triangles) == triangles)):
                raise UsageError("triangle indices must be integers")
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise UsageError("vertices must have shape (nv, 2)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise UsageError("triangles must have shape (nt, 3)")
        nv = vertices.shape[0]
        if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
            raise UsageError("triangle indices out of range")
        triangles = np.ascontiguousarray(triangles, dtype=np.int64)  # in range, so the cast is exact
        if not np.all(np.isfinite(vertices)):
            raise UsageError("vertex coordinates must be finite")

        # one gather of the corners; side v is the side opposite corner v
        corners = np.take(vertices, triangles, axis=0)
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        sides = np.empty_like(corners)
        grads = np.empty_like(sides)
        with np.errstate(all="ignore"):  # a triangle too large or too thin for float64 is refused below
            np.subtract(c, b, out=sides[:, 0])
            np.subtract(a, c, out=sides[:, 1])
            np.subtract(b, a, out=sides[:, 2])
            cross = sides[:, 1, 0] * sides[:, 2, 1] - sides[:, 2, 0] * sides[:, 1, 1]
            areas = 0.5 * cross
            # grad of the basis function at vertex v is perp(opposite side)/(2A)
            np.negative(sides[:, :, 1], out=grads[:, :, 0])
            grads[:, :, 1] = sides[:, :, 0]
            grads /= (2.0 * areas)[:, None, None]
        if np.any(cross <= 0.0):
            bad = int(np.nanargmin(cross))
            raise UsageError(f"triangle {bad} is degenerate or not counter-clockwise")
        if not (np.all(np.isfinite(cross)) and np.all(np.isfinite(grads))):
            bad = int(np.argmin(np.isfinite(cross) & np.all(np.isfinite(grads.reshape(-1, 6)), axis=1)))
            raise UsageError(f"triangle {bad} overflows float64: its area or basis gradients are not finite")
        del corners, a, b, c, sides, cross

        if nv > 1:
            pairs = _close_pairs(vertices, 1e-12)
            if pairs.size:
                i, j = pairs[0]
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
        if boundary is not None:
            boundary = np.asarray(boundary, dtype=bool)
            if boundary.shape != (nv,):
                raise UsageError("boundary flags must have shape (nv,)")
            if not np.array_equal(boundary, computed):
                raise UsageError("boundary flags disagree with the edge topology")

        # the mesh owns copies of the caller's arrays, taken once the temporaries above are freed
        self.vertices = vertices = vertices.copy()
        self.triangles = triangles = triangles.copy()
        self.boundary = computed  # equal to any given flags
        self.areas = areas
        self.grads = grads
        self.edges = edges
        self.edge_counts = counts
        self.triangle_edges = triangle_edges
        for table in (vertices, triangles, computed, areas, grads, edges, counts, triangle_edges):
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


# half of the unit vector at 1 radian, parallel to no grid line or spoke of the
# builders' meshes; halved so that no projection overflows (|projection| < 0.7 max|coordinate|)
_HALF_DIRECTION = 0.5 * np.array([np.cos(1.0), np.sin(1.0)])


def _close_pairs(vertices, r):
    """The pairs (i, j), i < j, of vertices within r, in lexicographic order, as an (n, 2) array.

    A pair is within r when dx*dx + dy*dy <= r*r in float64, the test and
    the rounding of the pair query ``query_pairs(r)`` of scipy's k-d tree.
    One ``argsort`` of the projections onto ``_HALF_DIRECTION`` places the
    two vertices of such a pair k apart for some k, with every sorted gap
    between them at most r/2 plus the rounding slack of two projections
    (4 eps max|coordinate| bounds it).  The scan compares the neighbours
    k = 1, 2, ... apart while some gap is within that bound (no gap shrinks
    as k grows) and confirms each candidate by its squared distance.  It
    costs one sort and a pass per k: many vertices whose projections agree
    within the bound (a row of them across the direction, or coordinates so
    large that the slack exceeds their spacing) make it slow, never wrong.
    """
    proj = vertices @ _HALF_DIRECTION
    order = np.argsort(proj)
    proj = proj[order]
    slack = 0.5 * r * (1.0 + 1e-9) + 4.0 * np.finfo(float).eps * np.max(np.abs(vertices))
    nv, keys = vertices.shape[0], [np.zeros(0, dtype=np.int64)]
    for k in range(1, nv):
        near = np.flatnonzero(proj[k:] - proj[:-k] <= slack)
        if not near.size:
            break
        i, j = order[near], order[near + k]
        with np.errstate(over="ignore"):  # an overflowing distance is inf, which is not within r
            d = vertices[i] - vertices[j]
            close = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= r * r
        keys.append(np.minimum(i, j)[close] * nv + np.maximum(i, j)[close])
    return np.column_stack(np.divmod(np.sort(np.concatenate(keys)), nv))  # each pair is met at one k


def _edge_table(triangles):
    """Unique edges in order of first appearance, their counts, and each side's edge.

    Side m of triangle (a, b, c) is (a, b), (b, c), (c, a) for m = 0, 1, 2.
    One stable ``argsort`` of the sides' keys lo*span + hi groups equal
    edges with their first side leading; a cumulative sum of the
    first-occurrence flags, taken in side order, is each edge's rank.  The
    edges are the keys of the first sides, split by ``divmod``, so lo and hi
    are not held to the end.
    """
    tail = triangles.ravel()
    head = triangles[:, [1, 2, 0]].ravel()
    key = np.minimum(tail, head)  # lo, made the key lo*span + hi in place
    hi = np.maximum(tail, head, out=head)
    span = int(hi.max()) + 1 if hi.size else 1
    key *= span
    key += hi
    del head, hi
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    leads = np.empty(key.size, dtype=bool)  # sorted position starts a new edge
    leads[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=leads[1:])
    del ordered
    starts = np.flatnonzero(leads)
    del leads
    firsts = order[starts]  # each edge's first side, in key order
    first = np.zeros(key.size, dtype=bool)
    first[firsts] = True
    edges = np.column_stack(np.divmod(key[first], span))  # (lo, hi) in first-appearance order
    del key
    edge = np.cumsum(first)[firsts] - 1  # first-appearance rank, in key order
    sizes = np.diff(starts, append=first.size)
    del firsts, starts
    side_edge = np.empty_like(order)
    side_edge[order] = np.repeat(edge, sizes)
    counts = np.empty_like(sizes)
    counts[edge] = sizes
    return edges, counts, side_edge.reshape(-1, 3)


def build_rect(width: float, height: float, nx: int, ny: int) -> TriMesh:
    """Structured triangulation of [0,width] x [0,height] with nx*ny cells."""
    if not (0.0 < width < np.inf and 0.0 < height < np.inf):  # written so that NaN fails
        raise UsageError("rectangle sides must be positive and finite")
    _count(nx, "cell count nx", 1)
    _count(ny, "cell count ny", 1)
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
    radii = _grid(radii, "ring radii", least=2)
    _count(ntheta, "ntheta", 3)
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
    _interval(r0, r1, "annulus radii (r0, r1)")
    _count(nr, "nr", 1)
    return build_polar(np.linspace(r0, r1, nr + 1), ntheta)


def refine(mesh: TriMesh) -> TriMesh:
    """Midpoint 1-to-4 subdivision; boundary flags propagate to edge midpoints.

    The midpoint of edge e becomes vertex nv + e, so new vertices follow the
    edges' order of first appearance.  A midpoint is 0.5 v_p + 0.5 v_q, which
    no finite coordinates overflow; it equals 0.5 (v_p + v_q) bit for bit
    unless a half is subnormal.
    """
    v, (p, q) = mesh.vertices, mesh.edges.T
    verts = np.concatenate([v, 0.5 * v[p] + 0.5 * v[q]])
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
    flags, triangles = rows[:nv, 2:], rows[nv:]
    for first_row, block in ((0, flags), (nv, triangles)):  # the flag rows come first
        bad = np.flatnonzero(~(np.isfinite(block) & (np.floor(block) == block)))
        if bad.size:
            raise error(first_row + bad[0] // block.shape[1], f"expected an integer, found {block.flat[bad[0]]:g}")
    flags = flags[:, 0]
    bad = np.flatnonzero((flags != 0.0) & (flags != 1.0))
    if bad.size:
        raise error(bad[0], f"boundary flag must be 0 or 1, found {flags[bad[0]]:g}")
    bad = np.flatnonzero((triangles < 0.0) | (triangles >= nv))
    if bad.size:
        raise error(nv + bad[0] // 3, f"vertex index must be in [0, {nv}), found {triangles.flat[bad[0]]:g}")
    # integers in [0, nv), so the cast is exact
    return TriMesh(rows[:nv, :2], triangles.astype(np.int64), boundary=flags != 0.0)
