import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from pharmap.errors import UsageError
from pharmap.mesh import (TriMesh, _close_pairs, _edge_table, build_annulus, build_polar, build_rect, load_mesh, refine,
                          save_mesh)


def reference_edges(triangles):
    """Plain-Python edge walk: sorted pair -> number of triangles, in first-appearance order."""
    counts = {}
    for a, b, c in triangles.tolist():
        for p, q in ((a, b), (b, c), (c, a)):
            key = (min(p, q), max(p, q))
            counts[key] = counts.get(key, 0) + 1
    return counts


def reference_boundary(triangles, nv):
    flags = np.zeros(nv, dtype=bool)
    for (p, q), count in reference_edges(triangles).items():
        if count == 1:
            flags[[p, q]] = True
    return flags


def reference_geometry(vertices, triangles):
    """Areas and basis gradients, one triangle at a time: perp(opposite side) / (2A)."""
    areas, grads = [], []
    for a, b, c in triangles.tolist():
        (a0, a1), (b0, b1), (c0, c1) = vertices[a].tolist(), vertices[b].tolist(), vertices[c].tolist()
        area = 0.5 * ((b0 - a0) * (c1 - a1) - (b1 - a1) * (c0 - a0))
        two_area = 2.0 * area
        sides = ((c0 - b0, c1 - b1), (a0 - c0, a1 - c1), (b0 - a0, b1 - a1))
        areas.append(area)
        grads.append([(-e1 / two_area, e0 / two_area) for e0, e1 in sides])
    return np.array(areas, dtype=float), np.array(grads, dtype=float).reshape(-1, 3, 2)


def reference_refine(mesh):
    """Midpoint subdivision with a dict of midpoints, numbered as first met."""
    verts = [tuple(v) for v in mesh.vertices]
    midpoint = {}

    def mid(p, q):
        key = (min(p, q), max(p, q))
        if key not in midpoint:
            midpoint[key] = len(verts)
            verts.append(tuple(0.5 * mesh.vertices[p] + 0.5 * mesh.vertices[q]))
        return midpoint[key]

    tris = []
    for a, b, c in mesh.triangles.tolist():
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        tris.extend([(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)])
    return np.asarray(verts), np.asarray(tris, dtype=np.int64), reference_boundary(np.asarray(tris), len(verts))


def test_build_annulus_counts_and_flags():
    m = build_annulus(1.0, 2.0, 2, 8)
    assert m.num_vertices == 24
    assert m.num_triangles == 32
    radii = np.linalg.norm(m.vertices, axis=1)
    assert np.array_equal(m.boundary, (np.abs(radii - 1) < 1e-12) | (np.abs(radii - 2) < 1e-12))
    assert np.all(m.areas > 0)
    assert m.euler_characteristic() == 0  # annulus


def test_build_rect_counts_and_flags():
    m = build_rect(1.0, 1.0, 2, 2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    assert m.boundary.sum() == 2 * (2 + 2)
    assert m.euler_characteristic() == 1  # disk-like
    assert np.all(m.areas > 0)


def test_build_validation():
    with pytest.raises(UsageError):
        build_annulus(2.0, 2.0, 2, 8)
    with pytest.raises(UsageError):
        build_annulus(1.0, 2.0, 0, 8)
    with pytest.raises(UsageError):
        build_annulus(1.0, 2.0, 2, 2)
    with pytest.raises(UsageError):
        build_rect(1.0, 1.0, 0, 2)


def test_reference_gradients_sum_to_zero():
    for m in (build_rect(1.5, 0.7, 3, 2), build_annulus(0.5, 2.0, 3, 12)):
        assert np.max(np.abs(m.grads.sum(axis=1))) < 1e-12
        # gradients reproduce affine functions exactly: grad of f(x)=a.x is a
        a = np.array([0.3, -1.1])
        f = m.vertices @ a
        per_tri = np.einsum("tva,tv->ta", m.grads, f[m.triangles])
        assert np.allclose(per_tri, a, atol=1e-12)


def test_refine_counts_areas_flags():
    m = build_rect(1.0, 1.0, 1, 1)
    r = refine(m)
    assert m.num_triangles == 2 and r.num_triangles == 8
    assert r.areas.sum() == pytest.approx(m.areas.sum(), abs=1e-14)
    assert r.boundary_edge_count() == 2 * m.boundary_edge_count()

    a = build_annulus(1.0, 2.0, 2, 8)
    twice = refine(refine(a))
    assert twice.euler_characteristic() == 0
    assert twice.num_triangles == 16 * a.num_triangles
    assert twice.areas.sum() == pytest.approx(a.areas.sum(), abs=1e-13)


@pytest.mark.parametrize("m", [
    build_annulus(1.0, 2.0, 8, 32), build_rect(3.0, 1.0, 7, 5), build_polar([0.5, 1.0, 3.0], 17),
    build_annulus(1e-3, 2e5, 4, 9),
], ids=["annulus", "rect", "polar", "wide annulus"])
def test_refined_midpoints_are_half_the_sums_on_builder_meshes(m):
    # 0.5 v_p + 0.5 v_q equals 0.5 (v_p + v_q) bit for bit where no half is subnormal
    for _ in range(3):
        r = refine(m)
        p, q = m.edges.T
        assert r.vertices.tobytes() == np.concatenate([m.vertices, 0.5 * (m.vertices[p] + m.vertices[q])]).tobytes()
        m = r


def test_refine_near_the_largest_float_does_not_overflow():
    m = TriMesh([[1e308, 0.0], [1.5e308, 0.0], [1e308, 1e-10]], [[0, 1, 2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = refine(m)
        rr = refine(r)
    want = np.array([[1e308, 0.0], [1.5e308, 0.0], [1e308, 1e-10],
                     [1.25e308, 0.0], [1.25e308, 5e-11], [1e308, 5e-11]])
    assert r.vertices.tobytes() == want.tobytes()
    for got, ref in zip((rr.vertices, rr.triangles, rr.boundary), reference_refine(r)):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


def test_refine_boundary_flags_follow_topology():
    m = refine(build_annulus(1.0, 2.0, 2, 6))
    flags = reference_boundary(m.triangles, m.num_vertices)
    assert np.array_equal(m.boundary, flags)


def test_duplicate_vertex_detection():
    verts = [(0, 0), (1, 0), (1e-13, 1e-13), (0, 1)]
    with pytest.raises(UsageError):
        TriMesh(verts, [(0, 1, 3), (1, 2, 3)])


def test_duplicate_vertex_detection_far_apart_in_index_order():
    m = refine(refine(refine(build_annulus(1.0, 2.0, 8, 32))))
    assert m.num_vertices == 16640
    verts = np.concatenate([m.vertices, m.vertices[:1] + [1e-13, 0.0]])  # unused, listed last
    with pytest.raises(UsageError, match=r"duplicate vertices 0 and 16640 "):
        TriMesh(verts, m.triangles)


def kd_tree_pairs(points, r=1e-12):
    """``cKDTree.query_pairs(r)``.  The tree refuses a point set whose extent squared overflows (extent 1e154
    and up); there every pair is tested with Python floats, whose subtraction and product overflow to inf."""
    try:
        return cKDTree(points).query_pairs(r)
    except ValueError as exc:
        assert "overflow" in str(exc) and np.max(np.abs(points)) >= 1e150
    rows = points.tolist()
    return {(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))
            if (rows[i][0] - rows[j][0]) * (rows[i][0] - rows[j][0])
            + (rows[i][1] - rows[j][1]) * (rows[i][1] - rows[j][1]) <= r * r}


@st.composite
def point_sets(draw):
    """Vertices of a rect (its columns share x exactly), polar or refined mesh, or a row of vertices across the
    direction of the sort, shifted by up to 1e6 or scaled to near 1e300, with close pairs planted at distances
    0, 0.5e-12 and 2e-12, and shuffled."""
    kind = draw(st.sampled_from(["rect", "polar", "refined", "row"]))
    if kind == "rect":
        points = build_rect(draw(st.floats(0.5, 3.0)), 1.0, draw(st.integers(1, 8)), draw(st.integers(1, 8))).vertices
    elif kind == "polar":
        points = build_polar(np.geomspace(0.1, 2.0, draw(st.integers(2, 5))), draw(st.integers(3, 12))).vertices
    elif kind == "refined":
        points = refine(refine(build_annulus(1.0, 2.0, 1, draw(st.integers(3, 6))))).vertices
    else:  # projections that agree within the rounding slack: the scan runs to large k
        step = draw(st.sampled_from([0.6e-12, 1.2e-12, 1e-9]))
        points = np.arange(draw(st.integers(2, 40)))[:, None] * (step * np.array([-math.sin(1.0), math.cos(1.0)]))
    points = points.copy()
    move = draw(st.sampled_from(["none", "shift", "huge"]))
    if move == "shift":
        points += np.array(draw(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))))
    elif move == "huge":
        points *= draw(st.floats(1e299, 5e307))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(points) - 1))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        shift = draw(st.sampled_from([0.0, 0.5e-12, 2e-12])) * np.array([math.cos(angle), math.sin(angle)])
        points = np.vstack([points, points[at] + shift])
    return points[np.asarray(draw(st.permutations(range(len(points)))), dtype=np.int64)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(point_sets())
def test_close_pairs_are_the_kd_tree_pairs(points):
    want = sorted(kd_tree_pairs(points))
    assert [tuple(pair) for pair in _close_pairs(points, 1e-12).tolist()] == want
    if want:  # TriMesh runs the check without triangles too, and names the lowest pair
        with pytest.raises(UsageError, match=rf"^duplicate vertices {want[0][0]} and {want[0][1]} \("):
            TriMesh(points, np.zeros((0, 3), int))
    else:
        TriMesh(points, np.zeros((0, 3), int))


def test_duplicate_error_names_the_lowest_pair():
    m = build_rect(1.0, 1.0, 4, 4)  # 25 vertices
    # copies of vertex 9 (twice: three vertices at one point), 7 and 16: pairs (7, 26), (9, 25), (9, 28), (16, 27)
    # and (25, 28)
    verts = np.concatenate([m.vertices, m.vertices[[9, 7, 16, 9]] + [[1e-13, 0.0], [0.0, 0.0], [0.0, -5e-13], [0, 0]]])
    assert _close_pairs(verts, 1e-12).tolist() == [[7, 26], [9, 25], [9, 28], [16, 27], [25, 28]]
    with pytest.raises(UsageError, match=r"^duplicate vertices 7 and 26 \(closer than 1e-12\)$"):
        TriMesh(verts, m.triangles)


@pytest.mark.parametrize("index", [1.5, math.nan, math.inf, -math.inf])
def test_triangle_indices_must_be_integers(index):
    with pytest.raises(UsageError, match="^triangle indices must be integers$"):
        TriMesh([[0, 0], [1, 0], [0, 1]], [[0.0, index, 2.0]])


def test_integral_float_triangle_indices_are_exact():
    m = build_annulus(1.0, 2.0, 2, 8)
    floats = TriMesh(m.vertices, m.triangles.astype(float))
    assert floats.triangles.dtype == np.int64 and floats.triangles.tobytes() == m.triangles.tobytes()
    for index in (1e20, -1.0, 3.0):  # out of range, refused before a cast could overflow
        with pytest.raises(UsageError, match="^triangle indices out of range$"):
            TriMesh([[0, 0], [1, 0], [0, 1]], [[0.0, index, 2.0]])
    with pytest.raises(UsageError, match="^triangle indices out of range$"):
        TriMesh([[0, 0], [1, 0], [0, 1]], np.array([[0, 2**63, 2]], dtype=np.uint64))


@pytest.mark.parametrize("verts", [
    [[1e300, 0.0], [1.5e300, 0.0], [1e300, 1e300]],  # the doubled area overflows
    [[-1.7e308, 0.0], [1.7e308, 0.0], [0.0, 1.0]],  # a side overflows
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-320]],  # the basis gradients overflow
    [[0.0, 0.0], [1.0, 0.0], [0.0, 5e-324]],  # the area rounds to 0
], ids=["area", "side", "gradient", "zero-area"])
def test_triangle_that_overflows_is_named(verts):
    good = [[5.0, 5.0], [6.0, 5.0], [5.0, 6.0]]
    with pytest.raises(UsageError, match="^triangle 1 overflows float64: its area or basis gradients are not finite$"):
        TriMesh(good + verts, [[0, 1, 2], [3, 4, 5]])


def test_orientation_validation():
    verts = [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(UsageError):
        TriMesh(verts, [(0, 2, 1)])  # clockwise


def test_boundary_flag_mismatch_rejected():
    m = build_rect(1.0, 1.0, 2, 2)
    bad = m.boundary.copy()
    bad[~bad] = True
    with pytest.raises(UsageError):
        TriMesh(m.vertices, m.triangles, boundary=bad)


def test_every_table_is_read_only():
    m = build_annulus(1.0, 2.0, 2, 8)
    for name in ("vertices", "triangles", "boundary", "areas", "grads", "edges", "edge_counts",
                 "triangle_edges"):
        table = getattr(m, name)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]


def test_mesh_does_not_alias_the_callers_arrays():
    m0 = build_rect(1.0, 1.0, 3, 3)
    base = np.array(m0.vertices)
    tris = m0.triangles.copy()
    flags = m0.boundary.copy()
    m = TriMesh(base[:], tris, boundary=flags)
    for given, table in ((base, m.vertices), (tris, m.triangles), (flags, m.boundary)):
        assert not np.shares_memory(given, table)
        assert given.flags.writeable  # the caller's arrays stay writable
    areas = m.areas.copy()
    base[5] += 0.1  # moving the caller's vertex moves nothing of the mesh
    tris[0] = tris[0, ::-1]
    flags[:] = False
    assert np.array_equal(m.vertices, m0.vertices) and np.array_equal(m.triangles, m0.triangles)
    assert np.array_equal(m.boundary, m0.boundary) and np.array_equal(m.areas, areas)


def test_mesh_file_round_trip(tmp_path):
    m = build_annulus(1.0, 2.0, 2, 8)
    path = tmp_path / "mesh.txt"
    save_mesh(path, m)
    loaded = load_mesh(path)
    for name in ("vertices", "triangles", "boundary", "areas", "grads", "edges", "edge_counts", "triangle_edges"):
        got, want = getattr(loaded, name), getattr(m, name)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    # byte determinism of the writer
    path2 = tmp_path / "mesh2.txt"
    save_mesh(path2, m)
    assert path.read_bytes() == path2.read_bytes()


def test_build_polar_custom_radii():
    radii = np.geomspace(0.01, 2.0, 12)
    m = build_polar(radii, 16)
    assert m.num_vertices == 12 * 16
    assert np.all(m.areas > 0)
    with pytest.raises(UsageError):
        build_polar([0.0, 1.0], 8)


def test_mesh_size():
    m = build_rect(2.0, 1.0, 2, 1)
    assert m.mesh_size() == pytest.approx(np.hypot(1.0, 1.0))


def test_edge_shared_by_three_triangles_rejected():
    verts = [(0, 0), (1, 0), (0.5, 1), (0.2, 2), (0.8, 3)]
    with pytest.raises(UsageError, match=r"edge \(0,1\) belongs to 3 triangles"):
        TriMesh(verts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def relabelled(m, label, order, turns):
    """``m`` with vertex v renamed label[v], its triangles in the order ``order`` and triangle t's corners
    turned by turns[t] places (which keeps them counter-clockwise)."""
    verts = np.empty_like(m.vertices)
    verts[label] = m.vertices
    tris = label[m.triangles][order]
    tris = tris[np.arange(tris.shape[0])[:, None], (np.arange(3) + turns[:, None]) % 3]
    return TriMesh(verts, tris)


def reversed_mesh(m):
    """``m`` with its vertex labels and its triangle order reversed."""
    nv, nt = m.num_vertices, m.num_triangles
    return relabelled(m, np.arange(nv)[::-1], np.arange(nt)[::-1], np.zeros(nt, dtype=np.int64))


@st.composite
def relabelled_meshes(draw):
    """A small rect, annulus or polar mesh, refined 0-2 times, with shuffled vertices and triangles and
    turned corners."""
    kind = draw(st.sampled_from(["rect", "annulus", "polar"]))
    if kind == "rect":
        m = build_rect(2.0, 1.0, draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    elif kind == "annulus":
        m = build_annulus(1.0, 2.0, draw(st.integers(1, 3)), draw(st.integers(3, 8)))
    else:
        m = build_polar([0.5, 1.0, 3.0], draw(st.integers(3, 9)))
    for _ in range(draw(st.integers(0, 2))):
        m = refine(m)
    nv, nt = m.num_vertices, m.num_triangles
    label = np.asarray(draw(st.permutations(range(nv))), dtype=np.int64)
    order = np.asarray(draw(st.permutations(range(nt))), dtype=np.int64)
    turns = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 3, nt)
    return relabelled(m, label, order, turns)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(relabelled_meshes())
@example(reversed_mesh(refine(build_annulus(1.0, 2.0, 2, 8))))
@example(reversed_mesh(refine(refine(build_rect(2.0, 1.0, 3, 2)))))
def test_edge_table_matches_plain_walk(m):
    counts = reference_edges(m.triangles)
    assert np.array_equal(m.boundary, reference_boundary(m.triangles, m.num_vertices))
    assert [tuple(e) for e in m.edges.tolist()] == list(counts)
    assert m.edge_counts.tolist() == list(counts.values())
    assert m.edge_set() == set(counts)
    assert m.boundary_edge_count() == sum(1 for c in counts.values() if c == 1)
    assert m.euler_characteristic() == m.num_vertices - len(counts) + m.num_triangles
    for side in range(3):
        p, q = m.triangles[:, side], m.triangles[:, (side + 1) % 3]
        assert np.array_equal(m.edges[m.triangle_edges[:, side]],
                              np.column_stack([np.minimum(p, q), np.maximum(p, q)]))
    for got, want in zip((m.areas, m.grads), reference_geometry(m.vertices, m.triangles)):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    r = refine(m)
    for got, want in zip((r.vertices, r.triangles, r.boundary), reference_refine(m)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_edge_table_peak_memory():
    # the 8x32 annulus refined to 32768 triangles: building the key in place and freeing each temporary once
    # read peaks near 3.9 MiB, outputs included; holding lo, hi and the sorted keys to the end peaks at 8.1 MiB
    m = build_annulus(1.0, 2.0, 8, 32)
    for _ in range(3):
        m = refine(m)
    triangles = np.array(m.triangles)
    tracemalloc.start()
    try:
        edges, counts, side_edge = _edge_table(triangles)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert edges.tobytes() == m.edges.tobytes() and side_edge.tobytes() == m.triangle_edges.tobytes()
    assert peak <= 5.0, f"peak {peak:.2f} MiB"
