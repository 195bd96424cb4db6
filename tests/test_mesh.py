import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pharmap.errors import UsageError
from pharmap.mesh import TriMesh, build_annulus, build_polar, build_rect, load_mesh, refine, save_mesh


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
            verts.append(tuple(0.5 * (mesh.vertices[p] + mesh.vertices[q])))
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
    assert np.array_equal(loaded.vertices, m.vertices)
    assert np.array_equal(loaded.triangles, m.triangles)
    assert np.array_equal(loaded.boundary, m.boundary)
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


@st.composite
def relabelled_meshes(draw):
    """A small rect or annulus mesh, refined 0-2 times, with shuffled vertices and triangles."""
    if draw(st.booleans()):
        m = build_rect(2.0, 1.0, draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    else:
        m = build_annulus(1.0, 2.0, draw(st.integers(1, 3)), draw(st.integers(3, 8)))
    for _ in range(draw(st.integers(0, 2))):
        m = refine(m)
    nv, nt = m.num_vertices, m.num_triangles
    label = np.asarray(draw(st.permutations(range(nv))), dtype=np.int64)
    order = np.asarray(draw(st.permutations(range(nt))), dtype=np.int64)
    verts = np.empty_like(m.vertices)
    verts[label] = m.vertices
    return TriMesh(verts, label[m.triangles][order])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(relabelled_meshes())
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
