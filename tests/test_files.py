import re

import numpy as np
import pytest

from pharmap import _table
from pharmap.blend import PolarMetricGrid, load_metric_csv, save_metric_csv
from pharmap.errors import UsageError
from pharmap.mesh import build_annulus, load_mesh, save_mesh
from pharmap.solver import MapState, load_boundary_csv, load_solution_csv, save_boundary_csv, save_solution_csv
from pharmap.warp import SinhWarp, load_warp_csv, save_warp_csv

MESH = build_annulus(1.0, 2.0, 2, 8)  # file lines 2-25 are vertices, 26-57 triangles
GRID = PolarMetricGrid.from_generator(lambda t, h: t**2, np.linspace(0.5, 2.0, 7), 5)


def set_field(index, value, sep=","):
    def edit(line):
        fields = line.split(sep)
        fields[index] = value
        return sep.join(fields)

    return edit


# writer, line to corrupt, how, loader
CASES = {
    "mesh triangle index": (lambda p: save_mesh(p, MESH), 30, set_field(2, "2.5", " "), load_mesh),
    "mesh coordinate": (lambda p: save_mesh(p, MESH), 5, set_field(0, "x", " "), load_mesh),
    "mesh boundary flag": (lambda p: save_mesh(p, MESH), 12, set_field(2, "2", " "), load_mesh),
    "solution ragged row": (lambda p: save_solution_csv(p, MapState(MESH.vertices)), 4,
                            lambda line: line.rsplit(",", 1)[0], load_solution_csv),
    "solution vertex order": (lambda p: save_solution_csv(p, MapState(MESH.vertices)), 4, set_field(0, "3"),
                              load_solution_csv),
    "solution vertex": (lambda p: save_solution_csv(p, MapState(MESH.vertices)), 5, set_field(0, "-3"),
                        load_solution_csv),
    "warp field": (lambda p: save_warp_csv(p, SinhWarp(), np.linspace(0.0, 2.0, 9)), 3,
                   set_field(1, "abc"), load_warp_csv),
    "metric field": (lambda p: save_metric_csv(p, GRID), 6, set_field(2, "abc"), load_metric_csv),
    "metric repeated pair": (lambda p: save_metric_csv(p, GRID), 3, set_field(1, "0"), load_metric_csv),
    "boundary vertex": (lambda p: save_boundary_csv(p, MESH, MESH.vertices), 2, set_field(0, "0.5"),
                        lambda p: load_boundary_csv(p, MESH, 2)),
}


@pytest.mark.parametrize("blank", [None, "", "  \t"], ids=["", "after-blank-line", "after-whitespace-line"])
@pytest.mark.parametrize("case", list(CASES))
def test_malformed_file_names_path_and_line(tmp_path, case, blank):
    write, line, edit, load = CASES[case]
    path = tmp_path / "data.txt"
    write(path)
    load(path)  # the file as written is well formed
    lines = path.read_text().splitlines()
    lines[line - 1] = edit(lines[line - 1])
    if blank is not None:
        lines.insert(1, blank)  # blank lines are skipped, but the line number counts them
        line += 1
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}, line {line}: ")


def test_mesh_boundary_flag_must_be_zero_or_one(tmp_path):
    path = tmp_path / "mesh.txt"
    save_mesh(path, MESH)
    lines = path.read_text().splitlines()
    for flag in ("2", "-1"):
        lines[11] = set_field(2, flag, " ")(lines[11])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(UsageError, match=f"line 12: boundary flag must be 0 or 1, found {flag}$"):
            load_mesh(path)


@pytest.mark.parametrize("line, field, value, message", [
    (30, 1, "1e20", "line 30: vertex index must be in [0, 24), found 1e+20"),  # the cast would overflow
    (30, 2, "-1", "line 30: vertex index must be in [0, 24), found -1"),
    (30, 0, "24", "line 30: vertex index must be in [0, 24), found 24"),
    (30, 1, "inf", "line 30: expected an integer, found inf"),
    (30, 2, "nan", "line 30: expected an integer, found nan"),
    (5, 0, "inf", "vertex coordinates must be finite"),
])
def test_mesh_file_value_out_of_range_is_refused_without_a_warning(tmp_path, line, field, value, message):
    path = tmp_path / "mesh.txt"
    save_mesh(path, MESH)
    lines = path.read_text().splitlines()
    lines[line - 1] = set_field(field, value, " ")(lines[line - 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError, match=f"{re.escape(message)}$"):
        load_mesh(path)


@pytest.mark.parametrize("edits, message", [
    ({(12, 2): "0.5", (30, 2): "2.5"}, "line 12: expected an integer, found 0.5"),
    ({(12, 2): "2", (30, 2): "2.5"}, "line 30: expected an integer, found 2.5"),  # integers are checked first
    ({(30, 2): "nan", (31, 0): "1.5"}, "line 30: expected an integer, found nan"),
    ({(30, 1): "1.5", (30, 2): "inf"}, "line 30: expected an integer, found 1.5"),
    ({(25, 2): "0.5", (26, 0): "-1"}, "line 25: expected an integer, found 0.5"),  # the last flag row
    ({(26, 0): "0.5", (12, 2): "2"}, "line 26: expected an integer, found 0.5"),  # the first triangle row
])
def test_mesh_file_names_its_first_bad_row(tmp_path, edits, message):
    path = tmp_path / "mesh.txt"
    save_mesh(path, MESH)
    lines = path.read_text().splitlines()
    for (line, field), value in edits.items():
        lines[line - 1] = set_field(field, value, " ")(lines[line - 1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError, match=f"{re.escape(message)}$"):
        load_mesh(path)


def test_non_ascii_file_rejected(tmp_path):
    path = tmp_path / "mesh.txt"
    save_mesh(path, MESH)
    path.write_bytes(path.read_bytes().replace(b"\n", b" \xc3\xa9\n", 3))
    with pytest.raises(UsageError, match="mesh file is not ASCII"):
        load_mesh(path)


def test_solution_rows_must_follow_vertex_order(tmp_path):
    path = tmp_path / "state.csv"
    save_solution_csv(path, MapState(MESH.vertices))
    lines = path.read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]  # the rows of vertices 2 and 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError, match="line 4: solution row names vertex 3, expected 2$"):
        load_solution_csv(path)


@pytest.mark.parametrize("header", ["vertex,x1,x2,junk", "vertex,x2,x1", "vertex,x1,x3", "vertex", "x1,x2"])
@pytest.mark.parametrize("widen", [False, True], ids=["rows-as-written", "rows-widened-to-header"])
def test_vertex_table_header_must_be_exact(tmp_path, header, widen):
    path = tmp_path / "state.csv"
    save_solution_csv(path, MapState(MESH.vertices))
    lines = path.read_text().splitlines()
    lines[0] = header
    if widen:  # rows with as many fields as the header, so only the header is wrong
        lines[1:] = [",".join((line.split(",") + ["0"] * 4)[:header.count(",") + 1]) for line in lines[1:]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UsageError, match=f"line 1: bad solution header '{header}'$"):
        load_solution_csv(path)
    save_boundary_csv(path, MESH, MESH.vertices)
    with pytest.raises(UsageError, match="line 1: bad boundary header 'vertex,x1,x2'$"):
        load_boundary_csv(path, MESH, 3)


# writer, loader, and the loaded result as bytes
ROUND_TRIPS = {
    "mesh": (lambda p: save_mesh(p, MESH), load_mesh,
             lambda m: m.vertices.tobytes() + m.triangles.tobytes() + m.boundary.tobytes()),
    "warp samples": (lambda p: save_warp_csv(p, SinhWarp(), np.linspace(0.0, 2.0, 9)), load_warp_csv,
                     lambda w: w.evaluate(np.linspace(0.1, 1.9, 7))[0].tobytes()),
    "metric grid": (lambda p: save_metric_csv(p, GRID), load_metric_csv,
                    lambda g: g.t_grid.tobytes() + g.theta_grid.tobytes() + g.j.tobytes()),
    "boundary": (lambda p: save_boundary_csv(p, MESH, MESH.vertices), lambda p: load_boundary_csv(p, MESH, 2),
                 lambda a: a.tobytes()),
    "solution": (lambda p: save_solution_csv(p, MapState(MESH.vertices)), load_solution_csv,
                 lambda s: s.points.tobytes()),
}


@pytest.mark.parametrize("case", list(ROUND_TRIPS))
def test_loaders_skip_whitespace_lines_and_read_crlf(tmp_path, case):
    write, load, as_bytes = ROUND_TRIPS[case]
    path = tmp_path / "data.txt"
    write(path)
    want = as_bytes(load(path))
    lines = path.read_text().splitlines()
    for edit in (lambda ls: ls[:2] + ["   ", "\t"] + ls[2:] + [" "],  # whitespace-only lines are blank
                 lambda ls: ls[:3] + [""] + ls[3:]):
        edited = edit(lines)
        for newline in ("\n", "\r\n"):
            path.write_bytes((newline.join(edited) + newline).encode("ascii"))
            assert as_bytes(load(path)) == want
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("ascii"))
    assert as_bytes(load(path)) == want


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_boundary_file_non_finite_value_names_its_line(tmp_path, value):
    path = tmp_path / "bc.csv"
    save_boundary_csv(path, MESH, MESH.vertices)
    lines = path.read_text().splitlines()
    lines[4] = set_field(2, value)(lines[4])
    lines.insert(2, "  ")
    path.write_text("\n".join(lines) + "\n")
    vertex = lines[5].split(",")[0]
    with pytest.raises(UsageError, match=f"^{path}, line 6: boundary row of vertex {vertex} has a non-finite value$"):
        load_boundary_csv(path, MESH, 2)


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
@pytest.mark.parametrize("kind", ["boundary", "solution"])
def test_vertex_table_refuses_a_non_finite_vertex(tmp_path, kind, value):
    # the integer test must not compute with the vertex: np.mod(inf, 1.0) warns
    write, load = {
        "boundary": (lambda p: save_boundary_csv(p, MESH, MESH.vertices), lambda p: load_boundary_csv(p, MESH, 2)),
        "solution": (lambda p: save_solution_csv(p, MapState(MESH.vertices)), load_solution_csv),
    }[kind]
    path = tmp_path / "data.csv"
    write(path)
    lines = path.read_text().splitlines()
    lines[3] = set_field(0, value)(lines[3])
    path.write_text("\n".join(lines) + "\n")
    shown = f"{float(value):g}"
    with pytest.raises(UsageError, match=f"^{re.escape(str(path))}, line 4: {kind} row names vertex {shown}, "
                                         "not a nonnegative integer$"):
        load(path)


def test_solution_file_refuses_a_state_without_vertices(tmp_path):
    path = tmp_path / "state.csv"
    with pytest.raises(UsageError, match="at least one vertex"):
        save_solution_csv(path, MapState(np.zeros((0, 2))))
    assert not path.exists()
    save_solution_csv(path, MapState(np.zeros((1, 2))))  # one vertex round-trips
    assert load_solution_csv(path).points.tobytes() == np.zeros((1, 2)).tobytes()


B = _table._SLICE_ROWS  # rows per write of the table writer


def one_shot(header, blocks, delimiter):
    """The file text of ``write_table``, formatted in one piece per block."""
    text = header + "\n"
    for rows, fmt in blocks:
        fmt = [fmt] * rows.shape[1] if isinstance(fmt, str) else fmt
        text += ((delimiter.join(fmt) + "\n") * rows.shape[0]) % tuple(rows.ravel().tolist())
    return text


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("fmt, delimiter", [(("%d", "%.17g", "%.3e"), " "), ("%.17g", ",")],
                         ids=["per-column", "one-for-all"])
def test_write_table_bytes_do_not_depend_on_the_slice(tmp_path, n, fmt, delimiter):
    rng = np.random.default_rng(n)
    rows = rng.normal(scale=1e3, size=(n, 3))
    blocks = [(rows, fmt), (np.arange(3 * n).reshape(n, 3), "%d")]
    path = tmp_path / "table.txt"
    _table.write_table(path, "a b c", *blocks, delimiter=delimiter)
    assert path.read_bytes() == one_shot("a b c", blocks, delimiter).encode("ascii")


@pytest.mark.parametrize("nx, ny", [(0, 3), (1, 1), (2 * B + 1, 1), (B + 1, 3), (3, B - 1), (2, B + 1)])
def test_grid_rows_bytes_are_those_of_the_array_block(tmp_path, nx, ny):
    rng = np.random.default_rng(nx + ny)
    x, y, values = rng.normal(size=nx), rng.normal(size=ny), rng.normal(size=(nx, ny))
    rows = np.column_stack([np.repeat(x, ny), np.tile(y, nx), values.ravel()])
    path = tmp_path / "grid.csv"
    _table.write_table(path, "t,theta,j", _table.GridRows(x, y, values))
    assert path.read_bytes() == one_shot("t,theta,j", [(rows, "%.17g")], ",").encode("ascii")
