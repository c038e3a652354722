"""Dataset round-trips, manifests, SVG determinism, and the CLI surface."""

import ast
import errno
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import dataset_bytes_reference, svg_bytes_reference

import heatbayes
from heatbayes.cli import (
    COMMANDS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    build_parser,
    main,
)
from heatbayes.io import RunManifest, read_dataset, write_dataset
from heatbayes.svg import render_static_plot


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(autouse=True)
def _strict_json_manifests(monkeypatch):
    """Every manifest the tests here write, through the command line or
    not, is strict JSON: no NaN or Infinity, which strict parsers reject."""
    write = RunManifest.write

    def checked(self, path):
        checksum = write(self, path)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=_no_constant)
        return checksum

    monkeypatch.setattr(RunManifest, "write", checked)


class TestWriteDataset:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [tuple(rng.standard_normal(3) * 10.0**rng.integers(-200, 200))
                for _ in range(50)]
        rows.append((math.pi, 1.0 / 3.0, 5e-324))
        path = tmp_path / "data.csv"
        write_dataset((("a", "b", "c"), rows), path)
        cols, back = read_dataset(path)
        assert cols == ["a", "b", "c"]
        for row, orig in zip(back, rows):
            for v, o in zip(row, orig):
                assert v == o  # exact, including subnormals

    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_dataset((("x", "y"), []), path)
        assert path.read_bytes() == b"x,y\n"

    def test_identical_inputs_identical_checksums(self, tmp_path):
        table = (("u",), [(1.2345678901234567,), (float("nan"),)])
        c1 = write_dataset(table, tmp_path / "a.csv")
        c2 = write_dataset(table, tmp_path / "b.csv")
        assert c1 == c2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_lf_and_utf8(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset((("name",), [("value",)]), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            write_dataset((("a",), []), tmp_path / "no_dir" / "x.csv")

    def test_bytes_match_cell_by_cell_oracle(self, tmp_path):
        # every cell type a table can hold, and rows of changing type
        # signature in the same columns
        cells = ["name", "", np.str_("s"), 0, -7, 10**30, -(2**70), True,
                 False, np.bool_(True), np.int64(-5), np.int64(2**62),
                 np.float32(0.1), np.float32(-3.4e38), np.float64(1 / 3),
                 float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                 5e-324, 1.7976931348623157e308, 0.1, 0.30000000000000004,
                 2 / 3, 1e23, 9007199254740993.0, 123456789.12345678,
                 1.0000000000000002, np.float64(-2.5e-308), 1e16]
        rows = [tuple(cells), tuple(reversed(cells)),
                tuple(cells[1:] + cells[:1]), tuple(cells)]
        rows += [tuple(np.roll(np.arange(len(cells)) * 1.5, k).tolist())
                 for k in range(3)]
        rows.append(list(cells))  # rows may be lists
        columns = tuple(f"c{j}" for j in range(len(cells)))
        path = tmp_path / "mixed.csv"
        checksum = write_dataset((columns, rows), path)
        expected = dataset_bytes_reference(columns, rows)
        assert path.read_bytes() == expected
        assert checksum == hashlib.sha256(expected).hexdigest()

    @pytest.mark.parametrize("rows,where", [
        ([(1.0,), (1.0, 2.0)], "row 0"),
        ([(1.0, 2.0), (1.0, 2.0, 3.0)], "row 1"),
        ([(1.0, 2.0), ("x", "a\nb")], "row 1, column 'b'"),
        ([("cr\r", 1.0)], "row 0, column 'a'"),
    ])
    def test_malformed_rows_rejected(self, tmp_path, rows, where):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=where):
            write_dataset((("a", "b"), rows), path)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_separator_in_column_name_rejected(self, tmp_path, name):
        """Of three names, the second and third holding the same separator,
        the error names the second."""
        path, third = tmp_path / "c.csv", "c" + name[1:]
        with pytest.raises(ValueError) as info:
            write_dataset((("x", name, third), [(1.0, 2.0, 3.0)]), path)
        assert f"column name {name!r}" in str(info.value)
        assert repr(third) not in str(info.value)
        assert not path.exists()

    def test_empty_string_cells_kept(self, tmp_path):
        path = tmp_path / "e.csv"
        write_dataset((("a", "b"), [("", 1.0), ("s", "")]), path)
        assert path.read_bytes() == b"a,b\n,1\ns,\n"

    @pytest.mark.parametrize("rows", [
        [("\u00e9t\u00e9", 1.5), (0.25, "\u03bb=\u221e \U0001d4e9")],
        [(1e-300, "x" * 40), (-0.0, "y" * 40), (2.5, "z")],
        [("a", "", "c"), ("", "e", "")],
        [("", 1.0, 2.0, ""), ("", np.nan, 3, ""), ("q", 7, -1e20, "")],
        [("a\0b", "\0"), ("\0\0", 1.0), (np.nan, "nul\0")],
    ], ids=["non-ascii", "wide-last-column", "text-only", "empty-ends",
            "nul"])
    def test_text_cells_match_oracle(self, tmp_path, rows):
        """Cells with their own text, anywhere and of any width, are
        written verbatim among the formatted floats."""
        columns = tuple(f"c{j}" for j in range(len(rows[0])))
        path = tmp_path / "t.csv"
        checksum = write_dataset((columns, rows), path)
        expected = dataset_bytes_reference(columns, rows)
        assert path.read_bytes() == expected
        assert checksum == hashlib.sha256(expected).hexdigest()

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e",
                                     "\x85", "\u2028", "\u2029"])
    def test_other_line_breaks_read_back_in_their_cell(self, tmp_path, brk):
        """Only "\n" ends a line: a str cell or a column name holding
        another character that str.splitlines breaks on reads back whole."""
        columns = (f"a{brk}b", "c")
        rows = [(f"page{brk}break", 1.0), (brk, f"{brk}x{brk}")]
        path = tmp_path / "b.csv"
        write_dataset((columns, rows), path)
        assert path.read_bytes() == dataset_bytes_reference(columns, rows)
        assert read_dataset(path) == (list(columns), rows)

    @pytest.mark.parametrize("rows", [[(), ()], []])
    def test_table_without_columns_rejected(self, tmp_path, rows):
        path = tmp_path / "none.csv"
        with pytest.raises(ValueError, match="0 columns"):
            write_dataset(((), rows), path)
        assert not path.exists()

    def test_panel_bytes_match_oracle(self, tmp_path):
        from heatbayes import ExperimentConfig, PanelSpec, PriorSpec, render_panel
        cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=(1e4,),
                               seed=3, x_grid_points=57)
        panel = render_panel(cfg, PanelSpec(prior=cfg.prior, n=1e4,
                                            data_stream=2, draws=3))
        columns, rows = panel.to_table()
        assert all(type(v) is float for row in rows for v in row)
        write_dataset(panel, tmp_path / "p.csv")
        assert ((tmp_path / "p.csv").read_bytes()
                == dataset_bytes_reference(columns, rows))
        reference = [(panel.x[k], panel.truth[k], panel.post_mean[k],
                      panel.lower[k], panel.upper[k], *panel.draw_curves[:, k])
                     for k in range(panel.x.size)]
        assert dataset_bytes_reference(columns, rows) == \
            dataset_bytes_reference(columns, reference)


def _check_matrix(matrix, tmp_path) -> None:
    """write_dataset on a float matrix writes, and checksums, the bytes of
    the cell-by-cell reference."""
    columns = tuple(f"c{j}" for j in range(matrix.shape[1]))
    path = tmp_path / "m.csv"
    checksum = write_dataset((columns, matrix), path)
    expected = dataset_bytes_reference(columns, matrix)
    assert path.read_bytes() == expected
    assert checksum == hashlib.sha256(expected).hexdigest()


class TestMatrixKernel:
    """write_dataset on (columns, float matrix) against format(v, ".17g")
    cell by cell."""

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=(40_000, 5), dtype=np.uint64)
        matrix = bits.view(np.float64)  # subnormals, nan and inf among them
        _check_matrix(matrix, tmp_path)

    def test_every_decade_of_the_fixed_range(self, tmp_path):
        rng = np.random.default_rng(12)
        matrix = (10.0 ** rng.uniform(-5.0, 18.0, size=(20_000, 4))
                  * rng.choice([-1.0, 1.0], size=(20_000, 4)))
        _check_matrix(matrix, tmp_path)

    def test_exact_decimal_ties(self, tmp_path):
        # j / 2^m is exactly j 5^m / 10^m: with j odd and j 5^m of 18 digits
        # it lies halfway between two 17-digit decimals, and "%.17g"
        # rounds it half to even
        rng = np.random.default_rng(13)
        ties = []
        for m in range(70):
            low, high = -(-10**17 // 5**m), min(10**18 // 5**m, 2**53)
            for j in rng.integers(low, high, size=400) if low < high else ():
                j = int(j) | 1
                if len(str(j * 5**m)) == 18:
                    ties.append(j / 2**m)
        assert len(ties) > 8000
        small = [j / 2**m for m in range(70) for j in range(1, 200, 2)]
        matrix = np.array(ties + small).reshape(-1, 1)
        _check_matrix(matrix, tmp_path)

    def test_boundaries_and_special_values(self, tmp_path):
        powers = [10.0**k for k in range(-5, 19)]
        values = [1e-4, np.nextafter(1e-4, 0.0), 1e16, 1e17,
                  99999999999999999.0, np.nextafter(1e17, 0.0),
                  0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
                  np.finfo(float).max, np.finfo(float).tiny, 0.5, 1.0, 9.5]
        values += powers + [np.nextafter(p, 0.0) for p in powers]
        values += [np.nextafter(p, np.inf) for p in powers]
        values = np.array(values + [-v for v in values])
        matrix = values.reshape(-1, 2)
        _check_matrix(matrix, tmp_path)
        _check_matrix(values[:, None], tmp_path)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_narrow_float_input(self, tmp_path, dtype):
        rng = np.random.default_rng(14)
        matrix = (rng.standard_normal((500, 3))
                  * 10.0 ** rng.integers(-6, 4, size=(500, 3))).astype(dtype)
        _check_matrix(matrix, tmp_path)

    def test_read_dataset_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(15)
        matrix = rng.integers(0, 2**64, size=(5000, 3),
                              dtype=np.uint64).view(np.float64)
        matrix[np.isnan(matrix)] = -0.0
        path = tmp_path / "r.csv"
        write_dataset((("a", "b", "c"), matrix), path)
        columns, rows = read_dataset(path)
        assert columns == ["a", "b", "c"]
        back = np.array(rows, dtype=np.float64)
        assert np.array_equal(back.view(np.uint64), matrix.view(np.uint64))

    def test_empty_matrix_writes_header_alone(self, tmp_path):
        path = tmp_path / "e.csv"
        write_dataset((("x", "y"), np.empty((0, 2))), path)
        assert path.read_bytes() == b"x,y\n"

    @pytest.mark.parametrize("matrix,columns", [
        (np.ones(3), ("a", "b", "c")),
        (np.ones((2, 3, 1)), ("a", "b", "c")),
        (np.ones((2, 3)), ("a", "b")),
        (np.ones((2, 0)), ()),
    ])
    def test_misshapen_matrix_rejected(self, tmp_path, matrix, columns):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=re.escape(str(matrix.shape))):
            write_dataset((columns, matrix), path)
        assert not path.exists()

    @pytest.mark.parametrize("matrix", [
        np.ones((2, 2), dtype=np.int64), np.ones((2, 2), dtype=bool),
        np.ones((2, 2), dtype=object), np.ones((2, 2), dtype=complex)])
    def test_non_floating_matrix_rejected(self, tmp_path, matrix):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=str(matrix.dtype)):
            write_dataset((("a", "b"), matrix), path)
        assert not path.exists()

    @pytest.mark.parametrize("case", ["below-one", "from-one", "one-each"])
    def test_point_shift_paths(self, tmp_path, case):
        """Cells with |v| < 1, whose point is in "0.", and cells with
        |v| >= 1, whose point follows their E + 1 integer digits: a matrix
        of each kind alone, and one with a column of each."""
        rng = np.random.default_rng(16)
        sign = rng.choice([-1.0, 1.0], size=(400, 2))
        below = sign * 10.0 ** rng.uniform(-4.0, 0.0, size=(400, 2))
        below[:4, 0] = [0.5, np.nextafter(1.0, 0.0), 1e-4, 0.1]
        above = sign * 10.0 ** rng.uniform(0.0, 17.0, size=(400, 2))
        above[:4, 0] = [1.0, 9.5, 1e16, np.nextafter(1e17, 0.0)]
        assert (np.abs(below) < 1.0).all() and (np.abs(above) >= 1.0).all()
        matrix = {"below-one": below, "from-one": above,
                  "one-each": np.column_stack([below[:, 0], above[:, 0]])}[case]
        _check_matrix(matrix, tmp_path)

    @pytest.mark.parametrize("points,draws", [
        (2, 3), (21, 20), (201, 20), (57, 0)])
    def test_panel_bytes_match_oracle(self, tmp_path, points, draws):
        from heatbayes import ExperimentConfig, PanelSpec, PriorSpec, render_panel
        cfg = ExperimentConfig(prior=PriorSpec.exponential(1.0), n_grid=(1e4,),
                               seed=5, x_grid_points=points)
        panel = render_panel(cfg, PanelSpec(prior=cfg.prior, n=1e4,
                                            data_stream=1, draws=draws))
        checksum = write_dataset(panel, tmp_path / "p.csv")
        expected = dataset_bytes_reference(*panel.to_table())
        assert (tmp_path / "p.csv").read_bytes() == expected
        assert checksum == hashlib.sha256(expected).hexdigest()


class TestManifest:
    def test_records_outputs_and_digest(self, tmp_path):
        man = RunManifest(config={"n": 100.0, "prior": "exp"}, seed=9)
        csum = write_dataset((("a",), [(1.0,)]), tmp_path / "out.csv")
        man.record(tmp_path / "out.csv", csum)
        man.write(tmp_path / "manifest.json")
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["seed"] == 9
        assert payload["outputs"][0]["sha256"] == csum
        assert len(payload["config_digest"]) == 64
        assert payload["wall_clock_s"] >= 0
        assert payload["versions"] == {"python": platform.python_version(),
                                       "numpy": np.__version__,
                                       "heatbayes": heatbayes.__version__}


def _write(kind, path) -> str:
    """Write a small output of one kind to path; returns its checksum."""
    if kind == "dataset":
        return write_dataset((("a", "b"), [(1.5, "x"), (-2.0, "y")]), path)
    if kind == "plot":
        return render_static_plot(TestSvg._tie_panel(), path)
    return RunManifest(config={"n": 1e4}, seed=3).write(path)


@pytest.mark.parametrize("kind", ["dataset", "plot", "manifest"])
class TestInPlaceWrites:
    """Datasets, plots and manifests overwrite their file in place: no
    truncation first, a regular file trimmed to the new bytes, and a failed
    write leaving the prefix written."""

    def test_rewrite_over_longer_file(self, tmp_path, kind):
        path = tmp_path / "out"
        path.write_bytes(b"\0" * 100_000)
        inode = os.stat(path).st_ino
        checksum = _write(kind, path)
        raw = path.read_bytes()
        assert hashlib.sha256(raw).hexdigest() == checksum
        assert len(raw) < 100_000 and b"\0" not in raw
        assert os.stat(path).st_ino == inode
        if kind != "manifest":  # a manifest records its own wall clock
            assert _write(kind, tmp_path / "fresh") == checksum

    def test_checksum_of_a_new_file(self, tmp_path, kind):
        checksum = _write(kind, tmp_path / "new")
        raw = (tmp_path / "new").read_bytes()
        assert hashlib.sha256(raw).hexdigest() == checksum

    def test_device_is_written_as_it_is(self, kind):
        assert len(_write(kind, os.devnull)) == 64

    def test_unwritable_path_names_the_path(self, tmp_path, kind):
        path = tmp_path / "no_dir" / "out"
        with pytest.raises(OSError, match=re.escape(str(path))):
            _write(kind, path)

    def test_failed_write_leaves_its_prefix(self, tmp_path, kind, monkeypatch):
        path = tmp_path / "out"
        path.write_bytes(b"\0" * 100_000)
        handed = []
        write = os.write

        def fail_after_ten_bytes(fd, data):
            if handed:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            handed.append(bytes(data))
            return write(fd, data[:10])

        monkeypatch.setattr(os, "write", fail_after_ten_bytes)
        with pytest.raises(OSError, match=re.escape(str(path))):
            _write(kind, path)
        monkeypatch.undo()
        assert path.read_bytes() == handed[0][:10]


def test_single_write_path():
    """Only io._write_bytes opens a file for writing: no module of the
    package calls os.open, open with a mode that writes, or
    Path.write_text or write_bytes anywhere else."""
    import pathlib

    import heatbayes
    found = []
    for path in sorted(pathlib.Path(heatbayes.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), path.name)
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else \
                    getattr(f, "id", None)
                if name == "open":
                    # builtin open(file, mode), Path.open(mode); os.open
                    # always counts
                    args = node.args[1:] if isinstance(f, ast.Name) else \
                        node.args
                    modes = [k.value for k in node.keywords if k.arg == "mode"]
                    modes += args[:1]
                    writes = (isinstance(f, ast.Attribute)
                              and getattr(f.value, "id", None) == "os"
                              or any(not isinstance(m, ast.Constant)
                                     or set("wax+") & set(str(m.value))
                                     for m in modes))
                elif name in ("write_text", "write_bytes", "fdopen"):
                    writes = True
                else:
                    continue
                if writes:
                    found.append((path.name, getattr(top, "name", None)))
    assert found == [("io.py", "_write_bytes")]


class TestSvg:
    def _panel(self, draws=2, points=41):
        from heatbayes import ExperimentConfig, PanelSpec, PriorSpec, render_panel
        cfg = ExperimentConfig(prior=PriorSpec.exponential(1.0), n_grid=(1e4,),
                               seed=1, x_grid_points=points)
        return render_panel(cfg, PanelSpec(prior=cfg.prior, n=1e4,
                                           data_stream=0, draws=draws))

    def test_deterministic_bytes(self, tmp_path):
        from heatbayes.svg import render_static_plot
        panel = self._panel()
        c1 = render_static_plot(panel, tmp_path / "a.svg")
        c2 = render_static_plot(panel, tmp_path / "b.svg")
        assert c1 == c2
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_label_is_escaped(self, tmp_path):
        """A label with XML markup characters parses back as itself, and
        the file matches the oracle's bytes."""
        import dataclasses
        import xml.etree.ElementTree as ET
        label = "tau<1 & n>1e4"
        panel = dataclasses.replace(self._panel(), label=label)
        render_static_plot(panel, tmp_path / "p.svg")
        raw = (tmp_path / "p.svg").read_bytes()
        assert raw == svg_bytes_reference(panel)
        texts = [el.text for el in ET.fromstring(raw).iter()
                 if el.tag.endswith("text")]
        assert label in texts

    def test_legend_conventions_present(self, tmp_path):
        from heatbayes.svg import render_static_plot
        render_static_plot(self._panel(), tmp_path / "p.svg")
        body = (tmp_path / "p.svg").read_text()
        assert body.startswith("<?xml")
        assert "#000000" in body and "#cc2222" in body and "#117733" in body
        assert "stroke-dasharray" in body

    def test_no_dashes_without_draws(self, tmp_path):
        from heatbayes.svg import render_static_plot
        render_static_plot(self._panel(draws=0), tmp_path / "p.svg")
        assert "stroke-dasharray" not in (tmp_path / "p.svg").read_text()

    def test_empty_panel_rejected(self, tmp_path):
        from heatbayes.experiments import PanelData
        from heatbayes.svg import render_static_plot
        empty = PanelData(label="", x=np.array([]), truth=np.array([]),
                          post_mean=np.array([]), lower=np.array([]),
                          upper=np.array([]), draw_curves=np.zeros((0, 0)))
        with pytest.raises(ValueError):
            render_static_plot(empty, tmp_path / "e.svg")

    @pytest.mark.parametrize("series", ["x", "truth", "post_mean", "lower",
                                        "upper", "draw_curves"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_panel_rejected(self, tmp_path, series, bad):
        import dataclasses

        from heatbayes.svg import render_static_plot
        panel = self._panel()
        values = np.array(getattr(panel, series), dtype=float)
        values.flat[values.size // 2] = bad
        with pytest.raises(ValueError, match=series):
            render_static_plot(dataclasses.replace(panel, **{series: values}),
                               tmp_path / "n.svg")
        assert not (tmp_path / "n.svg").exists()

    @staticmethod
    def _tie_panel():
        """A panel whose pixel coordinates end in 5 at the third decimal
        (some exactly, as binary fractions, some only nearly)."""
        from heatbayes.experiments import PanelData
        from heatbayes.svg import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, \
            MARGIN_T, WIDTH
        w = WIDTH - MARGIN_L - MARGIN_R
        h = HEIGHT - MARGIN_T - MARGIN_B
        frac = np.array([0.125, 0.375, 0.625, 0.875, 0.005, 0.015, 0.245,
                         0.335, 0.995, 0.505])
        offsets = np.arange(frac.size) * 37.0 + frac
        x = np.concatenate([[0.0], offsets / w, [1.0]])
        # y spans [0, 1], so the frame pads it to [-0.05, 1.05]
        y = np.concatenate([[0.0], 1.05 - (offsets + 20.0) * 1.1 / h, [1.0]])
        return PanelData(label="ties", x=x, truth=y, post_mean=y[::-1].copy(),
                         lower=y * 0.5, upper=y, draw_curves=np.vstack([y, x]))

    @pytest.mark.parametrize("which", ["draws", "no-draws", "ties",
                                       "protocols-shape"])
    def test_bytes_match_per_point_oracle(self, tmp_path, which):
        from heatbayes.svg import render_static_plot
        panel = (self._tie_panel() if which == "ties"
                 else self._panel(draws=20, points=201)
                 if which == "protocols-shape"
                 else self._panel(draws=3 if which == "draws" else 0))
        checksum = render_static_plot(panel, tmp_path / "a.svg")
        expected = svg_bytes_reference(panel)
        assert (tmp_path / "a.svg").read_bytes() == expected
        assert checksum == hashlib.sha256(expected).hexdigest()

    @pytest.mark.parametrize("limit", [1.0, 10.0, 1000.0, 1e6],
                             ids=["below-1", "below-10", "below-1000",
                                  "below-1e6"])
    def test_points_kernel_matches_format(self, limit):
        """Every coordinate below limit px, so that the layout has as many
        digit rows as the largest cent count needs, and at least "0.00"'s."""
        from heatbayes.svg import _points
        rng = np.random.default_rng(5)
        k = np.arange(400_000, dtype=float)
        ties = np.concatenate([k / 200, rng.integers(0, 200 * limit, 50_000)
                               / 200])  # exact in binary or not
        values = np.concatenate([
            [0.0, 999999.99, 9.995, 99.995, 999.995, 9999.995, 99999.995,
             999999.995, 0.005, 0.995, 9.994999999999999, 1e6 - 1e-10,
             1.0, 0.01, 0.125, 1e5, 0.994, 9.99, 999.99],
            limit * 10.0 ** rng.uniform(-6.0, 0.0, 100_000) * 0.999999,
            ties, ties + 1e-12, np.abs(ties - 1e-12)])
        values = values[values < limit]
        xy = values[:values.size // 8 * 8].reshape(-1, 4, 2)
        expected = [" ".join(f"{format(a, '.2f')},{format(b, '.2f')}"
                             for a, b in row) for row in xy]
        assert _points(xy) == expected

    @pytest.mark.parametrize("bad", [-0.01, -0.0, 1e6, float("nan"),
                                     float("inf")])
    def test_points_kernel_rejects_outside_domain(self, bad):
        from heatbayes.svg import _points
        xy = np.array([[[1.0, 2.0], [bad, 3.0]]])
        with pytest.raises(ValueError, match="pixel coordinates"):
            _points(xy)

    @pytest.mark.parametrize("x", [[0.5], [0.3, 0.3, 0.3]])
    def test_zero_x_span_rejected(self, tmp_path, x):
        from heatbayes.experiments import PanelData
        from heatbayes.svg import render_static_plot
        x = np.array(x)
        panel = PanelData(label="", x=x, truth=x, post_mean=x, lower=x,
                          upper=x, draw_curves=np.zeros((0, x.size)))
        with pytest.raises(ValueError, match="x values"):
            render_static_plot(panel, tmp_path / "z.svg")
        assert not (tmp_path / "z.svg").exists()


class TestCli:
    def test_unknown_subcommand_fails_with_usage(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_fails(self):
        assert main([]) == EXIT_CONFIG

    def test_interval_x_outside_the_unit_interval_fails(self, capsys):
        assert main(["coverage", "--kind", "interval", "--x", "1.5",
                     "--reps", "10"]) == EXIT_CONFIG
        assert "grid points must lie in [0, 1]" in capsys.readouterr().err

    def test_simulate_writes_files(self, tmp_path):
        out = str(tmp_path / "obs.csv")
        code = main(["simulate", "--n", "1e4", "--seed", "3", "--out", out])
        assert code == EXIT_OK
        assert os.path.exists(out)
        assert os.path.exists(str(tmp_path / "obs.manifest.json"))
        cols, rows = read_dataset(out)
        assert cols == ["i", "kappa", "mu0", "y"]
        assert len(rows) == 100

    def test_simulate_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["simulate", "--n", "100", "--seed", "5", "--out", a])
        main(["simulate", "--n", "100", "--seed", "5", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_posterior_writes_summary_and_mean(self, tmp_path):
        out = str(tmp_path / "post.csv")
        code = main(["posterior", "--n", "1e4", "--prior", "exp", "--alpha",
                     "1", "--seed", "2", "--out", out])
        assert code == EXIT_OK
        cols, rows = read_dataset(out)
        assert cols == ["i", "y", "mean", "variance", "shrink_var"]
        fn_cols, fn_rows = read_dataset(str(tmp_path / "post_mean.csv"))
        assert fn_cols == ["x", "post_mean"]
        assert len(fn_rows) == 201

    def test_bands_dataset_schema(self, tmp_path):
        out = str(tmp_path / "bands.csv")
        code = main(["bands", "--n", "1e4", "--prior", "exp", "--alpha", "1",
                     "--seed", "7", "--out", out])
        assert code == EXIT_OK
        cols, rows = read_dataset(out)
        assert cols[:5] == ["x", "truth", "post_mean", "lower", "upper"]
        assert cols[5] == "draw_01" and cols[-1] == "draw_20"
        assert len(rows) == 201

    def test_coverage_runs_small(self, tmp_path, capsys):
        out = str(tmp_path / "cov.csv")
        code = main(["coverage", "--prior", "exp", "--alpha", "1", "--n",
                     "1e3", "--reps", "40", "--seed", "1", "--out", out])
        assert code == EXIT_OK
        assert "coverage" in capsys.readouterr().out
        cols, rows = read_dataset(out)
        assert "coverage" in cols and len(rows) == 1

    def test_risk_multi_n(self, capsys):
        code = main(["risk", "--prior", "exp", "--alpha", "1", "--n",
                     "1e2,1e4", "--reps", "30", "--seed", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "risk_exact" in out

    def test_lemmas_small_grid(self, tmp_path, capsys):
        out = str(tmp_path / "lemmas.csv")
        code = main(["lemmas", "--grid", "1e4,1e6", "--out", out])
        assert code == EXIT_OK
        assert "series-damped" in capsys.readouterr().out
        cols, rows = read_dataset(out)
        assert "ratio" in cols

    @pytest.mark.parametrize("grid", ["1", "1e4,1"])
    def test_lemmas_rejects_grid_at_one(self, tmp_path, grid):
        out = tmp_path / "lemmas.csv"
        assert main(["lemmas", "--grid", grid, "--out", str(out)]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "1e3", "seed": 4, "prior": "exp",
                                   "alpha": 1.0}))
        out = str(tmp_path / "o.csv")
        code = main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--out", out])
        assert code == EXIT_OK
        # flag wins over config: seed 9, not 4
        ref = str(tmp_path / "ref.csv")
        main(["simulate", "--n", "1e3", "--seed", "9", "--out", ref])
        assert open(out, "rb").read() == open(ref, "rb").read()

    def test_malformed_config_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{ not json")
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line" in err

    def test_unknown_config_field_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"nonsense_field": 1}))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("field,value", [("trunc", 0), ("grid", 1)])
    def test_config_value_below_its_least_names_the_flag(
            self, tmp_path, monkeypatch, capsys, field, value):
        """The option table declares --trunc >= 1 and --grid >= 2, so a
        config file's value below that is rejected with the flag's name."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        assert main(["posterior", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"--{field}: must be at least" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_bad_flag_value_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (
            ["coverage", "--prior", "exp", "--alpha", "-2", "--n", "1e3",
             "--reps", "5"],
            ["simulate", "--n", "0"],
            # zero flags must reach validation, not fall back to defaults
            ["coverage", "--kind", "interval", "--n", "1e3", "--reps", "5",
             "--trunc", "0"],
            ["simulate", "--trunc", "0"],
            ["posterior", "--grid", "0"],
            ["bands", "--grid", "0"],
            # figures validates before it creates the output directory
            ["figures", "--trunc", "0", "--out", "D"],
            ["figures", "--grid", "1", "--out", "D"],
            # risk_mc_se needs two replications
            ["coverage", "--n", "1e3", "--reps", "1"],
            ["risk", "--n", "1e3", "--reps", "1"],
            # flags a subcommand does not read are rejected, not ignored
            ["simulate", "--prior", "exp"],
            ["figures", "--n", "1e6", "--out", "D"],
            ["lemmas", "--seed", "3"],
            # non-finite values are rejected where they are read
            ["simulate", "--n", "inf"],
            ["posterior", "--n", "inf"],
            ["coverage", "--n", "inf", "--reps", "5"],
            ["risk", "--n", "1e4,inf", "--reps", "5"],
            ["lemmas", "--grid", "inf"],
            ["coverage", "--tau", "inf", "--reps", "5"],
            ["coverage", "--alpha", "inf", "--reps", "5"],
            ["coverage", "--mu0", "power", "--mu0-beta", "inf", "--reps", "5"],
        ):
            assert main(argv) == EXIT_CONFIG, argv
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag,value", [
        ("alpha", "nan"), ("tau", "-inf"), ("beta", "nan"), ("gamma", "nan"),
        ("mu0_beta", "inf"), ("x", "nan")])
    def test_non_finite_float_option_is_named(self, tmp_path, monkeypatch,
                                              capsys, flag, value):
        """Each float option must be finite, also where the command does not
        use it (risk's --beta without matched scaling), so that no manifest
        records NaN or Infinity; a flag and a config-file value alike exit 2
        naming the flag, before anything is written."""
        monkeypatch.chdir(tmp_path)
        command = "coverage" if flag == "x" else "risk"
        argv = [command, "--n", "1e4", "--reps", "5", "--out", "r.csv"]
        assert main(argv + [f"{_flag(flag)}={value}"]) == EXIT_CONFIG
        assert f"{_flag(flag)}: must be finite" in capsys.readouterr().err
        (tmp_path / "cfg.json").write_text(f'{{"{flag}": {float(value)}}}'
                                           .replace("inf", "Infinity")
                                           .replace("nan", "NaN"))
        assert main(argv + ["--config", "cfg.json"]) == EXIT_CONFIG
        assert f"{_flag(flag)}: must be finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_arithmetic_error_is_numeric_failure(self, tmp_path, monkeypatch,
                                                 capsys):
        """Any ArithmeticError of the library exits 3, not with a
        traceback."""
        from heatbayes import experiments

        def fail(*args):
            raise ArithmeticError("quadratic-form quantile did not converge")

        monkeypatch.setattr(experiments, "_ball_radius", fail)
        monkeypatch.chdir(tmp_path)
        assert main(["coverage", "--n", "1e4", "--reps", "5"]) == EXIT_NUMERIC
        assert "did not converge" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["--prior", "exp", "--alpha", "5", "--n", "1e50"],
        ["--alpha", "10", "--n", "1e200"]], ids=["exp5-1e50", "poly10-1e200"])
    def test_nearly_deterministic_honest_radius_returns(self, tmp_path, argv):
        """Honest radii of forms whose sd is below eps times their mean:
        a child process, so that a hang fails instead of stalling."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "heatbayes", "coverage", *argv,
             "--reps", "10"], cwd=tmp_path, env=env, capture_output=True,
            text=True, timeout=60)
        assert done.returncode == EXIT_OK, done.stderr

    def test_single_n_commands_reject_lists(self, tmp_path, monkeypatch,
                                            capsys):
        """simulate, posterior and bands take one n; a comma list exits 2
        and names --n instead of using its first value."""
        monkeypatch.chdir(tmp_path)
        for command in ("simulate", "posterior", "bands"):
            assert main([command, "--n", "1e4,1e6"]) == EXIT_CONFIG, command
            assert "--n" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_digest_records_parsed_values(self, tmp_path, capsys):
        """The same run from flags and from a config file, with numbers
        spelled differently, records one config digest."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1, "n": "10000"}))
        outs = [str(tmp_path / "flags.csv"), str(tmp_path / "file.csv")]
        assert main(["risk", "--alpha", "1", "--n", "1e4", "--reps", "5",
                     "--out", outs[0]]) == EXIT_OK
        assert main(["risk", "--config", str(cfg), "--reps", "5",
                     "--out", outs[1]]) == EXIT_OK
        assert open(outs[0], "rb").read() == open(outs[1], "rb").read()
        digests = [json.loads(open(out[:-4] + ".manifest.json").read())[
            "config_digest"] for out in outs]
        assert digests[0] == digests[1]
        capsys.readouterr()

    def test_exponential_prior_rejects_tau(self, tmp_path, capsys):
        """The exponential family has no scale: --tau other than 1 exits 2
        instead of running with tau = 1 under a manifest that says 3."""
        out = str(tmp_path / "risk.csv")
        argv = ["risk", "--prior", "exp", "--n", "1e4", "--reps", "10",
                "--out", out]
        assert main(argv + ["--tau", "3"]) == EXIT_CONFIG
        assert "tau" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys, seed):
        """Seeds are not reduced modulo 2^64, so -1 cannot alias 2^64 - 1."""
        out = str(tmp_path / "obs.csv")
        assert main(["simulate", "--seed", seed, "--out", out]) == EXIT_CONFIG
        assert seed in capsys.readouterr().err
        assert not os.path.exists(out)
        code = main(["simulate", "--seed", str(2**64 - 1), "--out", out])
        assert code == EXIT_OK

    def test_io_error_exit_code(self, tmp_path):
        target = str(tmp_path / "missing_dir" / "x.csv")
        assert main(["simulate", "--n", "1e3", "--out", target]) == EXIT_IO

    def test_figures_single_protocol(self, tmp_path, capsys):
        out = str(tmp_path / "figs")
        code = main(["figures", "--fig", "fig2", "--seed", "1",
                     "--grid", "41", "--out", out])
        assert code == EXIT_OK
        files = sorted(os.listdir(out))
        csvs = [f for f in files if f.endswith(".csv")]
        svgs = [f for f in files if f.endswith(".svg")]
        assert len(csvs) == 10 and len(svgs) == 10
        assert "manifest.json" in files
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        assert len(manifest["outputs"]) == 20


# subcommand -> the options it reads, besides --config
OPTIONS = {
    "simulate": {"n", "seed", "trunc", "out"},
    "posterior": {"n", "prior", "alpha", "tau", "scaling", "beta", "seed",
                  "trunc", "grid", "out"},
    "bands": {"n", "prior", "alpha", "tau", "scaling", "beta", "gamma",
              "seed", "trunc", "grid", "out"},
    "coverage": {"n", "prior", "alpha", "tau", "scaling", "beta", "gamma",
                 "reps", "seed", "trunc", "kind", "mu0", "mu0_beta", "x",
                 "out"},
    "risk": {"n", "prior", "alpha", "tau", "scaling", "beta", "gamma", "reps",
             "seed", "trunc", "mu0", "mu0_beta", "out"},
    "lemmas": {"grid", "out"},
    "figures": {"fig", "gamma", "seed", "grid", "trunc", "out"},
}

# a value each flag accepts, so that only the flag itself can be refused
VALUES = {"n": "1e3", "prior": "exp", "alpha": "2", "tau": "1",
          "scaling": "matched", "beta": "2", "gamma": "0.1", "reps": "5",
          "seed": "1", "trunc": "50", "grid": "11", "out": "o.csv",
          "kind": "interval", "mu0": "power", "mu0_beta": "2", "x": "0.3",
          "fig": "fig1"}


def _flag(name):
    return "--" + name.replace("_", "-")


class TestCommandOptions:
    def test_declarations_match(self):
        assert {name: {o.name for o in c.options}
                for name, c in COMMANDS.items()} == OPTIONS

    def test_unread_flags_are_rejected(self):
        parser = build_parser()
        rejected = []
        for command, names in OPTIONS.items():
            argv = [command]
            for name in sorted(names):
                argv += [_flag(name), VALUES[name]]
            parser.parse_args(argv)
            for name in sorted(set(VALUES) - names):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([command, _flag(name), VALUES[name]])
                assert exc.value.code == EXIT_CONFIG, (command, name)
                rejected.append(name)
        # 30 of them among the flags every subcommand used to accept
        common = {"n", "prior", "alpha", "tau", "scaling", "beta", "gamma",
                  "reps", "seed", "grid", "trunc", "out"}
        assert len(rejected) == 58
        assert len([name for name in rejected if name in common]) == 30

    def test_manifest_records_every_option(self, tmp_path, capsys):
        runs = {
            "simulate": (["--n", "1e3"], "s.csv", "s.manifest.json"),
            "posterior": (["--n", "1e3", "--grid", "11"], "p.csv",
                          "p.manifest.json"),
            "bands": (["--n", "1e3", "--grid", "11"], "b.csv",
                      "b.manifest.json"),
            "coverage": (["--n", "1e3", "--reps", "20"], "c.csv",
                         "c.manifest.json"),
            "risk": (["--n", "1e3", "--reps", "20"], "r.csv",
                     "r.manifest.json"),
            "lemmas": (["--grid", "1e4"], "l.csv", "l.manifest.json"),
            "figures": (["--fig", "fig2", "--grid", "5"], "figs",
                        os.path.join("figs", "manifest.json")),
        }
        assert set(runs) == set(OPTIONS)
        for command, (argv, out, manifest) in runs.items():
            code = main([command] + argv + ["--out", str(tmp_path / out)])
            assert code == EXIT_OK, command
            payload = json.loads((tmp_path / manifest).read_text())
            assert set(payload["config"]) == OPTIONS[command] - {"out"}
            # defaults are resolved; only --trunc defaults to "automatic"
            assert all(value is not None for key, value
                       in payload["config"].items() if key != "trunc")
            assert (payload["seed"] is None) == ("seed" not in OPTIONS[command])
        capsys.readouterr()

    def test_risk_digest_tracks_scaling_and_beta(self, tmp_path, capsys):
        digests = []
        for extra in (["--scaling", "matched", "--beta", "1.5"],
                      ["--beta", "2.5"]):
            out = str(tmp_path / f"r{len(digests)}.csv")
            assert main(["risk", "--prior", "poly", "--alpha", "1", "--n",
                         "1e4,1e6", "--reps", "30", "--out", out]
                        + extra) == EXIT_OK
            manifest = out[:-4] + ".manifest.json"
            digests.append(json.loads(open(manifest).read())["config_digest"])
        assert digests[0] != digests[1]
        capsys.readouterr()

    def test_wall_clock_covers_the_work(self, tmp_path, capsys):
        out = str(tmp_path / "cov.csv")
        start = time.perf_counter()
        assert main(["coverage", "--n", "1e4,1e6,1e8", "--trunc", "3826",
                     "--reps", "200", "--out", out]) == EXIT_OK
        elapsed = time.perf_counter() - start
        payload = json.loads((tmp_path / "cov.manifest.json").read_text())
        assert payload["wall_clock_s"] >= 0.5 * elapsed
        capsys.readouterr()

    def test_config_value_outside_choices_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": "gauss"}))
        assert main(["posterior", "--config", str(cfg)]) == EXIT_CONFIG
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("command,field,value", [
        ("risk", "reps", 20.9), ("risk", "seed", True),
        ("risk", "trunc", 150.7), ("posterior", "grid", 21.5),
        ("risk", "alpha", True)])
    def test_config_value_of_wrong_kind_is_named(self, tmp_path, monkeypatch,
                                                 capsys, command, field, value):
        """An integer option's fractional or boolean value, and a float
        option's boolean, exit 2 naming the option instead of truncating
        (20.9 replications ran as 20, true as seed 1)."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({field: value}))
        argv = [command, "--n", "1e4", "--config", "cfg.json", "--out", "o.csv"]
        if command == "risk" and field != "reps":
            argv += ["--reps", "5"]
        assert main(argv) == EXIT_CONFIG
        assert f"{_flag(field)}: must be" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("argv", [
        ["coverage", "--n", "1e2,1e4", "--reps", "20"],
        ["lemmas", "--grid", "1e4,1e6"]])
    def test_manifest_config_replays_as_a_config_file(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      argv):
        """A run's manifest records n and grid as JSON lists of numbers; its
        config object, written to a file and passed back through --config,
        runs the same job and writes the same bytes."""
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "a.csv"]) == EXIT_OK
        config = json.loads((tmp_path / "a.manifest.json").read_text())["config"]
        assert isinstance(config[argv[1][2:]], list)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main([argv[0], "--config", "cfg.json", "--out", "b.csv"]) == EXIT_OK
        digests = {hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("a.csv", "b.csv")}
        assert len(digests) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("value", [
        [1e4, True], [1e4, "x"], [1e4, None], [1e4, [1e6]], [],
        [1e4, -1.0], [1e4, math.inf], [1e4, math.nan]])
    def test_config_list_of_n_takes_only_positive_finite_numbers(
            self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"n": value}))
        assert main(["coverage", "--config", "cfg.json", "--reps", "5",
                     "--out", "o.csv"]) == EXIT_CONFIG
        assert "--n: " in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]


def test_readme_command_lines_parse():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "README.md")
    text = open(readme, encoding="utf-8").read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split() for line in block.splitlines()
             if line.startswith("heatbayes ")]
    assert {argv[1] for argv in lines} == set(COMMANDS)
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


class TestEnsureFinite:
    def test_rejects_hidden_nonfinite(self):
        from heatbayes.cli import NumericFailure, _ensure_finite
        with pytest.raises(NumericFailure):
            _ensure_finite(("a", "b"), [(1.0, float("inf"))])
        # allowed-missing columns pass
        _ensure_finite(("radius_freq",), [(float("nan"),)])

    def test_names_first_bad_column_and_value(self):
        from heatbayes.cli import NumericFailure, _ensure_finite
        columns = ("check", "radius_freq", "a", "b")
        rows = [("x", float("nan"), 1.0, np.float64(-np.inf)),
                ("y", 2.0, np.float64(np.nan), float("inf")),
                ("nan", 3.0, 4, 5)]
        with pytest.raises(NumericFailure,
                           match=r"column 'a': nan$"):
            _ensure_finite(columns, rows)
        # strings, including "nan" and "", are never read as numbers
        _ensure_finite(("s", "v"), [("nan", 1), ("", 2.5), ("inf", True)])
        with pytest.raises(NumericFailure, match=r"column 'v': inf"):
            _ensure_finite(("v",), [("", ), (1.0,), (float("inf"),)])
        _ensure_finite(("a",), [])

    def test_matrix_names_first_bad_column_and_value(self):
        from heatbayes.cli import NumericFailure, _ensure_finite
        columns = ("x", "radius_freq", "a", "b")
        matrix = np.array([[0.0, np.nan, 1.0, -np.inf],
                           [1.0, 2.0, np.nan, np.inf],
                           [2.0, 3.0, 4.0, 5.0]])
        with pytest.raises(NumericFailure, match=r"column 'a': nan$"):
            _ensure_finite(columns, matrix)
        with pytest.raises(NumericFailure, match=r"column 'b': -inf$"):
            _ensure_finite(columns, matrix[[0, 2]])
        # allowed-missing columns and empty matrices pass
        _ensure_finite(columns, matrix[[2]])
        _ensure_finite(("radius_freq",), np.array([[np.nan]]))
        _ensure_finite(("a",), np.empty((0, 1)))

    def test_emit_checks_panels_before_writing(self, tmp_path, monkeypatch):
        from heatbayes import cli
        from heatbayes.experiments import render_panel as real

        def broken(cfg, spec):
            panel = real(cfg, spec)
            panel.upper[3] = np.inf
            return panel

        monkeypatch.setattr(cli, "render_panel", broken)
        out = tmp_path / "b.csv"
        assert main(["bands", "--grid", "11", "--out", str(out)]) == \
            EXIT_NUMERIC
        assert os.listdir(tmp_path) == []


def test_figures_rerun_rewrites_the_same_files(tmp_path, capsys):
    """A second run into the same directory rewrites every file in place
    with the same bytes; the manifests differ only in wall_clock_s."""
    out = tmp_path / "figs"
    runs = []
    for _ in range(2):
        assert main(["figures", "--fig", "fig1", "--out", str(out)]) == EXIT_OK
        files = {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}
        inodes = {f: os.stat(out / f).st_ino for f in files}
        manifest = json.loads(files.pop("manifest.json"))
        assert manifest.pop("wall_clock_s") > 0
        runs.append((files, inodes, manifest))
    assert len(runs[0][0]) == len(runs[0][2]["outputs"]) > 0
    assert runs[0] == runs[1]


def test_figures_csv_match_oracle(tmp_path, capsys):
    """heatbayes figures writes each panel's CSV as the cell-by-cell
    reference formats it, and records the checksum of what it wrote."""
    from heatbayes import ExperimentConfig, render_panel
    from heatbayes.experiments import FIGURE_PROTOCOLS
    out = tmp_path / "figs"
    assert main(["figures", "--fig", "fig1", "--grid", "57",
                 "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    recorded = {os.path.basename(o["path"]): o["sha256"]
                for o in manifest["outputs"]}
    specs = FIGURE_PROTOCOLS["fig1"]()
    assert len(recorded) == 2 * len(specs)
    for spec in specs:
        cfg = ExperimentConfig(prior=spec.prior, n_grid=(spec.n,), gamma=0.05,
                               replications=1, seed=0, x_grid_points=57)
        panel = render_panel(cfg, spec)
        name = f"fig1_{panel.label}.csv"
        expected = dataset_bytes_reference(*panel.to_table())
        assert (out / name).read_bytes() == expected
        assert recorded[name] == hashlib.sha256(expected).hexdigest()


def _recorded(manifest_path) -> dict:
    """The checksums a manifest records, by file name."""
    manifest = json.loads(open(manifest_path).read())
    return {os.path.basename(o["path"]): o["sha256"]
            for o in manifest["outputs"]}


def _assert_written(path, columns, rows) -> None:
    """path holds the cell-by-cell reference bytes of (columns, rows), and
    its manifest records their checksum."""
    expected = dataset_bytes_reference(columns, rows)
    assert path.read_bytes() == expected
    manifest = str(path).replace("_mean.csv", ".csv")[:-4] + ".manifest.json"
    assert (_recorded(manifest)[path.name]
            == hashlib.sha256(expected).hexdigest())


@pytest.mark.parametrize("trunc", [None, 5000])
def test_simulate_csv_matches_oracle(tmp_path, capsys, trunc):
    """heatbayes simulate writes its rows, int index first, as the
    cell-by-cell reference formats them."""
    from heatbayes.sequence import (DEFAULT_TIME_HORIZON, default_truncation,
                                    heat_eigenvalues, simulate_observations,
                                    true_signal_coefficients)
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--out", str(out)]
    assert main(argv + (["--trunc", str(trunc)] if trunc else [])) == EXIT_OK
    nn = trunc or default_truncation(1e4)
    kappa = heat_eigenvalues(DEFAULT_TIME_HORIZON, nn)
    mu0 = true_signal_coefficients(nn)
    y = simulate_observations(mu0, kappa, 1e4, 0).y
    _assert_written(out, ("i", "kappa", "mu0", "y"),
                    [(i + 1, kappa.values[i], mu0.values[i], y.values[i])
                     for i in range(nn)])


def test_posterior_csv_matches_oracle(tmp_path, capsys):
    from heatbayes import PriorSpec, compute_posterior, posterior_mean_function
    from heatbayes.sequence import (DEFAULT_TIME_HORIZON, default_truncation,
                                    heat_eigenvalues, simulate_observations,
                                    true_signal_coefficients)
    out = tmp_path / "post.csv"
    assert main(["posterior", "--grid", "57", "--out", str(out)]) == EXIT_OK
    nn = default_truncation(1e4, 1.0)
    kappa = heat_eigenvalues(DEFAULT_TIME_HORIZON, nn)
    obs = simulate_observations(true_signal_coefficients(nn), kappa, 1e4, 0)
    post = compute_posterior(PriorSpec.polynomial(1.0), kappa, 1e4, obs)
    _assert_written(out, ("i", "y", "mean", "variance", "shrink_var"),
                    [(i + 1, obs.y.values[i], post.mean.values[i],
                      post.variance.values[i], post.shrink_var.values[i])
                     for i in range(nn)])
    x = np.linspace(0.0, 1.0, 57)
    _assert_written(tmp_path / "post_mean.csv", ("x", "post_mean"),
                    list(zip(x, posterior_mean_function(post, x))))


@pytest.mark.parametrize("argv", [
    ["coverage", "--n", "1e4,1e8", "--reps", "50"],
    ["coverage", "--n", "1e4,1e8", "--mu0", "prior", "--reps", "50"],
    ["coverage", "--kind", "interval", "--reps", "50"],
    ["risk", "--prior", "exp", "--n", "1e2,1e4,1e6", "--reps", "50"],
    ["lemmas"],
], ids=["ball-cubic", "ball-prior", "interval", "risk-exp", "lemmas"])
def test_report_csv_matches_oracle(tmp_path, monkeypatch, capsys, argv):
    """Each report CSV is its table's row form (NaN radius_freq of prior
    truths, the lemma suite's str labels and "" residuals included) as the
    cell-by-cell reference formats it."""
    from heatbayes import cli
    reports = []

    def keep(run):
        def kept(*args):
            reports.append(run(*args))
            return reports[-1]
        return kept

    for name in ("run_ball_coverage", "run_interval_coverage",
                 "run_risk_curve", "standard_lemma_suite"):
        monkeypatch.setattr(cli, name, keep(getattr(cli, name)))
    out = tmp_path / "report.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    (report,) = reports
    columns, rows = report.to_table()
    cells = [v for row in rows for v in row]
    if "prior" in argv:
        assert all(math.isnan(row[columns.index("radius_freq")])
                   for row in rows)
    if argv == ["lemmas"]:
        assert "" in cells and all(isinstance(row[0], str) for row in rows)
    _assert_written(out, columns, rows)


def test_exp_interval_doubling_stays_within_memory(tmp_path):
    """An exponential prior so flat that its tail, summed term by term,
    would run past MAX_HEAD terms stops doubling N and exits 2 with the
    admissibility error, within 2 GB of address space: a child process
    under that limit and a timeout."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "heatbayes", "coverage", "--kind", "interval",
         "--prior", "exp", "--alpha", "1e-300", "--reps", "10"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=limit)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert "last-decade mass" in done.stderr
