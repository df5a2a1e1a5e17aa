import argparse
import csv
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from sigdev import (
    IncrementSequence,
    KernelSpec,
    Path,
    PathSample,
    gen_fbm,
    gram,
    k_sd,
    read_path_csv,
    write_path_csv,
    write_paths_jsonl,
)
from sigdev import backend, cli, sdkernel
from sigdev.cli import build_parser, main
from sigdev.mmd import KERNELS
from sigdev.paths import _refined_deltas
from sigdev.sdkernel import exact_straight_line, solve_explicit, solve_implicit


def write_line_csv(tmp_path, name, v, points=2):
    v = np.atleast_1d(np.asarray(v, dtype=float))
    t = np.linspace(0.0, 1.0, points)
    pts = np.outer(t, v)
    target = tmp_path / name
    write_path_csv(Path(t, pts), target)
    return str(target)


def write_const_csv(tmp_path, name, value=0.5):
    target = tmp_path / name
    write_path_csv(Path([0.0, 1.0], [[value], [value]]), target)
    return str(target)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestKernelCommand:
    def test_constant_pair_value_one(self, tmp_path, capsys):
        a = write_const_csv(tmp_path, "a.csv", 0.3)
        b = write_const_csv(tmp_path, "b.csv", -2.0)
        for scheme in ("series", "explicit", "implicit"):
            assert main(["kernel", a, b, "--scheme", scheme]) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[0] == "value,kernel,detail,tail_bound"
            assert float(out[1].split(",")[0]) == pytest.approx(1.0, abs=1e-9)

    def test_line_vs_itself_series(self, tmp_path, capsys):
        a = write_line_csv(tmp_path, "l.csv", [1.0])
        assert main(["kernel", a, a]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_line_vs_constant_explicit(self, tmp_path, capsys):
        a = write_line_csv(tmp_path, "l.csv", [1.0])
        b = write_const_csv(tmp_path, "c.csv", 0.0)
        assert main(["kernel", a, b, "--scheme", "explicit", "--lambda", "6"]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
        assert abs(value - exact_straight_line(1.0, 0.0, 1.0)) <= 5e-3

    def test_json_format_and_tail_bound(self, tmp_path, capsys):
        a = write_line_csv(tmp_path, "l.csv", [0.5])
        assert main(["kernel", a, a, "--format", "json", "--tol", "1e-8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "sd_series"
        assert payload["tail_bound"] < 1e-8
        assert payload["value"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("tol", [[], ["--tol", "0"]])
    def test_sig_truncated_dimension_mismatch_exits_2(self, tmp_path, capsys, tol):
        # the dimensions are compared before a level is sought for the tolerance
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_path_csv(gen_fbm(0.75, 16, 5, 7), a)
        write_path_csv(gen_fbm(0.75, 16, 2, 3), b)
        assert main(["kernel", str(a), str(b), "--scheme", "sig_truncated", *tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "paths must share dimension" in captured.err

    def test_sig_truncated_scheme(self, tmp_path, capsys):
        a = write_line_csv(tmp_path, "a.csv", [0.8, 0.6])
        b = write_line_csv(tmp_path, "b.csv", [0.5, 1.0])
        assert main(["kernel", a, b, "--scheme", "sig_truncated", "--level", "12"]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
        assert value == pytest.approx(2.2795853, abs=1e-6)

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["kernel", str(tmp_path / "nope.csv"), str(tmp_path / "nor.csv")]) == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        assert main(["kernel", "--bogus"]) == 2

    def test_resource_error_exits_3(self, tmp_path, capsys):
        a = write_line_csv(tmp_path, "big.csv", [4.0])
        assert main(["kernel", a, a, "--tol", "1e-10"]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    def test_grid_value_is_k_sd(self, tmp_path, capsys, scheme):
        a = write_line_csv(tmp_path, "a.csv", [0.8, 0.6], points=4)
        b = write_line_csv(tmp_path, "b.csv", [0.5, -1.0], points=3)
        assert main(["kernel", a, b, "--scheme", scheme, "--lambda", "3"]) == 0
        value = capsys.readouterr().out.splitlines()[1].split(",")[0]
        assert value == repr(k_sd(read_path_csv(a), read_path_csv(b), scheme, dyadic_order=3))

    @pytest.mark.parametrize("name", list(KERNELS))
    def test_value_is_the_routes_one_entry(self, tmp_path, capsys, name):
        a = write_line_csv(tmp_path, "a.csv", [0.4, 0.3], points=4)
        b = write_line_csv(tmp_path, "b.csv", [0.25, -0.5], points=3)
        flags = ["--lambda", "2", "--tol", "1e-8", "--level", "6"]
        assert main(["kernel", a, b, "--scheme", name, *flags]) == 0
        value = capsys.readouterr().out.splitlines()[1].split(",")[0]
        spec = KernelSpec(mesh=None, dyadic=2, tol=1e-8, level=6)
        evaluation = KERNELS[name].route((read_path_csv(a),), (read_path_csv(b),), spec)
        assert value == repr(float(evaluation.values[0, 0]))

    def test_readme_first_example(self, tmp_path, capsys):
        """The README's first two commands, genfbm then the series kernel."""
        path = str(tmp_path / "path.csv")
        argv = ["genfbm", "--hurst", "0.75", "--points", "16", "--dim", "2",
                "--seed", "7", "--scale", "0.25", "--out", path]
        assert main(argv) == 0
        assert main(["kernel", path, path]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[0])
        assert value == pytest.approx(1.0, abs=1e-6)


class TestConvergeCommand:
    @pytest.mark.parametrize("scheme", ["explicit", "implicit"])
    @pytest.mark.parametrize("points,dim", [(8, 1), (8, 2), (1, 2)])
    def test_scheme_rows_are_the_whole_grids(self, tmp_path, scheme, points, dim):
        path = Path(np.arange(points), gen_fbm(0.75, max(points, 2), dim, 5).points[:points] * 0.4)
        source, out = tmp_path / "p.csv", tmp_path / "t.csv"
        write_path_csv(path, source)
        argv = ["converge", str(source), "--scheme", scheme, "--lambda", "0..6", "--matrix-dim", "", "--out", str(out)]
        assert main(argv) == 0
        solver = solve_explicit if scheme == "explicit" else solve_implicit
        for lam, row in enumerate(read_rows(out)):
            whole = solver(IncrementSequence(_refined_deltas(path, dyadic_order=lam))).final
            assert row["param"] == str(lam) and row["value"] == repr(whole)

    def test_row_contract_and_decreasing_errors(self, tmp_path):
        a = write_line_csv(tmp_path, "l.csv", [1.0])
        out = tmp_path / "table.csv"
        args = [
            "converge", a, "--scheme", "explicit", "--lambda", "0..6",
            "--matrix-dim", "8,16", "--mc-samples", "6", "--seed", "4",
            "--out", str(out),
        ]
        assert main(args) == 0
        rows = read_rows(out)
        assert len(rows) == 7 + 2
        scheme_rows = [r for r in rows if r["kind"] == "scheme"]
        errors = [float(r["error"]) for r in scheme_rows]
        assert all(a > b for a, b in zip(errors[:-1], errors[1:]))
        assert all(r["stderr"] == "" for r in scheme_rows)
        mc_rows = [r for r in rows if r["kind"] == "montecarlo"]
        assert [r["param"] for r in mc_rows] == ["8", "16"]
        assert all(float(r["stderr"]) >= 0.0 for r in mc_rows)

    def test_reference_is_bessel_in_d1(self, tmp_path):
        a = write_line_csv(tmp_path, "l.csv", [1.0])
        out = tmp_path / "t.csv"
        assert main(["converge", a, "--lambda", "0", "--matrix-dim", "", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["reference"]) == pytest.approx(
            exact_straight_line(1.0, 0.0, 1.0), abs=1e-12
        )

    def test_generated_fbm_input(self, tmp_path):
        out = tmp_path / "t.csv"
        args = [
            "converge", "--fbm-dim", "2", "--fbm-points", "6", "--fbm-scale", "0.3",
            "--seed", "2", "--lambda", "0,1", "--matrix-dim", "", "--tol", "1e-6",
            "--out", str(out),
        ]
        assert main(args) == 0
        assert len(read_rows(out)) == 2

    @pytest.mark.parametrize("scheme", ["series", "sd_series", "sig_truncated"])
    def test_non_grid_scheme_exits_2(self, tmp_path, capsys, scheme):
        a = write_line_csv(tmp_path, "l.csv", [1.0])
        argv = ["converge", a, "--scheme", scheme, "--lambda", "0", "--matrix-dim", ""]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sd_explicit" in captured.err and "sd_implicit" in captured.err

    @pytest.mark.parametrize("size, grids", [(1e50, []), (1e200, ["--lambda", ""])])
    def test_overflowing_development_exits_3(self, tmp_path, capsys, size, grids):
        # at 1e50 the grids pass and the development's squarings overflow;
        # at 1e200 the grids fail first (exit 3 too), so they are left out
        a = write_line_csv(tmp_path, "big.csv", [size])
        assert main(["converge", a, "--matrix-dim", "4", "--mc-samples", "2"] + grids) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--lambda", "a..b"),
            ("--lambda", "6..0"),
            ("--lambda", "1,x"),
            ("--matrix-dim", "x"),
            ("--matrix-dim", "50..10"),
        ],
    )
    def test_bad_list_exits_2_with_one_error_line(self, tmp_path, capsys, flag, value):
        a = write_line_csv(tmp_path, "l.csv", [1.0])
        assert main(["converge", a, "--lambda", "0", "--matrix-dim", "", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [line for line in captured.err.splitlines() if "error:" in line]
        assert flag in line and repr(value) in line
        assert "Traceback" not in captured.err

    def test_empty_matrix_dim_turns_the_monte_carlo_rows_off(self, tmp_path):
        a = write_line_csv(tmp_path, "l.csv", [1.0])
        out = tmp_path / "t.csv"
        assert main(["converge", a, "--lambda", "1..2", "--matrix-dim", "", "--out", str(out)]) == 0
        assert [(r["kind"], r["param"]) for r in read_rows(out)] == [("scheme", "1"), ("scheme", "2")]

    def test_deterministic_bytes(self, tmp_path):
        a = write_line_csv(tmp_path, "l.csv", [1.0])
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            argv = [
                "converge", a, "--lambda", "0..2", "--matrix-dim", "8",
                "--mc-samples", "4", "--seed", "11", "--out", str(out),
            ]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestOverflowExits3:
    """Finite input whose Gram, grid, refinement or development overflows is
    a numeric failure: exit 3, one error line, and no numpy warning."""

    @pytest.fixture()
    def files(self, tmp_path):
        for size in (1e50, 1e100, 1e200):
            write_line_csv(tmp_path, f"line{size:g}.csv", [size])
            points = np.zeros((5, 1))
            points[1::2] = size
            write_paths_jsonl(["zigzag"], [Path(np.arange(5.0), points)], tmp_path / f"zigzag{size:g}.jsonl")
        return tmp_path

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "line1e+200.csv", "--matrix-dim", ""],
            ["converge", "line1e+50.csv", "--matrix-dim", "4", "--mc-samples", "2"],
            ["kernel", "line1e+200.csv", "line1e+200.csv", "--scheme", "explicit"],
            ["kernel", "line1e+50.csv", "line1e+50.csv", "--scheme", "explicit"],
            ["gram", "zigzag1e+200.jsonl", "--kernel", "sd_implicit"],
            ["mmd", "zigzag1e+100.jsonl", "zigzag1e+100.jsonl", "--kernel", "sd_explicit", "--mesh", "1e300"],
            ["mmd", "zigzag1e+200.jsonl", "zigzag1e+200.jsonl", "--kernel", "sd_explicit"],
        ],
    )
    def test_exits_3_without_warnings(self, files, capsys, argv):
        argv = [str(files / a) if a.endswith((".csv", ".jsonl")) else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestConvergeOverflowingDisplacement:
    """``converge`` refuses a path whose segment (exit 2) or displacement
    (exit 3) overflows before any route or its reference runs: one error
    line and no numpy warning."""

    @pytest.mark.parametrize("points,code", [([1e308, -1e308], 2), ([-1e308, 0.0, 1e308], 3)])
    @pytest.mark.parametrize("rest", [[], ["--lambda", "", "--matrix-dim", "4", "--mc-samples", "2"]])
    def test_refused_without_warnings(self, tmp_path, capsys, points, code, rest):
        wide = Path(np.arange(len(points), dtype=float), np.array(points)[:, None])
        write_path_csv(wide, tmp_path / "wide.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["converge", str(tmp_path / "wide.csv"), *rest]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestOverflowingSegmentExits2:
    """A segment between finite points whose difference overflows (±1e308)
    is bad input, as when the grid route formed the path gamma * <-sigma:
    exit 2, one error line, and no numpy warning."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gram", "wide.jsonl", "--kernel", "sd_explicit"],
            ["kernel", "wide.csv", "wide.csv", "--scheme", "explicit"],
        ],
    )
    def test_exits_2_without_warnings(self, tmp_path, capsys, argv):
        wide = Path([0.0, 1.0], [[1e308], [-1e308]])
        write_path_csv(wide, tmp_path / "wide.csv")
        write_paths_jsonl(["wide"], [wide], tmp_path / "wide.jsonl")
        argv = [str(tmp_path / a) if a.startswith("wide.") else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestGridBudgetExits3:
    """A grid kernel whose grid of gamma * <-sigma would have more than the
    cell budget is refused before its jumps, Grams or grids are formed:
    exit 3, one error line naming n and the budget, and no large
    allocation.  A path whose own grid is past the budget is refused as it
    is refined, with its own n."""

    PATH = gen_fbm(0.75, 16, 2, 7)  # the README's genfbm --points 16 --dim 2 --seed 7, 15 segments

    @pytest.mark.parametrize(
        "argv, n",
        [
            (["kernel", "a.csv", "a.csv", "--scheme", "explicit", "--lambda", "14"], 15 * 2**14),
            # a pair past the budget whose paths, 15 * 2^10 jumps each, are within it
            (["kernel", "a.csv", "a.csv", "--scheme", "implicit", "--lambda", "10"], 30 * 2**10),
            # refused before the series reference, which cannot reach the tolerance on this path
            (["converge", "a.csv", "--lambda", "0..14"], 15 * 2**14),
            # about 2.6e9 jumps at mesh 1e-9
            (["gram", "a.jsonl", "--kernel", "sd_explicit", "--mesh", "1e-9"], None),
        ],
    )
    def test_refused_with_one_error_line(self, tmp_path, capsys, argv, n):
        write_path_csv(self.PATH, tmp_path / "a.csv")
        write_paths_jsonl(["a"], [self.PATH], tmp_path / "a.jsonl")
        argv = [str(tmp_path / a) if a.endswith((".csv", ".jsonl")) else a for a in argv]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: a grid of n = ") and f"over the {backend._GRID_CELLS} cell budget" in line
        jumps = int(line.split("n = ")[1].split()[0])
        assert jumps == n if n is not None else jumps > 10**9
        assert peak < 2**24


class TestSampleCommands:
    @pytest.fixture()
    def jsonl_pair(self, tmp_path):
        paths = [gen_fbm(0.75, 5, 2, s) for s in (1, 2)]
        scaled_paths = [Path(p.times, p.points * 0.05) for p in paths]
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_paths_jsonl(["p0", "p1"], scaled_paths, a)
        write_paths_jsonl(["p0", "p1"], scaled_paths, b)
        return str(a), str(b)

    def test_mmd_identical_samples(self, jsonl_pair, capsys):
        a, b = jsonl_pair
        assert main(["mmd", a, b]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "mmd2,kernel,estimator"
        assert float(out[1].split(",")[0]) == pytest.approx(0.0, abs=1e-10)

    def test_mmd_json(self, jsonl_pair, capsys):
        a, b = jsonl_pair
        assert main(["mmd", a, b, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["estimator"] == "v"
        assert abs(payload["mmd2"]) <= 1e-10

    def test_gram_csv_layout(self, jsonl_pair, capsys):
        a, _ = jsonl_pair
        assert main(["gram", a]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i,j,value"
        cells = [ln.split(",") for ln in lines[1:]]
        assert len(cells) == 4
        assert cells[0][:2] == ["p0", "p0"]
        diag = [float(c[2]) for c in cells if c[0] == c[1]]
        assert np.allclose(diag, 1.0, atol=1e-6)

    def test_gram_json(self, jsonl_pair, capsys):
        a, b = jsonl_pair
        assert main(["gram", a, b, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["row_ids"] == ["p0", "p1"]
        assert np.asarray(payload["values"]).shape == (2, 2)


SHORT_NAMES = {"explicit": "sd_explicit", "implicit": "sd_implicit", "series": "sd_series"}


class TestKernelNames:
    """Every command takes each kernel by its full name and, for the
    Schwinger-Dyson kernels, by its short name, with the same output."""

    @pytest.fixture()
    def files(self, tmp_path):
        paths = [Path(p.times, p.points * 0.1) for p in (gen_fbm(0.75, 4, 2, s) for s in (1, 2))]
        sample = tmp_path / "s.jsonl"
        write_paths_jsonl(["p0", "p1"], paths, sample)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_path_csv(paths[0], a)
        write_path_csv(paths[1], b)
        return {"kernel": [str(a), str(b), "--scheme"], "gram": [str(sample), "--kernel"],
                "mmd": [str(sample), str(sample), "--kernel"]}

    @pytest.mark.parametrize("command", ["kernel", "gram", "mmd"])
    def test_full_and_short_names(self, files, capsys, command):
        outputs = {}
        for name in [*KERNELS, *SHORT_NAMES]:
            assert main([command, *files[command], name]) == 0, name
            outputs[name] = capsys.readouterr().out
        for short, full in SHORT_NAMES.items():
            assert outputs[short] == outputs[full]
        assert len({outputs[name] for name in KERNELS}) == len(KERNELS)

    def test_readme_table_lists_every_kernel(self):
        """README's kernel table names exactly the kernels of ``KERNELS``,
        each with its short name (an sd_ name without its prefix)."""
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        table = readme.read_text(encoding="utf-8").split("| Name | Short name |", 1)[1].split("\n\n", 1)[0]
        rows = [[cell.strip().strip("`") for cell in line.split("|")[1:3]] for line in table.splitlines()[2:]]
        assert rows == [[name, name.removeprefix("sd_") if name.startswith("sd_") else ""] for name in KERNELS]

    @pytest.mark.parametrize("command", ["kernel", "converge", "gram", "mmd"])
    def test_unknown_name_exits_2(self, files, capsys, command):
        if command == "converge":
            argv = ["converge", files["kernel"][0], "--scheme", "rbf", "--matrix-dim", ""]
        else:
            argv = [command, *files[command], "rbf"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "rbf" in captured.err


class TestSolversReachedThroughModule:
    """No command solves a whole grid through ``sdkernel.solve_*``.  A pair
    of paths (``k_sd``, ``kernel``) and a Gram solve their own grids in
    batches through ``backend._grids`` and their pairs' rectangles in
    batches through ``backend._cross``.  ``converge`` runs the grid route
    against a one-point path: one own grid per order, and no rectangle."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("solve_explicit", "solve_implicit"):
            def counted(*args, _name=name, _solver=getattr(sdkernel, name), **kwargs):
                counts[_name] += 1
                return _solver(*args, **kwargs)

            monkeypatch.setattr(sdkernel, name, counted)
        return counts

    @pytest.fixture()
    def batches(self, monkeypatch):
        """("own" or "cross", slots) of each own-grid and rectangle batch."""
        recorded = []

        def own(grams, sizes, implicit, grids, _grids=backend._grids):
            recorded.append(("own", len(sizes)))
            return _grids(grams, sizes, implicit, grids)

        def cross(stacks, sizes, implicit, _cross=backend._cross):
            recorded.append(("cross", len(sizes)))
            return _cross(stacks, sizes, implicit)

        monkeypatch.setattr(backend, "_grids", own)
        monkeypatch.setattr(backend, "_cross", cross)
        return recorded

    def test_k_sd(self, calls, batches):
        line = Path([0.0, 1.0], [[0.0], [0.5]])
        k_sd(line, line, "explicit", dyadic_order=1)
        k_sd(line, line, "implicit", dyadic_order=1)
        # each pair: gamma's own grid, <-sigma's own grid, one rectangle
        assert batches == [("own", 1), ("own", 1), ("cross", 1)] * 2
        assert calls == {}

    def test_gram_solves_its_pairs_in_one_batch(self, calls, batches):
        sample = PathSample(tuple(Path([0.0, 1.0], [[0.0], [v]]) for v in (0.2, 0.3, 0.4)))
        gram(sample, None, "sd_explicit", KernelSpec(mesh=0.2))
        # one batch of own grids per side, then one batch of rectangles per m
        # (the paths have 1, 2 and 2 jumps)
        assert batches == [("own", 3), ("own", 3), ("cross", 3), ("cross", 3)]
        assert calls == {}

    def test_kernel_command(self, tmp_path, calls, batches, capsys):
        a = write_line_csv(tmp_path, "l.csv", [0.5])
        assert main(["kernel", a, a, "--scheme", "implicit", "--lambda", "2"]) == 0
        assert batches == [("own", 1), ("own", 1), ("cross", 1)]
        assert calls == {}

    def test_converge_command(self, tmp_path, calls, batches):
        a = write_line_csv(tmp_path, "l.csv", [0.5])
        out = str(tmp_path / "t.csv")
        for scheme in ("explicit", "sd_implicit"):
            argv = ["converge", a, "--scheme", scheme, "--lambda", "0..2", "--matrix-dim", "", "--out", out]
            assert main(argv) == 0
        # per order: the path's own grid and the one-point path's, no rectangle
        assert batches == [("own", 1), ("own", 1)] * 6
        assert calls == {}


class TestGenFbm:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "f.csv"
        argv = ["genfbm", "--hurst", "0.75", "--points", "16", "--dim", "2",
                "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2"
        assert len(lines) == 17
        parsed = read_path_csv(out)
        assert parsed.dim == 2 and len(parsed.times) == 16

    def test_roundtrip_matches_library(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["genfbm", "--points", "9", "--dim", "1", "--seed", "3",
                     "--out", str(out)]) == 0
        assert np.array_equal(read_path_csv(out).points, gen_fbm(0.75, 9, 1, 3).points)

    def test_seed_changes_output(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"f{seed}.csv"
            assert main(["genfbm", "--seed", seed, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]


# Every flag that takes a value, by command: its documented variable, a
# value unlike the default, and the rest of the command line.  "{a}", "{b}"
# (CSV paths), "{s}", "{b_s}" (JSONL samples) and "{out}" (an output file)
# are filled in per test.
_KERNEL_ARGS = ["{a}", "{b}"]
_CONVERGE_ARGS = ["--fbm-points", "4", "--fbm-dim", "2", "--fbm-scale", "0.25", "--lambda", "0",
                  "--matrix-dim", "4", "--mc-samples", "3"]
ENV_FLAGS = [
    ("kernel", "--scheme", "SIGDEV_SCHEME", "sig_truncated", _KERNEL_ARGS),
    ("kernel", "--lambda", "SIGDEV_LAMBDA", "2", _KERNEL_ARGS + ["--scheme", "explicit"]),
    ("kernel", "--tol", "SIGDEV_TOL", "1e-3", _KERNEL_ARGS),
    ("kernel", "--level", "SIGDEV_LEVEL", "6", _KERNEL_ARGS + ["--scheme", "sig_truncated"]),
    ("kernel", "--format", "SIGDEV_FORMAT", "json", _KERNEL_ARGS),
    ("kernel", "--out", "SIGDEV_OUT", "{out}", _KERNEL_ARGS),
    ("converge", "--fbm-hurst", "SIGDEV_FBM_HURST", "0.6", _CONVERGE_ARGS),
    ("converge", "--fbm-points", "SIGDEV_FBM_POINTS", "5", _CONVERGE_ARGS),
    ("converge", "--fbm-dim", "SIGDEV_FBM_DIM", "3", _CONVERGE_ARGS),
    ("converge", "--fbm-scale", "SIGDEV_FBM_SCALE", "0.2", _CONVERGE_ARGS),
    ("converge", "--scheme", "SIGDEV_SCHEME", "explicit", _CONVERGE_ARGS),
    ("converge", "--lambda", "SIGDEV_LAMBDA", "0..1", _CONVERGE_ARGS),
    ("converge", "--matrix-dim", "SIGDEV_MATRIX_DIM", "5", _CONVERGE_ARGS),
    ("converge", "--mc-samples", "SIGDEV_MC_SAMPLES", "4", _CONVERGE_ARGS),
    ("converge", "--seed", "SIGDEV_SEED", "1", _CONVERGE_ARGS),
    ("converge", "--tol", "SIGDEV_TOL", "1e-2", _CONVERGE_ARGS),
    ("converge", "--format", "SIGDEV_FORMAT", "json", _CONVERGE_ARGS),
    ("converge", "--out", "SIGDEV_OUT", "{out}", _CONVERGE_ARGS),
    ("genfbm", "--hurst", "SIGDEV_HURST", "0.6", ["--points", "4"]),
    ("genfbm", "--points", "SIGDEV_POINTS", "5", ["--points", "4"]),
    ("genfbm", "--dim", "SIGDEV_DIM", "2", ["--points", "4"]),
    ("genfbm", "--seed", "SIGDEV_SEED", "1", ["--points", "4"]),
    ("genfbm", "--scale", "SIGDEV_SCALE", "0.5", ["--points", "4"]),
    ("genfbm", "--out", "SIGDEV_OUT", "{out}", ["--points", "4"]),
] + [
    row
    for command, samples in (("gram", ["{s}"]), ("mmd", ["{s}", "{b_s}"]))
    for row in (
        (command, "--kernel", "SIGDEV_KERNEL", "sig_truncated", samples),
        (command, "--mesh", "SIGDEV_MESH", "0.1", samples + ["--kernel", "sd_explicit"]),
        (command, "--tol", "SIGDEV_TOL", "1e-2", samples),
        (command, "--level", "SIGDEV_LEVEL", "3", samples + ["--kernel", "sig_truncated"]),
        (command, "--format", "SIGDEV_FORMAT", "json", samples),
        (command, "--out", "SIGDEV_OUT", "{out}", samples),
    )
]


def _value_flags(command):
    """Option strings of the flags of ``command`` that take a value."""
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[command]._actions
    return {a.option_strings[-1] for a in actions if a.option_strings and a.nargs != 0}


class TestEnvOverrides:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        for key in [k for k in os.environ if k.startswith("SIGDEV_")]:
            monkeypatch.delenv(key)

    @pytest.fixture()
    def files(self, tmp_path):
        paths = [Path(p.times, p.points * 0.1) for p in (gen_fbm(0.75, 4, 2, s) for s in (1, 2))]
        names = {key: str(tmp_path / name) for key, name in
                 (("a", "a.csv"), ("b", "b.csv"), ("s", "s.jsonl"), ("b_s", "b.jsonl"), ("out", "out.txt"))}
        write_path_csv(paths[0], names["a"])
        write_path_csv(paths[1], names["b"])
        write_paths_jsonl(["p0", "p1"], paths, names["s"])
        write_paths_jsonl(["q0"], [paths[0]], names["b_s"])
        return names

    def _run(self, argv, files, capsys):
        code = main([arg.format(**files) for arg in argv])
        assert code == 0, capsys.readouterr().err
        out_file = pathlib.Path(files["out"])
        written = out_file.read_text() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        return capsys.readouterr().out, written

    def test_table_covers_every_value_flag(self):
        for command in ("kernel", "converge", "gram", "mmd", "genfbm", "selftest"):
            assert _value_flags(command) == {flag for c, flag, *_ in ENV_FLAGS if c == command}

    @pytest.mark.parametrize(
        "command,flag,key,value,rest", ENV_FLAGS, ids=[f"{row[0]}{row[1]}" for row in ENV_FLAGS]
    )
    def test_variable_acts_as_its_flag(self, files, capsys, monkeypatch, command, flag, key, value, rest):
        if flag in rest:  # the shared command line may set the flag under test
            at = rest.index(flag)
            rest = rest[:at] + rest[at + 2:]
        default = self._run([command, *rest], files, capsys)
        given = self._run([command, *rest, flag, value], files, capsys)
        monkeypatch.setenv(key, value.format(**files))
        assert self._run([command, *rest], files, capsys) == given != default

    def test_converge_reads_its_own_lambda_syntax(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGDEV_LAMBDA", "0..2")
        a = write_line_csv(tmp_path, "l.csv", [1.0])
        out = tmp_path / "t.csv"
        assert main(["converge", a, "--matrix-dim", "", "--out", str(out)]) == 0
        assert [(r["kind"], r["param"]) for r in read_rows(out)] == [("scheme", str(lam)) for lam in range(3)]

    @pytest.mark.parametrize("value", ["a..b", "6..0"])
    def test_bad_lambda_variable_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("SIGDEV_LAMBDA", value)
        a = write_line_csv(tmp_path, "l.csv", [1.0])
        assert main(["converge", a, "--matrix-dim", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [line for line in captured.err.splitlines() if "error:" in line]
        assert "SIGDEV_LAMBDA" in line and repr(value) in line

    def test_other_commands_ignore_a_variable_they_lack(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGDEV_LAMBDA", "0..2")
        assert main(["genfbm", "--points", "4", "--out", str(tmp_path / "f.csv")]) == 0

    @pytest.mark.parametrize("command", ["kernel", "converge", "gram", "mmd"])
    def test_bad_choice_names_the_variable(self, files, capsys, monkeypatch, command):
        monkeypatch.setenv("SIGDEV_FORMAT", "xml")
        rest = {"kernel": _KERNEL_ARGS, "converge": _CONVERGE_ARGS, "gram": ["{s}"], "mmd": ["{s}", "{s}"]}
        assert main([command, *(arg.format(**files) for arg in rest[command])]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "SIGDEV_FORMAT" in captured.err

    def test_empty_variable_is_unset(self, files, capsys, monkeypatch):
        default = self._run(["kernel", *_KERNEL_ARGS], files, capsys)
        for key in ("SIGDEV_FORMAT", "SIGDEV_SCHEME", "SIGDEV_TOL", "SIGDEV_OUT"):
            monkeypatch.setenv(key, "")
        assert self._run(["kernel", *_KERNEL_ARGS], files, capsys) == default

    def test_env_seed_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGDEV_SEED", "5")
        out1 = tmp_path / "a.csv"
        assert main(["genfbm", "--points", "6", "--out", str(out1)]) == 0
        monkeypatch.delenv("SIGDEV_SEED")
        out2 = tmp_path / "b.csv"
        assert main(["genfbm", "--points", "6", "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGDEV_SEED", "5")
        out1 = tmp_path / "a.csv"
        assert main(["genfbm", "--points", "6", "--seed", "9", "--out", str(out1)]) == 0
        monkeypatch.delenv("SIGDEV_SEED")
        out2 = tmp_path / "b.csv"
        assert main(["genfbm", "--points", "6", "--seed", "9", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_one_parser_sees_each_variable_change(self, tmp_path, monkeypatch):
        built = []

        def counted(_build=cli.build_parser):
            built.append(1)
            return _build()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted)

        def genfbm(*flags):
            out = tmp_path / "f.csv"
            assert main(["genfbm", "--points", "6", *flags, "--out", str(out)]) == 0
            return out.read_bytes()

        try:
            monkeypatch.setenv("SIGDEV_SEED", "5")
            env5 = genfbm()
            monkeypatch.setenv("SIGDEV_SEED", "7")
            env7 = genfbm()
            flag5 = genfbm("--seed", "5")
            monkeypatch.delenv("SIGDEV_SEED")
            assert env7 == genfbm("--seed", "7") != env5 == flag5
            assert built == [1]
        finally:
            cli._parser.cache_clear()

    def test_bad_env_value_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("SIGDEV_SEED", "not-a-number")
        assert main(["genfbm", "--points", "6"]) == 2


def test_selftest_command_passes(capsys):
    assert main(["selftest"]) == 0


def test_import_leaves_scipy_linalg_unloaded():
    """``import sigdev`` does not load scipy.linalg, whose import costs time
    and memory that no command needs."""
    probe = "import sys, sigdev, sigdev.cli; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_grid_routes_leave_scipy_linalg_unloaded(tmp_path):
    """Both grid schemes, in the library and in ``converge``, run on numpy alone."""
    line_csv = tmp_path / "line.csv"
    line_csv.write_text("t,x0,x1\n0,0,0\n0.5,0.2,-0.1\n1,0.3,0.1\n")
    probe = (
        "import sys, numpy as np, sigdev\n"
        "from sigdev.cli import main\n"
        "p = sigdev.Path([0.0, 0.5, 1.0], np.array([[0.0, 0.0], [0.2, -0.1], [0.3, 0.1]]))\n"
        "for scheme in ('explicit', 'implicit'):\n"
        "    sigdev.k_sd(p, p, scheme, mesh=0.05)\n"
        f"assert main(['converge', {str(line_csv)!r}, '--scheme', 'implicit', '--lambda', '0..2',"
        " '--matrix-dim', '']) == 0\n"
        "print('scipy.linalg' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stderr.strip().splitlines()[-1] == "False"


def test_converge_prints_the_same_bytes_on_sample_threads():
    """``converge`` at the thread crossover N: with BLAS pinned to one
    thread its samples run on threads (given two usable CPUs), unpinned
    they run in turn, and stdout is the same bytes."""
    from sigdev.randomdev import _THREADED_MIN_N

    argv = [
        sys.executable, "-m", "sigdev", "converge", "--fbm-dim", "2", "--fbm-points", "5",
        "--lambda", "0", "--matrix-dim", str(_THREADED_MIN_N), "--mc-samples", "4",
    ]
    unpinned = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") and not k.startswith("SIGDEV_")
    }
    outputs = [
        subprocess.run(argv, env=env, capture_output=True, check=True).stdout
        for env in (unpinned | {"OPENBLAS_NUM_THREADS": "1"}, unpinned)
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\nmontecarlo,") == 1
