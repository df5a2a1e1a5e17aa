import csv
import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from sigdev import (
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
from sigdev import sdkernel
from sigdev.cli import main
from sigdev.mmd import KERNELS
from sigdev.sdkernel import exact_straight_line


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
    """Every grid route calls the solvers through the ``sdkernel`` module
    attributes, so wrapping those attributes sees every solve."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("solve_explicit", "solve_implicit"):
            def counted(*args, _name=name, _solver=getattr(sdkernel, name), **kwargs):
                counts[_name] += 1
                return _solver(*args, **kwargs)

            monkeypatch.setattr(sdkernel, name, counted)
        return counts

    def test_k_sd(self, calls):
        line = Path([0.0, 1.0], [[0.0], [0.5]])
        k_sd(line, line, "explicit", dyadic_order=1)
        k_sd(line, line, "implicit", dyadic_order=1)
        assert calls == {"solve_explicit": 1, "solve_implicit": 1}

    def test_gram(self, calls):
        sample = PathSample(tuple(Path([0.0, 1.0], [[0.0], [v]]) for v in (0.2, 0.3, 0.4)))
        gram(sample, None, "sd_explicit", KernelSpec(mesh=0.2))
        assert calls == {"solve_explicit": 6}

    def test_kernel_command(self, tmp_path, calls, capsys):
        a = write_line_csv(tmp_path, "l.csv", [0.5])
        assert main(["kernel", a, a, "--scheme", "implicit", "--lambda", "2"]) == 0
        assert calls == {"solve_implicit": 1}

    def test_converge_command(self, tmp_path, calls):
        a = write_line_csv(tmp_path, "l.csv", [0.5])
        out = str(tmp_path / "t.csv")
        for scheme in ("explicit", "sd_implicit"):
            argv = ["converge", a, "--scheme", scheme, "--lambda", "0..2", "--matrix-dim", "", "--out", out]
            assert main(argv) == 0
        assert calls == {"solve_explicit": 3, "solve_implicit": 3}


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


class TestEnvOverrides:
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

    def test_bad_env_value_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("SIGDEV_SEED", "not-a-number")
        assert main(["genfbm", "--points", "6"]) == 2


def test_import_leaves_scipy_linalg_unloaded():
    """scipy.linalg is imported by the right-point solver on first use, not
    by ``import sigdev``, so commands that never solve it skip its cost."""
    probe = "import sys, sigdev, sigdev.cli; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"
