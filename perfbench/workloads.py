"""The three workloads: their inputs, their ops and how each op is checked.

A workload is a fixed list of ops (one round), made from a seed into a
work directory.  Each op is one user call:
``sigdev.cli.main([...])`` on generated files, or one library call where
the command line has no surface.  An op's output is bytes (the file the
command wrote, or the repr of the library result), so outputs can be
compared byte for byte between rounds and between traced and untraced
rounds.  After timing, every distinct output is checked against a
reference from :mod:`reference`, an independent route, with a tolerance
taken from the route's certified bound or known order.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import inputs
import reference

# Grid schemes converge at first order in the largest per-interval
# 1-variation h: |K_grid - K| <= C_GRID * h.  The largest ratio seen on
# this input class (|y|_1 <= 1.3, both schemes, h from 0.005 to 0.1) is
# 0.58; the constant keeps a margin of more than three.
C_GRID = 2.0
# Monte-Carlo estimates: within Z_MC reported standard errors plus the
# O(1/N^2) finite-N bias B_MC / N^2.  |bias| N^2 measured at N = 10, 20, 50
# with thousands of samples stays below 0.1 for both ensembles.
Z_MC = 10.0
B_MC = 1.0
# Room for rounding in values of order one.
ROUND = 1e-12

SERIES_TOL = 1e-6      # --tol of the sd_series ops
SIG_LEVEL = 8          # --level of the sig_truncated ops
MESH = 0.02            # --mesh of the grid ops
CONVERGE_TOL = 1e-8    # the converge command's own series tolerance
LAMBDAS = "0..6"
MATRIX_DIMS = "10,50,200"
MC_SAMPLES = 8
GINIBRE_N = 50
GINIBRE_M = 32

GRAM_PATHS = 8
MMD_PATHS = 8


class OpFailed(Exception):
    """An op exited with a nonzero status."""


@dataclass
class Check:
    """Verdict of one output: every value within tolerance, and the largest
    |output - reference| seen."""

    ok: bool = True
    max_err: float = 0.0
    notes: list = field(default_factory=list)

    def value(self, label: str, out: float, ref: float, tol: float) -> None:
        err = abs(out - ref)
        if not math.isfinite(err):
            err = math.inf
        self.max_err = max(self.max_err, err)
        if not err <= tol:
            self.ok = False
            self.notes.append(f"{label}: |{out!r} - {ref!r}| = {err:.3e} > {tol:.3e}")

    def fail(self, note: str) -> None:
        self.ok = False
        self.notes.append(note)


@dataclass
class Op:
    label: str
    execute: Callable[[], object]          # timed: the user call itself
    output: Callable[[object], bytes]      # untimed: the bytes it produced
    check: Callable[[bytes], Check]        # after timing: against references
    signed_paths: int = 0                  # distinct paths a signature route needs


def _cli_op(label: str, argv: list, out_file: str, check, signed_paths: int = 0) -> Op:
    def execute():
        from sigdev import cli

        return cli.main(argv + ["--out", out_file])

    def output(status) -> bytes:
        if status != 0:
            raise OpFailed(f"{label}: exit status {status}")
        with open(out_file, "rb") as fh:
            return fh.read()

    return Op(label, execute, output, check, signed_paths)


def _csv_rows(data: bytes, header: str) -> list[list[str]]:
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [ln.split(",") for ln in lines[1:]]


# References are computed once, on first use after the timed phase.

@functools.cache
def _phi(dim: int) -> list:
    return reference.moment_tables(dim, reference.REF_LEVEL)


def _checked(check_fn):
    """Run a check; a malformed output fails it instead of raising."""

    def run(data: bytes) -> Check:
        result = Check()
        try:
            check_fn(data, result)
        except (ValueError, KeyError, IndexError) as exc:
            result.fail(f"unreadable output: {exc}")
        return result

    return run


# ---------------------------------------------------------------------------
# gram-signature

def gram_signature(seed: int, workdir: str) -> list[Op]:
    """`gram` with the default series kernel and the signature kernel on one
    sample of fBm paths.  Stresses signature, freeprob, sdkernel.series and
    cli; never reaches backend or randomdev."""
    paths = [inputs.fbm(0.75, seed, k) for k in range(GRAM_PATHS)]
    sample = os.path.join(workdir, "sample.jsonl")
    inputs.write_jsonl(sample, paths)

    @functools.cache
    def table():
        return reference.SignatureTable(paths)

    def gram_check(kind: str):
        def check(data: bytes, result: Check) -> None:
            sig = table()
            if kind == "sd_series":
                values, tails = reference.sd_gram(sig, sig, _phi(inputs.DIM))
                allowed = SERIES_TOL + tails
            else:
                values, tails = reference.sig_gram(sig, sig)
                products = sig.variation[:, None] * sig.variation[None, :]
                allowed = tails + np.vectorize(lambda v: reference.sig_kernel_tail(v, SIG_LEVEL))(products)
            seen = np.zeros(values.shape, dtype=bool)
            for i, j, value in _csv_rows(data, "i,j,value"):
                a, b = int(i[1:]), int(j[1:])
                seen[a, b] = True
                result.value(f"{kind}[{a},{b}]", float(value), values[a, b], allowed[a, b] + ROUND)
            if not seen.all():
                result.fail(f"{kind}: {int((~seen).sum())} Gram entries missing")

        return _checked(check)

    n = GRAM_PATHS
    ops = [
        _cli_op("gram sig_truncated", ["gram", sample, "--kernel", "sig_truncated", "--level", str(SIG_LEVEL)],
                os.path.join(workdir, "gram_sig.csv"), gram_check("sig_truncated"), n),
        _cli_op("gram sd_series", ["gram", sample, "--kernel", "sd_series", "--tol", repr(SERIES_TOL)],
                os.path.join(workdir, "gram_sd.csv"), gram_check("sd_series"), n),
    ]
    return ops


# ---------------------------------------------------------------------------
# mmd-grid

def mmd_grid(seed: int, workdir: str) -> list[Op]:
    """`mmd` between an H=0.75 and an H=0.5 sample with the two grid schemes
    at --mesh 0.02: many small grids (n of about 80), one refine per pair.
    Stresses backend, sdkernel.grid, paths and mmd; bypasses signature,
    freeprob and randomdev."""
    persistent = [inputs.fbm(0.75, seed, k) for k in range(MMD_PATHS)]
    brownian = [inputs.fbm(0.5, seed, 100 + k) for k in range(MMD_PATHS)]
    file_a = os.path.join(workdir, "a.jsonl")
    file_b = os.path.join(workdir, "b.jsonl")
    inputs.write_jsonl(file_a, persistent)
    inputs.write_jsonl(file_b, brownian)

    @functools.cache
    def mmd_ref():
        ta, tb, phi = reference.SignatureTable(persistent), reference.SignatureTable(brownian), _phi(inputs.DIM)
        k_aa, t_aa = reference.sd_gram(ta, ta, phi)
        k_bb, t_bb = reference.sd_gram(tb, tb, phi)
        k_ab, t_ab = reference.sd_gram(ta, tb, phi)
        value = k_aa.mean() + k_bb.mean() - 2.0 * k_ab.mean()
        return value, max(t_aa.max(), t_bb.max(), t_ab.max())

    def check(data: bytes, result: Check) -> None:
        (row,) = _csv_rows(data, "mmd2,kernel,estimator")
        value, tail = mmd_ref()
        # every entry is within C_GRID * MESH (+ tail) of the exact kernel;
        # the V-statistic weights have absolute sum 4
        result.value("mmd2", float(row[0]), value, 4.0 * (C_GRID * MESH + tail) + ROUND)

    ops = [
        _cli_op(f"mmd {kernel}", ["mmd", file_a, file_b, "--kernel", kernel, "--mesh", repr(MESH)],
                os.path.join(workdir, f"mmd_{kernel}.csv"), _checked(check))
        for kernel in ("sd_explicit", "sd_implicit")
    ]
    return ops


# ---------------------------------------------------------------------------
# converge-mc

def converge_mc(seed: int, workdir: str) -> list[Op]:
    """`converge` (grids up to n = 960, GUE rows at N = 10, 50, 200) with the
    two schemes, and one complex-Ginibre signature-kernel estimate through
    the library.  Few large calls: backend at large n, and all of the
    randomdev work in the benchmark."""
    path = inputs.fbm(0.75, seed, 0)
    gamma, sigma = inputs.fbm(0.75, seed, 1), inputs.fbm(0.75, seed, 2)
    files = {}
    for key, x in (("path", path), ("gamma", gamma), ("sigma", sigma)):
        files[key] = os.path.join(workdir, f"{key}.csv")
        inputs.write_csv(files[key], x)

    @functools.cache
    def sd_ref():
        return reference.sd_value(path, _phi(inputs.DIM))

    segment_max = float(np.linalg.norm(np.diff(path, axis=0), axis=1).max())

    def ginibre_execute():
        import sigdev

        g, s = sigdev.read_path_csv(files["gamma"]), sigdev.read_path_csv(files["sigma"])
        cfg = sigdev.EnsembleConfig(sigdev.COMPLEX_GINIBRE, GINIBRE_N, GINIBRE_M, seed, inputs.DIM)
        return sigdev.sigkernel_montecarlo(g, s, None, cfg)

    def ginibre_output(est) -> bytes:
        return f"{est.estimate!r},{est.stderr!r}\n".encode()

    def ginibre_check(data: bytes, result: Check) -> None:
        estimate, stderr = (float(v) for v in data.decode().split(","))
        sig = reference.SignatureTable([gamma, sigma])
        values, tails = reference.sig_gram(sig, sig)
        tol = Z_MC * stderr + B_MC / GINIBRE_N**2 + tails[0, 1]
        result.value("ginibre", estimate, values[0, 1], tol)

    def converge_check(data: bytes, result: Check) -> None:
        ref, tail = sd_ref()
        kinds = {"scheme": 0, "montecarlo": 0}
        for kind, param, value, reference_col, _error, stderr in _csv_rows(
            data, "kind,param,value,reference,error,stderr"
        ):
            kinds[kind] += 1
            result.value(f"{kind}[{param}].reference", float(reference_col), ref, CONVERGE_TOL + tail + ROUND)
            if kind == "scheme":
                h = segment_max / 2 ** int(param)
                result.value(f"scheme[{param}]", float(value), ref, C_GRID * h + tail + ROUND)
            else:
                n = int(param)
                tol = Z_MC * float(stderr) + B_MC / n**2 + tail
                result.value(f"montecarlo[{param}]", float(value), ref, tol)
        if kinds != {"scheme": 7, "montecarlo": 3}:
            result.fail(f"converge rows {kinds}, expected 7 scheme and 3 montecarlo")

    def converge_op(scheme: str, mc_seed: int) -> Op:
        argv = ["converge", files["path"], "--scheme", scheme, "--lambda", LAMBDAS,
                "--matrix-dim", MATRIX_DIMS, "--mc-samples", str(MC_SAMPLES),
                "--seed", str(mc_seed), "--tol", repr(CONVERGE_TOL)]
        return _cli_op(f"converge {scheme}", argv, os.path.join(workdir, f"converge_{scheme}.csv"),
                       _checked(converge_check))

    ops = [
        Op("sigkernel_montecarlo ginibre", ginibre_execute, ginibre_output, _checked(ginibre_check)),
        converge_op("explicit", seed),
        converge_op("implicit", seed + 1),
    ]
    return ops


WORKLOADS = {
    "gram-signature": gram_signature,
    "mmd-grid": mmd_grid,
    "converge-mc": converge_mc,
}
