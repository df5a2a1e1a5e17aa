"""Command-line surface.

Subcommands: ``kernel`` (kernel of two paths), ``converge`` (scheme and
Monte-Carlo convergence table), ``gram``, ``mmd``, ``genfbm``, ``selftest``.
Every flag can also be supplied through an environment variable named
``SIGDEV_<FLAG>`` (e.g. ``SIGDEV_SEED``); explicit flags win.  All commands
are deterministic given identical flags and seeds.

Exit codes: 0 success, 2 bad input, 3 numeric or resource error (selftest
exits 1 when an invariant fails).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import fields

from . import sdkernel
from .errors import DomainError, NumericError, ResourceLimitError
from .mmd import KERNELS, KernelSpec, PathSample, gram, mmd2, resolve_kernel
from .paths import (
    Partition,
    Path,
    dyadic_refine,
    gen_fbm,
    one_variation,
    piecewise_constant_increments,
    read_path_csv,
    read_paths_jsonl,
    scaled,
    write_path_csv,
)
from .randomdev import GUE, EnsembleConfig, rk_montecarlo
from .sdkernel import k_sd, semicircle_charfn, series_kernel, series_oracle
from .signature import level_for_remainder, signature_kernel_truncated

_GRID_KERNELS = [name for name, field in KERNELS.items() if field == "mesh"]
_KERNEL_HELP = " | ".join(KERNELS) + " (or an sd_ name without its prefix)"
_CONVERGE_COLUMNS = "kind,param,value,reference,error,stderr"


def _env(key: str) -> str | None:
    raw = os.environ.get("SIGDEV_" + key)
    if raw is None or raw == "":
        return None
    return raw


def _env_or(key: str, fallback, cast):
    raw = _env(key)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise DomainError(f"bad value for SIGDEV_{key}: {raw!r}") from exc


def _fmt(x: float) -> str:
    return repr(float(x))


def _csv(rows: list[list], header: str) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join("" if c is None else (c if isinstance(c, str) else _fmt(c)) for c in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(text: str) -> list[int]:
    """Accept '3', '1,2,5' or '0..6' (inclusive range)."""
    text = text.strip()
    if not text:
        return []
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _kernel_spec(args) -> KernelSpec:
    """A spec of the fields given on the command line; KernelSpec's
    defaults fill the rest."""
    given = {f.name: getattr(args, f.name, None) for f in fields(KernelSpec)}
    return KernelSpec(**{name: value for name, value in given.items() if value is not None})


# ---------------------------------------------------------------------------
# subcommands

def cmd_kernel(args) -> int:
    gamma = read_path_csv(args.gamma)
    sigma = read_path_csv(args.sigma)
    scheme = resolve_kernel(args.scheme)
    tail = None
    detail: dict[str, object] = {}
    if scheme == "sig_truncated":
        level = args.level
        if level is None:
            tol = args.tol if args.tol is not None else 1e-10
            var_product = one_variation(gamma) * one_variation(sigma)
            level = level_for_remainder(var_product, gamma.dim, tol)
        res = signature_kernel_truncated(gamma, sigma, level=level)
        value, tail = res.value, res.remainder_bound
        detail["level"] = level
    elif scheme == "sd_series":
        tol = _kernel_spec(args).tol
        res = series_kernel(gamma, sigma, tol)
        value, tail = res.value, res.tail_bound
        detail["tol"] = tol
        detail["level"] = res.level
    else:
        value = k_sd(gamma, sigma, scheme.removeprefix("sd_"), dyadic_order=args.dyadic)
        detail["lambda"] = args.dyadic
    if args.format == "json":
        payload = {"value": value, "kernel": scheme, "detail": detail, "tail_bound": tail}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        detail_text = ";".join(f"{k}={v}" for k, v in sorted(detail.items()))
        row = [value, scheme, detail_text, tail if tail is not None else None]
        _emit(_csv([row], "value,kernel,detail,tail_bound"), args.out)
    return 0


def _load_converge_path(args) -> Path:
    if args.path:
        return read_path_csv(args.path)
    path = gen_fbm(args.fbm_hurst, args.fbm_points, args.fbm_dim, args.seed)
    if args.fbm_scale != 1.0:
        path = scaled(path, args.fbm_scale)
    return path


def cmd_converge(args) -> int:
    scheme = resolve_kernel(args.scheme)
    if scheme not in _GRID_KERNELS:
        raise DomainError(f"converge needs a grid scheme ({', '.join(_GRID_KERNELS)}), not {args.scheme!r}")
    solver = sdkernel.solve_explicit if scheme == "sd_explicit" else sdkernel.solve_implicit
    path = _load_converge_path(args)
    tol = args.tol if args.tol is not None else 1e-8
    if path.dim == 1:
        reference = semicircle_charfn(abs(float(path.displacement[0])))
    else:
        reference = series_oracle(path, tol=tol).value
    rows: list[list] = []
    base = Partition(path.times)
    for lam in _parse_int_list(args.dyadic):
        part = dyadic_refine(base, lam)
        value = solver(piecewise_constant_increments(path, part), part).final
        rows.append(["scheme", str(lam), value, reference, abs(value - reference), None])
    for n_dim in _parse_int_list(args.matrix_dim):
        cfg = EnsembleConfig(GUE, n_dim, args.mc_samples, args.seed, path.dim)
        est = rk_montecarlo(path, None, cfg)
        rows.append(
            ["montecarlo", str(n_dim), est.estimate, reference, abs(est.estimate - reference), est.stderr]
        )
    if args.format == "json":
        keys = _CONVERGE_COLUMNS.split(",")
        payload = [dict(zip(keys, r)) for r in rows]
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        _emit(_csv(rows, _CONVERGE_COLUMNS), args.out)
    return 0


def cmd_gram(args) -> int:
    ids_a, paths_a = read_paths_jsonl(args.sample_a)
    sample_a = PathSample(tuple(paths_a))
    if args.sample_b:
        ids_b, paths_b = read_paths_jsonl(args.sample_b)
        sample_b = PathSample(tuple(paths_b))
    else:
        ids_b, sample_b = ids_a, None
    matrix = gram(sample_a, sample_b, resolve_kernel(args.kernel), _kernel_spec(args))
    if args.format == "json":
        payload = {
            "kernel": matrix.kernel_tag,
            "row_ids": ids_a,
            "col_ids": ids_b,
            "values": matrix.values.tolist(),
        }
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        rows = [
            [ids_a[i], ids_b[j], matrix.values[i, j]]
            for i in range(matrix.values.shape[0])
            for j in range(matrix.values.shape[1])
        ]
        _emit(_csv(rows, "i,j,value"), args.out)
    return 0


def cmd_mmd(args) -> int:
    _, paths_a = read_paths_jsonl(args.sample_a)
    _, paths_b = read_paths_jsonl(args.sample_b)
    kernel = resolve_kernel(args.kernel)
    value = mmd2(
        PathSample(tuple(paths_a)),
        PathSample(tuple(paths_b)),
        kernel,
        _kernel_spec(args),
        unbiased=args.unbiased,
    )
    estimator = "u" if args.unbiased else "v"
    if args.format == "json":
        _emit(
            json.dumps({"mmd2": value, "kernel": kernel, "estimator": estimator}, sort_keys=True) + "\n",
            args.out,
        )
    else:
        _emit(_csv([[value, kernel, estimator]], "mmd2,kernel,estimator"), args.out)
    return 0


def cmd_genfbm(args) -> int:
    path = gen_fbm(args.hurst, args.points, args.dim, args.seed)
    if args.scale != 1.0:
        path = scaled(path, args.scale)
    buf = io.StringIO()
    write_path_csv(path, buf)
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_all

    failures = run_all()
    if failures:
        print(f"{failures} invariant check(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_output_flags(sub) -> None:
    sub.add_argument("--out", default=_env("OUT"), help="output file (default: stdout)")
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default=_env_or("FORMAT", "csv", str),
        help="output format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigdev",
        description="Schwinger-Dyson and signature kernels of piecewise-linear paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "kernel",
        help="kernel between two CSV paths",
        description="Print the kernel of two paths, with the certified tail "
        "bound when the series or truncated-signature route is used. "
        "CSV columns: value,kernel,detail,tail_bound.",
    )
    p.add_argument("gamma", help="first path (CSV: t,x1,...,xd)")
    p.add_argument("sigma", help="second path (CSV)")
    p.add_argument(
        "--scheme",
        default=_env_or("SCHEME", "sd_series", str),
        help=_KERNEL_HELP,
    )
    p.add_argument(
        "--lambda",
        dest="dyadic",
        type=int,
        default=_env_or("LAMBDA", 6, int),
        help="dyadic refinement order for the grid schemes",
    )
    p.add_argument("--tol", type=float, default=_env_or("TOL", None, float))
    p.add_argument("--level", type=int, default=_env_or("LEVEL", None, int))
    _add_output_flags(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser(
        "converge",
        help="convergence table across dyadic orders and matrix dimensions",
        description="Emit one row per dyadic order (scheme value and error "
        "against the reference) and one row per matrix dimension "
        "(Monte-Carlo estimate, error, standard error).  The reference is "
        "the exact Bessel value in dimension 1 and the series value "
        "otherwise.  CSV columns: " + _CONVERGE_COLUMNS + ".",
    )
    p.add_argument("path", nargs="?", help="path CSV (omit to generate fBm)")
    p.add_argument("--fbm-hurst", type=float, default=_env_or("FBM_HURST", 0.75, float))
    p.add_argument("--fbm-points", type=int, default=_env_or("FBM_POINTS", 15, int))
    p.add_argument("--fbm-dim", type=int, default=_env_or("FBM_DIM", 1, int))
    p.add_argument("--fbm-scale", type=float, default=_env_or("FBM_SCALE", 1.0, float))
    p.add_argument(
        "--scheme",
        default=_env_or("SCHEME", "implicit", str),
        help="grid scheme: " + " | ".join(_GRID_KERNELS) + " (or without sd_)",
    )
    p.add_argument(
        "--lambda",
        dest="dyadic",
        default=_env_or("LAMBDA", "0..6", str),
        help="dyadic orders, e.g. '0..6' or '0,2,4'",
    )
    p.add_argument(
        "--matrix-dim",
        default=_env_or("MATRIX_DIM", "10,50,200", str),
        help="matrix dimensions for the Monte-Carlo rows ('' disables)",
    )
    p.add_argument("--mc-samples", type=int, default=_env_or("MC_SAMPLES", 50, int))
    p.add_argument("--seed", type=int, default=_env_or("SEED", 0, int))
    p.add_argument("--tol", type=float, default=_env_or("TOL", None, float))
    _add_output_flags(p)
    p.set_defaults(func=cmd_converge)

    for name, helptext in (("gram", "Gram matrix of path samples"), ("mmd", "squared MMD between two samples")):
        p = sub.add_parser(
            name,
            help=helptext,
            description=helptext
            + ". Samples are JSON Lines files, one {id, t, x} object per path."
            + (" CSV columns: i,j,value." if name == "gram" else " CSV columns: mmd2,kernel,estimator."),
        )
        p.add_argument("sample_a", help="first sample (JSONL)")
        if name == "mmd":
            p.add_argument("sample_b", help="second sample (JSONL)")
            p.add_argument("--unbiased", action="store_true", help="U-statistic estimator")
        else:
            p.add_argument("sample_b", nargs="?", help="second sample (JSONL; default: first)")
        p.add_argument(
            "--kernel",
            default=_env_or("KERNEL", "sd_series", str),
            help=_KERNEL_HELP,
        )
        p.add_argument(
            "--mesh",
            type=float,
            default=_env_or("MESH", None, float),
            help=f"target per-interval 1-variation for the grid schemes (default {KernelSpec.mesh:g})",
        )
        p.add_argument("--tol", type=float, default=_env_or("TOL", None, float))
        p.add_argument("--level", type=int, default=_env_or("LEVEL", None, int))
        _add_output_flags(p)
        p.set_defaults(func=cmd_gram if name == "gram" else cmd_mmd)

    p = sub.add_parser("genfbm", help="write a fractional Brownian motion path as CSV")
    p.add_argument("--hurst", type=float, default=_env_or("HURST", 0.75, float))
    p.add_argument("--points", type=int, default=_env_or("POINTS", 16, int))
    p.add_argument("--dim", type=int, default=_env_or("DIM", 1, int))
    p.add_argument("--seed", type=int, default=_env_or("SEED", 0, int))
    p.add_argument("--scale", type=float, default=_env_or("SCALE", 1.0, float))
    p.add_argument("--out", default=_env("OUT"), help="output file (default: stdout)")
    p.set_defaults(func=cmd_genfbm)

    p = sub.add_parser("selftest", help="run the cross-module invariant suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return int(args.func(args) or 0)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
