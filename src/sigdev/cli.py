"""Command-line surface.

Subcommands: ``kernel`` (kernel of two paths), ``converge`` (scheme and
Monte-Carlo convergence table), ``gram``, ``mmd``, ``genfbm``, ``selftest``.
Every flag that takes a value falls back to an environment variable
``SIGDEV_<FLAG>`` (``--matrix-dim`` to ``SIGDEV_MATRIX_DIM``); a command
reads only its own flags' variables, an empty one counts as unset, and
explicit flags win.  All commands are deterministic given identical flags
and seeds.

Exit codes: 0 success, 2 bad input, 3 numeric or resource error (selftest
exits 1 when an invariant fails).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from dataclasses import fields
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError, ResourceLimitError
from .mmd import KERNELS, KernelSpec, PathSample, gram, mmd2, resolve_kernel
from .paths import Path, _finite_deltas, gen_fbm, read_path_csv, read_paths_jsonl, scaled, write_path_csv
from .randomdev import GUE, EnsembleConfig, rk_montecarlo
from .sdkernel import semicircle_charfn, series_oracle

_GRID_KERNELS = [name for name, kernel in KERNELS.items() if kernel.field == "mesh"]
_KERNEL_TOL = {"sig_truncated": 1e-10}  # kernel's tol where it is not KernelSpec's
_KERNEL_HELP = " | ".join(KERNELS) + " (or an sd_ name without its prefix)"
_CONVERGE_COLUMNS = "kind,param,value,reference,error,stderr"


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


def _parse_int_list(text: str) -> Sequence[int]:
    """Accept '3', '1,2,5' or '0..6' (inclusive, ascending range); '' is
    the empty list.  The argparse type of ``converge``'s list flags, so a
    bad value exits 2 with one error line, from the flag or its variable."""
    text = text.strip()
    if not text:
        return []
    try:
        if ".." in text:
            lo, hi = (int(end) for end in text.split("..", 1))
            if lo > hi:
                raise argparse.ArgumentTypeError(f"range {text!r} is empty: its start is past its end")
            return range(lo, hi + 1)
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers such as '3', '1,2,5' or '0..6', not {text!r}") from None


def _kernel_spec(args, **defaults) -> KernelSpec:
    """A spec of the fields given on the command line; ``defaults``, then KernelSpec's, fill the rest."""
    given = {f.name: getattr(args, f.name, None) for f in fields(KernelSpec)}
    return KernelSpec(**defaults | {name: value for name, value in given.items() if value is not None})


# ---------------------------------------------------------------------------
# subcommands

def cmd_kernel(args) -> int:
    gamma = read_path_csv(args.gamma)
    sigma = read_path_csv(args.sigma)
    scheme = resolve_kernel(args.scheme)
    spec = _kernel_spec(args, mesh=None, level=None, tol=_KERNEL_TOL.get(scheme, KernelSpec.tol))
    values, ran, provenance = KERNELS[scheme].route((gamma,), (sigma,), spec)
    level, tail = provenance(0, 0)
    detail = dict([ran.setting(scheme)] + ([] if level is None else [("level", level)]))
    value = float(values[0, 0])
    if args.format == "json":
        payload = {"value": value, "kernel": scheme, "detail": detail, "tail_bound": tail}
        _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    else:
        detail_text = ";".join(f"{k}={v}" for k, v in sorted(detail.items()))
        _emit(_csv([[value, scheme, detail_text, tail]], "value,kernel,detail,tail_bound"), args.out)
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
    path = _load_converge_path(args)
    tol = args.tol if args.tol is not None else 1e-8
    _finite_deltas(path)  # refuse an overflowing segment before any route runs
    if path.dim == 1:
        with np.errstate(over="ignore"):
            displacement = abs(float(path.displacement[0]))
        if not math.isfinite(displacement):
            raise NumericError("the path's displacement overflows")
        reference = semicircle_charfn(displacement)
    else:
        reference = series_oracle(path, tol=tol).value
    point = Path(path.times[:1], path.points[:1])  # no jumps: each value is the path's own-grid corner
    rows: list[list] = []
    for lam in args.dyadic:
        value = float(KERNELS[scheme].route((path,), (point,), KernelSpec(mesh=None, dyadic=lam)).values[0, 0])
        rows.append(["scheme", str(lam), value, reference, abs(value - reference), None])
    for n_dim in args.matrix_dim:
        cfg = EnsembleConfig(GUE, n_dim, args.mc_samples, args.seed, path.dim)
        est = rk_montecarlo(path, cfg)
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

class _EnvParser(argparse.ArgumentParser):
    """Subcommand parser whose flags that take a value fall back to
    environment variables: ``--foo-bar`` to ``SIGDEV_FOO_BAR``.  Only the
    running subcommand reads its variables.  A set, non-empty variable is
    parsed as the flag's value would be (its ``type`` and ``choices``
    apply) before the command line is, so an explicit flag wins."""

    def parse_known_args(self, args=None, namespace=None):
        namespace = namespace or argparse.Namespace()
        for action in self._actions:
            if not action.option_strings or action.nargs == 0:
                continue
            key = "SIGDEV_" + action.option_strings[-1].removeprefix("--").upper().replace("-", "_")
            raw = os.environ.get(key)
            if raw:
                try:
                    setattr(namespace, action.dest, self._get_values(action, [raw]))
                except argparse.ArgumentError as exc:
                    self.error(f"{key}: {exc.message}")
        return super().parse_known_args(args, namespace)


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigdev",
        description="Schwinger-Dyson and signature kernels of piecewise-linear paths",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_EnvParser)

    p = sub.add_parser(
        "kernel",
        help="kernel between two CSV paths",
        description="Print the kernel of two paths, with the certified tail "
        "bound when the series or truncated-signature route is used. "
        "CSV columns: value,kernel,detail,tail_bound.",
    )
    p.add_argument("gamma", help="first path (CSV: t,x1,...,xd)")
    p.add_argument("sigma", help="second path (CSV)")
    p.add_argument("--scheme", default="sd_series", help=_KERNEL_HELP)
    p.add_argument(
        "--lambda", dest="dyadic", type=int, default=6, help="dyadic refinement order for the grid schemes"
    )
    p.add_argument("--tol", type=float)
    p.add_argument("--level", type=int)
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
    p.add_argument("--fbm-hurst", type=float, default=0.75)
    p.add_argument("--fbm-points", type=int, default=15)
    p.add_argument("--fbm-dim", type=int, default=1)
    p.add_argument("--fbm-scale", type=float, default=1.0)
    p.add_argument(
        "--scheme",
        default="implicit",
        help="grid scheme: " + " | ".join(_GRID_KERNELS) + " (or without sd_)",
    )
    p.add_argument(
        "--lambda", dest="dyadic", type=_parse_int_list, default="0..6", help="dyadic orders, e.g. '0..6' or '0,2,4'"
    )
    p.add_argument(
        "--matrix-dim",
        type=_parse_int_list,
        default="10,50,200",
        help="matrix dimensions for the Monte-Carlo rows ('' disables)",
    )
    p.add_argument("--mc-samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float)
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
        p.add_argument("--kernel", default="sd_series", help=_KERNEL_HELP)
        p.add_argument(
            "--mesh",
            type=float,
            help=f"target per-interval 1-variation for the grid schemes (default {KernelSpec.mesh:g})",
        )
        p.add_argument("--tol", type=float)
        p.add_argument("--level", type=int)
        _add_output_flags(p)
        p.set_defaults(func=cmd_gram if name == "gram" else cmd_mmd)

    p = sub.add_parser("genfbm", help="write a fractional Brownian motion path as CSV")
    p.add_argument("--hurst", type=float, default=0.75)
    p.add_argument("--points", type=int, default=16)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_genfbm)

    p = sub.add_parser("selftest", help="run the cross-module invariant suite")
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``_EnvParser`` reads the environment
    at parse time, so a cached parser still sees every ``SIGDEV_*`` change."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
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
