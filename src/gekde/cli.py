"""Command-line interface: density estimation, simulation and diagnostics.

Three subcommands::

    gekde estimate data.csv --kernel ge --kernel gam1 --output out/
    gekde simulate --config A --n 100 --reps 200 --seed 1 --output out/
    gekde diagnose --kernel ge2 --density gamma:3,1 --x 2 \\
        --bandwidth 0.04 --bandwidth 0.02 --output out/

All artifacts are CSV/JSON with 17 significant digits.  Each subcommand
computes every result first, then hands its files to ``_write_files``, which
creates the output directory and writes each file atomically: a failed
computation writes no file.  Identical flags (and seed) produce
byte-identical files.

Exit codes: 0 success, 2 input validation, 3 kernel-domain error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import secrets
import sys
from pathlib import Path

import numpy as np

from .errors import (
    BoundaryDegeneracyError,
    ConvergenceError,
    CoverageError,
    DegenerateSampleError,
    DomainError,
    IntegrationError,
    OptimizationError,
)
from .estimator import (
    Bandwidth,
    INTERIOR,
    Sample,
    _domain_start,
    asymptotic_bias,
    asymptotic_variance,
    boundary_regime,
    default_grid,
    estimate_density,
    exact_estimator_moments,
    select_bandwidth,
    silverman_bandwidth,
)
from .kernels import _GE_FAMILY, DEFAULT_KERNELS, Kernel
from .simulation import (
    CONFIGURATIONS,
    ExperimentConfig,
    GammaDensity,
    InverseGammaDensity,
    InverseWeibullDensity,
    _json_text,
    mise_records_csv,
    mise_summary_json,
    run_experiment,
)


class CliInputError(ValueError):
    """Invalid command-line input (exit code 2)."""


# the exit code of each error type, the table in the module docstring
_EXIT_CODES = {
    CliInputError: 2, DomainError: 2, DegenerateSampleError: 2, CoverageError: 2,
    BoundaryDegeneracyError: 3,
    ConvergenceError: 4, IntegrationError: 4, OptimizationError: 4,
}


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a unique, fsynced temporary file.

    Concurrent writers of one target each use their own temporary file, so
    the target always holds one writer's complete payload.  The temporary
    file is created with mode 0o666 under the umask, as ``open()`` creates
    a file, so the target gets the mode a plain write would give it.
    """
    tmp = path.parent / f"{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_files(output, files) -> list[Path]:
    """Create the directory ``output`` and write each ``(name, text)`` of ``files`` in it.

    Every file of every subcommand goes through here, after all its results
    are computed.  Each file is written with :func:`_atomic_write`, in order,
    and a name given twice is written twice.  Returns the paths written.
    """
    outdir = Path(output)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files:
        paths.append(outdir / name)
        _atomic_write(paths[-1], text)
    return paths


def _read_positive_column(path: Path, column: str | None) -> np.ndarray:
    """Read one column of positive reals from a CSV file.

    Without ``column`` the file must hold a single value per row (an
    optional non-numeric first row is treated as a header), and a row with
    more than one non-empty cell is an error.  Row numbers in error
    messages are 1-based file lines.
    """
    import csv

    if not path.exists():
        raise CliInputError(f"input file {path} does not exist")
    values = []
    with path.open(newline="") as fh:
        numbered = [(i, row) for i, row in enumerate(csv.reader(fh), start=1)
                    if any(cell.strip() for cell in row)]
    if not numbered:
        raise CliInputError(f"input file {path} is empty")
    idx = 0
    if column is not None:
        header = [c.strip() for c in numbered[0][1]]
        if column not in header:
            raise CliInputError(f"column {column!r} not found in header {header}")
        idx = header.index(column)
        numbered = numbered[1:]
    else:
        try:
            float(numbered[0][1][0])
        except ValueError:
            numbered = numbered[1:]  # single-column file with a header row
    for i, row in numbered:
        if column is None and sum(1 for cell in row if cell.strip()) > 1:
            raise CliInputError(f"row {i}: more than one value; pass --column NAME to pick one")
        if idx >= len(row):
            raise CliInputError(f"row {i}: missing column value")
        cell = row[idx].strip()
        try:
            v = float(cell)
        except ValueError:
            raise CliInputError(f"row {i}: non-numeric entry {cell!r}") from None
        if not math.isfinite(v) or v <= 0.0:
            raise CliInputError(f"row {i}: entry {cell!r} is not strictly positive")
        values.append(v)
    return np.asarray(values)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise CliInputError(f"grid spec {spec!r} must be min:max:count") from None
    if n < 1 or hi < lo or (n > 1 and hi == lo):
        raise CliInputError(f"grid spec {spec!r} is not a valid range")
    return np.linspace(lo, hi, n)


def _parse_density(spec: str):
    """Density spec: a configuration letter (A-F) or family:params.

    Families: ``gamma:shape,scale``, ``invgamma:shape,scale``,
    ``invweibull:shape,scale``.
    """
    spec = spec.strip()
    if spec.upper() in CONFIGURATIONS:
        return CONFIGURATIONS[spec.upper()]
    families = {
        "gamma": GammaDensity,
        "invgamma": InverseGammaDensity,
        "invweibull": InverseWeibullDensity,
    }
    try:
        name, params = spec.split(":")
        shape_s, scale_s = params.split(",")
        cls = families[name.lower()]
        return cls(float(shape_s), float(scale_s))
    except (ValueError, KeyError):
        raise CliInputError(
            f"density spec {spec!r} not understood; use a configuration letter "
            "(A-F) or family:shape,scale with family in " + "/".join(families)
        ) from None


def _kernel_list(args):
    if args.kernel:
        return tuple(Kernel.parse(k) for k in args.kernel)
    return DEFAULT_KERNELS


def _bandwidth_rule(sample: Sample, args):
    """``kernel -> Bandwidth`` under the bandwidth flags."""
    if args.bandwidth is not None:
        if len(args.bandwidth) != 1:
            raise CliInputError("estimate takes exactly one --bandwidth value")
        return lambda kernel: Bandwidth(args.bandwidth[0])
    method = (args.bandwidth_method or "silverman").replace("-", "_")
    if method == "silverman":  # the name that bench/tracing.py times as a library call
        return lambda kernel: silverman_bandwidth(sample, kernel)
    return lambda kernel: select_bandwidth(sample, kernel, method)


def cmd_estimate(args) -> int:
    path = Path(args.input)
    data = _read_positive_column(path, args.column)
    sample = Sample(data)
    kernels = _kernel_list(args)
    explicit_grid = args.grid is not None
    grid = _parse_grid(args.grid) if explicit_grid else default_grid(sample)
    bandwidth = _bandwidth_rule(sample, args)
    estimates = []  # every kernel is estimated before any file is written
    for kernel in kernels:
        bw = bandwidth(kernel)
        kgrid = grid
        if not explicit_grid:
            # the automatic grid may dip below the rig domain, x > b; clip
            # rather than fail (an explicit --grid is honoured strictly)
            kgrid = grid[_domain_start(kernel, grid, bw.value):]
            if kgrid.size < 2:
                raise BoundaryDegeneracyError(
                    f"{kernel.value} bandwidth {bw.value!r} leaves no valid grid point"
                )
        estimates.append(estimate_density(sample, kernel, bw, kgrid))
    files = []
    for est in estimates:
        meta = {
            "kernel": est.kernel.value,
            "bandwidth": est.bandwidth.value,
            "bandwidth_method": est.bandwidth.method,
            "n": sample.n,
            "grid_min": float(est.grid[0]),
            "grid_max": float(est.grid[-1]),
            "grid_size": int(est.grid.size),
            "grid_truncated": est.grid.size < grid.size,
            "source": path.name,
        }
        stem = f"{path.stem}_{est.kernel.value}"
        if args.format == "json":
            payload = dict(meta, x=est.grid.tolist(), fhat=est.values.tolist())
            files.append((f"{stem}.json", _json_text(payload)))
        else:
            lines = ["x,fhat"]
            lines += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(est.grid, est.values)]
            files += [(f"{stem}.csv", "\n".join(lines) + "\n"), (f"{stem}.json", _json_text(meta))]
    for p in _write_files(args.output, files):
        print(p)
    return 0


def _print_mise_table(reports) -> None:
    kernels = [rep.kernel.value for rep in reports]
    header = f"{'config':<8}{'n':<8}" + "".join(f"{k:<12}" for k in kernels)
    print(header)
    row = f"{reports[0].config_id:<8}{reports[0].n:<8}"
    row += "".join(f"{rep.mean_ise:<12.3e}" for rep in reports)
    print(row)


def cmd_simulate(args) -> int:
    config_id = args.config.upper()
    if args.threads < 1:
        raise CliInputError(f"--threads must be at least 1, not {args.threads}")
    kernels = _kernel_list(args)
    config = ExperimentConfig(
        config_id=config_id,
        kernels=kernels,
        n=args.n,
        replications=args.reps,
        seed=args.seed,
        grid_size=args.grid_size,
    )
    reports = run_experiment(config, threads=args.threads)
    stem = f"mise_{config_id}_n{args.n}"
    files = [] if args.format == "json" else [(f"{stem}.csv", mise_records_csv(reports))]
    files.append((f"{stem}_summary.json", mise_summary_json(reports)))
    written = _write_files(args.output, files)
    _print_mise_table(reports)
    for p in written:
        print(p)
    return 0


def cmd_diagnose(args) -> int:
    kernel = Kernel.parse(args.kernel_name)
    if kernel not in _GE_FAMILY:
        raise CliInputError("diagnose supports the ge and ge2 kernels only")
    density = _parse_density(args.density)
    b_list = args.bandwidth
    if not b_list:
        raise CliInputError("diagnose needs at least one --bandwidth value")
    if any(b <= 0 or not math.isfinite(b) for b in b_list):
        raise CliInputError("bandwidths must be positive and finite")
    if args.boundary is None:
        if args.x is None:
            raise CliInputError("diagnose needs --x unless --boundary is given")
        if args.x / min(b_list) < 20.0:
            raise CliInputError(
                "interior diagnostics need x/min(bandwidths) >= 20; "
                "pass --boundary <c> for the boundary regime"
            )
        regime = INTERIOR
    else:
        if kernel is Kernel.GE2:
            raise CliInputError("no boundary bias expansion is defined for the ge2 kernel")
        regime = boundary_regime(args.boundary)

    eps = 1e-12 * density.quantile(0.5)  # f, f' and f'' at 0+, on the density's own scale
    rows = []
    for b in b_list:
        x_eval = args.x if regime.kind == "interior" else regime.c * b
        x_moment = max(x_eval, 0.0)
        moments = exact_estimator_moments(kernel, x_moment, b, density, n=1)
        fx = float(density.pdf(x_moment)) if x_moment > 0 else float(density.pdf(eps))
        if regime.kind == "interior":
            f1 = float(density.pdf_d1(x_eval))
            f2 = float(density.pdf_d2(x_eval))
        else:
            f1 = float(density.pdf_d1(eps))
            f2 = float(density.pdf_d2(eps))
        theory = asymptotic_bias(kernel, regime, b, f1, f2)
        theory_var = asymptotic_variance(regime, b, 1, fx)
        rows.append(
            {
                "b": b,
                "x": x_moment,
                "exact_bias": moments.mean - fx,
                "theory_bias": theory,
                "four_b_n_variance": 4.0 * b * moments.variance,
                "theory_four_b_n_variance": 4.0 * b * theory_var,
                "f_x": fx,
            }
        )

    cols = ["b", "x", "exact_bias", "theory_bias", "four_b_n_variance",
            "theory_four_b_n_variance", "f_x"]
    lines = [",".join(cols)]
    lines += [",".join(_fmt(row[c]) for c in cols) for row in rows]
    text = "\n".join(lines) + "\n"
    body = _json_text({"kernel": kernel.value, "rows": rows}) if args.format == "json" else text
    [target] = _write_files(args.output, [(f"diagnose_{kernel.value}.{args.format}", body)])
    print(text, end="")
    print(target)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gekde",
        description="Asymmetric kernel density estimation for positive data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate densities from a CSV of positive reals")
    p_est.add_argument("input", help="CSV file with one positive value per row")
    p_est.add_argument("--column", default=None, help="named column to read (header required)")
    p_est.add_argument("--kernel", action="append", default=None,
                       help="kernel name (repeatable); default: ge ge2 gam1 gam2 rig")
    group = p_est.add_mutually_exclusive_group()
    group.add_argument("--bandwidth", type=float, action="append", default=None,
                       help="fixed bandwidth value")
    group.add_argument("--bandwidth-method", choices=["silverman", "optimal-ge2", "numeric-ge"],
                       default=None, help="bandwidth selection rule (default: silverman)")
    p_est.add_argument("--grid", default=None, help="evaluation grid as min:max:count")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo MISE experiment")
    p_sim.add_argument("--config", required=True, help="configuration letter A-F")
    p_sim.add_argument("--n", type=int, default=100, help="sample size per replication")
    p_sim.add_argument("--reps", type=int, default=200, help="number of replications")
    p_sim.add_argument("--seed", type=int, default=0, help="experiment seed")
    p_sim.add_argument("--kernel", action="append", default=None,
                       help="kernel name (repeatable); default: ge ge2 gam1 gam2 rig")
    p_sim.add_argument("--grid-size", type=int, default=256, help="ISE grid size")
    p_sim.add_argument("--threads", type=int, default=1,
                       help="chunks of replications run at once (at least 1)")
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="exact bias/variance convergence table")
    p_diag.add_argument("--kernel", dest="kernel_name", required=True, help="ge or ge2")
    p_diag.add_argument("--density", required=True,
                        help="true density: configuration letter or family:shape,scale")
    p_diag.add_argument("--x", type=float, default=None, help="interior evaluation point")
    p_diag.add_argument("--bandwidth", type=float, action="append", default=None,
                        help="bandwidth value (repeatable)")
    p_diag.add_argument("--boundary", type=float, default=None,
                        help="boundary constant c (evaluates at x = c*b)")
    p_diag.set_defaults(func=cmd_diagnose)

    for p in (p_est, p_sim, p_diag):  # after each parser's own flags
        p.add_argument("--output", default=".", help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
