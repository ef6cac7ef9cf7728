"""Traced run: spans around gekde's public calls and the per-layer metrics.

The traced run replays the inputs of all three workloads through the layer
functions, one section per workload, and records a span around every public
call: name, start, end, parent span and operation id.  Spans stay in memory
and are written out when the run ends.  Each per-layer metric is taken from
the section of the workload being run when that workload reaches the layer,
otherwise from the first section, in ``WORKLOADS`` order, that does; the trace
file records which section each metric came from.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import gekde.cli
from gekde import (
    CONFIGURATIONS,
    DEFAULT_KERNELS,
    EULER_GAMMA,
    Kernel,
    estimate_density,
    exact_estimator_moments,
    ge2_shape,
    integrated_squared_error,
    inverse_digamma,
    log_kernel,
    mise_records_csv,
    run_experiment,
    silverman_bandwidth,
)

import workloads as wl

#: Below this y the inverse digamma runs its Newton solve; above it
#: ge2_shape uses the closed form exp(y) - 1/2.
_NEWTON_Y = 36.0


class Tracer:
    """In-memory span recorder, with a ledger of checked operations."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.section = None
        self.attempted = 0
        self.failed = set()
        self.problems = []

    @contextmanager
    def span(self, name: str, op: str | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"id": len(self.spans), "name": name, "parent": parent, "op": op,
               "section": self.section, "attrs": attrs, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, key: str, problems: list) -> None:
        """Count one checked operation and keep its problems."""
        self.attempted += 1
        if problems:
            self.failed.add(key)
            self.problems += problems

    def select(self, section: str, name: str, **match) -> list:
        return [s for s in self.spans
                if s["section"] == section and s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]


def _dur(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


class CountingDensity:
    """Density proxy that counts the pdf calls quadrature makes."""

    def __init__(self, density):
        self.density = density
        self.calls = 0

    def pdf(self, z):
        self.calls += 1
        return self.density.pdf(z)


def _replay_fit(tr: Tracer, sample, kernel: Kernel, bw, grid, **attrs):
    """estimate_density, then the same G rows through the public kernel layer."""
    evals = grid.size * sample.n
    with tr.span("estimator.estimate_density", kernel=kernel.value, evals=evals, **attrs):
        est = estimate_density(sample, kernel, bw, grid)
    b, z = bw.value, sample.values
    with tr.span("kernels.log_kernel", kernel=kernel.value, evals=evals):
        for x in grid:
            log_kernel(kernel, x, b, z)
    if kernel is Kernel.GE2:
        with tr.span("specfun.ge2_shape", calls=grid.size):
            for x in grid:
                ge2_shape(x, b)
        y = grid / b - EULER_GAMMA
        y = y[y < _NEWTON_Y]
        with tr.span("specfun.inverse_digamma", points=y.size):
            inverse_digamma(y)
    return est


def replay_mc(tr: Tracer, work, counts: dict) -> None:
    """run_experiment at 1 and 2 threads, then each replication call by call.

    The replay evaluates all six kernels on every replication's inputs; only
    the cell's own kernels (``in_cell``) count towards the attribution of
    run_experiment time.
    """
    for op in work.cycle(0):
        cfg = op.inputs
        cell = cfg.config_id
        with tr.span("simulation.run_experiment", op=op.key, cell=cell, threads=1):
            single = run_experiment(cfg, threads=1)
        with tr.span("simulation.run_experiment", op=op.key, cell=cell, threads=2):
            double = run_experiment(cfg, threads=2)
        problems = op.check(single)
        if mise_records_csv(single).encode() != mise_records_csv(double).encode():
            problems.append(f"{op.key}: mise_records_csv differs between 1 and 2 threads")
        ise = {r.kernel: r.per_replication_ise for r in single}
        counts["ise_values"] += sum(v.size for v in ise.values())
        counts["inf_ise"] += int(sum(np.isinf(v).sum() for v in ise.values()))
        density = CONFIGURATIONS[cell]
        with tr.span("simulation.replay", op=op.key, cell=cell):
            with tr.span("simulation.quantile"):
                lo = density.quantile(0.0005)
            with tr.span("simulation.quantile"):
                hi = density.quantile(0.9995)
            grid = np.linspace(lo, hi, cfg.grid_size)
            with tr.span("simulation.true_pdf"):
                density.pdf(grid)
            streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
            for r in range(cfg.replications):
                with tr.span("simulation.sample"):
                    sample = density.sample(cfg.n, streams[r])
                for kernel in Kernel:
                    in_cell = kernel in cfg.kernels
                    with tr.span("estimator.silverman_bandwidth", in_cell=in_cell):
                        bw = silverman_bandwidth(sample, kernel)
                    g = grid
                    if kernel is Kernel.RIG:
                        g = grid[grid > bw.value]
                        counts["rig_points"] += grid.size
                        counts["rig_truncated"] += grid.size - g.size
                        if g.size < 2:
                            continue
                    est = _replay_fit(tr, sample, kernel, bw, g, in_cell=in_cell)
                    with tr.span("simulation.integrated_squared_error", in_cell=in_cell):
                        value = integrated_squared_error(est, density, require_coverage=False)
                    if in_cell and not math.isclose(value, ise[kernel][r], rel_tol=1e-9):
                        problems.append(f"{op.key}: replayed ISE {value!r} of {kernel.value} "
                                        f"replication {r} differs from {ise[kernel][r]!r}")
        tr.record(op.key, problems)


@contextmanager
def _cli_library_spans(tr: Tracer):
    """Spans around the estimator calls that ``gekde estimate`` makes."""
    saved = {name: getattr(gekde.cli, name)
             for name in ("estimate_density", "silverman_bandwidth")}

    def wrap(name, fn):
        def traced(*args, **kwargs):
            with tr.span("cli.library", fn=name):
                return fn(*args, **kwargs)
        return traced

    try:
        for name, fn in saved.items():
            setattr(gekde.cli, name, wrap(name, fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(gekde.cli, name, fn)


def replay_large(tr: Tracer, work, out_dir: Path) -> None:
    """The twelve estimates with their kernel rows, then one ``gekde estimate``."""
    ops = work.cycle(0)
    estimates = {}
    for op in ops:
        inp = op.inputs
        with tr.span("simulation.sample", op=op.key):
            wl.large_sample(inp.config_id, inp.index)
        with tr.span("estimator.silverman_bandwidth", op=op.key):
            silverman_bandwidth(inp.sample, inp.kernel)
        with tr.span("replay", op=op.key):
            est = _replay_fit(tr, inp.sample, inp.kernel, inp.bandwidth, inp.grid)
        tr.record(op.key, op.check(est))
        estimates[op.key] = est
    first = ops[0].inputs  # the CLI replays the first sample
    data = out_dir / f"cli-input-{first.config_id}.csv"
    data.write_text("".join(f"{v:.17g}\n" for v in first.sample.values))
    cli_out = out_dir / "cli"
    key = f"cli/{first.config_id}/{first.index}"
    with _cli_library_spans(tr), contextlib.redirect_stdout(io.StringIO()):
        with tr.span("cli.estimate", op=key):
            code = gekde.cli.main(["estimate", str(data), "--output", str(cli_out)])
    problems = [] if code == 0 else [f"{key}: gekde estimate exited with {code}"]
    for kernel in DEFAULT_KERNELS if code == 0 else ():
        with (cli_out / f"{data.stem}_{kernel.value}.csv").open(newline="") as fh:
            fhat = np.array([float(row["fhat"]) for row in csv.DictReader(fh)])
        est = estimates[f"{first.config_id}/{first.index}/{kernel.value}"]
        if not np.array_equal(fhat, est.values):
            problems.append(f"{key}: {kernel.value} fhat differs from estimate_density")
    tr.record(key, problems)


def replay_diag(tr: Tracer, work, limit: int) -> None:
    """Set-up calls (roughness, quantile), then moment calls through a counting proxy."""
    for name, density in wl.DIAG_DENSITIES:
        with tr.span("simulation.roughness", op=f"diag/{name}"):
            density.roughness()
        for p in (0.001, 0.999, 0.99999):
            with tr.span("simulation.quantile", op=f"diag/{name}"):
                density.quantile(p)
    ops = work.cycle(0)
    for op in ops[::max(1, len(ops) // limit)]:
        inp = op.inputs
        proxy = CountingDensity(inp.dens.density)
        with tr.span("estimator.exact_estimator_moments", op=op.key,
                     kernel=inp.kernel.value) as rec:
            m = exact_estimator_moments(inp.kernel, inp.x, inp.b, proxy, wl.DIAG_N)
        rec["attrs"]["pdf_evals"] = proxy.calls
        tr.record(op.key, op.check((inp, m)))


def trace_overhead(tr: Tracer, work, n_ops: int) -> float:
    """Median over ops of (time inside a span) / (time without) - 1.

    Each op runs once each way, alternating which goes first.
    """
    ops, k = [], 0
    while len(ops) < n_ops:
        ops += work.cycle(k)
        k += 1
    ratios = []
    for i, op in enumerate(ops[::len(ops) // n_ops][:n_ops]):
        took = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if traced:
                with tr.span("trace.probe", op=op.key):
                    op.run()
            else:
                op.run()
            took[traced] = time.perf_counter() - start
        ratios.append(took[True] / took[False])
    return statistics.median(ratios) - 1.0


def run_traced(work, seed: int, refs: dict, sizes, out_dir: Path) -> tuple:
    """All three replays plus the overhead probe; returns (tracer, metrics, sources)."""
    works = {name: work if name == work.name else wl.build(name, seed, refs)
             for name in wl.WORKLOADS}
    tr = Tracer()
    tr.section = "overhead"
    overhead = trace_overhead(tr, work, sizes.overhead_ops)
    counts = {"ise_values": 0, "inf_ise": 0, "rig_points": 0, "rig_truncated": 0}
    tr.section = "mc_cells"
    replay_mc(tr, works["mc_cells"], counts)
    tr.section = "estimate_large"
    replay_large(tr, works["estimate_large"], out_dir)
    tr.section = "diagnose_exact"
    replay_diag(tr, works["diagnose_exact"], sizes.trace_diag_calls)
    tr.section = None
    metrics, sources = per_layer_metrics(tr, work.name, counts, overhead)
    return tr, metrics, sources


def per_layer_metrics(tr: Tracer, workload: str, counts: dict, overhead: float) -> tuple:
    order = [workload] + [w for w in wl.WORKLOADS if w != workload]
    metrics, sources = {}, {}

    def section_with(name):
        return next(s for s in order if tr.select(s, name))

    def put(name, value, unit, section):
        metrics[name] = {"value": float(value), "unit": unit}
        sources[name] = section

    def mean(spans, scale):
        return _dur(spans) / len(spans) * scale

    s = section_with("kernels.log_kernel")
    rows = tr.select(s, "kernels.log_kernel")
    for k in Kernel:
        put(f"kernels.log_kernel.ms.{k.value}",
            mean(tr.select(s, "kernels.log_kernel", kernel=k.value), 1e3), "ms", s)
    evals = sum(r["attrs"]["evals"] for r in rows)
    put("kernels.evals", evals, "count", s)
    put("kernels.ns_per_eval", _dur(rows) / evals * 1e9, "ns", s)

    s = section_with("specfun.ge2_shape")
    shapes = tr.select(s, "specfun.ge2_shape")
    put("specfun.ge2_shape.calls", sum(r["attrs"]["calls"] for r in shapes), "count", s)
    put("specfun.ge2_shape.ms", mean(shapes, 1e3), "ms", s)
    s = section_with("specfun.inverse_digamma")
    inv = tr.select(s, "specfun.inverse_digamma")
    put("specfun.inverse_digamma.us_per_point",
        _dur(inv) / sum(r["attrs"]["points"] for r in inv) * 1e6, "us", s)

    s = section_with("estimator.estimate_density")
    est = tr.select(s, "estimator.estimate_density")
    for k in Kernel:
        put(f"estimator.estimate_density.ms.{k.value}",
            mean(tr.select(s, "estimator.estimate_density", kernel=k.value), 1e3), "ms", s)
    put("estimator.estimate_density.ns_per_eval",
        _dur(est) / sum(r["attrs"]["evals"] for r in est) * 1e9, "ns", s)
    est_s, rows_s = _dur(est), _dur(tr.select(s, "kernels.log_kernel"))
    put("estimator.overhead_frac", (est_s - rows_s) / est_s, "frac", s)
    put("estimator.overhead_frac.base_estimate_ms", est_s * 1e3, "ms", s)
    put("estimator.overhead_frac.base_log_kernel_ms", rows_s * 1e3, "ms", s)
    s = section_with("estimator.silverman_bandwidth")
    put("estimator.silverman_bandwidth.us",
        mean(tr.select(s, "estimator.silverman_bandwidth"), 1e6), "us", s)
    s = section_with("estimator.exact_estimator_moments")
    moments = tr.select(s, "estimator.exact_estimator_moments")
    for k in wl.DIAG_KERNELS:
        put(f"estimator.exact_estimator_moments.ms.{k.value}",
            mean(tr.select(s, "estimator.exact_estimator_moments", kernel=k.value), 1e3), "ms", s)
    put("estimator.exact_estimator_moments.pdf_evals",
        sum(r["attrs"]["pdf_evals"] for r in moments), "count", s)

    for name, unit, scale in (("simulation.sample", "us", 1e6),
                              ("simulation.integrated_squared_error", "us", 1e6),
                              ("simulation.quantile", "ms", 1e3),
                              ("simulation.roughness", "ms", 1e3)):
        s = section_with(name)
        put(f"{name}.{unit}", mean(tr.select(s, name), scale), unit, s)

    s = section_with("simulation.run_experiment")
    single = tr.select(s, "simulation.run_experiment", threads=1)
    for cell, _ in wl.MC_CELLS:
        put(f"simulation.run_experiment.s.{cell}",
            mean([r for r in single if r["attrs"]["cell"] == cell], 1.0), "s", s)
    attributed = sum(_dur(tr.select(s, name)) for name in
                     ("simulation.quantile", "simulation.true_pdf", "simulation.sample"))
    attributed += sum(_dur(tr.select(s, name, in_cell=True)) for name in
                      ("estimator.silverman_bandwidth", "estimator.estimate_density",
                       "simulation.integrated_squared_error"))
    put("simulation.unattributed_frac", 1.0 - attributed / _dur(single), "frac", s)
    put("simulation.unattributed_frac.base_s", _dur(single), "s", s)
    put("simulation.rig_truncated_points", counts["rig_truncated"], "count", s)
    put("simulation.rig_truncated_points.base", counts["rig_points"], "count", s)
    put("simulation.inf_ise_reps", counts["inf_ise"], "count", s)
    put("simulation.inf_ise_reps.base", counts["ise_values"], "count", s)
    put("simulation.threads2_speedup",
        _dur(single) / _dur(tr.select(s, "simulation.run_experiment", threads=2)), "x", s)

    s = section_with("cli.estimate")
    cli = tr.select(s, "cli.estimate")
    put("cli.estimate.ms", _dur(cli) * 1e3, "ms", s)
    put("cli.overhead_ms", (_dur(cli) - _dur(tr.select(s, "cli.library"))) * 1e3, "ms", s)

    put("trace.overhead_frac", overhead, "frac", workload)
    put("trace.spans", len(tr.spans), "count", workload)
    return metrics, sources
