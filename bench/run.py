"""gekde benchmark: Monte Carlo ISE cells, large-sample estimates, exact moments.

Run from the repository root::

    python3 bench/run.py --workload mc_cells --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table
    python3 bench/run.py --write-refs                 # regenerate bench/refs.json

With ``--trace 0`` the run times the workload's calls in a closed loop and
prints the end-to-end metrics; with ``--trace 1`` it replays every workload's
inputs through the layer functions and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFS = BENCH / "refs.json"
WORKLOADS = ("mc_cells", "estimate_large", "diagnose_exact")


@dataclass(frozen=True)
class Sizes:
    """How much one run does, beyond the inputs fixed in workloads.py."""

    min_calls: int         # timed calls per run, at least
    whole_cycles: bool     # stop only at the end of a cycle of calls
    setup_repeats: int     # extra fresh-process set-ups behind setup_s
    overhead_ops: int      # calls timed with and without a span
    trace_diag_calls: int  # exact_estimator_moments calls the traced run replays


FULL = Sizes(min_calls=100, whole_cycles=True, setup_repeats=4, overhead_ops=12,
             trace_diag_calls=108)
SMOKE = Sizes(min_calls=2, whole_cycles=False, setup_repeats=1, overhead_ops=2,
              trace_diag_calls=12)


def import_gekde():
    """Import gekde from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "gekde" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'gekde'} not found; run from a gekde checkout")
    sys.path.insert(0, str(src))
    import gekde

    if Path(gekde.__file__).resolve().parent != (src / "gekde").resolve():
        sys.exit(f"error: imported gekde from {gekde.__file__}, not from {src}")
    return gekde


def provenance(gekde, args, sizes, work) -> dict:
    import numpy
    import scipy

    import workloads

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gekde": gekde.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads_run": [args.workload],
        "sizes": asdict(sizes),
        "inputs": workloads.INPUT_SIZES[args.workload],
        "calibration_ref_ms": work.cal_ref_ms,
    }


def timed_loop(work, seconds: float, sizes: Sizes):
    """Closed loop over the workload's cycles of calls; every output checked.

    Each call is followed by one run of the workload's calibration kernel.
    """
    from gekde import GekdeError

    work.warmup()
    loop = Loop()
    start = time.perf_counter()
    k = 0
    while True:
        for op in work.cycle(k):
            loop.attempted += 1
            t = time.perf_counter()
            try:
                out, bad = op.run(), None
            except GekdeError as exc:
                bad = [f"{op.key}: {type(exc).__name__}: {exc}"]
            loop.times.append(time.perf_counter() - t)
            t = time.perf_counter()
            work.calibrate()
            loop.cal.append(time.perf_counter() - t)
            if bad is None:
                bad = op.check(out)
            if bad:
                loop.failed += 1
                loop.problems += bad
            else:
                loop.units += op.units
            if not sizes.whole_cycles and _done(start, seconds, loop, sizes):
                return loop
        k += 1
        if _done(start, seconds, loop, sizes):
            return loop


@dataclass
class Loop:
    times: list = field(default_factory=list)  # seconds per call
    cal: list = field(default_factory=list)    # seconds per calibration run
    units: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def _done(start, seconds, loop, sizes) -> bool:
    return time.perf_counter() - start >= seconds and loop.attempted >= sizes.min_calls


def setup_sample(work, setup_s: float) -> tuple:
    """(raw, scaled) set-up time; scaled by one calibration run after set-up."""
    work.calibrate()
    t = time.perf_counter()
    work.calibrate()
    cal_ms = (time.perf_counter() - t) * 1e3
    return setup_s, setup_s * work.cal_ref_ms / cal_ms


def repeat_setup(args, n: int) -> list:
    """(raw, scaled) set-up times of n fresh processes, one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: set-up process failed:\n{proc.stderr}")
        out.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return out


def load_refs() -> dict:
    with REFS.open() as fh:
        return json.load(fh)


def run_workload(args) -> int:
    sizes = SMOKE if args.smoke else FULL
    gekde = import_gekde()
    import workloads

    refs = load_refs()
    work = workloads.build(args.workload, args.seed, refs)
    setup_s = time.perf_counter() - _T0
    setup = setup_sample(work, setup_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    prov = provenance(gekde, args, sizes, work)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    if args.trace:
        import tracing

        OUT.mkdir(exist_ok=True)
        tr, metrics, sources = tracing.run_traced(work, args.seed, refs, sizes, OUT)
        attempted, failed, problems = tr.attempted, len(tr.failed), tr.problems
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"provenance": prov, "metrics": metrics,
                                    "sources": sources, "problems": problems,
                                    "spans": tr.spans}) + "\n")
        for name, m in metrics.items():
            print(f"{name:52s} {m['value']:>14.6g} {m['unit']:6s} [{sources[name]}]")
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        loop = timed_loop(work, args.seconds, sizes)
        attempted, failed, problems = loop.attempted, loop.failed, loop.problems
        setups = [setup] + repeat_setup(args, sizes.setup_repeats)
        # scale each call to the speed at which calibration takes cal_ref_ms,
        # by the median of the five calibrations around it
        cal = [c * 1e3 for c in loop.cal]
        scale = [work.cal_ref_ms / statistics.median(cal[max(0, i - 2):i + 3])
                 for i in range(len(cal))]
        metrics = {"setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"}}
        print(f"setup_s raw {statistics.median(r for r, _ in setups):.6g} s")
        for label, factors in (("raw", [1.0] * len(scale)), ("scaled", scale)):
            ms = [t * 1e3 * f for t, f in zip(loop.times, factors)]
            p50, p90 = statistics.quantiles(ms, n=10, method="inclusive")[4::4]
            row = {"ops_per_s": (loop.units / (sum(ms) / 1e3), "1/s"),
                   "op_ms.p50": (p50, "ms"), "op_ms.p90": (p90, "ms")}
            print(f"{label:7s}" + "".join(f"{n} {v:.6g} {u}; " for n, (v, u) in row.items()))
            if label == "scaled":
                metrics.update({n: {"value": v, "unit": u} for n, (v, u) in row.items()})
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
        for name, m in metrics.items():
            print(f"{name:16s} {m['value']:>14.6g} {m['unit']}")
        print(f"op_ms samples {len(loop.times)}; setup_s samples {len(setups)}; "
              f"calibration median {statistics.median(cal):.4g} ms against "
              f"{work.cal_ref_ms:g} ms; "
              f"failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""
    rows, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                              capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        if not proc.stdout.strip():
            print(f"{name}: no result (exit {proc.returncode})")
            code = 1
            continue
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        code = code or proc.returncode
    print(f"{'metric':16s} {'unit':5s}" + "".join(f"{w:>16s}" for w in rows))
    for m, first in next(iter(rows.values()), {"metrics": {}})["metrics"].items():
        print(f"{m:16s} {first['unit']:5s}" + "".join(
            f"{r['metrics'][m]['value']:>16.6g}" for r in rows.values()))
    print(f"{'failed_frac':16s} {'frac':5s}" + "".join(
        f"{r['failed'] / r['attempted']:>16.6g}" for r in rows.values()))
    print(f"{'correct':16s} {'':5s}" + "".join(f"{str(r['correct']):>16s}" for r in rows.values()))
    return code


def write_refs() -> int:
    """Run every catalogue entry and store its output summary in refs.json."""
    gekde = import_gekde()
    import workloads

    refs = {"generated_with": {"gekde": gekde.__version__, "rtol": workloads.RTOL}}
    for name in WORKLOADS:
        entries = {op.key: op.summarize(op.run())
                   for op in workloads.CLASSES[name].catalogue({name: {}})}
        refs[name] = entries
        print(f"{name}: {len(entries)} entries", file=sys.stderr)
    # one catalogue entry per line keeps diffs of the file readable
    lines = [f'"generated_with": {json.dumps(refs.pop("generated_with"), sort_keys=True)}']
    for name, entries in refs.items():
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                          for k, v in entries.items())
        lines.append(f'"{name}": {{\n{body}\n}}')
    REFS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny run: a few calls, one extra set-up, a reduced trace")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time and exit")
    p.add_argument("--write-refs", action="store_true",
                   help="regenerate bench/refs.json from the catalogue")
    args = p.parse_args(argv)
    if args.write_refs:
        return write_refs()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
