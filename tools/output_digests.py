"""SHA-256 digests of gekde's benchmark outputs, per workload and kernel.

Run from the repository root::

    python3 tools/output_digests.py                      # digests of this checkout
    python3 tools/output_digests.py --src OTHER/src      # of another checkout's gekde
    python3 tools/output_digests.py --dump a.npz         # also keep the raw outputs
    python3 tools/output_digests.py --against a.npz      # and compare them with a dump

It evaluates every catalogue input of the benchmark (``bench/workloads.py``,
imported read-only): the 96 ``estimate_large`` estimates, the per-replication
ISEs of the 128 ``mc_cells`` cells, and the ``diagnose_exact`` moments (mean
and variance).  ``mc_odd`` holds the per-replication ISEs of configs B and F
at n = 100 with 5 replications, every default kernel (line ``B,F``) and
``ig`` alone (line ``ig``, a kernel that no ``mc_cells`` cell fits): their
whole grids go in blocks of 2, 2 and 1 samples, where the 8 replications of
an ``mc_cells`` cell leave no odd block.  Two more estimates per kernel, at
Silverman's bandwidth on 512 grid points, reach block-loop branches that no
workload does: ``estimate_n32769`` (config D at n = 32769, whose whole-row
blocks are one row) and ``estimate_n2000`` (config E at n = 2000, blocks of 16 rows, some
with the masked exp and some with the plain one).  The windowed rows'
branches are reached by ``estimate_large`` and by ``estimate_n32769``,
whose blocks hold at most 32769 entries: blocks of several windowed rows,
and runs of windowed rows that the budget splits.  Counted by recording
each block of the row loop: ``estimate_large`` puts 6747 windowed rows in
694 blocks for ``ge``, all of several rows, 678 of them split from the next
by the budget, 6660 in 695 for ``ge2``, 2522 in 663 for ``rig`` and 33 in
14 for ``ig``; ``estimate_n32769`` puts 425 in 106 blocks for ``ge``, 21 of
several rows, 422 in 106 for ``ge2`` and 34 one-row blocks for ``rig``.  No
gamma-kernel row has a window.  ``exact_moments`` holds
the moments that the ``diagnose_exact`` catalogue does not reach, under
Gamma(3, 1) and config D: ``ge2`` at x < b (the rule in the kernel's
probability, through ``kernels._ge_quantiles``) and the one-location
``gam2`` (both sides of x = 2b) and ``ig`` builds; and ``ge`` and ``ge2``
on config F at x = 331.7, b = 142.7, near F's Silverman bandwidth, and
``ge``, ``ge2`` and ``rig`` at x = 1000, b = 100, far beyond the mass of
Gamma(3, 1).  ``exact_inf_k`` holds ``ge2`` at x = 0.01 b and 0.1 b, b = 1,
under Gamma(3, 1) and config D: there some u-rule nodes have K = inf where
f = 0, the second moment first sums to nan, and the entries are set to 0
(no other input reaches that branch).  ``densities`` holds the roughness
and the 0.05%, 50% and 99.95% quantiles of configs A-F, on which the
theorem-2 bandwidths and the ISE grids rest.  Each line gives one workload
and kernel, the number of values and the SHA-256 of their float64 bytes in
catalogue order, so two checkouts whose outputs keep every bit print the
same lines: 36 lines after the first, which names the machine: nproc and
the Python, numpy and scipy versions.

With ``--against``, a kernel whose digest differs from the dump's also gets
its largest deviation: for an estimate, the largest ``|fhat - fhat_ref|``
over the estimate's maximum; for an ISE or a moment, the largest relative
deviation.  It then exits 1 if any line reads "differs" or "(not in the
dump)", so a script can gate on it, and 0 otherwise.  Runs single-threaded
(``OPENBLAS_NUM_THREADS`` and the like default to 1) and takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import sys
from collections import defaultdict
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent


def _collect(workloads) -> dict:
    """{(workload, kernel): [one float64 array per catalogue input]}."""
    import gekde  # the package that main put first on the path

    out = defaultdict(list)
    refs = defaultdict(dict)
    for op in workloads.EstimateLarge.catalogue(refs):
        est = op.run()
        out["estimate_large", est.kernel.value].append(np.asarray(est.values, dtype=float))
    for op in workloads.McCells.catalogue(refs):
        for report in op.run():
            out["mc_cells", report.kernel.value].append(
                np.asarray(report.per_replication_ise, dtype=float))
    for kernels, key in ((gekde.DEFAULT_KERNELS, "B,F"), ((gekde.Kernel.IG,), "ig")):
        for config in ("B", "F"):
            cell = gekde.ExperimentConfig(config, kernels, n=100, replications=5, seed=1,
                                          grid_size=256)
            for report in gekde.run_experiment(cell):
                out["mc_odd", key].append(np.asarray(report.per_replication_ise, dtype=float))
    for op in workloads.DiagnoseExact.catalogue(refs):
        inp, m = op.run()
        out["diagnose_exact", inp.kernel.value].append(np.array([m.mean, m.variance]))
    for config, n in (("D", 32769), ("E", 2000)):
        sample = gekde.CONFIGURATIONS[config].sample(n, 5)
        grid = gekde.default_grid(sample, 512)
        for kernel in gekde.Kernel:
            b = gekde.silverman_bandwidth(sample, kernel).value
            g = grid[gekde.estimator._domain_start(kernel, grid, b):]
            out[f"estimate_n{n}", kernel.value].append(
                gekde.estimate_density(sample, kernel, b, g).values)
    points = {
        gekde.Kernel.GE2: [(x, 0.5) for x in (0.15, 0.3, 0.45)]
        + [(x, 0.2) for x in (0.05, 0.1, 0.19)],
        gekde.Kernel.GAM2: [(x, 0.1) for x in (0.05, 0.15, 0.3, 2.0)],
        gekde.Kernel.IG: [(x, b) for x in (0.5, 2.0, 5.0) for b in (0.001, 0.01)],
    }
    gamma3, config_f = gekde.GammaDensity(3.0, 1.0), gekde.CONFIGURATIONS["F"]
    cases = [(density, kernel, x, b) for density in (gamma3, gekde.CONFIGURATIONS["D"])
             for kernel, at in points.items() for x, b in at]
    cases += [(config_f, kernel, 331.7, 142.7) for kernel in (gekde.Kernel.GE, gekde.Kernel.GE2)]
    cases += [(gamma3, kernel, 1000.0, 100.0)
              for kernel in (gekde.Kernel.GE, gekde.Kernel.GE2, gekde.Kernel.RIG)]
    for density, kernel, x, b in cases:
        m = gekde.exact_estimator_moments(kernel, x, b, density, 100)
        out["exact_moments", kernel.value].append(np.array([m.mean, m.variance]))
    for density in (gamma3, gekde.CONFIGURATIONS["D"]):
        for x in (0.01, 0.1):
            m = gekde.exact_estimator_moments(gekde.Kernel.GE2, x, 1.0, density, 100)
            out["exact_inf_k", "ge2"].append(np.array([m.mean, m.variance]))
    for density in gekde.CONFIGURATIONS.values():
        out["densities", "A-F"].append(np.array(
            [density.roughness()] + [density.quantile(p) for p in (0.0005, 0.5, 0.9995)]))
    return out


def _deviation(workload: str, got: list, ref: list) -> float:
    """Largest deviation of ``got`` from ``ref``, scaled as the module docstring says."""
    worst = 0.0
    for g, r in zip(got, ref):
        if workload.startswith("estimate"):
            scale = np.full(r.shape, np.max(np.abs(r)))
        else:
            scale = np.abs(r)
        with np.errstate(invalid="ignore", divide="ignore"):
            dev = np.where(g == r, 0.0, np.abs(g - r) / scale)
        worst = max(worst, float(np.max(dev, initial=0.0)))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the gekde package to digest (default: ./src)")
    parser.add_argument("--dump", type=Path, help="write the raw outputs to this .npz file")
    parser.add_argument("--against", type=Path,
                        help="compare with the raw outputs of an earlier --dump")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "bench")]
    import gekde
    import workloads

    print(f"nproc {os.cpu_count()}  python {platform.python_version()}  "
          f"numpy {np.__version__}  scipy {scipy.__version__}  gekde {gekde.__file__}")
    outputs = _collect(workloads)
    flat = {f"{w}/{k}": np.concatenate(v) for (w, k), v in outputs.items()}
    ref = dict(np.load(args.against)) if args.against else None
    same = True
    for (workload, kernel), arrays in outputs.items():
        name = f"{workload}/{kernel}"
        digest = hashlib.sha256(flat[name].tobytes()).hexdigest()
        line = f"{workload:15s} {kernel:5s} {flat[name].size:6d} values  {digest}"
        if ref is not None:
            want = ref.get(name)
            if want is None:
                line += "  (not in the dump)"
            elif want.size != flat[name].size:
                line += f"  differs: {want.size} values in the dump"
            elif np.array_equal(flat[name].view(np.uint64), want.view(np.uint64)):
                line += "  same bits"
            else:
                parts = np.split(want, np.cumsum([a.size for a in arrays])[:-1])
                line += f"  differs: max deviation {_deviation(workload, arrays, parts):.3g}"
            same &= line.endswith("same bits")
        print(line)
    if args.dump:
        np.savez(args.dump, **flat)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
