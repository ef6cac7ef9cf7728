"""The three benchmark workloads: inputs, timed operations and output checks.

Every workload draws its inputs from a catalogue whose outputs are stored in
``refs.json``; the run's ``--seed`` picks which catalogue entries a run uses
and in which order.  Every timed operation is therefore checked against a
stored reference, whatever the seed.

- ``mc_cells``: one operation is one ``run_experiment`` call (n=100, grid 256,
  ``threads=1``, ``MC_REPS`` replications) on cell A, B, C or F.
- ``estimate_large``: one operation is one ``estimate_density`` call at
  n=20000 on the 512-point ``default_grid`` of a config D or E sample.
- ``diagnose_exact``: one operation is one ``exact_estimator_moments`` call
  at an interior or boundary point of Gamma(3,1), config A or config D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from gekde import (
    CONFIGURATIONS,
    DEFAULT_KERNELS,
    ExperimentConfig,
    GammaDensity,
    Kernel,
    Sample,
    default_grid,
    estimate_density,
    exact_estimator_moments,
    numeric_bandwidth_ge,
    optimal_bandwidth_ge2,
    run_experiment,
    silverman_bandwidth,
)

WORKLOADS = ("mc_cells", "estimate_large", "diagnose_exact")

#: Relative tolerance of every stored-reference comparison.  Swapping two
#: kernels moves the compared values by 1e-2 or more; vectorising a kernel or
#: reordering a sum, by 1e-12 or less.
RTOL = 1e-6
#: Absolute floors: quadrature moments are accurate to the ``epsabs`` that
#: ``exact_estimator_moments`` uses (1e-10), the variance to that over n.
MEAN_ATOL = 1e-10
#: fhat values are compared with an absolute floor of this share of the
#: estimate's maximum, so underflowing tail values do not decide the check.
FHAT_ATOL_SHARE = 1e-9

# --- mc_cells ---------------------------------------------------------------
MC_N = 100
MC_GRID = 256
MC_REPS = 8
MC_CATALOGUE = 32  # experiment seeds per cell
_MC4 = (Kernel.GE, Kernel.GAM1, Kernel.GAM2, Kernel.RIG)
#: Cells A-C use the criterion-7 kernels; cell F the five default kernels.
MC_CELLS = (("A", _MC4), ("B", _MC4), ("C", _MC4), ("F", DEFAULT_KERNELS))

# --- estimate_large ---------------------------------------------------------
LARGE_N = 20000
LARGE_GRID = 512
LARGE_CONFIGS = ("D", "E")
LARGE_CATALOGUE = 8  # sample seeds per config
LARGE_KERNELS = tuple(Kernel)
_FHAT_STRIDE = 32

# --- diagnose_exact ---------------------------------------------------------
DIAG_N = 100
DIAG_DENSITIES = (("G3", GammaDensity(3.0, 1.0)), ("A", CONFIGURATIONS["A"]),
                  ("D", CONFIGURATIONS["D"]))
DIAG_KERNELS = (Kernel.GE, Kernel.GE2, Kernel.GAM1, Kernel.RIG)
DIAG_SWEEP = (0.5, 1.0, 2.0)      # multiples of the plug-in optimum
DIAG_JITTER = (0.85, 1.0, 1.2)    # seed-picked factor on each sweep bandwidth
DIAG_BOUNDARY_C = (1.5, 2.5)      # seed-picked c of the boundary point x = c*b
#: Interior points with x/b at least this large (the interior rule of
#: ``gekde diagnose``) get the variance-constant check 4 b (n Var + mean**2)
#: ~ f(x); over the catalogue the worst such point is 9.7% off.
DIAG_THEORY_MIN_XB = 20.0
DIAG_THEORY_TOL = 0.15


# --- machine-speed calibration ---------------------------------------------
# The benchmark box's speed drifts by up to 1.7x as other tenants load the
# shared cores.  After every timed call the loop times a fixed calibration
# kernel that does the same kind of work as the workload's calls but runs no
# gekde code.  run.py multiplies each call's time by the workload's
# ``cal_ref_ms`` over the median of the five calibration times around it: the
# time at the speed where the calibration takes its reference time.  Raw
# times are printed beside the scaled ones.

_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = np.sort(_CAL_RNG.gamma(5.0, 1.0, MC_N))
_CAL_LARGE = np.sort(_CAL_RNG.gamma(5.0, 1.0, LARGE_N))
_CAL_GRID = np.linspace(0.5, 15.0, MC_GRID)


def _gamma_rows(z, grid, b=0.5):
    """Per-row log-domain gamma kernel means: estimate_density's access pattern."""
    total = 0.0
    for x in grid:
        a = x / b + 1.0
        total += float(np.mean(np.exp((a - 1.0) * np.log(z) - z / b - a * math.log(b)
                                      - math.lgamma(a))))
    return total


def calibrate_small() -> float:
    """Small-vector rows and per-sample statistics, as in a run_experiment replication."""
    total = 0.0
    for _ in range(4):
        z = np.sort(_CAL_SMALL[::-1])
        np.percentile(z, [75.0, 25.0])
        total += _gamma_rows(z, _CAL_GRID)
    return total


def calibrate_large() -> float:
    """Long-vector exp/log rows, as in an n=20000 estimate_density call."""
    return _gamma_rows(_CAL_LARGE, _CAL_GRID[::4])


def _scalar_log_gamma_pdf(z, b):
    """Scalar log density through numpy, with log_kernel's argument checks."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)) or np.any(z <= 0.0):
        raise ValueError("z must be positive and finite")
    out = 4.0 * np.log(z) - z / b - 5.0 * math.log(b) - math.lgamma(5.0)
    return float(out) if np.ndim(out) == 0 else out


def calibrate_scalar() -> float:
    """Adaptive quadrature of a scalar integrand built from numpy calls, as in exact moments."""
    total = 0.0
    for b in (0.3, 0.8):
        def integrand(z, b=b):
            return math.exp(_scalar_log_gamma_pdf(z, b)) * float(np.exp(-0.2 * np.asarray(z)))
        total += sum(quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=200)[0]
                     for lo, hi in ((0.0, 2.0), (2.0, 30.0), (30.0, np.inf)))
    return total


@dataclass
class Op:
    """One timed library call, its catalogue key and its output check."""

    key: str
    run: Callable[[], object]
    summarize: Callable[[object], dict]
    ref: dict | None
    inputs: object = None  # what the traced run replays
    units: int = 1  # work counted by ops_per_s: fits for mc_cells, else calls
    extra_check: Callable[[object], list] | None = None

    def check(self, out) -> list:
        """Mismatches of ``out`` against the stored reference, as messages."""
        if self.ref is None:
            return [f"{self.key}: no stored reference"]
        problems = compare(self.summarize(out), self.ref, self.key)
        if self.extra_check is not None:
            problems += self.extra_check(out)
        return problems


# --- stored-reference comparison -------------------------------------------

def to_json_float(v: float):
    """Floats go to JSON as numbers; infinities as the strings 'inf'/'-inf'."""
    v = float(v)
    return v if math.isfinite(v) else ("inf" if v > 0 else "-inf")


def _close(got: float, ref: float, atol: float) -> bool:
    if math.isinf(ref) or math.isinf(got) or math.isnan(got):
        return got == ref
    return abs(got - ref) <= RTOL * abs(ref) + atol


def compare(got: dict, ref: dict, key: str) -> list:
    """Compare an output summary with its reference.

    Strings, booleans and integers must match exactly, floats within
    ``RTOL`` plus the absolute floor the summary names under ``atol``
    (a dict from field name to floor).
    """
    atol = ref.get("atol", {})
    problems = []
    for name, want in ref.items():
        if name == "atol":
            continue
        have = got.get(name)
        if isinstance(want, list):
            if not isinstance(have, list) or len(have) != len(want):
                problems.append(f"{key}: {name} has {have!r}, reference {want!r}")
                continue
            pairs = list(zip(have, want))
        else:
            pairs = [(have, want)]
        for h, w in pairs:
            if isinstance(w, float) or w in ("inf", "-inf"):
                # float() also parses the stored "inf" strings
                ok = h is not None and _close(float(h), float(w), atol.get(name, 0.0))
            else:
                ok = h == w
            if not ok:
                problems.append(f"{key}: {name} is {h!r}, reference {w!r} (rtol {RTOL:g})")
                break
    return problems


# --- mc_cells ----------------------------------------------------------------

def mc_config(cell: str, index: int) -> ExperimentConfig:
    kernels = dict(MC_CELLS)[cell]
    seed = 1000 * (1 + [c for c, _ in MC_CELLS].index(cell)) + index
    return ExperimentConfig(cell, kernels=kernels, n=MC_N, replications=MC_REPS,
                            seed=seed, grid_size=MC_GRID)


def mc_summary(reports) -> dict:
    return {
        "kernels": [r.kernel.value for r in reports],
        "replications": [int(r.per_replication_ise.size) for r in reports],
        "mean_ise": [to_json_float(r.mean_ise) for r in reports],
        "truncated": [bool(r.truncated) for r in reports],
    }


def mc_key(cfg: ExperimentConfig) -> str:
    return f"{cfg.config_id}/{cfg.seed}"


def mc_op(cfg: ExperimentConfig, refs: dict) -> Op:
    return Op(key=mc_key(cfg), run=lambda: run_experiment(cfg, threads=1),
              summarize=mc_summary, ref=refs["mc_cells"].get(mc_key(cfg)), inputs=cfg,
              units=len(cfg.kernels) * cfg.replications)


class McCells:
    name = "mc_cells"
    calibrate = staticmethod(calibrate_small)
    cal_ref_ms = 15.0

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs

    def cycle(self, k: int) -> list:
        """Cells A, B, C, F in turn, each at a seed-picked catalogue entry."""
        rng = np.random.default_rng([self.seed, 11, k])
        picks = rng.integers(MC_CATALOGUE, size=len(MC_CELLS))
        return [mc_op(mc_config(cell, int(i)), self.refs)
                for (cell, _), i in zip(MC_CELLS, picks)]

    def warmup(self) -> None:
        run_experiment(ExperimentConfig("F", n=MC_N, replications=1, seed=0,
                                        grid_size=MC_GRID))

    @staticmethod
    def catalogue(refs: dict) -> list:
        """Every call the seed can pick, for regenerating refs.json."""
        return [mc_op(mc_config(cell, i), refs)
                for cell, _ in MC_CELLS for i in range(MC_CATALOGUE)]


# --- estimate_large ------------------------------------------------------------

@dataclass
class LargeInput:
    """One estimate_density call: sample, kernel, bandwidth and grid."""

    key: str
    config_id: str
    index: int
    sample: Sample
    kernel: Kernel
    bandwidth: object
    grid: np.ndarray


def large_sample(config_id: str, index: int) -> Sample:
    seed = 100 * (1 + LARGE_CONFIGS.index(config_id)) + index
    return CONFIGURATIONS[config_id].sample(LARGE_N, seed)


def large_inputs(config_id: str, index: int) -> list:
    """Inputs of the six estimate_density calls on one catalogue sample.

    Each kernel takes its Silverman bandwidth on ``default_grid``; the RIG
    grid is clipped to points above the bandwidth, as ``gekde estimate`` does.
    """
    sample = large_sample(config_id, index)
    grid = default_grid(sample, LARGE_GRID)
    out = []
    for kernel in LARGE_KERNELS:
        bw = silverman_bandwidth(sample, kernel)
        g = grid[grid > bw.value] if kernel is Kernel.RIG else grid
        out.append(LargeInput(f"{config_id}/{index}/{kernel.value}", config_id, index,
                              sample, kernel, bw, g))
    return out


def large_summary(est) -> dict:
    values = est.values
    idx = list(range(0, values.size, _FHAT_STRIDE)) + [values.size - 1]
    return {
        "kernel": est.kernel.value,
        "n": int(est.n),
        "bandwidth": float(est.bandwidth.value),
        "grid_size": int(est.grid.size),
        "grid_first": float(est.grid[0]),
        "fhat": [float(values[i]) for i in idx],
        "mass": float(np.trapezoid(values, est.grid)),
        "atol": {"fhat": FHAT_ATOL_SHARE * float(np.max(np.abs(values)))},
    }


def large_run(inp: LargeInput):
    return lambda: estimate_density(inp.sample, inp.kernel, inp.bandwidth, inp.grid)


def _large_sanity(est) -> list:
    v = est.values
    if not (np.all(np.isfinite(v)) and np.all(v >= 0.0)):
        return [f"estimate {est.kernel.value}: fhat not finite and non-negative"]
    return []


class EstimateLarge:
    name = "estimate_large"
    calibrate = staticmethod(calibrate_large)
    cal_ref_ms = 7.5

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.ops = {}  # (config, catalogue index) -> the six calls on that sample
        for cid in LARGE_CONFIGS:
            for i in range(LARGE_CATALOGUE):
                self.ops[cid, i] = [
                    Op(key=inp.key, run=large_run(inp), summarize=large_summary,
                       ref=refs["estimate_large"].get(inp.key), inputs=inp,
                       extra_check=_large_sanity)
                    for inp in large_inputs(cid, i)]

    def cycle(self, k: int) -> list:
        """Twelve calls: six kernels on a seed-picked D sample and E sample."""
        rng = np.random.default_rng([self.seed, 12, k])
        picks = rng.integers(LARGE_CATALOGUE, size=len(LARGE_CONFIGS))
        return [op for cid, i in zip(LARGE_CONFIGS, picks) for op in self.ops[cid, int(i)]]

    def warmup(self) -> None:
        small = Sample(self.ops[LARGE_CONFIGS[0], 0][0].inputs.sample.values[::100])
        grid = default_grid(small, 64)
        for kernel in LARGE_KERNELS:
            bw = silverman_bandwidth(small, kernel)
            estimate_density(small, kernel, bw, grid[grid > bw.value])

    @classmethod
    def catalogue(cls, refs: dict) -> list:
        """Every call the seed can pick, for regenerating refs.json."""
        return [op for ops in cls(0, refs).ops.values() for op in ops]


# --- diagnose_exact --------------------------------------------------------------

def _gradient_integrals(density):
    """(integral of f' f'', integral of f'**2), the numeric_bandwidth_ge inputs."""
    hi = density.quantile(1.0 - 1e-9)
    a1, _ = quad(lambda x: float(density.pdf_d1(x)) * float(density.pdf_d2(x)),
                 0.0, hi, limit=200)
    a2, _ = quad(lambda x: float(density.pdf_d1(x)) ** 2, 0.0, hi, limit=200)
    return a1, a2


def _mode_and_shoulder(density):
    """Global mode, and the point right of it where f falls to half its peak."""
    lo, hi = density.quantile(0.001), density.quantile(0.999)
    xs = np.linspace(lo, hi, 4097)
    j = int(np.argmax(density.pdf(xs)))
    step = xs[1] - xs[0]
    res = minimize_scalar(lambda x: -density.pdf(x), method="bounded",
                          bounds=(xs[j] - step, xs[j] + step), options={"xatol": 1e-10})
    mode = float(res.x)
    half = 0.5 * density.pdf(mode)
    shoulder = brentq(lambda x: density.pdf(x) - half, mode, density.quantile(0.99999),
                      xtol=1e-12)
    return mode, float(shoulder)


@dataclass
class DiagDensity:
    """A diagnose density with its plug-in bandwidths, mode and shoulder."""

    name: str
    density: object
    base_bandwidth: dict  # kernel -> plug-in optimum
    mode: float
    shoulder: float


def diag_densities() -> list:
    """Plug-in optima and probe points, built through gekde's API.

    ``ge2`` takes ``optimal_bandwidth_ge2`` on the exact roughness, ``ge``
    takes ``numeric_bandwidth_ge``; ``gam1`` and ``rig`` take the square of the
    ``ge2`` optimum, the package's h -> h**2 family mapping.
    """
    out = []
    for name, density in DIAG_DENSITIES:
        b_ge2 = optimal_bandwidth_ge2(density.roughness(), DIAG_N).value
        b_ge = numeric_bandwidth_ge(*_gradient_integrals(density), DIAG_N).value
        mode, shoulder = _mode_and_shoulder(density)
        base = {Kernel.GE: b_ge, Kernel.GE2: b_ge2,
                Kernel.GAM1: b_ge2 ** 2, Kernel.RIG: b_ge2 ** 2}
        out.append(DiagDensity(name, density, base, mode, shoulder))
    return out


@dataclass
class DiagInput:
    key: str
    dens: DiagDensity
    kernel: Kernel
    x: float
    b: float
    interior: bool


def diag_inputs(dens: DiagDensity, kernel: Kernel, sweep: float, jitter: float,
                points) -> list:
    b = dens.base_bandwidth[kernel] * sweep * jitter
    out = []
    for point in points:
        if point == "mode":
            x, interior = dens.mode, True
        elif point == "shoulder":
            x, interior = dens.shoulder, True
        else:
            x, interior = float(point[1:]) * b, False
        key = f"{dens.name}/{kernel.value}/s{sweep:g}/j{jitter:g}/{point}"
        out.append(DiagInput(key, dens, kernel, x, b, interior))
    return out


def diag_run(inp: DiagInput):
    return lambda: (inp, exact_estimator_moments(inp.kernel, inp.x, inp.b, inp.dens.density,
                                                 DIAG_N))


def diag_summary(result) -> dict:
    inp, m = result
    fx = float(inp.dens.density.pdf(inp.x))
    return {
        "x": inp.x,
        "b": inp.b,
        "mean": m.mean,
        "variance": m.variance,
        "four_b_n_var": 4.0 * inp.b * DIAG_N * m.variance,
        "f_x": fx,
        "atol": {"mean": MEAN_ATOL, "variance": MEAN_ATOL / DIAG_N,
                 "four_b_n_var": 4.0 * inp.b * MEAN_ATOL},
    }


def diag_theory(result) -> list:
    """Variance constant of the GE estimators: 4 b (n Var + mean**2) ~ f(x).

    The leading term of n Var is f(x)/(4b) minus mean**2, so the check holds
    for ge and ge2 well inside the support; other points are only compared
    with their references.
    """
    inp, m = result
    if inp.kernel not in (Kernel.GE, Kernel.GE2) or not inp.interior:
        return []
    if inp.x / inp.b < DIAG_THEORY_MIN_XB:
        return []
    fx = float(inp.dens.density.pdf(inp.x))
    lead = 4.0 * inp.b * (DIAG_N * m.variance + m.mean ** 2)
    if abs(lead - fx) > DIAG_THEORY_TOL * fx:
        return [f"{inp.key}: 4b(nVar+mean^2) = {lead:.6g} is not within "
                f"{DIAG_THEORY_TOL:.0%} of f(x) = {fx:.6g}"]
    return []


def diag_op(inp: DiagInput, refs: dict) -> Op:
    return Op(key=inp.key, run=diag_run(inp), summarize=diag_summary,
              ref=refs["diagnose_exact"].get(inp.key), inputs=inp, extra_check=diag_theory)


class DiagnoseExact:
    name = "diagnose_exact"
    calibrate = staticmethod(calibrate_scalar)
    cal_ref_ms = 6.4

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs
        self.densities = diag_densities()

    def cycle(self, k: int) -> list:
        """108 calls: 3 densities x 4 kernels x 3 sweep bandwidths x 3 points.

        The seed picks the jitter of each sweep bandwidth and the boundary
        constant c; the points are the mode, the shoulder and x = c*b.
        """
        rng = np.random.default_rng([self.seed, 13, k])
        ops = []
        for dens in self.densities:
            for kernel in DIAG_KERNELS:
                for sweep in DIAG_SWEEP:
                    jitter = DIAG_JITTER[int(rng.integers(len(DIAG_JITTER)))]
                    c = DIAG_BOUNDARY_C[int(rng.integers(len(DIAG_BOUNDARY_C)))]
                    points = ("mode", "shoulder", f"c{c:g}")
                    ops += [diag_op(inp, self.refs)
                            for inp in diag_inputs(dens, kernel, sweep, jitter, points)]
        return ops

    def warmup(self) -> None:
        dens = self.densities[0]
        exact_estimator_moments(Kernel.GE, dens.mode, dens.base_bandwidth[Kernel.GE],
                                dens.density, DIAG_N)

    @staticmethod
    def catalogue(refs: dict) -> list:
        """Every call the seed can pick, for regenerating refs.json."""
        points = ("mode", "shoulder") + tuple(f"c{c:g}" for c in DIAG_BOUNDARY_C)
        return [diag_op(inp, refs)
                for dens in diag_densities() for kernel in DIAG_KERNELS
                for sweep in DIAG_SWEEP for jitter in DIAG_JITTER
                for inp in diag_inputs(dens, kernel, sweep, jitter, points)]


#: Input sizes per workload, for the run's provenance.
INPUT_SIZES = {
    "mc_cells": {"n": MC_N, "grid": MC_GRID, "replications": MC_REPS,
                 "cells": [c for c, _ in MC_CELLS], "catalogue_per_cell": MC_CATALOGUE},
    "estimate_large": {"n": LARGE_N, "grid": LARGE_GRID, "configs": list(LARGE_CONFIGS),
                       "kernels": [k.value for k in LARGE_KERNELS],
                       "catalogue_per_config": LARGE_CATALOGUE},
    "diagnose_exact": {"n": DIAG_N, "densities": [d for d, _ in DIAG_DENSITIES],
                       "kernels": [k.value for k in DIAG_KERNELS], "sweep": list(DIAG_SWEEP),
                       "jitter": list(DIAG_JITTER), "boundary_c": list(DIAG_BOUNDARY_C)},
}

CLASSES = {cls.name: cls for cls in (McCells, EstimateLarge, DiagnoseExact)}


def build(name: str, seed: int, refs: dict):
    """The workload's inputs, built through gekde's API (the timed set-up)."""
    return CLASSES[name](seed, refs)
