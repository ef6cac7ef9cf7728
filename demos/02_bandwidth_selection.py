"""Tour of the three bandwidth rules.

Silverman's rule-of-thumb maps one h to each kernel family (the
generalised-exponential kernels smooth on the h scale, the gamma/IG/RIG
family on h**2).  For the mean-parameterised GE kernel the approximate-MISE
optimum has a closed form driven by the curvature functional of f''; for the
mode-parameterised one the approximate MISE is minimised numerically.  Both
optima need functionals of the true density; ``select_bandwidth`` plugs in
those of a gamma reference fitted to the sample.
"""

from scipy.integrate import quad

from gekde import (
    DEFAULT_KERNELS,
    GammaDensity,
    Kernel,
    numeric_bandwidth_ge,
    optimal_bandwidth_ge2,
    select_bandwidth,
    silverman_bandwidth,
)

truth = GammaDensity(3.0, 1.0)
sample = truth.sample(500, seed=21)

print("Silverman rule-of-thumb, per kernel family")
print(f"{'kernel':<8}{'bandwidth':>12}")
for kernel in DEFAULT_KERNELS:
    bw = silverman_bandwidth(sample, kernel)
    print(f"{kernel.value:<8}{bw.value:>12.5f}")

# --- closed-form optimum for the mean-parameterised kernel ---------------
# roughness = integral of f''(x)^2; for Gamma(3,1) this is exactly 3/16
roughness = truth.roughness()
print(f"\ncurvature functional of Gamma(3,1): {roughness:.10f} (exact 3/16 = {3 / 16})")
for n in (100, 400, 1600):
    bw = optimal_bandwidth_ge2(roughness, n)
    print(f"  n={n:<6d} optimal ge2 bandwidth {bw.value:.5f}")
print("  (shrinks like n^(-1/5): each 4x in n multiplies b* by 4^(-1/5))")

# --- numerical optimum for the mode-parameterised kernel -----------------
hi = truth.quantile(1.0 - 1e-9)
a1, _ = quad(lambda x: truth.pdf_d1(x) * truth.pdf_d2(x), 0.0, hi, limit=200)
a2, _ = quad(lambda x: truth.pdf_d1(x) ** 2, 0.0, hi, limit=200)
print(f"\nslope functionals of Gamma(3,1): a1 = {a1:.6f}, a2 = {a2:.6f}")
for n in (100, 400, 1600):
    bw = numeric_bandwidth_ge(a1, a2, n)
    print(f"  n={n:<6d} numeric ge bandwidth {bw.value:.5f}")
print("  (the ge optimum shrinks like n^(-1/3): its leading bias is first order)")

# --- plug-in rules: the same optima from the sample alone ----------------
print(f"\nfrom the sample (n={sample.n}), with a gamma reference fitted by moments")
print(f"{'rule':<14}{'plug-in':>10}{'true density':>14}")
for method, kernel, exact in (
    ("optimal_ge2", Kernel.GE2, optimal_bandwidth_ge2(roughness, sample.n)),
    ("numeric_ge", Kernel.GE, numeric_bandwidth_ge(a1, a2, sample.n)),
):
    bw = select_bandwidth(sample, kernel, method)
    print(f"{method:<14}{bw.value:>10.5f}{exact.value:>14.5f}")
