#!/usr/bin/env python3
"""Equivocation against distortion for the binary erasure/flip model.

Walk through the closed-form machinery: evaluate a few hand-picked operating
points, then trace both trade-off curves (two-layer optimum and the
single-layer scheme) over a log-spaced distortion grid and locate where they
merge.  Writes the curves to binary_curves.csv in the working directory.
"""

import os

import numpy as np

from rdeq import (
    binary_bec_bsc_bounds,
    binary_frontier,
    binary_merge_threshold,
    h2,
    h2_inv,
)

p = 0.1
eps = h2(p)  # erasure probability chosen to equal the flip channel's entropy
print(f"flip probability p = {p}, erasure probability eps = h2(p) = {eps:.4f}")
print()

# A couple of single points first.  At alpha = 0 the main link carries the
# source losslessly; the helper layer still buys a little secrecy.
lossless = binary_bec_bsc_bounds(p, eps, alpha=0.0, beta=0.078)
print(f"lossless point:   rate {lossless.r_a_min:.3f}, equivocation {lossless.delta_max:.3f}")

# Capping the rate at 80% of the lossless requirement forces some distortion
# and buys a disproportionate amount of equivocation.
cap = 0.8 * eps
alpha_cap = h2_inv(1.0 - cap / eps)
capped = binary_frontier(p, eps, [eps * alpha_cap], rate_cap=cap).points[0]
print(f"80% rate cap:     rate {capped.point.r_a:.3f}, distortion {capped.point.d:.3f}, "
      f"equivocation {capped.point.delta:.3f}")
print(f"                  (a {capped.point.delta / lossless.delta_max:.1f}x gain over the "
      "lossless point for a 1.5% bit error at the legitimate decoder)")
print()

# Full curves over a log grid.
grid = np.geomspace(1e-4, 0.2, 80)
optimal = binary_frontier(p, eps, grid)
single = binary_frontier(p, eps, grid, force_beta_zero=True)

merge = binary_merge_threshold(p, eps)
print(f"single-layer coding is already optimal for distortion above {merge:.4f}")

out = os.path.join(os.getcwd(), "binary_curves.csv")
with open(out, "w", encoding="utf-8") as fh:
    fh.write("D,Delta_opt,Delta_single,alpha,beta\n")
    for po, ps in zip(optimal.points, single.points):
        fh.write(f"{po.sweep:.6g},{po.point.delta:.6g},{ps.point.delta:.6g},"
                 f"{po.params['alpha']:.6g},{po.params['beta']:.6g}\n")
print(f"curves written to {out}")
