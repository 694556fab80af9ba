#!/usr/bin/env python3
"""Finite-blocklength run of the layered binning code, with exact equivocation.

Builds a single-layer code for the binary erasure/flip source, runs Monte
Carlo trials at a few blocklengths, and compares the exact per-symbol
equivocation H(A^n | J, E^n)/n (computed by enumerating the source space)
against the closed-form single-letter value for the same quantizer.
"""

import numpy as np

from rdeq import (
    AuxiliarySystem,
    Channel,
    CodeConfig,
    DistortionMeasure,
    binary_bec_bsc_bounds,
    h2,
    make_bec_bsc_source,
    run_experiment,
)

p, alpha = 0.1, 0.15
eps = h2(p)
source = make_bec_bsc_source(p, eps)
target = binary_bec_bsc_bounds(p, eps, alpha, 0.0).delta_max

# quantizer V = BSC(alpha)(A) sent losslessly within the codebook (singleton
# bins); the helper thins its observation to keep its codebook small
w_rows = np.array([[0.65, 0.35, 0.0], [0.0, 1.0, 0.0], [0.0, 0.35, 0.65]])
system = AuxiliarySystem(
    u_given_v=Channel.identity(2),
    v_given_a=Channel.bsc(alpha),
    w_given_c=Channel(w_rows),
    reconstruction=np.array([[0, 0, 1], [0, 1, 1]]),
)
d = DistortionMeasure.hamming(2)

print(f"single-letter equivocation for this quantizer: {target:.4f} bits/symbol")
print(f"{'n':>3} {'decode err':>10} {'distortion':>10} {'equivocation':>12} {'gap':>8}")
slack = {8: 0.140, 10: 0.155, 12: 0.190, 14: 0.215}
for n in (8, 10, 12, 14):
    cfg = CodeConfig(n=n, r1=0.84, r2=0.0, rc_link=1.029, s1=0.84, s2=0.0, sc=1.029,
                     delta_n=slack[n], seed=11)
    rep = run_experiment(source, system, d, cfg, trials=4000)
    print(f"{n:>3} {rep.decode_error_rate:10.3f} {rep.empirical_distortion:10.3f} "
          f"{rep.exact_equivocation:12.4f} {rep.exact_equivocation - target:+8.4f}")
print()
print("the equivocation gap closes as the blocklength grows; the residual is")
print("the finite-length cost of count-based typical-set encoding")
