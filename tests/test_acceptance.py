"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

from pathlib import Path
import json
import math
import time

import numpy as np
import pytest

from rdeq import (
    Channel,
    DistortionMeasure,
    JointSource,
    classify_bec_bsc_regime,
    conditional_mi,
    h2,
    make_bec_bsc_source,
    mutual_information,
    star,
)
from rdeq.cli import main, reproduce_fig10, reproduce_table3
from rdeq.optimize import (
    RegionConstraints,
    brute_force_oracle,
    generic_inner_frontier,
)
from rdeq.regions import (
    AuxiliarySystem,
    GaussianParams,
    binary_bec_bsc_bounds,
    corner_point,
    gaussian_inner,
    gaussian_optimal_no_eve_si,
)
from rdeq.simulate import CodeConfig, exact_equivocation, generate_codebooks, run_experiment

DATA_DIR = Path(__file__).parent / "data"

HAMMING2 = DistortionMeasure.hamming(2)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_table_reproduction(capsys):
    t0 = time.monotonic()
    lines, failures = reproduce_table3()
    rc = main(["reproduce", "table3", "--out", "/dev/null"])
    elapsed = time.monotonic() - t0
    ok = not failures and rc == 0 and elapsed < 10.0
    _report(1, ok, f"table numbers within tolerance, exit {rc}, {elapsed:.1f}s "
                   f"(failures: {failures or 'none'})")


def test_criterion_2_curve_structure(capsys):
    t0 = time.monotonic()
    lines, failures = reproduce_fig10()
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    _report(2, ok, f"curve dominance/merge structure on 60-point log grid, {elapsed:.1f}s "
                   f"(failures: {failures or 'none'})")


def test_criterion_3_regime_thresholds(capsys):
    p = 0.1

    def boundary(lo, hi, left_regime):
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if classify_bec_bsc_regime(p, mid) == left_regime:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    b1 = boundary(0.0, 0.3, "degraded")
    b2 = boundary(0.25, 0.45, "less_noisy")
    b3 = boundary(0.40, 0.60, "more_capable")
    ok = (
        abs(b1 - 0.2) <= 1e-5
        and abs(b2 - 0.36) <= 1e-5
        and abs(b3 - 0.46899) <= 1e-5
    )
    _report(3, ok, f"boundaries at p=0.1: {b1:.6f}, {b2:.6f}, {b3:.6f} "
                   "(expected 0.2, 0.36, 0.46899 within 1e-5)")


def test_criterion_4_gaussian_consistency(capsys):
    rho_c = 0.8
    params = GaussianParams(rho_c=rho_c, rho_e=0.0)
    half_log = 0.5 * math.log2(2 * math.pi * math.e)
    worst = 0.0
    identity_worst = 0.0
    for r_c in np.linspace(0.0, 5.0, 50):
        for d in np.geomspace(0.01, 2.0, 50):
            a = gaussian_inner(params, float(r_c), float(d))
            b = gaussian_optimal_no_eve_si(rho_c, float(r_c), float(d))
            worst = max(worst, abs(a.r_a_min - b.r_a_min), abs(a.delta_max - b.delta_max))
            identity_worst = max(identity_worst, abs(b.r_a_min + b.delta_max - half_log))
    ok = worst <= 1e-9 and identity_worst <= 1e-12
    _report(4, ok, f"inner bound vs exact region on 50x50 grid: max diff {worst:.2e}; "
                   f"rate+equivocation identity residual {identity_worst:.2e}")


def test_criterion_5_oracle_equivalence(capsys):
    t0 = time.monotonic()
    settings = {
        "source_a": (
            RegionConstraints(max_d=0.3),
            RegionConstraints(max_r_a=0.4, max_d=0.3),
            RegionConstraints(max_r_c=0.3, max_d=0.3),
        ),
        "source_b": (
            RegionConstraints(max_d=0.2),
            RegionConstraints(max_r_a=0.3, max_d=0.25),
            RegionConstraints(max_r_c=0.25, max_d=0.25),
        ),
        "source_c": (
            RegionConstraints(max_d=0.2),
            RegionConstraints(max_r_a=0.5, max_d=0.3),
            RegionConstraints(max_r_c=0.35, max_d=0.3),
        ),
    }
    worst = 0.0
    details = []
    for name, cons in settings.items():
        src = JointSource.from_json_file(str(DATA_DIR / f"{name}.json"))
        oracle = brute_force_oracle(src, HAMMING2, (2, 2, 2), 0.02, cons)
        ascent = generic_inner_frontier(src, HAMMING2, (2, 2, 2), cons, n_starts=16, seed=1)
        for i in range(3):
            gap = abs(ascent.points[i].point.delta - oracle.points[i].point.delta)
            worst = max(worst, gap)
            details.append(f"{name}[{i}]={gap:.1e}")
    elapsed = time.monotonic() - t0
    ok = worst <= 5e-3 and elapsed < 300.0
    _report(5, ok, f"ascent vs step-0.02 exhaustive grid, max |gap| {worst:.2e}, "
                   f"{elapsed:.0f}s ({'; '.join(details)})")


def test_criterion_6_corner_identities(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        na, nc, ne = 2, int(rng.integers(2, 4)), 2
        w = rng.exponential(size=(na, nc, ne))
        src = JointSource(w / w.sum())
        nu, nv, nw = (int(rng.integers(2, 4)) for _ in range(3))

        def ch(n_in, n_out):
            rows = rng.exponential(size=(n_in, n_out))
            return Channel(rows / rows.sum(axis=1, keepdims=True))

        sys = AuxiliarySystem(ch(nv, nu), ch(na, nv), ch(nc, nw),
                              rng.integers(0, na, size=(nv, nw)))
        d = DistortionMeasure.hamming(na)
        p1 = corner_point(src, d, sys, "I")
        p2 = corner_point(src, d, sys, "II")
        p3 = corner_point(src, d, sys, "III")
        worst = max(
            worst,
            abs((p1.r_a + p1.r_c) - (p2.r_a + p2.r_c)),
            abs((p2.r_a + p2.r_c) - (p3.r_a + p3.r_c)),
            abs(p1.delta - p2.delta),
            abs((p2.delta - p2.r_c) - (p3.delta - p3.r_c)),
        )
    ok = worst <= 1e-10
    _report(6, ok, f"coincidence identities over 100 random systems, max residual {worst:.2e}")


def test_criterion_7_information_properties(capsys):
    rng = np.random.default_rng(7)
    worst_chain = 0.0
    for _ in range(1000):
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        w = rng.exponential(size=shape)
        joint = w / w.sum()
        i_x_yz = mutual_information(joint.reshape(shape[0], -1))
        i_x_y = mutual_information(joint.sum(axis=2))
        i_x_z_y = conditional_mi(joint, 1)
        worst_chain = max(worst_chain, abs(i_x_yz - i_x_y - i_x_z_y))

    worst_dp = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 4))
        px = rng.exponential(size=k)
        px /= px.sum()
        y_rows = rng.exponential(size=(k, k))
        y_rows /= y_rows.sum(axis=1, keepdims=True)
        z_rows = rng.exponential(size=(k, k))
        z_rows /= z_rows.sum(axis=1, keepdims=True)
        pxy = px[:, None] * y_rows
        pxz = pxy @ z_rows
        worst_dp = max(worst_dp, mutual_information(pxz) - mutual_information(pxy))

    worst_h2 = max(abs(h2(float(x)) - h2(float(1.0 - x))) for x in rng.random(1000))
    worst_star = 0.0
    for a, b, c in rng.random((1000, 3)):
        worst_star = max(worst_star, abs(star(float(a), star(float(b), float(c)))
                                         - star(star(float(a), float(b)), float(c))))
    ok = worst_chain <= 1e-10 and worst_dp <= 1e-10 and worst_h2 <= 1e-10 and worst_star <= 1e-10
    _report(7, ok, f"1000 cases each: chain {worst_chain:.1e}, data-processing "
                   f"{worst_dp:.1e}, h2 symmetry {worst_h2:.1e}, star assoc {worst_star:.1e}")


# -- criterion 8: simulator sanity -------------------------------------------

SWEEP_W = np.array([[0.65, 0.35, 0.0], [0.0, 1.0, 0.0], [0.0, 0.35, 0.65]])
SWEEP_RECON = np.array([[0, 0, 1], [0, 1, 1]])
SWEEP_DELTA = {8: 0.140, 10: 0.155, 12: 0.190, 14: 0.215}


def test_criterion_8_simulator_sanity(capsys):
    t0 = time.monotonic()
    src = make_bec_bsc_source(0.1, h2(0.1))

    # (a) zero-rate code
    degenerate = AuxiliarySystem(Channel.constant(1), Channel.constant(2), Channel.constant(3),
                                 np.zeros((1, 1), dtype=int))
    cfg0 = CodeConfig(n=10, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=4)
    inst0 = generate_codebooks(src, degenerate, cfg0)
    eq_zero = exact_equivocation(inst0)
    zero_ok = abs(eq_zero - h2(0.1)) <= 1e-9

    # (b) full-disclosure map
    from rdeq.simulate import message_equivocation

    n_full = 10
    eq_full = message_equivocation(src, n_full, np.arange(2 ** n_full, dtype=np.int64),
                                   2 ** n_full)
    full_ok = abs(eq_full) <= 1e-9

    # (c) n-sweep at the calibrated single-layer operating point
    alpha = 0.15
    sys = AuxiliarySystem(Channel.identity(2), Channel.bsc(alpha), Channel(SWEEP_W),
                          SWEEP_RECON)
    target = binary_bec_bsc_bounds(0.1, h2(0.1), alpha, 0.0).delta_max
    errors, sigmas, gaps = [], [], []
    trials = 10_000
    for n in (8, 10, 12, 14):
        cfg = CodeConfig(n=n, r1=0.84, r2=0.0, rc_link=1.029, s1=0.84, s2=0.0, sc=1.029,
                         delta_n=SWEEP_DELTA[n], seed=11)
        rep = run_experiment(src, sys, HAMMING2, cfg, trials=trials)
        errors.append(rep.decode_error_rate)
        sigmas.append(math.sqrt(max(rep.decode_error_rate * (1 - rep.decode_error_rate), 1e-9)
                                / trials))
        gaps.append(abs(rep.exact_equivocation - target))
    err_monotone = all(
        errors[k + 1] <= errors[k] + 3.0 * math.hypot(sigmas[k], sigmas[k + 1])
        for k in range(3)
    )
    gap_final_ok = gaps[-1] <= 0.08
    gap_monotone = all(gaps[k + 1] <= gaps[k] + 1e-9 for k in range(3))
    elapsed = time.monotonic() - t0
    ok = zero_ok and full_ok and err_monotone and gap_final_ok and gap_monotone and elapsed < 600.0
    _report(8, ok,
            f"zero-rate gap {abs(eq_zero - h2(0.1)):.1e}; full-disclosure {eq_full:.1e}; "
            f"decode errors {['%.3f' % e for e in errors]} nonincreasing={err_monotone}; "
            f"equivocation gaps {['%.3f' % g for g in gaps]} final<=0.08={gap_final_ok} "
            f"nonincreasing={gap_monotone}; {elapsed:.0f}s")


def test_criterion_9_determinism(capsys, tmp_path):
    # simulator: identical seed, different worker counts
    cfg = {
        "source": {"bec_bsc": {"p": 0.1, "eps": "h2p"}},
        "system": {
            "u_given_v": {"input_size": 2, "output_size": 2, "rows": [1, 0, 0, 1]},
            "v_given_a": {"input_size": 2, "output_size": 2, "rows": [0.85, 0.15, 0.15, 0.85]},
            "w_given_c": {"input_size": 3, "output_size": 3,
                          "rows": [0.65, 0.35, 0, 0, 1, 0, 0, 0.35, 0.65]},
            "reconstruction": [[0, 0, 1], [0, 1, 1]],
        },
        "code": {"n": 8, "r1": 0.84, "r2": 0.0, "rc_link": 1.029,
                 "s1": 0.84, "s2": 0.0, "sc": 1.029, "delta_n": 0.14, "seed": 11},
        "trials": 2200,
        "distortion": "hamming",
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for workers in ("1", "2"):
        out_path = tmp_path / f"sim_out_{workers}.json"
        rc = main(["simulate", "--config", str(cfg_path), "--workers", workers,
                   "--out", str(out_path)])
        assert rc == 0
        outs.append(out_path.read_bytes())
    sim_ok = outs[0] == outs[1]

    # frontier search: identical seed, different worker counts
    region_outs = []
    for workers in ("1", "2"):
        out_path = tmp_path / f"region_{workers}.json"
        rc = main(["region", "--source", str(DATA_DIR / "source_b.json"), "--max-d", "0.25",
                   "--starts", "6", "--workers", workers, "--format", "json",
                   "--out", str(out_path)])
        assert rc == 0
        region_outs.append(out_path.read_bytes())
    region_ok = region_outs[0] == region_outs[1]

    # closed-form command repeated: identical bytes
    bin_outs = []
    for tag in ("x", "y"):
        out_path = tmp_path / f"bin_{tag}.csv"
        rc = main(["binary", "--p", "0.1", "--eps", "h2p", "--d", "0.01", "0.05",
                   "--out", str(out_path)])
        assert rc == 0
        bin_outs.append(out_path.read_bytes())
    bin_ok = bin_outs[0] == bin_outs[1]

    ok = sim_ok and region_ok and bin_ok
    _report(9, ok, f"byte-identical outputs across worker counts: simulate={sim_ok}, "
                   f"region={region_ok}, repeat-binary={bin_ok}")
