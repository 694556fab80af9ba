"""Each output check passes on the program's output and fails on a corrupted one.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wls  # noqa: E402
from rdeq import cli, optimize, probability, regions, simulate  # noqa: E402

D_TAB = wls.HAMMING2.table
CONS_B = wls.criterion5_constraints()["source_b"]


def with_point(result, i, **changes):
    pts = list(result.points)
    pts[i] = replace(pts[i], point=replace(pts[i].point, **changes))
    return replace(result, points=tuple(pts))


def with_params(result, i, **changes):
    pts = list(result.points)
    pts[i] = replace(pts[i], params={**pts[i].params, **changes})
    return replace(result, points=tuple(pts))


def replace_ns(ns, **changes):
    return SimpleNamespace(**{**vars(ns), **changes})


@pytest.fixture(scope="module")
def source_b():
    return wls.load_source("source_b")


@pytest.fixture(scope="module")
def oracle_b(source_b):
    return optimize.brute_force_oracle(source_b, wls.HAMMING2, (2, 2, 2), 0.1, CONS_B)


# -- the plain evaluators agree with the program where both apply --------------

def test_plain_inner_bounds_match_program(source_b):
    rng = np.random.default_rng(5)
    for _ in range(20):
        uv, va, wc = (rng.dirichlet(np.ones(k), size=r) for r, k in ((2, 2), (2, 2), (2, 3)))
        sys_ = regions.AuxiliarySystem(probability.Channel(uv), probability.Channel(va),
                                       probability.Channel(wc), np.zeros((2, 3), dtype=int))
        want = regions.inner_bound_point(source_b, wls.HAMMING2, sys_)
        got = checks.inner_bounds(source_b.probs, D_TAB, uv, va, wc)
        for key in ("r_a_min", "r_c_min", "sum_min", "delta_max", "delta_minus_rc_max"):
            assert abs(float(got[key][0]) - getattr(want, key)) <= 1e-9, key
        assert float(got["d_min"][0]) <= want.d_min + 1e-12


def test_binary_closed_form_is_the_inner_bound_of_the_chain():
    p = 0.1
    eps = float(checks.h2(p))
    src = probability.make_bec_bsc_source(p, eps)
    for alpha, beta in ((0.03, 0.05), (0.2, 0.0), (0.0, 0.3)):
        b = checks.inner_bounds(src.probs, D_TAB, probability.Channel.bsc(beta).rows,
                                probability.Channel.bsc(alpha).rows, np.eye(3))
        assert abs(float(b["delta_max"][0]) - checks.binary_closed_form(p, eps, alpha, beta)) \
            <= 1e-12
        assert float(b["d_min"][0]) <= eps * alpha + 1e-12


# -- frontier points -------------------------------------------------------------

def test_inner_point_check(source_b, oracle_b):
    assert checks.check_frontier("o", source_b.probs, D_TAB, oracle_b, CONS_B) == []
    pt = oracle_b.points[0].point
    for bad in (with_point(oracle_b, 0, delta=pt.delta + 1e-3),
                with_point(oracle_b, 0, delta=pt.delta - 1e-3),
                with_point(oracle_b, 0, r_a=0.0, r_c=0.0),
                with_point(oracle_b, 0, d=pt.d - 0.01),
                with_params(oracle_b, 0, w_given_c=[[0.5, 0.5], [0.5, 0.5]])):
        assert checks.check_frontier("o", source_b.probs, D_TAB, bad, CONS_B)
    tighter = [replace(CONS_B[0], max_d=pt.d - 0.01), *CONS_B[1:]]
    assert checks.check_frontier("o", source_b.probs, D_TAB, oracle_b, tighter)


def test_inner_point_check_on_the_ascent(source_b):
    res = optimize.generic_inner_frontier(source_b, wls.HAMMING2, (2, 2, 2), CONS_B[:1],
                                          n_starts=2, seed=1)
    assert checks.check_frontier("a", source_b.probs, D_TAB, res, CONS_B[:1]) == []
    bad = with_params(res, 0, reconstruction=[[1, 1], [1, 1]])
    assert checks.check_frontier("a", source_b.probs, D_TAB, bad, CONS_B[:1])


def test_reference_check(oracle_b):
    ref = [fp.point.delta for fp in oracle_b.points]
    assert checks.check_against_reference("a", oracle_b, [r + 4e-3 for r in ref]) == []
    assert checks.check_against_reference("a", oracle_b, [ref[0] + 6e-3, *ref[1:]])


def test_lossless_check(source_b):
    m = checks.source_measures(source_b.probs)
    rates = [m["h_c_a"] + 0.1, m["h_c"] + 0.05]
    res = optimize.lossless_frontier(source_b, rates, n_starts=3, seed=1)
    assert checks.check_lossless("l", source_b.probs, res, rates) == []
    top = res.points[1].point
    assert checks.check_lossless("l", source_b.probs,
                                 with_point(res, 1, delta=m["h_a_e"] + 0.01), rates)
    assert checks.check_lossless("l", source_b.probs, with_point(res, 1, delta=0.0), rates)
    assert checks.check_lossless("l", source_b.probs,
                                 with_point(res, 1, r_c=rates[1] + 0.01), rates)
    assert top.delta >= m["i_ac"] - m["i_ae"]


# -- exhaustive oracle -----------------------------------------------------------

def test_nested_check(source_b, oracle_b):
    coarse = optimize.brute_force_oracle(source_b, wls.HAMMING2, (2, 2, 2), 0.2, CONS_B)
    assert checks.check_nested("n", oracle_b, coarse, checks.FAST_PATH_TOL) == []
    low = with_point(oracle_b, 2, delta=coarse.points[2].point.delta - 1e-4)
    assert checks.check_nested("n", low, coarse, checks.FAST_PATH_TOL)


def test_dominance_check(source_b):
    generic = optimize.brute_force_oracle(source_b, wls.HAMMING2, (2, 2, 3), 1.0, CONS_B)
    fast = optimize.brute_force_oracle(source_b, wls.HAMMING2, (2, 2, 2), 1.0, CONS_B)
    assert checks.check_dominates("g", generic, fast, checks.ADMIT_TOL) == []
    low = with_point(generic, 0, delta=fast.points[0].point.delta - 1e-6)
    assert checks.check_dominates("g", low, fast, checks.ADMIT_TOL)


def test_sampled_systems_check(source_b, oracle_b):
    systems = checks.sample_grid_systems(np.random.default_rng(1), 200, [(2, 2)] * 3, 10)
    bounds = checks.inner_bounds(source_b.probs, D_TAB, *systems)
    feasible = [np.isfinite(checks.constrained_delta(bounds, c, margin=checks.SAMPLE_MARGIN))
                for c in CONS_B]
    assert all(f.any() for f in feasible)
    assert checks.check_beats_samples("s", source_b.probs, D_TAB, oracle_b, CONS_B, systems,
                                      checks.FAST_PATH_TOL) == []
    low = with_point(oracle_b, 0, delta=0.0)
    assert checks.check_beats_samples("s", source_b.probs, D_TAB, low, CONS_B, systems,
                                      checks.FAST_PATH_TOL)


def test_fixed_w_closed_form_check():
    p, step, caps = 0.1, 0.05, (0.01, 0.03, 0.05)
    eps = float(checks.h2(p))
    src = probability.make_bec_bsc_source(p, eps)
    res = optimize.brute_force_oracle(
        src, wls.HAMMING2, (2, 2, 3), step,
        [optimize.RegionConstraints(max_d=d) for d in caps],
        fixed_w_given_c=probability.Channel.identity(3))
    tol = checks.FAST_PATH_TOL
    assert checks.check_fixed_w_closed_form("f", res, p, eps, caps, step, tol) == []
    best = checks.best_binary_closed_form(p, eps, caps[1], step)
    low = with_point(res, 1, delta=best - 1e-4)
    assert checks.check_fixed_w_closed_form("f", low, p, eps, caps, step, tol)


# -- binary closed-form curves --------------------------------------------------

@pytest.fixture(scope="module")
def curves():
    p = 0.1
    eps = float(checks.h2(p))
    grid = [float(x) for x in np.geomspace(1e-4, 0.2, 12)]
    return (p, eps, optimize.binary_frontier(p, eps, grid),
            optimize.binary_frontier(p, eps, grid, force_beta_zero=True))


def test_binary_curve_check(curves):
    p, eps, opt, single = curves
    assert checks.check_binary_curves("b", p, eps, opt, single) == []
    pt = opt.points[3].point
    assert checks.check_binary_curves("b", p, eps, with_point(opt, 3, delta=pt.delta + 1e-9),
                                      single)


def test_binary_curve_check_catches_a_poor_search(curves):
    p, eps, opt, single = curves
    # the single-layer point reported on the optimal curve: consistent with the
    # closed form at its own (alpha, beta), but short of the dense maximum
    pts = list(opt.points)
    pts[0] = single.points[0]
    assert checks.check_binary_curves("b", p, eps, replace(opt, points=tuple(pts)), single)


def test_binary_curve_check_catches_order_and_dominance(curves):
    p, eps, opt, single = curves
    swapped = list(opt.points)
    swapped[5], swapped[6] = (replace(swapped[5], point=swapped[6].point, params=swapped[6].params),
                              replace(swapped[6], point=swapped[5].point, params=swapped[5].params))
    assert checks.check_binary_curves("b", p, eps, replace(opt, points=tuple(swapped)), single)
    swapped_curves = checks.check_binary_curves("b", p, eps, single, opt)
    assert any("below single-layer" in msg for msg in swapped_curves)
    too_high = with_point(opt, len(opt.points) - 1, delta=float(checks.h2(p)) + 1e-3)
    assert any("h2(p)" in msg for msg in checks.check_binary_curves("b", p, eps, too_high, single))


def test_reproduction_check():
    assert checks.check_reproduction("t", cli.reproduce_table3()) == []
    assert checks.check_reproduction("t", (["x"], ["capped rate"]))


# -- simulator -------------------------------------------------------------------

@pytest.fixture(scope="module")
def code8():
    w = wls.BlocklengthSim(11)
    inst = simulate.generate_codebooks(w.source, w.system, w._config(8, 11))
    s = w.system
    dist = checks.code_distributions(w.source.probs, s.u_given_v.rows, s.v_given_a.rows,
                                     s.w_given_c.rows)
    return w, inst, dist


def test_equivocation_check(code8):
    w = code8[0]
    probs = w.source.probs
    assert checks.check_equivocation("e", probs, w.single_letter + 0.05, w.single_letter) == []
    assert checks.check_equivocation("e", probs, w.single_letter + 0.09, w.single_letter)
    assert checks.check_equivocation("e", probs, -0.01, 0.0)
    assert checks.check_equivocation("e", probs, None, w.single_letter)


def test_dense_equivocation_check(code8):
    w, inst, _ = code8
    table = simulate.encoder_message_table(inst)
    value = simulate.message_equivocation(w.source, 8, table, inst.message_count)
    assert checks.check_dense_equivocation("m", w.source.probs, 8, table, value) == []
    assert checks.check_dense_equivocation("m", w.source.probs, 8, table, value + 1e-6)


def test_message_table_check(code8):
    _, inst, dist = code8
    table = simulate.encoder_message_table(inst)
    assert checks.check_message_table("t", inst, dist, table, range(table.size)) == []
    bad = table.copy()
    bad[77] = (bad[77] + 1) % inst.message_count
    assert checks.check_message_table("t", inst, dist, bad, range(table.size))


def test_encoder_and_decoder_checks(code8):
    w, inst, dist = code8
    rng = np.random.default_rng(3)
    flat = w.source.probs.ravel()
    draws = rng.choice(flat.size, size=(20, 8), p=flat)
    a_seqs, c_seqs = draws // 6, (draws // 2) % 3
    encodings = [inst.encode_charlie(c) for c in c_seqs]
    assert checks.check_charlie("c", inst, dist, c_seqs, encodings) == []
    bad = [replace(encodings[0], s=encodings[0].s + 1), *encodings[1:]]
    assert checks.check_charlie("c", inst, dist, c_seqs, bad)

    js = [inst.alice_message_index(a) for a in a_seqs]
    assert checks.check_alice("a", inst, dist, a_seqs, js) == []
    assert checks.check_alice("a", inst, dist, a_seqs, [js[0] ^ 1, *js[1:]])

    requests = [(divmod(j, inst.config.bins_v), e.r) for j, e in zip(js, encodings)]
    results = [inst.decode_bob(j, k) for j, k in requests]
    assert checks.check_decoder("d", inst, dist, requests, results) == []
    bad = [replace(results[0], n_matches=results[0].n_matches + 1), *results[1:]]
    assert checks.check_decoder("d", inst, dist, requests, bad)


def test_sim_report_check():
    trace = "trial,s1,s2,s,decode_error,distortion\n0,1,0,2,1,0.5\n1,3,0,4,0,0\n"
    report = SimpleNamespace(trials=2, decode_error_rate=0.5, empirical_distortion=0.25,
                             decode_ambiguity_rate=0.0, encode_failure_rates={"charlie": 0.5})
    assert checks.check_sim_report("r", report, 2, trace) == []
    assert checks.check_sim_report("r", replace_ns(report, decode_error_rate=0.0), 2, trace)
    assert checks.check_sim_report("r", report, 3, trace)


# -- runs ------------------------------------------------------------------------

def test_rounds_must_repeat_their_outputs():
    same = [SimpleNamespace(outputs={"x": 1.0}), SimpleNamespace(outputs={"x": 1.0})]
    assert run.repeat_failures(same, wls.fingerprint) == []
    differ = [SimpleNamespace(outputs={"x": 1.0}), SimpleNamespace(outputs={"x": 1.5})]
    assert run.repeat_failures(differ, wls.fingerprint)


def test_metric_names_match_the_benchmark_definition():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.UNITS)
    assert all(m["unit"] == tracing.UNITS[m["name"]] for m in spec["per_layer"])
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) \
        == set(wls.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "binary_example",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
