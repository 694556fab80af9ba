from pathlib import Path
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from _oracles import (
    oracle_binary_delta,
    oracle_binary_max,
    oracle_exhaustive,
    oracle_project_simplex,
)
from rdeq import BudgetError, Channel, DistortionMeasure, JointSource, ValidationError, h2, h2_inv
from rdeq.probability import entropy, make_bec_bsc_source
from rdeq import optimize, regions
from rdeq.optimize import (
    _INFEASIBLE_BASE,
    SLACK,
    FrontierPoint,
    FrontierResult,
    RegionConstraints,
    _channel_count,
    _channel_grid,
    _objective,
    _project_rows,
    _violation,
    binary_frontier,
    binary_merge_threshold,
    brute_force_oracle,
    convexify,
    generic_inner_frontier,
    lossless_frontier,
    prop1_caps,
)
from rdeq.regions import (
    AuxiliarySystem,
    RegionPoint,
    _lossless,
    inner_bound_point,
    lossless_region_point,
)

DATA_DIR = Path(__file__).parent / "data"

HAMMING2 = DistortionMeasure.hamming(2)
EPS_STAR = h2(0.1)


def rand_source(rng, shape=(2, 2, 2)):
    w = rng.exponential(size=shape)
    return JointSource(w / w.sum())


class TestBinaryFrontier:
    def test_lossless_column(self):
        fr = binary_frontier(0.1, EPS_STAR, [0.0])
        pt = fr.points[0]
        assert pt.feasible
        assert pt.point.delta == pytest.approx(0.039, abs=1e-3)
        assert pt.params["alpha"] == pytest.approx(0.0, abs=1e-9)
        assert pt.params["beta"] == pytest.approx(0.078, abs=2e-3)

    def test_rate_capped_column(self):
        cap = 0.8 * EPS_STAR
        from rdeq import h2_inv

        d_star = EPS_STAR * h2_inv(0.2)
        fr = binary_frontier(0.1, EPS_STAR, [d_star], rate_cap=cap)
        pt = fr.points[0]
        assert pt.point.r_a == pytest.approx(0.375, abs=1e-3)
        assert pt.point.d == pytest.approx(0.015, abs=1e-3)
        assert pt.point.delta == pytest.approx(0.133, abs=1e-3)
        assert pt.params["alpha"] == pytest.approx(0.031, abs=1e-3)
        assert pt.params["beta"] == pytest.approx(0.050, abs=2e-3)

    def test_column_points_read_as_point_objects(self):
        # the columns of a binary frontier give the FrontierPoints that a
        # result built from them holds, in every reading and in JSON
        cap = 0.8 * EPS_STAR
        fr = binary_frontier(0.1, EPS_STAR, [0.0, 0.001, 0.02, 0.1], rate_cap=cap)
        as_tuple = FrontierResult(tuple(fr.points), fr.provenance)
        assert [p.feasible for p in fr.points] == [False, False, True, True]
        assert fr.points[0] == FrontierPoint(sweep=0.0, feasible=False, point=None, params={})
        assert fr == as_tuple and as_tuple == fr and fr.points == as_tuple.points
        assert fr.to_json() == as_tuple.to_json() and fr.to_csv() == as_tuple.to_csv()
        assert len(fr.points) == 4 and fr.points[-1] == as_tuple.points[3]
        assert fr.points[1:3] == as_tuple.points[1:3]
        assert repr(fr) == repr(as_tuple)
        assert np.array_equal(fr.deltas(), as_tuple.deltas(), equal_nan=True)
        with pytest.raises(IndexError):
            fr.points[4]

    def test_wyner_ziv_merges_at_high_distortion(self):
        # optimal and single-layer searches coincide above the merge point
        for d in (0.04, 0.1):
            opt = binary_frontier(0.1, EPS_STAR, [d]).points[0].point.delta
            wz = binary_frontier(0.1, EPS_STAR, [d], force_beta_zero=True).points[0].point.delta
            assert opt >= wz - 1e-12
            assert opt - wz < 1e-3

    def test_dominance_everywhere(self):
        grid = np.geomspace(1e-4, 0.2, 25)
        opt = binary_frontier(0.1, EPS_STAR, grid).deltas()
        wz = binary_frontier(0.1, EPS_STAR, grid, force_beta_zero=True).deltas()
        assert np.all(opt >= wz - 1e-12)

    def test_frontier_nondecreasing_in_d(self):
        grid = np.geomspace(1e-4, 0.2, 25)
        opt = binary_frontier(0.1, EPS_STAR, grid).deltas()
        assert np.all(np.diff(opt) >= -1e-9)

    def test_infeasible_rate_cap(self):
        # cap below the rate needed at the only allowed distortion
        fr = binary_frontier(0.1, EPS_STAR, [0.0], rate_cap=0.2)
        assert not fr.points[0].feasible

    def test_noiseless_eve_collapse(self):
        # p = 0 means Eve observes the source exactly: Delta collapses to
        # eps h2(a) - eps h2(a*b) <= 0, so both curves are identically zero
        eps = 0.5
        for d in (0.02, 0.1, 0.2):
            opt = binary_frontier(0.0, eps, [d]).points[0].point.delta
            wz = binary_frontier(0.0, eps, [d], force_beta_zero=True).points[0].point.delta
            assert opt == pytest.approx(0.0, abs=1e-9)
            assert wz == pytest.approx(0.0, abs=1e-9)

    def test_merge_threshold_location(self):
        thr = binary_merge_threshold(0.1, EPS_STAR)
        assert thr == pytest.approx(0.036, abs=3e-3)

    def test_bad_grid(self):
        with pytest.raises(ValidationError):
            binary_frontier(0.1, EPS_STAR, [0.2, 0.1])

    @pytest.mark.parametrize("kwargs", [
        {"lo": -0.1}, {"lo": 0.3, "hi": 0.2}, {"hi": math.nan}, {"hi": math.inf},
        {"gap_tol": math.nan}, {"gap_tol": -1e-6},
    ], ids=repr)
    def test_merge_threshold_rejects_bad_range(self, kwargs):
        with pytest.raises(ValidationError):
            binary_merge_threshold(0.1, EPS_STAR, **kwargs)

    @pytest.mark.parametrize("p, eps", [(math.nan, 0.5), (0.7, 0.5), (0.1, 1.5), (0.1, -0.1)])
    def test_merge_threshold_rejects_bad_source(self, p, eps):
        with pytest.raises(ValidationError):
            binary_merge_threshold(p, eps)

    def test_search_grids_stay_in_range(self, monkeypatch):
        # the grids call the closed form unchecked: every argument must lie in range
        core = regions.binary_bec_bsc_bounds_unchecked
        calls = []

        def checked(p, eps, alpha, beta):
            for x, hi in ((p, 0.5), (eps, 1.0), (alpha, 0.5), (beta, 0.5)):
                assert np.all((np.asarray(x) >= 0.0) & (np.asarray(x) <= hi))
            calls.append(1)
            return core(p, eps, alpha, beta)

        monkeypatch.setattr(optimize, "binary_bec_bsc_bounds_unchecked", checked)
        monkeypatch.setattr(regions, "binary_bec_bsc_bounds_unchecked", checked)
        grid = [0.0, *np.geomspace(1e-4, 0.2, 25), 0.5]
        for p, eps in ((0.1, EPS_STAR), (0.0, 0.5), (0.5, 1.0), (0.3, 0.0)):
            binary_frontier(p, eps, grid)
            binary_frontier(p, eps, grid, force_beta_zero=True)
            binary_frontier(p, eps, grid, rate_cap=0.8 * eps)
        binary_merge_threshold(0.1, EPS_STAR)
        assert len(calls) > 1000

    def test_closed_form_disagreement_fails_revalidation(self, monkeypatch):
        # a re-evaluated Delta 1e-6 above the searched one is as wrong as one below
        search = optimize._binary_maximize

        def low(*args, **kwargs):
            alpha, beta, delta = search(*args, **kwargs)
            return alpha, beta, delta - 1e-6

        monkeypatch.setattr(optimize, "_binary_maximize", low)
        with pytest.raises(RuntimeError, match="re-validation"):
            binary_frontier(0.1, EPS_STAR, [0.05])

    @staticmethod
    def check_against_plain_max(p, eps, d, rate_cap=None, beta_zero=False):
        want = oracle_binary_max(p, eps, d, rate_cap, beta_zero)
        pt = binary_frontier(p, eps, [d], rate_cap, force_beta_zero=beta_zero).points[0]
        assert pt.feasible and want is not None
        a, b = pt.params["alpha"], pt.params["beta"]
        assert pt.point.delta >= max(0.0, want) - 1e-12
        assert pt.point.delta == pytest.approx(max(0.0, oracle_binary_delta(p, eps, a, b)), abs=1e-12)
        assert eps * a <= d + 1e-12 and 0.0 <= a <= 0.5 and 0.0 <= b <= 0.5
        assert b == 0.0 or not beta_zero
        return pt

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("eps", ["h2p", 0.3, 1.0])
    def test_matches_plain_grid_maximum(self, p, eps):
        # the nested grids reach at least the plain dense-grid maximum, at
        # interior optima and at binding alpha ends (D = 0 pins alpha = 0 when eps > 0)
        eps = h2(p) if eps == "h2p" else eps
        for d in (0.0, 0.02, 0.1):
            for beta_zero in (False, True):
                self.check_against_plain_max(p, eps, d, beta_zero=beta_zero)

    @pytest.mark.parametrize("p, eps", [(0.1, EPS_STAR), (0.3, h2(0.3)), (0.1, 1.0)])
    def test_matches_plain_grid_maximum_under_binding_rate_cap(self, p, eps):
        # the cap leaves alpha a sliver [h2_inv(0.2), 1.05 h2_inv(0.2)]
        cap = 0.8 * eps
        d = 1.05 * eps * h2_inv(0.2)
        for beta_zero in (False, True):
            pt = self.check_against_plain_max(p, eps, d, cap, beta_zero)
            assert pt.params["alpha"] >= h2_inv(0.2) - 1e-12


class TestGenericInnerFrontier:
    def test_independent_source_full_entropy(self):
        # A independent of (C, E): the side information is useless and the
        # best equivocation at free distortion is H(A)
        pa = np.array([0.3, 0.7])
        probs = pa[:, None, None] * np.full((2, 2), 0.25)[None, :, :]
        src = JointSource(probs)
        res = generic_inner_frontier(
            src, HAMMING2, (2, 2, 2), (RegionConstraints(max_d=0.5),), n_starts=12, seed=3
        )
        h_a = entropy(pa)
        assert res.points[0].point.delta == pytest.approx(h_a, abs=5e-3)
        assert res.points[0].point.delta <= h_a + 1e-9
        assert res.points[0].point.r_a == pytest.approx(0.0, abs=1e-6)

    def test_binary_uncoded_embedding_matches_closed_form(self):
        src = make_bec_bsc_source(0.1, EPS_STAR)
        for d_cap in (0.01, 0.05):
            res = generic_inner_frontier(
                src, HAMMING2, (2, 2, 3),
                (RegionConstraints(max_d=d_cap),),
                fixed_w_given_c=Channel.identity(3),
                n_starts=16, seed=5,
            )
            want = binary_frontier(0.1, EPS_STAR, [d_cap]).points[0].point.delta
            assert res.points[0].point.delta == pytest.approx(want, abs=2e-3)

    def test_matches_oracle_coarse(self):
        rng = np.random.default_rng(11)
        src = rand_source(rng)
        cons = (RegionConstraints(max_d=0.2),)
        oracle = brute_force_oracle(src, HAMMING2, (2, 2, 2), 0.05, cons)
        ascent = generic_inner_frontier(src, HAMMING2, (2, 2, 2), cons, n_starts=16, seed=0)
        # ascent is continuous so it may only beat the grid, up to tolerance
        assert ascent.points[0].point.delta >= oracle.points[0].point.delta - 5e-3

    def test_matches_oracle_on_ternary_source(self):
        # the ascent against the exhaustive grid on a non-binary A, under a
        # helper-rate cap
        rng = np.random.default_rng(5)
        src = rand_source(rng, (3, 2, 2))
        d = DistortionMeasure.hamming(3)
        cons = (RegionConstraints(max_r_c=0.3, max_d=0.4),)
        oracle = brute_force_oracle(src, d, (2, 2, 2), 0.05, cons)
        ascent = generic_inner_frontier(src, d, (2, 2, 2), cons, n_starts=4, seed=0)
        assert ascent.points[0].point.delta >= oracle.points[0].point.delta - 5e-3

    def test_multistart_monotone(self):
        rng = np.random.default_rng(13)
        src = rand_source(rng)
        cons = (RegionConstraints(max_d=0.25),)
        few = generic_inner_frontier(src, HAMMING2, (2, 2, 2), cons, n_starts=4, seed=7)
        many = generic_inner_frontier(src, HAMMING2, (2, 2, 2), cons, n_starts=12, seed=7)
        assert many.points[0].point.delta >= few.points[0].point.delta - 1e-12

    def test_caps_validation(self):
        src = make_bec_bsc_source(0.1, 0.3)
        big = (prop1_caps(src)[0] + 1, 2, 2)
        with pytest.raises(ValidationError):
            generic_inner_frontier(src, HAMMING2, big, (RegionConstraints(),))
        generic_inner_frontier(
            src, HAMMING2, (2, 2, 2), (RegionConstraints(max_d=0.6),), n_starts=2, seed=0
        )

    def test_worker_count_invariance(self):
        rng = np.random.default_rng(17)
        src = rand_source(rng)
        cons = (RegionConstraints(max_d=0.3),)
        a = generic_inner_frontier(src, HAMMING2, (2, 2, 2), cons, n_starts=6, seed=9, workers=1)
        b = generic_inner_frontier(src, HAMMING2, (2, 2, 2), cons, n_starts=6, seed=9, workers=2)
        assert a.to_json() == b.to_json()


@pytest.mark.parametrize("search", [
    lambda src, d: generic_inner_frontier(src, d, (2, 2, 2), n_starts=1),
    lambda src, d: brute_force_oracle(src, d, (2, 2, 2), 0.5),
], ids=["ascent", "oracle"])
def test_search_rejects_table_not_fitting_the_source(search):
    # a three-row table on binary A, checked at entry rather than by a broadcast error
    src = make_bec_bsc_source(0.1, h2(0.1))
    with pytest.raises(ValidationError, match="distortion table"):
        search(src, DistortionMeasure.hamming(3))


def test_each_search_call_starts_one_pool(monkeypatch):
    started = []  # max_workers of each pool constructed

    class CountedPool(optimize.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(optimize, "ProcessPoolExecutor", CountedPool)
    src = JointSource.from_json_file(str(DATA_DIR / "source_a.json"))
    cons = [RegionConstraints(max_d=d) for d in (0.2, 0.3, 0.4)]
    generic_inner_frontier(src, HAMMING2, (2, 2, 2), cons, n_starts=2, seed=0, workers=2)
    assert started == [2]
    lossless_frontier(src, [1.0, 1.5, 2.0], n_starts=2, seed=0, workers=2)
    assert started == [2, 2]


class TestLosslessFrontier:
    def test_e_equals_c_gives_zero(self):
        probs = np.zeros((2, 2, 2))
        pac = np.array([[0.4, 0.1], [0.15, 0.35]])
        for a in range(2):
            for c in range(2):
                probs[a, c, c] = pac[a, c]
        src = JointSource(probs)
        res = lossless_frontier(src, [2.0], n_starts=6, seed=0)
        assert res.points[0].point.delta == pytest.approx(0.0, abs=1e-9)

    def test_independent_eve_gives_full_mi(self):
        pac = np.array([[0.4, 0.1], [0.15, 0.35]])
        probs = pac[:, :, None] * np.array([0.3, 0.7])[None, None, :]
        src = JointSource(probs)
        res = lossless_frontier(src, [2.0], n_starts=6, seed=0)
        iac = entropy(pac.sum(axis=1)) + entropy(pac.sum(axis=0)) - entropy(pac)
        assert res.points[0].point.delta == pytest.approx(iac, abs=1e-6)

    def test_rate_feasibility(self):
        rng = np.random.default_rng(3)
        src = rand_source(rng)
        pac = src.p_ac()
        h_c_a = entropy(pac) - entropy(pac.sum(axis=1))
        res = lossless_frontier(src, [max(0.0, h_c_a - 0.05), h_c_a + 0.5], n_starts=4, seed=0)
        assert not res.points[0].feasible
        assert res.points[1].feasible

    def test_frontier_nondecreasing_in_rc(self):
        rng = np.random.default_rng(19)
        src = rand_source(rng)
        pac = src.p_ac()
        h_c_a = entropy(pac) - entropy(pac.sum(axis=1))
        grid = [h_c_a + 0.05, h_c_a + 0.2, h_c_a + 0.6, 2.0]
        res = lossless_frontier(src, grid, n_starts=8, seed=1)
        deltas = res.deltas()
        assert np.all(np.diff(deltas) >= -1e-6)

    def test_worker_count_invariance(self):
        rng = np.random.default_rng(23)
        src = rand_source(rng)
        pac = src.p_ac()
        h_c_a = entropy(pac) - entropy(pac.sum(axis=1))
        grid = [h_c_a - 0.05, h_c_a + 0.1, h_c_a + 0.4]
        a = lossless_frontier(src, grid, n_starts=3, seed=4, workers=1)
        b = lossless_frontier(src, grid, n_starts=3, seed=4, workers=2)
        assert [p.feasible for p in a.points] == [False, True, True]
        assert a.to_json() == b.to_json()


class TestBruteForceOracle:
    def test_caps_all_one_degenerate(self):
        src = make_bec_bsc_source(0.1, 0.3)
        res = brute_force_oracle(src, HAMMING2, (1, 1, 1), 0.5, (RegionConstraints(),))
        pt = res.points[0]
        assert pt.point.delta == pytest.approx(h2(0.1), abs=1e-12)
        assert pt.point.r_a == pytest.approx(0.0, abs=1e-12)
        assert pt.point.d == pytest.approx(0.5, abs=1e-12)

    @staticmethod
    def assert_matches_reference(res, src, d, caps, step, cons, fixed_w=None):
        want = oracle_exhaustive(src.probs, d.table, caps, step, cons,
                                 None if fixed_w is None else fixed_w.rows)
        assert [p.feasible for p in res.points] == [w is not None for w in want]
        for p, w in zip(res.points, want):
            if w is not None:
                assert abs(p.point.delta - w) <= 1e-12

    def test_matches_plain_reference(self):
        # one constraint of each kind (the last of them binds R_A + R_C), and
        # one no system meets
        rng = np.random.default_rng(1)
        src = rand_source(rng)
        cons = (
            RegionConstraints(max_d=0.2),
            RegionConstraints(max_r_a=0.3, max_d=0.3),
            RegionConstraints(max_r_c=0.25, max_d=0.25),
            RegionConstraints(),
            RegionConstraints(max_r_a=0.5, max_r_c=0.3, max_d=0.1),
            RegionConstraints(max_d=0.0, max_r_a=0.0),
        )
        res = brute_force_oracle(src, HAMMING2, (2, 2, 2), 0.25, cons)
        self.assert_matches_reference(res, src, HAMMING2, (2, 2, 2), 0.25, cons)

    def test_matches_plain_reference_with_helper_rate_cap(self):
        # a finite max_r_c makes the objective min(eq5, max_r_c + eq6), which
        # the W-column pruning must bound as well
        rng = np.random.default_rng(0)
        src = rand_source(rng)
        cons = (RegionConstraints(max_r_c=0.2, max_d=0.3),)
        res = brute_force_oracle(src, HAMMING2, (2, 2, 2), 0.25, cons)
        assert res.points[0].feasible
        self.assert_matches_reference(res, src, HAMMING2, (2, 2, 2), 0.25, cons)

    def test_fixed_w_matches_plain_reference(self):
        # the pruning bound uses H(W) = H(p_a @ p(w|a)), here with |W| = 3
        rng = np.random.default_rng(11)
        src = rand_source(rng)
        rows = rng.exponential(size=(2, 3))
        fixed_w = Channel(rows / rows.sum(axis=1, keepdims=True))
        cons = (
            RegionConstraints(max_d=0.25),
            RegionConstraints(max_r_a=0.3, max_d=0.3),
            RegionConstraints(max_r_c=0.2, max_d=0.3),
        )
        res = brute_force_oracle(src, HAMMING2, (2, 2, 3), 0.25, cons, fixed_w_given_c=fixed_w)
        assert any(p.feasible for p in res.points)
        self.assert_matches_reference(res, src, HAMMING2, (2, 2, 3), 0.25, cons, fixed_w)

    @pytest.mark.parametrize("shape, caps", [((2, 2, 2), (2, 2, 3)), ((3, 2, 2), (2, 2, 2))],
                             ids=["caps223", "ternary_a"])
    def test_non_binary_matches_plain_reference(self, shape, caps):
        rng = np.random.default_rng(8)
        src = rand_source(rng, shape)
        d = DistortionMeasure.hamming(shape[0])
        cons = (
            RegionConstraints(max_d=0.3),
            RegionConstraints(max_r_a=0.5, max_d=0.4),
            RegionConstraints(max_r_c=0.3, max_d=0.4),
            RegionConstraints(),
        )
        res = brute_force_oracle(src, d, caps, 0.5, cons)
        self.assert_matches_reference(res, src, d, caps, 0.5, cons)

    def test_grid_sizes_count_the_relabel_quotient(self):
        rng = np.random.default_rng(3)
        src = rand_source(rng, (3, 2, 2))
        res = brute_force_oracle(src, DistortionMeasure.hamming(3), (2, 3, 3), 0.5,
                                 (RegionConstraints(),))
        # one channel per output relabeling: V 3 x 3 rows, U 3 x 2, W 2 x 3
        assert res.provenance["grid_sizes"] == [
            len(_channel_grid(3, 3, 2)), len(_channel_grid(3, 2, 2)), len(_channel_grid(2, 3, 2))
        ] == [_channel_count(3, 3, 2), _channel_count(3, 2, 2), _channel_count(2, 3, 2)]
        for n_in, k, m in ((2, 2, 50), (3, 3, 3), (2, 4, 2), (4, 2, 3), (1, 3, 4)):
            grid = _channel_grid(n_in, k, m)
            assert len(grid) == _channel_count(n_in, k, m)
            # columns sorted, and no two channels are relabelings of each other
            canon = {tuple(sorted(map(tuple, ch.T))) for ch in grid}
            assert all(list(map(tuple, ch.T)) == sorted(map(tuple, ch.T)) for ch in grid)
            assert len(canon) == len(grid)

    def test_coarsening_never_increases_max(self):
        rng = np.random.default_rng(2)
        src = rand_source(rng)
        cons = (RegionConstraints(max_d=0.25),)
        fine = brute_force_oracle(src, HAMMING2, (2, 2, 2), 0.1, cons)
        coarse = brute_force_oracle(src, HAMMING2, (2, 2, 2), 0.2, cons)
        assert coarse.points[0].point.delta <= fine.points[0].point.delta + 1e-12

    def test_budget_refusal(self):
        src = make_bec_bsc_source(0.1, 0.3)
        with pytest.raises(BudgetError) as err:
            brute_force_oracle(src, HAMMING2, (2, 2, 3), 0.02, (RegionConstraints(),),
                               budget=1000)
        assert "combinations" in str(err.value)

    def test_budget_refusal_of_a_fine_step_skips_the_exact_count(self, monkeypatch):
        # step 1e-8: Burnside's lower bound alone is over the budget, so the
        # exact count (tables of 1/step entries) is never built
        def no_count(*args):
            raise AssertionError("exact grid count built for a refused grid")

        monkeypatch.setattr(optimize, "_channel_count", no_count)
        src = make_bec_bsc_source(0.1, 0.3)
        with pytest.raises(BudgetError, match="at least"):
            brute_force_oracle(src, HAMMING2, (2, 2, 2), 1e-8, (RegionConstraints(),),
                               budget=1000)

    @pytest.mark.parametrize("caps, step", [
        ((0, 2, 2), 0.5), ((2, 2), 0.5), ((2, 2, 2, 2), 0.5), ((8, 2, 2), 0.5),
        ((2, 2, 2), 0.0), ((2, 2, 2), math.nan), ((2, 2, 2), -0.5), ((2, 2, 2), 3.0),
    ])
    def test_bad_caps_or_step_is_a_validation_error(self, caps, step):
        src = make_bec_bsc_source(0.1, 0.3)
        with pytest.raises(ValidationError):
            brute_force_oracle(src, HAMMING2, caps, step, (RegionConstraints(),))

    def test_binary_instance_matches_closed_form_at_achieved_d(self):
        src = make_bec_bsc_source(0.1, EPS_STAR)
        res = brute_force_oracle(
            src, HAMMING2, (2, 2, 3), 0.02, (RegionConstraints(max_d=0.01),),
            fixed_w_given_c=Channel.identity(3),
        )
        pt = res.points[0]
        want = binary_frontier(0.1, EPS_STAR, [pt.point.d]).points[0].point.delta
        assert pt.point.delta == pytest.approx(want, abs=2e-3)

    def test_worker_invariance(self):
        rng = np.random.default_rng(4)
        src = rand_source(rng)
        cons = (RegionConstraints(max_d=0.3),)
        # two shards, then one (|W| = 3), which runs in this process
        for caps, step in (((2, 2, 2), 0.1), ((2, 2, 3), 0.5)):
            a = brute_force_oracle(src, HAMMING2, caps, step, cons, workers=1)
            b = brute_force_oracle(src, HAMMING2, caps, step, cons, workers=2)
            assert a.to_json() == b.to_json()

    def test_generic_constraints_share_one_grid_walk(self):
        # scoring every constraint from one walk of the grid gives, point for
        # point, what one call per constraint gives
        rng = np.random.default_rng(6)
        src = rand_source(rng)
        cons = (
            RegionConstraints(max_d=0.2),
            RegionConstraints(max_r_a=0.3, max_d=0.3),
            RegionConstraints(max_r_c=0.25, max_d=0.25),
            RegionConstraints(max_d=0.0, max_r_a=0.0),
            RegionConstraints(),
        )
        together = brute_force_oracle(src, HAMMING2, (2, 2, 2), 0.25, cons)
        assert [p.feasible for p in together.points] == [True, True, True, False, True]
        for pt, c in zip(together.points, cons):
            alone = brute_force_oracle(src, HAMMING2, (2, 2, 2), 0.25, (c,)).points[0]
            assert (pt.feasible, pt.point, pt.params) == (alone.feasible, alone.point, alone.params)


class TestConvexify:
    def test_single_point(self):
        p = RegionPoint(1.0, 0.5, 0.2, 0.1)
        assert convexify([p]) == [p]

    def test_two_points(self):
        pts = [RegionPoint(1, 1, 0.5, 0.2), RegionPoint(0, 2, 0.5, 0.1)]
        out = convexify(pts)
        assert sorted(p.as_tuple() for p in out) == sorted(p.as_tuple() for p in pts)

    def test_collinear(self):
        pts = [RegionPoint(t, 2 * t, 0.1, 0.5 - 0.1 * t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        out = convexify(pts)
        assert len(out) == 2
        assert {p.r_a for p in out} == {0.0, 1.0}

    def test_cloud_dominated_by_hull_combinations(self):
        # every input point is reachable as a convex combination of outputs
        # that is at least as good coordinate-wise
        rng = np.random.default_rng(12)
        pts = [
            RegionPoint(float(a), float(b), float(c), float(dd))
            for a, b, c, dd in rng.random((100, 4))
        ]
        hull = convexify(pts)
        assert len(hull) < len(pts)
        h = np.array([[p.r_a, p.r_c, p.d, p.delta] for p in hull])
        for p in pts:
            target = np.array([p.r_a, p.r_c, p.d, p.delta])
            # lambda >= 0, sum lambda = 1, H^T lambda <= target on (r_a, r_c, d),
            # >= on delta; feasibility LP with zero objective
            n = len(hull)
            a_ub = np.vstack([h[:, :3].T, -h[:, 3:].T])
            b_ub = np.concatenate([target[:3], -target[3:]])
            res = linprog(
                np.zeros(n), A_ub=a_ub, b_ub=b_ub,
                A_eq=np.ones((1, n)), b_eq=[1.0], bounds=[(0, None)] * n,
                method="highs",
            )
            assert res.success, f"no dominating combination for {p}"

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            convexify([RegionPoint(1.0, math.inf, 0.1, 0.0)])

    def test_requires_points(self):
        with pytest.raises(ValidationError):
            convexify([])

    def test_hull_failure_propagates(self, monkeypatch):
        # a failing hull is an error, not a silent "every point is extreme"
        import scipy.spatial

        def broken_hull(coords):
            raise RuntimeError("hull failed")

        monkeypatch.setattr(scipy.spatial, "ConvexHull", broken_hull)
        pts = [RegionPoint(float(a), float(b), float(c), float(dd))
               for a, b, c, dd in np.random.default_rng(3).random((20, 4))]
        with pytest.raises(RuntimeError, match="hull failed"):
            convexify(pts)


class TestFrontierResult:
    def test_sorted_enforced(self):
        pts = (
            FrontierPoint(1.0, True, RegionPoint(0, 0, 0, 0), {}),
            FrontierPoint(0.5, True, RegionPoint(0, 0, 0, 0), {}),
        )
        with pytest.raises(ValidationError):
            FrontierResult(pts)

    def test_json_csv_roundtrip(self):
        fr = binary_frontier(0.1, EPS_STAR, [0.01, 0.05])
        obj = json.loads(fr.to_json())
        assert len(obj["points"]) == 2
        assert obj["points"][0]["point"]["delta"] == fr.points[0].point.delta
        csv = fr.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("sweep,feasible,R_A,R_C,D,Delta")
        assert len(lines) == 3


class TestInfeasibleReporting:
    def test_all_paths_flag_impossible_constraints(self):
        rng = np.random.default_rng(1)
        src = rand_source(rng)
        # zero distortion at zero rate is unachievable for a correlated source
        impossible = (RegionConstraints(max_d=0.0, max_r_a=0.0),)
        assert not brute_force_oracle(src, HAMMING2, (2, 2, 2), 0.25, impossible).points[0].feasible
        assert oracle_exhaustive(src.probs, HAMMING2.table, (2, 2, 2), 0.25, impossible) == [None]
        assert not generic_inner_frontier(src, HAMMING2, (2, 2, 2), impossible,
                                          n_starts=4, seed=0).points[0].feasible


class TestZeroDeltaPoints:
    """A winner whose capped Delta is at most 0 is reported with Delta = 0 at
    the least R_C its rate rows allow.  That point is a region member at the
    winner's system with U replaced by V, whose Delta rows read
    Delta <= H(A|V,E) and Delta - R_C <= H(A|V,E) - I(W;C|V)."""

    @staticmethod
    def check(src, fp):
        prm, pt = fp.params, fp.point
        va, wc = Channel(prm["v_given_a"]), Channel(prm["w_given_c"])
        recon = np.asarray(prm["reconstruction"])
        own = inner_bound_point(src, HAMMING2,
                                AuxiliarySystem(Channel(prm["u_given_v"]), va, wc, recon))
        u_is_v = inner_bound_point(src, HAMMING2,
                                   AuxiliarySystem(Channel.identity(va.output_size), va, wc, recon))
        assert fp.feasible and pt.delta == 0.0
        assert own.delta_max < 0.0  # the winner's own Delta rows reject the point
        assert pt.r_c == max(own.r_c_min, own.sum_min - pt.r_a)
        t = 1e-9
        assert pt.r_a >= u_is_v.r_a_min - t and pt.r_c >= u_is_v.r_c_min - t
        assert pt.r_a + pt.r_c >= u_is_v.sum_min - t and pt.d >= u_is_v.d_min - t
        assert pt.delta <= u_is_v.delta_max + t
        assert pt.delta - pt.r_c <= u_is_v.delta_minus_rc_max + t

    def test_ascent(self):
        src = JointSource.from_json_file(str(DATA_DIR / "source_b.json"))
        cons = (RegionConstraints(max_r_c=0.0, max_d=0.0),)
        res = generic_inner_frontier(src, HAMMING2, (2, 2, 2), cons, n_starts=4, seed=0)
        self.check(src, res.points[0])

    def test_oracle(self):
        src = JointSource.from_json_file(str(DATA_DIR / "source_b.json"))
        cons = (RegionConstraints(max_d=0.2), RegionConstraints(max_r_a=0.3, max_d=0.25),
                RegionConstraints(max_r_c=0.25, max_d=0.25))
        res = brute_force_oracle(src, HAMMING2, (2, 2, 3), 1.0, cons)
        self.check(src, res.points[2])


_CONSTRAINT_SETS = [
    RegionConstraints(), RegionConstraints(max_d=0.2), RegionConstraints(max_r_c=0.0),
    RegionConstraints(max_r_a=0.3, max_r_c=0.1, max_d=0.5),
]


@given(st.lists(st.tuples(*[st.floats(-1.0, 2.0)] * 4), min_size=1, max_size=8),
       st.sampled_from(_CONSTRAINT_SETS))
@settings(max_examples=200, deadline=None)
def test_violation_on_arrays_equals_scalar_calls(rows, cons):
    got = _violation(*np.array(rows).T, cons)
    for i, row in enumerate(rows):
        assert got[i] == _violation(*row, cons)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_raw_row_lossless_objective_matches_validated_channel(data):
    """The helper search scores ``_lossless`` bounds with ``_score`` under
    the helper rate as the R_C cap; that equals the search's own former rule:
    Delta (at least 0) when R_C >= H(C|U) - SLACK, else a penalty below
    ``_INFEASIBLE_BASE`` by the excess of H(C|U) over the rate."""
    na, nu, nc, ne = (data.draw(st.integers(2, 4)) for _ in range(4))

    def weights(shape, lo):
        w = data.draw(st.lists(st.integers(lo, 4), min_size=math.prod(shape),
                               max_size=math.prod(shape)))
        return np.array(w, dtype=float).reshape(shape)

    probs = weights((na, nc, ne), 1)
    src = JointSource(probs / probs.sum())
    rows = weights((na, nu), 0)
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    want = lossless_region_point(src, Channel(rows))
    assert _lossless(src, rows)[0] == want
    r_c = data.draw(st.floats(0.0, 2.0))
    old_rule = (max(0.0, want.delta_max) if want.r_c_min <= r_c + SLACK
                else _INFEASIBLE_BASE - (want.r_c_min - r_c))
    objective = functools.partial(_objective, functools.partial(_lossless, src),
                                  RegionConstraints(max_r_c=r_c))
    assert objective([rows]) == old_rule


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3), (4, 6), (6, 4), (5, 1)])
def test_row_projection_equals_per_row_reference(shape):
    # ascent moves: rows pushed off the simplex, with ties and exact vertices
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    for scale in (0.1, 0.5, 2.0):
        mat = rng.random(shape) + scale * rng.normal(size=shape)
        mat[0] = np.eye(shape[1])[0]
        mat[-1] = 1.0 / shape[1]
        got = _project_rows(mat)
        want = np.vstack([oracle_project_simplex(row) for row in mat])
        assert got.tobytes() == want.tobytes()
        assert np.allclose(got.sum(axis=1), 1.0) and (got >= 0.0).all()
