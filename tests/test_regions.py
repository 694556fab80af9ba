import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdeq import Channel, DistortionMeasure, JointSource, ValidationError, h2, make_bec_bsc_source
from rdeq.regions import (
    LOG2_2PIE,
    AuxiliarySystem,
    GaussianParams,
    RegionPoint,
    bec_bsc_reconstruction,
    binary_bec_bsc_bounds,
    corner_point,
    gaussian_inner,
    gaussian_optimal_no_eve_si,
    inner_bound_point,
    lossless_region_point,
    lossless_region_point_alt,
    uncoded_region_point,
    uncoded_region_point_alt,
)

from _oracles import (
    oracle_cmi_from_dict,
    oracle_cond_entropy_from_dict,
    oracle_full_joint,
    oracle_h2,
)

HAMMING2 = DistortionMeasure.hamming(2)


def rand_dist(rng, shape):
    p = rng.exponential(size=shape)
    return p / p.sum()


def rand_channel(rng, n_in, n_out):
    rows = rng.exponential(size=(n_in, n_out))
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel(rows)


def rand_system(rng, nu=2, nv=2, nw=2, na=2):
    return AuxiliarySystem(
        u_given_v=rand_channel(rng, nv, nu),
        v_given_a=rand_channel(rng, na, nv),
        w_given_c=rand_channel(rng, 2, nw),
        reconstruction=rng.integers(0, na, size=(nv, nw)),
    )


def degenerate_system(source):
    na, nc, _ = source.alphabet_sizes
    return AuxiliarySystem(
        u_given_v=Channel.constant(1),
        v_given_a=Channel.constant(na),
        w_given_c=Channel.constant(nc),
        reconstruction=np.zeros((1, 1), dtype=int),
    )


def oracle_inner_bounds(source, sys, d_table):
    """All six inner bounds by direct summation over the 6-d joint."""
    joint, sizes = oracle_full_joint(
        source.probs.tolist(),
        sys.u_given_v.rows.tolist(),
        sys.v_given_a.rows.tolist(),
        sys.w_given_c.rows.tolist(),
    )
    U, V, W, A, C, E = range(6)
    d_min = 0.0
    for idx, p in joint.items():
        d_min += p * d_table[idx[A]][sys.reconstruction[idx[V], idx[W]]]
    return {
        "r_a_min": oracle_cmi_from_dict(joint, sizes, (V,), (A,), (W,)),
        "r_c_min": oracle_cmi_from_dict(joint, sizes, (W,), (C,), (V,)),
        "sum_min": oracle_cmi_from_dict(joint, sizes, (V, W), (A, C), ()),
        "d_min": d_min,
        "delta_max": oracle_cond_entropy_from_dict(joint, sizes, (A,), (V, W))
        + oracle_cmi_from_dict(joint, sizes, (A,), (W,), (U,))
        - oracle_cmi_from_dict(joint, sizes, (A,), (E,), (U,)),
        "delta_minus_rc_max": oracle_cond_entropy_from_dict(joint, sizes, (A,), (V,))
        - oracle_cmi_from_dict(joint, sizes, (A,), (E,), (U,))
        - oracle_cmi_from_dict(joint, sizes, (W,), (C,), (V,)),
        "joint": (joint, sizes),
    }


class TestInnerBound:
    def test_degenerate_auxiliaries(self):
        src = make_bec_bsc_source(0.1, 0.3)
        sys = degenerate_system(src)
        b = inner_bound_point(src, HAMMING2, sys)
        assert b.r_a_min == pytest.approx(0.0, abs=1e-12)
        assert b.r_c_min == pytest.approx(0.0, abs=1e-12)
        assert b.sum_min == pytest.approx(0.0, abs=1e-12)
        # H(A|VW) = H(A), I(A;W|U) = 0, I(A;E|U) = I(A;E): Delta_max = H(A|E)
        h_a_given_e = h2(0.1)
        assert b.delta_max == pytest.approx(h_a_given_e, abs=1e-12)
        # constant reconstruction guesses symbol 0
        assert b.d_min == pytest.approx(0.5, abs=1e-12)

    def test_full_disclosure_system(self):
        # V = A, W = C, U = V: Delta_max reduces to I(A;C|A) - I(A;E|A) = 0
        rng = np.random.default_rng(2)
        src = JointSource(rand_dist(rng, (2, 3, 2)))
        sys = AuxiliarySystem(
            u_given_v=Channel.identity(2),
            v_given_a=Channel.identity(2),
            w_given_c=Channel.identity(3),
            reconstruction=np.tile(np.arange(2)[:, None], (1, 3)),
        )
        b = inner_bound_point(src, HAMMING2, sys)
        h_a_c = -np.sum(
            src.p_ac()[src.p_ac() > 0] * np.log2(src.p_ac()[src.p_ac() > 0])
        ) - (-np.sum(src.p_c()[src.p_c() > 0] * np.log2(src.p_c()[src.p_c() > 0])))
        assert b.r_a_min == pytest.approx(h_a_c, abs=1e-12)
        h_ac = -np.sum(src.p_ac()[src.p_ac() > 0] * np.log2(src.p_ac()[src.p_ac() > 0]))
        assert b.sum_min == pytest.approx(h_ac, abs=1e-12)
        assert b.delta_max == pytest.approx(0.0, abs=1e-12)
        assert b.d_min == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_on_random_systems(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            src = JointSource(rand_dist(rng, (2, 2, 2)))
            sys = rand_system(rng)
            got = inner_bound_point(src, HAMMING2, sys)
            want = oracle_inner_bounds(src, sys, HAMMING2.table.tolist())
            assert got.r_a_min == pytest.approx(want["r_a_min"], abs=1e-10)
            assert got.r_c_min == pytest.approx(want["r_c_min"], abs=1e-10)
            assert got.sum_min == pytest.approx(want["sum_min"], abs=1e-10)
            assert got.d_min == pytest.approx(want["d_min"], abs=1e-10)
            assert got.delta_max == pytest.approx(want["delta_max"], abs=1e-10)
            assert got.delta_minus_rc_max == pytest.approx(want["delta_minus_rc_max"], abs=1e-10)

    def test_admits(self):
        src = make_bec_bsc_source(0.1, 0.3)
        b = inner_bound_point(src, HAMMING2, degenerate_system(src))
        assert b.delta_max == pytest.approx(h2(0.1), abs=1e-12)
        assert b.admits(RegionPoint(0.0, 0.0, 0.5, 0.0))
        assert not b.admits(RegionPoint(0.0, 0.0, 0.4, 0.0))
        assert not b.admits(RegionPoint(0.0, 0.0, 0.5, h2(0.1) + 0.01))


class TestCornerPoints:
    def test_degenerate_all_coincide(self):
        src = make_bec_bsc_source(0.1, 0.3)
        sys = degenerate_system(src)
        pts = [corner_point(src, HAMMING2, sys, w) for w in ("I", "II", "III")]
        for pt in pts:
            assert pt.r_a == pytest.approx(0.0, abs=1e-12)
            assert pt.r_c == pytest.approx(0.0, abs=1e-12)
            assert pt.d == pytest.approx(0.5, abs=1e-12)
            assert pt.delta == pytest.approx(h2(0.1), abs=1e-12)

    def test_coincidence_identities_random(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            src = JointSource(rand_dist(rng, (2, 2, 2)))
            sys = rand_system(rng, nu=2, nv=3, nw=2)
            p1 = corner_point(src, HAMMING2, sys, "I")
            p2 = corner_point(src, HAMMING2, sys, "II")
            p3 = corner_point(src, HAMMING2, sys, "III")
            assert p1.r_a + p1.r_c == pytest.approx(p2.r_a + p2.r_c, abs=1e-10)
            assert p2.r_a + p2.r_c == pytest.approx(p3.r_a + p3.r_c, abs=1e-10)
            assert p1.delta == pytest.approx(p2.delta, abs=1e-10)
            assert p2.delta - p2.r_c == pytest.approx(p3.delta - p3.r_c, abs=1e-10)
            assert p1.d == p2.d == p3.d

    def test_coordinates_match_oracle(self):
        rng = np.random.default_rng(99)
        src = JointSource(rand_dist(rng, (2, 2, 2)))
        sys = rand_system(rng)
        want = oracle_inner_bounds(src, sys, HAMMING2.table.tolist())
        joint, sizes = want["joint"]
        U, V, W, A, C, E = range(6)
        p3 = corner_point(src, HAMMING2, sys, "III")
        assert p3.r_a == pytest.approx(oracle_cmi_from_dict(joint, sizes, (V,), (A,), ()), abs=1e-10)
        assert p3.r_c == pytest.approx(want["r_c_min"], abs=1e-10)
        assert p3.delta == pytest.approx(
            oracle_cond_entropy_from_dict(joint, sizes, (A,), (U, E))
            - oracle_cmi_from_dict(joint, sizes, (V,), (A,), (U,)),
            abs=1e-10,
        )
        p1 = corner_point(src, HAMMING2, sys, "I")
        assert p1.r_a == pytest.approx(want["r_a_min"], abs=1e-10)
        assert p1.r_c == pytest.approx(oracle_cmi_from_dict(joint, sizes, (W,), (C,), ()), abs=1e-10)

    def test_corner_points_admitted_by_inner_bounds(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            src = JointSource(rand_dist(rng, (2, 2, 2)))
            sys = rand_system(rng)
            bounds = inner_bound_point(src, HAMMING2, sys)
            for w in ("I", "II", "III"):
                assert bounds.admits(corner_point(src, HAMMING2, sys, w), tol=1e-9)

    def test_bad_which(self):
        src = make_bec_bsc_source(0.1, 0.3)
        with pytest.raises(ValidationError):
            corner_point(src, HAMMING2, degenerate_system(src), "IV")


class TestUncodedRegion:
    def test_silent_alice(self):
        # U, V degenerate: R_A_min = 0, Delta_max = H(A|E)
        src = make_bec_bsc_source(0.1, 0.35)
        b = uncoded_region_point(
            src, HAMMING2, Channel.constant(1), Channel.constant(2),
            reconstruction=np.zeros((1, 3), dtype=int),
        )
        assert b.r_a_min == pytest.approx(0.0, abs=1e-12)
        assert b.delta_max == pytest.approx(h2(0.1), abs=1e-12)

    def test_degenerate_u_keeps_full_side_information_gain(self):
        # constant U with a nontrivial V: the equivocation bound becomes
        # H(A|VC) + I(A;C) - I(A;E), computed here independently
        rng = np.random.default_rng(4)
        src = JointSource(rand_dist(rng, (2, 3, 2)))
        v_given_a = rand_channel(rng, 2, 3)
        recon = rng.integers(0, 2, size=(3, 3))
        b = uncoded_region_point(src, HAMMING2, Channel.constant(3), v_given_a, recon)

        def H(x):
            x = x[x > 0]
            return float(-(x * np.log2(x)).sum())

        p_vac = np.einsum("av,ac->vac", v_given_a.rows, src.p_ac())
        h_a_vc = H(p_vac) - H(p_vac.sum(axis=1))
        i_ac = H(src.p_a()) + H(src.p_c()) - H(src.p_ac())
        i_ae = H(src.p_a()) + H(src.p_e()) - H(src.p_ae())
        assert b.delta_max == pytest.approx(h_a_vc + i_ac - i_ae, abs=1e-10)

    def test_u_equals_v_collapses_to_h_a_ve(self):
        # U = V: Delta_max = H(A|VC) + I(A;C|V) - I(A;E|V) = H(A|VE)
        rng = np.random.default_rng(5)
        src = JointSource(rand_dist(rng, (2, 3, 2)))
        v_given_a = rand_channel(rng, 2, 3)
        recon = rng.integers(0, 2, size=(3, 3))
        b = uncoded_region_point(src, HAMMING2, Channel.identity(3), v_given_a, recon)
        p = np.einsum("av,ace->vace", v_given_a.rows, src.probs)
        p_ave = np.transpose(p.sum(axis=2), (1, 0, 2))

        def H(x):
            x = x[x > 0]
            return float(-(x * np.log2(x)).sum())

        h_a_ve = H(p_ave) - H(p_ave.sum(axis=0))
        assert b.delta_max == pytest.approx(h_a_ve, abs=1e-10)

    def test_matches_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            src = JointSource(rand_dist(rng, (2, 2, 2)))
            uv = rand_channel(rng, 2, 2)
            va = rand_channel(rng, 2, 2)
            recon = rng.integers(0, 2, size=(2, 2))
            b = uncoded_region_point(src, HAMMING2, uv, va, recon)
            # oracle: embed as 5-d joint and sum directly
            p = np.einsum("vu,av,ace->uvace", uv.rows, va.rows, src.probs)
            joint = {}
            for idx in np.ndindex(*p.shape):
                joint[idx] = float(p[idx])
            sizes = p.shape
            r_a = oracle_cmi_from_dict(joint, sizes, (1,), (2,), (3,))
            delta = (
                oracle_cond_entropy_from_dict(joint, sizes, (2,), (1, 3))
                + oracle_cmi_from_dict(joint, sizes, (2,), (3,), (0,))
                - oracle_cmi_from_dict(joint, sizes, (2,), (4,), (0,))
            )
            d_min = 0.0
            for idx, mass in joint.items():
                d_min += mass * HAMMING2.table[idx[2], recon[idx[1], idx[3]]]
            assert b.r_a_min == pytest.approx(r_a, abs=1e-10)
            assert b.delta_max == pytest.approx(delta, abs=1e-10)
            assert b.d_min == pytest.approx(d_min, abs=1e-10)

    def test_prop7_system_reproduces_closed_form(self):
        # evaluating the binary chain system through the generic uncoded
        # evaluator must reproduce the closed-form binary bounds
        p, eps = 0.1, h2(0.1)
        src = make_bec_bsc_source(p, eps)
        for alpha, beta in [(0.0, 0.078), (0.031, 0.05), (0.2, 0.3), (0.031, 0.0)]:
            sys_u = Channel.bsc(beta)
            sys_v = Channel.bsc(alpha)
            got = uncoded_region_point(src, HAMMING2, sys_u, sys_v, bec_bsc_reconstruction())
            want = binary_bec_bsc_bounds(p, eps, alpha, beta)
            assert got.r_a_min == pytest.approx(want.r_a_min, abs=1e-12)
            assert got.d_min == pytest.approx(want.d_min, abs=1e-12)
            assert got.delta_max == pytest.approx(want.delta_max, abs=1e-12)


class TestDistortionFit:
    """Every evaluator needs a table of |A| rows and reconstruction symbols
    that index its columns."""

    @pytest.mark.parametrize("evaluate", [
        lambda src, d, recon: inner_bound_point(
            src, d, AuxiliarySystem(Channel.bsc(0.1), Channel.bsc(0.05), Channel.identity(3), recon)),
        lambda src, d, recon: corner_point(
            src, d, AuxiliarySystem(Channel.bsc(0.1), Channel.bsc(0.05), Channel.identity(3), recon),
            "II"),
        lambda src, d, recon: uncoded_region_point(src, d, Channel.bsc(0.1), Channel.bsc(0.05), recon),
        lambda src, d, recon: uncoded_region_point_alt(
            src, d, Channel.bsc(0.1), Channel.bsc(0.05), recon),
    ], ids=["inner", "corner", "uncoded", "uncoded_alt"])
    @pytest.mark.parametrize("d, recon", [
        (HAMMING2, [[0, 0, -1], [0, 1, 1]]),
        (HAMMING2, [[0, 0, 5], [0, 1, 1]]),
        (DistortionMeasure.hamming(3), [[0, 0, 1], [0, 1, 1]]),
        (DistortionMeasure(np.array([[0.0, 1.0]])), [[0, 0, 1], [0, 1, 1]]),
    ], ids=["negative_symbol", "symbol_past_columns", "three_rows", "one_row"])
    def test_table_or_map_not_fitting_the_source(self, evaluate, d, recon):
        src = make_bec_bsc_source(0.1, h2(0.1))
        with pytest.raises(ValidationError, match="distortion table|reconstruction symbols"):
            evaluate(src, d, np.array(recon))

    def test_wider_table_fits(self):
        # a reconstruction alphabet larger than A is allowed: symbol 2 is "erased"
        src = make_bec_bsc_source(0.1, h2(0.1))
        d = DistortionMeasure(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]))
        b = uncoded_region_point(src, d, Channel.constant(2), Channel.identity(2),
                                 np.array([[0, 2, 1], [0, 2, 1]]))
        assert b.d_min == pytest.approx(0.5 * h2(0.1), abs=1e-12)


class TestUncodedAlt:
    def test_degenerate_u_identical(self):
        rng = np.random.default_rng(8)
        src = JointSource(rand_dist(rng, (2, 2, 2)))
        va = rand_channel(rng, 2, 2)
        recon = rng.integers(0, 2, size=(2, 2))
        a = uncoded_region_point(src, HAMMING2, Channel.constant(2), va, recon)
        b = uncoded_region_point_alt(src, HAMMING2, Channel.constant(2), va, recon)
        assert a.r_a_min == pytest.approx(b.r_a_min, abs=1e-12)
        assert a.delta_max == pytest.approx(b.delta_max, abs=1e-12)

    def test_eve_informative_u_same_rate(self):
        # when I(U;C) <= I(U;E) the positive part clamps to zero
        src = make_bec_bsc_source(0.05, 0.9)  # Eve much stronger
        va = Channel.bsc(0.1)
        uv = Channel.bsc(0.2)
        recon = bec_bsc_reconstruction()
        a = uncoded_region_point(src, HAMMING2, uv, va, recon)
        b = uncoded_region_point_alt(src, HAMMING2, uv, va, recon)
        assert b.r_a_min == pytest.approx(a.r_a_min, abs=1e-12)

    def test_bob_informative_u_strictly_larger(self):
        # crafted source where C is more informative: extra rate is exactly
        # I(U;C) - I(U;E) > 0, computed independently
        src = make_bec_bsc_source(0.45, 0.05)  # Bob nearly clean, Eve nearly useless
        va = Channel.bsc(0.1)
        uv = Channel.bsc(0.15)
        recon = bec_bsc_reconstruction()
        a = uncoded_region_point(src, HAMMING2, uv, va, recon)
        b = uncoded_region_point_alt(src, HAMMING2, uv, va, recon)
        p = np.einsum("vu,av,ace->uvace", uv.rows, va.rows, src.probs)

        def mi(joint2):
            px = joint2.sum(axis=1)
            py = joint2.sum(axis=0)
            nz = joint2 > 0
            return float((joint2[nz] * np.log2(joint2[nz] / np.outer(px, py)[nz])).sum())

        gap = mi(p.sum(axis=(1, 2, 4))) - mi(p.sum(axis=(1, 2, 3)))
        assert gap > 1e-3
        assert b.r_a_min - a.r_a_min == pytest.approx(gap, abs=1e-10)
        assert b.delta_max == pytest.approx(a.delta_max, abs=1e-12)


class TestLosslessRegion:
    def test_u_equals_a_slepian_wolf(self):
        rng = np.random.default_rng(21)
        src = JointSource(rand_dist(rng, (2, 3, 2)))
        b = lossless_region_point(src, Channel.identity(2))
        pac = src.p_ac()

        def H(x):
            x = x[x > 0]
            return float(-(x * np.log2(x)).sum())

        assert b.delta_max == pytest.approx(0.0, abs=1e-10)
        assert b.r_c_min == pytest.approx(H(pac) - H(src.p_a()), abs=1e-10)
        assert b.sum_min == pytest.approx(H(pac), abs=1e-10)

    def test_u_degenerate(self):
        rng = np.random.default_rng(22)
        src = JointSource(rand_dist(rng, (2, 2, 2)))
        b = lossless_region_point(src, Channel.constant(2))

        def mi(joint2):
            px = joint2.sum(axis=1)
            py = joint2.sum(axis=0)
            nz = joint2 > 0
            return float((joint2[nz] * np.log2(joint2[nz] / np.outer(px, py)[nz])).sum())

        def H(x):
            x = x[x > 0]
            return float(-(x * np.log2(x)).sum())

        assert b.delta_max == pytest.approx(mi(src.p_ac()) - mi(src.p_ae()), abs=1e-10)
        assert b.r_c_min == pytest.approx(H(src.p_c()), abs=1e-10)

    def test_matches_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            src = JointSource(rand_dist(rng, (2, 2, 2)))
            ua = rand_channel(rng, 2, 2)
            b = lossless_region_point(src, ua)
            p = np.einsum("au,ace->uace", ua.rows, src.probs)
            joint = {idx: float(p[idx]) for idx in np.ndindex(*p.shape)}
            sizes = p.shape
            assert b.r_a_min == pytest.approx(
                oracle_cond_entropy_from_dict(joint, sizes, (1,), (2,)), abs=1e-10
            )
            assert b.r_c_min == pytest.approx(
                oracle_cond_entropy_from_dict(joint, sizes, (2,), (0,)), abs=1e-10
            )
            assert b.delta_max == pytest.approx(
                oracle_cmi_from_dict(joint, sizes, (1,), (2,), (0,))
                - oracle_cmi_from_dict(joint, sizes, (1,), (3,), (0,)),
                abs=1e-10,
            )

    def test_alt_form(self):
        rng = np.random.default_rng(26)
        src = make_bec_bsc_source(0.45, 0.05)
        ua = Channel.bsc(0.1)
        a = lossless_region_point(src, ua)
        b = lossless_region_point_alt(src, ua)
        assert b.r_a_min >= a.r_a_min - 1e-12
        assert b.delta_max == pytest.approx(a.delta_max, abs=1e-12)
        # degenerate U: identical
        a0 = lossless_region_point(src, Channel.constant(2))
        b0 = lossless_region_point_alt(src, Channel.constant(2))
        assert a0.r_a_min == pytest.approx(b0.r_a_min, abs=1e-12)


class TestGaussian:
    def test_no_compression_needed(self):
        g = gaussian_inner(GaussianParams(0.8, 0.6), r_c=0.0, d=1.0)
        assert g.r_a_min == pytest.approx(0.0, abs=1e-12)
        assert g.delta_max == pytest.approx(0.5 * math.log2(2 * math.pi * math.e * (1 - 0.36)), abs=1e-12)

    def test_high_rate_point(self):
        # rho_c=0.8, rho_e=0.6, R_C=30, D=0.1: R_A_min = 0.5 log2(0.36/0.1)
        g = gaussian_inner(GaussianParams(0.8, 0.6), r_c=30.0, d=0.1)
        want = 0.5 * math.log2((1 - 0.64 + 0.64 * 2.0 ** (-60)) / 0.1)
        assert g.r_a_min == pytest.approx(want, abs=1e-12)
        assert g.r_a_min == pytest.approx(0.9239985, abs=1e-6)

    def test_unbounded_rc_sentinel(self):
        g_inf = gaussian_inner(GaussianParams(0.8, 0.6), r_c=math.inf, d=0.1)
        want = 0.5 * math.log2(0.36 / 0.1)
        assert g_inf.r_a_min == pytest.approx(want, abs=1e-12)

    def test_monotone_shape(self):
        params = GaussianParams(0.8, 0.6)
        deltas = [gaussian_inner(params, 1.0, d).delta_max for d in np.linspace(0.05, 0.9, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
        rates_rc = [gaussian_inner(params, rc, 0.1).r_a_min for rc in np.linspace(0.0, 5.0, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(rates_rc, rates_rc[1:]))
        rates_d = [gaussian_inner(params, 1.0, d).r_a_min for d in np.linspace(0.05, 0.9, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(rates_d, rates_d[1:]))

    def test_rho_e_zero_matches_exact_region(self):
        # numeric verification of the stated specialization identity
        for r_c in np.linspace(0.0, 4.0, 9):
            for d in np.linspace(0.02, 1.5, 9):
                a = gaussian_inner(GaussianParams(0.8, 0.0), float(r_c), float(d))
                b = gaussian_optimal_no_eve_si(0.8, float(r_c), float(d))
                assert a.r_a_min == pytest.approx(b.r_a_min, abs=1e-12)
                assert a.delta_max == pytest.approx(b.delta_max, abs=1e-9)

    def test_exact_region_clamp(self):
        # D above Var(A | rate-R_C description): zero rate, Delta = max
        b = gaussian_optimal_no_eve_si(0.8, 1.0, d=0.9)
        assert b.r_a_min == 0.0
        assert b.delta_max == pytest.approx(0.5 * LOG2_2PIE, abs=1e-12)

    def test_exact_point(self):
        b = gaussian_optimal_no_eve_si(0.8, 1.0, d=0.2)
        assert b.r_a_min == pytest.approx(0.5 * math.log2(2.6), abs=1e-12)
        assert b.r_a_min == pytest.approx(0.6892561, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValidationError):
            gaussian_inner(GaussianParams(0.8, 0.6), 1.0, d=0.0)
        with pytest.raises(ValidationError):
            GaussianParams(1.0, 0.6)


class TestBinaryClosedForm:
    def test_table_lossless_point(self):
        b = binary_bec_bsc_bounds(0.1, h2(0.1), 0.0, 0.078)
        assert b.r_a_min == pytest.approx(0.469, abs=2e-3)
        assert b.d_min == 0.0
        assert b.delta_max == pytest.approx(0.039, abs=1e-3)

    def test_slepian_wolf_zero(self):
        b = binary_bec_bsc_bounds(0.1, h2(0.1), 0.0, 0.0)
        assert b.delta_max == pytest.approx(0.0, abs=1e-15)

    def test_table_lossy_point(self):
        b = binary_bec_bsc_bounds(0.1, h2(0.1), 0.031, 0.050)
        assert b.r_a_min == pytest.approx(0.375, abs=1e-3)
        assert b.d_min == pytest.approx(0.015, abs=1e-3)
        assert b.delta_max == pytest.approx(0.133, abs=1e-3)

    def test_wyner_ziv_column(self):
        b = binary_bec_bsc_bounds(0.1, h2(0.1), 0.031, 0.0)
        assert b.delta_max == pytest.approx(0.126, abs=1e-3)
        assert binary_bec_bsc_bounds(0.1, h2(0.1), 0.0, 0.0).delta_max == pytest.approx(
            0.0, abs=1e-15)

    def test_oracle_formula(self):
        # independent scalar evaluation of the closed form
        p, eps, alpha, beta = 0.17, 0.37, 0.08, 0.21
        ab = alpha * (1 - beta) + (1 - alpha) * beta
        pab = p * (1 - ab) + (1 - p) * ab
        want = eps * oracle_h2(alpha) + (1 - eps) * oracle_h2(ab) - oracle_h2(pab) + oracle_h2(p)
        got = binary_bec_bsc_bounds(p, eps, alpha, beta)
        assert got.delta_max == pytest.approx(want, abs=1e-14)
        assert got.r_a_min == pytest.approx(eps * (1 - oracle_h2(alpha)), abs=1e-14)
        assert got.d_min == pytest.approx(eps * alpha, abs=1e-14)

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            binary_bec_bsc_bounds(0.6, 0.3, 0.1, 0.1)
        with pytest.raises(ValidationError):
            binary_bec_bsc_bounds(0.1, 0.3, 0.7, 0.1)

    def test_scalar_arguments_give_floats(self):
        b = binary_bec_bsc_bounds(0.1, 0.4, 0.05, 0.1)
        assert all(type(x) is float for x in (b.r_a_min, b.d_min, b.delta_max))

    @given(st.floats(0, 0.5), st.floats(0, 1),
           st.lists(st.floats(0, 0.5), min_size=1, max_size=8),
           st.lists(st.floats(0, 0.5), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_array_form_equals_point_calls_bitwise(self, p, eps, alphas, betas):
        got = binary_bec_bsc_bounds(p, eps, np.array(alphas)[:, None], np.array(betas)[None, :])
        for i, a in enumerate(alphas):
            for j, b in enumerate(betas):
                want = binary_bec_bsc_bounds(p, eps, a, b)
                assert (got.r_a_min[i, j], got.d_min[i, j], got.delta_max[i, j]) == (
                    want.r_a_min, want.d_min, want.delta_max)

    @pytest.mark.parametrize("bad", [math.nan, -1e-12, 0.5 + 1e-12])
    @pytest.mark.parametrize("field", range(4))
    def test_array_form_rejects_any_bad_entry(self, field, bad):
        args = [np.full(5, 0.2) for _ in range(4)]
        args[field][3] = bad
        if field == 1 and bad > 0:  # eps may reach 1
            args[field][3] = 1.0 + 1e-12
        with pytest.raises(ValidationError):
            binary_bec_bsc_bounds(*args)


class TestBinaryChainVsInnerEvaluator:
    def test_uncoded_evaluation_as_inner_with_identity_w(self):
        # W = C through the identity channel makes the coded evaluator agree
        # with the uncoded one for rate-at-Alice and distortion
        p, eps, alpha, beta = 0.1, h2(0.1), 0.05, 0.1
        src = make_bec_bsc_source(p, eps)
        sys = AuxiliarySystem(Channel.bsc(beta), Channel.bsc(alpha), Channel.identity(3),
                              bec_bsc_reconstruction())
        coded = inner_bound_point(src, HAMMING2, sys)
        uncoded = uncoded_region_point(
            src, HAMMING2, Channel.bsc(beta), Channel.bsc(alpha), bec_bsc_reconstruction()
        )
        assert coded.r_a_min == pytest.approx(uncoded.r_a_min, abs=1e-10)
        assert coded.d_min == pytest.approx(uncoded.d_min, abs=1e-10)
        assert coded.delta_max == pytest.approx(uncoded.delta_max, abs=1e-10)
