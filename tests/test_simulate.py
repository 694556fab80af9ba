import math
from itertools import product

import numpy as np
import pytest

from _oracles import (
    oracle_decode,
    oracle_first_refinement,
    oracle_first_typical,
    oracle_message_equivocation,
    oracle_typical_margins,
)
from rdeq import BudgetError, Channel, DistortionMeasure, ValidationError, h2, simulate
from rdeq.probability import make_bec_bsc_source, JointSource
from rdeq.regions import AuxiliarySystem, binary_bec_bsc_bounds
from rdeq.simulate import (
    AliceEncoding,
    CharlieEncoding,
    CodeConfig,
    conditionally_typical_pairs,
    encoder_message_table,
    eve_map_bit_error_rate,
    exact_equivocation,
    generate_codebooks,
    message_equivocation,
    run_experiment,
    typical_rows,
)

HAMMING2 = DistortionMeasure.hamming(2)


def degenerate_system():
    return AuxiliarySystem(Channel.constant(1), Channel.constant(2), Channel.constant(3),
                           np.zeros((1, 1), dtype=int))


def wz_system(alpha, w_rows, recon):
    """Single-layer system: U = V = BSC(alpha)(A), coded W from C."""
    return AuxiliarySystem(Channel.identity(2), Channel.bsc(alpha), Channel(w_rows),
                           np.asarray(recon))


# calibrated sweep operating point: single-layer chain at alpha = 0.15 on the
# (p = 0.1, eps = h2(0.1)) source, erasure-thinned ternary W, singleton bins
SWEEP_P = 0.1
SWEEP_ALPHA = 0.15
SWEEP_W = np.array([[0.65, 0.35, 0.0], [0.0, 1.0, 0.0], [0.0, 0.35, 0.65]])
SWEEP_RECON = np.array([[0, 0, 1], [0, 1, 1]])
SWEEP_S1, SWEEP_SC = 0.84, 1.029
# per-n typicality slack, aligned so the integer count windows grow smoothly
SWEEP_DELTA = {8: 0.140, 10: 0.155, 12: 0.190, 14: 0.215}


def sweep_config(n, seed=11):
    return CodeConfig(n=n, r1=SWEEP_S1, r2=0.0, rc_link=SWEEP_SC,
                      s1=SWEEP_S1, s2=0.0, sc=SWEEP_SC,
                      delta_n=SWEEP_DELTA[n], seed=seed)


class TestTypicality:
    def test_typical_rows_counts(self):
        p = np.array([0.5, 0.5])
        seqs = np.array([[0, 1, 0, 1], [0, 0, 0, 0]])
        ok = typical_rows(seqs, p, delta=0.1)
        assert ok.tolist() == [True, False]

    def test_zero_mass_enforced(self):
        p = np.array([1.0, 0.0])
        seqs = np.array([[0, 0, 0, 0], [0, 1, 0, 0]])
        ok = typical_rows(seqs, p, delta=0.9)
        assert ok.tolist() == [True, False]

    def test_joint_counts(self):
        p_xy = np.array([[0.5, 0.0], [0.0, 0.5]])
        x = np.array([0, 1, 0, 1])
        ys = np.array([[0, 1, 0, 1], [1, 0, 1, 0]])
        ok = typical_rows(x * 2 + ys, p_xy.ravel(), delta=0.05)
        assert ok.tolist() == [True, False]

    def test_conditional_uses_given_counts(self):
        # target is N(a|x)/n p(b|a), not p(a) p(b|a)
        p_y_given_x = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([0, 0, 0, 1])  # unbalanced given sequence
        y_match = np.array([[0, 0, 0, 1]])
        y_flip = np.array([[0, 0, 1, 1]])
        assert conditionally_typical_pairs(x, y_match, p_y_given_x, 0.05)[0]
        assert not conditionally_typical_pairs(x, y_flip, p_y_given_x, 0.05)[0]


class TestCodeConfig:
    def test_counts_computed_once(self, monkeypatch):
        calls = []
        real = simulate._pow2_count
        monkeypatch.setattr(simulate, "_pow2_count", lambda n, r: calls.append(r) or real(n, r))
        cfg = CodeConfig(n=8, r1=0.5, r2=0.0, rc_link=0.3, s1=0.6, s2=0.0, sc=0.4)
        for _ in range(3):
            counts = (cfg.num_u, cfg.num_v, cfg.num_w, cfg.bins_u, cfg.bins_v, cfg.bins_w)
        assert counts == (28, 1, 10, 16, 1, 6)
        assert len(calls) == 6

    def test_counts_round_up(self):
        cfg = CodeConfig(n=8, r1=0.5, r2=0.0, rc_link=0.3, s1=0.6, s2=0.0, sc=0.4)
        assert cfg.bins_u == 16
        assert cfg.num_u == 28  # ceil(2^4.8)
        assert cfg.num_v == 1
        assert cfg.delta == pytest.approx(8 ** (-1 / 3))

    def test_rate_validation(self):
        with pytest.raises(ValidationError):
            CodeConfig(n=8, r1=0.7, r2=0.0, rc_link=0.0, s1=0.6, s2=0.0, sc=0.0)
        with pytest.raises(ValidationError):
            CodeConfig(n=0, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0)

    @pytest.mark.parametrize("field, value", [
        ("r1", math.nan), ("sc", math.nan), ("s1", math.inf),
        ("delta_n", math.nan), ("delta_n", math.inf), ("n", 4.5), ("n", 8.0),
        ("seed", -1), ("seed", 1.5),
    ])
    def test_non_finite_rate_or_slack_or_non_integer_n(self, field, value):
        args = dict(n=8, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, delta_n=0.2)
        args[field] = value
        with pytest.raises(ValidationError):
            CodeConfig(**args)

    def test_realized_bin_rates_within_rounding(self):
        cfg = sweep_config(10)
        assert math.log2(cfg.bins_u) / cfg.n <= cfg.r1 + 1.0 / cfg.n + 1e-12
        assert math.log2(cfg.bins_w) / cfg.n <= cfg.rc_link + 1.0 / cfg.n + 1e-12


class TestCodebooks:
    def test_singleton_alphabet_constant_codebook(self):
        src = make_bec_bsc_source(0.1, 0.3)
        cfg = CodeConfig(n=6, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=3)
        inst = generate_codebooks(src, degenerate_system(), cfg)
        assert inst.u_cb.shape == (1, 6)
        assert np.all(inst.u_cb == 0)

    def test_all_codewords_typical(self):
        src = make_bec_bsc_source(0.1, h2(0.1))
        sys = wz_system(0.2, SWEEP_W, SWEEP_RECON)
        cfg = CodeConfig(n=8, r1=0.5, r2=0.0, rc_link=0.6, s1=0.7, s2=0.0, sc=0.9,
                         delta_n=0.15, seed=5)
        inst = generate_codebooks(src, sys, cfg)
        p_u = np.einsum("av,a->v", Channel.bsc(0.2).rows, src.p_a())
        assert typical_rows(inst.u_cb, p_u, 0.15).all()
        p_w = np.einsum("cw,c->w", SWEEP_W, src.p_c())
        assert typical_rows(inst.w_cb, p_w, 0.15).all()

    def test_deterministic_given_seed(self):
        src = make_bec_bsc_source(0.1, h2(0.1))
        sys = wz_system(0.2, SWEEP_W, SWEEP_RECON)
        cfg = CodeConfig(n=8, r1=0.5, r2=0.0, rc_link=0.6, s1=0.7, s2=0.0, sc=0.9,
                         delta_n=0.15, seed=5)
        a = generate_codebooks(src, sys, cfg)
        b = generate_codebooks(src, sys, cfg)
        assert np.array_equal(a.u_cb, b.u_cb)
        assert np.array_equal(a.v_cb, b.v_cb)
        assert np.array_equal(a.w_cb, b.w_cb)

    def test_bins_round_robin_equal_sizes(self):
        src = make_bec_bsc_source(0.1, h2(0.1))
        sys = wz_system(0.2, SWEEP_W, SWEEP_RECON)
        cfg = CodeConfig(n=8, r1=0.4, r2=0.0, rc_link=0.6, s1=0.7, s2=0.0, sc=0.9,
                         delta_n=0.15, seed=5)
        inst = generate_codebooks(src, sys, cfg)
        sizes = np.bincount(inst.u_bin, minlength=cfg.bins_u)
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == cfg.num_u

    def test_budget_refusal(self):
        src = make_bec_bsc_source(0.1, 0.3)
        sys = wz_system(0.2, SWEEP_W, SWEEP_RECON)
        cfg = CodeConfig(n=20, r1=1.0, r2=0.0, rc_link=1.0, s1=1.0, s2=0.0, sc=1.0)
        with pytest.raises(BudgetError):
            generate_codebooks(src, sys, cfg, entry_budget=1000)

    def test_empty_typical_set_error(self):
        # delta so small that no balanced sequence exists at odd counts
        src = make_bec_bsc_source(0.1, 0.3)
        sys = wz_system(0.2, SWEEP_W, SWEEP_RECON)
        cfg = CodeConfig(n=7, r1=0.2, r2=0.0, rc_link=0.2, s1=0.4, s2=0.0, sc=0.4,
                         delta_n=1e-6, seed=5)
        with pytest.raises(ValidationError):
            generate_codebooks(src, sys, cfg)


class TestEncoding:
    def make_toy(self, n=12, delta=0.20, seed=7):
        # binary toy with a clean helper: C = BSC(0.02)(A), E = BSC(0.25)(A),
        # V = U = BSC(0.11)(A), W = erasure-thinned C (keep 0.7); the
        # reconstruction trusts W unless erased, else V; singleton bins
        src = JointSource.from_channels(np.array([0.5, 0.5]), Channel.bsc(0.02), Channel.bsc(0.25))
        w_rows = np.array([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]])
        sys = AuxiliarySystem(Channel.identity(2), Channel.bsc(0.11), Channel(w_rows),
                              np.array([[0, 0, 1], [0, 1, 1]]))
        cfg = CodeConfig(n=n, r1=0.80, r2=0.0, rc_link=1.0, s1=0.80, s2=0.0, sc=1.0,
                         delta_n=delta, seed=seed)
        return src, sys, cfg

    def test_atypical_sequence_fails_stage1(self):
        src, sys, cfg = self.make_toy()
        inst = generate_codebooks(src, sys, cfg)
        enc = inst.encode_alice(np.zeros(cfg.n, dtype=int))
        assert enc.failed_u

    def test_degenerate_system_always_succeeds(self):
        src = make_bec_bsc_source(0.1, 0.3)
        cfg = CodeConfig(n=8, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=1)
        inst = generate_codebooks(src, degenerate_system(), cfg)
        enc = inst.encode_alice(np.array([0, 1, 0, 1, 1, 0, 0, 1]))
        assert (enc.s1, enc.s2) == (0, 0)
        assert not enc.failed_u and not enc.failed_v

    def test_failure_rate_small_with_margins(self):
        src, sys, cfg = self.make_toy()
        rep = run_experiment(src, sys, HAMMING2, cfg, trials=4000, compute_equivocation=False)
        assert rep.encode_failure_rates["alice_u"] < 0.1
        assert rep.encode_failure_rates["charlie"] < 0.15

    def test_charlie_singleton(self):
        src = make_bec_bsc_source(0.1, 0.3)
        cfg = CodeConfig(n=8, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=1)
        inst = generate_codebooks(src, degenerate_system(), cfg)
        enc = inst.encode_charlie(np.array([0, 1, 2, 1, 0, 2, 1, 0]))
        assert enc.s == 0 and not enc.failed

    def test_charlie_atypical_sequence_fails(self):
        src, sys, cfg = self.make_toy()
        inst = generate_codebooks(src, sys, cfg)
        enc = inst.encode_charlie(np.zeros(cfg.n, dtype=int))
        assert enc.failed


class TestDecoding:
    def test_singleton_bins_no_ambiguity(self):
        # S = R: every bin holds one codeword, so decoding can never see
        # multiple matches, and a typical triple is returned exactly
        src = JointSource.from_channels(np.array([0.5, 0.5]), Channel.bsc(0.02), Channel.bsc(0.25))
        w_rows = np.array([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]])
        sys = AuxiliarySystem(Channel.identity(2), Channel.bsc(0.11), Channel(w_rows),
                              np.array([[0, 0, 1], [0, 1, 1]]))
        cfg = CodeConfig(n=12, r1=0.80, r2=0.0, rc_link=1.0, s1=0.80, s2=0.0, sc=1.0,
                         delta_n=0.20, seed=7)
        inst = generate_codebooks(src, sys, cfg)
        rng = np.random.default_rng(0)
        flat = src.probs.ravel()
        matched = 0
        for _ in range(50):
            draw = rng.choice(flat.size, size=cfg.n, p=flat)
            a = draw // 4
            c = (draw // 2) % 2
            enc = inst.encode_alice(a)
            ch = inst.encode_charlie(c)
            res = inst.decode_bob((enc.r1, enc.r2), ch.r)
            assert res.n_matches <= 1
            if res.n_matches == 1:
                assert (res.s1, res.s2, res.s) == (enc.s1, enc.s2, ch.s)
                matched += 1
        assert matched > 20
        rep = run_experiment(src, sys, HAMMING2, cfg, trials=2000, compute_equivocation=False)
        assert rep.decode_ambiguity_rate == 0.0

    def test_ambiguity_grows_when_bin_excess_violates_decode_rate(self):
        # single-layer code with v-bin excess far above I(V;W): the number of
        # in-bin impostors grows with n, so multiple matches become the rule
        src = JointSource.from_channels(np.array([0.5, 0.5]), Channel.bsc(0.2), Channel.bsc(0.25))
        sys = AuxiliarySystem(Channel.identity(2), Channel.bsc(0.11), Channel.bsc(0.1),
                              np.array([[0, 0], [1, 1]]))
        rates = []
        for n in (8, 14):
            cfg = CodeConfig(n=n, r1=0.37, r2=0.0, rc_link=0.65, s1=0.62, s2=0.0, sc=0.65,
                             delta_n=0.14, seed=7)
            rep = run_experiment(src, sys, HAMMING2, cfg, trials=2000, compute_equivocation=False)
            rates.append(rep.decode_ambiguity_rate)
        assert rates[1] > rates[0] + 0.05

    def test_end_to_end_distortion_near_target(self):
        # the toy system is designed for distortion D = 0.11 (quantization
        # noise alpha = 0.11 when the helper output is erased); empirical
        # distortion at n = 12 stays within D + 0.05
        src = JointSource.from_channels(np.array([0.5, 0.5]), Channel.bsc(0.02), Channel.bsc(0.25))
        w_rows = np.array([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]])
        sys = AuxiliarySystem(Channel.identity(2), Channel.bsc(0.11), Channel(w_rows),
                              np.array([[0, 0, 1], [0, 1, 1]]))
        cfg = CodeConfig(n=12, r1=0.80, r2=0.0, rc_link=1.0, s1=0.80, s2=0.0, sc=1.0,
                         delta_n=0.20, seed=7)
        rep = run_experiment(src, sys, HAMMING2, cfg, trials=10_000, compute_equivocation=False)
        assert rep.empirical_distortion <= 0.11 + 0.05

    def test_bad_bin_index(self):
        src = make_bec_bsc_source(0.1, 0.3)
        cfg = CodeConfig(n=8, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=1)
        inst = generate_codebooks(src, degenerate_system(), cfg)
        with pytest.raises(ValidationError):
            inst.decode_bob((5, 0), 0)


def two_layer_code():
    """n = 8 code with several v-codewords per u-codeword and bins of several
    members in all three layers."""
    src = make_bec_bsc_source(0.1, h2(0.1))
    sys = AuxiliarySystem(Channel.bsc(0.2), Channel.bsc(0.1), Channel(SWEEP_W), SWEEP_RECON)
    cfg = CodeConfig(n=8, r1=0.3, r2=0.2, rc_link=0.6, s1=0.5, s2=0.4, sc=0.9,
                     delta_n=0.16, seed=3)
    return src, generate_codebooks(src, sys, cfg)


def source_rows(src, n, m, seed):
    """(a^n, c^n) rows of m i.i.d. source draws."""
    _, nc, ne = src.alphabet_sizes
    draw = np.random.default_rng(seed).choice(src.probs.size, size=(m, n), p=src.probs.ravel())
    return draw // (nc * ne), (draw // ne) % nc


def with_fallback(idx, failed):
    return np.where(failed, -1, idx).tolist()


def small_law(seed):
    """(p(x, y), n, delta) of a random law with zero cells.  Seeds 0, 3, ...
    put it on the 1/n grid with a slack below 1/(2n), so one count per cell
    passes; seeds 2, 5, ... give a slack below 1/(2n), so mostly some cell
    passes no count.  "slack" is a law whose cell 0.7 passes N = 9 at
    delta = 0.2 and n = 10 only through the 1e-12 float slack of
    ``_typical``: 0.9 - 0.7 rounds to 0.20000000000000007."""
    if seed == "slack":
        return np.array([[0.7, 0.1], [0.1, 0.1]]), 10, 0.2
    rng = np.random.default_rng(seed)
    kx, ky = (int(k) for k in rng.integers(2, 4, size=2))
    n = int(rng.integers(4, 10))
    if seed % 3:
        p = rng.random((kx, ky)) * (rng.random((kx, ky)) > 0.25)
        p[0, 0] += 0.1
    else:
        p = np.bincount(rng.integers(0, kx * ky, n), minlength=kx * ky).reshape(kx, ky) * 1.0
    delta = 0.05 + 0.25 * rng.random() if seed % 3 == 1 else 0.5 / n * rng.random()
    return p / p.sum(), n, delta


class TestCodewordSearch:
    """Block scans and the decoder against one-pair-at-a-time oracles."""

    # more open rows than one block holds, down to one-codeword blocks
    @pytest.mark.parametrize("pairs,m", [(1, 40), (7, 300), (simulate._PAIRS, simulate._PAIRS + 200)])
    def test_encoder_stages_match_oracle(self, monkeypatch, pairs, m):
        monkeypatch.setattr(simulate, "_PAIRS", pairs)
        src, inst = two_layer_code()
        delta = inst.config.delta
        a, c = source_rows(src, 8, m, seed=5)
        enc = inst.encode_alice(a)
        s1, s2, f_u, f_v = enc.s1, enc.s2, enc.failed_u, enc.failed_v
        want = oracle_first_typical(inst.u_cb.tolist(), a.tolist(),
                                    inst._dist["p_ua"].tolist(), delta)
        assert with_fallback(s1, f_u) == want
        want = oracle_first_refinement(inst.u_cb[s1].tolist(), inst.v_cb[s1].tolist(),
                                       a.tolist(), inst._dist["p_va_given_u"].tolist(), delta)
        assert with_fallback(s2, f_v) == want
        ch = inst.encode_charlie(c)
        s, f_w = ch.s, ch.failed
        want = oracle_first_typical(inst.w_cb.tolist(), c.tolist(),
                                    inst._dist["p_wc"].tolist(), delta)
        assert with_fallback(s, f_w) == want
        # rows with and without a typical codeword in every stage
        for failed in (f_u, f_v, f_w):
            assert 0 < failed.sum() < m

    def test_single_sequence_encoders_match_oracle(self):
        src, inst = two_layer_code()
        delta = inst.config.delta
        a, c = source_rows(src, 8, 30, seed=6)
        for a_n, c_n in zip(a, c):
            enc = inst.encode_alice(a_n)
            (s1,) = oracle_first_typical(inst.u_cb.tolist(), [a_n.tolist()],
                                         inst._dist["p_ua"].tolist(), delta)
            (s2,) = oracle_first_refinement([inst.u_cb[max(s1, 0)].tolist()],
                                            [inst.v_cb[max(s1, 0)].tolist()], [a_n.tolist()],
                                            inst._dist["p_va_given_u"].tolist(), delta)
            assert (enc.s1, enc.failed_u, enc.s2, enc.failed_v) == (
                max(s1, 0), s1 < 0, max(s2, 0), s2 < 0)
            ch = inst.encode_charlie(c_n)
            (s,) = oracle_first_typical(inst.w_cb.tolist(), [c_n.tolist()],
                                        inst._dist["p_wc"].tolist(), delta)
            assert (ch.s, ch.failed, ch.r) == (max(s, 0), s < 0, max(s, 0) % inst.config.bins_w)

    @pytest.mark.parametrize("symbol", [-1, 0.9, 7, math.nan, 2], ids=repr)
    def test_single_sequence_encoders_reject_bad_symbols(self, symbol):
        # A is binary and C ternary, so 2 is a bad A symbol but a good C symbol
        _, inst = two_layer_code()
        seq = np.zeros(8)
        seq[3] = symbol
        with pytest.raises(ValidationError, match="symbols"):
            inst.encode_alice(seq)
        with pytest.raises(ValidationError, match="symbols"):
            inst.alice_message_index(seq)
        if symbol != 2:
            with pytest.raises(ValidationError, match="symbols"):
                inst.encode_charlie(seq)
        else:
            assert inst.encode_charlie(seq) == inst.encode_charlie(seq.astype(int))

    def test_batch_encoders_match_per_row_calls(self):
        src, inst = two_layer_code()
        a, c = (x.reshape(3, 5, 8) for x in source_rows(src, 8, 15, seed=7))
        alice, charlie = inst.encode_alice(a), inst.encode_charlie(c)
        js = inst.alice_message_index(a)
        for idx in np.ndindex(3, 5):
            enc, ch = inst.encode_alice(a[idx]), inst.encode_charlie(c[idx])
            assert enc == AliceEncoding(**{f: getattr(alice, f)[idx].item() for f in vars(enc)})
            assert ch == CharlieEncoding(**{f: getattr(charlie, f)[idx].item() for f in vars(ch)})
            assert js[idx] == inst.alice_message_index(a[idx])
            assert js[idx] == enc.r1 * inst.config.bins_v + enc.r2
        # one sequence gives Python scalars, a batch of one gives arrays
        enc = inst.encode_alice(a[0, 0])
        assert {type(getattr(enc, f)) for f in vars(enc)} == {int, bool}
        assert type(inst.alice_message_index(a[0, 0])) is int
        assert inst.encode_charlie(c[:1, 0]).s.shape == (1,)
        assert inst.encode_alice(a[:0, 0]).s1.shape == (0,)
        with pytest.raises(ValidationError, match="length"):
            inst.encode_alice(a[..., :7])

    @pytest.mark.parametrize("seed", [*range(12), "slack"])
    def test_type_table_matches_enumerated_joint_types(self, seed):
        p, n, delta = small_law(seed)
        kx, ky = p.shape
        cw_types = np.array([r for r in product(range(n + 1), repeat=kx) if sum(r) == n])
        row_types = np.array([s for s in product(range(n + 1), repeat=ky) if sum(s) == n])
        got = simulate._allowed_types(cw_types, row_types, p, n, delta)
        want = oracle_typical_margins(p.tolist(), n, delta)
        assert got.tolist() == [[(tuple(r), tuple(s)) in want for s in row_types.tolist()]
                                for r in cw_types.tolist()]

    def test_type_table_decides_the_scan(self, monkeypatch):
        # every pair allowed changes no result; one allowed pair dropped does
        src, inst = two_layer_code()
        p_wc, delta = inst._dist["p_wc"], inst.config.delta
        _, c = source_rows(src, 8, 60, seed=5)
        want = oracle_first_typical(inst.w_cb.tolist(), c.tolist(), p_wc.tolist(), delta)
        monkeypatch.setattr(simulate, "_SUBSET_BITS", 0)
        enc = inst.encode_charlie(c)
        assert with_fallback(enc.s, enc.failed) == want
        monkeypatch.undo()

        t = next(t for t, s in enumerate(want) if s >= 0)
        drop = (np.bincount(inst.w_cb[want[t]], minlength=3), np.bincount(c[t], minlength=3))
        real = simulate._allowed_types

        def wrong(cw_types, row_types, *args):
            allowed = real(cw_types, row_types, *args)
            (i,), (j,) = ((types == typ).all(axis=1).nonzero()
                          for types, typ in zip((cw_types, row_types), drop))
            assert allowed[i, j]
            allowed[i, j] = False
            return allowed

        monkeypatch.setattr(simulate, "_allowed_types", wrong)
        enc = inst.encode_charlie(c)
        assert with_fallback(enc.s, enc.failed) != want

    def test_single_sequence_charlie_scans_in_blocks(self, monkeypatch):
        # criterion 8's n = 14 code: the type table settles the all-zero c^n,
        # which has no typical helper codeword, with no typicality call; the
        # sorted c^n of type (1, 5, 8) walks only the codewords whose type
        # admits a typical joint type with it, in index order and _PAIRS blocks
        src = make_bec_bsc_source(SWEEP_P, h2(SWEEP_P))
        sys = wz_system(SWEEP_ALPHA, SWEEP_W, SWEEP_RECON)
        inst = generate_codebooks(src, sys, sweep_config(14))
        p_wc, delta = inst._dist["p_wc"].tolist(), inst.config.delta
        calls = []

        def counted(seqs, probs, delta):
            calls.append(seqs // 3)
            return typical_rows(seqs, probs, delta)

        monkeypatch.setattr(simulate, "typical_rows", counted)
        monkeypatch.setattr(simulate, "_PAIRS", 32)
        c_n = np.zeros(14, dtype=int)
        enc = inst.encode_charlie(c_n)
        (want,) = oracle_first_typical(inst.w_cb.tolist(), [c_n.tolist()],
                                       inst._dist["p_wc"].tolist(), inst.config.delta)
        assert want == -1 and enc.failed and enc.s == 0
        assert inst.config.num_w == 21_709
        assert calls == []

        c_n = np.repeat([0, 1, 2], [1, 5, 8])
        enc = inst.encode_charlie(c_n)
        (want,) = oracle_first_typical(inst.w_cb.tolist(), [c_n.tolist()], p_wc, delta)
        assert (enc.s, enc.failed) == (want, False)
        margins = oracle_typical_margins(p_wc, 14, delta)
        cands = [s for s, word in enumerate(inst.w_cb.tolist())
                 if (tuple(word.count(x) for x in range(3)), (1, 5, 8)) in margins]
        blocks = cands.index(want) // 32 + 1
        assert len(cands) > 32 * blocks and len(calls) == blocks
        for i, words in enumerate(calls):
            assert words.tolist() == inst.w_cb[cands[32 * i:32 * (i + 1)]].tolist()

    def test_decoder_matches_triple_loop(self, monkeypatch):
        # the multi-candidate toy of the ambiguity test above, at n = 8; the
        # batch call over the whole (r1, r2, k) grid, in blocks of one request
        # and of several, gives the per-request results
        src = JointSource.from_channels(np.array([0.5, 0.5]), Channel.bsc(0.2), Channel.bsc(0.25))
        sys = AuxiliarySystem(Channel.identity(2), Channel.bsc(0.11), Channel.bsc(0.1),
                              np.array([[0, 0], [1, 1]]))
        cfg = CodeConfig(n=8, r1=0.37, r2=0.0, rc_link=0.65, s1=0.62, s2=0.0, sc=0.65,
                         delta_n=0.14, seed=7)
        counts = []
        for inst in (generate_codebooks(src, sys, cfg), two_layer_code()[1]):
            cfg = inst.config
            books = inst.u_cb.tolist(), inst.v_cb.tolist(), inst.w_cb.tolist()
            p_uvw = inst._dist["p_uvw"].tolist()
            grid = np.ix_(range(cfg.bins_u), range(cfg.bins_v), range(cfg.bins_w))
            batches = []
            for pairs in (1, 7, simulate._PAIRS):
                monkeypatch.setattr(simulate, "_PAIRS", pairs)
                batches.append(inst.decode_bob(grid[:2], grid[2]))
            for r1 in range(cfg.bins_u):
                for r2 in range(cfg.bins_v):
                    for k in range(cfg.bins_w):
                        res = inst.decode_bob((r1, r2), k)
                        for batch in batches:
                            assert vars(res).keys() == vars(batch).keys()
                            for f, value in vars(batch).items():
                                assert np.array_equal(value[r1, r2, k], getattr(res, f))
                        count, (s1, s2, s) = oracle_decode(
                            *books, list(range(r1, cfg.num_u, cfg.bins_u)),
                            list(range(r2, cfg.num_v, cfg.bins_v)),
                            list(range(k, cfg.num_w, cfg.bins_w)), p_uvw, cfg.delta)
                        assert (res.n_matches, res.s1, res.s2, res.s) == (count, s1, s2, s)
                        assert res.success == (count == 1)
                        assert res.a_hat.tolist() == inst.system.reconstruction[
                            inst.v_cb[s1, s2], inst.w_cb[s]].tolist()
                        counts.append(count)
        # no match, one match and several matches all occur
        assert 0 in counts and 1 in counts and max(counts) > 1

    @pytest.mark.parametrize("j, k", [
        ((0.5, 0), 0), ((0, 0), 1.5), ((0, 0), math.nan), ((-1, 0), 0), ((0, 0), "0"),
        ((np.zeros(2, dtype=int), np.zeros(3, dtype=int)), 0),
    ], ids=["fractional_r1", "fractional_k", "nan_k", "negative_r1", "text_k", "no_broadcast"])
    def test_decoder_rejects_bad_requests(self, j, k):
        _, inst = two_layer_code()
        with pytest.raises(ValidationError, match="bin ind"):
            inst.decode_bob(j, k)

    @pytest.mark.parametrize("code", ["two_layer", "sweep"])
    def test_shard_matches_per_trial_decode_loop(self, code):
        # the two-layer code decodes every trial ambiguously; the sweep code
        # decodes some trials wrongly and none ambiguously
        if code == "two_layer":
            src, inst = two_layer_code()
        else:
            src = make_bec_bsc_source(SWEEP_P, h2(SWEEP_P))
            inst = generate_codebooks(src, wz_system(SWEEP_ALPHA, SWEEP_W, SWEEP_RECON),
                                      sweep_config(8))
        cfg, m = inst.config, 300
        shard = simulate._run_shard((inst, HAMMING2.table, 0, m))
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 7, 0)))
        draw = rng.choice(src.probs.size, size=(simulate.TRIAL_SHARD, cfg.n),
                          p=src.probs.ravel())[:m]
        want = {"error": [], "ambiguous": [], "distortion": []}
        for a_n, c_n in zip(draw // 6, (draw // 2) % 3):
            enc, ch = inst.encode_alice(a_n), inst.encode_charlie(c_n)
            res = inst.decode_bob((enc.r1, enc.r2), ch.r)
            want["error"].append(not (res.n_matches == 1
                                      and (res.s1, res.s2, res.s) == (enc.s1, enc.s2, ch.s)))
            want["ambiguous"].append(res.n_matches > 1)
            want["distortion"].append(HAMMING2.table[a_n, res.a_hat].mean())
        assert {key: shard[key].tolist() for key in want} == want
        assert 0 < sum(want["error"]) and 0 < np.mean(want["distortion"]) < 1


class TestExactEquivocation:
    def test_zero_rate_code_gives_conditional_entropy(self):
        src = make_bec_bsc_source(0.1, h2(0.1))
        cfg = CodeConfig(n=8, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=1)
        inst = generate_codebooks(src, degenerate_system(), cfg)
        assert exact_equivocation(inst) == pytest.approx(h2(0.1), abs=1e-9)

    def test_full_disclosure_zero(self):
        src = make_bec_bsc_source(0.1, h2(0.1))
        n = 8
        table = np.arange(2 ** n, dtype=np.int64)
        assert message_equivocation(src, n, table, 2 ** n) == pytest.approx(0.0, abs=1e-9)

    def test_constant_map(self):
        src = make_bec_bsc_source(0.1, h2(0.1))
        n = 8
        table = np.zeros(2 ** n, dtype=np.int64)
        assert message_equivocation(src, n, table, 1) == pytest.approx(h2(0.1), abs=1e-9)

    def test_bounds_always_hold(self):
        src = make_bec_bsc_source(0.1, h2(0.1))
        rng = np.random.default_rng(3)
        n = 6
        table = rng.integers(0, 5, size=2 ** n).astype(np.int64)
        eq = message_equivocation(src, n, table, 5)
        assert 0.0 <= eq <= h2(0.1) + 1e-12

    @pytest.mark.parametrize("n, na, ne", [(1, 3, 3), (5, 3, 3), (7, 3, 2), (7, 2, 3)])
    def test_matches_plain_reference_at_odd_n(self, n, na, ne):
        # odd n splits a^n into a head shorter than its tail; |A| != |E| keeps
        # the sequence and eavesdropper counts apart
        rng = np.random.default_rng(100 * n + 10 * na + ne)
        p = rng.random((na, 2, ne))
        p[0, :, ne - 1] = 0.0
        src = JointSource(p / p.sum())
        table = rng.integers(0, 5, size=na ** n).astype(np.int64)
        want = oracle_message_equivocation(src.p_ae().tolist(), n, table.tolist())
        assert message_equivocation(src, n, table, 5) == pytest.approx(want, abs=1e-12)

    def test_matches_plain_reference_on_sweep_code(self):
        src = make_bec_bsc_source(SWEEP_P, h2(SWEEP_P))
        inst = generate_codebooks(src, wz_system(SWEEP_ALPHA, SWEEP_W, SWEEP_RECON),
                                  sweep_config(8))
        table = encoder_message_table(inst)
        assert len(np.unique(table)) > 1
        want = oracle_message_equivocation(src.p_ae().tolist(), 8, table.tolist())
        assert exact_equivocation(inst) == pytest.approx(want, abs=1e-12)

    def test_sliced_large_group_matches_whole(self, monkeypatch):
        # one message holds ~90% of the a^n; gathering 5 factor-row pairs per
        # GEMM sums that group over ~400 slices
        rng = np.random.default_rng(17)
        p = rng.random((3, 2, 2))
        src = JointSource(p / p.sum())
        n = 7
        table = (rng.random(3 ** n) < 0.1).astype(np.int64)
        whole = message_equivocation(src, n, table, 2)
        monkeypatch.setattr(simulate, "_GATHER_FLOATS", 5 * (2 ** 3 + 2 ** 4))
        sliced = message_equivocation(src, n, table, 2)
        want = oracle_message_equivocation(src.p_ae().tolist(), n, table.tolist())
        assert sliced == pytest.approx(whole, abs=1e-12)
        assert sliced == pytest.approx(want, abs=1e-12)

    def test_work_budget_counts_gemm_multiply_adds(self):
        src = make_bec_bsc_source(0.1, h2(0.1))       # |A| = |E| = 2
        n = 6
        table = np.arange(2 ** n, dtype=np.int64) % 3
        work = 2 ** n * 2 ** n
        with pytest.raises(BudgetError, match="multiply-adds"):
            message_equivocation(src, n, table, 3, work_budget=work - 1)
        assert 0.0 <= message_equivocation(src, n, table, 3, work_budget=work) <= h2(0.1)

    def test_gap_to_single_letter_shrinks(self):
        # sweep operating point: the n = 8 gap dominates the n = 14 gap
        src = make_bec_bsc_source(SWEEP_P, h2(SWEEP_P))
        sys = wz_system(SWEEP_ALPHA, SWEEP_W, SWEEP_RECON)
        target = binary_bec_bsc_bounds(SWEEP_P, h2(SWEEP_P), SWEEP_ALPHA, 0.0).delta_max
        gaps = []
        for n in (8, 14):
            inst = generate_codebooks(src, sys, sweep_config(n))
            gaps.append(abs(exact_equivocation(inst) - target))
        assert gaps[1] <= 0.08
        assert gaps[1] < gaps[0]

    def test_state_budget_refusal(self):
        src = make_bec_bsc_source(0.1, 0.3)
        cfg = CodeConfig(n=8, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=1)
        inst = generate_codebooks(src, degenerate_system(), cfg)
        with pytest.raises(BudgetError):
            exact_equivocation(inst, state_budget=100)

    def test_ber_sandwich(self):
        # h2(Eve MAP BER) upper-bounds the exact equivocation
        src = make_bec_bsc_source(SWEEP_P, h2(SWEEP_P))
        sys = wz_system(SWEEP_ALPHA, SWEEP_W, SWEEP_RECON)
        cfg = CodeConfig(n=8, r1=SWEEP_S1, r2=0.0, rc_link=SWEEP_SC,
                         s1=SWEEP_S1, s2=0.0, sc=SWEEP_SC, delta_n=0.14, seed=11)
        inst = generate_codebooks(src, sys, cfg)
        eq = exact_equivocation(inst)
        ber = eve_map_bit_error_rate(inst)
        assert h2(ber) >= eq - 1e-12

    def test_ber_work_budget(self):
        # (|A|^n + n |A|^(n-1)) |E|^n GEMM multiply-adds: refused one below, run at the count
        src = make_bec_bsc_source(0.1, 0.3)
        n = 8
        cfg = CodeConfig(n=n, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=1)
        inst = generate_codebooks(src, degenerate_system(), cfg)
        work = (2 ** n + n * 2 ** (n - 1)) * 2 ** n
        with pytest.raises(BudgetError, match="multiply-adds"):
            eve_map_bit_error_rate(inst, work_budget=work - 1)
        assert eve_map_bit_error_rate(inst, work_budget=work) == pytest.approx(0.1, abs=1e-12)

    def test_ber_binary_n13_within_default_budget(self):
        # one message: Eve's symbol-wise MAP guess of a_i is e_i, wrong with probability p
        src = make_bec_bsc_source(0.1, 0.3)
        cfg = CodeConfig(n=13, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=1)
        inst = generate_codebooks(src, degenerate_system(), cfg)
        assert eve_map_bit_error_rate(inst) == pytest.approx(0.1, abs=1e-12)


class TestRunExperiment:
    def test_zero_trials_reports_equivocation_only(self):
        src = make_bec_bsc_source(0.1, 0.3)
        cfg = CodeConfig(n=8, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=1)
        rep = run_experiment(src, degenerate_system(), HAMMING2, cfg, trials=0)
        assert rep.trials == 0
        assert rep.empirical_distortion is None
        assert rep.exact_equivocation is not None

    def test_doubling_trials_preserves_prefix(self):
        src = make_bec_bsc_source(0.1, h2(0.1))
        sys = wz_system(SWEEP_ALPHA, SWEEP_W, SWEEP_RECON)
        cfg = sweep_config(8)
        import tempfile, os

        with tempfile.TemporaryDirectory() as td:
            p1 = os.path.join(td, "a.csv")
            p2 = os.path.join(td, "b.csv")
            run_experiment(src, sys, HAMMING2, cfg, trials=500,
                           compute_equivocation=False, trace_path=p1)
            run_experiment(src, sys, HAMMING2, cfg, trials=1000,
                           compute_equivocation=False, trace_path=p2)
            lines1 = open(p1).read().splitlines()
            lines2 = open(p2).read().splitlines()
            assert lines2[: len(lines1)] == lines1

    def test_worker_invariance(self):
        src = make_bec_bsc_source(0.1, h2(0.1))
        sys = wz_system(SWEEP_ALPHA, SWEEP_W, SWEEP_RECON)
        cfg = sweep_config(8)
        a = run_experiment(src, sys, HAMMING2, cfg, trials=600, workers=1,
                           compute_equivocation=False)
        b = run_experiment(src, sys, HAMMING2, cfg, trials=600, workers=2,
                           compute_equivocation=False)
        assert a.to_json() == b.to_json()

    def test_reported_distortion_is_mean_of_per_trial_values(self, tmp_path):
        src = make_bec_bsc_source(0.1, h2(0.1))
        sys = wz_system(SWEEP_ALPHA, SWEEP_W, SWEEP_RECON)
        cfg = sweep_config(8)
        trace = tmp_path / "trace.csv"
        rep = run_experiment(src, sys, HAMMING2, cfg, trials=400,
                             compute_equivocation=False, trace_path=str(trace))
        rows = trace.read_text().strip().split("\n")[1:]
        per_trial = [float(r.split(",")[-1]) for r in rows]
        assert len(per_trial) == 400
        assert np.mean(per_trial) == pytest.approx(rep.empirical_distortion, abs=1e-6)

    def test_report_json_stable(self):
        src = make_bec_bsc_source(0.1, 0.3)
        cfg = CodeConfig(n=8, r1=0.0, r2=0.0, rc_link=0.0, s1=0.0, s2=0.0, sc=0.0, seed=1)
        rep1 = run_experiment(src, degenerate_system(), HAMMING2, cfg, trials=100)
        rep2 = run_experiment(src, degenerate_system(), HAMMING2, cfg, trials=100)
        assert rep1.to_json() == rep2.to_json()
