import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdeq import (
    Channel,
    DistortionMeasure,
    JointSource,
    ValidationError,
    classify_bec_bsc_regime,
    compose_full_joint,
    conditional_entropy,
    conditional_mi,
    entropy,
    h2,
    h2_inv,
    make_bec_bsc_source,
    mutual_information,
    star,
)
from rdeq.probability import SubsetEntropies, _plan, bob_more_capable
from rdeq.regions import INNER_SUBSETS, LOSSLESS_SUBSETS, _lossless, inner_bounds_of_joint

from _oracles import (
    oracle_cond_entropy_from_dict,
    oracle_cond_mi,
    oracle_entropy,
    oracle_entropy_of,
    oracle_full_joint,
    oracle_h2,
    oracle_marginal,
    oracle_mi,
)

# Frozen via the plain-python oracle: oracle_h2(0.1)
H2_01 = 0.4689955935892812


def rand_dist(rng, shape):
    p = rng.exponential(size=shape)
    return p / p.sum()


def rand_channel(rng, n_in, n_out):
    rows = rng.exponential(size=(n_in, n_out))
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel(rows)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        assert entropy(np.array([0.0, 1.0])) == 0.0

    def test_bernoulli_01(self):
        assert entropy(np.array([0.1, 0.9])) == pytest.approx(H2_01, abs=1e-14)

    def test_matches_oracle_on_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = rand_dist(rng, (5,))
            assert entropy(p) == pytest.approx(oracle_entropy(p.tolist()), abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            entropy(np.array([0.5, 0.4]))


class TestMutualInformation:
    def test_independent_pair(self):
        joint = np.outer([0.3, 0.7], [0.6, 0.4])
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_identity_uniform(self):
        assert mutual_information(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-15)

    def test_bsc_01(self):
        # uniform binary input through BSC(0.1): I = 1 - h2(0.1)
        joint = np.array([[0.45, 0.05], [0.05, 0.45]])
        assert mutual_information(joint) == pytest.approx(1.0 - H2_01, abs=1e-14)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        joint = rand_dist(rng, (3, 4))
        assert mutual_information(joint) == pytest.approx(mutual_information(joint.T), abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            joint = rand_dist(rng, (3, 3))
            assert mutual_information(joint) == pytest.approx(oracle_mi(joint.tolist()), abs=1e-12)


class TestConditionalMI:
    def test_irrelevant_conditioning(self):
        rng = np.random.default_rng(5)
        pxy = rand_dist(rng, (2, 3))
        pz = np.array([0.25, 0.75])
        joint = pxy[:, :, None] * pz[None, None, :]
        assert conditional_mi(joint, 2) == pytest.approx(mutual_information(pxy), abs=1e-12)

    def test_x_equals_z(self):
        rng = np.random.default_rng(6)
        pxy = rand_dist(rng, (3, 2))
        joint = np.zeros((3, 2, 3))
        for x in range(3):
            joint[x, :, x] = pxy[x]
        assert conditional_mi(joint, 2) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle_222(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            joint = rand_dist(rng, (2, 2, 2))
            for axis in range(3):
                assert conditional_mi(joint, axis) == pytest.approx(
                    oracle_cond_mi(joint.tolist(), axis), abs=1e-12
                )


@st.composite
def tables(draw, ndim, zero_slice_axis=None):
    """A normalised table with 1-4 cells per axis and frequent zero cells;
    slice 0 along ``zero_slice_axis`` may carry no mass."""
    shape = tuple(draw(st.integers(1, 4)) for _ in range(ndim))
    cells = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    w = np.array(draw(st.lists(cells, min_size=math.prod(shape), max_size=math.prod(shape))))
    w = w.reshape(shape)
    if zero_slice_axis is not None and shape[zero_slice_axis] > 1 and draw(st.booleans()):
        np.moveaxis(w, zero_slice_axis, 0)[0] = 0.0
    if w.sum() == 0.0:
        w.flat[draw(st.integers(0, w.size - 1))] = 1.0
    return w / w.sum()


def as_dict(p):
    return {idx: float(p[idx]) for idx in np.ndindex(p.shape)}


class TestEngine:
    @given(tables(ndim=3))
    @settings(max_examples=200)
    def test_entropy_matches_oracle(self, p):
        assert entropy(p) == pytest.approx(oracle_entropy(p.ravel().tolist()), abs=1e-12)

    @given(tables(ndim=2))
    @settings(max_examples=200)
    def test_mutual_information_matches_oracle(self, p):
        assert mutual_information(p) == pytest.approx(oracle_mi(p.tolist()), abs=1e-12)

    @given(st.data(), st.integers(0, 2))
    @settings(max_examples=200)
    def test_conditional_mi_matches_oracle(self, data, axis):
        p = data.draw(tables(ndim=3, zero_slice_axis=axis))
        assert conditional_mi(p, axis) == pytest.approx(oracle_cond_mi(p.tolist(), axis), abs=1e-12)

    @given(st.data(), st.integers(1, 3))
    @settings(max_examples=200)
    def test_conditional_entropy_matches_oracle(self, data, ndim):
        given_axes = tuple(data.draw(st.sets(st.integers(0, ndim - 1), min_size=1)))
        p = data.draw(tables(ndim=ndim, zero_slice_axis=given_axes[0]))
        rest = tuple(ax for ax in range(ndim) if ax not in given_axes)
        assert conditional_entropy(p, given_axes) == pytest.approx(
            oracle_cond_entropy_from_dict(as_dict(p), p.shape, rest, given_axes), abs=1e-12)

    def test_all_measures_share_one_normalisation_tolerance(self):
        # off by 9e-10: inside the former 1e-9 check, outside NORM_TOL = 1e-12
        p = np.full((2, 2), 0.25) * (1 + 9e-10)
        for call in (entropy, mutual_information, lambda q: conditional_entropy(q, 0)):
            with pytest.raises(ValidationError, match="sums to"):
                call(p)
        with pytest.raises(ValidationError, match="sums to"):
            conditional_mi(np.full((2, 2, 2), 0.125) * (1 + 9e-10), 2)

    def test_conditioning_axis_out_of_range_rejected(self):
        p = np.full((2, 2, 2), 0.125)
        assert conditional_mi(p, -1) == conditional_mi(p, 2)
        for axis in (3, -4):
            with pytest.raises(ValidationError, match="conditioning_axis"):
                conditional_mi(p, axis)
        q = np.array([[0.4, 0.1], [0.2, 0.3]])
        assert conditional_entropy(q, (-1,)) == conditional_entropy(q, (1,))
        with pytest.raises(ValidationError, match="given_axes"):
            conditional_entropy(q, (0, 5))

    def test_axis_must_be_an_integer(self):
        # a numpy integer is an axis; a float or a bool raised TypeError or was read as 1
        p = np.full((2, 2, 2), 0.125)
        q = np.array([[0.4, 0.1], [0.2, 0.3]])
        assert conditional_entropy(q, np.int64(1)) == conditional_entropy(q, 1)
        assert conditional_entropy(q, (np.int64(0),)) == conditional_entropy(q, (0,))
        assert conditional_mi(p, np.int64(-1)) == conditional_mi(p, 2)
        for axis in (1.0, True):
            with pytest.raises(ValidationError, match="must be an integer"):
                conditional_entropy(q, axis)
            with pytest.raises(ValidationError, match="must be an integer"):
                conditional_entropy(q, (0, axis))
            with pytest.raises(ValidationError, match="must be an integer"):
                conditional_mi(p, axis)

    def test_clamp_raises_below_neg_tol(self):
        # a table summing to 2 gives I(X;Y) = 0 + 0 - 2: beyond rounding, so it raises
        with pytest.raises(ValidationError, match="mutual information"):
            SubsetEntropies(np.full((2, 2), 0.5)).cmi((0,), (1,))


def all_subsets(ndim):
    return [s for k in range(ndim + 1) for s in itertools.combinations(range(ndim), k)]


class TestSubsetPlan:
    """``SubsetEntropies``'s one-pass plan against the plain-python oracles."""

    @pytest.mark.parametrize("ndim", range(1, 7))
    def test_entropies_and_marginals_match_oracle(self, ndim):
        rng = np.random.default_rng(ndim)
        for trial in range(3):
            shape = tuple(rng.integers(1, 4, size=ndim))
            p = rng.exponential(size=shape) * (rng.random(shape) < 0.7)  # some zero cells
            p.flat[0] += 1e-3
            p /= p.sum()
            subsets = all_subsets(ndim)
            h = SubsetEntropies(p, tuple(subsets[1:]))
            for s in subsets:
                want, want_shape = oracle_marginal(as_dict(p), p.shape, s)
                got = h.marginal(*s)
                assert got.shape == want_shape
                want_table = np.array([want[i] for i in np.ndindex(want_shape)])
                np.testing.assert_allclose(got, want_table.reshape(want_shape),
                                           rtol=0, atol=1e-15)
                assert h(*s) == pytest.approx(oracle_entropy_of(want), abs=1e-13)

    def test_alone_is_bit_identical_to_batch(self):
        rng = np.random.default_rng(5)
        src = JointSource(rand_dist(rng, (2, 3, 2)))
        chans = (rand_channel(rng, 3, 2), rand_channel(rng, 2, 3), rand_channel(rng, 3, 2))
        p = compose_full_joint(src, *chans)
        batch = SubsetEntropies(p, INNER_SUBSETS)
        assert len(INNER_SUBSETS) == 16
        for s in INNER_SUBSETS:
            alone = SubsetEntropies(p)  # nothing declared: a one-subset plan
            assert alone(*s) == batch(*s)
            assert SubsetEntropies(p).marginal(*s).tobytes() == batch.marginal(*s).tobytes()

    def test_marginal_matches_numpy_sum(self):
        rng = np.random.default_rng(6)
        p = rand_dist(rng, (2, 3, 2, 4, 1))
        h = SubsetEntropies(p, tuple(all_subsets(5)))
        for s in all_subsets(5):
            drop = tuple(ax for ax in range(5) if ax not in s)
            assert np.abs(h.marginal(*s) - p.sum(axis=drop)).max() <= 1e-15

    def test_each_shape_gets_its_own_plan(self):
        rng = np.random.default_rng(7)
        tables = [rand_dist(rng, shape) for shape in ((2, 4), (4, 2), (8,))]
        plans = {id(_plan(p.shape, ((0,),))) for p in tables}
        assert len(plans) == 3
        for p in tables:
            h = SubsetEntropies(p, ((0,),))
            want = p.sum(axis=1) if p.ndim == 2 else p
            assert h(0) == pytest.approx(oracle_entropy(want.tolist()), abs=1e-14)
            np.testing.assert_allclose(h.marginal(0), want, rtol=0, atol=1e-15)

    def test_subsets_are_keyed_by_their_sorted_axes(self):
        p = np.array([[0.1, 0.2, 0.3], [0.05, 0.15, 0.2]])
        h = SubsetEntropies(p, ((1, 0), (1,), (1,)))
        assert h(0, 1) == h(1, 0) == SubsetEntropies(p)(0, 1)
        assert set(h._entropies) == {(0, 1), (1,)}

    @pytest.mark.parametrize("call", [
        lambda h: h.cmi((5,), (1,)), lambda h: h(2), lambda h: h(-1),
        lambda h: h.marginal(0, 3), lambda h: h.cond((0,), (1.5,)),
    ], ids=["cmi", "entropy", "negative", "marginal", "fractional"])
    def test_axis_outside_the_table_rejected(self, call):
        with pytest.raises(ValidationError, match="must lie in"):
            call(SubsetEntropies(np.full((2, 2), 0.25)))
        with pytest.raises(ValidationError, match="must lie in"):
            SubsetEntropies(np.full((2, 2), 0.25), ((0,), (2,)))

    def test_evaluators_read_only_their_declared_subsets(self):
        rng = np.random.default_rng(8)
        src = JointSource(rand_dist(rng, (2, 3, 2)))
        chans = (rand_channel(rng, 3, 2), rand_channel(rng, 2, 3), rand_channel(rng, 3, 2))
        h = SubsetEntropies(compose_full_joint(src, *chans), INNER_SUBSETS)
        inner_bounds_of_joint(h, DistortionMeasure.hamming(2), np.zeros((3, 2), dtype=int))
        assert set(h._entropies) == set(INNER_SUBSETS)
        _, h = _lossless(src, rand_channel(rng, 2, 4).rows)
        assert set(h._entropies) == set(LOSSLESS_SUBSETS)


class TestScalars:
    def test_h2_extremes(self):
        assert h2(0.5) == pytest.approx(1.0, abs=1e-15)
        assert h2(0.0) == 0.0
        assert h2(1.0) == 0.0

    def test_h2_01(self):
        assert h2(0.1) == pytest.approx(H2_01, abs=1e-15)
        assert h2(0.1) == pytest.approx(oracle_h2(0.1), abs=1e-15)

    def test_h2_out_of_range(self):
        with pytest.raises(ValidationError):
            h2(1.2)

    def test_h2_inv_roundtrip(self):
        for y in np.linspace(0.0, 1.0, 21):
            assert h2(h2_inv(float(y))) == pytest.approx(float(y), abs=1e-11)

    def test_star_identity_absorbing(self):
        assert star(0.3, 0.0) == pytest.approx(0.3, abs=1e-15)
        assert star(0.5, 0.42) == pytest.approx(0.5, abs=1e-15)

    def test_star_value(self):
        assert star(0.1, 0.078) == pytest.approx(0.1624, abs=1e-15)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_star_commutes(self, a, b):
        assert star(a, b) == pytest.approx(star(b, a), abs=1e-15)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200)
    def test_star_associative(self, a, b, c):
        assert star(a, star(b, c)) == pytest.approx(star(star(a, b), c), abs=1e-12)

    @given(st.floats(0, 1))
    @settings(max_examples=200)
    def test_h2_symmetric(self, x):
        assert h2(x) == pytest.approx(h2(1.0 - x), abs=1e-12)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_array_calls_equal_scalar_calls_bitwise(self, pairs):
        a, b = np.array(pairs).T
        assert h2(a).tolist() == [h2(float(x)) for x in a]
        assert star(a, b).tolist() == [star(float(x), float(y)) for x, y in pairs]
        assert star(a[:, None], b[None, :]).tolist() == [
            [star(float(x), float(y)) for y in b] for x in a]

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=10), st.data(),
           st.one_of(st.just(math.nan), st.floats(max_value=-1e-300),
                     st.floats(min_value=1.0, exclude_min=True)))
    def test_any_bad_entry_rejected(self, good, data, bad):
        # NaN, negative or above-one entries anywhere in an array are rejected
        x = np.array(good)
        x[data.draw(st.integers(0, len(good) - 1))] = bad
        with pytest.raises(ValidationError):
            h2(x)
        with pytest.raises(ValidationError):
            star(x, 0.5)
        with pytest.raises(ValidationError):
            star(0.5, x)


class TestChainRuleAndDataProcessing:
    def test_chain_rule_random(self):
        # I(X;YZ) = I(X;Y) + I(X;Z|Y)
        rng = np.random.default_rng(17)
        for _ in range(50):
            joint = rand_dist(rng, (3, 2, 2))
            i_x_yz = mutual_information(joint.reshape(3, 4))
            i_x_y = mutual_information(joint.sum(axis=2))
            i_x_z_given_y = conditional_mi(joint, 1)
            assert i_x_yz == pytest.approx(i_x_y + i_x_z_given_y, abs=1e-10)

    def test_data_processing_random(self):
        # X - Y - Z composed from channels: I(X;Z) <= I(X;Y)
        rng = np.random.default_rng(19)
        for _ in range(50):
            px = rand_dist(rng, (3,))
            y_given_x = rand_channel(rng, 3, 3)
            z_given_y = rand_channel(rng, 3, 3)
            pxy = px[:, None] * y_given_x.rows
            pxz = pxy @ z_given_y.rows
            assert mutual_information(pxz) <= mutual_information(pxy) + 1e-10


class TestChannelsAndSource:
    def test_channel_row_validation(self):
        with pytest.raises(ValidationError):
            Channel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_bec_bsc_shapes(self):
        assert Channel.bec(0.3).output_size == 3
        assert Channel.bsc(0.1).output_size == 2

    def test_source_marginal_consistency(self):
        src = make_bec_bsc_source(0.1, 0.3)
        assert src.p_a() == pytest.approx([0.5, 0.5], abs=1e-15)
        assert src.p_ac().sum() == pytest.approx(1.0, abs=1e-15)
        # pairwise marginals consistent with singles
        assert src.p_ac().sum(axis=1) == pytest.approx(src.p_a(), abs=1e-15)
        assert src.p_ce().sum(axis=1) == pytest.approx(src.p_c(), abs=1e-15)

    def test_source_json_roundtrip(self):
        src = make_bec_bsc_source(0.12, 0.4)
        again = JointSource.from_json(src.to_json())
        assert np.allclose(again.probs, src.probs, atol=0)

    def test_channel_json_roundtrip(self):
        ch = Channel.bec(0.25)
        again = Channel.from_json(ch.to_json())
        assert np.allclose(again.rows, ch.rows, atol=0)

    def test_source_validation(self):
        bad = np.full((2, 2, 2), 0.1)
        with pytest.raises(ValidationError):
            JointSource(bad)

    def test_empty_tables_rejected(self):
        # an empty channel was accepted, with input_size 0
        for make in (lambda: Channel(np.zeros((0, 2))), lambda: Channel(np.zeros((2, 0))),
                     lambda: JointSource(np.zeros((0, 2, 2))), lambda: entropy(np.zeros(0))):
            with pytest.raises(ValidationError, match="empty"):
                make()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN passes both the sign test and the sum test
        with pytest.raises(ValidationError):
            JointSource(np.full((2, 2, 2), bad))
        with pytest.raises(ValidationError):
            Channel([[bad, bad]])
        with pytest.raises(ValidationError):
            entropy(np.array([bad, 0.5]))

    @pytest.mark.parametrize("text", [
        '{"alphabets": [2, 2, 2], "probs": [0.5, 0.5]}',
        '{"probs": [0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125]}',
        '{"alphabets": [2, 2], "probs": [0.5, 0.5]}',
        '[0.5, 0.5]',
        'not json',
    ])
    def test_malformed_source_json_rejected(self, text):
        with pytest.raises(ValidationError):
            JointSource.from_json(text)

    @pytest.mark.parametrize("text", [
        '{"input_size": 2, "output_size": 2, "rows": [1, 0, 0]}',
        '{"input_size": 1, "rows": [1]}',
        '{"input_size": 1, "output_size": 2, "rows": ["a", "b"]}',
    ])
    def test_malformed_channel_json_rejected(self, text):
        with pytest.raises(ValidationError):
            Channel.from_json(text)

    def test_distortion_validation(self):
        with pytest.raises(ValidationError):
            DistortionMeasure(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert DistortionMeasure.hamming(3).d_max == 1.0


def assert_matches_oracle_joint(p, src, uv, va, wc):
    ref, sizes = oracle_full_joint(src.probs.tolist(), uv.rows.tolist(),
                                   va.rows.tolist(), wc.rows.tolist())
    assert p.shape == sizes
    assert not p.flags.writeable
    for idx, val in ref.items():
        assert p[idx] == pytest.approx(val, abs=1e-15)


class TestComposeFullJoint:
    def test_identity_channels_recover_source(self):
        src = make_bec_bsc_source(0.1, 0.3)
        chans = (Channel.identity(2), Channel.identity(2), Channel.identity(3))
        assert_matches_oracle_joint(compose_full_joint(src, *chans), src, *chans)

    def test_degenerate_auxiliaries(self):
        src = make_bec_bsc_source(0.1, 0.3)
        chans = (Channel.constant(1), Channel.constant(2), Channel.constant(3))
        p = compose_full_joint(src, *chans)
        assert_matches_oracle_joint(p, src, *chans)
        # all auxiliary MI terms vanish
        assert mutual_information(p.sum(axis=(0, 2, 4, 5))) == pytest.approx(0.0, abs=1e-12)

    def test_random_channels_markov_residual(self):
        rng = np.random.default_rng(23)
        src = JointSource(rand_dist(rng, (2, 2, 2)))
        chans = (rand_channel(rng, 2, 2), rand_channel(rng, 2, 2), rand_channel(rng, 2, 2))
        p = compose_full_joint(src, *chans)
        assert_matches_oracle_joint(p, src, *chans)
        # conditional independence by exhaustive slice comparison:
        # p(u,v,w | a,c,e) must equal p(u,v|a) p(w|c) wherever p(a,c,e) > 0
        for a in range(2):
            for c in range(2):
                for e in range(2):
                    mass = src.probs[a, c, e]
                    block = p[:, :, :, a, c, e] / mass
                    p_uv_a = p[:, :, :, a, :, :].sum(axis=(2, 3, 4)) / src.p_a()[a]
                    p_w_c = p[:, :, :, :, c, :].sum(axis=(0, 1, 3, 4)) / src.p_c()[c]
                    assert np.allclose(block, p_uv_a[:, :, None] * p_w_c[None, None, :], atol=1e-9)

    def test_marginal_recovers_each_factor(self):
        rng = np.random.default_rng(29)
        src = JointSource(rand_dist(rng, (2, 3, 2)))
        chans = (rand_channel(rng, 4, 2), rand_channel(rng, 2, 4), rand_channel(rng, 3, 2))
        assert_matches_oracle_joint(compose_full_joint(src, *chans), src, *chans)

    def test_dimension_mismatch(self):
        src = make_bec_bsc_source(0.1, 0.3)
        with pytest.raises(ValidationError):
            compose_full_joint(src, Channel.identity(2), Channel.identity(3), Channel.identity(3))


class TestRegimeClassifier:
    def test_regime_boundaries_p01(self):
        assert classify_bec_bsc_regime(0.1, 0.15) == "degraded"
        assert classify_bec_bsc_regime(0.1, 0.30) == "less_noisy"
        assert classify_bec_bsc_regime(0.1, 0.40) == "more_capable"
        assert classify_bec_bsc_regime(0.1, 0.50) == "none"

    def test_boundaries_to_stronger_regime(self):
        assert classify_bec_bsc_regime(0.1, 0.2) == "degraded"
        assert classify_bec_bsc_regime(0.1, 0.36) == "less_noisy"
        assert classify_bec_bsc_regime(0.1, h2(0.1)) == "more_capable"

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            classify_bec_bsc_regime(0.6, 0.3)

    def test_more_capable_check_consistent(self):
        # inside regime (c) Bob is more capable; beyond h2(p) he is not
        assert bob_more_capable(make_bec_bsc_source(0.1, 0.40))
        assert not bob_more_capable(make_bec_bsc_source(0.1, 0.48))
