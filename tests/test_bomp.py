import tracemalloc
from functools import partial

import numpy as np
import pytest

from blocksense import (
    BlockStructure,
    BompConfig,
    EquivalentDictionary,
    ExperimentConfig,
    RankDeficientSupportError,
    block_recovery_bound,
    bomp_decode,
    bomp_decode_batch,
    generate_dictionary,
    generate_signals,
    gram,
    inter_block_coherence,
    sub_block_coherence,
)
from blocksense import bomp
from blocksense.bomp import _bomp_batch, _triangular_inverse
from blocksense.harness import _design, _grid
from helpers import (
    oracle_block_support,
    packed_equivalent,
    random_orthonormal,
    reference_bomp,
    reference_decode_chunk,
    unit_columns,
)

# Agreement of the lockstep kernel with the per-signal reference, fixed in
# advance: |theta - theta_ref| <= THETA_RTOL * max|theta_ref|, a few hundred
# ulps of double precision.
THETA_RTOL = 1e-12
LS_TOL = bomp._RANK_TOL


def orthonormal_block_equiv(rng, n_blocks=3, s=2):
    """Equivalent dictionary whose blocks are orthonormal and mutually orthogonal."""
    k = n_blocks * s
    q = random_orthonormal(rng, k)
    return EquivalentDictionary(q, BlockStructure((s,) * n_blocks))


class TestBompDecode:
    def test_orthogonal_blocks_exact_single_block(self):
        rng = np.random.default_rng(0)
        e = orthonormal_block_equiv(rng)
        coeffs = np.array([0.7, -1.3])
        y = e.matrix[:, 2:4] @ coeffs
        result = bomp_decode(e, y, BompConfig(k_blocks=1))
        assert result.support == (1,)
        np.testing.assert_allclose(result.values[2:4], coeffs, atol=1e-12)
        assert np.all(result.values[[0, 1, 4, 5]] == 0.0)

    def test_zero_measurements_give_zero_coefficients(self):
        rng = np.random.default_rng(1)
        e = orthonormal_block_equiv(rng)
        result = bomp_decode(e, np.zeros(6), BompConfig(k_blocks=2))
        assert np.all(result.values == 0.0)
        assert len(result.support) == 2

    def test_exactly_k_blocks_selected(self):
        rng = np.random.default_rng(2)
        e = orthonormal_block_equiv(rng, n_blocks=4, s=2)
        y = e.matrix[:, 0]  # representable with one block
        result = bomp_decode(e, y, BompConfig(k_blocks=3))
        assert len(result.support) == 3

    def test_residual_orthogonal_to_selected_columns(self):
        rng = np.random.default_rng(3)
        e_mat = rng.standard_normal((8, 12))
        e = EquivalentDictionary(e_mat, BlockStructure((3, 3, 3, 3)))
        y = rng.standard_normal(8)
        result = bomp_decode(e, y, BompConfig(k_blocks=2))
        residual = y - e_mat @ result.values
        cols = np.concatenate([np.arange(3 * j, 3 * j + 3) for j in result.support])
        assert np.linalg.norm(e_mat[:, cols].T @ residual) <= 1e-8 * np.linalg.norm(y)

    def test_residual_nonincreasing_over_prefix_supports(self):
        # greedy selections nest, so decoding with growing k extends the support
        rng = np.random.default_rng(4)
        e_mat = rng.standard_normal((13, 15))
        e = EquivalentDictionary(e_mat, BlockStructure((3,) * 5))
        y = rng.standard_normal(13)
        norms = []
        for k in range(1, 5):
            theta = bomp_decode(e, y, BompConfig(k_blocks=k)).values
            norms.append(np.linalg.norm(y - e_mat @ theta))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))

    def test_matches_exhaustive_oracle_when_bound_holds(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(2):
            e = packed_equivalent(rng)
            g = gram(e)
            bound = block_recovery_bound(inter_block_coherence(g), sub_block_coherence(g), 3)
            if not 2 < bound:
                continue
            for _ in range(8):
                blocks = rng.choice(8, size=2, replace=False)
                theta = np.zeros(24)
                for j in blocks:
                    theta[3 * j : 3 * j + 3] = rng.uniform(-1, 1, 3)
                y = e.matrix @ theta
                decoded = bomp_decode(e, y, BompConfig(k_blocks=2))
                assert set(decoded.support) == oracle_block_support(
                    e.matrix, e.structure, y, 2
                )
                # under the bound the decoder must also find the generating blocks
                assert set(decoded.support) == set(int(b) for b in blocks)
                checked += 1
        assert checked >= 8  # the instance pool must not be vacuous

    def test_rank_deficient_support_is_reported(self):
        # block 0 holds the same column twice, so it scores highest but cannot
        # be refit: the decoder passes over it for the next-best block 2
        col = np.array([1.0, 0.0, 0.0])
        e = EquivalentDictionary(
            np.column_stack([col, col, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            BlockStructure((2, 1, 1)),
        )
        y = col + [0.0, 0.0, 0.5]
        result = bomp_decode(e, y, BompConfig(k_blocks=1))
        assert result.support == (2,)
        np.testing.assert_array_equal(result.values, [0.0, 0.0, 0.0, 0.5])
        assert_passes_over(e.matrix, e.structure, y[:, None], 1, [(0, 0, 0)])

    def test_rejects_too_many_blocks(self):
        rng = np.random.default_rng(5)
        e = orthonormal_block_equiv(rng)
        with pytest.raises(ValueError, match="k_blocks"):
            bomp_decode(e, np.zeros(6), BompConfig(k_blocks=4))

    def test_rejects_wrong_measurement_length(self):
        rng = np.random.default_rng(6)
        e = orthonormal_block_equiv(rng)
        with pytest.raises(ValueError):
            bomp_decode(e, np.zeros(5), BompConfig(k_blocks=1))

    @pytest.mark.parametrize(
        "decode, y, match",
        [(bomp_decode, np.zeros((6, 1)), "1-D"), (bomp_decode_batch, np.zeros(6), "2-D")],
        ids=["single-2d", "batch-1d"],
    )
    def test_rejects_measurements_of_the_wrong_rank(self, decode, y, match):
        e = orthonormal_block_equiv(np.random.default_rng(6))
        with pytest.raises(ValueError, match=match):
            decode(e, y, BompConfig(k_blocks=1))

    def test_rejects_non_finite_measurements(self, monkeypatch):
        # refused before any decoding, naming the lowest-indexed bad signal
        e = orthonormal_block_equiv(np.random.default_rng(6))
        y = np.ones((6, 4))
        y[2, 1], y[0, 3] = np.nan, -np.inf
        calls = []
        monkeypatch.setattr(bomp, "_bomp_batch", lambda *args: calls.append(args))
        cfg = BompConfig(k_blocks=1)
        with pytest.raises(ValueError, match="signal 1 has a non-finite measurement"):
            bomp_decode_batch(e, y, cfg)
        with pytest.raises(ValueError, match="signal 2 has a non-finite measurement"):
            bomp_decode_batch(e, y[:, [0, 2, 3]], cfg)
        with pytest.raises(ValueError, match="signal 0 has a non-finite measurement"):
            bomp_decode(e, y[:, 1], cfg)
        assert calls == []


class TestBatchDecode:
    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(7)
        e_mat = rng.standard_normal((8, 12))
        e = EquivalentDictionary(e_mat, BlockStructure((2,) * 6))
        y = rng.standard_normal((8, 5))
        batch = bomp_decode_batch(e, y, BompConfig(k_blocks=2))
        for sig in range(5):
            single = bomp_decode(e, y[:, sig], BompConfig(k_blocks=2))
            np.testing.assert_array_equal(batch[:, sig], single.values)

    def test_batch_agrees_with_single_near_span(self):
        # block 1 keeps under a fifth of a column's squared norm outside
        # block 0's span, so the signals that select both blocks lose most
        # of it to the first Gram-Schmidt pass and the others do not; a
        # signal's bits must not depend on what else is in its batch
        rng = np.random.default_rng(9)
        e_mat = unit_columns(rng.standard_normal((16, 18)))
        e_mat[:, 3:6] = unit_columns(
            e_mat[:, 0:3] @ rng.standard_normal((3, 3)) + 0.5 * rng.standard_normal((16, 3))
        )
        e = EquivalentDictionary(e_mat, BlockStructure((3,) * 6))
        near = e_mat[:, 0:6] @ rng.uniform(-1.0, 1.0, (6, 3))
        far = e_mat[:, 9:18] @ rng.uniform(-1.0, 1.0, (9, 3))
        y = np.column_stack([near, far]) + 0.1 * rng.standard_normal((16, 6))
        cfg = BompConfig(k_blocks=2)
        batch = bomp_decode_batch(e, y, cfg)
        both = 0
        for sig in range(6):
            single = bomp_decode(e, y[:, sig], cfg)
            both += set(single.support) == {0, 1}
            np.testing.assert_array_equal(batch[:, sig], single.values)
        assert 0 < both < 6

    def test_batch_agrees_with_single_near_dependent_block(self):
        # block 1's last column keeps under a third of its squared norm
        # outside the span of the block's other two, so the signals that
        # select block 1 first lose most of it to the first in-block
        # Gram-Schmidt pass and the others do not
        rng = np.random.default_rng(10)
        e_mat = unit_columns(rng.standard_normal((16, 18)))
        e_mat[:, 5] = unit_columns(
            e_mat[:, 3:5] @ rng.standard_normal(2) + 0.15 * rng.standard_normal(16)
        )
        basis, _ = np.linalg.qr(e_mat[:, 3:5])
        outside = e_mat[:, 5] - basis @ (basis.T @ e_mat[:, 5])
        assert outside @ outside < 1.0 / 3.0
        e = EquivalentDictionary(e_mat, BlockStructure((3,) * 6))
        near = e_mat[:, 3:6] @ rng.uniform(-1.0, 1.0, (3, 3))
        near += e_mat[:, 9:12] @ rng.uniform(-0.3, 0.3, (3, 3))
        far = e_mat[:, 12:18] @ rng.uniform(-1.0, 1.0, (6, 3))
        y = np.column_stack([near, far]) + 0.1 * rng.standard_normal((16, 6))
        cfg = BompConfig(k_blocks=2)
        batch = bomp_decode_batch(e, y, cfg)
        first = 0
        for sig in range(6):
            single = bomp_decode(e, y[:, sig], cfg)
            first += single.support[0] == 1
            np.testing.assert_array_equal(batch[:, sig], single.values)
        assert 0 < first < 6

    @pytest.mark.parametrize("seed", [21, 87, 105])
    def test_single_signal_breaks_ties_as_in_a_batch(self, seed):
        # block 1 holds block 0's columns in the order (2, 0, 1), so the two
        # tie in exact arithmetic and their float64 scores differ only in the
        # last bits; a signal decoded alone must pick what it picks in a pair
        # (a one-row product by gemv rounds differently from a gemm row)
        rng = np.random.default_rng(seed)
        e_mat = unit_columns(rng.standard_normal((8, 18)))
        e_mat[:, 3:6] = e_mat[:, [2, 0, 1]]
        e = EquivalentDictionary(e_mat, BlockStructure((3,) * 6))
        y, other = rng.standard_normal(8), rng.standard_normal(8)
        cfg = BompConfig(k_blocks=1)
        single = bomp_decode(e, y, cfg)
        pair = bomp_decode_batch(e, np.column_stack([y, other]), cfg)
        assert single.support[0] in (0, 1)
        np.testing.assert_array_equal(single.values, pair[:, 0])

    def test_decode_is_idempotent(self):
        rng = np.random.default_rng(8)
        e = EquivalentDictionary(rng.standard_normal((6, 9)), BlockStructure((3, 3, 3)))
        y = rng.standard_normal((6, 4))
        first = bomp_decode_batch(e, y, BompConfig(k_blocks=2))
        second = bomp_decode_batch(e, y, BompConfig(k_blocks=2))
        np.testing.assert_array_equal(first, second)

    def test_batch_error_names_signal(self):
        # only signal 1 reaches block 0, which holds a column twice: it alone
        # passes over the block, and signal 0 keeps its bits
        col = np.array([1.0, 0.0, 0.0])
        e = EquivalentDictionary(
            np.column_stack([col, col, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            BlockStructure((2, 1, 1)),
        )
        y = np.column_stack([[0.0, 1.0, 0.0], col + [0.0, 0.3, 0.0]])
        cfg = BompConfig(k_blocks=1)
        batch = bomp_decode_batch(e, y, cfg)
        np.testing.assert_array_equal(batch[:, 0], [0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(batch[:, 0], bomp_decode_batch(e, y[:, :1], cfg)[:, 0])
        assert bomp_decode(e, y[:, 1], cfg).support == (1,)
        assert_passes_over(e.matrix, e.structure, y, 1, [(1, 0, 0)])


    @pytest.mark.parametrize(
        "sizes, m, k, width",
        [((3,) * 200, 20, 7, 21), ((4, 2, 3, 2, 4, 3) * 2, 7, 4, 8)],
        ids=["uniform", "mixed"],
    )
    def test_rejects_blocks_wider_than_measurements(self, monkeypatch, sizes, m, k, width):
        # the k narrowest blocks outnumber the measurements, so no support of
        # k blocks is full rank: the batch is refused before any decoding
        rng = np.random.default_rng(16)
        structure = BlockStructure(sizes)
        e = EquivalentDictionary(
            unit_columns(rng.standard_normal((m, structure.num_columns))), structure
        )
        Y = rng.standard_normal((m, 5))
        calls = []
        decode = bomp._decode_chunk

        def counted(*args):
            calls.append(args[2].shape[1])
            return decode(*args)

        monkeypatch.setattr(bomp, "_decode_chunk", counted)
        message = f"k_blocks={k} narrowest blocks hold {width} columns, more than M={m}"
        with pytest.raises(ValueError, match=message):
            bomp_decode_batch(e, Y, BompConfig(k_blocks=k))
        with pytest.raises(ValueError, match=message):
            bomp_decode(e, Y[:, 0], BompConfig(k_blocks=k))
        assert calls == []
        # one block fewer fits beside the measurements
        np.testing.assert_array_equal(bomp._check_batch(e, Y, BompConfig(k_blocks=k - 1)), Y)


class TestBompConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BompConfig(k_blocks=0)
        for bad in (2.5, True, "2"):
            with pytest.raises(ValueError, match="k_blocks"):
                BompConfig(k_blocks=bad)
        assert BompConfig(k_blocks=np.int64(2)).k_blocks == 2
        # the rank threshold is fixed, not a setting
        with pytest.raises(TypeError, match="ls_tol"):
            BompConfig(k_blocks=1, ls_tol=1e-8)


def assert_agrees_with_reference(E, structure, Y, k, kappa=1.0, ref_tol=LS_TOL):
    """Same supports as the reference, and theta within THETA_RTOL times
    kappa, a bound on the condition number of the selected columns: the
    forward error of a backward-stable solve grows with it. The reference
    runs at ``ref_tol``."""
    theta, supports = _bomp_batch(E, structure, Y, k)
    ref_theta, ref_supports = reference_bomp(E, structure.offsets, Y, k, ref_tol)
    np.testing.assert_array_equal(supports, ref_supports)
    assert theta.shape == ref_theta.shape
    bound = THETA_RTOL * kappa * np.abs(ref_theta).max(initial=0.0)
    assert np.all(np.abs(theta - ref_theta) <= bound)
    return theta, supports


def block_scores(E, structure, r):
    """Each block's squared correlation with the residual r."""
    c = E.T @ r
    return np.add.reduceat(c * c, structure.offsets[:-1])


def assert_passes_over(E, structure, Y, k, passed, ref_tol=LS_TOL):
    """Decode Y and check that every signal has k distinct blocks, a
    residual orthogonal to its chosen columns, and the reference's supports
    and coefficients (at ``ref_tol``). For each (signal, step, block) in
    ``passed``, the block scores highest at that step after the signal's
    chosen blocks, yet is not in its support: the decoder passed over it.
    Returns (theta, supports)."""
    def columns(blocks):
        return [c for j in blocks for c in range(structure.offsets[j], structure.offsets[j + 1])]

    theta, supports = assert_agrees_with_reference(E, structure, Y, k, ref_tol=ref_tol)
    resid = Y - E @ theta
    for sig in range(Y.shape[1]):
        assert len(set(supports[:, sig].tolist())) == k
        e_s = E[:, columns(supports[:, sig])]
        bound = 1e-12 * np.linalg.norm(e_s) * np.linalg.norm(Y[:, sig])
        assert np.all(np.abs(e_s.T @ resid[:, sig]) <= bound)
    for sig, t, block in passed:
        y, prefix = Y[:, sig], supports[:t, sig]
        r = y
        if t:
            e_s = E[:, columns(prefix)]
            r = y - e_s @ np.linalg.lstsq(e_s, y, rcond=None)[0]
        scores = block_scores(E, structure, r)
        scores[prefix] = -1.0
        assert np.argmax(scores) == block
        assert block not in supports[:, sig]
    return theta, supports


def assert_same_error(E, sizes, Y, k):
    """The lockstep kernel raises what the reference raises; returns it."""
    structure = BlockStructure(sizes)
    with pytest.raises(RankDeficientSupportError) as ref:
        reference_bomp(E, structure.offsets, Y, k, LS_TOL)
    with pytest.raises(RankDeficientSupportError) as got:
        _bomp_batch(E, structure, Y, k)
    assert (got.value.support, got.value.signal) == (ref.value.support, ref.value.signal)
    assert str(got.value) == str(ref.value)
    return ref.value


# The desk-sweep and decode-mixed benchmark workloads at full size.
SWEEP_CONFIGS = {
    "desk-sweep": dict(
        dict_family="gaussian", N=60, K=120, M=14, block_sizes=3, k=2, L=200,
        trials=1, alpha_grid=(0.5, 0.9, 0.99), designers=("random", "ds", "wcm"),
    ),
    "decode-mixed": dict(
        dict_family="dct_rows", N=60, K=126, M=20, block_sizes=[2, 3, 4] * 14,
        k=3, L=5000, trials=1, designers=("random", "ds"),
    ),
}


# E and Y are scaled together: the padding pivot must follow the scale of R,
# or it becomes an extreme singular value of a mixed-size support. Unscaled
# instances keep their plain ids.
RANDOM_INSTANCES = [
    pytest.param(
        sizes, n_signals, scale,
        id=f"{name}-{n_signals}" + ("" if scale == 1.0 else f"-scale{scale:g}"),
    )
    for name, sizes in (("uniform", (3,) * 12), ("mixed", (2, 3, 4) * 4))
    for n_signals in (0, 1, 37)
    for scale in (1.0, 1e-12, 1e12)
]


class TestLockstepAgreesWithReference:
    @pytest.mark.parametrize("sizes, n_signals, scale", RANDOM_INSTANCES)
    def test_random_instances(self, sizes, n_signals, scale):
        rng = np.random.default_rng(len(sizes) + n_signals)
        structure = BlockStructure(sizes)
        E = scale * unit_columns(rng.standard_normal((16, structure.num_columns)))
        Y = scale * rng.standard_normal((16, n_signals))
        assert_agrees_with_reference(E, structure, Y, 3)

    def test_block_near_span_of_earlier_block(self):
        # blocks 1 and 2 lie within delta of block 0's span. One Gram-Schmidt
        # pass against the basis leaves the second selected block's basis
        # about eps / delta off orthogonal, and the third one's about
        # eps / delta^2, which moves theta far past the bound at kappa
        # 1 / delta; the second pass keeps it at eps / delta.
        delta = 1e-5
        rng = np.random.default_rng(13)
        first = unit_columns(rng.standard_normal((16, 3)))
        near = [
            unit_columns(first @ rng.standard_normal((3, 3)) + delta * unit_columns(noise))
            for noise in rng.standard_normal((2, 16, 3))
        ]
        E = np.hstack([first, *near])
        structure = BlockStructure((3, 3, 3))
        Y = E @ rng.uniform(-1.0, 1.0, (9, 20)) + rng.standard_normal((16, 20))
        theta, _ = assert_agrees_with_reference(E, structure, Y, 3, kappa=1.0 / delta)
        resid = Y - E @ theta
        bound = 1e-14 / delta * np.linalg.norm(Y, axis=0)
        assert np.all(np.abs(E.T @ resid) <= bound)

    @pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
    def test_sweep_workloads(self, name):
        cfg = ExperimentConfig(**SWEEP_CONFIGS[name], seed=31)
        rng = np.random.default_rng([cfg.seed, 0])
        D = generate_dictionary(cfg, rng)
        X, _ = generate_signals(D, cfg.k, cfg.L, rng)
        for designer, alpha in _grid(cfg):
            a_mat, _ = _design(cfg, 0, D, designer, alpha)
            assert_agrees_with_reference(a_mat @ D.matrix, D.structure, a_mat @ X, cfg.k)


@pytest.mark.filterwarnings("error")
class TestLockstepErrors:
    @pytest.mark.parametrize("step", [0, 1])
    def test_good_signal_before_failing_one(self, step):
        rng = np.random.default_rng(3)
        E = unit_columns(rng.standard_normal((10, 15)))
        E[:, 7] = E[:, 6]  # block 2 holds a column twice
        good = E[:, 0:3] @ [1.0, -1.0, 0.5] + E[:, 9:12] @ [0.3, 0.2, -0.4]
        # block 2 dominates the signal failing at step 0, so the prefix
        # re-check, not the final support, names the step to pass it over at
        bad = [
            E[:, 6:9] @ [2.0, 1.0, 1.0] + E[:, 12:15] @ [0.3, 0.2, 0.1],
            E[:, 12:15] @ [2.0, -1.5, 1.0] + E[:, 6:9] @ [0.3, 0.4, 0.2],
        ][step]
        structure = BlockStructure((3,) * 5)
        Y = np.column_stack([good, bad])
        theta, supports = assert_passes_over(E, structure, Y, 2, [(1, step, 2)])
        assert tuple(supports[:, 0]) == (0, 3)
        assert tuple(supports[:, 1]) == ((0, 1), (4, 3))[step]
        alone, _ = _bomp_batch(E, structure, Y[:, :1], 2)
        np.testing.assert_array_equal(theta[:, 0], alone[:, 0])

    def test_lowest_failing_signal_wins_across_widths(self):
        # both signals fail at their second block, which holds a column
        # twice; signal 0's failing support is 7 columns wide and signal 1's
        # is 5. Both pass over it in one retry pass and keep the bits they
        # get alone.
        rng = np.random.default_rng(6)
        E = unit_columns(rng.standard_normal((12, 15)))
        E[:, 1] = E[:, 0]
        E[:, 5] = E[:, 4]
        wide = E[:, 6:9] @ [2.0, -1.5, 1.0] + E[:, 0:4] @ [0.3, 0.2, 0.1, 0.3]
        narrow = E[:, 12:15] @ [2.0, -1.5, 1.0] + E[:, 4:6] @ [0.4, 0.3]
        structure = BlockStructure((4, 2, 3, 3, 3))
        Y = np.column_stack([wide, narrow])
        theta, supports = assert_passes_over(E, structure, Y, 2, [(0, 1, 0), (1, 1, 1)])
        np.testing.assert_array_equal(supports, [[2, 4], [3, 3]])
        for sig in range(2):
            alone, _ = _bomp_batch(E, structure, Y[:, [sig]], 2)
            np.testing.assert_array_equal(theta[:, sig], alone[:, 0])

    def test_lowest_failing_signal_wins_across_kinds(self):
        # block 1, which scores highest for signal "singular", has an exactly
        # zero pivot, so the signal passes over it for block 0. Beside
        # block 0's 4 columns no block fits the 5 measurements, so both
        # signals pass over every other block and run out of blocks: the
        # lowest-indexed one is named, with the last block it passed over.
        rng = np.random.default_rng(7)
        E = unit_columns(rng.standard_normal((5, 12)))
        # block 1 holds one column twice; its entries are +-1/2, so
        # Gram-Schmidt cancels the repeat exactly
        E[:, 4:6] = np.array([[0.5], [-0.5], [0.5], [0.5], [0.0]])
        singular = 3.0 * E[:, 4] + E[:, 8:10] @ [0.2, -0.1]
        wide = E[:, 0:4] @ [2.0, -1.5, 1.0, 1.0] + E[:, 10:12] @ [0.3, 0.2]
        sizes = (4, 2, 2, 2, 2)
        assert np.argmax(block_scores(E, BlockStructure(sizes), singular)) == 1
        for Y, named in [
            (np.column_stack([singular, wide]), ((0, 4), 0)),
            (np.column_stack([wide, singular]), ((0, 1), 0)),
        ]:
            err = assert_same_error(E, sizes, Y, 2)
            assert (err.support, err.signal) == named

    def test_more_columns_than_measurements(self):
        rng = np.random.default_rng(4)
        E = unit_columns(rng.standard_normal((5, 12)))
        # the third block brings 6 columns for 5 measurements; a fourth follows
        Y = rng.standard_normal((5, 3))
        err = assert_same_error(E, (2,) * 6, Y, 4)
        assert (len(err.support), err.signal) == (3, 0)

    def test_block_wider_than_measurements(self):
        rng = np.random.default_rng(5)
        E = np.zeros((3, 8))
        E[:2, :4] = rng.standard_normal((2, 4))
        E[:, 4:] = rng.standard_normal((3, 4)) * [[0.1], [0.1], [1.0]]
        E = unit_columns(E)
        good = E[:, 0:2] @ [1.0, -1.0]
        # only the 4-column block reaches it, so it is passed over for a
        # block that explains nothing of the signal
        bad = np.array([0.0, 0.0, 1.0])
        theta, supports = assert_passes_over(
            E, BlockStructure((2, 2, 4)), np.column_stack([good, bad]), 1, [(1, 0, 2)]
        )
        np.testing.assert_array_equal(supports, [[1, 0]])
        assert np.all(theta[:, 1] == 0.0)


@pytest.mark.filterwarnings("error")
class TestConditioningScreen:
    """The inverse-based screen and the singular values it falls back to
    decide exactly as the reference's singular values do."""

    @pytest.mark.parametrize("ref_tol", [LS_TOL])
    @pytest.mark.parametrize("delta", [1e-4, 1e-7, 1e-9, 1e-12])
    def test_near_dependent_block(self, delta, ref_tol):
        # block 2's last column is a combination of its other two plus delta
        # times noise; signal 1 is made from blocks 2 and 0, signal 0 from
        # blocks 4 and 1
        rng = np.random.default_rng(11)
        E = unit_columns(rng.standard_normal((16, 15)))
        E[:, 8] = 0.6 * E[:, 6] - 0.8 * E[:, 7] + delta * rng.standard_normal(16)
        E = unit_columns(E)
        good = E[:, 12:15] @ [1.0, 0.5, 0.3] + E[:, 3:6] @ [0.2, 0.1, 0.3]
        bad = E[:, 6:9] @ [1.0, -0.5, 0.7] + E[:, 0:3] @ [0.2, 0.1, -0.3]
        Y = np.column_stack([good, bad])
        if delta < ref_tol:
            _, supports = assert_passes_over(
                E, BlockStructure((3,) * 5), Y, 2, [(1, 0, 2)], ref_tol
            )
            assert tuple(supports[:, 1]) == (4, 1)
        else:
            # block 2 is about delta from singular
            _, supports = assert_agrees_with_reference(
                E, BlockStructure((3,) * 5), Y, 2, kappa=1.0 / delta, ref_tol=ref_tol
            )
            assert supports[0, 1] == 2

    def test_exactly_repeated_column(self):
        # a column of entries +-1/2 has norm exactly 1, so Gram-Schmidt
        # cancels its repeat exactly: R has a zero pivot, its inverse is not
        # finite, and the singular values fail that signal's support
        E, Y = repeated_column_batch()
        _, supports = assert_passes_over(E, BlockStructure((3,) * 5), Y, 2, [(1, 0, 2)])
        np.testing.assert_array_equal(supports, [[4, 1], [1, 4]])

    def test_zero_pivot_takes_the_singular_values_alone(self, monkeypatch):
        E, Y = repeated_column_batch()
        structure = BlockStructure((3,) * 5)
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        _, supports = _bomp_batch(E, structure, Y, 2)
        # the screen clears signal 0, so the check of the final supports
        # takes the singular values of signal 1's factor only, and the
        # prefix check those of its first block, whose inverse is not
        # finite either; the retry pass, whose support is well conditioned,
        # takes none
        assert shapes == [(1, 6, 6), (1, 3, 3)]
        assert 2 not in supports[:, 1]


def block_major_kernel(layouts, structure, Y, k, coef, supports, excluded=None,
                       ls_tol=LS_TOL):
    """``reference_decode_chunk`` at ``ls_tol`` in place of
    ``bomp._decode_chunk``: it is handed E's padded columns block-major, as
    the blocks' rows flattened, and scores in float64 only."""
    rows = layouts.rows
    e_block_major = np.ascontiguousarray(rows.reshape(-1, rows.shape[2]).T)
    return reference_decode_chunk(
        rows, e_block_major, structure, Y, k, coef, supports, excluded, ls_tol
    )


def assert_same_as_block_major(monkeypatch, E, structure, Y, k, ref_tol=LS_TOL):
    """_bomp_batch gives the bits it gives with the block-major reference
    kernel, run at ``ref_tol``, in place of its own."""
    theta, supports = _bomp_batch(E, structure, Y, k)
    with monkeypatch.context() as patch:
        patch.setattr(bomp, "_decode_chunk", partial(block_major_kernel, ls_tol=ref_tol))
        ref_theta, ref_supports = _bomp_batch(E, structure, Y, k)
    np.testing.assert_array_equal(supports, ref_supports)
    np.testing.assert_array_equal(theta, ref_theta)
    return supports


class TestKernelAgreesWithBlockMajorReference:
    """Slot-major block scoring and the unmasked column division change no
    bit of theta or of a support, on first passes and on pass-over retries."""

    @pytest.mark.parametrize("ref_tol", [LS_TOL])
    @pytest.mark.parametrize("sizes", [(3,) * 12, (2, 3, 4) * 4, (1, 4, 2, 4, 3) * 2],
                             ids=["uniform", "mixed", "mixed-wide"])
    def test_random_draws(self, monkeypatch, sizes, ref_tol):
        rng = np.random.default_rng(list(sizes))
        structure = BlockStructure(sizes)
        for _ in range(5):
            E = unit_columns(rng.standard_normal((16, structure.num_columns)))
            Y = rng.standard_normal((16, 40))
            assert_same_as_block_major(monkeypatch, E, structure, Y, 3, ref_tol)

    def test_mirrored_blocks_follow_the_slot_order(self, monkeypatch):
        # block 1 holds block 0's columns in reverse order, so the two tie in
        # exact arithmetic and their computed scores differ only by the order
        # of the sums: the first choice between them shows that order
        rng = np.random.default_rng(17)
        E = unit_columns(rng.standard_normal((16, 18)))
        E[:, 3:6] = E[:, 2::-1]
        Y = E[:, :3] @ rng.uniform(-1.0, 1.0, (3, 200)) + 0.01 * rng.standard_normal((16, 200))
        supports = assert_same_as_block_major(monkeypatch, E, BlockStructure((3,) * 6), Y, 2)
        assert {0, 1} <= set(supports[0].tolist())  # each wins some ties

    @pytest.mark.parametrize("ref_tol", [LS_TOL])
    def test_exactly_dependent_block(self, monkeypatch, ref_tol):
        E, Y = repeated_column_batch()
        supports = assert_same_as_block_major(
            monkeypatch, E, BlockStructure((3,) * 5), Y, 2, ref_tol
        )
        assert 2 not in supports[:, 1]  # passed over


def fallback_rows(monkeypatch):
    """A list that counts, from now on, the signals of every call to
    ``bomp._float64_scores``: the signal-steps that take float64 scores."""
    rows = []
    scores = bomp._float64_scores

    def counted(resid, e_pad, s_max):
        rows.append(resid.shape[0])
        return scores(resid, e_pad, s_max)

    monkeypatch.setattr(bomp, "_float64_scores", counted)
    return rows


def sparse_batch(rng, E, structure, k, n_signals, noise=0.01):
    """n_signals measurements, each of k random blocks of E with uniform
    coefficients, plus Gaussian noise of the given scale."""
    lo = structure.offsets
    Y = noise * rng.standard_normal((E.shape[0], n_signals))
    for sig in range(n_signals):
        for b in rng.permutation(structure.num_blocks)[:k]:
            Y[:, sig] += E[:, lo[b] : lo[b + 1]] @ rng.uniform(-1.0, 1.0, lo[b + 1] - lo[b])
    return Y


class TestFloat32Scores:
    """Blocks are scored in float32; a signal keeps the float32 argmax only
    where the rounding bound certifies it as the float64 argmax, and takes
    float64 scores otherwise."""

    @pytest.mark.parametrize(
        "scale, winner",
        [(1.0, 0), (1.0 + 2.0**-30, 1), (1.0 + 2.0**-20, 1)],
        ids=["exact-tie", "near-tie", "float32-near-tie"],
    )
    def test_ties_take_float64_scores(self, monkeypatch, scale, winner):
        # block 1 is block 0 scaled: an exact tie goes to the lower index; a
        # relative score gap of 2^-29, which float32 cannot see, and one of
        # 2^-19, within float32's rounding of these scores, go to block 1
        rng = np.random.default_rng(23)
        E = unit_columns(rng.standard_normal((16, 18)))
        E[:, 3:6] = scale * E[:, 0:3]
        Y = E[:, :3] @ rng.uniform(-1.0, 1.0, (3, 40)) + 0.01 * rng.standard_normal((16, 40))
        rows = fallback_rows(monkeypatch)
        structure = BlockStructure((3,) * 6)
        supports = assert_same_as_block_major(monkeypatch, E, structure, Y, 1)
        assert np.all(supports[0] == winner)
        assert sum(rows) == 40

    @pytest.mark.parametrize("power", [100, 63, -65, -100])
    def test_power_of_two_scaling_scales_theta(self, monkeypatch, power):
        # 2^100 overflows every float32 square, 2^63 only the larger ones,
        # 2^-65 leaves them subnormal and 2^-100 flushes them to zero; theta
        # must scale exactly and keep its supports, as the float64 arithmetic
        # does
        rng = np.random.default_rng(29)
        structure = BlockStructure((3,) * 12)
        E = unit_columns(rng.standard_normal((16, 36)))
        Y = sparse_batch(rng, E, structure, 3, 40)
        theta, supports = _bomp_batch(E, structure, Y, 3)
        rows = fallback_rows(monkeypatch)
        scaled, scaled_supports = _bomp_batch(E, structure, np.ldexp(Y, power), 3)
        np.testing.assert_array_equal(scaled_supports, supports)
        np.testing.assert_array_equal(scaled, np.ldexp(theta, power))
        if power in (100, -100):
            assert sum(rows) == 40 * 3  # no float32 score certifies

    def test_overflow_at_the_top_takes_float64_scores(self, monkeypatch):
        # block 1 holds block 0's columns in the order (2, 0, 1), so their
        # float32 scores differ only by rounding; each signal is scaled until
        # the float32 score of one block just overflows, as the kernel forms
        # it, while the other's may not: an infinite top score never
        # certifies, though its margin over a finite runner-up is infinite
        rng = np.random.default_rng(41)
        structure = BlockStructure((3,) * 6)
        E = unit_columns(rng.standard_normal((16, 18)))
        E[:, 3:6] = E[:, [2, 0, 1]]
        Y = E[:, :3] @ rng.uniform(-1.0, 1.0, (3, 200)) + 0.01 * rng.standard_normal((16, 200))
        e32 = E.reshape(16, 6, 3).transpose(0, 2, 1).reshape(16, 18).astype(np.float32)

        def overflows(log_scale):
            with np.errstate(over="ignore"):
                c = ((Y * np.exp2(log_scale)).T.astype(np.float32) @ e32).reshape(-1, 3, 6)
                return np.isinf(np.einsum("ljb,ljb->lb", c, c)[:, :2]).any(axis=1)

        finite, infinite = np.full(200, 60.0), np.full(200, 66.0)  # log2 of the scales
        for _ in range(60):
            mid = (finite + infinite) / 2
            over = overflows(mid)
            finite, infinite = np.where(over, finite, mid), np.where(over, mid, infinite)
        Y *= np.exp2(infinite)
        rows = fallback_rows(monkeypatch)
        supports = assert_same_as_block_major(monkeypatch, E, structure, Y, 1)
        assert {0, 1} <= set(supports[0].tolist())  # each wins some ties
        assert sum(rows) == 200

    @pytest.mark.parametrize("per_chunk", [None, 7], ids=["one-chunk", "chunked"])
    def test_columns_agree_over_batch_sizes(self, monkeypatch, per_chunk):
        # two pairs of blocks tie, so many signal-steps take float64 scores
        rng = np.random.default_rng(31)
        structure = BlockStructure((3,) * 6)
        E = unit_columns(rng.standard_normal((24, 18)))
        E[:, 3:6] = E[:, [2, 0, 1]]
        E[:, 9:12] = E[:, [7, 8, 6]]
        Y = sparse_batch(rng, E, structure, 2, 100)
        rows = fallback_rows(monkeypatch)
        if per_chunk:
            monkeypatch.setattr(bomp, "_CHUNK_BYTES", chunk_bytes(structure, 2, 24, per_chunk))
        theta, supports = _bomp_batch(E, structure, Y, 2)
        assert 0 < sum(rows) < 200
        assert_same_as_block_major(monkeypatch, E, structure, Y, 2)
        for n_signals in (1, 2, 3):
            for first in range(0, 100 - n_signals, 9):
                part = slice(first, first + n_signals)
                got, got_supports = _bomp_batch(E, structure, Y[:, part], 2)
                np.testing.assert_array_equal(got_supports, supports[:, part])
                np.testing.assert_array_equal(got, theta[:, part])

    def test_float32_scores_decide_most_steps_at_k1200_shape(self, monkeypatch):
        # M = 140, K = 1200 in blocks of 3, k = 8, as the scale-k1200 sweep
        rng = np.random.default_rng(37)
        structure = BlockStructure((3,) * 400)
        E = unit_columns(rng.standard_normal((140, 1200)))
        Y = sparse_batch(rng, E, structure, 8, 100)
        rows = fallback_rows(monkeypatch)
        assert_same_as_block_major(monkeypatch, E, structure, Y, 8)
        # the block-major reference scores in float64 only, and is not counted
        assert sum(rows) <= 0.05 * 100 * 8


def dependent_batch(kind, sizes):
    """E and 60 signals, each a random combination of 3 blocks, on which
    supports fail at each step of a 3-block decode. ``near-dependent``:
    for every third block b, the last column of b lies about a random
    distance in [1e-13, 1e-8] from the span of its others, and the first
    column of block b + 2 about another such distance from that of block
    b + 1; ``exactly-dependent``: the same at distance 0, with block 0's
    first two columns the same column of entries +-1/2, which Gram-Schmidt
    cancels to an exactly zero pivot; ``wide``: 7 measurements, which two
    4-column blocks outnumber."""
    rng = np.random.default_rng([0, len(kind), *sizes])
    structure = BlockStructure(sizes)
    lo = structure.offsets
    m_rows = 7 if kind == "wide" else 16
    E = unit_columns(rng.standard_normal((m_rows, structure.num_columns)))
    if kind != "wide":
        deltas = np.zeros(8) if kind == "exactly-dependent" else 10.0 ** rng.uniform(-13, -8, 8)
        for i, b in enumerate(range(0, structure.num_blocks, 3)):
            first, last = lo[b], lo[b + 1] - 1
            E[:, last] = E[:, first:last] @ rng.standard_normal(last - first)
            E[:, last] += deltas[i] * rng.standard_normal(m_rows)
            E[:, lo[b + 2]] = E[:, lo[b + 1]] + deltas[4 + i] * rng.standard_normal(m_rows)
        if kind == "exactly-dependent":
            E[:, 0:2] = 0.0
            E[[0, 4, 8, 12], 0:2] = [[0.5], [-0.5], [0.5], [0.5]]
    blocks = np.argsort(rng.random((60, structure.num_blocks)), axis=1)[:, :3]
    Y = np.zeros((m_rows, 60))
    for sig, chosen in enumerate(blocks):
        for b in chosen:
            Y[:, sig] += E[:, lo[b] : lo[b + 1]] @ rng.uniform(-1.0, 1.0, lo[b + 1] - lo[b])
    return E, structure, Y


@pytest.mark.filterwarnings("error")
class TestPrefixSearch:
    """The batched check of each failing signal's prefix supports names the
    failing signals and first failing steps that the per-signal, per-prefix
    singular values of the block-major reference (``_first_failing_step``)
    name, on first passes and on pass-over retries."""

    @pytest.mark.parametrize(
        "kind, sizes",
        [
            ("near-dependent", (3,) * 12),
            ("near-dependent", (2, 3, 4) * 4),
            ("exactly-dependent", (3,) * 12),
            ("exactly-dependent", (2, 3, 4) * 4),
            # uniform blocks all outnumber the measurements at the same step
            ("wide", (2, 3, 4) * 4),
        ],
        ids=["near-uniform", "near-mixed", "exact-uniform", "exact-mixed", "wide-mixed"],
    )
    def test_agrees_with_first_failing_step(self, monkeypatch, kind, sizes):
        E, structure, Y = dependent_batch(kind, sizes)
        steps = []
        decode = bomp._decode_chunk

        def compared(layouts, structure, Y, k, coef, supports, excluded=None):
            ref_coef, ref_supports = coef.copy(), supports.copy()
            ref_failed, ref_steps = block_major_kernel(
                layouts, structure, Y, k, ref_coef, ref_supports, excluded
            )
            failed, got_steps = decode(layouts, structure, Y, k, coef, supports, excluded)
            np.testing.assert_array_equal(failed, ref_failed)
            np.testing.assert_array_equal(got_steps, ref_steps)
            np.testing.assert_array_equal(supports, ref_supports)
            np.testing.assert_array_equal(coef, ref_coef)
            steps.extend(got_steps.tolist())
            return failed, got_steps

        monkeypatch.setattr(bomp, "_decode_chunk", compared)
        if kind == "wide":
            # a signal that takes two 4-column blocks first finds no third
            # that fits beside them, and runs out of blocks
            with pytest.raises(RankDeficientSupportError):
                _bomp_batch(E, structure, Y, 3)
        else:
            _bomp_batch(E, structure, Y, 3)
        # signals fail at a prefix step as well as at the final one
        assert min(steps) < 2 == max(steps)


def chunk_bytes(structure, k, m_rows, signals):
    """A budget that fits exactly ``signals`` signals' worth of the
    kernel's per-signal buffers: basis, factor R and Q' y in float64, and
    correlations in float32."""
    n_blocks, s_max = structure.padding.shape
    width = k * s_max
    return signals * (8 * (width * m_rows + width * width + width) + 4 * n_blocks * s_max)


def recorded_chunks(monkeypatch):
    """Two lists, filled from now on: the number of signals of every chunk
    of _bomp_batch's first pass, and the measurements of every chunk of its
    retry passes."""
    chunks, retries = [], []
    decode = bomp._decode_chunk

    def recording(layouts, structure, Y, k, coef, supports, excluded=None):
        if excluded is None:
            chunks.append(Y.shape[1])
        else:
            retries.append(Y.copy())
        return decode(layouts, structure, Y, k, coef, supports, excluded)

    monkeypatch.setattr(bomp, "_decode_chunk", recording)
    return chunks, retries


class TestChunkedDecode:
    """A batch is decoded in chunks of signals that fit a byte budget; the
    chunks change neither a bit of the result nor which signals are decoded
    again."""

    @pytest.mark.parametrize("per_chunk", [1, 2, 7])
    @pytest.mark.parametrize("sizes", [(3,) * 12, (2, 3, 4) * 4], ids=["uniform", "mixed"])
    def test_chunks_agree_with_one_chunk(self, monkeypatch, sizes, per_chunk):
        rng = np.random.default_rng(per_chunk)
        structure = BlockStructure(sizes)
        E = unit_columns(rng.standard_normal((16, structure.num_columns)))
        Y = rng.standard_normal((16, 37))
        chunks, _ = recorded_chunks(monkeypatch)
        whole, whole_supports = _bomp_batch(E, structure, Y, 3)
        assert chunks == [37]
        monkeypatch.setattr(bomp, "_CHUNK_BYTES", chunk_bytes(structure, 3, 16, per_chunk))
        theta, supports = _bomp_batch(E, structure, Y, 3)
        assert len(chunks) == 1 + -(-37 // per_chunk)
        np.testing.assert_array_equal(theta, whole)
        np.testing.assert_array_equal(supports, whole_supports)

    def test_halves_agree_with_the_whole_at_the_real_budget(self, monkeypatch):
        # 12336 bytes per signal: 340 signals fill a 4 MiB chunk, so the
        # whole batch and each half take chunks of different bounds
        rng = np.random.default_rng(0)
        structure = BlockStructure((3,) * 80)
        e = EquivalentDictionary(unit_columns(rng.standard_normal((60, 240))), structure)
        Y = sparse_batch(rng, e.matrix, structure, 6, 1000)
        chunks, _ = recorded_chunks(monkeypatch)
        cfg = BompConfig(k_blocks=6)
        whole = bomp_decode_batch(e, Y, cfg)
        halves = [bomp_decode_batch(e, Y[:, half], cfg) for half in (slice(500), slice(500, None))]
        assert chunks == [340, 340, 320] + [340, 160] * 2
        np.testing.assert_array_equal(np.hstack(halves), whole)

    def test_no_prefix_checks_when_nothing_fails(self, monkeypatch):
        # every support is full rank: each chunk checks its final supports
        # once, and none of the k - 1 leading prefixes
        rng = np.random.default_rng(12)
        structure = BlockStructure((3,) * 12)
        E = unit_columns(rng.standard_normal((16, structure.num_columns)))
        Y = rng.standard_normal((16, 37))
        whole = _bomp_batch(E, structure, Y, 3)
        checked = []
        fails = bomp._fails

        def counted(r, r_inv, widths, m_rows):
            checked.append(len(r))
            return fails(r, r_inv, widths, m_rows)

        monkeypatch.setattr(bomp, "_fails", counted)
        chunks, retries = recorded_chunks(monkeypatch)
        monkeypatch.setattr(bomp, "_CHUNK_BYTES", chunk_bytes(structure, 3, 16, 7))
        for got, want in zip(_bomp_batch(E, structure, Y, 3), whole):
            np.testing.assert_array_equal(got, want)
        assert retries == [] and chunks == [7, 7, 7, 7, 7, 2]
        assert checked == chunks

    def test_near_span_blocks_agree_with_one_chunk(self, monkeypatch):
        # some signals take the second Gram-Schmidt pass and some do not
        rng = np.random.default_rng(9)
        E = unit_columns(rng.standard_normal((16, 18)))
        E[:, 3:6] = unit_columns(
            E[:, 0:3] @ rng.standard_normal((3, 3)) + 0.5 * rng.standard_normal((16, 3))
        )
        structure = BlockStructure((3,) * 6)
        Y = E[:, 0:9] @ rng.uniform(-1.0, 1.0, (9, 24)) + 0.1 * rng.standard_normal((16, 24))
        whole = _bomp_batch(E, structure, Y, 3)
        monkeypatch.setattr(bomp, "_CHUNK_BYTES", chunk_bytes(structure, 3, 16, 5))
        for got, want in zip(_bomp_batch(E, structure, Y, 3), whole):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("ref_tol, support", [(LS_TOL, (1, 4))])
    @pytest.mark.parametrize("per_chunk", [1, 2, 4])
    def test_error_in_a_later_chunk_names_the_batch_index(
        self, monkeypatch, per_chunk, ref_tol, support
    ):
        # signals 5 and 7 fail at block 2, in later chunks; the retry pass
        # holds exactly those two, found by their index in the whole batch
        E, pair = repeated_column_batch()
        structure = BlockStructure((3,) * 5)
        Y = pair[:, [0, 0, 0, 0, 0, 1, 0, 1]]
        _, retries = recorded_chunks(monkeypatch)
        whole = _bomp_batch(E, structure, Y, 2)
        assert [y.shape[1] for y in retries] == [2]
        np.testing.assert_array_equal(retries[0], Y[:, [5, 7]])
        monkeypatch.setattr(bomp, "_CHUNK_BYTES", chunk_bytes(structure, 2, 16, per_chunk))
        retries.clear()
        theta, supports = _bomp_batch(E, structure, Y, 2)
        np.testing.assert_array_equal(np.hstack(retries), Y[:, [5, 7]])
        assert tuple(supports[:, 5]) == tuple(supports[:, 7]) == support
        ref_supports = reference_bomp(E, structure.offsets, Y, 2, ref_tol)[1]
        np.testing.assert_array_equal(supports, ref_supports)
        np.testing.assert_array_equal(theta, whole[0])
        np.testing.assert_array_equal(supports, whole[1])

    @pytest.mark.parametrize("per_chunk", [1, 2])
    def test_stuck_signal_stops_the_later_chunks(self, monkeypatch, per_chunk):
        # a signal led by the 4-column block finds no 2-column block that
        # fits beside it in 5 measurements, so it passes over each one and
        # runs out of blocks. Signals 2 and 4 do so, in different chunks: the
        # error is the one-chunk error, and no later chunk is decoded
        rng = np.random.default_rng(7)
        sizes = (4, 2, 2, 2, 2)
        structure = BlockStructure(sizes)
        E = unit_columns(rng.standard_normal((5, 12)))
        good = E[:, 4:6] @ [1.0, -0.5] + E[:, 8:10] @ [0.4, 0.3]
        wide = E[:, 0:4] @ [2.0, -1.5, 1.0, 1.0] + E[:, 10:12] @ [0.3, 0.2]
        Y = np.column_stack([good, good, wide, good, wide, good, good])
        whole = assert_same_error(E, sizes, Y, 2)
        assert whole.signal == 2
        chunks, retries = recorded_chunks(monkeypatch)
        monkeypatch.setattr(bomp, "_CHUNK_BYTES", chunk_bytes(structure, 2, 5, per_chunk))
        with pytest.raises(RankDeficientSupportError) as got:
            _bomp_batch(E, structure, Y, 2)
        assert (got.value.support, got.value.signal) == (whole.support, whole.signal)
        # the chunk holding signal 2 is the last one decoded, and only signal
        # 2 is decoded again
        assert chunks == [per_chunk] * -(-3 // per_chunk)
        assert len(retries) == len(sizes) - 2
        for y in retries:
            np.testing.assert_array_equal(y, Y[:, [2]])

    def test_no_chunk_exceeds_the_budget(self, monkeypatch):
        rng = np.random.default_rng(14)
        structure = BlockStructure((2, 3, 4) * 4)
        E = unit_columns(rng.standard_normal((16, structure.num_columns)))
        Y = rng.standard_normal((16, 50))
        chunks, _ = recorded_chunks(monkeypatch)
        one = chunk_bytes(structure, 3, 16, 1)
        for budget, per_chunk in [(7 * one, 7), (8 * one - 1, 7), (one - 1, 1), (1, 1)]:
            monkeypatch.setattr(bomp, "_CHUNK_BYTES", budget)
            chunks.clear()
            _bomp_batch(E, structure, Y, 3)
            assert chunks == [min(per_chunk, 50 - i) for i in range(0, 50, per_chunk)]

    def test_working_memory_does_not_grow_with_signals(self, monkeypatch):
        # numpy reports its array allocations to tracemalloc; a chunk's peak
        # counts what it allocates on top of what was live when it started
        rng = np.random.default_rng(15)
        structure = BlockStructure((2, 3, 4) * 4)
        E = unit_columns(rng.standard_normal((16, structure.num_columns)))
        monkeypatch.setattr(bomp, "_CHUNK_BYTES", chunk_bytes(structure, 3, 16, 20))
        peaks = []
        decode = bomp._decode_chunk

        def measured(*args):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            failed = decode(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - live)
            return failed

        monkeypatch.setattr(bomp, "_decode_chunk", measured)
        largest = []
        for n_signals in (200, 2000):
            Y = rng.standard_normal((16, n_signals))
            peaks.clear()
            tracemalloc.start()
            try:
                _bomp_batch(E, structure, Y, 3)
            finally:
                tracemalloc.stop()
            largest.append(max(peaks))
        assert 0 < largest[1] < 1.1 * largest[0]


def repeated_column_batch():
    """Signal 0 is well conditioned; signal 1 selects block 2, which holds an
    exactly repeated column."""
    rng = np.random.default_rng(12)
    E = unit_columns(rng.standard_normal((16, 15)))
    E[:, 6:8] = 0.0
    E[[0, 4, 8, 12], 6:8] = [[0.5], [-0.5], [0.5], [0.5]]
    good = E[:, 12:15] @ [1.0, 0.5, 0.3] + E[:, 3:6] @ [0.2, 0.1, 0.3]
    bad = E[:, 6:9] @ [2.0, 1.0, 1.0] + E[:, 0:3] @ [0.2, 0.1, -0.3]
    return E, np.column_stack([good, bad])


def padded_triangular(rng, s_max, n_diag):
    """An upper-triangular factor laid out as _bomp_batch lays out R: n_diag
    blocks of up to s_max real columns, padded to s_max with zero rows and
    columns that carry |R[0, 0]| on the diagonal."""
    sizes = rng.integers(1, s_max + 1, n_diag)
    real = np.concatenate([b * s_max + np.arange(s) for b, s in enumerate(sizes)])
    factor = np.linalg.qr(rng.standard_normal((real.size + 2, real.size)))[1]
    r = np.zeros((n_diag * s_max, n_diag * s_max))
    r[np.ix_(real, real)] = factor
    padding = np.setdiff1d(np.arange(n_diag * s_max), real)
    r[padding, padding] = abs(factor[0, 0])
    return r


class TestTriangularInverse:
    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("s_max", [1, 2, 3, 4])
    def test_agrees_with_linalg_inv(self, s_max, scale):
        rng = np.random.default_rng(s_max)
        for n_diag in range(1, 5):
            r = scale * np.array([padded_triangular(rng, s_max, n_diag) for _ in range(20)])
            got = _triangular_inverse(r, s_max)
            ref = np.linalg.inv(r)
            assert np.all(np.tril(got, -1) == 0.0)
            # the forward error of either inverse is of order kappa * eps
            kappa = np.linalg.norm(r, axis=(1, 2)) * np.linalg.norm(ref, axis=(1, 2))
            bound = 1e-13 * kappa * np.abs(ref).max(axis=(1, 2))
            assert np.all(np.abs(got - ref) <= bound[:, None, None])

    def test_zero_pivot_stays_in_its_matrix(self):
        # theta = R^-1 Q'y per signal, so a good signal's coefficients
        # keep their bits next to a singular factor
        rng = np.random.default_rng(5)
        r = np.array([padded_triangular(rng, 3, 3) for _ in range(3)])
        r[1, 4, 4] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            got = _triangular_inverse(r, 3)
        assert not np.all(np.isfinite(got[1]))
        alone = _triangular_inverse(r[[0, 2]], 3)
        assert np.all(np.isfinite(alone))
        np.testing.assert_array_equal(got[[0, 2]], alone)
