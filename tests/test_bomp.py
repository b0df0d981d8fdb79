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
from blocksense.bomp import _bomp_batch
from blocksense.harness import _design, _grid
from helpers import (
    oracle_block_support,
    packed_equivalent,
    random_orthonormal,
    reference_bomp,
    unit_columns,
)

# Agreement of the lockstep kernel with the per-signal reference, fixed in
# advance: |theta - theta_ref| <= THETA_RTOL * max|theta_ref|, a few hundred
# ulps of double precision.
THETA_RTOL = 1e-12
LS_TOL = BompConfig(k_blocks=1).ls_tol


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
        # block 0 holds the same column twice, so selecting it breaks the solve
        col = np.array([1.0, 0.0, 0.0])
        e = EquivalentDictionary(
            np.column_stack([col, col, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            BlockStructure((2, 1, 1)),
        )
        with pytest.raises(RankDeficientSupportError, match=r"\(0,\)") as exc_info:
            bomp_decode(e, col, BompConfig(k_blocks=1))
        assert exc_info.value.support == (0,)

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

    def test_decode_is_idempotent(self):
        rng = np.random.default_rng(8)
        e = EquivalentDictionary(rng.standard_normal((6, 9)), BlockStructure((3, 3, 3)))
        y = rng.standard_normal((6, 4))
        first = bomp_decode_batch(e, y, BompConfig(k_blocks=2))
        second = bomp_decode_batch(e, y, BompConfig(k_blocks=2))
        np.testing.assert_array_equal(first, second)

    def test_batch_error_names_signal(self):
        col = np.array([1.0, 0.0, 0.0])
        e = EquivalentDictionary(
            np.column_stack([col, col, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            BlockStructure((2, 1, 1)),
        )
        y = np.column_stack([[0.0, 1.0, 0.0], col])
        with pytest.raises(RankDeficientSupportError, match="signal 1"):
            bomp_decode_batch(e, y, BompConfig(k_blocks=1))


class TestBompConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BompConfig(k_blocks=0)
        with pytest.raises(ValueError):
            BompConfig(k_blocks=1, ls_tol=-1.0)


def assert_agrees_with_reference(E, structure, Y, k):
    theta, supports = _bomp_batch(E, structure.offsets, Y, k, LS_TOL)
    ref_theta, ref_supports = reference_bomp(E, structure.offsets, Y, k, LS_TOL)
    np.testing.assert_array_equal(supports, ref_supports)
    assert theta.shape == ref_theta.shape
    assert np.all(np.abs(theta - ref_theta) <= THETA_RTOL * np.abs(ref_theta).max(initial=0.0))


def assert_same_error(E, sizes, Y, k):
    """The lockstep kernel raises what the reference raises; returns it."""
    offsets = BlockStructure(sizes).offsets
    with pytest.raises(RankDeficientSupportError) as ref:
        reference_bomp(E, offsets, Y, k, LS_TOL)
    with pytest.raises(RankDeficientSupportError) as got:
        _bomp_batch(E, offsets, Y, k, LS_TOL)
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


class TestLockstepAgreesWithReference:
    @pytest.mark.parametrize("n_signals", [0, 1, 37])
    @pytest.mark.parametrize("sizes", [(3,) * 12, (2, 3, 4) * 4], ids=["uniform", "mixed"])
    def test_random_instances(self, sizes, n_signals):
        rng = np.random.default_rng(len(sizes) + n_signals)
        structure = BlockStructure(sizes)
        E = unit_columns(rng.standard_normal((16, structure.num_columns)))
        Y = rng.standard_normal((16, n_signals))
        assert_agrees_with_reference(E, structure, Y, 3)

    @pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
    def test_sweep_workloads(self, name):
        cfg = ExperimentConfig(**SWEEP_CONFIGS[name], seed=31)
        rng = np.random.default_rng([cfg.seed, 0])
        D = generate_dictionary(cfg, rng)
        X, _ = generate_signals(D, cfg.k, cfg.L, rng)
        for designer, alpha in _grid(cfg):
            a_mat = _design(cfg, 0, D, designer, alpha)
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
        # re-check, not the final support, names where it failed
        bad = [
            E[:, 6:9] @ [2.0, 1.0, 1.0] + E[:, 12:15] @ [0.3, 0.2, 0.1],
            E[:, 12:15] @ [2.0, -1.5, 1.0] + E[:, 6:9] @ [0.3, 0.4, 0.2],
        ][step]
        err = assert_same_error(E, (3,) * 5, np.column_stack([good, bad]), 2)
        assert (err.support, err.signal) == (((2,), (4, 2))[step], 1)

    def test_lowest_failing_signal_wins_across_widths(self):
        # both signals fail at their second block; signal 0's final support
        # is 7 columns wide and signal 1's is 5, so signal 0 is solved later
        rng = np.random.default_rng(6)
        E = unit_columns(rng.standard_normal((12, 15)))
        E[:, 1] = E[:, 0]
        E[:, 5] = E[:, 4]
        wide = E[:, 6:9] @ [2.0, -1.5, 1.0] + E[:, 0:4] @ [0.3, 0.2, 0.1, 0.3]
        narrow = E[:, 12:15] @ [2.0, -1.5, 1.0] + E[:, 4:6] @ [0.4, 0.3]
        sizes = (4, 2, 3, 3, 3)
        assert assert_same_error(E, sizes, wide[:, None], 2).support == (2, 0)
        assert assert_same_error(E, sizes, narrow[:, None], 2).support == (4, 1)
        err = assert_same_error(E, sizes, np.column_stack([wide, narrow]), 2)
        assert (err.support, err.signal) == ((2, 0), 0)

    def test_more_columns_than_measurements(self):
        rng = np.random.default_rng(4)
        E = unit_columns(rng.standard_normal((5, 12)))
        # the third block brings 6 columns for 5 measurements; a fourth follows
        err = assert_same_error(E, (2,) * 6, rng.standard_normal((5, 3)), 4)
        assert (len(err.support), err.signal) == (3, 0)

    def test_block_wider_than_measurements(self):
        rng = np.random.default_rng(5)
        E = np.zeros((3, 8))
        E[:2, :4] = rng.standard_normal((2, 4))
        E[:, 4:] = rng.standard_normal((3, 4)) * [[0.1], [0.1], [1.0]]
        E = unit_columns(E)
        good = E[:, 0:2] @ [1.0, -1.0]
        bad = np.array([0.0, 0.0, 1.0])  # only the 4-column block reaches it
        err = assert_same_error(E, (2, 2, 4), np.column_stack([good, bad]), 1)
        assert (err.support, err.signal) == ((2,), 1)
