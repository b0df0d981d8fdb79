import numpy as np
import pytest

from blocksense import (
    BlockStructure,
    BompConfig,
    EquivalentDictionary,
    RankDeficientSupportError,
    block_recovery_bound,
    bomp_decode,
    bomp_decode_batch,
    gram,
    inter_block_coherence,
    sub_block_coherence,
)
from helpers import oracle_block_support, packed_equivalent, random_orthonormal


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
