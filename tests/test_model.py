import numpy as np
import pytest

from blocksense import (
    BlockGram,
    BlockSparseVector,
    BlockStructure,
    Dictionary,
    EquivalentDictionary,
    SensingMatrix,
    block_recovery_bound,
    equivalent_dictionary,
    gram,
)
from blocksense.harness import dct_matrix
from blocksense.model import _block_rows
from helpers import (
    random_dictionary,
    reference_block_rows,
    reference_whitening,
    unit_columns,
)


class TestBlockStructure:
    def test_derived_fields(self):
        s = BlockStructure((2, 3, 1))
        assert s.num_blocks == 3
        assert s.num_columns == 6
        assert s.offsets.tolist() == [0, 2, 5, 6]
        assert s.labels.tolist() == [0, 0, 1, 1, 1, 2]
        assert s.block_slice(1) == slice(2, 5)
        # each block's columns, padded to the widest block with K = 6
        assert s.columns.tolist() == [[0, 1, 6], [2, 3, 4], [5, 6, 6]]
        assert s.padding.tolist() == [
            [False, False, True], [False, False, False], [False, True, True]
        ]
        for arr in (s.offsets, s.labels, s.columns, s.padding):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("sizes", [(3,) * 4, (2, 3, 4, 3) * 2, (5,), (1,) * 3, (2, 3, 1)])
    def test_diagonal_indexes_select_the_mask_slots(self, sizes):
        s = BlockStructure(sizes)
        s_max = max(sizes)
        # flat positions in a (blocks, s_max, s_max) array of padded blocks
        slots = np.arange(s.num_blocks * s_max * s_max).reshape(s.num_blocks, s_max, s_max)
        eye = np.eye(s_max, dtype=bool)
        assert s.diagonal.tolist() == slots[:, eye][~s.padding].tolist()
        assert s.off_diagonal.tolist() == slots[0][~eye].tolist()
        assert len(s.diagonal) == s.num_columns
        for arr in (s.diagonal, s.off_diagonal):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_uniform_size(self):
        assert BlockStructure((3, 3, 3)).uniform_size == 3
        assert BlockStructure((3, 2)).uniform_size is None

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BlockStructure(())
        with pytest.raises(ValueError):
            BlockStructure((2, 0, 1))

    def test_hashable_and_comparable(self):
        assert BlockStructure((2, 2)) == BlockStructure((2, 2))
        assert hash(BlockStructure((2, 2))) == hash(BlockStructure((2, 2)))


class TestDictionary:
    def test_rejects_tall_matrix(self):
        with pytest.raises(ValueError, match="N <= K"):
            Dictionary(np.ones((5, 3)), BlockStructure((3,)))

    def test_rejects_structure_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            Dictionary(np.eye(4), BlockStructure((2, 3)))

    def test_rejects_rank_deficient(self):
        mat = np.ones((3, 6))  # rank 1
        with pytest.raises(ValueError, match="rank"):
            Dictionary(mat, BlockStructure((3, 3)))

    def test_accepts_identity(self):
        d = Dictionary(np.eye(4), BlockStructure((2, 2)))
        assert d.signal_dim == 4
        assert d.num_atoms == 4

    def test_matrix_is_readonly(self):
        d = random_dictionary(np.random.default_rng(0), 4, (2, 2, 2))
        with pytest.raises(ValueError):
            d.matrix[0, 0] = 1.0

    def test_whitening_frame(self):
        d = random_dictionary(np.random.default_rng(1), 6, (3, 4, 2, 3))
        w = d.whitening
        np.testing.assert_allclose(w @ d.matrix @ d.matrix.T @ w.T, np.eye(6), rtol=0, atol=1e-10)
        with pytest.raises(ValueError):
            w[0, 0] = 1.0

    @pytest.mark.parametrize("sizes", [(3,) * 40, (2, 3, 4, 3) * 10, (2, 3, 4) * 14])
    def test_whitening_equals_the_symmetrized_eigensolve(self, sizes):
        # D D' comes out of numpy exactly symmetric, so eigendecomposing it
        # as it is gives the frame of the symmetrized solve bit for bit
        rng = np.random.default_rng(2)
        for n in (12, 60):
            d = random_dictionary(rng, n, sizes)
            expected = reference_whitening(d.matrix)
            np.testing.assert_array_equal(d.whitening, expected)
            assert d.whitening.strides == expected.strides

    def test_rejects_overflowing_gram(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            Dictionary(np.full((2, 4), 1e200), BlockStructure((2, 2)))


class TestBlockRows:
    @pytest.mark.parametrize("sizes", [(3,) * 8, (2, 3, 4, 3) * 2, (1, 5, 1)])
    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_matches_blockwise_reference(self, sizes, m):
        x = np.random.default_rng(3).standard_normal((m, sum(sizes)))
        rows = _block_rows(x, BlockStructure(sizes))
        np.testing.assert_array_equal(rows, reference_block_rows(x, BlockStructure(sizes)))
        assert rows.flags.c_contiguous


class TestSensingMatrix:
    def test_rejects_square_or_tall(self):
        with pytest.raises(ValueError, match="M < N"):
            SensingMatrix(np.eye(4))

    def test_shape_properties(self):
        a = SensingMatrix(np.zeros((2, 5)))
        assert a.num_measurements == 2
        assert a.signal_dim == 5


class TestEquivalentDictionary:
    def test_identity_sensing_returns_dictionary(self):
        # The M < N type constraint excludes the identity, so it is passed raw.
        d = random_dictionary(np.random.default_rng(1), 5, (2, 3))
        e = equivalent_dictionary(np.eye(5), d)
        np.testing.assert_array_equal(e.matrix, d.matrix)

    def test_zero_sensing(self):
        d = random_dictionary(np.random.default_rng(2), 5, (2, 3))
        e = equivalent_dictionary(SensingMatrix(np.zeros((3, 5))), d)
        assert np.all(e.matrix == 0.0)

    def test_matches_triple_loop_product(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 6))
        d = random_dictionary(rng, 6, (4, 4))
        e = equivalent_dictionary(a, d)
        expected = np.zeros((4, 8))
        for i in range(4):
            for j in range(8):
                for m in range(6):
                    expected[i, j] += a[i, m] * d.matrix[m, j]
        np.testing.assert_allclose(e.matrix, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        d = random_dictionary(np.random.default_rng(4), 5, (5,))
        with pytest.raises(ValueError):
            equivalent_dictionary(np.zeros((3, 4)), d)


class TestGram:
    def test_orthonormal_columns_give_identity(self):
        d = Dictionary(np.eye(4), BlockStructure((2, 2)))
        g = gram(equivalent_dictionary(np.eye(4), d))
        np.testing.assert_allclose(g.matrix, np.eye(4), atol=1e-14)

    def test_scaled_column_pair_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        col = rng.standard_normal(6)
        e = EquivalentDictionary(np.column_stack([col, 2.0 * col]), BlockStructure((1, 1)))
        g = gram(e)
        direct = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for m in range(6):
                    direct[i, j] += e.matrix[m, i] * e.matrix[m, j]
        np.testing.assert_allclose(g.matrix, direct, rtol=1e-12)

    def test_gram_is_symmetric_psd_for_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = random_dictionary(rng, 6, (2, 3, 1, 2))
            g = gram(equivalent_dictionary(rng.standard_normal((4, 6)), d))
            w = np.linalg.eigvalsh(g.matrix)
            assert w[0] >= -1e-10 * np.linalg.norm(g.matrix)
            np.testing.assert_allclose(g.matrix, g.matrix.T, atol=1e-12)


class TestBlockSparseVector:
    def test_rejects_leakage_outside_support(self):
        with pytest.raises(ValueError, match="outside"):
            BlockSparseVector(np.ones(4), BlockStructure((2, 2)), support=(0,))

    def test_support_keeps_declared_blocks(self):
        # the support is stored sorted, and keeps a declared block that is all zero
        vec = BlockSparseVector(
            np.array([1.0, 0.0, 0.0, 0.0]), BlockStructure((2, 2)), support=(1, 0)
        )
        assert vec.support == (0, 1)

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            BlockSparseVector(np.zeros(4), BlockStructure((2, 2)), support=(2,))
        with pytest.raises(ValueError, match="duplicate"):
            BlockSparseVector(np.zeros(4), BlockStructure((2, 2)), support=(0, 0))


class TestInputChecks:
    @pytest.mark.parametrize(
        "make, error, match",
        [
            (lambda: EquivalentDictionary(np.ones(4), BlockStructure((2, 2))), ValueError, "2-D"),
            (
                lambda: EquivalentDictionary([[1.0, np.inf]], BlockStructure((2,))),
                ValueError,
                "non-finite",
            ),
            (
                lambda: EquivalentDictionary(np.ones((2, 3)), BlockStructure((2, 2))),
                ValueError,
                "3 columns",
            ),
            (lambda: BlockStructure((2, 3)).block_slice(2), IndexError, "out of range"),
            (lambda: BlockGram(np.eye(3), BlockStructure((2, 2))), ValueError, "4 x 4"),
            (
                lambda: BlockGram(np.triu(np.ones((4, 4))), BlockStructure((2, 2))),
                ValueError,
                "not symmetric",
            ),
            (lambda: BlockGram(-np.eye(4), BlockStructure((2, 2))), ValueError, "not PSD"),
            (
                lambda: BlockSparseVector(np.zeros(3), BlockStructure((2, 2)), (0,)),
                ValueError,
                "length-4",
            ),
        ],
        ids=[
            "matrix-1d", "matrix-nonfinite", "matrix-columns", "block-index", "gram-shape",
            "gram-asymmetric", "gram-not-psd", "vector-length",
        ],
    )
    def test_rejects(self, make, error, match):
        with pytest.raises(error, match=match):
            make()

    @pytest.mark.parametrize("bad", [2.5, True, "3"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize(
        "call, key",
        [
            (lambda size: BlockStructure((2, size)).sizes, "sizes"),
            (lambda size: dct_matrix(size).shape, "K"),
            (lambda size: block_recovery_bound(0.1, 0.05, size), "s"),
        ],
        ids=["block_structure", "dct_matrix", "block_recovery_bound"],
    )
    def test_rejects_a_non_integer_size(self, call, key, bad):
        # a size is read as the sweep config reads it, never truncated
        with pytest.raises(ValueError, match=f"{key} must hold int values"):
            call(bad)
        assert call(np.int64(3)) == call(3)
