import json

import numpy as np
import pytest

from blocksense import (
    BlockGram,
    BlockStructure,
    EquivalentDictionary,
    block_recovery_bound,
    coherence_report,
    decomposition_check,
    deviation,
    inter_block_coherence,
    objective_gradient,
    objective_lower_bound,
    sparse_recovery_bound,
    sub_block_coherence,
    total_inter_block_coherence,
    total_sub_block_coherence,
    weighted_objective,
)
from blocksense import coherence, model
from blocksense.coherence import _block_terms, _equivalent_terms, _gram_parts
from helpers import (
    numerical_gradient,
    random_dictionary,
    reference_block_terms,
    reference_gradient,
    reference_masks,
    unit_columns,
)


def random_gram(rng, sizes, m=None):
    structure = BlockStructure(sizes)
    k = structure.num_columns
    m = m or max(2, k // 2)
    e = rng.standard_normal((m, k))
    g = e.T @ e
    return BlockGram((g + g.T) / 2, structure)


def mu_from_gram(mat: np.ndarray) -> float:
    """The largest |G_ij| / (||e_i|| ||e_j||) over i != j, from G = E'E
    formed here, symmetrized, and the column norms of E."""
    g = mat.T @ mat
    g = (g + g.T) / 2.0
    norms = np.linalg.norm(mat, axis=0)
    c = np.abs(g) / np.outer(norms, norms)
    np.fill_diagonal(c, 0.0)
    return float(c.max())


class TestMutualCoherence:
    """``coherence_report``'s mu: the largest normalized inner product of two
    distinct columns of E."""

    def test_orthogonal_columns(self):
        assert coherence_report(EquivalentDictionary(np.eye(4), BlockStructure((2, 2)))).mu == 0.0

    def test_identical_columns(self):
        col = np.array([1.0, 2.0, 3.0])
        e = EquivalentDictionary(np.column_stack([col, col]), BlockStructure((1, 1)))
        assert coherence_report(e).mu == pytest.approx(1.0)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((5, 8))
        best = 0.0
        for i in range(8):
            for j in range(8):
                if i == j:
                    continue
                num = abs(e[:, i] @ e[:, j])
                den = np.linalg.norm(e[:, i]) * np.linalg.norm(e[:, j])
                best = max(best, num / den)
        for sizes in ((2, 2, 2, 2), (3, 5)):
            mu = coherence_report(EquivalentDictionary(e, BlockStructure(sizes))).mu
            assert mu == pytest.approx(best, rel=1e-12)
            assert mu == mu_from_gram(e)

    def test_zero_column_raises(self):
        e = np.eye(3)
        e[:, 1] = 0.0
        with pytest.raises(ValueError, match="zero column"):
            coherence_report(EquivalentDictionary(e, BlockStructure((1, 2))))

    @pytest.mark.parametrize("sizes", [(1,)], ids=["one-column"])
    def test_needs_two_columns(self, sizes):
        e = EquivalentDictionary(np.ones((3, 1)), BlockStructure(sizes))
        with pytest.raises(ValueError, match="at least two columns"):
            coherence_report(e)


class TestInterBlockCoherence:
    def test_block_diagonal_is_zero(self):
        g = BlockGram(np.eye(6), BlockStructure((3, 3)))
        assert inter_block_coherence(g) == 0.0

    def test_scaled_identity_cross_block(self):
        mat = np.eye(4)
        mat[0:2, 2:4] = 0.3 * np.eye(2)
        mat[2:4, 0:2] = 0.3 * np.eye(2)
        g = BlockGram(mat, BlockStructure((2, 2)))
        assert inter_block_coherence(g) == pytest.approx(0.3 / 2)

    @pytest.mark.parametrize(
        "sizes",
        [(3,) * 4, (2,) * 9, (1,) * 5, (4,) * 30],
        ids=["s3-nb4", "s2-nb9", "s1-nb5", "s4-nb30"],
    )
    def test_matches_svd_oracle(self, sizes):
        rng = np.random.default_rng(1)
        g = random_gram(rng, sizes)
        s, nb = sizes[0], len(sizes)
        best = 0.0
        for i in range(nb):
            for j in range(nb):
                if i == j:
                    continue
                blk = g.matrix[s * i : s * i + s, s * j : s * j + s]
                best = max(best, np.linalg.svd(blk, compute_uv=False)[0] / s)
        assert inter_block_coherence(g) == pytest.approx(best, rel=1e-12)

    def test_mixed_sizes_refused(self):
        g = random_gram(np.random.default_rng(2), (2, 3))
        with pytest.raises(ValueError, match="equal block sizes"):
            inter_block_coherence(g)

    def test_single_block_refused(self):
        g = random_gram(np.random.default_rng(3), (4,))
        with pytest.raises(ValueError, match="two blocks"):
            inter_block_coherence(g)


class TestSubBlockCoherence:
    def test_orthonormal_blocks(self):
        g = BlockGram(np.eye(6), BlockStructure((3, 3)))
        assert sub_block_coherence(g) == 0.0

    def test_unit_blocks_are_degenerate(self):
        g = random_gram(np.random.default_rng(4), (1, 1, 1, 1))
        assert sub_block_coherence(g) == 0.0

    @pytest.mark.parametrize("sizes", [(2, 4, 3), (1, 3, 1, 2)], ids=["2-4-3", "1-3-1-2"])
    def test_matches_scan_oracle(self, sizes):
        rng = np.random.default_rng(5)
        g = random_gram(rng, sizes)
        best = 0.0
        for j, (lo, hi) in enumerate(zip(g.structure.offsets[:-1], g.structure.offsets[1:])):
            for m in range(lo, hi):
                for n in range(lo, hi):
                    if m != n:
                        best = max(best, abs(g.matrix[m, n]))
        assert sub_block_coherence(g) == pytest.approx(best, rel=1e-12)


class TestTotals:
    def test_block_diagonal_total_inter_zero(self):
        g = BlockGram(np.eye(6), BlockStructure((2, 2, 2)))
        assert total_inter_block_coherence(g) == 0.0

    def test_total_inter_worked_example(self):
        # blocks (2, 2); cross block entries 0.2, 0.1, 0.3, 0.4 mirrored
        mat = np.eye(4)
        mat[0:2, 2:4] = [[0.2, 0.1], [0.3, 0.4]]
        mat[2:4, 0:2] = mat[0:2, 2:4].T
        g = BlockGram(mat, BlockStructure((2, 2)), validate=False)
        assert total_inter_block_coherence(g) == pytest.approx(0.60, abs=1e-12)

    def test_total_inter_block_permutation_invariant(self):
        rng = np.random.default_rng(6)
        sizes = (2, 3, 2)
        g = random_gram(rng, sizes)
        # relabel blocks in order (2, 0, 1)
        order = [2, 0, 1]
        cols = np.concatenate([np.arange(*g.structure.offsets[[j, j + 1]]) for j in order])
        permuted = BlockGram(
            g.matrix[np.ix_(cols, cols)], BlockStructure(tuple(sizes[j] for j in order))
        )
        assert total_inter_block_coherence(permuted) == pytest.approx(
            total_inter_block_coherence(g), rel=1e-12
        )
        assert total_sub_block_coherence(permuted) == pytest.approx(
            total_sub_block_coherence(g), rel=1e-12
        )
        assert np.sum(deviation(permuted, "norm") ** 2) == pytest.approx(
            np.sum(deviation(g, "norm") ** 2), rel=1e-12
        )

    def test_total_sub_identity_zero(self):
        assert total_sub_block_coherence(BlockGram(np.eye(4), BlockStructure((2, 2)))) == 0.0

    def test_total_sub_worked_example(self):
        # within-block off-diagonals 0.5 and 0.6
        mat = np.eye(4)
        mat[0, 1] = mat[1, 0] = 0.5
        mat[2, 3] = mat[3, 2] = 0.6
        g = BlockGram(mat, BlockStructure((2, 2)), validate=False)
        assert total_sub_block_coherence(g) == pytest.approx(1.22, abs=1e-12)

    def test_total_sub_unit_blocks_zero(self):
        g = random_gram(np.random.default_rng(7), (1,) * 5)
        assert total_sub_block_coherence(g) == 0.0

    def test_norm_penalty_examples(self):
        # the report reads the penalty from E, whose Gram matrix is E'E
        structure = BlockStructure((5,))
        assert coherence_report(EquivalentDictionary(np.eye(5), structure)).norm_penalty == 0.0
        e = EquivalentDictionary(np.sqrt(2.0) * np.eye(5), structure)
        assert coherence_report(e).norm_penalty == pytest.approx(5.0, abs=1e-12)

    def test_norm_penalty_matches_scan(self):
        rng = np.random.default_rng(8)
        e = EquivalentDictionary(rng.standard_normal((3, 5)), BlockStructure((3, 2)))
        g = e.matrix.T @ e.matrix
        expected = sum((g[m, m] - 1.0) ** 2 for m in range(5))
        assert coherence_report(e).norm_penalty == pytest.approx(expected, rel=1e-12)


class TestWeightedObjective:
    def test_identity_is_zero(self):
        g = BlockGram(np.eye(6), BlockStructure((3, 3)))
        for alpha in (0.1, 0.5, 0.9):
            assert weighted_objective(g, alpha) == 0.0

    def test_half_alpha_is_half_gram_mismatch(self):
        g = random_gram(np.random.default_rng(9), (2, 3, 1))
        expected = 0.5 * np.sum((g.matrix - np.eye(6)) ** 2)
        assert weighted_objective(g, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_composition_of_totals(self):
        g = random_gram(np.random.default_rng(10), (3, 3))
        expected = (
            0.5 * np.sum((np.diagonal(g.matrix) - 1.0) ** 2)
            + 0.7 * total_inter_block_coherence(g)
            + 0.3 * total_sub_block_coherence(g)
        )
        assert weighted_objective(g, 0.3) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_out_of_range(self, alpha):
        g = BlockGram(np.eye(4), BlockStructure((2, 2)))
        with pytest.raises(ValueError):
            weighted_objective(g, alpha)


class TestDecompositionCheck:
    def test_orthonormal_columns_both_zero(self):
        e = EquivalentDictionary(np.eye(4), BlockStructure((2, 2)))
        lhs, rhs = decomposition_check(e)
        assert lhs == 0.0 and rhs == 0.0

    def test_random_equality(self):
        rng = np.random.default_rng(11)
        e = EquivalentDictionary(rng.standard_normal((6, 12)), BlockStructure((3, 3, 3, 3)))
        lhs, rhs = decomposition_check(e)
        assert abs(lhs - rhs) <= 1e-9 * (1 + lhs)

    def test_sides_computed_independently(self):
        rng = np.random.default_rng(12)
        e_mat = rng.standard_normal((5, 9))
        e = EquivalentDictionary(e_mat, BlockStructure((2, 3, 4)))
        lhs, rhs = decomposition_check(e)
        oracle = np.sum((e_mat.T @ e_mat - np.eye(9)) ** 2)
        assert lhs == pytest.approx(oracle, rel=1e-12)
        assert rhs == pytest.approx(oracle, rel=1e-9)


class TestBlockTerms:
    @pytest.mark.parametrize("sizes", [(3,) * 40, (2, 3, 4, 3) * 10, (6,), (1,) * 12])
    def test_equals_the_mask_reference(self, sizes):
        # 4 x 60 draws; f's rounding steers the designers, so every total
        # must keep the bits of the boolean-mask gathers
        structure = BlockStructure(sizes)
        rng = np.random.default_rng(len(sizes))
        for _ in range(60):
            m = int(rng.integers(1, 21))
            scale = rng.uniform(0.5, 1.5, structure.num_columns)
            e = unit_columns(rng.standard_normal((m, structure.num_columns))) * scale
            eet, rows, blocks = _gram_parts(e, structure)
            terms = _block_terms(eet, blocks, structure)
            assert terms == reference_block_terms(eet, blocks, structure)
            np.testing.assert_array_equal(eet, e @ e.T)
            np.testing.assert_array_equal(blocks, rows @ rows.transpose(0, 2, 1))


class TestBounds:
    def test_sparse_bound_values(self):
        assert sparse_recovery_bound(1.0) == pytest.approx(1.0)
        assert sparse_recovery_bound(1.0 / 3.0) == pytest.approx(2.0)
        assert sparse_recovery_bound(0.2) == pytest.approx(3.0)

    def test_sparse_bound_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sparse_recovery_bound(0.0)

    def test_block_bound_reduces_to_sparse_at_unit_size(self):
        rng = np.random.default_rng(13)
        for mu in rng.uniform(0.01, 1.0, size=20):
            assert block_recovery_bound(mu, 0.37, 1) == pytest.approx(
                sparse_recovery_bound(mu), abs=1e-12
            )

    def test_block_bound_worked_example(self):
        assert block_recovery_bound(0.25, 0.0, 2) == pytest.approx(1.5)

    def test_block_bound_matches_formula(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            mu_b = rng.uniform(0.05, 0.9)
            nu = rng.uniform(0.0, 0.5)
            s = int(rng.integers(1, 6))
            expected = (1.0 / (2 * s)) * (1.0 / mu_b + s - (s - 1) * nu / mu_b)
            assert block_recovery_bound(mu_b, nu, s) == pytest.approx(expected, rel=1e-12)

    def test_block_bound_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            block_recovery_bound(0.0, 0.1, 3)

    def test_block_bound_rejects_empty_blocks(self):
        with pytest.raises(ValueError, match="block size must be >= 1"):
            block_recovery_bound(0.25, 0.1, 0)

    @pytest.mark.parametrize("bad", ["0.5", True], ids=["str", "bool"])
    @pytest.mark.parametrize(
        "call, key",
        [
            (sparse_recovery_bound, "mu"),
            (lambda x: block_recovery_bound(x, 0.05, 2), "mu_block"),
            (lambda x: block_recovery_bound(0.1, x, 2), "nu_sub"),
        ],
        ids=["mu", "mu_block", "nu_sub"],
    )
    def test_rejects_a_non_float_coherence(self, call, key, bad):
        # a coherence is read as alpha is, never converted from a string or bool
        with pytest.raises(ValueError, match=f"{key} must hold float values"):
            call(bad)
        assert call(np.float64(0.5)) == call(0.5)

    def test_objective_lower_bound_holds_for_every_e(self):
        # gaussian E at random scales, and scaled E with orthonormal rows,
        # whose Gram c * P sits close to the bound
        rng = np.random.default_rng(15)
        for i in range(1200):
            sizes = tuple(int(v) for v in rng.integers(1, 6, size=rng.integers(2, 9)))
            k = sum(sizes)
            m = int(rng.integers(1, k + 1))
            alpha = 0.5 if i % 10 == 0 else float(rng.uniform(0.5, 1.0))
            e = rng.standard_normal((m, k))
            if i % 2:
                e = np.linalg.qr(e.T)[0].T * np.sqrt(rng.uniform(0.2, 5.0))
            else:
                e *= rng.uniform(0.01, 2.0)
            f = _equivalent_terms(e, BlockStructure(sizes)).objective(alpha)
            assert f >= objective_lower_bound(k, m, alpha) * (1.0 - 1e-12)

    def test_mirrored_lower_bound_holds_below_half(self):
        # lowering the inter-block weight from 1 - alpha to alpha leaves the
        # uniform problem that the bound at 1 - alpha covers
        rng = np.random.default_rng(16)
        for i in range(600):
            sizes = tuple(int(v) for v in rng.integers(1, 6, size=rng.integers(2, 9)))
            k = sum(sizes)
            m = int(rng.integers(1, k + 1))
            alpha = float(rng.uniform(0.0, 0.5)) or 0.25
            e = rng.standard_normal((m, k))
            if i % 2:
                e = np.linalg.qr(e.T)[0].T * np.sqrt(rng.uniform(0.2, 5.0))
            else:
                e *= rng.uniform(0.01, 2.0)
            f = _equivalent_terms(e, BlockStructure(sizes)).objective(alpha)
            assert f >= objective_lower_bound(k, m, 1.0 - alpha) * (1.0 - 1e-12)

    def test_objective_lower_bound_is_attained(self):
        # G = c P with P = [[I, I], [I, I]] / 2, a rank-M projector whose
        # diagonal blocks are rho * I with rho = 1/2
        m = 6
        for alpha in (0.5, 0.6, 0.9, 0.99):
            c = 1.0 / (0.5 + 2.0 * (1.0 - alpha) * 0.5)
            e = np.sqrt(c / 2.0) * np.hstack((np.eye(m), np.eye(m)))
            for sizes in ((3,) * 4, (2, 1, 3, 2, 4)):
                f = _equivalent_terms(e, BlockStructure(sizes)).objective(alpha)
                assert f == pytest.approx(objective_lower_bound(2 * m, m, alpha), rel=1e-13)
        assert objective_lower_bound(120, 14, 0.5) == pytest.approx(53.0, rel=1e-15)

    def test_objective_lower_bound_rejects_low_alpha(self):
        for alpha in (0.3, 0.4999, 0.0, 1.0):
            with pytest.raises(ValueError, match="alpha"):
                objective_lower_bound(120, 14, alpha)
        with pytest.raises(ValueError, match="M"):
            objective_lower_bound(12, 13, 0.9)


class TestMasks:
    def test_identity_has_zero_deviations(self):
        g = BlockGram(np.eye(6), BlockStructure((3, 3)))
        for kind in ("norm", "inter", "sub"):
            assert np.all(deviation(g, kind) == 0.0)

    def test_objective_from_masks(self):
        g = random_gram(np.random.default_rng(15), (2, 3, 2))
        alpha = 0.35
        from_masks = (
            0.5 * np.sum(deviation(g, "norm") ** 2)
            + (1 - alpha) * np.sum(deviation(g, "inter") ** 2)
            + alpha * np.sum(deviation(g, "sub") ** 2)
        )
        assert weighted_objective(g, alpha) == pytest.approx(from_masks, rel=1e-12)

    def test_supports_disjoint_and_tile(self):
        g = random_gram(np.random.default_rng(16), (2, 1, 3))
        supports = [deviation(g, kind) != 0 for kind in ("norm", "inter", "sub")]
        overlap = supports[0] & supports[1] | supports[0] & supports[2] | supports[1] & supports[2]
        assert not overlap.any()
        # deviations sum to G - I
        total = sum(deviation(g, kind) for kind in ("norm", "inter", "sub"))
        np.testing.assert_allclose(total, g.matrix - np.eye(6), atol=1e-14)

    def test_deviation_complements_idealized(self):
        # G - deviation(G, kind) is G with the entries of that kind at their
        # ideal value: ones on the diagonal for "norm", zeros otherwise
        g = random_gram(np.random.default_rng(17), (3, 2))
        labels = g.structure.labels
        same_block = labels[:, None] == labels[None, :]
        eye = np.eye(g.matrix.shape[0], dtype=bool)
        masks = {"norm": eye, "inter": ~same_block, "sub": same_block & ~eye}
        for kind, mask in masks.items():
            h = g.matrix - deviation(g, kind)
            np.testing.assert_allclose(h[mask], eye[mask], atol=1e-14)
            np.testing.assert_array_equal(h[~mask], g.matrix[~mask])

    def test_idealized_preserves_symmetry(self):
        g = random_gram(np.random.default_rng(18), (2, 2, 2))
        for kind in ("norm", "inter", "sub"):
            h = g.matrix - deviation(g, kind)
            np.testing.assert_allclose(h, h.T, atol=1e-14)

    def test_sub_masks_vanish_for_unit_blocks(self):
        g = random_gram(np.random.default_rng(19), (1, 1, 1))
        assert np.all(deviation(g, "sub") == 0.0)

    def test_unknown_kind(self):
        g = random_gram(np.random.default_rng(20), (2, 2))
        with pytest.raises(ValueError, match="unknown mask kind 'bogus'"):
            deviation(g, "bogus")


class TestMaskReference:
    """Every K x K quantity from G's three deviations equals its boolean-mask
    form: the gradient, the deviations and nu_sub bit for bit, the totals and
    f to rounding."""

    @staticmethod
    def random_symmetric(rng, k):
        g = rng.standard_normal((k, k))
        g[rng.random((k, k)) < 0.2] = 0.0  # exact zeros, some on the diagonal
        return np.triu(g) + np.triu(g, 1).T

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.5, 0.7, 0.99])
    def test_matches_the_mask_forms(self, alpha):
        rng = np.random.default_rng(round(100 * alpha))
        for sizes in [(2, 3, 1, 4), (1,) * 6, (3, 3, 3), (4, 1, 2, 1), (5,)]:
            structure = BlockStructure(sizes)
            k = structure.num_columns
            masks = reference_masks(structure)
            for _ in range(4):
                g_mat = self.random_symmetric(rng, k)
                g = BlockGram(g_mat, structure, validate=False)
                grad = objective_gradient(g, alpha)
                assert grad.tobytes() == reference_gradient(g_mat, structure, alpha).tobytes()
                for kind, mask in masks.items():
                    reference = np.where(mask, g_mat - np.eye(k), 0.0)
                    assert deviation(g, kind).tobytes() == reference.tobytes()
                within = np.abs(g_mat[masks["sub"]])
                assert sub_block_coherence(g) == (float(within.max()) if within.size else 0.0)
                inter = float(np.sum(g_mat[masks["inter"]] ** 2))
                sub = float(np.sum(g_mat[masks["sub"]] ** 2))
                norm = float(np.sum((np.diagonal(g_mat) - 1.0) ** 2))
                f = 0.5 * norm + (1.0 - alpha) * inter + alpha * sub
                for got, want in [(total_inter_block_coherence(g), inter),
                                  (total_sub_block_coherence(g), sub),
                                  (weighted_objective(g, alpha), f)]:
                    assert abs(got - want) <= 1e-14 * abs(want)


class TestObjectiveGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        structure = BlockStructure((2, 3, 1))
        g_mat = rng.standard_normal((6, 6))
        g_mat = (g_mat + g_mat.T) / 2
        alpha = 0.3
        grad = objective_gradient(BlockGram(g_mat, structure, validate=False), alpha)
        fd = numerical_gradient(
            lambda m: weighted_objective(BlockGram(m, structure, validate=False), alpha), g_mat
        )
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)


class TestCoherenceReport:
    def test_json_field_names(self):
        rng = np.random.default_rng(22)
        d = random_dictionary(rng, 6, (3, 3, 3))
        e = EquivalentDictionary(rng.standard_normal((4, 9)), d.structure)
        report = coherence_report(e, alpha=0.7)
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "mu",
            "mu_block",
            "nu_sub",
            "total_inter",
            "total_sub",
            "norm_penalty",
        }
        assert payload["mu_block"] == report.mu_block
        # mu_block is defined only for a common block size
        mixed = EquivalentDictionary(rng.standard_normal((4, 9)), BlockStructure((2, 3, 4)))
        assert json.loads(coherence_report(mixed).to_json())["mu_block"] is None
        assert report.objective_alpha == pytest.approx(
            0.5 * report.norm_penalty + 0.3 * report.total_inter + 0.7 * report.total_sub,
            rel=1e-12,
        )

    def test_mixed_sizes_mu_block_is_none(self):
        rng = np.random.default_rng(23)
        e = EquivalentDictionary(rng.standard_normal((4, 7)), BlockStructure((3, 4)))
        report = coherence_report(e)
        assert report.mu_block is None
        assert report.objective_alpha is None

    @pytest.mark.parametrize("sizes", [(3, 3, 3), (3, 4, 2)], ids=["uniform", "mixed"])
    def test_forms_the_gram_matrix_once(self, monkeypatch, sizes):
        # mu is read from the report's one E'E, with the bits of E'E formed here
        rng = np.random.default_rng(25)
        e = EquivalentDictionary(rng.standard_normal((4, 9)), BlockStructure(sizes))
        calls = []
        gram_matrix = model._gram_matrix

        def counted(mat):
            calls.append(mat.shape)
            return gram_matrix(mat)

        # coherence_report takes its E'E from model.gram
        monkeypatch.setattr(model, "_gram_matrix", counted)
        report = coherence_report(e)
        assert calls == [(4, 9)]
        assert report.mu == mu_from_gram(e.matrix)

    def test_unit_block_sizes_have_zero_total_sub(self):
        rng = np.random.default_rng(24)
        e = EquivalentDictionary(
            unit_columns(rng.standard_normal((4, 6))), BlockStructure((1,) * 6)
        )
        report = coherence_report(e)
        assert report.total_sub == 0.0
        assert report.mu <= 1.0
