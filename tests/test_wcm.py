import logging

import numpy as np
import pytest

import blocksense.wcm
from blocksense import (
    BlockGram,
    BlockStructure,
    ExperimentConfig,
    SensingMatrix,
    WcmConfig,
    design_ds,
    deviation,
    ds_objective,
    equivalent_dictionary,
    generate_dictionary,
    gram,
    idealized,
    objective_gradient,
    run_wcm,
    surrogate_gradient,
    surrogate_target,
    surrogate_value,
    weighted_objective,
    wcm_step,
)
from helpers import numerical_gradient, random_dictionary, random_orthonormal


def random_sym_gram(rng, sizes):
    structure = BlockStructure(sizes)
    k = structure.num_columns
    m = rng.standard_normal((k, k))
    return BlockGram((m + m.T) / 2, structure, validate=False)


def gram_of(a_mat, d):
    e = a_mat @ d.matrix
    g = e.T @ e
    return BlockGram((g + g.T) / 2, d.structure, validate=False)


def c05_dictionary():
    """The gaussian dictionary of acceptance criterion 05."""
    cfg = ExperimentConfig(
        dict_family="gaussian", N=60, K=120, M=14, block_sizes=3, k=2,
        L=1, trials=1, designers=("ds",), seed=105,
    )
    return generate_dictionary(cfg, np.random.default_rng(105))


class TestSurrogateTarget:
    def test_identity_is_fixed(self):
        g = BlockGram(np.eye(6), BlockStructure((3, 3)))
        for alpha in (0.1, 0.5, 0.9):
            np.testing.assert_allclose(surrogate_target(g, alpha), np.eye(6), atol=1e-14)

    def test_half_alpha_closed_form(self):
        g = random_sym_gram(np.random.default_rng(0), (2, 3, 1))
        expected = (2.0 * g.matrix + np.eye(6)) / 3.0
        np.testing.assert_allclose(surrogate_target(g, 0.5), expected, atol=1e-12)

    def test_matches_mask_composition(self):
        rng = np.random.default_rng(1)
        for sizes in ((3, 3), (2, 3, 1, 4)):
            g = random_sym_gram(rng, sizes)
            for alpha in (0.9, 0.01, 0.5, 0.99):
                expected = (2.0 / 3.0) * (
                    0.5 * idealized(g, "norm")
                    + (1 - alpha) * idealized(g, "inter")
                    + alpha * idealized(g, "sub")
                )
                np.testing.assert_allclose(surrogate_target(g, alpha), expected, atol=1e-13)

    def test_symmetric_output(self):
        g = random_sym_gram(np.random.default_rng(2), (2, 2, 2))
        h = surrogate_target(g, 0.7)
        assert np.linalg.norm(h - h.T) == 0.0


class TestSurrogateValue:
    def test_anchored_at_itself_equals_objective(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_sym_gram(rng, (2, 3, 2))
            for alpha in (0.01, 0.5, 0.99):
                f = weighted_objective(g, alpha)
                assert surrogate_value(g, g, alpha) == pytest.approx(f, rel=1e-12, abs=1e-12)

    def test_upper_bounds_objective(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            g = random_sym_gram(rng, (3, 2, 2))
            g_prev = random_sym_gram(rng, (3, 2, 2))
            for alpha in (0.2, 0.8):
                assert surrogate_value(g, g_prev, alpha) >= weighted_objective(g, alpha) - 1e-12

    def test_gradient_matches_objective_at_anchor(self):
        rng = np.random.default_rng(5)
        g = random_sym_gram(rng, (2, 2, 3))
        alpha = 0.3
        np.testing.assert_allclose(
            surrogate_gradient(g, g, alpha), objective_gradient(g, alpha), atol=1e-13
        )
        fd = numerical_gradient(
            lambda m: weighted_objective(BlockGram(m, g.structure, validate=False), alpha),
            g.matrix,
        )
        np.testing.assert_allclose(surrogate_gradient(g, g, alpha), fd, rtol=1e-5, atol=1e-8)

    def test_matches_mask_distances_away_from_anchor(self):
        rng = np.random.default_rng(22)
        for sizes in ((2, 3, 2), (1, 4, 3)):
            for _ in range(5):
                g = random_sym_gram(rng, sizes)
                g_prev = random_sym_gram(rng, sizes)
                for alpha in (0.01, 0.5, 0.99):
                    weights = {"norm": 0.5, "inter": 1 - alpha, "sub": alpha}
                    gaps = {kind: g.matrix - idealized(g_prev, kind) for kind in weights}
                    value = sum(w * np.sum(gaps[kind] ** 2) for kind, w in weights.items())
                    gradient = sum(2 * w * gaps[kind] for kind, w in weights.items())
                    assert surrogate_value(g, g_prev, alpha) == pytest.approx(value, rel=1e-12)
                    np.testing.assert_allclose(
                        surrogate_gradient(g, g_prev, alpha), gradient, rtol=1e-12, atol=1e-12
                    )

    def test_shape_mismatch_rejected(self):
        g1 = random_sym_gram(np.random.default_rng(6), (2, 2))
        g2 = random_sym_gram(np.random.default_rng(7), (2, 3))
        with pytest.raises(ValueError):
            surrogate_value(g1, g2, 0.5)


class TestWcmStep:
    def test_never_increases_surrogate(self):
        rng = np.random.default_rng(8)
        d = random_dictionary(rng, 12, (3,) * 8)
        for alpha in (0.05, 0.5, 0.95):
            a_prev = SensingMatrix(rng.standard_normal((5, 12)))
            g_prev = gram_of(a_prev.matrix, d)
            a_next = wcm_step(a_prev, d, alpha)
            g_next = gram_of(a_next.matrix, d)
            anchored = surrogate_value(g_prev, g_prev, alpha)
            assert surrogate_value(g_next, g_prev, alpha) <= anchored + 1e-12

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(9)
        d = random_dictionary(rng, 10, (2,) * 5)
        alpha = 0.8
        a_prev = SensingMatrix(rng.standard_normal((4, 10)))
        g_prev = gram_of(a_prev.matrix, d)
        achieved = surrogate_value(gram_of(wcm_step(a_prev, d, alpha).matrix, d), g_prev, alpha)
        for _ in range(100):
            cand = rng.standard_normal((4, 10))
            assert achieved <= surrogate_value(gram_of(cand, d), g_prev, alpha) + 1e-10

    def test_gram_invariant_under_left_rotation(self):
        rng = np.random.default_rng(10)
        d = random_dictionary(rng, 9, (3, 3, 3))
        a_next = wcm_step(SensingMatrix(rng.standard_normal((4, 9))), d, 0.7)
        q = random_orthonormal(rng, 4)
        g1 = gram_of(a_next.matrix, d).matrix
        g2 = gram_of(q @ a_next.matrix, d).matrix
        np.testing.assert_allclose(g1, g2, atol=1e-10)

    def test_sandwich_chain_along_iterates(self):
        # f(G_next) <= g(G_next, G) <= g(G, G) = f(G) at every accepted step
        rng = np.random.default_rng(21)
        d = random_dictionary(rng, 10, (2, 3, 2, 3))
        alpha = 0.85
        a_mat = rng.standard_normal((4, 10))
        for _ in range(6):
            g_prev = gram_of(a_mat, d)
            a_mat = wcm_step(SensingMatrix(a_mat), d, alpha).matrix
            g_next = gram_of(a_mat, d)
            f_prev = weighted_objective(g_prev, alpha)
            f_next = weighted_objective(g_next, alpha)
            g_mid = surrogate_value(g_next, g_prev, alpha)
            assert f_next <= g_mid + 1e-12
            assert g_mid <= surrogate_value(g_prev, g_prev, alpha) + 1e-12
            assert surrogate_value(g_prev, g_prev, alpha) == pytest.approx(f_prev, rel=1e-12)

    def test_half_alpha_fixed_point_at_baseline(self):
        rng = np.random.default_rng(11)
        d = random_dictionary(rng, 12, (3,) * 8)
        a0 = design_ds(d, 5)
        f0 = weighted_objective(gram_of(a0.matrix, d), 0.5)
        a1 = wcm_step(a0, d, 0.5)
        f1 = weighted_objective(gram_of(a1.matrix, d), 0.5)
        assert abs(f1 - f0) <= 1e-9 * (1 + f0)


class TestRunWcm:
    def test_monotone_trace(self):
        rng = np.random.default_rng(12)
        d = random_dictionary(rng, 12, (3,) * 8)
        for alpha in (0.05, 0.3, 0.7, 0.95):
            report = run_wcm(d, 5, WcmConfig(alpha=alpha, max_iters=150))
            assert np.all(np.diff(report.objective_trace) <= 1e-12)

    def test_half_alpha_attains_baseline_optimum(self):
        rng = np.random.default_rng(13)
        d = random_dictionary(rng, 12, (2,) * 12)
        report = run_wcm(d, 4, WcmConfig(alpha=0.5, init="random", seed=0, rel_tol=1e-10))
        mismatch = ds_objective(report.sensing, d)
        assert mismatch == pytest.approx(24 - 4, rel=1e-6)
        assert report.converged

    def test_unit_blocks_degenerate_to_structure_blind(self):
        # With unit block sizes the sub-block terms vanish identically; the
        # remaining objective reweights only the normalization penalty, so the
        # optimizer must do at least as well as the baseline point it starts
        # from (and coincides with it exactly at alpha = 1/2).
        rng = np.random.default_rng(14)
        d = random_dictionary(rng, 10, (1,) * 20)
        g_ds = gram(equivalent_dictionary(design_ds(d, 4), d))
        assert np.all(deviation(g_ds, "sub") == 0.0)
        for alpha in (0.3, 0.5, 0.7):
            report = run_wcm(d, 4, WcmConfig(alpha=alpha, max_iters=300))
            assert report.final_report.total_sub == 0.0
            f_at_baseline = weighted_objective(g_ds, alpha)
            assert report.objective_trace[-1] <= f_at_baseline + 1e-12
        report = run_wcm(d, 4, WcmConfig(alpha=0.5))
        assert ds_objective(report.sensing, d) == pytest.approx(
            ds_objective(design_ds(d, 4), d), rel=1e-9
        )

    def test_high_alpha_shrinks_sub_block_share(self):
        rng = np.random.default_rng(15)
        d = random_dictionary(rng, 12, (3, 3, 3, 3, 3, 3, 3, 3))
        low = run_wcm(d, 5, WcmConfig(alpha=0.5))
        high = run_wcm(d, 5, WcmConfig(alpha=0.99))
        ratio_low = low.final_report.total_sub / low.final_report.total_inter
        ratio_high = high.final_report.total_sub / high.final_report.total_inter
        assert ratio_high < ratio_low

    def test_component_trace_recomposes_objective(self):
        rng = np.random.default_rng(16)
        d = random_dictionary(rng, 9, (3, 3, 3))
        alpha = 0.8
        report = run_wcm(d, 4, WcmConfig(alpha=alpha, max_iters=60))
        inter, sub, norm = report.component_trace.T
        recomposed = 0.5 * norm + (1 - alpha) * inter + alpha * sub
        np.testing.assert_allclose(recomposed, report.objective_trace, rtol=1e-12, atol=1e-12)
        assert report.component_trace.shape == (report.iterations + 1, 3)

    def test_random_init_reproducible(self):
        rng = np.random.default_rng(17)
        d = random_dictionary(rng, 9, (3, 3, 3))
        cfg = WcmConfig(alpha=0.7, init="random", seed=123, max_iters=40)
        r1 = run_wcm(d, 4, cfg)
        r2 = run_wcm(d, 4, cfg)
        np.testing.assert_array_equal(r1.objective_trace, r2.objective_trace)
        np.testing.assert_array_equal(r1.sensing.matrix, r2.sensing.matrix)

    def test_iteration_metadata(self, caplog):
        rng = np.random.default_rng(18)
        d = random_dictionary(rng, 9, (3, 3, 3))
        with caplog.at_level(logging.WARNING, logger="blocksense"):
            report = run_wcm(d, 4, WcmConfig(alpha=0.9, max_iters=7, rel_tol=1e-16))
        assert report.iterations == 7
        assert not report.converged
        assert len(report.objective_trace) == 8
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.name.startswith("blocksense")
        assert "alpha=0.9" in record.getMessage()
        assert "7 iterations" in record.getMessage()

    def test_half_alpha_keeps_baseline_at_desk_size(self):
        # At alpha = 1/2 a unit step would make the whitened target exactly
        # the identity; the shorter step must leave the baseline in place.
        cfg = ExperimentConfig(
            dict_family="gaussian", N=60, K=120, M=14, block_sizes=3, k=2,
            L=1, trials=1, designers=("ds",), seed=7,
        )
        d = generate_dictionary(cfg, np.random.default_rng([7, 0]))
        report = run_wcm(d, 14, WcmConfig(alpha=0.5))
        g_ds = gram(equivalent_dictionary(design_ds(d, 14), d)).matrix
        g_wcm = gram(equivalent_dictionary(report.sensing, d)).matrix
        np.testing.assert_allclose(g_wcm, g_ds, rtol=0, atol=1e-10)

    def test_fallback_reproduces_exact_mm_steps(self, monkeypatch):
        # A step far too long for the objective raises f every time, so every
        # iteration must fall back to the exact surrogate minimizer.
        monkeypatch.setattr(blocksense.wcm, "_step_size", lambda alpha: 5.0)
        rng = np.random.default_rng(23)
        d = random_dictionary(rng, 12, (3,) * 8)
        alpha = 0.7
        report = run_wcm(d, 5, WcmConfig(alpha=alpha, max_iters=20))
        assert report.fallbacks > 0
        assert report.fallbacks == report.iterations
        assert np.all(np.diff(report.objective_trace) <= 1e-12)
        a_mat = design_ds(d, 5)
        for _ in range(report.iterations):
            a_mat = wcm_step(a_mat, d, alpha)
        np.testing.assert_allclose(
            gram_of(report.sensing.matrix, d).matrix, gram_of(a_mat.matrix, d).matrix,
            rtol=0, atol=1e-10,
        )

    def test_high_alpha_converges_within_default_cap(self):
        report = run_wcm(c05_dictionary(), 14, WcmConfig(alpha=0.99))
        assert report.converged
        assert report.iterations < 1000

    @pytest.mark.parametrize("alpha, cap", [(0.9, 100), (0.99, 250)])
    def test_momentum_reaches_the_mm_optimum_in_fewer_iterations(self, alpha, cap):
        # Plain MM from the same start needs about 500 (0.9) and 1600 (0.99)
        # steps to the same tolerance; the safeguarded step alone about 190
        # and 680.
        d = c05_dictionary()
        config = WcmConfig(alpha=alpha)
        report = run_wcm(d, 14, config)
        assert report.converged
        assert report.iterations <= cap
        assert np.all(np.diff(report.objective_trace) <= 1e-12)
        a_mat = design_ds(d, 14)
        f = weighted_objective(gram_of(a_mat.matrix, d), alpha)
        while True:
            a_mat = wcm_step(a_mat, d, alpha)
            f_next = weighted_objective(gram_of(a_mat.matrix, d), alpha)
            stalled = abs(f - f_next) <= config.rel_tol * (1.0 + f)
            f = f_next
            if stalled:
                break
        assert report.objective_trace[-1] == pytest.approx(f, rel=1e-5)

    def test_final_report_carries_alpha_objective(self):
        rng = np.random.default_rng(19)
        d = random_dictionary(rng, 9, (3, 3, 3))
        report = run_wcm(d, 4, WcmConfig(alpha=0.6, max_iters=50))
        assert report.final_report.objective_alpha == pytest.approx(
            report.objective_trace[-1], rel=1e-12
        )


class TestConfigValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            WcmConfig(alpha=0.0)
        with pytest.raises(ValueError):
            WcmConfig(alpha=1.0)

    def test_random_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            WcmConfig(alpha=0.5, init="random")

    def test_bad_init_name(self):
        with pytest.raises(ValueError):
            WcmConfig(alpha=0.5, init="zeros")

    def test_bad_m(self):
        d = random_dictionary(np.random.default_rng(20), 6, (3, 3))
        with pytest.raises(ValueError):
            run_wcm(d, 6, WcmConfig(alpha=0.5))
