import itertools
import logging
import tracemalloc

import numpy as np
import pytest

import blocksense.wcm
from blocksense import (
    BlockGram,
    BlockStructure,
    Dictionary,
    ExperimentConfig,
    SensingMatrix,
    WcmConfig,
    coherence_report,
    design_ds,
    deviation,
    ds_objective,
    equivalent_dictionary,
    generate_dictionary,
    gram,
    objective_gradient,
    objective_lower_bound,
    run_wcm,
    surrogate_gradient,
    surrogate_value,
    weighted_objective,
    wcm_step,
)
from blocksense.coherence import _equivalent_terms
from blocksense.harness import run_trial
from helpers import (
    numerical_gradient,
    random_dictionary,
    random_orthonormal,
    reference_block_rows,
    reference_block_terms,
    reference_wcm_measure,
    reference_wcm_step,
)


def random_sym_gram(rng, sizes):
    structure = BlockStructure(sizes)
    k = structure.num_columns
    m = rng.standard_normal((k, k))
    return BlockGram((m + m.T) / 2, structure, validate=False)


def gram_of(a_mat, d):
    e = a_mat @ d.matrix
    g = e.T @ e
    return BlockGram((g + g.T) / 2, d.structure, validate=False)


def lifted_start(d, a_mat, alpha):
    """The iterate of sensing matrix ``a_mat`` with its C, as ``wcm_step``
    builds it."""
    return blocksense.wcm._lift(d, blocksense.wcm._iterate(d, None, alpha, a_mat))


def spy_whitened_rows(monkeypatch, calls):
    """Append "rows" to ``calls`` at every build of ``Dictionary.whitened_rows``.
    The spy wraps the function that the property caches, so the property's
    own caching stays in place."""
    build = Dictionary.whitened_rows.func

    def spy(self):
        calls.append("rows")
        return build(self)

    monkeypatch.setattr(Dictionary.whitened_rows, "func", spy)


def c05_dictionary():
    """The gaussian dictionary of acceptance criterion 05."""
    cfg = ExperimentConfig(
        dict_family="gaussian", N=60, K=120, M=14, block_sizes=3, k=2,
        L=1, trials=1, designers=("ds",), seed=105,
    )
    return generate_dictionary(cfg, np.random.default_rng(105))


def surrogate_target(g, alpha):
    """The target T = G - grad f(G) / 3 of the exact MM step from G: the
    minimizer of the majorizer anchored at G, whose gradient it zeroes."""
    t = g.matrix - objective_gradient(g, alpha) / 3.0
    at_t = surrogate_gradient(BlockGram(t, g.structure, validate=False), g, alpha)
    np.testing.assert_allclose(at_t, 0.0, atol=1e-12)
    return t


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
                    0.5 * (g.matrix - deviation(g, "norm"))
                    + (1 - alpha) * (g.matrix - deviation(g, "inter"))
                    + alpha * (g.matrix - deviation(g, "sub"))
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
                    ideal = {kind: g_prev.matrix - deviation(g_prev, kind) for kind in weights}
                    gaps = {kind: g.matrix - ideal[kind] for kind in weights}
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


class TestGramFreeStep:
    """The design loop's step and objective against the K x K reference."""

    @pytest.mark.parametrize("sizes", [(3, 3, 3, 3), (2, 3, 4, 3)])
    @pytest.mark.parametrize("beta", [0.0, 0.6])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_step_agrees_with_reference(self, sizes, beta, alpha):
        rng = np.random.default_rng(25)
        d = random_dictionary(rng, 8, sizes)
        m = 4
        a_mat, a_prev = rng.standard_normal((2, m, 8))
        p, prev = lifted_start(d, a_mat, alpha), lifted_start(d, a_prev, alpha)
        g, _, _ = reference_wcm_measure(a_mat, d, alpha)
        g_prev, _, _ = reference_wcm_measure(a_prev, d, alpha)
        g_e = g + beta * (g - g_prev)
        for eta in (blocksense.wcm._MM_STEP, blocksense.wcm._step_size(alpha)):
            a_new = blocksense.wcm._step(d, p, prev, beta, alpha, eta) @ d.whitening
            a_ref = reference_wcm_step(d, g_e, alpha, m, eta)
            np.testing.assert_allclose(
                gram_of(a_new, d).matrix, gram_of(a_ref, d).matrix, rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize("sizes", [(3, 3, 3, 3), (2, 3, 4, 3), (1, 4, 1, 6)])
    def test_terms_agree_with_reference(self, sizes):
        rng = np.random.default_rng(26)
        d = random_dictionary(rng, 8, sizes)
        for _ in range(5):
            a_mat = rng.standard_normal((4, 8))
            _, terms, _ = reference_wcm_measure(a_mat, d, 0.5)
            e_terms = _equivalent_terms(a_mat @ d.matrix, d.structure)
            np.testing.assert_allclose(e_terms, terms, rtol=1e-12)

    @pytest.mark.parametrize("sizes", [(3,) * 40, (2, 3, 4, 3) * 10])
    def test_basis_rows_are_the_padded_columns_of_w_d(self, sizes):
        d = random_dictionary(np.random.default_rng(35), 60, sizes)
        expected = reference_block_rows(d.whitening @ d.matrix, d.structure)
        rows = d.whitened_rows
        np.testing.assert_array_equal(rows, expected)
        assert d.whitened_rows is rows
        assert not rows.flags.writeable
        # the designers read them flat, through a view
        flat = rows.reshape(-1, d.signal_dim)
        assert np.shares_memory(flat, rows)
        np.testing.assert_array_equal(flat, expected.reshape(-1, d.signal_dim))

    def test_no_k_by_k_array(self):
        # K >> N: one K x K float64 array outweighs everything the loop keeps
        rng = np.random.default_rng(27)
        d = random_dictionary(rng, 40, (3,) * 200)
        a_mat = SensingMatrix(rng.standard_normal((10, 40)))
        tracemalloc.start()
        try:
            for alpha in (0.3, 0.9):
                run_wcm(d, 10, WcmConfig(alpha=alpha, max_iters=3))
            wcm_step(a_mat, d, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 600 * 600 * 8


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

    def test_mixed_sizes(self):
        rng = np.random.default_rng(28)
        d = random_dictionary(rng, 12, (2, 3, 4, 3) * 2)
        for alpha in (0.3, 0.9):
            report = run_wcm(d, 5, WcmConfig(alpha=alpha, max_iters=150))
            trace = report.objective_trace
            assert np.all(np.diff(trace) <= 1e-12)
            inter, sub, norm = report.component_trace.T
            np.testing.assert_allclose(
                0.5 * norm + (1 - alpha) * inter + alpha * sub, trace, rtol=1e-12, atol=1e-12
            )
            final = report.final_report
            np.testing.assert_allclose(
                report.component_trace[-1],
                [final.total_inter, final.total_sub, final.norm_penalty],
                rtol=1e-10,
            )

    def test_random_init_reproducible(self):
        rng = np.random.default_rng(17)
        d = random_dictionary(rng, 9, (3, 3, 3))
        cfg = WcmConfig(alpha=0.7, init="random", seed=123, max_iters=40)
        r1 = run_wcm(d, 4, cfg)
        r2 = run_wcm(d, 4, cfg)
        np.testing.assert_array_equal(r1.objective_trace, r2.objective_trace)
        np.testing.assert_array_equal(r1.sensing.matrix, r2.sensing.matrix)
        # the first trace entry is f at the drawn matrix, whichever designer runs
        a0 = np.random.default_rng(123).standard_normal((4, 9))
        for alpha in (0.3, 0.7):
            report = run_wcm(d, 4, WcmConfig(alpha=alpha, init="random", seed=123, max_iters=1))
            assert report.objective_trace[0] == pytest.approx(
                weighted_objective(gram_of(a0, d), alpha), rel=1e-12
            )

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

    def test_half_alpha_keeps_baseline_at_desk_size(self, monkeypatch):
        # At alpha = 1/2 the run takes the closed form: its one iteration is
        # a null step with no gradient and no (W D)' rows, and the design
        # comes back bit for bit, with E = A D as the sweep computes it.
        calls = []
        gradient = blocksense.wcm._gradient_c

        def spy_gradient(*args):
            calls.append("gradient")
            return gradient(*args)

        monkeypatch.setattr(blocksense.wcm, "_gradient_c", spy_gradient)
        spy_whitened_rows(monkeypatch, calls)
        for family, sizes in itertools.product(("gaussian", "dct_rows"), (3, [2, 3, 4, 3] * 10)):
            cfg = ExperimentConfig(
                dict_family=family, N=60, K=120, M=14, block_sizes=sizes, k=2,
                L=1, trials=1, designers=("ds",), seed=7,
            )
            d = generate_dictionary(cfg, np.random.default_rng([7, 0]))
            report = run_wcm(d, 14, WcmConfig(alpha=0.5))
            a_ds = design_ds(d, 14).matrix
            f0 = weighted_objective(gram_of(a_ds, d), 0.5)
            np.testing.assert_array_equal(report.sensing.matrix, a_ds)
            np.testing.assert_array_equal(report.equivalent.matrix, a_ds @ d.matrix)
            assert report.iterations == 1
            assert report.converged
            assert report.fallbacks == 0
            assert report.objective_trace[0] == report.objective_trace[1]
            assert report.objective_trace[0] == pytest.approx(f0, rel=1e-13)
            np.testing.assert_array_equal(report.component_trace[0], report.component_trace[1])
        assert calls == []
        # the same spies see the gradient path above 1/2
        run_wcm(d, 14, WcmConfig(alpha=0.9, max_iters=1))
        assert calls[:2] == ["rows", "gradient"]

    def test_one_trial_builds_the_whitened_rows_once(self, monkeypatch):
        # every design on one dictionary shares its (W D)' rows; a trial whose
        # only wcm design is the alpha = 1/2 closed form builds none
        calls = []
        spy_whitened_rows(monkeypatch, calls)
        base = dict(dict_family="gaussian", N=60, K=120, M=14, block_sizes=[2, 3, 4, 3] * 10,
                    k=2, L=4, trials=1, seed=7)
        run_trial(ExperimentConfig(**base, alpha_grid=(0.5,), designers=("ds", "wcm")), 0)
        assert calls == []
        cfg = ExperimentConfig(**base, alpha_grid=(0.3, 0.9, 0.99), designers=("wcm",))
        run_trial(cfg, 0)
        assert calls == ["rows"]
        calls.clear()
        d = generate_dictionary(cfg, np.random.default_rng([7, 0]))
        for alpha in (0.3, 0.5, 0.9, 0.99):
            run_wcm(d, cfg.M, WcmConfig(alpha=alpha, max_iters=5))
        wcm_step(design_ds(d, cfg.M), d, 0.3)
        assert calls == ["rows"]

    def test_certified_run_allocates_no_basis(self):
        # the (W D)' rows alone are K N floats; the alpha = 1/2 closed form
        # keeps only E, its blocks and the report (0.7 MiB here)
        cfg = ExperimentConfig(
            dict_family="gaussian", N=300, K=600, M=40, block_sizes=3, k=2,
            L=1, trials=1, designers=("ds",), seed=7,
        )
        d = generate_dictionary(cfg, np.random.default_rng([7, 0]))
        tracemalloc.start()
        try:
            report = run_wcm(d, cfg.M, WcmConfig(alpha=0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.iterations == 1
        assert peak < cfg.K * cfg.N * 8

    @pytest.mark.parametrize("sizes", [3, [2, 3, 4, 3] * 10], ids=["threes", "mixed"])
    @pytest.mark.parametrize("family", ["gaussian", "dct_rows"])
    def test_lbfgs_takes_no_step_from_the_closed_form(self, family, sizes):
        # the fact the alpha = 1/2 closed form rests on: started from the
        # lifted ds design, L-BFGS finds no step and yields its start, with
        # the same A, E and f, so the run would stop there as it does now
        cfg = ExperimentConfig(
            dict_family=family, N=60, K=120, M=14, block_sizes=sizes, k=2,
            L=1, trials=1, designers=("ds",), seed=7,
        )
        for trial in range(3):
            d = generate_dictionary(cfg, np.random.default_rng([7, trial]))
            a_ds = design_ds(d, 14).matrix
            p = lifted_start(d, a_ds, 0.5)
            p_new, fell_back = next(blocksense.wcm._lbfgs_steps(d, p, 0.5))
            assert p_new is p and not fell_back
            np.testing.assert_array_equal(p_new.a, a_ds)
            np.testing.assert_array_equal(p_new.e, a_ds @ d.matrix)
            assert p_new.f == run_wcm(d, 14, WcmConfig(alpha=0.5)).objective_trace[-1]

    def test_random_start_at_half_alpha_runs_lbfgs(self):
        # only the ds start takes the closed form: a random start at 1/2
        # descends by L-BFGS, and its trace never rises
        d = random_dictionary(np.random.default_rng(34), 24, (2, 3, 4, 3) * 4)
        report = run_wcm(d, 8, WcmConfig(alpha=0.5, init="random", seed=5))
        assert report.iterations > 1 and report.converged
        assert np.all(np.diff(report.objective_trace) <= 0.0)
        assert report.objective_trace[-1] < report.objective_trace[0]

    @pytest.mark.parametrize("sizes", [(3,) * 40, (2, 3, 4, 3) * 10])
    def test_mask_reference_changes_no_report(self, sizes, monkeypatch):
        # f read at the structure's precomputed slots steers every Armijo test
        # as the boolean-mask gathers did: swapping the reference in changes no bit
        d = random_dictionary(np.random.default_rng(35), 60, sizes)
        configs = [WcmConfig(alpha=alpha) for alpha in (0.3, 0.6, 0.9, 0.99)]
        expected = [run_wcm(d, 14, config) for config in configs]
        monkeypatch.setattr(blocksense.wcm, "_block_terms", reference_block_terms)
        for config, want in zip(configs, expected):
            report = run_wcm(d, 14, config)
            assert (report.iterations, report.fallbacks, report.converged) == (
                want.iterations, want.fallbacks, want.converged)
            for field in ("objective_trace", "component_trace"):
                np.testing.assert_array_equal(getattr(report, field), getattr(want, field))
            np.testing.assert_array_equal(report.sensing.matrix, want.sensing.matrix)
        assert all(r.iterations > 1 for r in expected)

    def test_scaled_closed_form_still_descends(self):
        # ds scaled by 1 + 1e-6 lies about 5e-13 relative above the optimum
        # at alpha = 1/2, far inside rel_tol, yet L-BFGS still descends from it
        d = c05_dictionary()
        p = lifted_start(d, (1.0 + 1e-6) * design_ds(d, 14).matrix, 0.5)
        gap = p.f / objective_lower_bound(120, 14, 0.5) - 1.0
        assert 0.0 < gap < WcmConfig(alpha=0.5).rel_tol * 1e-3
        p_new, fell_back = next(blocksense.wcm._lbfgs_steps(d, p, 0.5))
        assert p_new.f < p.f and not fell_back

    def test_fallback_reproduces_exact_mm_steps(self, monkeypatch):
        # A step far too long for the objective raises f every time, so every
        # iteration of the projected loop (alpha < 1/2) must fall back to the
        # exact surrogate minimizer.
        monkeypatch.setattr(blocksense.wcm, "_step_size", lambda alpha: 5.0)
        rng = np.random.default_rng(23)
        d = random_dictionary(rng, 12, (3,) * 8)
        alpha = 0.3
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

    def test_restart_takes_one_exact_mm_step(self, monkeypatch):
        # every iteration of the projected loop (alpha < 1/2) projects once,
        # and a restart once more, with the exact MM step
        step = blocksense.wcm._step
        d = c05_dictionary()
        for alpha in (0.05, 0.3):
            etas = []

            def recording_step(D, p, prev, beta, alpha, eta):
                etas.append(eta)
                return step(D, p, prev, beta, alpha, eta)

            monkeypatch.setattr(blocksense.wcm, "_step", recording_step)
            report = run_wcm(d, 14, WcmConfig(alpha=alpha))
            assert report.fallbacks > 0
            assert len(etas) == report.iterations + report.fallbacks
            assert etas.count(blocksense.wcm._MM_STEP) == report.fallbacks

    def test_high_alpha_converges_within_default_cap(self):
        report = run_wcm(c05_dictionary(), 14, WcmConfig(alpha=0.99))
        assert report.converged
        assert report.iterations < 1000

    @pytest.mark.parametrize("alpha, cap", [(0.9, 100), (0.99, 250)])
    def test_momentum_reaches_the_mm_optimum_in_fewer_iterations(self, alpha, cap):
        # Plain MM from the same start needs about 500 (0.9) and 1600 (0.99)
        # steps to the same tolerance. At these alphas run_wcm is the L-BFGS
        # designer, which needs 24 and 36.
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

    @pytest.mark.parametrize("sizes", [3, [2, 3, 4, 3] * 10])
    def test_final_report_repeats_the_trace_end(self, sizes):
        cfg = ExperimentConfig(
            dict_family="gaussian", N=60, K=120, M=14, block_sizes=sizes, k=2, L=1,
            trials=3, seed=31, designers=("wcm",),
        )
        for trial in range(cfg.trials):
            d = generate_dictionary(cfg, np.random.default_rng([cfg.seed, trial]))
            for alpha in (0.5, 0.9, 0.99):
                report = run_wcm(d, cfg.M, WcmConfig(alpha=alpha))
                final = report.final_report
                totals = (final.total_inter, final.total_sub, final.norm_penalty)
                assert totals == tuple(report.component_trace[-1])
                assert final.objective_alpha == report.objective_trace[-1]


class TestLbfgsDesigner:
    """The alpha >= 1/2 designer: L-BFGS over C, with A = C W."""

    @pytest.mark.parametrize("sizes", [(3, 3, 3, 3), (2, 3, 4, 3)])
    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.99])
    def test_gradient_matches_central_differences(self, sizes, alpha):
        rng = np.random.default_rng(29)
        d = random_dictionary(rng, 8, sizes)
        c = rng.standard_normal((4, 8))
        grad = blocksense.wcm._gradient_c(d, blocksense.wcm._iterate(d, c, alpha), alpha)
        fd = numerical_gradient(lambda x: blocksense.wcm._iterate(d, x, alpha).f, c, h=1e-5)
        assert np.linalg.norm(grad - fd) <= 1e-8 * np.linalg.norm(grad)

    def test_takes_no_eigensolve(self, monkeypatch):
        d = random_dictionary(np.random.default_rng(30), 12, (2, 3, 4, 3) * 2)
        calls = []

        def counting(solver):
            def solve(*args, **kwargs):
                calls.append(solver.__name__)
                return solver(*args, **kwargs)
            return solve

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        for alpha in (0.5, 0.9, 0.99):
            run_wcm(d, 5, WcmConfig(alpha=alpha))
            run_wcm(d, 5, WcmConfig(alpha=alpha, init="random", seed=1))
        assert calls == []

    @pytest.mark.parametrize("alpha", [0.7, 0.95])
    def test_ascent_direction_falls_back_to_steepest_descent(self, alpha, monkeypatch):
        # A quasi-Newton direction that ascends finds no Armijo step, so every
        # iteration with a history drops it and descends along -g, exactly as
        # a run that keeps no history at all
        d = random_dictionary(np.random.default_rng(32), 12, (3,) * 8)
        config = WcmConfig(alpha=alpha, max_iters=60)
        monkeypatch.setattr(blocksense.wcm, "_HISTORY", 0)
        plain = run_wcm(d, 5, config)
        monkeypatch.undo()
        history = []

        def ascent(g, pairs):
            history.append(len(pairs))
            return -g

        monkeypatch.setattr(blocksense.wcm, "_two_loop", ascent)
        report = run_wcm(d, 5, config)
        assert report.iterations == 60
        assert report.fallbacks == report.iterations - 1
        # each fallback dropped the history, so only the newest pair is left
        assert history == [1] * report.fallbacks
        assert plain.fallbacks == 0
        np.testing.assert_array_equal(report.objective_trace, plain.objective_trace)

    def test_armijo_gives_up_after_its_backtracks(self, monkeypatch):
        # a descent direction so long that every step it tries raises f
        d = random_dictionary(np.random.default_rng(33), 12, (3,) * 8)
        p = lifted_start(d, design_ds(d, 5).matrix, 0.9)
        p = blocksense.wcm._iterate(d, p.c + 0.1, 0.9)
        g = blocksense.wcm._gradient_c(d, p, 0.9)
        tried = []

        def recording(D, c, alpha):
            tried.append(c)
            return iterate(D, c, alpha)

        iterate = blocksense.wcm._iterate
        monkeypatch.setattr(blocksense.wcm, "_iterate", recording)
        monkeypatch.setattr(blocksense.wcm, "_BACKTRACKS", 3)
        assert blocksense.wcm._armijo(d, p, g, -1e6 * g, 0.9) is None
        # steps 1, 1/2 and 1/4 were each tried and rejected
        assert len(tried) == 3
        np.testing.assert_array_equal(tried[-1], p.c - 0.25e6 * g)
        # the same direction, short enough, is accepted at the first step
        tried.clear()
        assert blocksense.wcm._armijo(d, p, g, -1e-3 * g, 0.9) is not None
        assert len(tried) == 1

    @pytest.mark.parametrize("n_pairs", [1, 2, blocksense.wcm._HISTORY])
    def test_two_loop_is_the_dense_bfgs_product(self, n_pairs):
        # H from H_0 = (s'y / y'y) I of the newest pair, updated by every
        # pair, oldest first: H <- (I - rho s y') H (I - rho y s') + rho s s'
        rng = np.random.default_rng(n_pairs)
        shape, n = (3, 4), 12
        b = rng.standard_normal((n, n))
        hessian = b @ b.T + n * np.eye(n)  # positive definite, so s'y > 0
        pairs = []
        for _ in range(n_pairs):
            s = rng.standard_normal(shape)
            y = (hessian @ s.ravel()).reshape(shape)
            pairs.append((s, y, 1.0 / np.vdot(s, y)))
        _, y, rho = pairs[-1]
        h = np.eye(n) / (rho * np.vdot(y, y))
        for s, y, rho in pairs:
            left = np.eye(n) - rho * np.outer(s, y)
            h = left @ h @ left.T + rho * np.outer(s, s)
        g = rng.standard_normal(shape)
        want = h @ g.ravel()
        got = blocksense.wcm._two_loop(g, pairs)
        assert got.shape == shape
        assert np.linalg.norm(got.ravel() - want) <= 1e-12 * np.linalg.norm(want)

    def test_keeps_at_most_history_pairs(self, monkeypatch):
        lengths = []
        two_loop = blocksense.wcm._two_loop

        def recording(g, pairs):
            lengths.append(len(pairs))
            return two_loop(g, pairs)

        monkeypatch.setattr(blocksense.wcm, "_two_loop", recording)
        report = run_wcm(c05_dictionary(), 14, WcmConfig(alpha=0.99))
        assert report.iterations > blocksense.wcm._HISTORY
        assert max(lengths) == blocksense.wcm._HISTORY

    # the module's memory, 10 pairs, and the smaller 5 measured against it
    # in CHANGES.md
    @pytest.mark.parametrize("history", [5, 10])
    def test_desk_designs_converge_at_either_memory(self, history, monkeypatch):
        monkeypatch.setattr(blocksense.wcm, "_HISTORY", history)
        for sizes, seed in itertools.product((3, [2, 3, 4, 3] * 10), (3, 5)):
            cfg = ExperimentConfig(
                dict_family="gaussian", N=60, K=120, M=14, block_sizes=sizes, k=2,
                L=1, trials=1, designers=("wcm",), seed=seed,
            )
            d = generate_dictionary(cfg, np.random.default_rng([seed, 0]))
            for alpha in (0.6, 0.9, 0.99):
                report = run_wcm(d, cfg.M, WcmConfig(alpha=alpha))
                assert report.converged
                assert 0.0 <= report.gap <= 1e-5

    def test_desk_designs_reach_the_lower_bound(self):
        designs = [("gaussian", 3), ("dct_rows", 3), ("gaussian", [2, 3, 4, 3] * 10)]
        for (family, sizes), seed in itertools.product(designs, (7, 11, 61, 108, 613)):
            cfg = ExperimentConfig(
                dict_family=family, N=60, K=120, M=14, block_sizes=sizes, k=2,
                L=1, trials=1, designers=("wcm",), seed=seed,
            )
            d = generate_dictionary(cfg, np.random.default_rng([seed, 0]))
            g_ds = gram(equivalent_dictionary(design_ds(d, cfg.M), d))
            for alpha in (0.6, 0.9, 0.99):
                report = run_wcm(d, cfg.M, WcmConfig(alpha=alpha))
                # C_0 = E_0 (W D)' maps the closed-form start back to itself
                assert report.objective_trace[0] == pytest.approx(
                    weighted_objective(g_ds, alpha), rel=1e-13
                )
                gap = report.objective_trace[-1] / objective_lower_bound(cfg.K, cfg.M, alpha) - 1
                assert report.gap == gap
                assert report.converged
                assert 0.0 <= report.gap <= 1e-5
        # below 1/2 no bound is known
        assert run_wcm(d, cfg.M, WcmConfig(alpha=0.3, max_iters=5)).gap is None

    def test_unreachable_bound_still_converges(self):
        # N = 40, K = 120, M = 30, blocks of 6: no G = c P with diagonal
        # blocks rho * I is reachable, so the gap stays well above zero
        d = random_dictionary(np.random.default_rng(31), 40, (6,) * 20)
        for alpha in (0.6, 0.9, 0.99):
            report = run_wcm(d, 30, WcmConfig(alpha=alpha))
            trace = report.objective_trace
            assert report.converged
            assert np.all(np.diff(trace) <= 0.0)
            assert trace[-1] >= objective_lower_bound(120, 30, alpha) * (1.0 + 1e-4)


class TestConfigValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            WcmConfig(alpha=0.0)
        with pytest.raises(ValueError):
            WcmConfig(alpha=1.0)

    def test_random_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            WcmConfig(alpha=0.5, init="random")

    def test_max_iters_must_be_a_positive_integer(self):
        for bad in (0, 2.5, True, "3"):
            with pytest.raises(ValueError, match="max_iters"):
                WcmConfig(alpha=0.5, max_iters=bad)
        d = random_dictionary(np.random.default_rng(21), 6, (3, 3))
        config = WcmConfig(alpha=0.9, max_iters=np.int64(2), rel_tol=1e-16)
        assert run_wcm(d, 3, config).iterations == 2

    def test_float_fields_are_typed(self):
        for key in ("alpha", "rel_tol"):
            for bad in ("0.9", True, None, [0.9]):
                with pytest.raises(ValueError, match=key):
                    WcmConfig(**{"alpha": 0.9, key: bad})
        config = WcmConfig(alpha=np.float64(0.9), rel_tol=np.float32(1e-6))
        assert type(config.alpha) is float and config.alpha == 0.9
        assert type(config.rel_tol) is float
        assert type(WcmConfig(alpha=0.6, rel_tol=1).rel_tol) is float

    def test_bad_init_name(self):
        with pytest.raises(ValueError):
            WcmConfig(alpha=0.5, init="zeros")

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda d: WcmConfig(alpha=0.9, rel_tol=0.0), "rel_tol must be positive"),
            (lambda d: WcmConfig(alpha=0.9, rel_tol=float("nan")), "rel_tol must be positive"),
            (lambda d: WcmConfig(alpha=0.9, rel_tol=float("inf")), "rel_tol must be positive"),
            (
                lambda d: surrogate_value(
                    BlockGram(np.eye(6), BlockStructure((3, 3))),
                    BlockGram(np.eye(6), BlockStructure((2, 4))),
                    0.9,
                ),
                "one block structure",
            ),
            (
                lambda d: wcm_step(SensingMatrix(np.eye(2, 5)), d, 0.9),
                "dimension 5, dictionary has 6",
            ),
        ],
        ids=["rel_tol-zero", "rel_tol-nan", "rel_tol-inf", "surrogate-structures",
             "step-dimension"],
    )
    def test_rejects_invalid_inputs(self, call, match):
        d = random_dictionary(np.random.default_rng(20), 6, (3, 3))
        with pytest.raises(ValueError, match=match):
            call(d)

    @pytest.mark.parametrize("kind", [str, bool])
    @pytest.mark.parametrize(
        "call, good",
        [
            (lambda d, alpha: weighted_objective(gram_of(design_ds(d, 5).matrix, d), alpha), 0.3),
            (lambda d, alpha: objective_gradient(gram_of(design_ds(d, 5).matrix, d), alpha), 0.3),
            (lambda d, alpha: objective_lower_bound(24, 6, alpha), 0.9),
            (lambda d, alpha: surrogate_value(*[gram_of(design_ds(d, 5).matrix, d)] * 2, alpha),
             0.3),
            (lambda d, alpha: wcm_step(design_ds(d, 5), d, alpha), 0.3),
            (lambda d, alpha: coherence_report(
                equivalent_dictionary(design_ds(d, 5), d), alpha), 0.3),
        ],
        ids=["weighted_objective", "objective_gradient", "objective_lower_bound",
             "surrogate_value", "wcm_step", "coherence_report"],
    )
    def test_rejects_a_non_float_alpha(self, call, good, kind):
        # alpha is read as the config reads it: a string or bool is refused,
        # a numpy float accepted
        d = random_dictionary(np.random.default_rng(20), 12, (3,) * 8)
        with pytest.raises(ValueError, match="alpha must hold float values"):
            call(d, kind(good))
        assert call(d, np.float64(good)) is not None

    def test_bad_m(self):
        d = random_dictionary(np.random.default_rng(20), 6, (3, 3))
        with pytest.raises(ValueError):
            run_wcm(d, 6, WcmConfig(alpha=0.5))

    @pytest.mark.parametrize("bad", [5.9, True, "5"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize(
        "call, key",
        [
            (design_ds, "M"),
            (lambda d, m: run_wcm(d, m, WcmConfig(alpha=0.9)), "M"),
            (lambda d, m: objective_lower_bound(24, m, 0.9), "M"),
            (lambda d, m: objective_lower_bound(m, 3, 0.9), "K"),
        ],
        ids=["design_ds", "run_wcm", "lower_bound-M", "lower_bound-K"],
    )
    def test_rejects_a_non_integer_size(self, call, key, bad):
        # a size is read as the sweep config reads it, never truncated
        d = random_dictionary(np.random.default_rng(20), 12, (3,) * 8)
        with pytest.raises(ValueError, match=f"{key} must hold int values"):
            call(d, bad)
        assert call(d, np.int64(5)) is not None
