import concurrent.futures
import json
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import blocksense.harness
from blocksense import (
    BompConfig,
    ExperimentConfig,
    WcmConfig,
    bomp,
    bomp_decode_batch,
    classification_rate,
    dct_matrix,
    decomposition_check,
    design_ds,
    equivalent_dictionary,
    generate_dictionary,
    generate_signals,
    objective_lower_bound,
    representation_error,
    run_histogram,
    run_sweep,
    run_wcm,
    write_sweep_outputs,
)
from blocksense.coherence import _equivalent_terms
from blocksense.harness import _first_k, config_from_dict, run_trial
from helpers import (
    random_dictionary,
    reference_bomp,
    reference_representation_error,
    reference_run_trial,
    reference_signals,
)

TINY = dict(
    dict_family="gaussian",
    N=12,
    K=24,
    M=6,
    block_sizes=3,
    k=2,
    L=8,
    trials=2,
    alpha_grid=(0.5,),
    seed=3,
    designers=("ds",),
)


class TestDctMatrix:
    def test_orthonormal(self):
        c = dct_matrix(16)
        np.testing.assert_allclose(c @ c.T, np.eye(16), atol=1e-12)


class TestGenerateDictionary:
    def test_unit_columns(self):
        cfg = ExperimentConfig(**TINY)
        d = generate_dictionary(cfg, np.random.default_rng(0))
        np.testing.assert_allclose(np.linalg.norm(d.matrix, axis=0), 1.0, atol=1e-12)

    def test_dct_rows_full_square_is_row_permutation(self):
        cfg = ExperimentConfig(**{**TINY, "dict_family": "dct_rows", "N": 24, "M": 6})
        d = generate_dictionary(cfg, np.random.default_rng(1))
        np.testing.assert_allclose(np.linalg.norm(d.matrix, axis=0), 1.0, atol=1e-12)
        full = dct_matrix(24)
        # every dictionary row appears among the DCT rows
        sorted_d = d.matrix[np.lexsort(d.matrix.T[::-1])]
        sorted_full = full[np.lexsort(full.T[::-1])]
        np.testing.assert_allclose(sorted_d, sorted_full, atol=1e-12)

    def test_deterministic_under_fixed_seed(self):
        cfg = ExperimentConfig(**{**TINY, "dict_family": "dct_rows"})
        d1 = generate_dictionary(cfg, np.random.default_rng(7))
        d2 = generate_dictionary(cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(d1.matrix, d2.matrix)


class TestGenerateSignals:
    def test_exact_block_sparsity(self):
        rng = np.random.default_rng(2)
        d = random_dictionary(rng, 8, (2, 2, 2, 2))
        _, theta = generate_signals(d, 2, 20, rng)
        blocks = np.split(theta, d.structure.offsets[1:-1])
        for sig in range(20):
            active = [j for j in range(4) if np.linalg.norm(blocks[j][:, sig]) > 0]
            assert len(active) == 2

    def test_signals_match_naive_product(self):
        rng = np.random.default_rng(3)
        d = random_dictionary(rng, 6, (3, 3))
        x, theta = generate_signals(d, 1, 5, rng)
        expected = np.zeros_like(x)
        for i in range(6):
            for sig in range(5):
                for m in range(6):
                    expected[i, sig] += d.matrix[i, m] * theta[m, sig]
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_all_blocks_active_when_k_equals_b(self):
        rng = np.random.default_rng(4)
        d = random_dictionary(rng, 6, (2, 2, 2))
        _, theta = generate_signals(d, 3, 4, rng)
        assert np.all(theta != 0.0)

    def test_rejects_k_beyond_blocks(self):
        rng = np.random.default_rng(5)
        d = random_dictionary(rng, 6, (3, 3))
        with pytest.raises(ValueError):
            generate_signals(d, 3, 2, rng)

    @pytest.mark.parametrize("k, L", [(-1, 4), (0, 4), (2.7, 4), (9, 4), (True, 4), ("2", 4),
                                      (2, 0), (2, -3), (2, 2.5), (2, None)])
    def test_rejects_bad_k_and_L_before_drawing(self, k, L):
        # 8 blocks of 3: k = -1 once kept 7 blocks, 2.7 became 2 and 0 drew
        # all-zero signals
        d = random_dictionary(np.random.default_rng(5), 12, (3,) * 8)
        rng = np.random.default_rng(12)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^k" if L == 4 else "^L"):
            generate_signals(d, k, L, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("levels", [2, 3, 16])
    def test_first_k_is_the_stable_argsort_under_ties(self, levels):
        # keys on a coarse grid tie within most rows, and argmin must break
        # every tie by the lowest index, as the stable sort does
        blocks = 8
        keys = np.floor(np.random.default_rng(13).random((300, blocks)) * levels) / levels
        assert np.mean(np.any(np.diff(np.sort(keys, axis=1)) == 0.0, axis=1)) > 0.5
        expected = np.argsort(keys, axis=1, kind="stable")
        for k in (1, 2, blocks):
            np.testing.assert_array_equal(_first_k(keys.copy(), k), expected[:, :k])

    @pytest.mark.parametrize("sizes, k", [
        ((3,) * 40, 2), ((2, 3, 4) * 14, 3), ((3,) * 400, 8), ((2, 3, 4, 5) * 5, 20),
    ])
    def test_keeps_the_random_stream(self, sizes, k):
        d = random_dictionary(np.random.default_rng(6), 60, sizes)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        x, theta = generate_signals(d, k, 50, rng)
        ref_x, ref_theta = reference_signals(d, k, 50, ref_rng)
        np.testing.assert_array_equal(theta, ref_theta)
        np.testing.assert_array_equal(x, ref_x)
        assert rng.random() == ref_rng.random()

    def test_draw_is_uniform(self):
        # 6 blocks of mixed sizes, k = 2, 6000 signals: each block is active
        # with probability 1/3 and drawn first with probability 1/6. Both
        # counts must lie within 5 binomial standard deviations of their means.
        sizes = (2, 3, 4, 3, 2, 4)
        d = random_dictionary(np.random.default_rng(10), 12, sizes)
        n_signals, k = 6000, 2
        _, theta = generate_signals(d, k, n_signals, np.random.default_rng(11))
        # the block each signal draws first holds its lowest key, the first
        # draw of the stream
        first = np.argmin(np.random.default_rng(11).random((n_signals, 6)), axis=1)
        blocks = np.split(theta, d.structure.offsets[1:-1])
        active = np.array([np.any(block != 0.0, axis=0) for block in blocks])  # blocks x signals
        assert np.all(active.sum(axis=0) == k)
        assert np.all(active[first, np.arange(n_signals)])
        for count, p in [(active.sum(axis=1), k / 6), (np.bincount(first, minlength=6), 1 / 6)]:
            spread = 5.0 * np.sqrt(n_signals * p * (1 - p))
            assert np.all(np.abs(count - n_signals * p) <= spread)
        assert np.all(np.abs(theta) <= 1.0)
        assert theta.min() < -0.99 and theta.max() > 0.99
        # no value lands outside its block: an active block's columns are all
        # set, and no column of an inactive block is
        for j, block in enumerate(blocks):
            assert np.all((block != 0.0) == active[j])


class TestMetrics:
    def test_perfect_recovery_rate_one(self):
        rng = np.random.default_rng(6)
        d = random_dictionary(rng, 6, (2, 2, 2))
        _, theta = generate_signals(d, 2, 10, rng)
        assert classification_rate(theta, theta) == 1.0

    def test_disjoint_support_rate_zero(self):
        theta = np.zeros((4, 3))
        theta[0:2] = 1.0
        other = np.zeros((4, 3))
        other[2:4] = 1.0
        assert classification_rate(other, theta) == 0.0

    def test_half_recovered_rate(self):
        theta = np.zeros((4, 2))
        theta[0:2, 0] = 1.0
        theta[0:2, 1] = 1.0
        hat = np.zeros((4, 2))
        hat[0:2, 0] = 2.0  # first signal recovered
        hat[2:4, 1] = 2.0  # second disjoint
        assert classification_rate(hat, theta) == 0.5

    def test_representation_error_limits(self):
        rng = np.random.default_rng(7)
        d = random_dictionary(rng, 6, (3, 3))
        x, theta = generate_signals(d, 1, 5, rng)
        assert representation_error(x, d, theta) == 0.0
        assert representation_error(x, d, np.zeros_like(theta)) == pytest.approx(1.0)

    def test_representation_error_matches_direct(self):
        rng = np.random.default_rng(8)
        d = random_dictionary(rng, 6, (3, 3))
        x, _ = generate_signals(d, 1, 5, rng)
        hat = rng.standard_normal((6, 5))
        direct = np.linalg.norm(x - d.matrix @ hat) / np.linalg.norm(x)
        assert representation_error(x, d, hat) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("sizes", [(3, 3), (2, 3, 4, 3)])
    def test_representation_error_keeps_the_out_of_place_bits(self, sizes):
        rng = np.random.default_rng(10)
        d = random_dictionary(rng, 6, sizes)
        x, theta = generate_signals(d, 1, 40, rng)
        for hat in (theta, theta + 1e-9 * rng.standard_normal(theta.shape),
                    rng.standard_normal(theta.shape)):
            assert representation_error(x, d, hat) == reference_representation_error(x, d, hat)

    def test_zero_signals_rejected(self):
        rng = np.random.default_rng(9)
        d = random_dictionary(rng, 6, (3, 3))
        with pytest.raises(ValueError):
            representation_error(np.zeros((6, 2)), d, np.zeros((6, 2)))
        with pytest.raises(ValueError):
            classification_rate(np.zeros((4, 2)), np.zeros((4, 2)))


class TestRunSweep:
    def test_row_counts_and_determinism(self):
        cfg = ExperimentConfig(**TINY)
        r1 = run_sweep(cfg)
        r2 = run_sweep(cfg)
        assert len(r1.trials) == 2  # one ds row per trial
        assert r1 == r2

    def test_wcm_half_alpha_matches_baseline_rows(self):
        cfg = ExperimentConfig(**{**TINY, "designers": ("ds", "wcm"), "alpha_grid": (0.5,)})
        result = run_sweep(cfg)
        by_trial = {}
        for row in result.trials:
            by_trial.setdefault(row.trial, {})[row.designer] = row
        for rows in by_trial.values():
            # the alpha = 1/2 design is the closed-form one, bit for bit
            for metric in ("e", "r", "ratio_nu_mu", "objective"):
                assert getattr(rows["wcm"], metric) == getattr(rows["ds"], metric)

    def test_trial_decodes_each_distinct_design_once(self, monkeypatch):
        cfg = ExperimentConfig(
            **{**TINY, "designers": ("random", "ds", "wcm"), "alpha_grid": (0.5, 0.9, 0.99)}
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return bomp_decode_batch(*args, **kwargs)

        monkeypatch.setattr(blocksense.harness, "bomp_decode_batch", counting)
        rows = run_trial(cfg, 0)
        # five cells, four distinct designs: wcm at 1/2 shares the ds decode
        assert len(rows) == 5
        assert len(calls) == 4

    def test_rows_do_not_depend_on_designer_order(self):
        cells = {}
        for designers in (("wcm", "ds"), ("ds", "wcm")):
            cfg = ExperimentConfig(
                **{**TINY, "designers": designers, "alpha_grid": (0.5, 0.9)}
            )
            cells[designers] = {(t.trial, t.designer, t.alpha): t for t in run_sweep(cfg).trials}
        assert cells[("wcm", "ds")] == cells[("ds", "wcm")]

    def test_baseline_rows_satisfy_identity(self):
        cfg = ExperimentConfig(**TINY)
        for trial in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, trial])
            d = generate_dictionary(cfg, rng)
            e = equivalent_dictionary(design_ds(d, cfg.M), d)
            lhs, rhs = decomposition_check(e)
            assert rhs == pytest.approx(cfg.K - cfg.M, rel=1e-6)

    def test_metrics_recomputable_from_decoded_coefficients(self):
        cfg = ExperimentConfig(**TINY)
        result = run_sweep(cfg)
        trial = 0
        rng = np.random.default_rng([cfg.seed, trial])
        d = generate_dictionary(cfg, rng)
        x, theta = generate_signals(d, cfg.k, cfg.L, rng)
        a = design_ds(d, cfg.M)
        e = equivalent_dictionary(a, d)
        theta_hat = bomp_decode_batch(e, a.matrix @ x, BompConfig(k_blocks=cfg.k))
        row = result.trials[0]
        assert representation_error(x, d, theta_hat) == row.e
        assert classification_rate(theta_hat, theta) == row.r

    def test_worker_pool_matches_inline(self):
        cfg = ExperimentConfig(**{**TINY, "trials": 3})
        inline = run_sweep(cfg, workers=1)
        pooled = run_sweep(cfg, workers=2)
        assert inline == pooled

    def test_pool_never_outnumbers_trials(self, monkeypatch):
        sizes = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = ExperimentConfig(**TINY)
        assert run_sweep(cfg, workers=8) == run_sweep(cfg, workers=1)
        assert sizes == [cfg.trials]
        run_sweep(ExperimentConfig(**{**TINY, "trials": 1}), workers=8)
        assert sizes == [cfg.trials]

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True])
    def test_workers_must_be_a_positive_integer(self, workers, monkeypatch):
        def no_trial(cfg, trial):
            raise AssertionError("a trial ran before workers was rejected")

        monkeypatch.setattr(blocksense.harness, "run_trial", no_trial)
        with pytest.raises(ValueError, match="workers"):
            run_sweep(ExperimentConfig(**TINY), workers=workers)

    def test_summary_groups_follow_designer_order(self):
        cfg = ExperimentConfig(
            **{**TINY, "designers": ("random", "ds", "wcm"), "alpha_grid": (0.3, 0.7)}
        )
        result = run_sweep(cfg)
        cells = [(s.designer, s.alpha) for s in result.summary]
        assert cells == [("random", None), ("ds", None), ("wcm", 0.3), ("wcm", 0.7)]
        assert all(s.n == cfg.trials for s in result.summary)


# perfbench's decode-mixed workload at smoke-test size. Before block-OMP
# passed over blocks that leave a support rank deficient, 18 of seeds 1-100
# ended with RankDeficientSupportError, among them 7, 12, 19, 20 and 25.
DECODE_MIXED_SMOKE = dict(
    dict_family="dct_rows", N=12, K=18, M=8, block_sizes=[2, 3, 4] * 2,
    k=2, L=20, trials=2, designers=["random", "ds"],
)


class TestSweepsRunToTheEnd:
    def test_decode_mixed_smoke_seeds(self, monkeypatch):
        # every decode keeps k blocks per signal and agrees with the
        # per-signal reference, also for the signals that pass over a block
        decode, decode_chunk = bomp._bomp_batch, bomp._decode_chunk
        retried = []

        def checked(E, structure, Y, k):
            theta, supports = decode(E, structure, Y, k)
            ref_theta, ref_supports = reference_bomp(E, structure.offsets, Y, k, bomp._RANK_TOL)
            np.testing.assert_array_equal(supports, ref_supports)
            np.testing.assert_allclose(theta, ref_theta, rtol=0.0, atol=1e-9)
            assert all(len(set(col)) == k for col in supports.T.tolist())
            return theta, supports

        def counted(layouts, structure, Y, *args):
            if args[-1] is not None:
                retried.append(Y.shape[1])
            return decode_chunk(layouts, structure, Y, *args)

        monkeypatch.setattr(bomp, "_bomp_batch", checked)
        monkeypatch.setattr(bomp, "_decode_chunk", counted)
        for seed in range(1, 101):
            cfg = ExperimentConfig(**DECODE_MIXED_SMOKE, seed=seed)
            result = run_sweep(cfg)
            assert len(result.trials) == cfg.trials * len(cfg.designers)
        # the rule is exercised, not only allowed
        assert sum(retried) > 0


class TestScoringFromE:
    """The sweep scores a design from E = A D, by the kernel run_wcm uses."""

    @pytest.mark.parametrize("sizes", [3, [2, 3, 4, 3] * 10])
    def test_wcm_objective_is_the_design_trace_end(self, sizes):
        cfg = ExperimentConfig(
            dict_family="gaussian", N=60, K=120, M=14, block_sizes=sizes, k=2, L=4,
            trials=6, alpha_grid=(0.5, 0.9, 0.99), seed=31, designers=("wcm",),
        )
        rows = run_sweep(cfg).trials
        assert len(rows) == cfg.trials * len(cfg.alpha_grid)
        for row in rows:
            d = generate_dictionary(cfg, np.random.default_rng([cfg.seed, row.trial]))
            report = run_wcm(d, cfg.M, WcmConfig(alpha=row.alpha))
            assert row.objective == report.objective_trace[-1]

    def test_forms_e_only_for_designs_without_a_report(self, monkeypatch):
        # ds and wcm at 1/2 share the report's E, and the other wcm cells
        # have their own: only the random design's totals are computed here
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return _equivalent_terms(*args, **kwargs)

        monkeypatch.setattr(blocksense.harness, "_equivalent_terms", counting)
        for designers in (("random", "ds", "wcm"), ("wcm", "ds", "random")):
            cfg = ExperimentConfig(**{**TINY, "designers": designers, "alpha_grid": (0.5, 0.9, 0.99)})
            calls.clear()
            assert len(run_trial(cfg, 0)) == 5
            assert len(calls) == 1

    @pytest.mark.parametrize("alphas", [(0.5, 0.9), (0.9,)])
    @pytest.mark.parametrize("designers", [("random", "ds", "wcm"), ("wcm", "ds", "random")])
    def test_designs_wcm_cells_first_and_scores_each_design_at_once(self, designers, alphas,
                                                                    monkeypatch):
        # one loop: every wcm cell is designed before any baseline, and each
        # design is scored, or matched to an earlier design, before the next
        # design starts, so no A is held through another design
        events = []
        design, score = blocksense.harness._design, blocksense.harness._score

        def spied_design(cfg, trial, D, designer, alpha):
            a_mat, report = design(cfg, trial, D, designer, alpha)
            events.append(("design", designer, a_mat.tobytes()))
            return a_mat, report

        def spied_score(cfg, D, X, theta, a_mat, *args):
            events.append(("score", None, a_mat.tobytes()))
            return score(cfg, D, X, theta, a_mat, *args)

        monkeypatch.setattr(blocksense.harness, "_design", spied_design)
        monkeypatch.setattr(blocksense.harness, "_score", spied_score)
        cfg = ExperimentConfig(**{**TINY, "designers": designers, "alpha_grid": alphas})
        assert run_trial(cfg, 0) == reference_run_trial(cfg, 0)
        designed = [designer for kind, designer, _ in events if kind == "design"]
        assert designed == ["wcm"] * len(alphas) + [d for d in designers if d != "wcm"]
        scored = set()
        for (kind, _, a_bytes), after in zip(events, events[1:] + [None]):
            if kind != "design":
                continue
            if a_bytes in scored:
                assert after is None or after[0] == "design"
            else:
                assert after == ("score", None, a_bytes)
                scored.add(a_bytes)
        # ds repeats the wcm design at 1/2, and no other design repeats one
        assert len(scored) == len(designed) - (0.5 in alphas)

    @pytest.mark.parametrize("sizes, alphas", [
        (3, (0.5, 0.9, 0.99)), ([2, 3, 4, 3] * 10, (0.5, 0.9, 0.99)), (3, (0.3, 0.5, 0.9)),
    ])
    def test_rows_equal_the_reference_trial(self, sizes, alphas):
        # the reference designs and scores cell by cell and forms every E
        cfg = ExperimentConfig(
            dict_family="gaussian", N=60, K=120, M=14, block_sizes=sizes, k=2, L=50,
            trials=3, alpha_grid=alphas, seed=34, designers=("random", "ds", "wcm"),
        )
        for trial in range(cfg.trials):
            assert run_trial(cfg, trial) == reference_run_trial(cfg, trial)

    def test_trial_peak_does_not_exceed_the_reference(self):
        # the reference holds one E at a time; a trial that kept each wcm
        # design's E until every cell was designed would peak above it
        cfg = ExperimentConfig(
            dict_family="gaussian", N=100, K=600, M=30, block_sizes=3, k=4, L=200,
            trials=1, alpha_grid=(0.5, 0.9, 0.99), seed=32,
        )
        peaks = {}
        for fn in (run_trial, reference_run_trial):
            fn(cfg, 0)
            tracemalloc.start()
            try:
                fn(cfg, 0)
                peaks[fn] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[run_trial] <= peaks[reference_run_trial]

    @pytest.mark.parametrize("sizes", [3, [2, 3, 4, 3] * 50])
    def test_trial_allocates_no_k_by_k_array(self, sizes):
        # K >> N: one K x K float64 array outweighs everything a trial keeps
        cfg = ExperimentConfig(
            dict_family="gaussian", N=40, K=600, M=10, block_sizes=sizes, k=2, L=20,
            trials=1, alpha_grid=(0.9,), seed=32,
        )
        run_trial(cfg, 0)
        tracemalloc.start()
        try:
            run_trial(cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cfg.K * cfg.K * 8


class TestEigensolves:
    def test_trial_eigendecomposes_the_dictionary_once(self, monkeypatch):
        # one N x N eigensolve builds the dictionary's frame; after that each
        # projected WCM iteration (alpha < 1/2) projects once, and each
        # restart once more, while the alpha >= 1/2 designer takes none
        cfg = ExperimentConfig(
            dict_family="gaussian", N=60, K=120, M=14, block_sizes=3, k=2, L=20,
            trials=1, alpha_grid=(0.3, 0.9), seed=33, designers=("random", "ds", "wcm"),
        )
        d = generate_dictionary(cfg, np.random.default_rng([cfg.seed, 0]))
        report = run_wcm(d, cfg.M, WcmConfig(alpha=0.3))
        steps = report.iterations + report.fallbacks
        assert steps > 0
        calls = []

        def counting(solver):
            def solve(a, *args, **kwargs):
                if np.shape(a) == (cfg.N, cfg.N):
                    calls.append(solver.__name__)
                return solver(a, *args, **kwargs)
            return solve

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        run_trial(cfg, 0)
        assert len(calls) == 1 + steps


class TestOutputs:
    def test_byte_identical_csv_across_runs(self, tmp_path):
        cfg = ExperimentConfig(**{**TINY, "designers": ("random", "ds")})
        for name in ("a", "b"):
            write_sweep_outputs(run_sweep(cfg, workers=2), cfg, tmp_path / name)
        for fname in ("results.csv", "summary.csv", "config.echo.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_results_header(self, tmp_path):
        cfg = ExperimentConfig(**{**TINY, "designers": ("random", "ds", "wcm")})
        result = run_sweep(cfg)
        write_sweep_outputs(result, cfg, tmp_path)
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == "trial,designer,alpha,e,r,ratio_nu_mu,objective"
        assert len(lines) == 1 + len(result.trials)
        # every numeric field reads back as exactly the value it was written from
        for line, row in zip(lines[1:], result.trials):
            trial, designer, alpha, *values = line.split(",")
            assert (int(trial), designer) == (row.trial, row.designer)
            assert alpha == "" if row.alpha is None else float(alpha) == row.alpha
            assert [float(v) for v in values] == [row.e, row.r, row.ratio_nu_mu, row.objective]
        assert {line.split(",")[2] for line in lines[1:]} == {"", "0.5"}
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == (
            "designer,alpha,n,e_mean,e_std,r_mean,r_std,ratio_nu_mu_mean,ratio_nu_mu_std,"
            "objective_mean,objective_std"
        )
        echo = {**TINY, "alpha_grid": [0.5], "designers": ["random", "ds", "wcm"]}
        assert json.loads((tmp_path / "config.echo.json").read_text()) == echo
        sizes = (4,) * 3 + (3,) * 4
        cfg = ExperimentConfig(**{**TINY, "M": 8, "block_sizes": sizes})
        write_sweep_outputs(run_sweep(cfg), cfg, tmp_path / "list")
        echo.update(M=8, block_sizes=list(sizes), designers=["ds"])
        assert json.loads((tmp_path / "list" / "config.echo.json").read_text()) == echo


class TestRunHistogram:
    def test_single_replicate_equals_direct_run(self):
        rng = np.random.default_rng(10)
        d = random_dictionary(rng, 12, (3, 3, 3, 3, 3, 3))
        seed_rng = np.random.default_rng(99)
        vals = run_histogram(d, 5, 0.7, 1, np.random.default_rng(99))
        expected_seed = int(seed_rng.integers(0, 2**63 - 1))
        report = run_wcm(
            d, 5, WcmConfig(alpha=0.7, init="random", seed=expected_seed, rel_tol=1e-10)
        )
        assert vals.shape == (1,)
        assert vals[0] == report.objective_trace[-1]

    def test_half_alpha_replicates_agree(self):
        rng = np.random.default_rng(11)
        d = random_dictionary(rng, 12, (3,) * 6)
        vals = run_histogram(d, 5, 0.5, 4, np.random.default_rng(1))
        # every restart reaches the same global optimum: 2 f = K - M
        np.testing.assert_allclose(2 * vals, 18 - 5, rtol=1e-6)

    def test_high_alpha_spread_is_recorded(self):
        rng = np.random.default_rng(12)
        d = random_dictionary(rng, 18, (3,) * 6)
        vals = run_histogram(d, 12, 0.99, 3, np.random.default_rng(2))
        assert vals.shape == (3,)
        # each restart has its own seed and ends at its own point, all of
        # them within rounding of the certified bound (about 2e-9 above it)
        assert float(np.ptp(vals)) > 0.0
        bound = objective_lower_bound(18, 12, 0.99)
        assert np.all((vals >= bound) & (vals <= bound + 1e-6))


class TestConfigParsing:
    def test_presets_fill_scale_fields(self):
        cfg = config_from_dict({"designers": ["ds"], "seed": 1}, preset="desk")
        assert cfg.L == 200 and cfg.trials == 20

    def test_explicit_values_override_preset(self):
        cfg = config_from_dict({"designers": ["ds"], "L": 5, "trials": 2}, preset="desk")
        assert cfg.L == 5 and cfg.trials == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"bogus": 1})

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: ExperimentConfig(**{**TINY, "dict_family": "bogus"}), "dict_family"),
            (lambda: ExperimentConfig(**{**TINY, "designers": ()}), "at least one designer"),
            (
                lambda: ExperimentConfig(**{**TINY, "designers": ("wcm",), "alpha_grid": ()}),
                "non-empty alpha_grid",
            ),
            (lambda: ExperimentConfig(**{**TINY, "block_sizes": (3,) * 7}), "sum to 21"),
            (lambda: config_from_dict({}, preset="bogus"), "unknown preset"),
            (
                lambda: classification_rate(np.zeros((4, 2)), np.zeros((4, 3))),
                "shape mismatch",
            ),
        ],
        ids=[
            "dict_family", "no-designers", "empty-alpha_grid", "block-sizes-sum",
            "unknown-preset", "classification-shapes",
        ],
    )
    def test_rejects_invalid_inputs(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(**{**TINY, "M": 12})  # M == N
        with pytest.raises(ValueError):
            ExperimentConfig(**{**TINY, "block_sizes": 5})  # does not divide K
        with pytest.raises(ValueError):
            ExperimentConfig(**{**TINY, "designers": ("bogus",)})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**TINY, "k": 9})
        # a repeated grid value would double-count its cell in summary.csv
        with pytest.raises(ValueError, match="designers repeats"):
            ExperimentConfig(**{**TINY, "designers": ("ds", "wcm", "ds")})
        with pytest.raises(ValueError, match="alpha_grid repeats"):
            ExperimentConfig(**{**TINY, "designers": ("ds", "wcm"), "alpha_grid": (0.9, 0.9)})

    @pytest.mark.parametrize("alpha", [1.5, 0.0, 1.0, -0.2])
    def test_wcm_alpha_grid_range_checked(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(**{**TINY, "designers": ("ds", "wcm"), "alpha_grid": (0.5, alpha)})
        # without the wcm designer the grid is never used
        ExperimentConfig(**{**TINY, "designers": ("ds",), "alpha_grid": (0.5, alpha)})

    @pytest.mark.parametrize(
        "bad",
        [
            {"L": 2.5},
            {"block_sizes": [3.7, 3]},
            {"trials": 1.5},
            {"N": "60"},
            {"seed": True},
            {"alpha_grid": 0.5},
            {"alpha_grid": [None]},
            {"designers": "ds"},
        ],
        ids=[
            "L-float", "block_sizes-float", "trials-float", "N-str", "seed-bool",
            "alpha_grid-scalar", "alpha_grid-none", "designers-str",
        ],
    )
    def test_mistyped_values_rejected(self, bad):
        payload = {**TINY, "alpha_grid": [0.5], "designers": ["ds"], **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            config_from_dict(payload)

    def test_accepts_numpy_integers(self):
        cfg = ExperimentConfig(**{**TINY, "N": np.int64(12), "block_sizes": (np.int32(3),) * 8})
        assert type(cfg.N) is int and cfg.structure().sizes == (3,) * 8

    def test_explicit_block_size_list(self):
        cfg = ExperimentConfig(**{**TINY, "M": 8, "block_sizes": (4,) * 3 + (3,) * 4})
        assert cfg.structure().sizes == (4, 4, 4, 3, 3, 3, 3)

    def test_rejects_k_blocks_wider_than_m(self):
        # k * s > M: every selected support would outnumber the measurements
        with pytest.raises(ValueError, match="largest blocks"):
            ExperimentConfig(**{**TINY, "N": 60, "K": 120, "M": 14, "k": 5})
        ExperimentConfig(**{**TINY, "N": 60, "K": 120, "M": 15, "k": 5})

    def test_rejects_mixed_blocks_wider_than_m(self):
        # the two largest of mixed sizes 4, 4, 4, 3, ... hold 8 columns
        mixed = {**TINY, "block_sizes": (4,) * 3 + (3,) * 4}
        with pytest.raises(ValueError, match="largest blocks"):
            ExperimentConfig(**{**mixed, "M": 7})
        ExperimentConfig(**{**mixed, "M": 8})
