import json
import logging
import re
import runpy
import sys

import numpy as np
import pytest

import blocksense.harness
from blocksense import (
    BlockStructure,
    BompConfig,
    EquivalentDictionary,
    bomp_decode_batch,
    design_ds,
    run_wcm,
    WcmConfig,
)
from blocksense.cli import build_parser, main
from blocksense.fileio import (
    load_block_matrix_json,
    load_matrix_csv,
    save_block_matrix_json,
    save_matrix_csv,
)
from helpers import random_dictionary


class TestFileIO:
    def test_csv_roundtrip_preserves_doubles(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-8, 8, size=(5, 7))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, mat)
        np.testing.assert_array_equal(load_matrix_csv(path), mat)

    def test_csv_handles_single_row(self, tmp_path):
        path = tmp_path / "row.csv"
        save_matrix_csv(path, np.array([1.5, -2.5, 3.0]))
        loaded = load_matrix_csv(path)
        assert loaded.shape == (3, 1)

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((4, 6))
        path = tmp_path / "d.json"
        save_block_matrix_json(path, mat, (2, 3, 1))
        loaded, sizes = load_block_matrix_json(path)
        np.testing.assert_array_equal(loaded, mat)
        assert sizes == (2, 3, 1)

    def test_json_validates_shapes(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "block_sizes": [2], "data": [1.0]}))
        with pytest.raises(ValueError):
            load_block_matrix_json(path)
        path.write_text(
            json.dumps({"rows": 1, "cols": 2, "block_sizes": [3], "data": [1.0, 2.0]})
        )
        with pytest.raises(ValueError):
            load_block_matrix_json(path)
        for key in ("rows", "cols", "block_sizes", "data"):
            payload = {"rows": 1, "cols": 1, "block_sizes": [1], "data": [1.0]}
            del payload[key]
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=f"missing the key '{key}'"):
                load_block_matrix_json(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_block_matrix_json(path)
        for key, value in [("rows", "1"), ("cols", 1.5), ("rows", True), ("block_sizes", 1),
                           ("block_sizes", [1.0]), ("data", {"0": 1.0}), ("data", ["1.0"])]:
            payload = {"rows": 1, "cols": 1, "block_sizes": [1], "data": [1.0]}
            payload[key] = value
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=f"^{key} must"):
                load_block_matrix_json(path)
        for key, value in [("rows", -2), ("cols", -3), ("rows", 0), ("cols", 0)]:
            payload = {"rows": 1, "cols": 1, "block_sizes": [1], "data": []}
            payload[key] = value
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match=f"^{key} must be at least 1"):
                load_block_matrix_json(path)


@pytest.fixture
def dict_file(tmp_path):
    d = random_dictionary(np.random.default_rng(5), 9, (3, 3, 3, 3))
    path = tmp_path / "dict.json"
    save_block_matrix_json(path, d.matrix, d.structure.sizes)
    return path, d


class TestCli:
    def test_module_run_exits_with_the_status_of_main(self, tmp_path, monkeypatch, capsys):
        # a missing dictionary file makes main return 2; run as a module,
        # that status becomes the exit code. Running the module again while
        # it sits in sys.modules would warn, so it is taken out for the run.
        monkeypatch.delitem(sys.modules, "blocksense.cli")
        monkeypatch.setattr(sys, "argv", [
            "blocksense", "design", "ds", "--dict", str(tmp_path / "missing.json"),
            "-M", "4", "--out", str(tmp_path / "a.csv"),
        ])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("blocksense.cli", run_name="__main__")
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "a.csv").exists()

    def test_design_ds(self, tmp_path, dict_file):
        path, d = dict_file
        out = tmp_path / "a.csv"
        assert main(["design", "ds", "--dict", str(path), "-M", "4", "--out", str(out)]) == 0
        a = load_matrix_csv(out)
        np.testing.assert_array_equal(a, design_ds(d, 4).matrix)

    def test_design_wcm_with_trace(self, tmp_path, dict_file, capsys):
        path, d = dict_file
        out = tmp_path / "a.csv"
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "design",
                "wcm",
                "--dict",
                str(path),
                "-M",
                "4",
                "--alpha",
                "0.9",
                "--max-iters",
                "40",
                "--out",
                str(out),
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        report = run_wcm(d, 4, WcmConfig(alpha=0.9, max_iters=40))
        np.testing.assert_array_equal(load_matrix_csv(out), report.sensing.matrix)
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,f,total_inter,total_sub,norm_penalty"
        assert len(lines) == 1 + len(report.objective_trace)
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == report.objective_trace[0]
        summary = capsys.readouterr().out
        assert (
            f"after {report.iterations} iterations, {report.fallbacks} fallbacks, "
            f"gap {report.gap:.3g} to the lower bound" in summary
        )

    def test_design_wcm_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(
            ["design", "wcm", "--dict", "d.json", "-M", "4", "--alpha", "0.9", "--out", "a.csv"]
        )
        config = WcmConfig(alpha=args.alpha, max_iters=args.max_iters, rel_tol=args.tol,
                           init=args.init, seed=args.seed)
        assert config == WcmConfig(alpha=0.9)

    def test_design_wcm_refuses_an_infinite_tol(self, tmp_path, dict_file, capsys):
        # rel_tol = inf would stop after one iteration and report "converged"
        path, _ = dict_file
        out = tmp_path / "a.csv"
        argv = ["design", "wcm", "--dict", str(path), "-M", "4", "--alpha", "0.9",
                "--tol", "inf", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: rel_tol must be positive and finite")
        assert not out.exists()

    def test_design_wcm_refuses_a_negative_seed(self, tmp_path, dict_file, capsys):
        path, _ = dict_file
        out = tmp_path / "a.csv"
        argv = ["design", "wcm", "--dict", str(path), "-M", "4", "--alpha", "0.9",
                "--init", "random", "--seed", "-1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: seed must be >= 0, got -1")
        assert not out.exists()

    def test_design_wcm_below_half_prints_the_gap(self, tmp_path, dict_file, capsys):
        path, d = dict_file
        out = tmp_path / "a.csv"
        args = ["design", "wcm", "--dict", str(path), "-M", "4", "--alpha", "0.3",
                "--max-iters", "40", "--out", str(out)]
        assert main(args) == 0
        report = run_wcm(d, 4, WcmConfig(alpha=0.3, max_iters=40))
        assert report.gap >= 0.0
        summary = capsys.readouterr().out
        assert (
            f"after {report.iterations} iterations, {report.fallbacks} fallbacks, "
            f"gap {report.gap:.3g} to the lower bound (converged)" in summary
        )

    def test_decode_bomp(self, tmp_path):
        rng = np.random.default_rng(6)
        e_mat = rng.standard_normal((6, 12))
        # three signals, then a single signal saved as a 1-D vector, then
        # three signals on blocks of mixed sizes
        cases = [((3, 3, 3, 3), rng.standard_normal((6, 3))),
                 ((3, 3, 3, 3), rng.standard_normal(6)),
                 ((2, 3, 4, 3), rng.standard_normal((6, 3)))]
        for n, (sizes, y) in enumerate(cases):
            e = EquivalentDictionary(e_mat, BlockStructure(sizes))
            equiv_path = tmp_path / f"equiv{n}.json"
            save_block_matrix_json(equiv_path, e_mat, sizes)
            meas_path = tmp_path / f"y{n}.csv"
            save_matrix_csv(meas_path, y)
            out = tmp_path / f"theta{n}.csv"
            code = main(
                [
                    "decode",
                    "bomp",
                    "--equiv",
                    str(equiv_path),
                    "--measurements",
                    str(meas_path),
                    "-k",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            expected = bomp_decode_batch(e, y.reshape(6, -1), BompConfig(k_blocks=2))
            np.testing.assert_array_equal(load_matrix_csv(out), expected)

    def test_decode_bomp_refuses_non_finite_measurements(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        equiv_path = tmp_path / "equiv.json"
        save_block_matrix_json(equiv_path, rng.standard_normal((6, 12)), (3, 3, 3, 3))
        y = rng.standard_normal((6, 3))
        y[4, 1] = np.nan
        meas_path = tmp_path / "y.csv"
        save_matrix_csv(meas_path, y)
        out = tmp_path / "theta.csv"
        argv = ["decode", "bomp", "--equiv", str(equiv_path), "--measurements", str(meas_path),
                "-k", "2", "--out", str(out)]
        assert main(argv) == 2
        assert "signal 1 has a non-finite measurement" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_writes_outputs(self, tmp_path):
        cfg = {
            "dict_family": "gaussian",
            "N": 12,
            "K": 24,
            "M": 6,
            "block_sizes": 3,
            "k": 2,
            "L": 6,
            "trials": 2,
            "alpha_grid": [0.5],
            "seed": 2,
            "designers": ["ds"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 0
        for fname in ("results.csv", "summary.csv", "config.echo.json"):
            assert (out_dir / fname).exists()
        echoed = json.loads((out_dir / "config.echo.json").read_text())
        assert echoed["L"] == 6 and echoed["designers"] == ["ds"]

    def test_log_level_info_logs_each_trial(self, tmp_path, caplog):
        cfg = {
            "dict_family": "gaussian", "N": 12, "K": 24, "M": 6, "block_sizes": 3,
            "k": 2, "L": 6, "trials": 2, "seed": 2, "designers": ["random", "ds"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        sweep = ["sweep", "--config", str(cfg_path), "--out-dir"]
        # at_level restores the package logger's level, which main() sets
        with caplog.at_level(logging.INFO, logger="blocksense"):
            assert main([*sweep, str(tmp_path / "quiet")]) == 0
            assert not caplog.records
            assert main(["--log-level", "INFO", *sweep, str(tmp_path / "loud")]) == 0
        lines = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        assert len(lines) == 2
        for trial, (name, level, message) in enumerate(lines):
            assert (name, level) == ("blocksense.harness", logging.INFO)
            match = re.fullmatch(r"trial (\d+): (\d+) cells in (\S+) s", message)
            assert match and match.group(1, 2) == (str(trial), "2")
            assert float(match.group(3)) >= 0.0
        for fname in ("results.csv", "summary.csv"):
            quiet = (tmp_path / "quiet" / fname).read_bytes()
            assert (tmp_path / "loud" / fname).read_bytes() == quiet

    def test_sweep_preset_fills_defaults(self, tmp_path):
        cfg = {
            "designers": ["ds"],
            "N": 12,
            "K": 24,
            "M": 6,
            "block_sizes": 3,
            "k": 2,
            "L": 4,
            "trials": 2,
            "seed": 0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code = main(
            ["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir), "--preset", "desk"]
        )
        assert code == 0
        echoed = json.loads((out_dir / "config.echo.json").read_text())
        assert echoed["L"] == 4  # explicit value wins over the preset

    def test_histogram(self, tmp_path, dict_file):
        path, _ = dict_file
        out = tmp_path / "hist.csv"
        code = main(
            [
                "histogram",
                "--dict",
                str(path),
                "-M",
                "4",
                "--alpha",
                "0.5",
                "--replicates",
                "3",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "objective"
        assert len(lines) == 4

    def test_invalid_input_exits_nonzero(self, tmp_path, dict_file, capsys):
        path, _ = dict_file
        payload = json.loads(path.read_text())
        del payload["block_sizes"]
        no_sizes = tmp_path / "no_sizes.json"
        no_sizes.write_text(json.dumps(payload))
        int_sizes = tmp_path / "int_sizes.json"
        int_sizes.write_text(json.dumps({"rows": 1, "cols": 1, "block_sizes": 1, "data": [1.0]}))
        negative = tmp_path / "negative.json"
        negative.write_text(
            json.dumps({"rows": -2, "cols": -3, "block_sizes": [-3], "data": [1, 2, 3, 4, 5, 6]})
        )
        deficient = tmp_path / "deficient.json"
        save_block_matrix_json(deficient, np.ones((3, 6)), [3, 3])
        measurements = tmp_path / "y.csv"
        save_matrix_csv(measurements, np.ones((2, 1)))
        # block 0 holds one column twice, and every 3 blocks that fit the 8
        # measurements hold block 0: the decode cannot pass over it
        rng = np.random.default_rng(7)
        e_mat = rng.standard_normal((8, 12))
        e_mat /= np.linalg.norm(e_mat, axis=0)
        e_mat[:, 1] = e_mat[:, 0]
        repeated = tmp_path / "repeated.json"
        save_block_matrix_json(repeated, e_mat, [2, 3, 4, 3])
        y_repeated = tmp_path / "y_repeated.csv"
        save_matrix_csv(y_repeated, e_mat[:, 0])
        y_nine = tmp_path / "y_nine.csv"
        save_matrix_csv(y_nine, rng.standard_normal((9, 2)))
        out = tmp_path / "a.csv"
        for argv, message in [
            (["design", "wcm", "--dict", str(path), "-M", "4", "--alpha", "1.5"], "alpha"),
            (["design", "ds", "--dict", str(no_sizes), "-M", "4"], "missing the key 'block_sizes'"),
            (["design", "ds", "--dict", str(int_sizes), "-M", "4"], "block_sizes must be a list"),
            (["design", "ds", "--dict", str(negative), "-M", "4"], "rows must be at least 1"),
            (["decode", "bomp", "--equiv", str(negative), "--measurements", str(measurements),
              "-k", "1"], "rows must be at least 1"),
            (["decode", "bomp", "--equiv", str(repeated), "--measurements", str(y_repeated),
              "-k", "3"], "rank deficient while decoding signal 0"),
            (["decode", "bomp", "--equiv", str(path), "--measurements", str(y_nine), "-k", "4"],
             "k_blocks=4 narrowest blocks hold 12 columns, more than M=9"),
            (["design", "ds", "--dict", str(deficient), "-M", "1"], "row-rank deficient"),
            (["design", "wcm", "--dict", str(deficient), "-M", "1", "--alpha", "0.5"],
             "row-rank deficient"),
            (["histogram", "--dict", str(deficient), "-M", "1", "--alpha", "0.5",
              "--replicates", "1", "--seed", "0"], "row-rank deficient"),
            (["histogram", "--dict", str(path), "-M", "4", "--alpha", "0.5",
              "--replicates", "0", "--seed", "0"], "replicates must be >= 1, got 0"),
            (["histogram", "--dict", str(path), "-M", "4", "--alpha", "0.5",
              "--replicates", "-1", "--seed", "0"], "replicates must be >= 1, got -1"),
        ]:
            assert main(argv + ["--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_mistyped_sweep_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        for payload, message in [
            ({"designers": ["ds"], "L": 2.5}, "L must hold int values"),
            ([1, 2], "config must be a JSON object, got list"),
        ]:
            cfg_path.write_text(json.dumps(payload))
            assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
            assert message in capsys.readouterr().err
            assert not out_dir.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("k", 0, "k must be >= 1, got 0"),
        ("k", -1, "k must be >= 1, got -1"),
        ("M", 0, "M must be >= 1, got 0"),
        ("M", -4, "M must be >= 1, got -4"),
        ("seed", -3, "seed must be >= 0, got -3"),
    ])
    def test_out_of_range_sweep_config_exits_2_before_any_design(
        self, key, value, message, tmp_path, monkeypatch, capsys
    ):
        def no_design(*args):
            raise AssertionError("a design started before the config was rejected")

        monkeypatch.setattr(blocksense.harness, "_design", no_design)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"designers": ["ds"], "L": 2, "trials": 1, key: value}))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_alpha_out_of_range_exits_2_before_any_trial(self, tmp_path, monkeypatch):
        def no_trial(cfg, trial):
            raise AssertionError("a trial ran before the config was rejected")

        monkeypatch.setattr(blocksense.harness, "run_trial", no_trial)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha_grid": [0.5, 1.5], "L": 2, "trials": 1}))
        out_dir = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir)])
        assert code == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", ["0", "-1", "2.5", "True"])
    def test_bad_workers_exit_2_before_any_trial(self, workers, tmp_path, monkeypatch):
        def no_trial(cfg, trial):
            raise AssertionError("a trial ran before workers was rejected")

        monkeypatch.setattr(blocksense.harness, "run_trial", no_trial)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"designers": ["ds"], "L": 2, "trials": 1}))
        out_dir = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg_path), "--out-dir", str(out_dir),
                "--workers", workers]
        # 0 and -1 reach run_sweep, which rejects them; argparse rejects the rest
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out_dir.exists()
