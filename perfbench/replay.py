"""Replay of sweep trials through the public functions of each module.

``replay_trial`` does what ``run_trial`` does, one public call at a time,
with a span around every call. ``check_trial`` then verifies the decoder and
designer contracts on what the replay produced, outside the trial's span.
"""

from __future__ import annotations

import os

import numpy as np

import blocksense as bs

# Replayed rows must match the sweep's CSV rows to this relative tolerance.
# The replay performs the same floating-point operations, so they agree
# bitwise today; the tolerance only absorbs reordering inside BLAS.
REPLAY_RTOL = 1e-9
REPLAY_ATOL = 1e-12
# |E_S' r| <= ORTHO_TOL * ||E_i|| * ||y|| for every selected column i.
ORTHO_TOL = 1e-8
# A D D' A' = I for ds designs, in Frobenius norm (tests/test_ds.py).
DS_TOL = 1e-8
# WCM objective rises of at most MONO_TOL * (1 + f) count as non-increasing.
MONO_TOL = 1e-12


def _sensing_matrices(cfg, trial, D, tracer):
    """Yield (designer, alpha, A matrix, wcm report or None) in sweep order."""
    for designer in cfg.designers:
        if designer == "random":
            with tracer.span("random_design", "harness"):
                rng_a = np.random.default_rng([cfg.seed, trial, 7919])
                a_mat = rng_a.standard_normal((cfg.M, cfg.N))
            yield designer, None, a_mat, None
        elif designer == "ds":
            with tracer.span("design_ds", "ds"):
                a_mat = bs.design_ds(D, cfg.M).matrix
            yield designer, None, a_mat, None
        else:
            for alpha in cfg.alpha_grid:
                with tracer.span("run_wcm", "wcm", alpha=alpha) as sp:
                    report = bs.run_wcm(D, cfg.M, bs.WcmConfig(alpha=alpha))
                sp["iterations"] = report.iterations
                sp["converged"] = report.converged
                sp["final_objective"] = float(report.objective_trace[-1])
                yield designer, alpha, report.sensing.matrix, report


def replay_trial(cfg: bs.ExperimentConfig, trial: int, tracer):
    """Replay one trial. Returns (rows, artifacts) where each artifact holds
    one design's E, Y, decoded coefficients and WCM report for checking."""
    rows, artifacts = [], []
    with tracer.span("trial", "harness", trial=trial):
        rng = np.random.default_rng([cfg.seed, trial])
        with tracer.span("generate_dictionary", "harness"):
            D = bs.generate_dictionary(cfg, rng)
        with tracer.span("generate_signals", "harness"):
            X, theta = bs.generate_signals(D, cfg.k, cfg.L, rng)
        for designer, alpha, a_mat, report in _sensing_matrices(cfg, trial, D, tracer):
            with tracer.span("apply_sensing", "harness"):
                E = bs.EquivalentDictionary(a_mat @ D.matrix, D.structure)
                Y = a_mat @ X
            with tracer.span("bomp_decode_batch", "bomp", signals=Y.shape[1]):
                try:
                    theta_hat = bs.bomp_decode_batch(E, Y, bs.BompConfig(k_blocks=cfg.k))
                except bs.RankDeficientSupportError:
                    tracer.count("bomp.rank_deficient")
                    raise
            with tracer.span("score", "harness"):
                with tracer.span("gram", "harness"):
                    g = bs.BlockGram(E.matrix.T @ E.matrix, E.structure, validate=False)
                with tracer.span("total_inter_block_coherence", "coherence"):
                    inter = bs.total_inter_block_coherence(g)
                with tracer.span("total_sub_block_coherence", "coherence"):
                    sub = bs.total_sub_block_coherence(g)
                with tracer.span("weighted_objective", "coherence"):
                    objective = bs.weighted_objective(g, 0.5 if alpha is None else alpha)
                with tracer.span("representation_error", "harness"):
                    e = bs.representation_error(X, D, theta_hat)
                with tracer.span("classification_rate", "harness"):
                    r = bs.classification_rate(theta_hat, theta)
            rows.append(bs.TrialResult(
                trial=trial, designer=designer, alpha=alpha, e=e, r=r,
                ratio_nu_mu=sub / inter if inter > 0.0 else float("inf"),
                objective=objective,
            ))
            artifacts.append(dict(designer=designer, alpha=alpha, a=a_mat, D=D, E=E, Y=Y,
                                  theta_hat=theta_hat, report=report))
    return rows, artifacts


def check_trial(cfg: bs.ExperimentConfig, artifacts) -> list[str]:
    """Contract checks on one replayed trial; returns failure messages."""
    problems = []
    offsets = artifacts[0]["E"].structure.offsets
    for art in artifacts:
        tag = f"{art['designer']}@{art['alpha']}"
        E, Y, th = art["E"].matrix, art["Y"], art["theta_hat"]
        active = np.add.reduceat(th != 0.0, offsets[:-1], axis=0) > 0
        blocks = np.count_nonzero(active, axis=0)
        if np.any(blocks != cfg.k):
            problems.append(f"{tag}: decodes with {sorted(set(blocks.tolist()))} blocks, want {cfg.k}")
        corr = np.abs(E.T @ (Y - E @ th))
        scale = np.outer(np.linalg.norm(E, axis=0), np.linalg.norm(Y, axis=0))
        if np.any(corr[th != 0.0] > ORTHO_TOL * scale[th != 0.0]):
            problems.append(f"{tag}: residual not orthogonal to the selected columns")
        if art["designer"] == "ds":
            a, d = art["a"], art["D"].matrix
            err = np.linalg.norm(a @ d @ d.T @ a.T - np.eye(a.shape[0]))
            if err > DS_TOL:
                problems.append(f"{tag}: ||A D D'A' - I||_F = {err:.3e}")
        if art["report"] is not None:
            trace = art["report"].objective_trace
            if np.any(np.diff(trace) > MONO_TOL * (1.0 + np.abs(trace[:-1]))):
                problems.append(f"{tag}: WCM objective trace increases")
    return problems


def summarize(cfg: bs.ExperimentConfig, rows) -> tuple[bs.SweepSummary, ...]:
    """Per-cell means and sample standard deviations, computed independently
    of the harness so that its summary.csv is checked too."""
    cells = []
    for designer in cfg.designers:
        if designer == "wcm":
            cells.extend(("wcm", a) for a in cfg.alpha_grid)
        else:
            cells.append((designer, None))
    out = []
    for designer, alpha in cells:
        cell = [t for t in rows if t.designer == designer and t.alpha == alpha]
        cols = np.array([[t.e, t.r, t.ratio_nu_mu, t.objective] for t in cell], dtype=float)
        mean = cols.mean(axis=0)
        std = cols.std(axis=0, ddof=1) if len(cell) > 1 else np.zeros(4)
        out.append(bs.SweepSummary(
            designer=designer, alpha=alpha, n=len(cell),
            e_mean=float(mean[0]), e_std=float(std[0]),
            r_mean=float(mean[1]), r_std=float(std[1]),
            ratio_mean=float(mean[2]), ratio_std=float(std[2]),
            objective_mean=float(mean[3]), objective_std=float(std[3]),
        ))
    return tuple(out)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def csv_mismatches(path_a: str, path_b: str) -> list[str]:
    """Compare two sweep CSVs: text fields exactly, numbers within tolerance."""
    head_a, rows_a = read_csv(path_a)
    head_b, rows_b = read_csv(path_b)
    name = os.path.basename(path_a)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return [f"{name}: header or row count differs"]
    problems = []
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for col, va, vb in zip(head_a, ra, rb):
            if va == vb:
                continue
            try:
                fa, fb = float(va), float(vb)
            except ValueError:
                problems.append(f"{name} row {i} {col}: {va!r} != {vb!r}")
                continue
            if not abs(fa - fb) <= REPLAY_ATOL + REPLAY_RTOL * abs(fb):
                problems.append(f"{name} row {i} {col}: {va} vs {vb}")
    return problems
