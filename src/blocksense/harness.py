"""Experiment harness: dictionary generation, block-sparse signal synthesis,
designer comparison sweeps, recovery metrics, and CSV/JSON emission.

Every quantity is derived from ``(seed, trial)`` through independent
`numpy.random.default_rng` streams, so sweeps are fully deterministic no
matter how trials are scheduled: the same config and seed produce
byte-identical CSV output, with or without the process pool. How a trial
designs, decodes and scores its cells: ``run_trial``.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import asdict, astuple, dataclass, fields
from itertools import repeat
from typing import Sequence

import numpy as np

from .bomp import BompConfig, bomp_decode_batch
from .coherence import _Terms, _check_alpha, _equivalent_terms
from .fileio import _number, save_table_csv
from .model import BlockStructure, Dictionary, EquivalentDictionary, _scatter_blocks
from .wcm import WcmConfig, WcmReport, design_ds, run_wcm

_log = logging.getLogger(__name__)

DICT_FAMILIES = ("gaussian", "dct_rows")
DESIGNERS = ("random", "ds", "wcm")

# Named scale presets for sweep configs: the full protocol and a desk-scale
# variant for quick runs.
PRESETS = {
    "full": {"L": 1000, "trials": 100},
    "desk": {"L": 200, "trials": 20},
}

# Per-cell statistics of summary.csv, in column order: a mean and a sample
# standard deviation of each of these TrialResult fields.
_METRICS = ("e", "r", "ratio_nu_mu", "objective")

# Stop tolerance of every run_histogram restart, tighter than WcmConfig's.
_HISTOGRAM_REL_TOL = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep description.

    ``block_sizes`` is either one integer (fixed size, must divide K) or an
    explicit list of sizes summing to K. The given order of ``designers``
    sets the row order; the "wcm" designer expands over ``alpha_grid``.
    Both are lists or tuples; N, K, M, k, L, trials and seed are integers.
    """

    dict_family: str = "gaussian"
    N: int = 60
    K: int = 120
    M: int = 14
    block_sizes: int | tuple[int, ...] = 3
    k: int = 2
    L: int = 1000
    trials: int = 100
    alpha_grid: tuple[float, ...] = (0.5,)
    seed: int = 0
    designers: tuple[str, ...] = ("random", "ds", "wcm")

    def __post_init__(self):
        if self.dict_family not in DICT_FAMILIES:
            raise ValueError(f"dict_family must be one of {DICT_FAMILIES}")
        for key in ("N", "K", "M", "k", "L", "trials", "seed"):
            object.__setattr__(self, key, _number(key, getattr(self, key), int))
        # checked first, so no later message misreads a value out of range
        for key, least in (("M", 1), ("k", 1), ("L", 1), ("trials", 1), ("seed", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")
        for key in ("alpha_grid", "designers"):
            if not isinstance(getattr(self, key), (list, tuple)):
                raise ValueError(f"{key} must be a list, got {getattr(self, key)!r}")
        if isinstance(self.block_sizes, (list, tuple)):
            sizes = tuple(_number("block_sizes", s, int) for s in self.block_sizes)
        else:
            sizes = _number("block_sizes", self.block_sizes, int)
        object.__setattr__(self, "block_sizes", sizes)
        alphas = tuple(_number("alpha_grid", a, float) for a in self.alpha_grid)
        object.__setattr__(self, "alpha_grid", alphas)
        if not (self.M < self.N <= self.K):
            raise ValueError(f"need M < N <= K, got M={self.M}, N={self.N}, K={self.K}")
        designers = tuple(self.designers)
        for d in designers:
            if d not in DESIGNERS:
                raise ValueError(f"unknown designer {d!r}, expected subset of {DESIGNERS}")
        if not designers:
            raise ValueError("at least one designer is required")
        object.__setattr__(self, "designers", designers)
        # a repeated value would pool copies of one cell's trials in summary.csv
        for key, values in (("alpha_grid", alphas), ("designers", designers)):
            if len(set(values)) != len(values):
                raise ValueError(f"{key} repeats a value: {list(values)}")
        if "wcm" in designers:
            if not self.alpha_grid:
                raise ValueError("the wcm designer needs a non-empty alpha_grid")
            for alpha in self.alpha_grid:
                _check_alpha(alpha)
        structure = self.structure()
        if self.k > structure.num_blocks:
            raise ValueError(
                f"k={self.k} exceeds the number of blocks {structure.num_blocks}"
            )
        # Block-OMP refits on the columns of every selected block, which
        # cannot be independent once they outnumber the M measurements.
        widest = sum(sorted(structure.sizes, reverse=True)[: self.k])
        if widest > self.M:
            raise ValueError(
                f"the k={self.k} largest blocks hold {widest} columns, more than "
                f"M={self.M}; block-OMP could not refit them"
            )

    def structure(self) -> BlockStructure:
        if isinstance(self.block_sizes, int):
            s = self.block_sizes
            if s < 1 or self.K % s != 0:
                raise ValueError(f"fixed block size {s} must divide K={self.K}")
            return BlockStructure((s,) * (self.K // s))
        sizes = BlockStructure(self.block_sizes)
        if sizes.num_columns != self.K:
            raise ValueError(
                f"block sizes sum to {sizes.num_columns}, expected K={self.K}"
            )
        return sizes


@dataclass(frozen=True)
class TrialResult:
    """Metrics of one (trial, designer, alpha) cell: normalized representation
    error ``e``, classification rate ``r``, the sub/inter total-coherence
    ratio of the designed equivalent dictionary, and its weighted objective."""

    trial: int
    designer: str
    alpha: float | None
    e: float
    r: float
    ratio_nu_mu: float
    objective: float


@dataclass(frozen=True)
class SweepSummary:
    designer: str
    alpha: float | None
    n: int
    e_mean: float
    e_std: float
    r_mean: float
    r_std: float
    ratio_mean: float
    ratio_std: float
    objective_mean: float
    objective_std: float


@dataclass(frozen=True)
class SweepResult:
    trials: tuple[TrialResult, ...]
    summary: tuple[SweepSummary, ...]


def dct_matrix(K: int) -> np.ndarray:
    """Orthonormal K x K type-II discrete cosine transform matrix."""
    K = _number("K", K, int)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    n = np.arange(K)
    c = np.cos(np.pi * np.outer(n, 2 * n + 1) / (2.0 * K)) * np.sqrt(2.0 / K)
    c[0] /= np.sqrt(2.0)
    return c


def generate_dictionary(cfg: ExperimentConfig, rng: np.random.Generator) -> Dictionary:
    """Draw one dictionary of the configured family with unit-norm columns.

    gaussian: i.i.d. standard normal entries. dct_rows: N distinct rows of
    the K x K orthonormal DCT matrix, drawn uniformly without replacement.
    """
    if cfg.dict_family == "gaussian":
        mat = rng.standard_normal((cfg.N, cfg.K))
    else:
        rows = rng.choice(cfg.K, size=cfg.N, replace=False)
        mat = dct_matrix(cfg.K)[rows]
    mat /= np.linalg.norm(mat, axis=0)
    return Dictionary(mat, cfg.structure())


def _first_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest keys of each row, ascending, equal
    keys by lowest index: the first k columns of the row-wise stable
    argsort. Takes k ``argmin`` passes, each writing +inf over the key it
    chose, so ``keys`` is overwritten; k must not exceed its columns."""
    order = np.empty((len(keys), k), dtype=np.intp)
    rows = np.arange(len(keys))
    for i in range(k):
        # argmin returns the lowest index among equal keys
        order[:, i] = chosen = keys.argmin(axis=1)
        keys[rows, chosen] = np.inf
    return order


def generate_signals(
    D: Dictionary, k: int, L: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize L signals with exactly k active blocks each.

    Active blocks are chosen uniformly without replacement and their
    coefficients drawn i.i.d. uniform on [-1, 1]. Returns (X, Theta) with
    X = D @ Theta. k must be an integer from 1 to the number of blocks and
    L an integer >= 1; any other value raises a ValueError before ``rng``
    is drawn from.

    The whole batch takes two draws from ``rng``: ``rng.random((L, blocks))``,
    whose k smallest keys per row, in their row-wise stable ascending order,
    are the signal's active blocks (``_first_k``); then
    ``rng.uniform(-1, 1, (L, k, s_max))``, one value per slot of each
    active block in the padded layout of ``BlockStructure.columns``, in
    selection order. Values drawn for padding slots are discarded.
    """
    structure = D.structure
    k, L = _number("k", k, int), _number("L", L, int)
    for key, value in (("k", k), ("L", L)):
        if value < 1:
            raise ValueError(f"{key} must be >= 1, got {value}")
    if k > structure.num_blocks:
        raise ValueError(f"k={k} exceeds the number of blocks {structure.num_blocks}")
    blocks = _first_k(rng.random((L, structure.num_blocks)), k)
    values = rng.uniform(-1.0, 1.0, (L, k, structure.padding.shape[1]))
    theta = _scatter_blocks(structure, blocks, values)
    return D.matrix @ theta, theta


def classification_rate(theta_hat: np.ndarray, theta: np.ndarray) -> float:
    """Fraction of the true nonzero coefficient positions that the estimate
    also marks nonzero. Equals 1 exactly when every generating block was
    recognized with fully dense coefficients."""
    theta_hat = np.asarray(theta_hat)
    theta = np.asarray(theta)
    if theta_hat.shape != theta.shape:
        raise ValueError(f"shape mismatch: {theta_hat.shape} vs {theta.shape}")
    true_nonzero = np.count_nonzero(theta)
    if true_nonzero == 0:
        raise ValueError("reference coefficients are identically zero")
    hits = np.count_nonzero((theta_hat != 0) & (theta != 0))
    return hits / true_nonzero


def representation_error(X: np.ndarray, D, theta_hat: np.ndarray) -> float:
    """Normalized reconstruction error ||X - D theta_hat||_F / ||X||_F.

    Both norms are sums that numpy reduces itself, with no temporary the
    size of a contiguous X beyond the residual: ``np.linalg.norm`` of a
    whole array is a BLAS ddot, which OpenBLAS splits across threads from a
    few thousand entries, so its bits would depend on the BLAS thread
    count."""
    x = np.asarray(X, dtype=float)
    d_mat = D.matrix if isinstance(D, Dictionary) else np.asarray(D, dtype=float)
    flat = x.ravel()
    denom = math.sqrt(np.einsum("i,i->", flat, flat))
    if denom == 0.0:
        raise ValueError("signals are identically zero")
    residual = d_mat @ np.asarray(theta_hat, dtype=float)
    np.subtract(x, residual, out=residual)
    np.square(residual, out=residual)
    return math.sqrt(residual.sum()) / denom


def _score(cfg, D, X, theta, a_mat, report) -> tuple[float, float, _Terms]:
    """Decode the trial's signals through sensing matrix ``a_mat`` and return
    the representation error, the classification rate and the penalty
    totals of E = A D, from which every alpha's objective follows. E and its
    totals are read from the ``run_wcm`` report of a wcm design, and formed
    here for a baseline, whose report is None."""
    if report is None:
        E = EquivalentDictionary(a_mat @ D.matrix, D.structure)
        terms = _equivalent_terms(E.matrix, D.structure)
    else:
        E, terms = report.equivalent, _Terms(*map(float, report.component_trace[-1]))
    theta_hat = bomp_decode_batch(E, a_mat @ X, BompConfig(k_blocks=cfg.k))
    return (
        representation_error(X, D, theta_hat),
        classification_rate(theta_hat, theta),
        terms,
    )


def _grid(cfg: ExperimentConfig) -> list[tuple[str, float | None]]:
    """The sweep's (designer, alpha) cells in output order: "wcm" expands
    over ``alpha_grid``, the baselines have no alpha."""
    return [
        (designer, alpha)
        for designer in cfg.designers
        for alpha in (cfg.alpha_grid if designer == "wcm" else (None,))
    ]


def _design(cfg: ExperimentConfig, trial: int, D: Dictionary, designer: str,
            alpha) -> tuple[np.ndarray, WcmReport | None]:
    """Sensing matrix A of one (designer, alpha) cell of a trial, with the
    ``run_wcm`` report of a wcm cell (None for the baselines)."""
    if designer == "random":
        # stream keyed off the trial stream so designer order cannot matter
        return np.random.default_rng([cfg.seed, trial, 7919]).standard_normal((cfg.M, cfg.N)), None
    if designer == "ds":
        return design_ds(D, cfg.M).matrix, None
    report = run_wcm(D, cfg.M, WcmConfig(alpha=alpha))
    return report.sensing.matrix, report


def run_trial(cfg: ExperimentConfig, trial: int) -> list[TrialResult]:
    """Run one trial: draw data, then design with every configured method,
    decoding and scoring each distinct sensing matrix once. Deterministic in
    (cfg.seed, trial). Logs the trial's cell count and wall time at INFO.

    The wcm cells are designed first, then the baselines, each in grid
    order; rows still come out in grid order. Each design is scored as soon
    as it is made (``_score``), unless an earlier design was equal to it, so
    the ds cell and the wcm cell at alpha = 1/2 share one decode and the
    report's E whichever designer comes first, and each cell weighs the
    shared penalty totals at its own alpha. Designs are matched on the
    SHA-256 of A's bytes, and no design is kept after its own score.
    """
    # imported here, like the pool in run_sweep, so that CLI commands that
    # run no trial do not pay for importing it
    import hashlib

    start = time.perf_counter()
    rng = np.random.default_rng([cfg.seed, trial])
    D = generate_dictionary(cfg, rng)
    X, theta = generate_signals(D, cfg.k, cfg.L, rng)
    cells = _grid(cfg)
    keys = [None] * len(cells)  # SHA-256 of each cell's A: equal designs share one score
    scores = {}  # key -> (e, r, totals)
    for i in sorted(range(len(cells)), key=lambda i: cells[i][0] != "wcm"):
        a_mat, report = _design(cfg, trial, D, *cells[i])
        keys[i] = key = hashlib.sha256(a_mat.tobytes()).digest()
        if key not in scores:
            scores[key] = _score(cfg, D, X, theta, a_mat, report)
        del a_mat, report  # not held through the next design
    rows = []
    for (designer, alpha), key in zip(cells, keys):
        e, r, terms = scores[key]
        rows.append(TrialResult(
            trial=trial,
            designer=designer,
            alpha=alpha,
            e=e,
            r=r,
            ratio_nu_mu=terms.sub / terms.inter if terms.inter > 0.0 else float("inf"),
            # baselines without an alpha of their own are scored at the neutral 0.5
            objective=terms.objective(0.5 if alpha is None else alpha),
        ))
    _log.info("trial %d: %d cells in %.3f s", trial, len(rows), time.perf_counter() - start)
    return rows


def _summarize(cfg: ExperimentConfig, rows: Sequence[TrialResult]) -> tuple[SweepSummary, ...]:
    out = []
    for designer, alpha in _grid(cfg):
        cell = [t for t in rows if t.designer == designer and t.alpha == alpha]
        stats = []
        for metric in _METRICS:
            arr = np.asarray([getattr(t, metric) for t in cell], dtype=float)
            stats += [float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0]
        out.append(SweepSummary(designer, alpha, len(cell), *stats))
    return tuple(out)


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Run every trial of the sweep and aggregate per grid point.

    Parameters
    ----------
    cfg : ExperimentConfig
        Sweep description.
    workers : int
        Size of the process pool, an integer >= 1, capped at one worker per
        trial; 1 runs trials inline. Results are identical either way because
        each trial owns its own seeded generator and rows are assembled in
        trial order. Any other value raises a ValueError before a trial runs.
    """
    workers = _number("workers", workers, int)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, cfg.trials)
    if workers == 1:
        per_trial = [run_trial(cfg, t) for t in range(cfg.trials)]
    else:
        # imported here, so that serial runs and CLI commands do not pay for
        # importing the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(run_trial, repeat(cfg), range(cfg.trials)))
    rows = tuple(row for trial_rows in per_trial for row in trial_rows)
    return SweepResult(trials=rows, summary=_summarize(cfg, rows))


def run_histogram(
    D: Dictionary,
    M: int,
    alpha: float,
    replicates: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Converged objective values of ``replicates`` >= 1 randomly-initialized runs.

    The spread of the returned values indicates whether distinct local optima
    were reached from different starts.
    """
    replicates = _number("replicates", replicates, int)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    finals = np.empty(replicates)
    for i in range(replicates):
        seed = int(rng.integers(0, 2**63 - 1))
        config = WcmConfig(alpha=alpha, init="random", seed=seed, rel_tol=_HISTOGRAM_REL_TOL)
        finals[i] = run_wcm(D, M, config).objective_trace[-1]
    return finals


def write_sweep_outputs(result: SweepResult, cfg: ExperimentConfig, out_dir) -> None:
    """Emit results.csv (per-trial rows), summary.csv (per grid point), and
    config.echo.json into ``out_dir``. The columns of both CSVs follow the
    fields of TrialResult and SweepSummary; the echo is the config's fields."""
    os.makedirs(out_dir, exist_ok=True)
    columns = [f.name for f in fields(TrialResult)]
    save_table_csv(os.path.join(out_dir, "results.csv"), columns, map(astuple, result.trials))
    # SweepSummary's cell fields, then a mean and a std column per metric
    columns = [f.name for f in fields(SweepSummary)[: -2 * len(_METRICS)]]
    columns += [f"{m}_{stat}" for m in _METRICS for stat in ("mean", "std")]
    save_table_csv(os.path.join(out_dir, "summary.csv"), columns, map(astuple, result.summary))
    with open(os.path.join(out_dir, "config.echo.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_from_dict(payload: dict, preset: str | None = None) -> ExperimentConfig:
    """Build a config from parsed JSON, optionally filling scale defaults
    from a named preset before the explicit values are applied."""
    if not isinstance(payload, dict):
        raise ValueError(f"config must be a JSON object, got {type(payload).__name__}")
    merged: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}, expected one of {tuple(PRESETS)}")
        merged.update(PRESETS[preset])
    known = set(ExperimentConfig.__dataclass_fields__)
    for key, value in payload.items():
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        merged[key] = value
    return ExperimentConfig(**merged)
