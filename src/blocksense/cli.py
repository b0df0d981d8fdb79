"""Command-line interface.

Subcommands:

* ``design ds``   closed-form baseline sensing matrix
* ``design wcm``  weighted coherence minimization
* ``decode bomp`` block-OMP decoding of measurement columns
* ``sweep``       designer-comparison experiment sweep
* ``histogram``   converged objectives from repeated random starts

Dictionaries and equivalent dictionaries travel as the JSON block-matrix
wrapper; plain matrices (sensing matrices, measurements, coefficients) as
full-precision CSV.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from .bomp import BompConfig, bomp_decode_batch
from .ds import design_ds
from .fileio import (
    load_block_matrix_json,
    load_matrix_csv,
    save_matrix_csv,
    save_table_csv,
)
from .harness import PRESETS, config_from_dict, run_histogram, run_sweep, write_sweep_outputs
from .model import BlockStructure, Dictionary, EquivalentDictionary
from .wcm import INIT_MODES, WcmConfig, run_wcm


def _load_dictionary(path) -> Dictionary:
    matrix, sizes = load_block_matrix_json(path)
    return Dictionary(matrix, BlockStructure(sizes))


def _cmd_design_ds(args) -> int:
    D = _load_dictionary(args.dict)
    A = design_ds(D, args.M)
    save_matrix_csv(args.out, A.matrix)
    print(f"wrote {A.num_measurements} x {A.signal_dim} sensing matrix to {args.out}")
    return 0


def _cmd_design_wcm(args) -> int:
    D = _load_dictionary(args.dict)
    config = WcmConfig(
        alpha=args.alpha,
        max_iters=args.max_iters,
        rel_tol=args.tol,
        init=args.init,
        seed=args.seed,
    )
    report = run_wcm(D, args.M, config)
    save_matrix_csv(args.out, report.sensing.matrix)
    if args.trace is not None:
        trace = np.column_stack((report.objective_trace, report.component_trace))
        header = ["iter", "f", "total_inter", "total_sub", "norm_penalty"]
        save_table_csv(args.trace, header, ((i, *row) for i, row in enumerate(trace)))
    status = "converged" if report.converged else "stopped at max iterations"
    gap = "" if report.gap is None else f", gap {report.gap:.3g} to the lower bound"
    print(
        f"wrote sensing matrix to {args.out}; objective "
        f"{report.objective_trace[-1]:.9g} after {report.iterations} iterations, "
        f"{report.fallbacks} fallbacks{gap} ({status})"
    )
    return 0


def _cmd_decode_bomp(args) -> int:
    matrix, sizes = load_block_matrix_json(args.equiv)
    E = EquivalentDictionary(matrix, BlockStructure(sizes))
    Y = load_matrix_csv(args.measurements)
    theta = bomp_decode_batch(E, Y, BompConfig(k_blocks=args.k))
    save_matrix_csv(args.out, theta)
    print(f"decoded {Y.shape[1]} signal(s) into {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    cfg = config_from_dict(payload, preset=args.preset)
    result = run_sweep(cfg, workers=args.workers)
    write_sweep_outputs(result, cfg, args.out_dir)
    print(f"wrote results.csv, summary.csv, config.echo.json to {args.out_dir}")
    return 0


def _cmd_histogram(args) -> int:
    D = _load_dictionary(args.dict)
    rng = np.random.default_rng(args.seed)
    finals = run_histogram(D, args.M, args.alpha, args.replicates, rng)
    save_table_csv(args.out, ["objective"], finals[:, None])
    print(f"wrote {finals.size} replicate objective(s) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocksense",
        description="Sensing-matrix design and evaluation for block-sparse recovery.",
    )
    parser.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        default="WARNING",
        help="threshold of the blocksense loggers (INFO: one line per sweep trial)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    design = commands.add_parser("design", help="design a sensing matrix")
    methods = design.add_subparsers(dest="method", required=True)

    ds_parser = methods.add_parser("ds", help="closed-form baseline designer")
    ds_parser.add_argument("--dict", required=True, help="dictionary JSON file")
    ds_parser.add_argument("-M", type=int, required=True, help="number of measurements")
    ds_parser.add_argument("--out", required=True, help="output sensing-matrix CSV")
    ds_parser.set_defaults(func=_cmd_design_ds)

    wcm_parser = methods.add_parser("wcm", help="weighted coherence minimization")
    wcm_parser.add_argument("--dict", required=True, help="dictionary JSON file")
    wcm_parser.add_argument("-M", type=int, required=True, help="number of measurements")
    wcm_parser.add_argument("--alpha", type=float, required=True, help="weight in (0, 1)")
    wcm_parser.add_argument("--init", choices=INIT_MODES, default="ds")
    wcm_parser.add_argument("--seed", type=int, default=None, help="seed for random init")
    wcm_parser.add_argument("--max-iters", type=int, default=1000)
    wcm_parser.add_argument("--tol", type=float, default=1e-8)
    wcm_parser.add_argument("--out", required=True, help="output sensing-matrix CSV")
    wcm_parser.add_argument("--trace", default=None, help="optional per-iteration CSV")
    wcm_parser.set_defaults(func=_cmd_design_wcm)

    decode = commands.add_parser("decode", help="decode measurements")
    decoders = decode.add_subparsers(dest="method", required=True)
    bomp_parser = decoders.add_parser("bomp", help="block orthogonal matching pursuit")
    bomp_parser.add_argument("--equiv", required=True, help="equivalent dictionary JSON file")
    bomp_parser.add_argument("--measurements", required=True, help="measurements CSV (M x L)")
    bomp_parser.add_argument("-k", type=int, required=True, help="number of active blocks")
    bomp_parser.add_argument("--out", required=True, help="output coefficients CSV (K x L)")
    bomp_parser.set_defaults(func=_cmd_decode_bomp)

    sweep = commands.add_parser("sweep", help="run a designer-comparison sweep")
    sweep.add_argument("--config", required=True, help="experiment config JSON")
    sweep.add_argument("--out-dir", required=True, help="output directory")
    sweep.add_argument("--preset", choices=tuple(PRESETS), default=None)
    sweep.add_argument("--workers", type=int, default=1, help="process-pool size")
    sweep.set_defaults(func=_cmd_sweep)

    hist = commands.add_parser("histogram", help="objective spread over random starts")
    hist.add_argument("--dict", required=True, help="dictionary JSON file")
    hist.add_argument("-M", type=int, required=True, help="number of measurements")
    hist.add_argument("--alpha", type=float, required=True)
    hist.add_argument("--replicates", type=int, required=True)
    hist.add_argument("--seed", type=int, required=True)
    hist.add_argument("--out", required=True, help="output CSV with one objective per row")
    hist.set_defaults(func=_cmd_histogram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("blocksense").setLevel(args.log_level)
    try:
        return args.func(args)
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
