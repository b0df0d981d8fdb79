#!/usr/bin/env python3
"""Layered sweep benchmark for blocksense.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 20 --trace 0

One run of one workload:

1. the timed loop, until ``--seconds`` is used and at least three times:
   - set-up: a fresh interpreter imports ``blocksense`` and gets as far as
     ``blocksense sweep`` does before ``run_sweep``; ``setup_s`` is the
     median of these in-process timings;
   - the sweep: ``blocksense.cli.main(["sweep", ..., "--workers", "1"])``
     in-process, one after another (a closed loop), after one untimed
     warm-up sweep whose output is the reference; every repetition must
     write byte-identical ``results.csv`` and ``summary.csv``;
   - the workload's reference kernel (yardstick.py), timed right before and
     right after every sweep. ``sweep_rel`` is the median over the sweeps
     of the sweep's wall time over the mean of its two reference times. The
     host's speed drifts by tens of percent between runs and moves both
     sides of that ratio, while a change to blocksense moves only the
     sweep. The plain median wall time is printed as ``sweep_s`` and
     reported per layer as ``cli.sweep_s``;
2. the replay: every trial again, one public call at a time, with a span
   around each call (see replay.py), then contract checks on what it
   produced and a comparison of its CSVs with the sweep's;
3. with ``--trace 1`` only: a coherence_report probe on every designed E, a
   wcm_step probe, and, on a workload with ``pool_workers``, the same sweep
   once on the process pool, which must match the loop's output byte for
   byte.

The last line of standard output is one JSON object; ``--trace 0`` reports
the end-to-end metrics, which come from the untraced loop, and ``--trace 1``
the per-layer metrics, which come from the replay and probes. Everything
else a run records (machine, spans, problems) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>/record.json``.

Layers are the package's modules. ``model`` has no spans of its own and is
measured through its callers; ``fileio`` is not on the sweep path and is
unmeasured. BLAS thread variables are recorded but never set.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import machine
import opcounts
from tracer import Tracer, duration
from workloads import ALPHAS, WORKLOADS
from yardstick import Yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_REPS = 3
STEP_PROBES = 3
SWEEP_FILES = ("results.csv", "summary.csv")
END_TO_END = {
    "setup_s": "s",
    "sweep_rel": "x",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
    "objective_mean": "1",
    "r_mean": "1",
}

PER_LAYER = {
    "harness.trial_s_p50": "s",
    "harness.trials": "count",
    "harness.synth_dict_s": "s",
    "harness.synth_signals_s": "s",
    "harness.score_s": "s",
    "harness.csv_write_s": "s",
    "harness.csv_bytes": "B",
    "harness.pool_speedup": "x",
    "harness.pool_efficiency": "ratio",
    "harness.synth_share": "ratio",
    "harness.score_share": "ratio",
    # Not end to end: scale-k1200 recovers every signal exactly on most seeds
    # (e ~ 1e-15) and misses one on a few (e ~ 0.01), so across seeds it has
    # no stable median to bound.
    "harness.e_mean": "1",
    "ds.design_s": "s",
    "ds.share": "ratio",
    **{
        f"wcm.{name}.a{a}": unit
        for a in ALPHAS
        for name, unit in (
            ("design_s", "s"),
            ("iterations", "count"),
            ("unconverged_frac", "ratio"),
            ("final_objective", "1"),
            ("ms_per_iter_computed", "ms"),
        )
    },
    "wcm.share": "ratio",
    "wcm.step_s": "s",
    "wcm.step_gflop_computed": "GFLOP",
    "wcm.step_bytes_computed": "B",
    "wcm.step_flop_per_byte_computed": "flop/B",
    "coherence.report_s": "s",
    "coherence.objective_s": "s",
    "bomp.decode_s": "s",
    "bomp.us_per_signal": "us",
    "bomp.signals": "count",
    "bomp.rank_deficient": "ratio",
    "bomp.gflop_computed": "GFLOP",
    "bomp.flop_per_signal_computed": "flop",
    "bomp.bytes_per_signal_computed": "B",
    "bomp.flop_per_byte_computed": "flop/B",
    "bomp.share": "ratio",
    "cli.sweep_s": "s",
    "trace.coverage_p50": "ratio",
    "trace.coverage_min": "ratio",
    "trace.uncovered_s_p50": "s",
    "trace.overhead_frac": "ratio",
}

# Runs in a fresh interpreter: everything `blocksense sweep` does before
# run_sweep starts, timed from before the first import.
SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import json, sys
from blocksense import cli, harness
args = cli.build_parser().parse_args(["sweep", "--config", sys.argv[1], "--out-dir", sys.argv[2]])
with open(args.config, encoding="utf-8") as fh:
    harness.config_from_dict(json.load(fh), preset=args.preset)
print(time.perf_counter() - t0)
"""


class Tally:
    """Sweeps attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def probe_setup(cfg_path: str, out_dir: str) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, cfg_path, out_dir],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def cli_sweep(cfg_path: str, out_dir: str, workers: int) -> tuple[float, list[str]]:
    """One `blocksense sweep` through the CLI entry point, in-process."""
    from blocksense import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    captured = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = cli.main(["sweep", "--config", cfg_path, "--out-dir", out_dir,
                           "--workers", str(workers)])
    except Exception:  # noqa: BLE001 - a crashing sweep is a counted failure
        return time.perf_counter() - t0, [traceback.format_exc(limit=3)]
    elapsed = time.perf_counter() - t0
    return elapsed, [] if rc == 0 else [f"exit code {rc}: {captured.getvalue().strip()}"]


def same_bytes(dir_a: str, dir_b: str) -> list[str]:
    return [
        f"{name} differs from {os.path.basename(dir_a)}"
        for name in SWEEP_FILES
        if not filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False)
    ]


def timed_loop(cfg_path, out, seconds, tally, reference):
    """Repeat set-up probe and sweep until `seconds` is used.

    The first sweep is an untimed warm-up whose output is the reference for
    the byte checks. Every timed sweep is bracketed by two runs of the
    `reference` kernel. Returns the set-up times, the wall times of the good
    timed sweeps with the mean reference time around each, the directory
    of the reference output, and the process's peak resident memory in MiB
    through the warm-up sweep. Later sweeps are left out of the peak because
    heap growth across repetitions would make it depend on how many fit in
    `seconds`."""
    start = time.perf_counter()
    ref = os.path.join(out, "sweep-ref")
    rep = os.path.join(out, "sweep-rep")
    setup, good = [probe_setup(cfg_path, os.path.join(out, "probe"))], []
    _, problems = cli_sweep(cfg_path, ref, 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not tally.record("warm-up sweep", problems):
        return setup, good, ref, peak_rss_mb
    refs, cycles = [reference()], []
    while len(cycles) < MIN_REPS or (
        time.perf_counter() - start + statistics.median(cycles) <= seconds
    ):
        t0 = time.perf_counter()
        elapsed, problems = cli_sweep(cfg_path, rep, 1)
        refs.append(reference())
        setup.append(probe_setup(cfg_path, os.path.join(out, "probe")))
        cycles.append(time.perf_counter() - t0)
        if tally.record(f"sweep {len(cycles)}", problems or same_bytes(ref, rep)):
            good.append((elapsed, (refs[-2] + refs[-1]) / 2.0))
    return setup, good, ref, peak_rss_mb


def replay_sweep(cfg, out, ref, tracer, tally, probes: bool):
    """Replay every trial with spans, check contracts, compare CSVs.

    Returns per-design probe records (empty unless ``probes``)."""
    import blocksense as bs
    import replay as rp

    designs, rows, problems = [], [], []
    try:
        for trial in range(cfg.trials):
            trial_rows, artifacts = rp.replay_trial(cfg, trial, tracer)
            rows.extend(trial_rows)
            problems += [f"trial {trial} {p}" for p in rp.check_trial(cfg, artifacts)]
            if not probes:
                continue
            for art in artifacts:
                if art["designer"] == "random":
                    continue
                t0 = time.perf_counter()
                bs.coherence_report(art["E"], alpha=art["alpha"])
                designs.append({"designer": art["designer"], "alpha": art["alpha"],
                                "report_s": time.perf_counter() - t0})
        replay_dir = os.path.join(out, "replay")
        with tracer.span("write_sweep_outputs", "harness"):
            bs.write_sweep_outputs(bs.SweepResult(tuple(rows), rp.summarize(cfg, rows)),
                                   cfg, replay_dir)
        for name in SWEEP_FILES:
            problems += rp.csv_mismatches(os.path.join(replay_dir, name), os.path.join(ref, name))
    except Exception:  # noqa: BLE001 - a crashing replay is a counted failure
        problems.append(traceback.format_exc(limit=3))
    tally.record("replay", problems)
    return designs


def summary_means(ref: str) -> dict:
    """Quality guards from summary.csv: the mean objective of the designed
    (ds, wcm) cells, since the random cell's ~1e5 would hide any design
    change, and the mean recovery and error over all cells."""
    import replay as rp

    head, rows = rp.read_csv(os.path.join(ref, "summary.csv"))
    col = {name: i for i, name in enumerate(head)}
    designed = [r for r in rows if r[col["designer"]] != "random"]
    return {
        "objective_mean": statistics.fmean(float(r[col["objective_mean"]]) for r in designed),
        "r_mean": statistics.fmean(float(r[col["r_mean"]]) for r in rows),
        "e_mean": statistics.fmean(float(r[col["e_mean"]]) for r in rows),
    }


def _median(values):
    """Median, or 0 for a layer the workload does not exercise."""
    return statistics.median(values) if values else 0.0


def layer_metrics(cfg, tracer, designs, sweep_s, pool, replay_dir, step_probe) -> dict:
    """Per-layer metrics from the replay's spans, the probes and the
    computed operation counts. A layer the workload does not exercise
    reads 0."""
    trials = tracer.select(name="trial")
    trial_s = [duration(t) for t in trials]
    total = sum(trial_s)

    def per_trial(name):
        return [sum(duration(s) for s in tracer.select(name=name, trial=t["trial"]))
                for t in trials]

    def share(*names):
        return sum(sum(per_trial(n)) for n in names) / total

    covered = [sum(duration(c) for c in tracer.children(t)) for t in trials]
    m = {
        "harness.trial_s_p50": _median(trial_s),
        "harness.trials": len(trials),
        "harness.synth_dict_s": _median(per_trial("generate_dictionary")),
        "harness.synth_signals_s": _median(per_trial("generate_signals")),
        "harness.score_s": _median(per_trial("score")),
        "harness.synth_share": share("generate_dictionary", "generate_signals"),
        "harness.score_share": share("score"),
        "ds.design_s": _median([duration(s) for s in tracer.select(name="design_ds")]),
        "ds.share": share("design_ds"),
        "wcm.share": share("run_wcm"),
        "bomp.share": share("bomp_decode_batch"),
        "trace.coverage_p50": _median([c / t for c, t in zip(covered, trial_s)]),
        "trace.coverage_min": min(c / t for c, t in zip(covered, trial_s)),
        "trace.uncovered_s_p50": _median([t - c for c, t in zip(covered, trial_s)]),
    }

    write = tracer.select(name="write_sweep_outputs")
    m["harness.csv_write_s"] = duration(write[0])
    m["harness.csv_bytes"] = sum(
        os.path.getsize(os.path.join(replay_dir, f)) for f in os.listdir(replay_dir))
    m["harness.pool_speedup"], m["harness.pool_efficiency"] = pool
    m["cli.sweep_s"] = sweep_s
    m["trace.overhead_frac"] = (total + duration(write[0])) / sweep_s - 1.0

    for a in ALPHAS:
        runs = tracer.select(name="run_wcm", alpha=a)
        probed = [d for d in designs if d["designer"] == "wcm" and d["alpha"] == a]
        m[f"wcm.design_s.a{a}"] = _median([duration(s) for s in runs])
        m[f"wcm.iterations.a{a}"] = statistics.fmean(s["iterations"] for s in runs) if runs else 0
        m[f"wcm.unconverged_frac.a{a}"] = (
            sum(not s["converged"] for s in runs) / len(runs) if runs else 0.0)
        m[f"wcm.final_objective.a{a}"] = (
            statistics.fmean(s["final_objective"] for s in runs) if runs else 0.0)
        m[f"wcm.ms_per_iter_computed.a{a}"] = _median([
            1e3 * (duration(s) - d["report_s"]) / s["iterations"] for s, d in zip(runs, probed)
        ])

    step_flop, step_bytes = opcounts.wcm_step(cfg.M, cfg.N, cfg.K)
    m["wcm.step_s"] = step_probe
    m["wcm.step_gflop_computed"] = step_flop / 1e9
    m["wcm.step_bytes_computed"] = step_bytes
    m["wcm.step_flop_per_byte_computed"] = step_flop / step_bytes

    m["coherence.report_s"] = _median([d["report_s"] for d in designs])
    m["coherence.objective_s"] = _median(
        [duration(s) for s in tracer.select(name="weighted_objective")])

    decodes = tracer.select(name="bomp_decode_batch")
    signals = sum(s["signals"] for s in decodes)
    flop, nbytes = opcounts.bomp_signal(cfg.M, cfg.K, cfg.k, cfg.K / cfg.structure().num_blocks)
    m["bomp.decode_s"] = _median(per_trial("bomp_decode_batch"))
    m["bomp.us_per_signal"] = 1e6 * sum(duration(s) for s in decodes) / signals
    m["bomp.signals"] = signals
    m["bomp.rank_deficient"] = tracer.counts["bomp.rank_deficient"] / len(decodes)
    m["bomp.gflop_computed"] = signals * flop / 1e9
    m["bomp.flop_per_signal_computed"] = flop
    m["bomp.bytes_per_signal_computed"] = nbytes
    m["bomp.flop_per_byte_computed"] = flop / nbytes
    return m


def wcm_step_probe(cfg) -> float:
    """Median wall time of one public wcm_step call at the workload's shape."""
    import numpy as np
    import blocksense as bs

    D = bs.generate_dictionary(cfg, np.random.default_rng([cfg.seed, 0]))
    A = bs.design_ds(D, cfg.M)
    times = []
    for _ in range(STEP_PROBES):
        t0 = time.perf_counter()
        bs.wcm_step(A, D, 0.5)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered blocksense sweep benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny configs for checking the benchmark itself")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "blocksense", "__init__.py")):
        print(f"perfbench: no blocksense package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cfg_dict = workload.config(args.seed, args.size)
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg_dict, fh, indent=1)

    from blocksense.harness import config_from_dict

    env = machine.describe(ROOT)
    cfg = config_from_dict(cfg_dict)
    tally = Tally()

    reference = Yardstick(args.workload)
    setup, good, ref, peak_rss_mb = timed_loop(cfg_path, out, args.seconds, tally, reference)
    if not good:
        print("perfbench: every sweep failed:\n" + "\n".join(tally.problems), file=sys.stderr)
        return 1
    sweep_s = statistics.median(t for t, _ in good)
    reference_s = statistics.median(r for _, r in good)

    tracer = Tracer()
    designs = replay_sweep(cfg, out, ref, tracer, tally, probes=bool(args.trace))

    # (speedup, efficiency) of the process pool; 0 where it is not exercised.
    pool = (0.0, 0.0)
    if args.trace and workload.pool_workers:
        pool_dir = os.path.join(out, "sweep-pool")
        pool_s, problems = cli_sweep(cfg_path, pool_dir, workload.pool_workers)
        if tally.record(f"sweep at --workers {workload.pool_workers}",
                        problems or same_bytes(ref, pool_dir)):
            pool = (sweep_s / pool_s, sweep_s / pool_s / workload.pool_workers)
    quality = summary_means(ref)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "sweep_rel": statistics.median(t / r for t, r in good),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "objective_mean": quality["objective_mean"],
        "r_mean": quality["r_mean"],
    }
    metrics, units = end_to_end, END_TO_END
    layers = {}
    if args.trace:
        layers = layer_metrics(cfg, tracer, designs, sweep_s, pool,
                               os.path.join(out, "replay"), wcm_step_probe(cfg))
        layers["harness.e_mean"] = quality["e_mean"]
        metrics, units = layers, PER_LAYER

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(good)} timed sweeps, {tally.attempted} attempted, {tally.failed} failed")
    for key, value in env.items():
        print(f"  env.{key} = {value}")
    print(f"  failed_frac = {tally.failed / tally.attempted!r} ratio")
    print(f"  sweep_s = {sweep_s!r} s")
    print(f"  reference_s = {reference_s!r} s")
    for name, value in {**end_to_end, **layers}.items():
        print(f"  {name} = {value!r} {END_TO_END.get(name) or PER_LAYER[name]}")
    print("  model: measured through its callers (no spans inside the package)")
    print("  fileio: unmeasured (not on the sweep path)")
    for problem in tally.problems:
        print(f"  FAILED {problem}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "config": cfg_dict, "env": env, "setup_samples_s": setup,
        "sweep_samples_s": [t for t, _ in good], "reference_samples_s": [r for _, r in good],
        "end_to_end": end_to_end, "per_layer": layers, "problems": tally.problems,
        "counts": dict(tracer.counts), "spans": tracer.spans,
    }
    with open(os.path.join(out, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
