"""Benchmark workloads: sweep configs generated from a workload seed.

Each workload is a closed loop from one process: the benchmark runs one
``blocksense sweep`` after another and never overlaps two. The seed is a
benchmark argument; the program only ever sees the generated config file.
"""

from __future__ import annotations

from dataclasses import dataclass

ALPHAS = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class Workload:
    """A sweep config without its seed, at full and at smoke-test size. When
    ``pool_workers`` is set, the traced run also times the same sweep on that
    many processes."""

    name: str
    full: dict
    smoke: dict
    pool_workers: int = 0

    def config(self, seed: int, size: str) -> dict:
        base = self.full if size == "full" else self.smoke
        return {**base, "seed": int(seed)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-sweep",
            full=dict(
                dict_family="gaussian", N=60, K=120, M=14, block_sizes=3, k=2, L=200,
                trials=2, alpha_grid=list(ALPHAS), designers=["random", "ds", "wcm"],
            ),
            smoke=dict(
                dict_family="gaussian", N=12, K=24, M=6, block_sizes=3, k=2, L=8,
                trials=2, alpha_grid=list(ALPHAS), designers=["random", "ds", "wcm"],
            ),
            pool_workers=2,
        ),
        # Not listed in BENCHMARK.json: its many tiny BLAS calls made its
        # sweep time too unsteady between runs on a shared 2-vCPU host (see
        # CHANGES.md), so it is kept for manual runs and the smoke test.
        Workload(
            name="decode-mixed",
            full=dict(
                dict_family="dct_rows", N=60, K=126, M=20, block_sizes=[2, 3, 4] * 14,
                k=3, L=5000, trials=2, designers=["random", "ds"],
            ),
            smoke=dict(
                dict_family="dct_rows", N=12, K=18, M=8, block_sizes=[2, 3, 4] * 2,
                k=2, L=20, trials=2, designers=["random", "ds"],
            ),
        ),
        Workload(
            name="scale-k1200",
            full=dict(
                dict_family="gaussian", N=600, K=1200, M=140, block_sizes=3, k=8,
                L=500, trials=1, alpha_grid=[0.5], designers=["ds", "wcm"],
            ),
            smoke=dict(
                dict_family="gaussian", N=30, K=60, M=14, block_sizes=3, k=2,
                L=20, trials=1, alpha_grid=[0.5], designers=["ds", "wcm"],
            ),
        ),
    )
}
