"""Reference kernels that time the machine rather than the program.

The benchmark shares a few cores with other tenants of its host, whose speed
drifts by tens of percent over minutes, so the wall time of one sweep says as
much about the neighbours as about blocksense. Each workload therefore times
a fixed numpy kernel shaped like its hot path right before and right after
every sweep, and reports the sweep's wall time in units of that kernel's
(``sweep_rel`` in run.py). The kernels call numpy only, never blocksense, and
draw their inputs from a fixed seed: a change to the program cannot move
them, while a change in the machine's speed moves both sides of the ratio.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SEED = 20240601
REPEATS = 3


def _block_omp(rng, m, sizes, k, signals):
    """Greedy block selection with a least-squares refit, one signal at a
    time: the Python loop of matvecs and small SVDs that block-OMP runs."""
    offsets = np.cumsum([0] + sizes)
    E = rng.standard_normal((m, offsets[-1]))
    et = np.ascontiguousarray(E.T)
    Y = rng.standard_normal((m, signals))

    def run():
        for y in Y.T:
            r, cols, used = y, [], np.zeros(len(sizes), dtype=bool)
            for _ in range(k):
                c = et @ r
                scores = np.add.reduceat(c * c, offsets[:-1])
                scores[used] = -1.0
                best = int(np.argmax(scores))
                used[best] = True
                cols.extend(range(offsets[best], offsets[best + 1]))
                es = E[:, cols]
                u, s, vt = np.linalg.svd(es, full_matrices=False)
                r = y - es @ (vt.T @ ((u.T @ y) / s))

    return run


def _wcm(rng):
    """Gram, masked sums and a symmetric eigendecomposition per step: the
    WCM iteration at desk-sweep's shape (N=60, K=120, M=14, blocks of 3)."""
    n, k, m = 60, 120, 14
    D = rng.standard_normal((n, k)) / np.sqrt(n)
    labels = np.arange(k) // 3
    cross = labels[:, None] != labels[None, :]
    a0 = rng.standard_normal((m, n))

    def run():
        a = a0
        for _ in range(150):
            e = a @ D
            g = e.T @ e
            g = (g + g.T) / 2.0
            float(np.sum(g[cross] ** 2) + np.sum(g[~cross] ** 2))
            w, v = np.linalg.eigh(D @ np.where(cross, 0.5 * g, g) @ D.T)
            a = (v[:, -m:] * np.sqrt(np.abs(w[-m:]))).T
            a /= np.linalg.norm(a)

    return run


def _k1200(rng):
    """The three kinds of work in a scale-k1200 trial (M=140, K=1200, blocks
    of 3): dense algebra (a K x K Gram with masked sums, a symmetric
    eigensolve), block-OMP with k=8, and the spectral norm of 3 x 3
    off-diagonal Gram blocks one pair at a time, as coherence_report does."""
    decode = _block_omp(rng, 140, [3] * 400, 8, 20)
    E = rng.standard_normal((140, 1200))
    cross = (np.arange(1200) // 3)[:, None] != (np.arange(1200) // 3)[None, :]
    b = rng.standard_normal((300, 300))
    S = b @ b.T

    def run():
        for _ in range(2):
            g = E.T @ E
            float(np.sum(g[cross] ** 2))
            np.linalg.eigvalsh(S)
        decode()
        for i in range(0, 24, 3):
            for j in range(i + 3, 1200, 3):
                blk = g[i:i + 3, j:j + 3]
                np.linalg.eigvalsh(blk.T @ blk)[-1]

    return run


KERNELS = {
    "decode-mixed": lambda rng: _block_omp(rng, 20, [2, 3, 4] * 14, 3, 600),
    "desk-sweep": _wcm,
    "scale-k1200": _k1200,
}


class Yardstick:
    """The reference kernel of one workload, built once and warmed up.
    Calling it returns the median wall time of REPEATS runs in seconds: a
    burst of contention that stalls one short run is left out, while a
    slowdown lasting seconds, which the sweeps feel too, is kept."""

    def __init__(self, workload: str):
        self._run = KERNELS[workload](np.random.default_rng(SEED))
        self._run()

    def __call__(self) -> float:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)
