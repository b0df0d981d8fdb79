"""Computed operation counts and bytes for the two numeric kernels.

These are models, not measurements: flops follow the textbook counts for
each dense operation, and bytes count every operand read and every result
written once, in float64, so cache misses are ignored. No peak rate or
bandwidth was measured, so operations per byte is reported without a
roofline ratio.
"""

from __future__ import annotations

F64 = 8


def gemm(m: int, k: int, n: int) -> tuple[float, float]:
    """(m x k) @ (k x n)."""
    return 2.0 * m * k * n, F64 * (m * k + k * n + m * n)


def eigh(n: int) -> tuple[float, float]:
    """Symmetric eigendecomposition with vectors, ~9 n^3 (Golub & Van Loan)."""
    return 9.0 * n**3, F64 * (2 * n * n + n)


def thin_svd(m: int, n: int) -> tuple[float, float]:
    """Thin SVD of an m x n matrix, m >= n: 6 m n^2 + 20 n^3 (R-SVD)."""
    return 6.0 * m * n * n + 20.0 * n**3, F64 * (2 * m * n + n * n + n)


def _total(parts) -> tuple[float, float]:
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def wcm_step(M: int, N: int, K: int) -> tuple[float, float]:
    """One ``wcm_step`` call: the whitening basis (D D', its eigh, W D) and
    the step itself (E = A D, G = E'E, W D T (W D)', its eigh, and the
    rank-M factor times W). Elementwise mask work is left out."""
    return _total([
        gemm(N, K, N), eigh(N), gemm(N, N, K),
        gemm(M, N, K), gemm(K, M, K), gemm(N, K, K), gemm(N, K, N), eigh(N),
        gemm(M, N, N),
    ])


def bomp_signal(M: int, K: int, k: int, mean_block: float) -> tuple[float, float]:
    """One signal through k block-OMP iterations with a full refit each time:
    correlation E'r, the thin SVD of the selected M x c columns, the
    coefficient solve and the residual. c grows by the mean block size."""
    parts = []
    for t in range(1, k + 1):
        c = max(1, round(t * mean_block))
        parts += [gemm(K, M, 1), thin_svd(M, c), gemm(c, M, 1), gemm(c, c, 1), gemm(M, c, 1)]
    return _total(parts)
