"""Block orthogonal matching pursuit.

Greedy decoder for block-sparse representations: at each of exactly
``k_blocks`` iterations it selects the block whose columns correlate most with
the current residual (ties broken toward the lowest block index), then
re-solves the coefficients by least squares over the union of all selected
blocks and recomputes the residual. This is the fully re-orthogonalized
variant, so after the final iteration the residual is orthogonal to every
selected column. Columns are used exactly as given, without re-normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BlockSparseVector, EquivalentDictionary


@dataclass(frozen=True)
class BompConfig:
    """Decoder settings: number of blocks to select and the relative
    singular-value threshold below which a stacked sub-dictionary is
    rejected as rank deficient."""

    k_blocks: int
    ls_tol: float = 1e-10

    def __post_init__(self):
        if int(self.k_blocks) < 1:
            raise ValueError(f"k_blocks must be >= 1, got {self.k_blocks}")
        if not float(self.ls_tol) >= 0.0:
            raise ValueError(f"ls_tol must be non-negative, got {self.ls_tol}")


class RankDeficientSupportError(np.linalg.LinAlgError):
    """Raised when the columns of the selected blocks are numerically
    dependent, naming the offending support."""

    def __init__(self, support, signal: int | None = None):
        self.support = tuple(int(j) for j in support)
        self.signal = signal
        where = "" if signal is None else f" while decoding signal {signal}"
        super().__init__(
            f"selected block support {self.support} is numerically rank deficient{where}"
        )


def _bomp_batch(E, offsets, Y, k, ls_tol):
    """Decode every column of Y against E, one signal at a time.

    Returns (theta, supports): the K x L coefficient matrix and the k x L
    selected block indices in selection order. Raises
    RankDeficientSupportError at the first signal whose stacked
    sub-dictionary fails the conditioning check.
    """
    m_rows, n_cols = E.shape
    n_blocks = offsets.shape[0] - 1
    n_signals = Y.shape[1]
    et = np.ascontiguousarray(E.T)
    theta = np.zeros((n_cols, n_signals))
    supports = np.full((k, n_signals), -1, dtype=np.int64)

    for sig in range(n_signals):
        y = Y[:, sig].copy()
        r = y.copy()
        used = np.zeros(n_blocks, dtype=bool)
        cols: list[int] = []
        for t in range(k):
            c = et @ r
            scores = np.add.reduceat(c * c, offsets[:-1])
            scores[used] = -1.0
            best = int(np.argmax(scores))
            used[best] = True
            supports[t, sig] = best
            cols.extend(range(int(offsets[best]), int(offsets[best + 1])))
            es = E[:, cols]
            u, s, vt = np.linalg.svd(es, full_matrices=False)
            if len(cols) > m_rows or s[-1] <= ls_tol * s[0]:
                raise RankDeficientSupportError(supports[: t + 1, sig], signal=sig)
            coef = vt.T @ ((u.T @ y) / s)
            r = y - es @ coef
        theta[cols, sig] = coef
    return theta, supports


def _check_batch(E: EquivalentDictionary, Y: np.ndarray, cfg: BompConfig) -> np.ndarray:
    y = np.asarray(Y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"measurements must be 2-D (one column per signal), got {y.shape}")
    if y.shape[0] != E.num_measurements:
        raise ValueError(
            f"measurements have {y.shape[0]} rows, equivalent dictionary has "
            f"{E.num_measurements}"
        )
    if cfg.k_blocks > E.structure.num_blocks:
        raise ValueError(
            f"k_blocks={cfg.k_blocks} exceeds the number of blocks "
            f"{E.structure.num_blocks}"
        )
    return y


def bomp_decode_batch(E: EquivalentDictionary, Y, cfg: BompConfig) -> np.ndarray:
    """Decode every column of Y, returning the K x L coefficient matrix."""
    y = _check_batch(E, Y, cfg)
    theta, _ = _bomp_batch(E.matrix, E.structure.offsets, y, int(cfg.k_blocks), float(cfg.ls_tol))
    return theta


def bomp_decode(E: EquivalentDictionary, y, cfg: BompConfig) -> BlockSparseVector:
    """Decode a single measurement vector into a block-sparse coefficient vector.

    The result has exactly ``cfg.k_blocks`` blocks in its support; the
    coefficients on that support are the least-squares fit of y, so the final
    residual is orthogonal to all selected columns.
    """
    vec = np.asarray(y, dtype=float)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-D measurement vector, got shape {vec.shape}")
    batch = _check_batch(E, vec[:, None], cfg)
    theta, supports = _bomp_batch(
        E.matrix, E.structure.offsets, batch, int(cfg.k_blocks), float(cfg.ls_tol)
    )
    return BlockSparseVector(
        values=theta[:, 0],
        structure=E.structure,
        support=tuple(int(j) for j in supports[:, 0]),
    )
