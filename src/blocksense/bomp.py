"""Block orthogonal matching pursuit.

Greedy decoder for block-sparse representations: at each of exactly
``k_blocks`` iterations it selects the block whose columns correlate most with
the current residual (ties broken toward the lowest block index), then
projects the residual off the span of all selected blocks. This is the fully
re-orthogonalized variant, so after the final iteration the residual is
orthogonal to every selected column and the coefficients are the
least-squares fit over them. Columns are used exactly as given, without
re-normalization.

All signals of a batch advance through the iterations together, sharing one
block-scoring product per iteration (after Batch-OMP, Rubinstein, Zibulevsky
& Elad, Technion CS-2008-08); a single signal is a batch of one.
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
    """Decode every column of Y against E, with all signals in lockstep.

    Each of the k steps scores the blocks against all L residuals with one
    product, orthogonalizes every signal's chosen block against that
    signal's running orthonormal basis (two Gram-Schmidt passes, then a
    stacked QR) and deflates the residuals. The basis Q and the triangular
    factor R with E_S = Q R are carried along. The conditioning check takes
    the singular values of R and the coefficients solve R theta_S = Q' y,
    one stack of factors per support width, so E_S is never gathered.
    Blocks are padded to the widest block with a zero column whose basis
    column is zeroed.

    Returns (theta, supports): the K x L coefficient matrix and the k x L
    selected block indices in selection order. Raises
    RankDeficientSupportError at the lowest-indexed signal whose stacked
    sub-dictionary fails the conditioning check, naming its support up to
    the first step at which it fails.
    """
    m_rows, n_cols = E.shape
    n_signals = Y.shape[1]
    sizes = np.diff(offsets)
    s_max = int(sizes.max())
    width = k * s_max
    # Column indices of every block, padded with the zero row appended to E'.
    pad = np.arange(s_max) >= sizes[:, None]
    block_cols = np.where(pad, n_cols, offsets[:-1, None] + np.arange(s_max))
    et = np.vstack([E.T, np.zeros((1, m_rows))])
    every = np.arange(n_signals)
    supports = np.empty((k, n_signals), dtype=np.int64)
    resid = Y.T.copy()
    corr = np.empty((n_signals, n_cols))  # E' r for every residual r
    q = np.zeros((n_signals, width, m_rows))  # rows: each signal's basis Q
    r = np.zeros((n_signals, width, width))
    qty = np.zeros((n_signals, width))  # Q' y
    for t in range(k):
        np.square(np.matmul(resid, E, out=corr), out=corr)
        scores = np.add.reduceat(corr, offsets[:-1], axis=1)
        scores[every, supports[:t]] = -1.0
        best = np.argmax(scores, axis=1)
        supports[t] = best
        lo, hi = t * s_max, (t + 1) * s_max
        block = et[block_cols[best]]
        for _ in range(2 if t else 0):
            proj = q[:, :lo] @ block.transpose(0, 2, 1)
            block -= proj.transpose(0, 2, 1) @ q[:, :lo]
            r[:, :lo, lo:hi] += proj
        qb, rb = np.linalg.qr(block.transpose(0, 2, 1))
        # a block wider than M yields only M basis columns
        n = qb.shape[2]
        qb *= ~pad[best, None, :n]
        qb = np.ascontiguousarray(qb.transpose(0, 2, 1))
        q[:, lo : lo + n] = qb
        r[:, lo : lo + n, lo:hi] = rb
        coef = (qb @ resid[:, :, None])[:, :, 0]
        resid -= (coef[:, None, :] @ qb)[:, 0]
        qty[:, lo : lo + n] = coef
    del q, corr  # released before the solve allocates; it needs only R and Q' y

    real = ~pad[supports.T].reshape(n_signals, width)
    cols = block_cols[supports.T].reshape(n_signals, width)
    widths = np.count_nonzero(real, axis=1)
    solves, fails = [], np.zeros(n_signals, dtype=bool)
    # bincount, not np.unique, which imports numpy.ma (~2 MiB) on first use
    for w in np.flatnonzero(np.bincount(widths)):
        group = np.flatnonzero(widths == w)
        keep = np.nonzero(real[group])[1].reshape(group.size, w)
        factor = r[group[:, None, None], keep[:, :, None], keep[:, None, :]]
        sv = np.linalg.svd(factor, compute_uv=False)
        fails[group] = (w > m_rows) | (sv[:, -1] <= ls_tol * sv[:, 0])
        solves.append((group, keep, factor))
    # sigma_min / sigma_max never rises as columns are appended, so the final
    # supports flag exactly the signals that fail at some step. Every check
    # runs before any solve.
    if fails.any():
        sig = int(np.argmax(fails))
        t = _first_failing_step(r[sig], real[sig], s_max, k, m_rows, ls_tol)
        raise RankDeficientSupportError(supports[: t + 1, sig], signal=sig)

    theta = np.zeros((n_cols, n_signals))
    for group, keep, factor in solves:
        coef = np.linalg.solve(factor, qty[group[:, None], keep][:, :, None])
        theta[cols[group[:, None], keep], group[:, None]] = coef[:, :, 0]
    return theta, supports


def _first_failing_step(r, real, s_max, k, m_rows, ls_tol):
    """First step whose support fails the conditioning check, given the
    signal's triangular factor: each prefix support's factor is a leading
    block of it. The final step fails by assumption."""
    for t in range(k - 1):
        keep = np.flatnonzero(real[: (t + 1) * s_max])
        if keep.size > m_rows:
            return t
        sv = np.linalg.svd(r[np.ix_(keep, keep)], compute_uv=False)
        if sv[-1] <= ls_tol * sv[0]:
            return t
    return k - 1


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
