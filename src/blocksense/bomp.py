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

from .fileio import _number
from .model import BlockSparseVector, EquivalentDictionary, _padded_columns


@dataclass(frozen=True)
class BompConfig:
    """Decoder settings: number of blocks to select and the relative
    singular-value threshold below which a stacked sub-dictionary is
    rejected as rank deficient."""

    k_blocks: int
    ls_tol: float = 1e-10

    def __post_init__(self):
        if _number("k_blocks", self.k_blocks, int) < 1:
            raise ValueError(f"k_blocks must be >= 1, got {self.k_blocks}")
        ls_tol = _number("ls_tol", self.ls_tol, float)
        if not ls_tol >= 0.0:
            raise ValueError(f"ls_tol must be non-negative, got {self.ls_tol}")
        object.__setattr__(self, "ls_tol", ls_tol)


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
    factor R with E_S = Q R are carried along. Blocks are padded to the
    widest block with a zero column whose basis column is zeroed. The
    conditioning check takes the singular values of R and the coefficients
    solve R theta_S = Q' y, in one padded stack for all signals, so E_S is
    never gathered.

    Returns (theta, supports): the K x L coefficient matrix and the k x L
    selected block indices in selection order. Raises
    RankDeficientSupportError at the lowest-indexed signal whose stacked
    sub-dictionary fails the conditioning check, naming its support up to
    the first step at which it fails.
    """
    m_rows, n_cols = E.shape
    n_signals = Y.shape[1]
    sizes = np.diff(offsets)
    # padding indexes the zero row appended to E'
    block_cols, pad = _padded_columns(offsets)
    s_max = pad.shape[1]
    width = k * s_max
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

    # Padding rows and columns of R are exactly zero. On their diagonal goes
    # |R[0, 0]|, the norm of a real column, which lies between the extreme
    # singular values of every leading block of R: the conditioning ratio
    # stays exact and every padding coefficient solves to 0.
    diag = np.arange(width)
    r[:, diag, diag] += pad[supports.T].reshape(n_signals, width) * np.abs(r[:, :1, 0])
    widths = np.cumsum(sizes[supports], axis=0)  # support width after each step
    sv = np.linalg.svd(r, compute_uv=False)
    fails = (widths[-1] > m_rows) | (sv[:, -1] <= ls_tol * sv[:, 0])
    # sigma_min / sigma_max never rises as columns are appended, so the final
    # supports flag exactly the signals that fail at some step, before the solve.
    if fails.any():
        sig = int(np.argmax(fails))
        t = _first_failing_step(r[sig], widths[:, sig], s_max, m_rows, ls_tol)
        raise RankDeficientSupportError(supports[: t + 1, sig], signal=sig)

    # padding coefficients land in the extra row K, which is dropped
    theta = np.zeros((n_cols + 1, n_signals))
    coef = np.linalg.solve(r, qty[:, :, None])[:, :, 0]
    theta[block_cols[supports.T].reshape(n_signals, width), every[:, None]] = coef
    return theta[:n_cols], supports


def _first_failing_step(r, widths, s_max, m_rows, ls_tol):
    """First step whose support fails the conditioning check, given the
    signal's padded triangular factor and its support width after each step:
    each prefix support's factor is a leading block of it. The final step
    fails by assumption."""
    for t, w in enumerate(widths[:-1]):
        lead = (t + 1) * s_max
        sv = np.linalg.svd(r[:lead, :lead], compute_uv=False)
        if w > m_rows or sv[-1] <= ls_tol * sv[0]:
            return t
    return widths.size - 1


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
