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
& Elad, Technion CS-2008-08); a single signal is a batch of one. Everything
else a step does per signal is elementwise work across the batch or one
batched LAPACK call: no per-signal QR, and singular values only for the
signals whose conditioning a cheaper bound cannot clear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import _number
from .model import BlockSparseVector, EquivalentDictionary, _block_rows, _padded_columns


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
    signal's running orthonormal basis and deflates the residuals. The basis
    Q and the triangular factor R with E_S = Q R are carried along. Blocks
    are padded to the widest block with zero columns, which stay zero.

    Against the earlier blocks a block always takes two classical
    Gram-Schmidt passes ("twice is enough", Giraud, Langou & Rozloznik,
    2005), so every signal's arithmetic is the same whatever else is in its
    batch. Within the block, its columns are orthonormalized by Gram-Schmidt
    with reorthogonalization (CGS2), elementwise across signals.

    The conditioning check clears a signal when kappa_F(R) * ls_tol < 1e-2,
    with kappa_F(R) = |R|_F |R^-1|_F >= kappa_2(R) from one batched inverse;
    only the signals it cannot clear, or all of them when some R is exactly
    singular, take the singular values of R. The coefficients solve
    R theta_S = Q' y, in one padded stack for all signals, so E_S is never
    gathered.

    Returns (theta, supports): the K x L coefficient matrix and the k x L
    selected block indices in selection order. Raises
    RankDeficientSupportError at the lowest-indexed signal whose stacked
    sub-dictionary fails the conditioning check, naming its support up to
    the first step at which it fails.
    """
    m_rows, n_cols = E.shape
    n_signals = Y.shape[1]
    sizes = np.diff(offsets)
    block_cols, pad = _padded_columns(offsets)
    n_blocks, s_max = pad.shape
    width = k * s_max
    rows = _block_rows(E, block_cols, pad)  # each block's columns as rows
    # E with its columns in block_cols order: E itself for uniform sizes
    e_pad = np.ascontiguousarray(rows.reshape(-1, m_rows).T)
    every = np.arange(n_signals)
    supports = np.empty((k, n_signals), dtype=np.int64)
    resid = Y.T.copy()
    corr = np.empty((n_signals, n_blocks, s_max))  # E' r for every residual r
    q = np.zeros((n_signals, width, m_rows))  # rows: each signal's basis Q
    r = np.zeros((n_signals, width, width))
    qty = np.zeros((n_signals, width))  # Q' y
    for t in range(k):
        np.matmul(resid, e_pad, out=corr.reshape(n_signals, n_blocks * s_max))
        np.square(corr, out=corr)
        # summed in column order, as np.add.reduceat would; padding adds +0.0
        scores = corr[:, :, 0].copy()
        for j in range(1, s_max):
            scores += corr[:, :, j]
        scores[every, supports[:t]] = -1.0
        best = np.argmax(scores, axis=1)
        supports[t] = best
        lo, hi = t * s_max, (t + 1) * s_max
        block = rows[best]
        for _ in range(2 if t else 0):
            proj = q[:, :lo] @ block.transpose(0, 2, 1)
            block -= proj.transpose(0, 2, 1) @ q[:, :lo]
            r[:, :lo, lo:hi] += proj
        rb = r[:, lo:hi, lo:hi]
        for j in range(s_max):
            col = block[:, j]
            for _ in range(2 if j else 0):
                proj = np.einsum("lim,lm->li", block[:, :j], col)
                col -= np.einsum("li,lim->lm", proj, block[:, :j])
                rb[:, :j, j] += proj
            norm = np.sqrt(np.einsum("lm,lm->l", col, col))
            rb[:, j, j] = norm
            # a zero column (padding, exact dependence) stays zero
            np.divide(col, norm[:, None], out=col, where=norm[:, None] > 0.0)
        q[:, lo:hi] = block
        coef = (block @ resid[:, :, None])[:, :, 0]
        resid -= (coef[:, None, :] @ block)[:, 0]
        qty[:, lo:hi] = coef
    del q, corr  # released before the solve allocates; it needs only R and Q' y

    # Padding rows and columns of R are exactly zero. On their diagonal goes
    # |R[0, 0]|, the norm of a real column, which lies between the extreme
    # singular values of every leading block of R: the conditioning ratio
    # stays exact and every padding coefficient solves to 0.
    diag = np.arange(width)
    r[:, diag, diag] += pad[supports.T].reshape(n_signals, width) * np.abs(r[:, :1, 0])
    widths = np.cumsum(sizes[supports], axis=0)  # support width after each step
    fails = widths[-1] > m_rows
    # kappa_2 <= kappa_F, and at kappa_F * ls_tol < 1e-2 the rounding of the
    # inverse and of the singular values is far from moving the decision
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            kappa = np.linalg.norm(r, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(r), axis=(1, 2))
            unsure = ~(kappa * ls_tol < 1e-2)
    except np.linalg.LinAlgError:  # some R is exactly singular
        unsure = np.ones(n_signals, dtype=bool)
    if unsure.any():
        sv = np.linalg.svd(r[unsure], compute_uv=False)
        fails[unsure] |= sv[:, -1] <= ls_tol * sv[:, 0]
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
