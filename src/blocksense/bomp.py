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
else a step does per signal is elementwise work across the batch or a
batched product: no per-signal QR and no LU. A second Gram-Schmidt pass is
taken only by the signals whose first pass cancelled most of a column, and
singular values only by the signals whose conditioning a cheaper bound
cannot clear. Both decisions are made per signal, so a signal's result does
not depend on the rest of its batch.

A batch is decoded in one loop over consecutive chunks of signals, each
as large as a fixed byte budget over the per-signal buffers allows
(_CHUNK_BYTES), so the working memory does not grow with the number of
signals; the result is the same bit for bit.

No draw of signals can end a decode on a support that is exactly or
numerically singular. At each step a signal takes the best-scoring block among
those that keep its support full rank: at most as many columns as
measurements, and sigma_min(E_S) > ls_tol * sigma_max(E_S) or, at ls_tol = 0,
no zero pivot. Checking every candidate would cost an SVD per block, so the
lockstep pass picks by score alone and checks each signal's final support;
a chunk's few signals that fail are decoded again with the block chosen at
their first failing step passed over. A batch whose k narrowest blocks
hold more columns than measurements has no full-rank support, and is
refused before any decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import _number
from .model import BlockSparseVector, EquivalentDictionary, _block_rows


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


# Byte budget for the per-signal buffers of one decoded chunk of signals.
_CHUNK_BYTES = 4 << 20


class RankDeficientSupportError(np.linalg.LinAlgError):
    """Raised when no full-rank support of k blocks is left for a signal,
    naming the support with the last block passed over."""

    def __init__(self, support, signal: int | None = None):
        self.support = tuple(int(j) for j in support)
        self.signal = signal
        where = "" if signal is None else f" while decoding signal {signal}"
        super().__init__(
            f"selected block support {self.support} is numerically rank deficient{where}"
        )


def _bomp_batch(E, structure, Y, k, ls_tol):
    """Decode every column of Y against E, passing over blocks that would
    leave a signal's support rank deficient.

    One loop runs over chunks of signals, each as many as fit _CHUNK_BYTES
    of the kernel's per-signal buffers (basis, factor R, Q' y, block
    correlations), and at least one. A chunk's first pass (_decode_chunk)
    writes into the arrays for the whole batch. Each signal whose support
    fails is then decoded again, with the block it chose at its first
    failing step excluded from every step, in passes that hold only the
    chunk's failing signals, until it passes or has fewer than k blocks
    left. Excluding a block that was not chosen leaves each earlier argmax
    alone, and a block that fails after some prefix fails after every
    longer one (the width only grows and sigma_min / sigma_max never
    rises), so this is block-OMP that takes at each step the best-scoring
    block that keeps the support full rank. A signal's result depends on
    neither its chunk nor its batch.

    Returns (theta, supports): the K x L coefficient matrix and the k x L
    selected block indices in selection order. A chunk's failing signals
    run out of blocks together, since each pass passes over one more block
    for each of them; once fewer than k are left, RankDeficientSupportError
    names the lowest-indexed of them, the batch's lowest since chunks run in
    order, and its support up to and including the last block passed over.
    No later chunk is decoded.
    """
    m_rows, n_cols = E.shape
    n_signals = Y.shape[1]
    n_blocks, s_max = structure.padding.shape
    width = k * s_max
    rows = _block_rows(E, structure)  # each block's columns as rows
    # E's padded columns slot-major: column j * blocks + b is slot j of block b
    e_pad = np.empty((m_rows, s_max * n_blocks))
    e_pad.reshape(m_rows, s_max, n_blocks)[...] = rows.transpose(2, 1, 0)
    supports = np.empty((k, n_signals), dtype=np.int64)
    coef = np.empty((n_signals, width))  # on each signal's padded support
    # float64 bytes of one signal's basis, factor R, Q' y and correlations
    per_signal = 8 * (width * m_rows + width * width + width + n_blocks * s_max)
    chunk = max(1, _CHUNK_BYTES // per_signal)
    for first in range(0, n_signals, chunk):
        todo = np.arange(first, min(first + chunk, n_signals))  # batch indices
        part = slice(first, first + chunk)
        part_coef, part_supports, excluded = coef[part], supports[:, part], None
        while True:
            failed, steps = _decode_chunk(
                rows, e_pad, structure, Y[:, todo], k, ls_tol, part_coef, part_supports, excluded
            )
            if excluded is None:
                excluded = np.zeros((todo.size, n_blocks), dtype=bool)
            else:
                coef[todo], supports[:, todo] = part_coef, part_supports
            if not failed.size:
                break
            excluded = excluded[failed]
            excluded[np.arange(failed.size), part_supports[steps, failed]] = True
            # every signal still failing has passed over one block per pass
            if n_blocks - np.count_nonzero(excluded[0]) < k:
                sig, t = failed[0], steps[0]
                raise RankDeficientSupportError(part_supports[: t + 1, sig], signal=int(todo[sig]))
            todo = todo[failed]
            part_coef = np.empty((todo.size, width))
            part_supports = np.empty((k, todo.size), dtype=np.int64)
    # allocated once the chunks' buffers are released; padding coefficients
    # land in the extra row K, which is dropped
    theta = np.zeros((n_cols + 1, n_signals))
    cols = structure.columns[supports.T].reshape(n_signals, width)
    theta[cols, np.arange(n_signals)[:, None]] = coef
    return theta[:n_cols], supports


def _decode_chunk(rows, e_pad, structure, Y, k, ls_tol, coef, supports, excluded):
    """Decode every column of Y with all signals in lockstep, writing into
    coef (L x k s_max) each signal's coefficients on its support in the
    padded layout, and into supports (k x L) its blocks. A block marked in
    the L x blocks mask ``excluded``, if given, is never chosen for that
    signal.

    Returns (failed, steps): the signals whose supports fail the check
    below, and for each the first step at which its support fails. Their
    coefficients are left zero.

    ``rows`` holds each block's columns as rows and ``e_pad`` E's padded
    columns slot-major, as _bomp_batch builds them. Each of the k steps
    scores the blocks against all L residuals with one product,
    orthogonalizes every signal's chosen block against that signal's
    running orthonormal basis and deflates the residuals. The basis Q and
    the triangular factor R with E_S = Q R are carried along. Blocks
    are read in the padded layout of ``structure`` (``BlockStructure.columns``):
    zero columns, which stay zero, fill each block to the widest, s_max.

    Each column of the chosen block takes one classical Gram-Schmidt pass
    against the signal's earlier blocks, then one within the block (CGS).
    A signal takes a second pass against the earlier blocks when some column
    of its block kept less than half its squared norm, and a column takes a
    second pass within the block under the same rule: the classical
    reorthogonalization criterion (Daniel, Gragg, Kaufman & Stewart, 1976),
    for which two passes are enough (Giraud, Langou & Rozloznik, 2005). The
    signals that need a pass are gathered, so the decision and the
    arithmetic of each signal do not depend on the rest of its batch.

    R^-1 comes from back substitution over the s_max x s_max diagonal
    blocks (_triangular_inverse), with no LU. The conditioning check clears
    a signal when kappa_F(R) * ls_tol < 1e-2, with kappa_F(R) = |R|_F |R^-1|_F
    >= kappa_2(R); only the signals it cannot clear, those with an exactly
    zero pivot among them, take the singular values of R. The coefficients
    are theta_S = R^-1 Q' y, one batched product for all signals, so E_S is
    never gathered. A support fails when it is wider than the measurements,
    when sigma_min(R) <= ls_tol * sigma_max(R), or when R has an exactly
    zero pivot (which only ls_tol = 0 lets pass the singular values); the
    first failing step is found by _first_failing_step.
    """
    m_rows = e_pad.shape[0]
    n_signals = Y.shape[1]
    pad = structure.padding
    n_blocks, s_max = pad.shape
    width = k * s_max
    every = np.arange(n_signals)
    resid = Y.T.copy()
    corr = np.empty((n_signals, s_max, n_blocks))  # E' r for every residual r
    q = np.zeros((n_signals, width, m_rows))  # rows: each signal's basis Q
    r = np.zeros((n_signals, width, width))
    qty = np.zeros((n_signals, width))  # Q' y
    for t in range(k):
        np.matmul(resid, e_pad, out=corr.reshape(n_signals, s_max * n_blocks))
        # summed in slot order, as np.add.reduceat would; padding adds +0.0
        scores = np.einsum("ljb,ljb->lb", corr, corr)
        if excluded is not None:
            scores[excluded] = -1.0
        scores[every, supports[:t]] = -1.0
        best = np.argmax(scores, axis=1)
        supports[t] = best
        lo, hi = t * s_max, (t + 1) * s_max
        block = rows[best]
        if t:
            before = np.einsum("lim,lim->li", block, block)
            proj = q[:, :lo] @ block.transpose(0, 2, 1)
            block -= proj.transpose(0, 2, 1) @ q[:, :lo]
            r[:, :lo, lo:hi] += proj
            kept = np.einsum("lim,lim->li", block, block)
            redo = np.flatnonzero((kept < 0.5 * before).any(axis=1))
            if redo.size:
                sub, basis = block[redo], q[redo, :lo]
                proj = basis @ sub.transpose(0, 2, 1)
                sub -= proj.transpose(0, 2, 1) @ basis
                block[redo] = sub
                r[redo, :lo, lo:hi] += proj
        rb = r[:, lo:hi, lo:hi]
        for j in range(s_max):
            col = block[:, j]
            norm2 = np.einsum("lm,lm->l", col, col)
            if j:
                proj = np.einsum("lim,lm->li", block[:, :j], col)
                col -= np.einsum("li,lim->lm", proj, block[:, :j])
                rb[:, :j, j] += proj
                before, norm2 = norm2, np.einsum("lm,lm->l", col, col)
                redo = np.flatnonzero(norm2 < 0.5 * before)
                if redo.size:
                    sub, basis = col[redo], block[redo, :j]
                    proj = np.einsum("lim,lm->li", basis, sub)
                    sub -= np.einsum("li,lim->lm", proj, basis)
                    col[redo] = sub
                    rb[redo, :j, j] += proj
                    norm2[redo] = np.einsum("lm,lm->l", sub, sub)
            norm = np.sqrt(norm2)
            rb[:, j, j] = norm
            # a zero column (padding, exact dependence) stays zero
            col /= np.where(norm > 0.0, norm, 1.0)[:, None]
        q[:, lo:hi] = block
        qy = (block @ resid[:, :, None])[:, :, 0]
        resid -= (qy[:, None, :] @ block)[:, 0]
        qty[:, lo:hi] = qy
    del q, corr  # released before the inverse allocates; it needs only R and Q' y

    # Padding rows and columns of R are exactly zero. On their diagonal goes
    # |R[0, 0]|, the norm of a real column, which lies between the extreme
    # singular values of every leading block of R: the conditioning ratio
    # stays exact and every padding coefficient solves to 0.
    diag = np.arange(width)
    r[:, diag, diag] += pad[supports.T].reshape(n_signals, width) * np.abs(r[:, :1, 0])
    widths = np.cumsum(np.array(structure.sizes)[supports], axis=0)  # after each step
    fails = widths[-1] > m_rows
    # kappa_2 <= kappa_F, and at kappa_F * ls_tol < 1e-2 the rounding of the
    # inverse and of the singular values is far from moving the decision. An
    # exactly zero pivot makes kappa_F non-finite, so that signal is unsure.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r_inv = _triangular_inverse(r, s_max)
        kappa = np.linalg.norm(r, axis=(1, 2)) * np.linalg.norm(r_inv, axis=(1, 2))
        unsure = ~(kappa * ls_tol < 1e-2)
    if unsure.any():
        sv = np.linalg.svd(r[unsure], compute_uv=False)
        fails[unsure] |= sv[:, -1] <= ls_tol * sv[:, 0]
    # sigma_min / sigma_max never rises as columns are appended, so the final
    # supports flag exactly the signals that fail at some step, before the
    # solve. An exactly zero pivot that the check cleared, which only
    # ls_tol = 0 allows, has no solution and fails the support too.
    failed = np.flatnonzero(fails | ~np.all(r[:, diag, diag], axis=1))
    steps = np.array(
        [_first_failing_step(r[sig], widths[:, sig], s_max, m_rows, ls_tol) for sig in failed],
        dtype=np.int64,
    )
    r_inv[failed] = 0.0
    coef[...] = (r_inv @ qty[:, :, None])[:, :, 0]
    return failed, steps


def _triangular_inverse(r, s_max):
    """Inverse of every upper-triangular matrix in the (n, w, w) stack r, with
    w a multiple of s_max, by back substitution over its s_max x s_max
    diagonal blocks: each diagonal block is inverted elementwise across the
    stack, and each block row to its right takes two batched products. An
    exactly zero pivot leaves non-finite entries in its own matrix only."""
    n_mats, width, _ = r.shape
    n_diag = width // s_max
    every = np.arange(n_diag)
    blocks = r.reshape(n_mats, n_diag, s_max, n_diag, s_max)
    tri = blocks[:, every, :, every]  # (n_diag, n_mats, s_max, s_max)
    tri_inv = np.zeros_like(tri)
    for j in range(s_max):
        tri_inv[..., j, j] = 1.0 / tri[..., j, j]
        for i in range(j - 1, -1, -1):
            acc = tri[..., i, i + 1] * tri_inv[..., i + 1, j]
            for m in range(i + 2, j + 1):
                acc += tri[..., i, m] * tri_inv[..., m, j]
            tri_inv[..., i, j] = -acc / tri[..., i, i]
    r_inv = np.zeros_like(r)
    r_inv.reshape(blocks.shape)[:, every, :, every] = tri_inv
    for b in range(n_diag - 2, -1, -1):
        lo, hi = b * s_max, (b + 1) * s_max
        panel = r[:, lo:hi, hi:] @ r_inv[:, hi:, hi:]
        r_inv[:, lo:hi, hi:] = -(r_inv[:, lo:hi, lo:hi] @ panel)
    return r_inv


def _first_failing_step(r, widths, s_max, m_rows, ls_tol):
    """First step whose support fails the check, given the signal's padded
    triangular factor and its support width after each step: each prefix
    support's factor is a leading block of it. The final step fails by
    assumption."""
    for t, w in enumerate(widths[:-1]):
        lead = (t + 1) * s_max
        if w > m_rows or not np.all(np.diagonal(r)[:lead]):
            return t
        sv = np.linalg.svd(r[:lead, :lead], compute_uv=False)
        if sv[-1] <= ls_tol * sv[0]:
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
    # k blocks that outnumber the measurements cannot be independent
    narrowest = sum(sorted(E.structure.sizes)[: cfg.k_blocks])
    if narrowest > E.num_measurements:
        raise ValueError(
            f"the k_blocks={cfg.k_blocks} narrowest blocks hold {narrowest} columns, "
            f"more than M={E.num_measurements}; every support would be rank deficient"
        )
    return y


def bomp_decode_batch(E: EquivalentDictionary, Y, cfg: BompConfig) -> np.ndarray:
    """Decode every column of Y, returning the K x L coefficient matrix.

    Each signal's support has exactly ``cfg.k_blocks`` blocks and is full
    rank: at each step the decoder takes the best-scoring block among those
    that keep it so, passing over the rest. RankDeficientSupportError is
    raised only when fewer than ``cfg.k_blocks`` blocks are left that a
    signal has not passed over, naming the lowest-indexed such signal; a
    ValueError, before any decoding, when the ``cfg.k_blocks`` narrowest
    blocks hold more columns than there are measurements.
    """
    y = _check_batch(E, Y, cfg)
    theta, _ = _bomp_batch(E.matrix, E.structure, y, int(cfg.k_blocks), float(cfg.ls_tol))
    return theta


def bomp_decode(E: EquivalentDictionary, y, cfg: BompConfig) -> BlockSparseVector:
    """Decode a single measurement vector into a block-sparse coefficient vector.

    The result has exactly ``cfg.k_blocks`` blocks in its support; the
    coefficients on that support are the least-squares fit of y, so the final
    residual is orthogonal to all selected columns. A block that would leave
    the support rank deficient is passed over for the next-best one; the
    errors are those of :func:`bomp_decode_batch`.
    """
    vec = np.asarray(y, dtype=float)
    if vec.ndim != 1:
        raise ValueError(f"expected a 1-D measurement vector, got shape {vec.shape}")
    y = _check_batch(E, vec[:, None], cfg)
    theta, supports = _bomp_batch(E.matrix, E.structure, y, int(cfg.k_blocks), float(cfg.ls_tol))
    return BlockSparseVector(
        values=theta[:, 0],
        structure=E.structure,
        support=tuple(int(j) for j in supports[:, 0]),
    )
