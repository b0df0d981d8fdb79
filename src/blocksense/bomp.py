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

A block's score is the float64 sum of its squared correlations with the
residual. The shared product forms the scores in float32, and a signal keeps
the float32 argmax only when its margin over the runner-up exceeds a
rigorous bound on the rounding of both precisions (the certified
mixed-precision pattern; Higham & Mary, Acta Numerica, 2022). Ties,
near-ties and float32 overflow or underflow take the float64 scores, formed
two signals per product so that a signal's bits do not depend on how many
take them. So ties are decided on float64 scores, toward the lowest block
index, and a signal's supports and coefficients are those of float64
scoring, whatever its batch.

A batch is decoded in one loop over consecutive chunks of signals, each
as large as a fixed byte budget over the per-signal buffers allows
(_CHUNK_BYTES), so the working memory does not grow with the number of
signals; the result is the same bit for bit.

No draw of signals can end a decode on a support that is exactly or
numerically singular. At each step a signal takes the best-scoring block among
those that keep its support full rank (_fails): at most as many columns as
measurements, and sigma_min(E_S) > _RANK_TOL * sigma_max(E_S). Checking
every candidate would cost an SVD per block, so the lockstep pass picks by
score alone and checks each signal's final support; a chunk's few signals
that fail are decoded again with the block chosen at their first failing
step passed over. A batch whose k narrowest blocks hold more columns than
measurements has no full-rank support, and is refused before any decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fileio import _number
from .model import BlockSparseVector, EquivalentDictionary, _block_rows, _scatter_blocks


@dataclass(frozen=True)
class BompConfig:
    """Decoder settings: the number of blocks to select."""

    k_blocks: int

    def __post_init__(self):
        if _number("k_blocks", self.k_blocks, int) < 1:
            raise ValueError(f"k_blocks must be >= 1, got {self.k_blocks}")


# Byte budget for the per-signal buffers of one decoded chunk of signals.
_CHUNK_BYTES = 4 << 20
# Relative singular-value threshold below which a support is rank deficient.
_RANK_TOL = 1e-10
# Unit roundoffs and the largest float32 underflow error (half the smallest
# subnormal), for the bound on the rounding of block scores (_decode_chunk).
_FLOAT32_UNIT = 2.0**-24
_FLOAT64_UNIT = 2.0**-53
_FLOAT32_UNDERFLOW = 2.0**-150
# Rows of each float64 scoring product (_float64_scores).
_FALLBACK_ROWS = 2


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


class _Layouts(NamedTuple):
    """E in the layouts the kernel reads, made once per batch (_bomp_batch)
    in the padded layout of the structure (``BlockStructure.columns``)."""

    rows: np.ndarray  # (blocks, s_max, M): each block's columns as rows
    norms: np.ndarray  # (blocks, s_max): their squared norms
    e_pad: np.ndarray  # (M, s_max * blocks): E's padded columns slot-major
    e32: np.ndarray  # e_pad in float32


def _bomp_batch(E, structure, Y, k):
    """Decode every column of Y against E, passing over blocks that would
    leave a signal's support rank deficient.

    One loop runs over chunks of signals, each as many as fit _CHUNK_BYTES
    of the kernel's per-signal buffers (basis, factor R, Q' y, float32
    block correlations), and at least one. A chunk's first pass
    (_decode_chunk) writes into the arrays for the whole batch. Each signal
    whose support fails is then decoded again, with the block it chose at
    its first failing step excluded from every step, in passes that hold
    only the chunk's failing signals, until it passes or has fewer than k
    blocks left. Excluding a block that was not chosen leaves each earlier
    argmax alone, and a block that fails after some prefix fails after
    every longer one (the width only grows and sigma_min / sigma_max never
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
    m_rows = E.shape[0]
    n_signals = Y.shape[1]
    n_blocks, s_max = structure.padding.shape
    width = k * s_max
    rows = _block_rows(E, structure)
    # E's padded columns slot-major: column j * blocks + b is slot j of block b
    e_pad = np.empty((m_rows, s_max * n_blocks))
    e_pad.reshape(m_rows, s_max, n_blocks)[...] = rows.transpose(2, 1, 0)
    with np.errstate(over="ignore"):  # an entry beyond float32 casts to inf
        layouts = _Layouts(
            rows, np.einsum("bim,bim->bi", rows, rows), e_pad, e_pad.astype(np.float32)
        )
    supports = np.empty((k, n_signals), dtype=np.int64)
    coef = np.empty((n_signals, width))  # on each signal's padded support
    # bytes of one signal's basis, factor R and Q' y (float64) and its
    # correlations (float32)
    per_signal = 8 * (width * m_rows + width * width + width) + 4 * n_blocks * s_max
    chunk = max(1, _CHUNK_BYTES // per_signal)
    for first in range(0, n_signals, chunk):
        todo = np.arange(first, min(first + chunk, n_signals))  # batch indices
        part = slice(first, first + chunk)
        part_coef, part_supports, excluded = coef[part], supports[:, part], None
        while True:
            failed, steps = _decode_chunk(
                layouts, structure, Y[:, todo], k, part_coef, part_supports, excluded
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
    # allocated once the chunks' buffers are released
    theta = _scatter_blocks(structure, supports.T, coef.reshape(n_signals, k, s_max))
    return theta, supports


def _decode_chunk(layouts, structure, Y, k, coef, supports, excluded):
    """Decode every column of Y with all signals in lockstep, writing into
    coef (L x k s_max) each signal's coefficients on its support in the
    padded layout, and into supports (k x L) its blocks. A block marked in
    the L x blocks mask ``excluded``, if given, is never chosen for that
    signal.

    Returns (failed, steps): the signals whose supports fail the check
    below, and for each the first step at which its support fails. Their
    coefficients are left zero.

    ``layouts`` holds E as _bomp_batch lays it out. Each of the k steps
    scores the blocks against
    all L residuals with one float32 product, takes each signal's block,
    orthogonalizes it against that signal's running orthonormal basis and
    deflates the residuals. The basis Q and the triangular factor R with
    E_S = Q R are carried along. Blocks are read in the padded layout of
    ``structure`` (``BlockStructure.columns``): zero columns, which stay
    zero, fill each block to the widest, s_max.

    A block's score is the float64 sum of its squared correlations with the
    residual, over its slots in order; ties go to the lowest block index.
    The float32 scores only stand in for them. A signal keeps its float32
    argmax i when the margin of score i over the float32 runner-up, formed
    in float64, exceeds a bound B on the rounding; every other signal (ties,
    near-ties, a non-finite float32 score, a NaN margin) gets its float64
    scores and their argmax (_float64_scores). The bound, set once per
    chunk: with u the unit roundoff of float32 (2^-24) and v that of float64
    (2^-53), gamma(n, u) = n u / (1 - n u), eta = 2^-150 the largest
    float32 underflow error, M the measurements and s = s_max:

    - every residual is a projection of y, so a = 1.01 |y| max_j |e_j|,
      from the norms as computed, bounds every correlation |c_j| = |e_j' r|:
      the 1% covers the basis's loss of orthogonality and the rounding of
      the norms;
    - the float32 correlation rounds r and e_j to float32 and sums M
      products, so it is within eps = g a + beta of c_j, with
      g = gamma(M + 2, u) (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., 3.1), whatever the order of the sums or FMA;
      beta = 2 eta (sqrt(M) (1.01 max |y| + max_j |e_j|) + M), with the
      max over the chunk's signals, covers underflow in the casts and the
      products;
    - the score sums s squares, so a float32 score is within
      err32 = s (eps (2 a + eps) + g_s (a + eps)^2) + 2 s eta of the exact
      one, with g_s = gamma(s, u); expanded, that is
      s (c2 a^2 + c1 a + c0) with c2 = g (2 + g) + g_s (1 + g)^2,
      c1 = 2 (1 + g) (1 + g_s) beta and c0 = (1 + g_s) beta^2 + 2 eta.
      A float64 score is within an err64 of the same form with
      g = gamma(M, v), g_s = gamma(s, v) and no eta term, whose underflow
      beta already covers; err32 + err64 sums the two, coefficient by
      coefficient;
    - so for every other eligible block b, float64 scores satisfy
      f64_i - f64_b >= (f32_i - f32_b) - 2 (err32 + err64) >= margin - B
      with B = 2 (err32 + err64) (1 + 2^-20), the last factor covering the
      rounding of B and of the margin itself: a margin above B leaves the
      float64 argmax at i, alone, whatever the float64 scores' order of
      sums. To first order B is s a^2 (4 gamma(M + 2, u) + 2 gamma(s, u)).

    Since a signal keeps a float32 argmax only when it is the float64 one,
    and a float64 score row does not depend on the rows scored with it, a
    signal's supports do not depend on its chunk or its batch. A float32
    overflow to inf leaves the top score non-finite, and scores that
    underflow to zero leave a zero margin, so both take float64 scores;
    subnormal scores keep the float32 argmax only above the absolute terms
    of B.

    Each column of the chosen block takes one classical Gram-Schmidt pass
    against the signal's earlier blocks, then one within the block (CGS).
    A signal takes a second pass against the earlier blocks when some column
    of its block kept less than half its squared norm, and a column takes a
    second pass within the block under the same rule: the classical
    reorthogonalization criterion (Daniel, Gragg, Kaufman & Stewart, 1976),
    for which two passes are enough (Giraud, Langou & Rozloznik, 2005). The
    signals that need a pass are gathered, so the decision and the
    arithmetic of each signal do not depend on the rest of its batch. The
    squared norms that the rule compares come from E's column norms, formed
    once per batch, and from the squared norms after the pass against the
    basis; the last step's block enters neither the basis nor a deflation.

    R^-1 comes from back substitution over the s_max x s_max diagonal
    blocks (_triangular_inverse), with no LU. The final supports are checked
    by _fails; for the signals that fail, so is each leading block of R and
    R^-1, the factor and inverse of a prefix support (R is triangular), and
    the first prefix that fails names the step. The coefficients are
    theta_S = R^-1 Q' y, one batched product for all signals, so E_S is
    never gathered.
    """
    rows, norms, e_pad, e32 = layouts
    m_rows = e_pad.shape[0]
    n_signals = Y.shape[1]
    pad = structure.padding
    n_blocks, s_max = pad.shape
    width = k * s_max
    every = np.arange(n_signals)
    resid = Y.T.copy()
    resid32 = np.empty((n_signals, m_rows), dtype=np.float32)
    corr = np.empty((n_signals, s_max, n_blocks), dtype=np.float32)  # E' r for every residual r
    # rows: each signal's basis Q, but for its last block, which no later block
    # is orthogonalized against
    q = np.zeros((n_signals, width - s_max, m_rows))
    r = np.zeros((n_signals, width, width))
    qty = np.zeros((n_signals, width))  # Q' y
    # B = a (c2 a + c1) + c0 per signal, as derived above
    with np.errstate(over="ignore", invalid="ignore"):
        norm_y = 1.01 * np.sqrt(np.einsum("lm,lm->l", resid, resid))
        e_max = np.sqrt(norms.max())
        beta = 2.0 * _FLOAT32_UNDERFLOW * (np.sqrt(m_rows) * (norm_y.max() + e_max) + m_rows)
        c2, c1, c0 = 0.0, 0.0, 2.0 * _FLOAT32_UNDERFLOW
        for g, g_s in (
            (_gamma(m_rows + 2, _FLOAT32_UNIT), _gamma(s_max, _FLOAT32_UNIT)),
            (_gamma(m_rows, _FLOAT64_UNIT), _gamma(s_max, _FLOAT64_UNIT)),
        ):
            c2 += g * (2.0 + g) + g_s * (1.0 + g) ** 2
            c1 += 2.0 * (1.0 + g) * (1.0 + g_s) * beta
            c0 += (1.0 + g_s) * beta**2
        scale = 2.0 * (1.0 + 2.0**-20) * s_max
        a = norm_y * e_max
        bound = a * (scale * c2 * a + scale * c1) + scale * c0
    for t in range(k):
        with np.errstate(over="ignore", invalid="ignore"):
            resid32[...] = resid
            np.matmul(resid32, e32, out=corr.reshape(n_signals, s_max * n_blocks))
            # summed in slot order, as np.add.reduceat would; padding adds +0.0
            scores = np.einsum("ljb,ljb->lb", corr, corr)
            if excluded is not None:
                scores[excluded] = -1.0
            scores[every, supports[:t]] = -1.0
            best = np.argmax(scores, axis=1)
            top = scores[every, best]
            scores[every, best] = -np.inf
            margin = top.astype(np.float64) - scores.max(axis=1)
        del scores  # released before the block is gathered
        # a NaN margin fails the comparison, and an infinite top is refused
        unsure = np.flatnonzero(~((margin > bound) & np.isfinite(top)))
        if unsure.size:
            exact = _float64_scores(resid[unsure], e_pad, s_max)
            if excluded is not None:
                exact[excluded[unsure]] = -1.0
            exact[np.arange(unsure.size), supports[:t, unsure]] = -1.0
            best[unsure] = np.argmax(exact, axis=1)
        supports[t] = best
        lo, hi = t * s_max, (t + 1) * s_max
        block = rows[best]
        if t:
            proj = q[:, :lo] @ block.transpose(0, 2, 1)
            block -= proj.transpose(0, 2, 1) @ q[:, :lo]
            r[:, :lo, lo:hi] = proj
            kept = np.einsum("lim,lim->li", block, block)
            redo = np.flatnonzero((kept < 0.5 * norms[best]).any(axis=1))
            if redo.size:
                sub, basis = block[redo], q[redo, :lo]
                proj = basis @ sub.transpose(0, 2, 1)
                sub -= proj.transpose(0, 2, 1) @ basis
                block[redo] = sub
                r[redo, :lo, lo:hi] += proj
                kept[redo] = np.einsum("lim,lim->li", sub, sub)
        else:
            kept = norms[best]
        rb = r[:, lo:hi, lo:hi]
        for j in range(s_max):
            col = block[:, j]
            norm2 = kept[:, j]
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
        qy = (block @ resid[:, :, None])[:, :, 0]
        qty[:, lo:hi] = qy
        if t < k - 1:
            q[:, lo:hi] = block
            resid -= (qy[:, None, :] @ block)[:, 0]
    del q, corr  # released before the inverse allocates; it needs only R and Q' y

    # Padding rows and columns of R are exactly zero. On their diagonal goes
    # |R[0, 0]|, the norm of a real column, which lies between the extreme
    # singular values of every leading block of R: the conditioning ratio
    # stays exact and every padding coefficient solves to 0.
    diag = np.arange(width)
    r[:, diag, diag] += pad[supports.T].reshape(n_signals, width) * np.abs(r[:, :1, 0])
    widths = np.cumsum(np.array(structure.sizes)[supports], axis=0)  # after each step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r_inv = _triangular_inverse(r, s_max)
    # sigma_min / sigma_max never rises as columns are appended, so the final
    # supports flag exactly the signals that fail at some step
    failed = np.flatnonzero(_fails(r, r_inv, widths[-1], m_rows))
    prefix_fails = np.ones((k, failed.size), dtype=bool)  # the final step fails
    if failed.size:
        for t in range(k - 1):
            lead = (t + 1) * s_max
            prefix_fails[t] = _fails(
                r[failed, :lead, :lead], r_inv[failed, :lead, :lead], widths[t, failed], m_rows
            )
    r_inv[failed] = 0.0
    coef[...] = (r_inv @ qty[:, :, None])[:, :, 0]
    return failed, np.argmax(prefix_fails, axis=0)


def _gamma(n, unit):
    """Higham's gamma_n = n u / (1 - n u), which bounds the relative rounding
    error of n products and sums."""
    return n * unit / (1.0 - n * unit)


def _float64_scores(resid, e_pad, s_max):
    """Float64 block scores of each row of ``resid``: the sums over each
    block's slots, in order, of the squared correlations with E's padded
    columns. Every product holds _FALLBACK_ROWS rows, the last padded with
    zero rows, so a row's bits do not depend on how many rows are scored:
    numpy takes a one-row product to gemv, whose bits differ from a gemm's,
    and OpenBLAS forms a row differently in gemms of some other heights."""
    n_rows, m_rows = resid.shape
    padded = np.zeros((-(-n_rows // _FALLBACK_ROWS) * _FALLBACK_ROWS, m_rows))
    padded[:n_rows] = resid
    corr = np.empty((padded.shape[0], e_pad.shape[1]))
    for lo in range(0, padded.shape[0], _FALLBACK_ROWS):
        hi = lo + _FALLBACK_ROWS
        np.matmul(padded[lo:hi], e_pad, out=corr[lo:hi])
    corr = corr[:n_rows].reshape(n_rows, s_max, -1)
    return np.einsum("ljb,ljb->lb", corr, corr)


def _fails(r, r_inv, widths, m_rows):
    """Which supports of a stack are not full rank, given each one's
    triangular factor R, its inverse and its width: those wider than the
    measurements, and those with sigma_min(R) <= _RANK_TOL * sigma_max(R).
    kappa_F(R) = |R|_F |R^-1|_F >= kappa_2(R) clears a support first when
    kappa_F * _RANK_TOL < 1e-2, where the rounding of the inverse and of the
    singular values is far from moving the decision; only the rest take the
    singular values. An exactly zero pivot makes kappa_F non-finite, and its
    support fails on the singular values."""
    fails = widths > m_rows
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = np.linalg.norm(r, axis=(1, 2)) * np.linalg.norm(r_inv, axis=(1, 2))
        unsure = ~(fails | (kappa * _RANK_TOL < 1e-2))
    if unsure.any():
        sv = np.linalg.svd(r[unsure], compute_uv=False)
        fails[unsure] = sv[:, -1] <= _RANK_TOL * sv[:, 0]
    return fails


def _triangular_inverse(r, s_max):
    """Inverse of every upper-triangular matrix in the (n, w, w) stack r, with
    w a multiple of s_max, by back substitution over its s_max x s_max
    diagonal blocks: each diagonal block is inverted elementwise across the
    stack, on a copy that holds each element of the blocks contiguous over
    the stack, and each block row to its right takes two batched products.
    An exactly zero pivot leaves non-finite entries in its own matrix only."""
    n_mats, width, _ = r.shape
    n_diag = width // s_max
    # (s_max, s_max, n, n_diag): element (i, j) of every diagonal block
    tri = np.ascontiguousarray(_diagonal_blocks(r, s_max).transpose(2, 3, 0, 1))
    tri_inv = np.zeros_like(tri)
    for j in range(s_max):
        tri_inv[j, j] = 1.0 / tri[j, j]
        for i in range(j - 1, -1, -1):
            acc = tri[i, i + 1] * tri_inv[i + 1, j]
            for m in range(i + 2, j + 1):
                acc += tri[i, m] * tri_inv[m, j]
            tri_inv[i, j] = -acc / tri[i, i]
    r_inv = np.zeros_like(r)
    _diagonal_blocks(r_inv, s_max)[...] = tri_inv.transpose(2, 3, 0, 1)
    for b in range(n_diag - 2, -1, -1):
        lo, hi = b * s_max, (b + 1) * s_max
        panel = r[:, lo:hi, hi:] @ r_inv[:, hi:, hi:]
        r_inv[:, lo:hi, hi:] = -(r_inv[:, lo:hi, lo:hi] @ panel)
    return r_inv


def _diagonal_blocks(r, s_max):
    """The s_max x s_max diagonal blocks of every matrix in the (n, w, w)
    stack r, as a writable (n, w / s_max, s_max, s_max) view."""
    n_mats, width, _ = r.shape
    mat, row, col = r.strides
    return np.lib.stride_tricks.as_strided(
        r, (n_mats, width // s_max, s_max, s_max), (mat, s_max * (row + col), row, col)
    )


def _check_batch(E: EquivalentDictionary, Y: np.ndarray, cfg: BompConfig) -> np.ndarray:
    y = np.asarray(Y, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"measurements must be 2-D (one column per signal), got {y.shape}")
    if y.shape[0] != E.num_measurements:
        raise ValueError(
            f"measurements have {y.shape[0]} rows, equivalent dictionary has "
            f"{E.num_measurements}"
        )
    finite = np.isfinite(y).all(axis=0)
    if not finite.all():
        raise ValueError(f"signal {np.argmin(finite)} has a non-finite measurement")
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
    ValueError, before any decoding, when a measurement is not finite
    (naming the lowest-indexed such signal) or when the ``cfg.k_blocks``
    narrowest blocks hold more columns than there are measurements.
    """
    y = _check_batch(E, Y, cfg)
    theta, _ = _bomp_batch(E.matrix, E.structure, y, int(cfg.k_blocks))
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
    theta, supports = _bomp_batch(E.matrix, E.structure, y, int(cfg.k_blocks))
    return BlockSparseVector(
        values=theta[:, 0],
        structure=E.structure,
        support=tuple(int(j) for j in supports[:, 0]),
    )
