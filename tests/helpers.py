"""Shared test utilities: random instance builders and independent oracles."""

from __future__ import annotations

import itertools

import numpy as np

from blocksense import (
    BlockStructure,
    BompConfig,
    Dictionary,
    EquivalentDictionary,
    RankDeficientSupportError,
    TrialResult,
    WcmConfig,
    bomp_decode_batch,
    classification_rate,
    design_ds,
    generate_dictionary,
    generate_signals,
    representation_error,
    run_wcm,
)
from blocksense.bomp import _triangular_inverse
from blocksense.coherence import _equivalent_terms, _gradient, _gram_terms, _Terms
from blocksense.harness import _grid
from blocksense.model import _gram_matrix


def unit_columns(mat: np.ndarray) -> np.ndarray:
    return mat / np.linalg.norm(mat, axis=0)


def random_dictionary(rng, n, sizes) -> Dictionary:
    structure = BlockStructure(tuple(sizes))
    return Dictionary(unit_columns(rng.standard_normal((n, structure.num_columns))), structure)


def random_orthonormal(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


def numerical_gradient(fn, g: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a matrix, entry by
    entry. Exact up to roundoff for quadratics."""
    grad = np.zeros_like(g)
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            plus = g.copy()
            plus[i, j] += h
            minus = g.copy()
            minus[i, j] -= h
            grad[i, j] = (fn(plus) - fn(minus)) / (2.0 * h)
    return grad


def oracle_block_support(e_mat: np.ndarray, structure: BlockStructure, y: np.ndarray, k: int):
    """Exhaustive search over all k-block supports for the least-squares
    residual minimizer. Independent of the greedy decoder."""
    best, best_res = None, np.inf
    for combo in itertools.combinations(range(structure.num_blocks), k):
        cols = np.concatenate(
            [np.arange(structure.offsets[j], structure.offsets[j + 1]) for j in combo]
        )
        sub = e_mat[:, cols]
        coef, *_ = np.linalg.lstsq(sub, y, rcond=None)
        res = np.linalg.norm(y - sub @ coef)
        if res < best_res:
            best, best_res = combo, res
    return set(best)


def packed_equivalent(rng, n_blocks=8, s=3, m=14, iters=2500, cap0=0.40, cap1=0.235,
                      relax=1.6, anneal_frac=0.7) -> EquivalentDictionary:
    """Equivalent dictionary with well-spread blocks, built by alternating
    projections between Gram matrices with identity diagonal blocks and
    clamped cross-block spectra, and rank-m PSD factorizations. For a fair
    share of seeds the result satisfies the block recovery bound at k = 2,
    which random or coherence-designed matrices of this size do not reach.
    """
    k_cols = n_blocks * s
    e = rng.standard_normal((m, k_cols))
    e /= np.linalg.norm(e, axis=0)
    for it in range(iters):
        cap = cap0 + (cap1 - cap0) * min(1.0, it / (anneal_frac * iters))
        g = e.T @ e
        h = np.zeros_like(g)
        for i in range(n_blocks):
            si = slice(i * s, (i + 1) * s)
            h[si, si] = np.eye(s)
            for j in range(i + 1, n_blocks):
                sj = slice(j * s, (j + 1) * s)
                u, sv, vt = np.linalg.svd(g[si, sj])
                blk = (u * np.minimum(sv, cap)) @ vt
                h[si, sj] = blk
                h[sj, si] = blk.T
        h = g + relax * (h - g)
        h = (h + h.T) / 2.0
        w, v = np.linalg.eigh(h)
        w = w[::-1][:m].clip(min=0.0)
        v = v[:, ::-1][:, :m]
        e = np.sqrt(w)[:, None] * v.T
    return EquivalentDictionary(e, BlockStructure((s,) * n_blocks))


def reference_bomp(E, offsets, Y, k, ls_tol):
    """Block-OMP one signal at a time, re-solving the least squares on the
    gathered sub-dictionary for every candidate block. The reference for the
    lockstep kernel: same returns and exception as ``bomp._bomp_batch``, but
    it takes the block ``offsets`` in place of the structure, so it builds
    every block from them and never reads the structure's padded layout.

    At each step it tries the blocks in descending score order, ties to the
    lower index, and keeps the first whose support passes the SVD test: at
    most as many columns as rows, and sigma_min > ls_tol * sigma_max. A
    block that fails is passed over at every later step too, since it fails
    after any longer prefix. Once fewer than k blocks are left that have not
    been passed over, it raises, naming the support with that last block."""
    m_rows, n_cols = E.shape
    n_blocks = offsets.shape[0] - 1
    n_signals = Y.shape[1]
    et = np.ascontiguousarray(E.T)
    theta = np.zeros((n_cols, n_signals))
    supports = np.full((k, n_signals), -1, dtype=np.int64)

    for sig in range(n_signals):
        y = Y[:, sig].copy()
        r = y.copy()
        skip = np.zeros(n_blocks, dtype=bool)  # chosen or passed over
        passed_over = 0
        cols: list[int] = []
        for t in range(k):
            c = et @ r
            scores = np.add.reduceat(c * c, offsets[:-1])
            for j in np.argsort(-scores, kind="stable"):
                if skip[j]:
                    continue
                skip[j] = True
                trial = cols + list(range(int(offsets[j]), int(offsets[j + 1])))
                es = E[:, trial]
                u, s, vt = np.linalg.svd(es, full_matrices=False)
                if len(trial) <= m_rows and s[-1] > ls_tol * s[0]:
                    break
                passed_over += 1
                if n_blocks - passed_over < k:
                    raise RankDeficientSupportError([*supports[:t, sig], j], signal=sig)
            supports[t, sig] = j
            cols = trial
            coef = vt.T @ ((u.T @ y) / s)
            r = y - es @ coef
        theta[cols, sig] = coef
    return theta, supports


def reference_signals(D: Dictionary, k: int, L: int, rng):
    """Signals drawn one at a time, in the order ``harness.generate_signals``
    draws them in bulk: first every signal's row of block keys, whose stable
    ascending order puts its active blocks first, then every signal's
    values, s_max per active block, of which a block of s columns keeps the
    first s. The reference for ``harness.generate_signals``: same arguments,
    same returns, and the same draws from ``rng``."""
    structure = D.structure
    n_blocks = structure.num_blocks
    s_max = max(structure.sizes)
    keys = [rng.random(n_blocks) for _ in range(L)]
    theta = np.zeros((D.num_atoms, L))
    for sig in range(L):
        order = sorted(range(n_blocks), key=lambda j: (keys[sig][j], j))
        for j in order[:k]:
            values = rng.uniform(-1.0, 1.0, size=s_max)
            lo, hi = structure.offsets[j : j + 2]
            theta[lo:hi, sig] = values[: hi - lo]
    return D.matrix @ theta, theta


def reference_wcm_measure(a_mat, D: Dictionary, alpha):
    """The K x K Gram matrix of E = A D, its three penalty totals and f. The
    reference for the Gram-free totals of ``coherence._equivalent_terms``."""
    g = _gram_matrix(a_mat @ D.matrix)
    terms = _gram_terms(g, D.structure)
    return g, terms, terms.objective(alpha)


def reference_block_terms(eet: np.ndarray, blocks: np.ndarray, structure: BlockStructure) -> _Terms:
    """Penalty totals of G = E'E from E E' and the diagonal blocks E_b' E_b in
    the layout of ``structure``, gathered by boolean masks built on every
    call; inter is ||E E'||_F^2 = ||G||_F^2 less the blocks'. The reference
    for ``coherence._block_terms``, whose totals must equal these bit for bit."""
    eye = np.eye(blocks.shape[1], dtype=bool)
    return _Terms(
        float(np.sum(eet**2) - np.sum(blocks**2)),
        float(np.sum(blocks[:, ~eye] ** 2)),
        float(np.sum((blocks[:, eye][~structure.padding] - 1.0) ** 2)),
    )


def reference_wcm_step(D: Dictionary, g, alpha, m, eta):
    """Sensing matrix whose Gram matrix is nearest to ``g - eta * grad f(g)``,
    with the target formed and whitened as a K x K matrix. The reference for
    the Gram-free step ``wcm._step``: same projection, same clamping of
    negative eigenvalues."""
    whiten = D.whitening
    whiten_dict = whiten @ D.matrix
    target = g - eta * _gradient(g, D.structure, alpha)
    s = whiten_dict @ target @ whiten_dict.T
    w, v = np.linalg.eigh((s + s.T) / 2.0)
    w, v = w[::-1][:m], v[:, ::-1][:, :m]  # the top m, largest first
    top = np.sqrt(np.clip(w, 0.0, None))
    return (v * top).T @ whiten


def reference_block_rows(x: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """The columns of ``x`` as rows, one block at a time: a (blocks, s_max,
    rows) array whose padding rows are zero. The reference for
    ``model._block_rows``: it reads only the block ``offsets``, never the
    padded layout."""
    s_max = max(structure.sizes)
    rows = np.zeros((structure.num_blocks, s_max, x.shape[0]))
    for j in range(structure.num_blocks):
        lo, hi = structure.offsets[j : j + 2]
        rows[j, : hi - lo] = x[:, lo:hi].T
    return rows


def reference_whitening(mat: np.ndarray) -> np.ndarray:
    """The frame diag(w)^{-1/2} U' of D D' = U diag(w) U', w descending, by
    ``np.linalg.eigh`` of the symmetrized D D', sorted by copies. The
    reference for ``Dictionary.whitening``."""
    dd = mat @ mat.T
    w, u = np.linalg.eigh((dd + dd.T) / 2.0)
    w, u = w[::-1].copy(), u[:, ::-1].copy()
    return (u / np.sqrt(w)).T


def reference_representation_error(X, D: Dictionary, theta_hat) -> float:
    """||X - D theta_hat||_F / ||X||_F, out of place. The reference for
    ``harness.representation_error``."""
    return float(np.linalg.norm(X - D.matrix @ theta_hat)) / float(np.linalg.norm(X))


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


def reference_decode_chunk(rows, e_pad, structure, Y, k, coef, supports, excluded, ls_tol):
    """The lockstep kernel over a block-major ``e_pad``, E's padded columns
    in block order: it squares the correlations in place, sums each block's
    slots onto a strided copy of its first, and normalizes each column by a
    masked divide. It checks supports at the relative singular-value
    threshold ``ls_tol``, failing an exactly zero pivot as well, and finds
    each failing signal's first failing step one signal and one prefix at a
    time (``_first_failing_step``). It scores in float64 only, forming the
    correlations two residuals per product, as ``bomp._float64_scores``
    does. Same arguments and returns as ``bomp._decode_chunk``, except the
    layout of ``e_pad``, no float32 copy of it and the added ``ls_tol``.
    The reference for ``bomp._decode_chunk``, whose
    coefficients, supports, failing signals and failing steps must equal
    these bit for bit at ``ls_tol = bomp._RANK_TOL``."""
    m_rows = e_pad.shape[0]
    n_signals = Y.shape[1]
    pad = structure.padding
    n_blocks, s_max = pad.shape
    width = k * s_max
    every = np.arange(n_signals)
    resid = Y.T.copy()
    corr = np.empty((n_signals, n_blocks, s_max))  # E' r for every residual r
    q = np.zeros((n_signals, width, m_rows))  # rows: each signal's basis Q
    r = np.zeros((n_signals, width, width))
    qty = np.zeros((n_signals, width))  # Q' y
    for t in range(k):
        # two rows per product, the last padded with a zero row, so that a
        # row's bits do not depend on how many signals are decoded
        padded = np.zeros((n_signals + n_signals % 2, m_rows))
        padded[:n_signals] = resid
        flat = corr.reshape(n_signals, n_blocks * s_max)
        for i in range(0, n_signals, 2):
            flat[i : i + 2] = (padded[i : i + 2] @ e_pad)[: n_signals - i]
        np.square(corr, out=corr)
        # summed in column order, as np.add.reduceat would; padding adds +0.0
        scores = corr[:, :, 0].copy()
        for j in range(1, s_max):
            scores += corr[:, :, j]
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
            np.divide(col, norm[:, None], out=col, where=norm[:, None] > 0.0)
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


def reference_score(cfg, a_mat, D, X, theta):
    """Decode through ``a_mat`` and score E = A D, formed here with its
    penalty totals. The design-and-score-per-cell ``harness._score``,
    copied verbatim."""
    E = EquivalentDictionary(a_mat @ D.matrix, D.structure)
    theta_hat = bomp_decode_batch(E, a_mat @ X, BompConfig(k_blocks=cfg.k))
    return (
        representation_error(X, D, theta_hat),
        classification_rate(theta_hat, theta),
        _equivalent_terms(E.matrix, D.structure),
    )


def reference_design(cfg, trial: int, D: Dictionary, designer: str, alpha) -> np.ndarray:
    """Sensing matrix A of one cell, with no report: ``harness._design``
    before it returned the ``run_wcm`` report, copied verbatim."""
    if designer == "random":
        # stream keyed off the trial stream so designer order cannot matter
        return np.random.default_rng([cfg.seed, trial, 7919]).standard_normal((cfg.M, cfg.N))
    if designer == "ds":
        return design_ds(D, cfg.M).matrix
    return run_wcm(D, cfg.M, WcmConfig(alpha=alpha)).sensing.matrix


def reference_run_trial(cfg, trial: int) -> list:
    """One trial that designs and scores cell by cell, and forms E = A D and
    its totals for every distinct design, including those whose ``run_wcm``
    report already held them: the design-and-score-per-cell ``run_trial``
    copied verbatim, less its timing and INFO log line. The reference for
    ``harness.run_trial``, whose rows must equal these bit for bit."""
    rng = np.random.default_rng([cfg.seed, trial])
    D = generate_dictionary(cfg, rng)
    X, theta = generate_signals(D, cfg.k, cfg.L, rng)
    rows = []
    scores = {}  # keyed on the bytes of A: each distinct design is scored once
    for designer, alpha in _grid(cfg):
        a_mat = reference_design(cfg, trial, D, designer, alpha)
        key = a_mat.tobytes()
        if key not in scores:
            scores[key] = reference_score(cfg, a_mat, D, X, theta)
        e, r, terms = scores[key]
        rows.append(TrialResult(
            trial=trial,
            designer=designer,
            alpha=alpha,
            e=e,
            r=r,
            ratio_nu_mu=terms.sub / terms.inter if terms.inter > 0.0 else float("inf"),
            # baselines without an alpha of their own are scored at the neutral 0.5
            objective=terms.objective(0.5 if alpha is None else alpha),
        ))
    return rows
