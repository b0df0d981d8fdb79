"""Coherence metrics, the weighted design objective, its deviations and
gradient, and recovery-bound evaluators for block-partitioned Gram matrices.

A block structure partitions the entries of its Gram matrix three ways, named
after what they penalize:

* ``"norm"``  - deviation of the Gram diagonal from 1 (column normalization),
* ``"inter"`` - entries coupling different blocks,
* ``"sub"``   - off-diagonal entries inside a diagonal block.

Functions of a Gram matrix G take every penalty, deviation, gradient and
block coherence from G's three deviations (:func:`_deviations`), whose
weighted sum is f and twice that sum its gradient. Callers holding only
E = A D read the totals from its padded diagonal blocks
(:func:`_block_terms`), at the slots that the structure's ``diagonal`` and
``off_diagonal`` index fields name, and form no K x K array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fileio import _number
from .model import BlockGram, BlockStructure, Dictionary, EquivalentDictionary, SensingMatrix
from .model import _block_rows, _gram_matrix, _sensing_array


def _check_alpha(alpha: float) -> float:
    """``alpha`` as a float strictly inside (0, 1); a string or bool is refused."""
    alpha = _number("alpha", alpha, float)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


class _Terms(NamedTuple):
    """One value per kind: the three penalty totals of a Gram matrix, or its
    three deviations (:func:`_deviations`)."""

    inter: float
    sub: float
    norm: float

    def objective(self, alpha: float) -> float:
        """f = 1/2 * norm + (1 - alpha) * inter + alpha * sub."""
        return 0.5 * self.norm + (1.0 - alpha) * self.inter + alpha * self.sub


def _deviations(g: np.ndarray, structure: BlockStructure) -> _Terms:
    """G - I split into its cross-block, within-block off-diagonal and
    diagonal entries: three K x K arrays, each zero elsewhere."""
    labels = structure.labels
    cross = labels[:, None] != labels[None, :]
    sub = g - np.eye(len(labels))
    inter = np.where(cross, sub, 0.0)
    norm = np.diag(np.diagonal(sub))
    np.copyto(sub, 0.0, where=cross)
    np.fill_diagonal(sub, 0.0)
    return _Terms(inter, sub, norm)


def _gram_terms(g: np.ndarray, structure: BlockStructure) -> _Terms:
    """All three penalty totals of ``g``: the squared sums of its deviations."""
    return _Terms(*(float(np.sum(x**2)) for x in _deviations(g, structure)))


def _gram_parts(e: np.ndarray, structure: BlockStructure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E E', the columns of ``e`` as padded rows (``model._block_rows``) and
    the diagonal blocks E_b' E_b of G = E'E in the padded layout."""
    rows = _block_rows(e, structure)
    # numpy forms each block of rows @ rows' by syrk; against a contiguous
    # copy of the transposed rows it takes gemm, which rounds differently
    # for some shapes and would move every design above 1/2
    return e @ e.T, rows, rows @ rows.transpose(0, 2, 1)


def _block_terms(eet: np.ndarray, blocks: np.ndarray, structure: BlockStructure) -> _Terms:
    """Penalty totals of G = E'E from E E' and the diagonal blocks E_b' E_b in
    the layout of ``structure``; inter is ||E E'||_F^2 = ||G||_F^2 less the
    blocks' sum of squares S_b. The blocks are read at the structure's
    ``diagonal`` and ``off_diagonal`` slots. Each sum sees the array, shape
    and memory order of the boolean-mask gathers ``blocks[:, ~eye]`` and
    ``blocks[:, eye][~padding]``, so f keeps its bits: the integer gather
    ``[:, off_diagonal]`` lays its result out as the mask does."""
    squares = blocks**2
    s_b = squares.sum()
    diagonal = blocks.take(structure.diagonal)
    diagonal -= 1.0
    diagonal *= diagonal
    return _Terms(
        float((eet**2).sum() - s_b),
        float(squares.reshape(len(squares), -1)[:, structure.off_diagonal].sum()),
        float(diagonal.sum()),
    )


def _equivalent_terms(e: np.ndarray, structure: BlockStructure) -> _Terms:
    """All three penalty totals of G = E'E, from ``e`` without forming G."""
    eet, _, blocks = _gram_parts(e, structure)
    return _block_terms(eet, blocks, structure)


def inter_block_coherence(gram: BlockGram) -> float:
    """Largest cross-block spectral norm of the Gram matrix, scaled by 1/s.

    Defined only for structures with a single common block size s and at
    least two blocks.
    """
    s = gram.structure.uniform_size
    if s is None:
        raise ValueError("inter-block coherence requires equal block sizes")
    nb = gram.structure.num_blocks
    if nb < 2:
        raise ValueError("inter-block coherence requires at least two blocks")
    # blocks[i, j] is the s x s block at block row i, block column j
    blocks = gram.matrix.reshape(nb, s, nb, s).swapaxes(1, 2)
    upper = np.triu_indices(nb, 1)
    norms = np.linalg.svd(blocks[upper], compute_uv=False)[:, 0]
    return float(norms.max()) / s


def sub_block_coherence(gram: BlockGram) -> float:
    """Largest absolute off-diagonal entry inside any diagonal block."""
    return float(np.abs(_deviations(gram.matrix, gram.structure).sub).max())


def total_inter_block_coherence(gram: BlockGram) -> float:
    """Sum of squared entries coupling different blocks."""
    return _gram_terms(gram.matrix, gram.structure).inter


def total_sub_block_coherence(gram: BlockGram) -> float:
    """Sum of squared off-diagonal entries inside the diagonal blocks."""
    return _gram_terms(gram.matrix, gram.structure).sub


def weighted_objective(gram: BlockGram, alpha: float) -> float:
    """Design objective: half the normalization penalty plus the coherence
    totals blended by ``alpha``:

        f(G) = 1/2 * norm_penalty + (1 - alpha) * total_inter + alpha * total_sub
    """
    alpha = _check_alpha(alpha)
    return _gram_terms(gram.matrix, gram.structure).objective(alpha)


def deviation(gram: BlockGram, kind: str) -> np.ndarray:
    """Part of G penalized by ``kind``: the diagonal shifted by -1 for
    ``"norm"``, the cross-block entries for ``"inter"``, or the within-block
    off-diagonals for ``"sub"``; zero everywhere else.
    """
    if kind not in _Terms._fields:
        raise ValueError(f"unknown mask kind {kind!r}, expected one of {_Terms._fields}")
    return getattr(_deviations(gram.matrix, gram.structure), kind)


def objective_gradient(gram: BlockGram, alpha: float) -> np.ndarray:
    """Entrywise gradient of :func:`weighted_objective` with respect to G."""
    return _gradient(gram.matrix, gram.structure, _check_alpha(alpha))


def _gradient(g: np.ndarray, structure: BlockStructure, alpha: float) -> np.ndarray:
    """Twice the deviations weighted as in f."""
    return 2.0 * _deviations(g, structure).objective(alpha)


def _gram_mismatch(mat) -> float:
    """||X'X - I||_F^2 of a matrix X, from its K x K Gram matrix."""
    g = _gram_matrix(mat)
    return float(np.sum((g - np.eye(g.shape[0])) ** 2))


def ds_objective(A: SensingMatrix, D: Dictionary) -> float:
    """Gram-identity mismatch ||D'A'AD - I||_F^2 of a sensing matrix, which
    ``wcm.design_ds`` minimizes; an A that is not finite, 2-D and N wide is refused."""
    return _gram_mismatch(_sensing_array(A, D.signal_dim) @ D.matrix)


def decomposition_check(E: EquivalentDictionary) -> tuple[float, float]:
    """Self-test pair: ||E'E - I||_F^2 from the K x K Gram matrix, and the sum
    of the three penalty totals from E by the sweep's kernel,
    :func:`_equivalent_terms`. The two agree up to rounding for every E."""
    terms = _equivalent_terms(E.matrix, E.structure)
    return _gram_mismatch(E.matrix), terms.norm + terms.inter + terms.sub


def sparse_recovery_bound(mu: float) -> float:
    """Sparsity level below which greedy/convex decoders provably succeed."""
    mu = _number("mu", mu, float)
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    return 0.5 * (1.0 + 1.0 / mu)


def block_recovery_bound(mu_block: float, nu_sub: float, s: int) -> float:
    """Block-sparsity level below which block decoders provably succeed.

    Evaluates (1/2s) * (1/mu_block + s - (s - 1) * nu_sub / mu_block); with
    s = 1 this reduces to :func:`sparse_recovery_bound`.
    """
    mu_block = _number("mu_block", mu_block, float)
    if mu_block <= 0.0:
        raise ValueError(f"mu_block must be positive, got {mu_block}")
    s = _number("s", s, int)
    if s < 1:
        raise ValueError(f"block size must be >= 1, got {s}")
    nu_sub = _number("nu_sub", nu_sub, float)
    return (1.0 / mu_block + s - (s - 1) * nu_sub / mu_block) / (2.0 * s)


def objective_lower_bound(K: int, M: int, alpha: float) -> float:
    """Certified lower bound on the weighted objective of any M x K equivalent
    dictionary, for any block sizes, when alpha >= 1/2:

        f >= K (1 - alpha)(1 - rho) / (rho + 2 (1 - alpha)(1 - rho)),   rho = M / K.

    Lowering the sub-block weight to 1 - alpha only lowers f; then
    ||G||_F^2 >= (sum g_ii)^2 / M because rank G <= M, and what is left is a
    convex function of the diagonal (for alpha >= 1/2), smallest when every
    g_ii equals c * rho with c = 1 / (rho + 2 (1 - alpha)(1 - rho)). For
    alpha > 1/2 the bound is met exactly when G = c P, with P a rank-M
    orthogonal projector whose diagonal blocks are rho * I; at alpha = 1/2 it
    is (K - M) / 2, the closed-form baseline's optimum. The bound at
    1 - alpha also bounds f at alpha < 1/2, by the mirror argument
    (``wcm.WcmReport.gap``).
    """
    alpha = _check_alpha(alpha)
    if alpha < 0.5:
        raise ValueError(f"the lower bound holds for alpha >= 0.5, got {alpha}")
    K, M = _number("K", K, int), _number("M", M, int)
    if not 1 <= M <= K:
        raise ValueError(f"M must satisfy 1 <= M <= K={K}, got {M}")
    rho = M / K
    spread = 2.0 * (1.0 - alpha) * (1.0 - rho)
    return 0.5 * K * spread / (rho + spread)


@dataclass(frozen=True)
class CoherenceReport:
    """Bundle of the coherence diagnostics of one equivalent dictionary.

    ``mu_block`` is None when block sizes are mixed (it is only defined for a
    common size) or when there is a single block. ``objective_alpha`` is the
    weighted objective at the alpha the report was built with, if any.
    :meth:`to_json` gives the six diagnostics as a JSON object, with null for
    a missing ``mu_block``.
    """

    mu: float
    mu_block: float | None
    nu_sub: float
    total_inter: float
    total_sub: float
    norm_penalty: float
    objective_alpha: float | None = None

    def to_json(self) -> str:
        return json.dumps({
            "mu": self.mu,
            "mu_block": self.mu_block,
            "nu_sub": self.nu_sub,
            "total_inter": self.total_inter,
            "total_sub": self.total_sub,
            "norm_penalty": self.norm_penalty,
        })


def coherence_report(E: EquivalentDictionary, alpha: float | None = None) -> CoherenceReport:
    """Compute every coherence diagnostic of an equivalent dictionary at once.
    The totals come from E by :func:`_equivalent_terms`, as ``run_wcm``'s trace
    does; the mutual coherence ``mu``, the largest normalized inner product
    of two distinct columns, is read from the report's one E'E."""
    norms = np.linalg.norm(E.matrix, axis=0)
    if norms.size < 2:
        raise ValueError("mutual coherence needs a matrix with at least two columns")
    if np.any(norms == 0.0):
        raise ValueError("matrix has a zero column; coherence is undefined")
    # E'E is symmetric PSD by construction, so the eigensolve check is skipped
    g = BlockGram(_gram_matrix(E.matrix), E.structure, validate=False)
    if g.structure.uniform_size is not None and g.structure.num_blocks >= 2:
        mu_block = inter_block_coherence(g)
    else:
        mu_block = None
    terms = _equivalent_terms(E.matrix, E.structure)
    nu_sub = sub_block_coherence(g)
    c = np.abs(g.matrix) / np.outer(norms, norms)
    np.fill_diagonal(c, 0.0)
    return CoherenceReport(
        mu=float(c.max()),
        mu_block=mu_block,
        nu_sub=nu_sub,
        total_inter=terms.inter,
        total_sub=terms.sub,
        norm_penalty=terms.norm,
        objective_alpha=None if alpha is None else terms.objective(_check_alpha(alpha)),
    )
