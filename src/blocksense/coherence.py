"""Coherence metrics, the weighted design objective, masking operators, and
recovery-bound evaluators for block-partitioned Gram matrices.

The three masking kinds used throughout are named after what they penalize:

* ``"norm"``  - deviation of the Gram diagonal from 1 (column normalization),
* ``"inter"`` - entries coupling different blocks,
* ``"sub"``   - off-diagonal entries inside a diagonal block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import BlockGram, BlockStructure, EquivalentDictionary, _gram_matrix

MASK_KINDS = ("norm", "inter", "sub")


@lru_cache(maxsize=128)
def _pattern_masks(structure: BlockStructure) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks (cross-block, within-block-off-diagonal) for a structure."""
    labels = structure.labels
    cross = labels[:, None] != labels[None, :]
    within = ~cross & ~np.eye(structure.num_columns, dtype=bool)
    cross.flags.writeable = False
    within.flags.writeable = False
    return cross, within


def _total_inter(g: np.ndarray, structure: BlockStructure) -> float:
    cross, _ = _pattern_masks(structure)
    return float(np.sum(g[cross] ** 2))


def _total_sub(g: np.ndarray, structure: BlockStructure) -> float:
    _, within = _pattern_masks(structure)
    return float(np.sum(g[within] ** 2))


def _norm_penalty(g: np.ndarray) -> float:
    d = np.diagonal(g)
    return float(np.sum((d - 1.0) ** 2))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


class _Terms(NamedTuple):
    """The three penalty totals of one Gram matrix."""

    inter: float
    sub: float
    norm: float

    def objective(self, alpha: float) -> float:
        """f = 1/2 * norm + (1 - alpha) * inter + alpha * sub."""
        return 0.5 * self.norm + (1.0 - alpha) * self.inter + alpha * self.sub


def _gram_terms(g: np.ndarray, structure: BlockStructure) -> _Terms:
    """All three penalty totals of ``g``, gathering each mask once."""
    return _Terms(_total_inter(g, structure), _total_sub(g, structure), _norm_penalty(g))


def mutual_coherence(E) -> float:
    """Largest normalized inner product between two distinct columns of E."""
    mat = E.matrix if isinstance(E, EquivalentDictionary) else np.asarray(E, dtype=float)
    if mat.ndim != 2 or mat.shape[1] < 2:
        raise ValueError("mutual coherence needs a matrix with at least two columns")
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("matrix has a zero column; coherence is undefined")
    c = np.abs(_gram_matrix(mat)) / np.outer(norms, norms)
    np.fill_diagonal(c, 0.0)
    return float(c.max())


def inter_block_coherence(gram: BlockGram) -> float:
    """Largest cross-block spectral norm of the Gram matrix, scaled by 1/s.

    Defined only for structures with a single common block size s and at
    least two blocks.
    """
    s = gram.structure.uniform_size
    if s is None:
        raise ValueError("inter-block coherence requires equal block sizes")
    if gram.structure.num_blocks < 2:
        raise ValueError("inter-block coherence requires at least two blocks")
    best = 0.0
    for i in range(gram.structure.num_blocks):
        for j in range(i + 1, gram.structure.num_blocks):
            b = gram.block(i, j)
            # spectral norm via the largest eigenvalue of B'B
            lam = np.linalg.eigvalsh(b.T @ b)[-1]
            best = max(best, float(np.sqrt(max(lam, 0.0))))
    return best / s


def sub_block_coherence(gram: BlockGram) -> float:
    """Largest absolute off-diagonal entry inside any diagonal block."""
    best = 0.0
    for j in range(gram.structure.num_blocks):
        b = gram.block(j, j)
        if b.shape[0] < 2:
            continue
        off = np.abs(b - np.diag(np.diagonal(b)))
        best = max(best, float(off.max()))
    return best


def total_inter_block_coherence(gram: BlockGram) -> float:
    """Sum of squared entries coupling different blocks."""
    return _total_inter(gram.matrix, gram.structure)


def total_sub_block_coherence(gram: BlockGram) -> float:
    """Sum of squared off-diagonal entries inside the diagonal blocks."""
    return _total_sub(gram.matrix, gram.structure)


def normalization_penalty(gram: BlockGram) -> float:
    """Sum of squared deviations of the Gram diagonal from 1."""
    return _norm_penalty(gram.matrix)


def weighted_objective(gram: BlockGram, alpha: float) -> float:
    """Design objective: half the normalization penalty plus the coherence
    totals blended by ``alpha``:

        f(G) = 1/2 * norm_penalty + (1 - alpha) * total_inter + alpha * total_sub
    """
    alpha = _check_alpha(alpha)
    return _gram_terms(gram.matrix, gram.structure).objective(alpha)


def _deviation(g: np.ndarray, structure: BlockStructure, kind: str) -> np.ndarray:
    cross, within = _pattern_masks(structure)
    if kind == "norm":
        out = np.zeros_like(g)
        np.fill_diagonal(out, np.diagonal(g) - 1.0)
        return out
    if kind == "inter":
        return np.where(cross, g, 0.0)
    if kind == "sub":
        return np.where(within, g, 0.0)
    raise ValueError(f"unknown mask kind {kind!r}, expected one of {MASK_KINDS}")


def deviation(gram: BlockGram, kind: str) -> np.ndarray:
    """Part of G penalized by ``kind``: the diagonal shifted by -1 for
    ``"norm"``, the cross-block entries for ``"inter"``, or the within-block
    off-diagonals for ``"sub"``; zero everywhere else.
    """
    return _deviation(gram.matrix, gram.structure, kind)


def idealized(gram: BlockGram, kind: str) -> np.ndarray:
    """G with the entries penalized by ``kind`` replaced by their ideal value
    (ones on the diagonal for ``"norm"``, zeros otherwise). Complements
    :func:`deviation`: G - idealized(G, kind) == deviation(G, kind).
    """
    cross, within = _pattern_masks(gram.structure)
    if kind == "norm":
        out = gram.matrix.copy()
        np.fill_diagonal(out, 1.0)
        return out
    if kind == "inter":
        return np.where(cross, 0.0, gram.matrix)
    if kind == "sub":
        return np.where(within, 0.0, gram.matrix)
    raise ValueError(f"unknown mask kind {kind!r}, expected one of {MASK_KINDS}")


def objective_gradient(gram: BlockGram, alpha: float) -> np.ndarray:
    """Entrywise gradient of :func:`weighted_objective` with respect to G."""
    return _gradient(gram.matrix, gram.structure, _check_alpha(alpha))


def _gradient(g: np.ndarray, structure: BlockStructure, alpha: float) -> np.ndarray:
    return 2.0 * (
        0.5 * _deviation(g, structure, "norm")
        + (1.0 - alpha) * _deviation(g, structure, "inter")
        + alpha * _deviation(g, structure, "sub")
    )


def decomposition_check(E: EquivalentDictionary) -> tuple[float, float]:
    """Self-test pair: ||E'E - I||_F^2 and the sum of the three penalty terms.

    The two numbers agree up to floating-point noise for every E; the first is
    computed directly, the second from the masked totals.
    """
    g = _gram_matrix(E.matrix)
    lhs = float(np.sum((g - np.eye(g.shape[0])) ** 2))
    terms = _gram_terms(g, E.structure)
    return lhs, terms.norm + terms.inter + terms.sub


def sparse_recovery_bound(mu: float) -> float:
    """Sparsity level below which greedy/convex decoders provably succeed."""
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    return 0.5 * (1.0 + 1.0 / mu)


def block_recovery_bound(mu_block: float, nu_sub: float, s: int) -> float:
    """Block-sparsity level below which block decoders provably succeed.

    Evaluates (1/2s) * (1/mu_block + s - (s - 1) * nu_sub / mu_block); with
    s = 1 this reduces to :func:`sparse_recovery_bound`.
    """
    mu_block = float(mu_block)
    if mu_block <= 0.0:
        raise ValueError(f"mu_block must be positive, got {mu_block}")
    s = int(s)
    if s < 1:
        raise ValueError(f"block size must be >= 1, got {s}")
    return (1.0 / mu_block + s - (s - 1) * float(nu_sub) / mu_block) / (2.0 * s)


@dataclass(frozen=True)
class CoherenceReport:
    """Bundle of the coherence diagnostics of one equivalent dictionary.

    ``mu_block`` is None when block sizes are mixed (it is only defined for a
    common size) or when there is a single block. ``objective_alpha`` is the
    weighted objective at the alpha the report was built with, if any.
    """

    mu: float
    mu_block: float | None
    nu_sub: float
    total_inter: float
    total_sub: float
    norm_penalty: float
    objective_alpha: float | None = None

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "mu_block": self.mu_block,
            "nu_sub": self.nu_sub,
            "total_inter": self.total_inter,
            "total_sub": self.total_sub,
            "norm_penalty": self.norm_penalty,
        }


def coherence_report(E: EquivalentDictionary, alpha: float | None = None) -> CoherenceReport:
    """Compute every coherence diagnostic of an equivalent dictionary at once."""
    g = BlockGram(_gram_matrix(E.matrix), E.structure)
    if g.structure.uniform_size is not None and g.structure.num_blocks >= 2:
        mu_block = inter_block_coherence(g)
    else:
        mu_block = None
    terms = _gram_terms(g.matrix, g.structure)
    return CoherenceReport(
        mu=mutual_coherence(E),
        mu_block=mu_block,
        nu_sub=sub_block_coherence(g),
        total_inter=terms.inter,
        total_sub=terms.sub,
        norm_penalty=terms.norm,
        objective_alpha=None if alpha is None else terms.objective(_check_alpha(alpha)),
    )
