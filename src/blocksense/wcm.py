"""Weighted coherence minimization by majorization-minimization (MM).

The design objective

    f(G) = 1/2 * norm_penalty(G) + (1 - alpha) * total_inter(G) + alpha * total_sub(G)

is a quadratic in the Gram matrix G = D'A'AD that weighs each squared entry
by 1/2 (diagonal), 1 - alpha (across blocks) or alpha (inside blocks). Each
iteration replaces f by its majorizer at the previous Gram matrix G_p,

    g(G, G_p) = f(G_p) + <grad f(G_p), G - G_p> + 3/2 * ||G - G_p||_F^2,

which shares f's value and gradient at G_p. Its curvature 3/2, the sum of
the three weights, exceeds every one of them, so g upper-bounds f everywhere:
its exact minimizer can never increase f, and the iteration descends
monotonically to a local optimum (Hunter & Lange, "A tutorial on MM
algorithms", 2004). Up to a constant, g is 3/2 * ||G - T||_F^2 with the
target T = G_p - grad f(G_p) / 3: a gradient step on the Gram matrix,
followed, as in Elad's optimized projections (2007), by a projection onto
the Gram matrices the design can reach. That projection is exact: after
whitening by the dictionary frame it is a nearest rank-M PSD approximation,
solved by the top-M eigenpairs of the whitened target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import (
    CoherenceReport,
    _check_alpha,
    _gradient,
    _gram_terms,
    coherence_report,
    objective_gradient,
    weighted_objective,
)
from .ds import _whitening
from .model import (
    BlockGram,
    BlockStructure,
    Dictionary,
    EquivalentDictionary,
    SensingMatrix,
    _gram_matrix,
    sym_eig,
)

INIT_MODES = ("ds", "random")


@dataclass(frozen=True)
class WcmConfig:
    """Optimizer settings.

    ``alpha`` weights sub-block against inter-block coherence and must lie
    strictly inside (0, 1). Iteration stops when the objective changes by at
    most ``rel_tol * (1 + f)`` in one step, or at ``max_iters``. ``init``
    selects the starting sensing matrix: the closed-form baseline ("ds") or
    i.i.d. standard normal entries ("random", which requires a seed).
    """

    alpha: float
    max_iters: int = 1000
    rel_tol: float = 1e-8
    init: str = "ds"
    seed: int | None = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        if int(self.max_iters) < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not float(self.rel_tol) > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES}, got {self.init!r}")
        if self.init == "random" and self.seed is None:
            raise ValueError("random initialization requires a seed")


@dataclass(frozen=True, eq=False)
class WcmReport:
    """Result of one optimization run.

    ``objective_trace`` holds f at the initial point and after every step, and
    is non-increasing up to floating-point slack. ``component_trace`` carries
    the matching (total_inter, total_sub, norm_penalty) triples, one row per
    trace entry.
    """

    sensing: SensingMatrix
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    final_report: CoherenceReport
    component_trace: np.ndarray


def surrogate_target(gram: BlockGram, alpha: float) -> np.ndarray:
    """Gram matrix that the per-step minimization drives G toward, the
    gradient step

        T = G - grad f(G) / 3
          = (2/3) * (1/2 * idealized_norm + (1-alpha) * idealized_inter + alpha * idealized_sub)
    """
    alpha = _check_alpha(alpha)
    return _surrogate_target(gram.matrix, gram.structure, alpha)


def _surrogate_target(g: np.ndarray, structure: BlockStructure, alpha: float) -> np.ndarray:
    return g - _gradient(g, structure, alpha) / 3.0


def surrogate_value(gram: BlockGram, gram_prev: BlockGram, alpha: float) -> float:
    """MM majorizer g(G, G_prev) of the objective, anchored at G_prev:

        f(G_prev) + <grad f(G_prev), G - G_prev> + 3/2 * ||G - G_prev||_F^2

    which equals the quadratic distances from G to the idealized masks of
    G_prev, in the objective's weights:

        1/2 * ||G - idealized_norm||^2 + (1-alpha) * ||G - idealized_inter||^2
        + alpha * ||G - idealized_sub||^2
    """
    alpha = _check_alpha(alpha)
    if gram.matrix.shape != gram_prev.matrix.shape:
        raise ValueError("G and G_prev must have identical shapes")
    if gram.structure != gram_prev.structure:
        raise ValueError("G and G_prev must share one block structure")
    step = gram.matrix - gram_prev.matrix
    return float(
        weighted_objective(gram_prev, alpha)
        + np.sum(objective_gradient(gram_prev, alpha) * step)
        + 1.5 * np.sum(step**2)
    )


def surrogate_gradient(gram: BlockGram, gram_prev: BlockGram, alpha: float) -> np.ndarray:
    """Entrywise gradient of :func:`surrogate_value` in its first argument,

        grad f(G_prev) + 3 * (G - G_prev)
    """
    return objective_gradient(gram_prev, alpha) + 3.0 * (gram.matrix - gram_prev.matrix)


class _DesignBasis:
    """Whitening transforms of one dictionary, precomputed for the iteration."""

    def __init__(self, D: Dictionary):
        self.structure = D.structure
        # diag(w)^{-1/2} U' and its product with D
        self.whiten = _whitening(D)
        self.whiten_dict = self.whiten @ D.matrix

    def step(self, g: np.ndarray, alpha: float, m: int) -> np.ndarray:
        """One exact surrogate minimization from the Gram matrix ``g``."""
        target = _surrogate_target(g, self.structure, alpha)
        whitened = self.whiten_dict @ target @ self.whiten_dict.T
        w, v = sym_eig(whitened)
        # Negative directions cannot be matched by a PSD Gram and only add a
        # constant, so they are clamped before the square root.
        top = np.sqrt(np.clip(w[:m], 0.0, None))
        return (v[:, :m] * top).T @ self.whiten


def wcm_step(A_prev: SensingMatrix, D: Dictionary, alpha: float) -> SensingMatrix:
    """Exact minimizer of the surrogate built at ``A_prev``.

    Among all sensing matrices of the same shape, the returned one minimizes
    the surrogate anchored at the Gram matrix of ``A_prev @ D``. The result is
    unique only up to left-orthonormal rotation; the Gram matrix it induces is
    rotation-invariant.
    """
    alpha = _check_alpha(alpha)
    if A_prev.signal_dim != D.signal_dim:
        raise ValueError(
            f"sensing matrix expects signals of dimension {A_prev.signal_dim}, "
            f"dictionary has {D.signal_dim}"
        )
    g = _gram_matrix(A_prev.matrix @ D.matrix)
    return SensingMatrix(_DesignBasis(D).step(g, alpha, A_prev.num_measurements))


def run_wcm(D: Dictionary, M: int, config: WcmConfig) -> WcmReport:
    """Iterate exact surrogate minimization until the objective stalls.

    Starts from the closed-form baseline by default (or a random matrix when
    ``config.init == "random"``) and records the objective after every step.
    """
    M = int(M)
    if not 1 <= M < D.signal_dim:
        raise ValueError(f"M must satisfy 1 <= M < N={D.signal_dim}, got {M}")
    basis = _DesignBasis(D)
    structure = D.structure
    alpha = config.alpha

    if config.init == "ds":
        a_mat = basis.whiten[:M]
    else:
        rng = np.random.default_rng(config.seed)
        a_mat = rng.standard_normal((M, D.signal_dim))

    g = _gram_matrix(a_mat @ D.matrix)
    terms = _gram_terms(g, structure)
    f = terms.objective(alpha)
    trace = [f]
    components = [terms]

    converged = False
    for _ in range(int(config.max_iters)):
        a_mat = basis.step(g, alpha, M)
        g = _gram_matrix(a_mat @ D.matrix)
        terms = _gram_terms(g, structure)
        f_new = terms.objective(alpha)
        trace.append(f_new)
        components.append(terms)
        if abs(f - f_new) <= config.rel_tol * (1.0 + f):
            converged = True
            f = f_new
            break
        f = f_new

    sensing = SensingMatrix(a_mat)
    final_e = EquivalentDictionary(a_mat @ D.matrix, structure)
    return WcmReport(
        sensing=sensing,
        objective_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
        final_report=coherence_report(final_e, alpha=alpha),
        component_trace=np.asarray(components),
    )
