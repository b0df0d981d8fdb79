"""Weighted coherence minimization: two designers of one objective, chosen
by alpha.

The design objective

    f(G) = 1/2 * norm_penalty(G) + (1 - alpha) * total_inter(G) + alpha * total_sub(G)

is a quadratic in the Gram matrix G = D'A'AD that weighs each squared entry
by 1/2 (diagonal), 1 - alpha (across blocks) or alpha (inside blocks). With
D D' = U diag(w) U' and the whitening W = diag(w)^{-1/2} U'
(``Dictionary.whitening``), the rows of W D are orthonormal, and the
gradient is

    grad f(G) = 2 * (1 - alpha) * G + 2 * Q - I,
    Q = (2 * alpha - 1) * blockdiag(G) + (1/2 - alpha) * diag(G),

where Q is block-diagonal, so (W D) Q or E Q takes one s x s product per
block. Neither designer forms a K x K matrix.

``run_wcm`` picks the designer by alpha:

* alpha >= 1/2: L-BFGS on C (A = C W, below), with no eigensolve.
  From 1/2 up the objective has a certified lower bound
  (``coherence.objective_lower_bound``). At 1/2 the ds start is the closed
  form, and no designer runs (below).
* alpha < 1/2: accelerated projected gradient steps on G, safeguarded by
  majorization-minimization (MM), where L-BFGS ends worse.

Both designers iterate over the same C (M x N), with A = C W, so that
E = A D = C (W D). Because W D has orthonormal rows, E E' = C C' and
E (W D)' = C. A sensing matrix A_0 enters as C_0 = E_0 (W D)', which maps
back to A_0 in exact arithmetic because W^-1 = D D' W'; from the
closed-form start it is [I_M 0]. The start iterate keeps A_0 and
E_0 = A_0 D themselves rather than C_0 W, which differs from A_0 by
rounding. Each iterate also keeps E, E E' and the diagonal blocks E_b' E_b
in the structure's padded layout (``BlockStructure.columns``: every block
padded to the widest with zero columns), from which both designers read f
by ``coherence._block_terms``, the kernel that scores the sweep's designs.
Both designers read W, D and the rows of (W D)' from the ``Dictionary``
(``whitening``, ``matrix`` and ``whitened_rows``); the rows are built on
first use, once per dictionary, and every design on it shares them.
Each designer is a generator of iterates; ``run_wcm`` holds the one loop
that records the trace, applies the stop rule and counts fallbacks.

L-BFGS (alpha >= 1/2). The chain rule through G = E'E gives

    grad_C f = 2 * ((2 * (1 - alpha) * E E' - I) C + 2 * E Q (W D)'),

so one evaluation costs two M x N x K products, E = (C W) D and
(E Q)(W D)'. The two-loop recursion (Nocedal, Math. Comp., 1980; Liu &
Nocedal, Math. Prog., 1989) keeps ``_HISTORY`` curvature pairs, and every
step is a backtracking Armijo step (constant ``_ARMIJO``), so the trace is
non-increasing by construction.
Designing the sensing matrix by gradient descent on the coherence penalty
follows Abolghasemi, Ferdowsi & Sanei (Signal Processing, 2012).

Closed form at alpha = 1/2. There f is the structure-blind
1/2 ||G - I||_F^2, which the closed-form baseline (``ds.design_ds``)
minimizes exactly: up to rounding, its f is the lower bound (K - M) / 2.
So ``run_wcm`` started from it runs no designer: its one iteration returns
the start unchanged, with the trace [f_0, f_0], and it never forms C_0, a
gradient or the rows of (W D)' (the product of the N x N frame with the
N x K dictionary). L-BFGS from that start would find no step either.

Projected steps (alpha < 1/2). The MM majorizer of f at a Gram matrix G_p is

    g(G, G_p) = f(G_p) + <grad f(G_p), G - G_p> + 3/2 * ||G - G_p||_F^2,

which shares f's value and gradient at G_p. Its curvature 3/2, the sum of
the three weights, exceeds every one of them, so g upper-bounds f everywhere
and its exact minimizer can never increase f (Hunter & Lange, "A tutorial on
MM algorithms", 2004). Up to a constant, g is 3/2 * ||G - T||_F^2 with the
target T = G_p - grad f(G_p) / 3: a gradient step of size 1/3 on the Gram
matrix, followed, as in Elad's optimized projections (2007), by a projection
onto the Gram matrices the design can reach. That projection is exact: after
whitening by the dictionary frame it is a nearest rank-M PSD approximation,
solved by the top-M eigenpairs of the whitened target. ``wcm_step`` takes
this exact MM step, and ``surrogate_value`` and ``surrogate_gradient`` are
the majorizer and its gradient, for every alpha.

The projected loop takes the longer step T = G_p - eta(alpha) * grad f(G_p),
with

    eta(alpha) = 0.9 / max(1, 2 * (1 - alpha)),

through the same projection. For alpha < 1/2 that is 0.9 times the step of
the tightest majorizer, whose curvature is the largest weight 1 - alpha, so
every step still descends.

The step is taken from the extrapolated point G_e = G + beta * (G - G_prev),
with FISTA's momentum

    beta = (t - 1) / t_next,    t_next = (1 + sqrt(1 + 4 t^2)) / 2,

and t = 1 at the start (Beck & Teboulle, SIAM J. Imaging Sci., 2009), so the
first step has no momentum. A step that raises f is rejected and restarts
the momentum at t = 1 (O'Donoghue & Candes, Found. Comput. Math., 2015). The
iteration then takes the exact MM step from G itself, which cannot raise f,
so the objective trace is non-increasing by construction.

The whitened target of a step of size eta from G = E'E is the N x N matrix

    W D T (W D)' = (1 - 2 * eta * (1 - alpha)) * B B' - 2 * eta * (W D) Q (W D)' + eta * I

with B = W D E' (N x M). Since W D (W D)' = I, B is exactly C', so
B B' = C' C takes no product with the dictionary, and the momentum
extrapolates C' C and the diagonal blocks linearly. The projection returns
the next C directly: the top-M eigenpairs of the target, scaled by the
square roots of their eigenvalues.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

from .coherence import (
    CoherenceReport,
    _block_terms,
    _gram_parts,
    _Terms,
    _check_alpha,
    coherence_report,
    objective_gradient,
    objective_lower_bound,
    weighted_objective,
)
from .ds import design_ds
from .fileio import _number
from .model import (
    BlockGram,
    Dictionary,
    EquivalentDictionary,
    SensingMatrix,
)

INIT_MODES = ("ds", "random")

# Step of the exact MM majorizer: the inverse of twice its curvature 3/2.
_MM_STEP = 1.0 / 3.0

# L-BFGS for alpha >= 1/2: curvature pairs kept, the Armijo constant c_1 of
# the backtracking line search, and the halvings it tries before giving up on
# a direction.
_HISTORY = 10
_ARMIJO = 1e-4
_BACKTRACKS = 40

# The machine epsilon, in L-BFGS's curvature test.
_EPS = np.finfo(float).eps

_log = logging.getLogger(__name__)


def _step_size(alpha: float) -> float:
    """Gradient step ``run_wcm`` tries before falling back to ``_MM_STEP``."""
    return 0.9 / max(1.0, 2.0 * (1.0 - alpha))


@dataclass(frozen=True)
class WcmConfig:
    """Optimizer settings.

    ``alpha`` weights sub-block against inter-block coherence, must lie
    strictly inside (0, 1) and selects the designer (L-BFGS from 1/2 up,
    projected steps below). ``alpha`` and ``rel_tol`` are stored as floats,
    and a string or bool is rejected. Iteration stops when the objective changes by at
    most ``rel_tol * (1 + f)`` in one step, or at ``max_iters``; ``rel_tol``
    must be positive and finite. ``init`` selects the starting sensing
    matrix: the closed-form baseline ("ds") or i.i.d. standard normal
    entries ("random", which requires a seed).
    """

    alpha: float
    max_iters: int = 1000
    rel_tol: float = 1e-8
    init: str = "ds"
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        if _number("max_iters", self.max_iters, int) < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        rel_tol = _number("rel_tol", self.rel_tol, float)
        if not 0.0 < rel_tol < math.inf:
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        object.__setattr__(self, "rel_tol", rel_tol)
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
    trace entry. ``fallbacks`` counts the iterations whose designer fell
    back from its first choice of step: for alpha >= 1/2 (L-BFGS) the
    quasi-Newton direction found no Armijo step, so the curvature history
    was dropped for steepest descent; for alpha < 1/2 (projected steps) the
    first step raised f, so the momentum restarted and the exact MM step
    was taken from the current Gram matrix instead. ``equivalent`` is the
    final E = A D, and ``alpha`` the weight the design was run at.

    The closed-form start at alpha = 1/2, already optimal, reports one
    iteration, converged, no fallbacks and the trace [f_0, f_0]: that
    iteration is a null step, with no gradient taken.
    """

    sensing: SensingMatrix
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    component_trace: np.ndarray
    fallbacks: int
    equivalent: EquivalentDictionary
    alpha: float

    @property
    def gap(self) -> float | None:
        """Certified relative gap f / f_lb - 1 of the final objective to
        ``coherence.objective_lower_bound``, or None for alpha < 1/2, where
        no bound is known."""
        if self.alpha < 0.5:
            return None
        e = self.equivalent
        bound = objective_lower_bound(e.num_atoms, e.num_measurements, self.alpha)
        return float(self.objective_trace[-1] / bound - 1.0)

    @cached_property
    def final_report(self) -> CoherenceReport:
        """Coherence diagnostics of the final design, computed on first use."""
        return coherence_report(self.equivalent, alpha=self.alpha)


def surrogate_value(gram: BlockGram, gram_prev: BlockGram, alpha: float) -> float:
    """MM majorizer g(G, G_prev) of the objective, anchored at G_prev:

        f(G_prev) + <grad f(G_prev), G - G_prev> + 3/2 * ||G - G_prev||_F^2

    which equals the quadratic distances from G to G_prev with the entries
    of each kind at their ideal values, H_kind = G_prev - deviation(G_prev, kind),
    in the objective's weights:

        1/2 * ||G - H_norm||^2 + (1-alpha) * ||G - H_inter||^2 + alpha * ||G - H_sub||^2
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


class _Iterate(NamedTuple):
    """One iterate of either designer: C (M x N), the sensing matrix A = C W,
    E = A D, E E', the columns of E as padded rows (blocks, s_max, M), the
    diagonal blocks E_b' E_b, and f's totals and value. A start iterate
    holds C = None until ``_lift`` fills it in, before any designer runs."""

    c: np.ndarray
    a: np.ndarray
    e: np.ndarray
    eet: np.ndarray
    rows: np.ndarray
    blocks: np.ndarray
    terms: _Terms
    f: float


@cache
def _q_weights(alpha: float, s_max: int) -> np.ndarray:
    """Entrywise weights, read-only, that turn the padded diagonal blocks of
    G into those of Q: alpha - 1/2 on the diagonal, 2 alpha - 1 off it."""
    weights = np.where(np.eye(s_max, dtype=bool), alpha - 0.5, 2.0 * alpha - 1.0)
    weights.flags.writeable = False
    return weights


def _iterate(D: Dictionary, c: np.ndarray | None, alpha: float,
             a: np.ndarray | None = None) -> _Iterate:
    """f at C, read from E = A D by ``coherence._block_terms``, with the
    sensing matrix A = C W unless ``a`` is given (then ``c`` may be None,
    for ``_lift`` to fill in). An iterate built from ``a`` keeps ``a``
    itself and E = ``a`` D, not C W, which would differ from ``a`` by
    rounding; so the closed form at alpha = 1/2, and any run that takes no
    step, returns its start bit for bit."""
    if a is None:
        a = c @ D.whitening
    e = a @ D.matrix
    eet, rows, blocks = _gram_parts(e, D.structure)
    terms = _block_terms(eet, blocks, D.structure)
    return _Iterate(c, a, e, eet, rows, blocks, terms, terms.objective(alpha))


def _lift(D: Dictionary, p: _Iterate) -> _Iterate:
    """``p`` with C = E (W D)', which maps back to A in exact arithmetic
    because W^-1 = D D' W'. Its first call on ``D`` builds
    ``D.whitened_rows``."""
    flat = D.whitened_rows.reshape(-1, D.signal_dim)
    return p._replace(c=p.rows.reshape(flat.shape[0], -1).T @ flat)


def _step(D: Dictionary, p: _Iterate, prev: _Iterate, beta: float, alpha: float,
          eta: float) -> np.ndarray:
    """C of the sensing matrix whose Gram matrix is nearest to the gradient
    step ``G_e - eta * grad f(G_e)`` from G_e = G + beta * (G - G_prev), the
    Gram matrices of ``p`` and ``prev``; with ``beta = 0`` and
    ``eta = _MM_STEP`` this exactly minimizes the surrogate anchored at
    ``p``."""
    target = p.c.T @ p.c  # W D G (W D)'
    blocks = p.blocks
    if beta:
        target *= 1.0 + beta
        target -= beta * (prev.c.T @ prev.c)
        blocks = (1.0 + beta) * blocks - beta * prev.blocks
    # -2 eta Q, one s x s block per dictionary block
    q = blocks * (-2.0 * eta * _q_weights(alpha, blocks.shape[1]))
    rows = D.whitened_rows
    flat = rows.reshape(-1, D.signal_dim)
    target *= 1.0 - 2.0 * eta * (1.0 - alpha)
    target += flat.T @ (q @ rows).reshape(flat.shape)
    target[np.diag_indices_from(target)] += eta
    # The product above is symmetric only up to rounding and eigh reads one
    # triangle, so the target is symmetrized. The top M eigenpairs are taken
    # largest first (eigh sorts ascending); negative directions cannot be
    # matched by a PSD Gram and only add a constant, so they are clamped
    # before the square root.
    w, v = np.linalg.eigh((target + target.T) / 2.0)
    m = p.c.shape[0]
    top = np.sqrt(np.clip(w[:-m - 1:-1], 0.0, None))
    return (v[:, :-m - 1:-1] * top).T


def _gradient_c(D: Dictionary, p: _Iterate, alpha: float) -> np.ndarray:
    """grad_C f = 2 ((2 (1 - alpha) E E' - I) C + 2 E Q (W D)'), with E Q
    taken one s x s block at a time in the padded layout."""
    q = p.blocks * _q_weights(alpha, p.blocks.shape[1])
    eq = (q @ p.rows).reshape(-1, p.c.shape[0])  # (E Q)', row per column
    grad = (2.0 * (1.0 - alpha)) * (p.eet @ p.c) - p.c
    grad += 2.0 * (eq.T @ D.whitened_rows.reshape(-1, D.signal_dim))
    grad *= 2.0
    return grad


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS product H g over the stored (s, y, 1 / s'y) pairs, from
    H_0 = (s'y / y'y) I of the newest pair (Nocedal, Math. Comp., 1980)."""
    r = g.copy()
    coefs = []
    for s, y, rho in reversed(pairs):
        coef = rho * np.vdot(s, r)
        r -= coef * y
        coefs.append(coef)
    _, y, rho = pairs[-1]
    r /= rho * np.vdot(y, y)
    for (s, y, rho), coef in zip(pairs, reversed(coefs)):
        r += (coef - rho * np.vdot(y, r)) * s
    return r


def _armijo(D: Dictionary, p: _Iterate, g: np.ndarray, d: np.ndarray,
            alpha: float) -> _Iterate | None:
    """First of the steps 1, 1/2, 1/4, ... along ``d`` that decreases f by at
    least ``_ARMIJO`` times the linear prediction, or None if ``d`` is not a
    descent direction or no step within ``_BACKTRACKS`` halvings does. The
    search also gives up once the predicted decrease is lost in the rounding
    of f, where no decrease can be told apart from noise."""
    slope = float(np.vdot(g, d))
    if not slope < 0.0:
        return None
    t = 1.0
    for _ in range(_BACKTRACKS):
        if p.f + t * slope == p.f:
            return None
        trial = _iterate(D, p.c + (d if t == 1.0 else t * d), alpha)
        if trial.f <= p.f + _ARMIJO * t * slope:
            return trial
        t *= 0.5
    return None


def _lbfgs_steps(D: Dictionary, p: _Iterate, alpha: float):
    """L-BFGS on f over C for alpha >= 1/2 (Liu & Nocedal, Math. Prog., 1989),
    yielding (iterate, fell_back) once per iteration from the lifted start
    ``p``.

    Each accepted step passes the Armijo test, so f never rises. When the
    quasi-Newton direction finds no such step, the history is dropped and
    steepest descent tried instead (a fallback); when that finds none
    either, the iterate stays and f repeats, which meets the stop rule. The
    gradient at an iterate is taken only once the next step is asked for,
    so the iterate a run stops at costs none."""
    g = _gradient_c(D, p, alpha)
    pairs = deque(maxlen=_HISTORY)
    while True:
        p_new = _armijo(D, p, g, -_two_loop(g, pairs), alpha) if pairs else None
        fell_back = p_new is None and bool(pairs)
        if p_new is None:
            pairs.clear()
            p_new = _armijo(D, p, g, -g, alpha) or p
        yield p_new, fell_back
        g_new = _gradient_c(D, p_new, alpha)
        s, y = p_new.c - p.c, g_new - g
        sy = float(np.vdot(s, y))
        if sy > _EPS * float(np.vdot(y, y)):
            pairs.append((s, y, 1.0 / sy))
        p, g = p_new, g_new


def _projected_steps(D: Dictionary, p: _Iterate, alpha: float):
    """Accelerated projected gradient steps on G for alpha < 1/2, yielding
    (iterate, fell_back) once per iteration from the lifted start ``p``. A
    step that raises f falls back: the momentum restarts and the exact MM
    step, which cannot raise f, is taken from G instead."""
    eta = _step_size(alpha)
    t = 1.0
    prev = p
    while True:
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        t = t_next
        p_new = _iterate(D, _step(D, p, prev, beta, alpha, eta), alpha)
        fell_back = p_new.f > p.f
        if fell_back:
            t = 1.0
            p_new = _iterate(D, _step(D, p, p, 0.0, alpha, _MM_STEP), alpha)
        prev, p = p, p_new
        yield p, fell_back


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
    p = _lift(D, _iterate(D, None, alpha, A_prev.matrix))
    return SensingMatrix(_step(D, p, p, 0.0, alpha, _MM_STEP) @ D.whitening)


def run_wcm(D: Dictionary, M: int, config: WcmConfig) -> WcmReport:
    """Minimize the weighted objective until it stalls.

    Starts from the closed-form baseline by default (or a random matrix when
    ``config.init == "random"``), mapped to its iterate C_0 with A = C W;
    the start iterate keeps that matrix A_0 itself.
    Both designers step over C. For ``alpha >= 1/2`` it is L-BFGS with
    backtracking Armijo steps, which takes no eigensolve; a fallback drops
    the curvature history for steepest descent. For ``alpha < 1/2`` each
    iteration projects the gradient step of size ``eta(alpha)`` from the
    momentum-extrapolated Gram matrix; a fallback (a step that raised f)
    restarts the momentum and takes the exact MM step of :func:`wcm_step`
    from the current point instead. The module docstring gives both
    designers and why alpha selects between them.

    Whichever designer steps, the objective and its components are recorded
    after every iteration and the fallbacks counted here, and the trace
    never rises. The run stops once one iteration changes f by at most
    ``config.rel_tol * (1 + f)``, and a run that reaches
    ``config.max_iters`` unconverged logs a warning.

    At alpha = 1/2 the closed-form start is a global minimizer of f, so a
    run from it takes the closed form and runs no designer: its one
    iteration is a null step with no gradient and no ``D.whitened_rows``.
    The run stops after one iteration, converged, with the trace
    [f_0, f_0], and returns the baseline's A and E = A D bit for bit. A
    random start at alpha = 1/2 runs L-BFGS.

    For ``alpha < 1/2`` the run can stop at a different stationary point,
    with a higher or a lower f, than iterating the plain MM step from the
    same start. No benchmark sweep grid has ``alpha < 1/2``.
    """
    alpha = config.alpha
    start = design_ds(D, M)  # design_ds checks M for both starts
    a_mat = start.matrix
    if config.init == "random":
        a_mat = np.random.default_rng(config.seed).standard_normal(a_mat.shape)

    p = _iterate(D, None, alpha, a_mat)
    if alpha == 0.5 and config.init == "ds":
        iterates = [(p, False)]  # the closed form: a null step
    else:
        steps = _lbfgs_steps if alpha >= 0.5 else _projected_steps
        iterates = islice(steps(D, _lift(D, p), alpha), config.max_iters)
    trace, components = [p.f], [p.terms]
    converged = False
    fallbacks = 0
    for p_new, fell_back in iterates:
        fallbacks += fell_back
        trace.append(p_new.f)
        components.append(p_new.terms)
        converged = abs(p.f - p_new.f) <= config.rel_tol * (1.0 + p.f)
        p = p_new
        if converged:
            break
    iterations = len(trace) - 1
    if not converged:
        _log.warning(
            "WCM at alpha=%g stopped unconverged after %d iterations, f=%.9g",
            alpha, iterations, p.f,
        )
    # A run that ends at the ds start returns design_ds's matrix itself: a
    # copy would cost M N floats more, 0.7 MB at K = 1200
    return WcmReport(
        sensing=start if p.a is start.matrix else SensingMatrix(p.a),
        objective_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        component_trace=np.asarray(components),
        fallbacks=fallbacks,
        equivalent=EquivalentDictionary(p.e, D.structure),
        alpha=alpha,
    )
