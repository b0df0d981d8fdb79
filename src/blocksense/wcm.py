"""Weighted coherence minimization: one designer, L-BFGS, at every alpha.

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
block. No design forms a K x K matrix. At every alpha f has a certified
lower bound, ``coherence.objective_lower_bound`` at max(alpha, 1 - alpha),
to which the report gives the final f's gap (``WcmReport.gap``).

The designer iterates over C (M x N), with A = C W, so that
E = A D = C (W D). Because W D has orthonormal rows, E E' = C C' and
E (W D)' = C. A sensing matrix A_0 enters as C_0 = E_0 (W D)', which maps
back to A_0 in exact arithmetic because W^-1 = D D' W'; from the
closed-form start it is [I_M 0]. The start iterate keeps A_0 and
E_0 = A_0 D themselves rather than C_0 W, which differs from A_0 by
rounding. Each iterate also keeps E, E E' and the diagonal blocks E_b' E_b
in the structure's padded layout (``BlockStructure.columns``: every block
padded to the widest with zero columns), from which f is read by
``coherence._block_terms``, the kernel that scores the sweep's designs.
W, D and the rows of (W D)' come from the ``Dictionary`` (``whitening``,
``matrix`` and ``whitened_rows``); the rows are built on first use, once
per dictionary, and every design on it shares them. The designer
(``_lbfgs_steps``) is a generator of iterates; ``_descend`` holds the loop
that records the trace, applies the stop rule and counts fallbacks.

L-BFGS. The chain rule through G = E'E gives

    grad_C f = 2 * ((2 * (1 - alpha) * E E' - I) C + 2 * E Q (W D)'),

so one evaluation costs two M x N x K products, E = (C W) D and
(E Q)(W D)', and no eigensolve. L-BFGS (Liu & Nocedal, Math. Prog., 1989)
keeps ``_HISTORY`` curvature pairs (s, y), and every step is a
backtracking Armijo step (constant ``_ARMIJO``), so the trace is
non-increasing by construction. The product H g is taken from stored inner
products of the pairs (``_History``). Designing the sensing matrix by
gradient descent on the coherence penalty follows Abolghasemi, Ferdowsi &
Sanei (Signal Processing, 2012).

Closed form at alpha = 1/2. There f is the structure-blind
1/2 ||G - I||_F^2 (``coherence.ds_objective`` is twice it), which the
closed-form baseline ``design_ds`` minimizes exactly: the first M rows of
the whitening, A = [I_M 0] W, make A D D' A' the identity, so its f is the
lower bound (K - M) / 2 up to rounding, and the design takes no eigensolve
of its own. So a run started from it runs no designer: its one iteration
is a null step that never forms C_0, a gradient or the rows of (W D)'
(the product of the N x N frame with the N x K dictionary). L-BFGS from
that start would find no step either.

Shared design above 1/2. Where the bound is attained, every alpha in
(1/2, 1) has the same minimizers G = c(alpha) P up to the scale c(alpha)
(``_bound_scale``). So a run from the ds start designs from ds only at
``_SHARED_ALPHA``, once per dictionary, and reaches any other alpha above
1/2 by rescaling that design's A by sqrt(c(alpha) / c(_SHARED_ALPHA)) and
polishing it by L-BFGS at alpha. On shapes where the bound cannot be
reached, a polish can end at another local optimum than a run from ds at
that alpha would.

The MM step (``wcm_step``). The MM majorizer of f at a Gram matrix G_p is

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
the majorizer and its gradient, for every alpha. The whitened target is the
N x N matrix

    W D T (W D)' = (1 - 2/3 * (1 - alpha)) * B B' - 2/3 * (W D) Q (W D)' + I / 3

with B = W D E' (N x M). Since W D (W D)' = I, B is exactly C', so
B B' = C' C takes no product with the dictionary. The projection returns
the next C directly: the top-M eigenpairs of the target, scaled by the
square roots of their eigenvalues.
"""

from __future__ import annotations

import logging
import math
import weakref
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

# L-BFGS: curvature pairs kept, the Armijo constant c_1 of the backtracking
# line search, and the halvings it tries before giving up on a direction.
_HISTORY = 10
_ARMIJO = 1e-4
_BACKTRACKS = 40

# The machine epsilon, in L-BFGS's curvature test.
_EPS = np.finfo(float).eps

# Above 1/2, the alpha of the one design from the ds start per dictionary,
# which every other alpha in (1/2, 1) rescales and polishes (``run_wcm``).
_SHARED_ALPHA = 0.9

# Dictionary -> {(M, max_iters, rel_tol): report of that shared design}
_SHARED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class WcmConfig:
    """Optimizer settings.

    ``alpha`` weights sub-block against inter-block coherence and must lie
    strictly inside (0, 1). ``alpha`` and ``rel_tol`` are stored as floats,
    and a string or bool is rejected. Iteration stops when the objective changes by at
    most ``rel_tol * (1 + f)`` in one step, or at ``max_iters``; ``rel_tol``
    must be positive and finite. ``init`` selects the starting sensing
    matrix: the closed-form baseline ("ds") or i.i.d. standard normal
    entries ("random", which requires a seed). ``seed``, when given, is
    stored as an int >= 0.
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
        if self.seed is not None:
            object.__setattr__(self, "seed", _number("seed", self.seed, int))
            if self.seed < 0:
                raise ValueError(f"seed must be >= 0, got {self.seed}")
        elif self.init == "random":
            raise ValueError("random initialization requires a seed")


@dataclass(frozen=True, eq=False)
class WcmReport:
    """Result of one optimization run.

    ``objective_trace`` holds f at the run's start and after every
    iteration, and never rises. ``component_trace`` carries the matching
    (total_inter, total_sub, norm_penalty) triples, one row per trace entry.
    ``iterations``, at least one, is the trace's length less one (which run
    it counts: ``run_wcm``). ``converged`` says whether the stop rule, not
    ``max_iters``, ended the run. ``fallbacks`` counts the iterations whose
    quasi-Newton direction found no Armijo step, so the curvature history
    was dropped for steepest descent. ``equivalent`` is the final E = A D,
    and ``alpha`` the weight the design was run at. Every array is
    read-only.
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
    def gap(self) -> float:
        """Certified relative gap f / f_lb - 1 of the final objective to
        ``coherence.objective_lower_bound`` at alpha, or at 1 - alpha below
        1/2.

        The mirror of that bound's argument holds below 1/2: lowering the
        inter-block weight from 1 - alpha to alpha only lowers f, and leaves
        the uniform-weight problem at weight alpha, which the bound at
        1 - alpha > 1/2 covers. Below 1/2 the bound is loose, since it
        ignores that G = D'A'AD is tied to the dictionary: desk designs
        (N = 60, K = 120, M = 14) end about 0.3% above it at alpha = 0.49,
        10% at 0.3 and 112% at 0.05."""
        e = self.equivalent
        weight = max(self.alpha, 1.0 - self.alpha)
        bound = objective_lower_bound(e.num_atoms, e.num_measurements, weight)
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
    """One iterate of the designer: C (M x N), the sensing matrix A = C W,
    E = A D, E E', the columns of E as padded rows (blocks, s_max, M), the
    diagonal blocks E_b' E_b, and f's totals and value. A start iterate
    holds C = None until ``_lift`` fills it in, before the designer runs."""

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


def _step(D: Dictionary, p: _Iterate, alpha: float) -> np.ndarray:
    """C of the sensing matrix whose Gram matrix is nearest to the gradient
    step ``G - grad f(G) / 3`` from the Gram matrix G of ``p``: the exact
    minimizer of the surrogate anchored at ``p``."""
    target = p.c.T @ p.c  # W D G (W D)'
    # -2 Q / 3, one s x s block per dictionary block
    q = p.blocks * (-2.0 * _MM_STEP * _q_weights(alpha, p.blocks.shape[1]))
    rows = D.whitened_rows
    flat = rows.reshape(-1, D.signal_dim)
    target *= 1.0 - 2.0 * _MM_STEP * (1.0 - alpha)
    target += flat.T @ (q @ rows).reshape(flat.shape)
    target[np.diag_indices_from(target)] += _MM_STEP
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


class _History:
    """The L-BFGS curvature pairs, at most ``_HISTORY`` of them, and the
    product H g over them, from H_0 = (s'y / y'y) I of the newest pair.

    The pairs are the rows of two preallocated (``_HISTORY``, M N) arrays S
    and Y, used as a ring. The two-loop recursion (Nocedal, Math. Comp.,
    1980) reads the stored rows only through inner products (vector-free
    L-BFGS: Chen, Wang & Zhou, NeurIPS 2014), and only through s_i' y_j of
    an older s_i and a newer y_j: the upper triangle R of S Y' in age
    order, whose diagonal is s_i' y_i = 1 / rho_i. Its first loop,

        a_i = rho_i (s_i' g - sum_{j newer} a_j s_i' y_j),

    is R a = S g. With r = (g - Y' a) / (rho y'y of the newest pair), the
    second loop,

        b_i = rho_i (y_i' r + sum_{j older} (a_j - b_j) s_j' y_i),

    is R' (a - b) = diag(R) a - Y r, and H g = r + S' (a - b). The history
    keeps R^-1, so each loop is one 10 x 10 product. It keeps R^-1 in slot
    order, which a product does not need sorted. Dropping the oldest pair
    drops its row and column, since R^-1 without its first row and column
    is the inverse of R without them. A new pair, the newest, adds the
    column -R^-1 (S y) / s'y and 1 / s'y on the diagonal."""

    def __init__(self, size: int):
        self.s = np.empty((_HISTORY, size))
        self.y = np.empty((_HISTORY, size))
        self.sy = np.empty(_HISTORY)  # s_i' y_i, by slot
        self.r_inv = np.zeros((_HISTORY, _HISTORY))  # R^-1, by slot
        self.clear()

    def __len__(self) -> int:
        return self.count

    def clear(self) -> None:
        self.count = 0
        self.newest = -1  # the slot of the newest pair
        self.yy = 0.0  # y' y of the newest pair

    def append(self, s: np.ndarray, y: np.ndarray, sy: float, yy: float) -> None:
        """Store the pair (s, y) with s' y = ``sy`` and y' y = ``yy``, over
        the oldest once ``_HISTORY`` are stored."""
        slot = self.newest = (self.newest + 1) % _HISTORY
        self.count = m = min(self.count + 1, _HISTORY)
        r_inv = self.r_inv[:m, :m]
        r_inv[slot] = r_inv[:, slot] = 0.0
        self.s[slot], self.y[slot] = s.ravel(), y.ravel()
        r_inv[:, slot] = r_inv @ (self.s[:m] @ self.y[slot]) / -sy
        r_inv[slot, slot] = 1.0 / sy
        self.sy[slot], self.yy = sy, yy

    def product(self, g: np.ndarray) -> np.ndarray:
        """H g, by the two loops over the stored inner products."""
        m = self.count
        s, y, r_inv = self.s[:m], self.y[:m], self.r_inv[:m, :m]
        a = r_inv @ (s @ g.ravel())
        r = g.ravel() - a @ y
        r /= self.yy / self.sy[self.newest]
        r += (r_inv.T @ (self.sy[:m] * a - y @ r)) @ s
        return r.reshape(g.shape)


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
    """L-BFGS on f over C, yielding (iterate, fell_back) once per iteration
    from the lifted start ``p``.

    Each accepted step passes the Armijo test, so f never rises. When the
    quasi-Newton direction finds no such step, the history is dropped and
    steepest descent tried instead (a fallback); when that finds none
    either, the iterate stays and f repeats, which meets the stop rule. The
    gradient at an iterate is taken only once the next step is asked for,
    so the iterate a run stops at costs none."""
    g = _gradient_c(D, p, alpha)
    history = _History(g.size)
    while True:
        p_new = _armijo(D, p, g, -history.product(g), alpha) if history else None
        fell_back = p_new is None and bool(history)
        if p_new is None:
            history.clear()
            p_new = _armijo(D, p, g, -g, alpha) or p
        yield p_new, fell_back
        g_new = _gradient_c(D, p_new, alpha)
        s, y = p_new.c - p.c, g_new - g
        sy, yy = float(np.vdot(s, y)), float(np.vdot(y, y))
        if sy > _EPS * yy:
            history.append(s, y, sy, yy)
        p, g = p_new, g_new


def design_ds(D: Dictionary, M: int) -> SensingMatrix:
    """The closed-form baseline: the first M rows of ``D.whitening``, for an
    integer 1 <= M < N. Any left-orthonormal rotation of them is equally
    optimal; this one is fixed for reproducibility."""
    M = _number("M", M, int)
    n = D.signal_dim
    if not 1 <= M < n:
        raise ValueError(f"M must satisfy 1 <= M < N={n}, got {M}")
    return SensingMatrix(D.whitening[:M])


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
    return SensingMatrix(_step(D, p, alpha) @ D.whitening)


def run_wcm(D: Dictionary, M: int, config: WcmConfig) -> WcmReport:
    """Minimize the weighted objective by L-BFGS until it stalls.

    Starts from the closed-form baseline by default, or from i.i.d.
    standard normal entries when ``config.init == "random"``. A run stops
    once one iteration changes f by at most ``config.rel_tol * (1 + f)``,
    or after ``config.max_iters`` iterations, unconverged, with a warning.
    Random starts and alpha < 1/2 run on their own. From the ds start:

    - at alpha = 1/2 the run takes the closed form: one null iteration,
      converged, the trace [f_0, f_0], and the baseline's A and E = A D
      bit for bit;
    - above 1/2 the design at ``_SHARED_ALPHA`` is made once per (``D``,
      M, ``max_iters``, ``rel_tol``) and kept for as long as ``D`` lives;
      at ``_SHARED_ALPHA`` it is the report, the same object on every
      call. Any other alpha polishes it, rescaled: the trace starts at the
      rescaled design, and ``iterations`` counts the polish alone.
      ``max_iters`` bounds each of the two runs, and a shared design that
      stops unconverged logs its warning once, naming the alpha it was
      started for.
    """
    alpha = config.alpha
    start = design_ds(D, M)  # design_ds checks M for both starts
    if config.init == "random":
        rng = np.random.default_rng(config.seed)
        return _descend(D, start, rng.standard_normal(start.matrix.shape), alpha, config)
    if alpha <= 0.5:
        return _descend(D, start, start.matrix, alpha, config)
    # the shared design is a pure function of the key and of D, which is
    # immutable, and is kept for as long as D lives
    designs = _SHARED.setdefault(D, {})
    key = (M, config.max_iters, config.rel_tol)
    if key not in designs:
        designs[key] = _descend(D, start, start.matrix, _SHARED_ALPHA, config,
                                f" (shared design, started for alpha={alpha:g})")
    shared = designs[key]
    if alpha == _SHARED_ALPHA:
        return shared
    K = D.num_atoms
    scale = math.sqrt(_bound_scale(K, M, alpha) / _bound_scale(K, M, _SHARED_ALPHA))
    return _descend(D, start, scale * shared.sensing.matrix, alpha, config)


def _bound_scale(K: int, M: int, alpha: float) -> float:
    """c(alpha) = 1 / (rho + 2 (1 - alpha)(1 - rho)) with rho = M / K: the
    scale of the bound's minimizers G = c(alpha) P above 1/2, a structured
    tight frame (Tropp, Dhillon, Heath & Strohmer, IEEE Trans. Inf. Theory,
    2005; ``coherence.objective_lower_bound``)."""
    rho = M / K
    return 1.0 / (rho + 2.0 * (1.0 - alpha) * (1.0 - rho))


def _descend(D: Dictionary, start: SensingMatrix, a_mat: np.ndarray, alpha: float,
             config: WcmConfig, label: str = "") -> WcmReport:
    """The run of ``run_wcm`` from the sensing matrix ``a_mat``: L-BFGS at
    alpha under ``config``'s stop rule, or one null step from ``start``,
    the ds design, at 1/2. It records the trace, applies the stop rule,
    counts fallbacks and warns of a run that stops unconverged, with
    ``label`` after alpha. A run that ends at ``start`` returns it itself."""
    p = _iterate(D, None, alpha, a_mat)
    if alpha == 0.5 and a_mat is start.matrix:
        iterates = [(p, False)]  # the closed form: a null step
    else:
        iterates = islice(_lbfgs_steps(D, _lift(D, p), alpha), config.max_iters)
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
            "WCM at alpha=%g%s stopped unconverged after %d iterations, f=%.9g",
            alpha, label, iterations, p.f,
        )
    trace, components = np.asarray(trace), np.asarray(components)
    trace.flags.writeable = components.flags.writeable = False
    # A run that ends at the ds start returns design_ds's matrix itself: a
    # copy would cost M N floats more, 0.7 MB at K = 1200
    return WcmReport(
        sensing=start if p.a is start.matrix else SensingMatrix(p.a),
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        component_trace=components,
        fallbacks=fallbacks,
        equivalent=EquivalentDictionary(p.e, D.structure),
        alpha=alpha,
    )
