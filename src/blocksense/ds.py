"""Closed-form baseline sensing-matrix design.

Minimizes ||D'A'AD - I||_F^2 exactly: with D D' = U diag(w) U', the rows of
A = [I_M 0] diag(w)^{-1/2} U' make A D D' A' the identity, which attains the
global optimum K - M. These are the first M rows of ``Dictionary.whitening``,
so the design takes no eigensolve of its own. The objective is blind to block
structure and is the alpha = 1/2 point of the weighted coherence objective.
"""

from __future__ import annotations

import numpy as np

from .coherence import _gram_mismatch
from .model import Dictionary, SensingMatrix


def design_ds(D: Dictionary, M: int) -> SensingMatrix:
    """Optimal sensing matrix for the structure-blind Gram objective.

    Requires 1 <= M < N. The first M rows of ``D.whitening`` satisfy
    A D D' A' = I_M; any left-orthonormal rotation of them is equally optimal,
    this particular choice is fixed for reproducibility.
    """
    M = int(M)
    n = D.signal_dim
    if not 1 <= M < n:
        raise ValueError(f"M must satisfy 1 <= M < N={n}, got {M}")
    return SensingMatrix(D.whitening[:M])


def ds_objective(A: SensingMatrix, D: Dictionary) -> float:
    """Gram-identity mismatch ||D'A'AD - I||_F^2 of a sensing matrix."""
    a_mat = A.matrix if isinstance(A, SensingMatrix) else np.asarray(A, dtype=float)
    if a_mat.shape[1] != D.signal_dim:
        raise ValueError(
            f"sensing matrix has {a_mat.shape[1]} columns, dictionary expects {D.signal_dim}"
        )
    return _gram_mismatch(a_mat @ D.matrix)
