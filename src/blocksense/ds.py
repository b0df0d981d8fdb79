"""Closed-form baseline sensing-matrix design.

Minimizes ||D'A'AD - I||_F^2 exactly: with D D' = U diag(w) U', the rows of
A = [I_M 0] diag(w)^{-1/2} U' make A D D' A' the identity, which attains the
global optimum K - M. The objective is blind to block structure and is the
alpha = 1/2 point of the weighted coherence objective.
"""

from __future__ import annotations

import numpy as np

from .model import RANK_TOL, Dictionary, SensingMatrix, _gram_matrix, sym_eig


def _whitening(D: Dictionary) -> np.ndarray:
    """diag(w)^{-1/2} U' for D D' = U diag(w) U', eigenvalues descending.

    Its first M rows are the closed-form design; all N rows whiten the
    dictionary frame for the iterative designer.
    """
    w, u = sym_eig(D.matrix @ D.matrix.T)
    if w[0] <= 0.0 or w[-1] <= RANK_TOL * w[0]:
        raise ValueError("dictionary is row-rank deficient; cannot whiten")
    return (u / np.sqrt(w)).T


def design_ds(D: Dictionary, M: int) -> SensingMatrix:
    """Optimal sensing matrix for the structure-blind Gram objective.

    Requires 1 <= M < N and a full-row-rank dictionary. The returned matrix
    satisfies A D D' A' = I_M; any left-orthonormal rotation of it is equally
    optimal, this particular choice is fixed for reproducibility.
    """
    M = int(M)
    n = D.signal_dim
    if not 1 <= M < n:
        raise ValueError(f"M must satisfy 1 <= M < N={n}, got {M}")
    return SensingMatrix(_whitening(D)[:M])


def ds_objective(A: SensingMatrix, D: Dictionary) -> float:
    """Gram-identity mismatch ||D'A'AD - I||_F^2 of a sensing matrix."""
    a_mat = A.matrix if isinstance(A, SensingMatrix) else np.asarray(A, dtype=float)
    if a_mat.shape[1] != D.signal_dim:
        raise ValueError(
            f"sensing matrix has {a_mat.shape[1]} columns, dictionary expects {D.signal_dim}"
        )
    g = _gram_matrix(a_mat @ D.matrix)
    return float(np.sum((g - np.eye(g.shape[0])) ** 2))
