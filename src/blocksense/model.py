"""Block-structured dictionaries, sensing matrices and Gram matrices.

All types are immutable after construction (arrays are stored read-only), so
every operation in the package is a pure function that is safe to call from
concurrent workers. The one field built later is ``Dictionary.whitened_rows``,
on first read; it too is read-only, and depends only on fields fixed at
construction.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .fileio import _number

# Relative eigenvalue threshold below which a dictionary is treated as
# row-rank deficient.
RANK_TOL = 1e-10

_GRAM_SYM_TOL = 1e-12
_GRAM_PSD_TOL = 1e-10


def _as_readonly_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BlockStructure:
    """Ordered partition of matrix columns into contiguous blocks.

    ``sizes`` holds one positive integer per block (a float, bool or string
    is refused, never truncated); derived fields give the number of blocks,
    the total column count, the start offset of each block, a per-column
    block label, and the padded layout every block-wise kernel reads:
    ``columns`` (blocks, s_max), each block's column indices padded with K,
    one past the last column, and ``padding``, the mask of those slots.
    Two index fields locate entries of the padded diagonal blocks, a
    (blocks, s_max, s_max) array: ``diagonal``, the flat positions of the
    live diagonal slots in column order (K of them), and ``off_diagonal``,
    the flat positions of the off-diagonal slots inside one s_max x s_max
    block, in row-major order.
    """

    sizes: tuple[int, ...]
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    labels: np.ndarray = field(init=False, repr=False, compare=False)
    columns: np.ndarray = field(init=False, repr=False, compare=False)
    padding: np.ndarray = field(init=False, repr=False, compare=False)
    diagonal: np.ndarray = field(init=False, repr=False, compare=False)
    off_diagonal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(_number("sizes", s, int) for s in self.sizes)
        if len(sizes) == 0:
            raise ValueError("at least one block is required")
        if any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be >= 1, got {sizes}")
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        s_max = max(sizes)
        slots = np.arange(s_max)
        padding = slots >= np.array(sizes)[:, None]
        columns = np.where(padding, offsets[-1], offsets[:-1, None] + slots)
        starts = s_max * s_max * np.arange(len(sizes), dtype=np.int64)
        diagonal = (starts[:, None] + (s_max + 1) * slots)[~padding]
        off_diagonal = np.flatnonzero(~np.eye(s_max, dtype=bool))
        object.__setattr__(self, "sizes", sizes)
        for name, arr in (("offsets", offsets), ("labels", labels),
                          ("columns", columns), ("padding", padding),
                          ("diagonal", diagonal), ("off_diagonal", off_diagonal)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    @property
    def num_columns(self) -> int:
        return int(self.offsets[-1])

    @property
    def uniform_size(self) -> int | None:
        """Common block size, or None when blocks have mixed sizes."""
        first = self.sizes[0]
        return first if all(s == first for s in self.sizes) else None

    def block_slice(self, j: int) -> slice:
        if not 0 <= j < self.num_blocks:
            raise IndexError(f"block index {j} out of range [0, {self.num_blocks})")
        return slice(int(self.offsets[j]), int(self.offsets[j + 1]))


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Real N x K dictionary whose columns are grouped by a BlockStructure.

    The dictionary may be square or overcomplete (N <= K) and must have full
    row rank: the smallest eigenvalue of D D' must exceed RANK_TOL times the
    largest. That eigendecomposition, D D' = U diag(w) U' with w descending,
    also gives the read-only N x N frame ``whitening`` = diag(w)^{-1/2} U',
    with W D D' W' = I, in which both designers work.
    """

    matrix: np.ndarray
    structure: BlockStructure
    whitening: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _as_readonly_matrix(self.matrix, "dictionary matrix")
        object.__setattr__(self, "matrix", mat)
        n, k = mat.shape
        if k != self.structure.num_columns:
            raise ValueError(
                f"dictionary has {k} columns but the block structure covers "
                f"{self.structure.num_columns}"
            )
        if n > k:
            raise ValueError(f"dictionary must satisfy N <= K, got N={n}, K={k}")
        # numpy forms X X' by one syrk, so the product is exactly symmetric
        # and goes to eigh as it is (eigh reads one triangle in any case)
        dd = mat @ mat.T
        if not np.all(np.isfinite(dd)):
            raise ValueError("dictionary Gram matrix D D' has non-finite entries")
        w, u = np.linalg.eigh(dd)
        w, u = w[::-1], u[:, ::-1]  # descending, as views
        if w[0] <= 0.0 or w[-1] <= RANK_TOL * w[0]:
            raise ValueError(
                "dictionary is row-rank deficient "
                f"(eigenvalue ratio {w[-1] / max(w[0], np.finfo(float).tiny):.3e})"
            )
        whitening = (u / np.sqrt(w)).T
        whitening.flags.writeable = False
        object.__setattr__(self, "whitening", whitening)

    @cached_property
    def whitened_rows(self) -> np.ndarray:
        """The columns of W D as read-only padded rows (blocks, s_max, N),
        built on first read: they cost the product of the N x N frame with
        the N x K dictionary, and N x K floats."""
        rows = _block_rows(self.whitening @ self.matrix, self.structure)
        rows.flags.writeable = False
        return rows

    @property
    def signal_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_atoms(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """Real M x N measurement operator with M < N."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_readonly_matrix(self.matrix, "sensing matrix")
        object.__setattr__(self, "matrix", mat)
        m, n = mat.shape
        if m >= n:
            raise ValueError(f"sensing must be underdetermined (M < N), got M={m}, N={n}")

    @property
    def num_measurements(self) -> int:
        return self.matrix.shape[0]

    @property
    def signal_dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class EquivalentDictionary:
    """Product of a sensing matrix and a dictionary, keeping the block layout."""

    matrix: np.ndarray
    structure: BlockStructure

    def __post_init__(self):
        mat = _as_readonly_matrix(self.matrix, "equivalent dictionary")
        object.__setattr__(self, "matrix", mat)
        if mat.shape[1] != self.structure.num_columns:
            raise ValueError(
                f"matrix has {mat.shape[1]} columns but the block structure covers "
                f"{self.structure.num_columns}"
            )

    @property
    def num_measurements(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_atoms(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class BlockGram:
    """Symmetric positive-semidefinite K x K Gram matrix with a block partition.

    Pass ``validate=False`` to skip the symmetry/PSD checks, e.g. for
    finite-difference probes that perturb a single entry.
    """

    matrix: np.ndarray
    structure: BlockStructure
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        mat = _as_readonly_matrix(self.matrix, "gram matrix")
        object.__setattr__(self, "matrix", mat)
        k = self.structure.num_columns
        if mat.shape != (k, k):
            raise ValueError(f"gram matrix must be {k} x {k}, got {mat.shape}")
        if validate:
            scale = max(1.0, float(np.abs(mat).max()))
            asym = float(np.abs(mat - mat.T).max())
            if asym > _GRAM_SYM_TOL * scale:
                raise ValueError(f"gram matrix is not symmetric (max deviation {asym:.3e})")
            w = np.linalg.eigvalsh((mat + mat.T) / 2.0)
            floor = -_GRAM_PSD_TOL * float(np.linalg.norm(mat))
            if w[0] < floor:
                raise ValueError(f"gram matrix is not PSD (min eigenvalue {w[0]:.3e})")

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class BlockSparseVector:
    """Length-K coefficient vector that is nonzero only inside ``support`` blocks."""

    values: np.ndarray
    structure: BlockStructure
    support: tuple[int, ...]

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != self.structure.num_columns:
            raise ValueError(
                f"values must be a length-{self.structure.num_columns} vector, "
                f"got shape {vals.shape}"
            )
        vals.flags.writeable = False
        support = tuple(sorted(int(j) for j in self.support))
        if len(set(support)) != len(support):
            raise ValueError("support contains duplicate block indices")
        if support and not (0 <= support[0] and support[-1] < self.structure.num_blocks):
            raise ValueError(f"support {support} out of range")
        active = np.isin(self.structure.labels, support)
        if np.any(vals[~active] != 0.0):
            raise ValueError("entries outside the support blocks must be exactly zero")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "support", support)


def equivalent_dictionary(A, D: Dictionary) -> EquivalentDictionary:
    """Compose a sensing matrix with a dictionary.

    ``A`` may be a SensingMatrix or a plain 2-D array (e.g. the identity, which
    the SensingMatrix type rejects because it is not underdetermined).
    """
    a_mat = A.matrix if isinstance(A, SensingMatrix) else np.asarray(A, dtype=float)
    if a_mat.ndim != 2 or a_mat.shape[1] != D.signal_dim:
        raise ValueError(
            f"sensing matrix with {a_mat.shape} columns does not match "
            f"dictionary signal dimension {D.signal_dim}"
        )
    return EquivalentDictionary(a_mat @ D.matrix, D.structure)


def _gram_matrix(e: np.ndarray) -> np.ndarray:
    """E'E, symmetrized, without the checks of :class:`BlockGram`.

    Every Gram matrix in the package is formed here; the design and scoring
    loops form none. The coherence diagnostics call this directly because
    the PSD check of :func:`gram` is an eigensolve of the K x K result.
    """
    g = e.T @ e
    return (g + g.T) / 2.0


def _block_rows(x: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """The columns of ``x`` as rows, in the padded layout of ``structure``: a
    (blocks, s_max, rows) array whose padding rows are zero."""
    rows = np.zeros(structure.padding.shape + (x.shape[0],))
    # the live slots, in C order, are the columns in order
    rows[~structure.padding] = x.T
    return rows


def _scatter_blocks(structure: BlockStructure, blocks, values) -> np.ndarray:
    """The K x L matrix whose column l holds ``values[l]`` on the blocks
    ``blocks[l]`` and zeros elsewhere: ``blocks`` is (L, k) block indices
    and ``values`` (L, k, s_max) in the padded layout of ``structure``,
    whose values at padding slots are discarded."""
    n_signals = blocks.shape[0]
    # padding slots hold K, so their values land in the extra row K, which is dropped
    out = np.zeros((structure.num_columns + 1, n_signals))
    out[structure.columns[blocks], np.arange(n_signals)[:, None, None]] = values
    return out[:-1]


def gram(E: EquivalentDictionary) -> BlockGram:
    """Gram matrix of the equivalent dictionary columns, with its block layout."""
    return BlockGram(_gram_matrix(E.matrix), E.structure)
