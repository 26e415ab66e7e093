"""Background model over image blocks.

A square block of side b is flattened row-major into a vector of s = b*b
samples.  The model is a PCA basis learned from every complete block of a
training image (mean block, eigenvectors and eigenvalues of the block
covariance) together with one empirical CDF per component it holds: row i
of a (u, m) table holds component components[i]'s m training coefficients,
sorted.  A model learned whole holds all s components; a matcher may build
one that holds only the components its reference tests.  Blocks are
centered on the mean before projection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bands
from .errors import (BlockOutOfBounds, CorruptHeader, DimensionMismatch,
                     EigenNoConvergence, ImageTooSmall, Overflow,
                     TruncatedData, UnsupportedFormat)
from .imgio import GrayImage, read_file, write_file

BASIS_MAGIC = b"ACBM1"
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


@dataclass(eq=False)
class PatchBasis:
    """PCA basis of block space: row i of eigenvectors is component i."""

    block_side: int
    mean_block: np.ndarray    # (s,)
    eigenvectors: np.ndarray  # (s, s)
    eigenvalues: np.ndarray   # (s,), non-increasing, >= 0

    @property
    def size(self) -> int:
        return self.block_side * self.block_side


@dataclass(eq=False)
class BackgroundModel:
    """Basis plus cdfs: row i of that (u, m) table sorts the m training
    coefficients of component components[i].  components ascends and
    defaults to all s components of the basis."""

    basis: PatchBasis
    cdfs: np.ndarray
    components: np.ndarray | None = None

    def __post_init__(self):
        s = self.basis.size
        self.components = c = np.arange(s) if self.components is None \
            else np.asarray(self.components)
        if not (c.ndim == 1 and c.size and 0 <= c[0] and c[-1] < s
                and (c[:-1] < c[1:]).all()):
            raise DimensionMismatch(f"components must be ascending indices "
                                    f"below the basis size {s}")
        if len(self.cdfs) != len(c):
            raise DimensionMismatch(f"{len(self.cdfs)} CDFs for {len(c)} "
                                    f"components")

    def slots(self, order: np.ndarray) -> np.ndarray:
        """Rows of the cdfs table that hold the components in order (any
        shape), in the smallest unsigned type that holds u.  Raises
        DimensionMismatch when the model lacks one of them."""
        u = len(self.components)
        rows = np.full(self.basis.size, u, dtype=np.min_scalar_type(u))
        rows[self.components] = np.arange(u)
        slots = rows[order]
        if (slots == u).any():
            raise DimensionMismatch("the model lacks a component of order")
        return slots


def extract_block(image: GrayImage, q: tuple[int, int], block_side: int) -> np.ndarray:
    """Row-major samples of the block_side x block_side window centered at
    q = (column, row)."""
    if block_side < 1 or block_side % 2 == 0:
        raise ValueError(f"block side must be odd and positive, got {block_side}")
    x, y = q
    half = block_side // 2
    if not (half <= x < image.width - half and half <= y < image.height - half):
        raise BlockOutOfBounds(f"block at ({x}, {y}) leaves the {image.width}x"
                               f"{image.height} image")
    win = image.pixels[y - half:y + half + 1, x - half:x + half + 1]
    return win.reshape(-1).copy()


def interior_shape(image: GrayImage, block_side: int) -> tuple[int, int]:
    """(rows, columns) of the interior grid: the centers of complete blocks."""
    if block_side < 1 or block_side % 2 == 0:
        raise ValueError(f"block side must be odd and positive, got {block_side}")
    if image.height < block_side or image.width < block_side:
        raise ImageTooSmall(f"{image.width}x{image.height} image has no complete "
                            f"{block_side}x{block_side} block")
    return image.height - block_side + 1, image.width - block_side + 1


def interior_blocks(image: GrayImage, block_side: int,
                    rows: slice = slice(None)) -> np.ndarray:
    """All complete blocks as an (n, s) matrix, one row per interior pixel,
    enumerated row-major over the interior grid; `rows` restricts them to a
    band of interior rows."""
    interior_shape(image, block_side)
    win = np.lib.stride_tricks.sliding_window_view(
        image.pixels, (block_side, block_side))[rows]
    n = win.shape[0] * win.shape[1]
    return win.reshape(n, block_side * block_side)


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of an exactly symmetric matrix by cyclic Jacobi
    sweeps.

    Sweeps stop once the Frobenius norm of the off-diagonal part drops below
    1e-12 times the norm of the diagonal; raises EigenNoConvergence after 100
    sweeps, and Overflow when a norm leaves float64's range.  Returns
    (eigenvalues, eigenvectors) with eigenvectors in columns, unsorted.
    Raises DimensionMismatch unless the matrix is square and equal to its
    transpose (NaN matching NaN): the rotations rely on that symmetry.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if not np.array_equal(a, a.T, equal_nan=True):
        raise DimensionMismatch("matrix must be exactly symmetric")
    s = a.shape[0]
    # row k holds column k of the matrix, then column k of the eigenvectors
    table = np.empty((s, 2 * s))
    table[:, :s] = a
    table[:, s:] = np.eye(s)
    a = table[:, :s]  # the matrix's transpose, equal to it by symmetry

    def _off_norm():
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return np.sqrt((off * off).sum())

    for sweeps in range(_JACOBI_MAX_SWEEPS + 1):
        d = np.diag(a)
        with np.errstate(over="ignore"):
            off, diag = _off_norm(), np.sqrt((d * d).sum())
        if np.inf in (off, diag):
            raise Overflow("matrix norm overflows float64")
        if off <= _JACOBI_TOL * diag:
            return d.copy(), table[:, s:].T.copy()
        if sweeps < _JACOBI_MAX_SWEEPS:
            _sweep(table, s)   # finite norms: no product overflows
    raise EigenNoConvergence(f"off-diagonal mass {_off_norm():.3e} left after "
                             f"{_JACOBI_MAX_SWEEPS} sweeps")


def _sweep(table: np.ndarray, s: int) -> None:
    """One cyclic sweep of rotations over the (s, 2s) column table.

    Rotating rows p and q of the table applies the rotation to columns p
    and q of the matrix and of the eigenvectors at once.  The matrix stays
    exactly symmetric, so its rows p and q equal the new columns outside
    the 2x2 block, bit for bit; only that block is computed apart."""
    rows = list(table)
    a_columns = list(table[:, :s])
    a_rows = list(table[:, :s].T)
    # numpy multiplies by a 0-d array faster than by a Python float
    c_, sn_ = np.empty(()), np.empty(())
    sn_p, sn_q = np.empty(2 * s), np.empty(2 * s)
    for p in range(s - 1):
        rp = rows[p]
        for q in range(p + 1, s):
            apq = table.item(p, q)
            if apq == 0.0:
                continue
            app = table.item(p, p)
            aqq = table.item(q, q)
            theta = (aqq - app) / (2.0 * apq)
            if abs(theta) > 1e140:  # theta^2 would overflow
                t = 1.0 / (2.0 * theta)
            elif theta >= 0.0:
                t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
            else:
                t = 1.0 / (theta - math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            sn = t * c
            c_[()] = c
            sn_[()] = sn
            rq = rows[q]
            np.multiply(rp, sn_, out=sn_p)
            np.multiply(rq, sn_, out=sn_q)
            np.multiply(rp, c_, out=rp)
            np.subtract(rp, sn_q, out=rp)  # c * rp - sn * rq
            np.multiply(rq, c_, out=rq)
            np.add(rq, sn_p, out=rq)  # c * rq + sn * rp
            a_rows[p][:] = a_columns[p]
            a_rows[q][:] = a_columns[q]
            # the 2x2 block: the column rotation, then the row rotation
            cpp, cqp = c * app - sn * apq, c * apq - sn * aqq
            cpq, cqq = sn * app + c * apq, sn * apq + c * aqq
            table[p, p] = c * cpp - sn * cqp
            table[q, q] = sn * cpq + c * cqq
            table[p, q] = table[q, p] = 0.0


def compute_patch_basis(image: GrayImage, block_side: int) -> PatchBasis:
    """Learn mean block and eigen-decomposed block covariance from every
    complete block of the image (population covariance, denominator n)."""
    blocks = interior_blocks(image, block_side)
    s = block_side * block_side
    if blocks.shape[0] < s:
        raise ImageTooSmall(f"need at least {s} complete blocks, got "
                            f"{blocks.shape[0]}")
    if np.may_share_memory(blocks, image.pixels):
        blocks = blocks.copy()  # a one-column interior reshapes to a view
    mean = blocks.mean(axis=0)
    blocks -= mean  # centered in place: the only (n, s) table
    # a pool task, so on one BLAS thread: the count changes the sum's bits
    cov = bands.run_parallel(lambda b: b.T @ b, [blocks])[0] / blocks.shape[0]
    cov = (cov + cov.T) * 0.5
    eigenvalues, vectors = jacobi_eigh(cov)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    return PatchBasis(block_side=block_side, mean_block=mean,
                      eigenvectors=vectors[:, order].T.copy(),
                      eigenvalues=eigenvalues)


def project(basis: PatchBasis, blocks: np.ndarray) -> np.ndarray:
    """Coefficients of one block (s,) or a stack of blocks (n, s) on the
    centered basis.  Each block is its own product, so its coefficients
    have the same bits whatever other blocks share the call."""
    arr = np.asarray(blocks, dtype=np.float64)
    if arr.shape[-1] != basis.size:
        raise DimensionMismatch(f"block length {arr.shape[-1]} != basis size "
                                f"{basis.size}")
    return np.matmul((arr - basis.mean_block)[..., None, :],
                     basis.eigenvectors.T)[..., 0, :]


def project_rows(basis: PatchBasis, image: GrayImage, rows: slice):
    """The coefficients of a band of interior rows, one row at a time:
    yields (cells, coeffs) per row, coeffs the (wi, s) projection of the
    row's blocks and cells the slice of its pixels among the band's, in
    interior_blocks order.  So the blocks, centered blocks and coefficients
    exist a row at a time, never for the whole band, and each block has
    the bits project gives it alone."""
    for k, y in enumerate(range(rows.start, rows.stop)):
        coeffs = project(basis, interior_blocks(image, basis.block_side,
                                                slice(y, y + 1)))
        yield slice(k * len(coeffs), (k + 1) * len(coeffs)), coeffs


def training_values(basis: PatchBasis, image: GrayImage,
                    components: np.ndarray) -> np.ndarray:
    """(u, m) table: row i holds the coefficient of component components[i]
    at every complete block of the image, in interior_blocks order.  Each
    row is projected on the whole basis, so every value has the same bits
    whichever components are kept."""
    hi, wi = interior_shape(image, basis.block_side)
    m = hi * wi
    if m < 2:
        raise ImageTooSmall("need at least 2 complete blocks for the CDFs")
    # allocated here, not in the tasks: memory that a worker thread
    # allocates and that outlives its task stays in that thread's arena
    values = np.empty((len(components), m))

    def band(rows):
        out = values[:, rows.start * wi:rows.stop * wi]
        for cells, coeffs in project_rows(basis, image, rows):
            out[:, cells] = coeffs[:, components].T

    bands.run_bands(band, hi)
    return values


def training_ranks(basis: PatchBasis, image: GrayImage, components: np.ndarray,
                   ) -> tuple[BackgroundModel, np.ndarray]:
    """Empirical CDF of each of the given components over every complete
    block of the image, and every block's own CDF values as integer ranks.

    Returns (model, ranks).  ranks is an (m, u) table in interior_blocks
    order, of the smallest unsigned type that holds m; column i over m
    equals cdf_eval(model.cdfs[i], value) bit for bit at every training
    value of component components[i], because a training value's CDF value
    is its last-occurrence rank over m.  One pool task per component sorts
    its row of training_values in place.
    """
    sorted_values = training_values(basis, image, components)
    m = sorted_values.shape[1]
    ranks = np.empty((m, len(components)), dtype=np.min_scalar_type(m))

    def component(i):
        sv = sorted_values[i]
        perm = np.argsort(sv)
        sv[:] = sv[perm]
        column = np.empty(m, dtype=ranks.dtype)
        column[perm] = last_ranks(sv)
        ranks[:, i] = column

    bands.run_parallel(component, range(len(components)))
    return BackgroundModel(basis, sorted_values, components), ranks


def last_ranks(sorted_row: np.ndarray) -> np.ndarray:
    """Last-occurrence rank of every value of a sorted row of m values: one
    past the end of its run of ties, np.searchsorted(row, row, "right"), in
    the smallest unsigned type that holds m.  Over m it is cdf_eval's value
    at that training value, bit for bit."""
    m = sorted_row.size
    run_end = np.empty(m, dtype=bool)
    run_end[-1] = True
    np.not_equal(sorted_row[1:], sorted_row[:-1], out=run_end[:-1])
    ends = (np.flatnonzero(run_end) + 1).astype(np.min_scalar_type(m))
    return np.repeat(ends, np.diff(ends, prepend=0))


def cdf_eval(sorted_values: np.ndarray, value):
    """Fraction of the sorted training values <= value, linearly
    interpolated between adjacent order statistics; ties share the rank of
    their last occurrence.  Below the minimum -> 0, at or above the maximum
    -> 1.  Accepts scalars or arrays."""
    sv = sorted_values
    m = sv.size
    if m == 0:
        raise ValueError("empty CDF")
    x = np.asarray(value, dtype=np.float64)
    # searching the values in ascending order keeps the binary searches in
    # cache, and makes the tails a prefix and a suffix of the sorted queries
    flat = np.ascontiguousarray(x).reshape(-1)
    perm = np.argsort(flat)
    xs = flat[perm]
    j = np.searchsorted(sv, xs, side="right")
    lo, hi = np.searchsorted(j, [0, m - 1], side="right")
    out_sorted = np.empty(xs.shape)
    out_sorted[:lo] = 0.0
    out_sorted[hi:] = 1.0
    jm = j[lo:hi]
    left = sv[jm - 1]
    right = sv[jm]
    out_sorted[lo:hi] = (jm + (xs[lo:hi] - left) / (right - left)) / m
    out = np.empty(flat.shape)
    out[perm] = out_sorted
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def learn_background_model(image: GrayImage,
                           block_side: int = 9) -> BackgroundModel:
    """Basis learned from the image plus that image's CDFs of all s
    components."""
    basis = compute_patch_basis(image, block_side)
    cdfs = training_values(basis, image, np.arange(basis.size))
    bands.run_parallel(lambda i: cdfs[i].sort(), range(basis.size))
    return BackgroundModel(basis, cdfs)


def save_basis(basis: PatchBasis, path) -> None:
    """Binary container: magic "ACBM1", two little-endian uint32 (block_side,
    s), then mean block, eigenvector rows and eigenvalues as little-endian
    float64."""
    write_file(path, BASIS_MAGIC,
               np.array([basis.block_side, basis.size], dtype="<u4").tobytes(),
               *(np.ascontiguousarray(a, "<f8").tobytes() for a in
                 (basis.mean_block, basis.eigenvectors, basis.eigenvalues)))


def load_basis(path) -> PatchBasis:
    buf = read_file(path)
    if not buf.startswith(BASIS_MAGIC):
        raise UnsupportedFormat(f"{path}: bad magic {buf[:5]!r}")
    if len(buf) < len(BASIS_MAGIC) + 8:
        raise TruncatedData(f"{path}: header cut short")
    head = np.frombuffer(buf, dtype="<u4", count=2, offset=len(BASIS_MAGIC))
    block_side, s = int(head[0]), int(head[1])
    if block_side < 1 or block_side % 2 == 0 or s != block_side * block_side:
        raise CorruptHeader(f"{path}: inconsistent sizes side={block_side} s={s}")
    need = s + s * s + s
    offset = len(BASIS_MAGIC) + 8
    if len(buf) < offset + need * 8:
        raise TruncatedData(f"{path}: expected {need} float64 values")
    data = np.frombuffer(buf, dtype="<f8", count=need, offset=offset)
    if not np.isfinite(data).all():
        raise CorruptHeader(f"{path}: basis values not finite")
    mean = data[:s].copy()
    vectors = data[s:s + s * s].reshape(s, s).copy()
    eigenvalues = data[s + s * s:].copy()
    if (eigenvalues < 0).any() or (np.diff(eigenvalues) > 0).any():
        raise CorruptHeader(f"{path}: eigenvalues not sorted non-negative")
    return PatchBasis(block_side=block_side, mean_block=mean,
                      eigenvectors=vectors, eigenvalues=eigenvalues)
