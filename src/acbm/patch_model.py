"""Background model over image blocks.

A square block of side b is flattened row-major into a vector of s = b*b
samples.  The model is a PCA basis learned from every complete block of a
training image (mean block, eigenvectors and eigenvalues of the block
covariance) together with one empirical CDF per component, built from the
training coefficients.  Blocks are centered on the mean before projection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bands
from .errors import (BlockOutOfBounds, CorruptHeader, DimensionMismatch,
                     EigenNoConvergence, ImageTooSmall, TruncatedData,
                     UnreadableFile, UnsupportedFormat, WriteFailure)
from .imgio import GrayImage

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
class ComponentCDF:
    """Sorted training coefficients of one component (index is 1-based)."""

    component_index: int
    sorted_values: np.ndarray


@dataclass(eq=False)
class BackgroundModel:
    basis: PatchBasis
    cdfs: list[ComponentCDF]


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
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Sweeps stop once the Frobenius norm of the off-diagonal part drops below
    1e-12 times the norm of the diagonal; raises EigenNoConvergence after 100
    sweeps.  Returns (eigenvalues, eigenvectors) with eigenvectors in columns,
    unsorted.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    s = a.shape[0]
    v = np.eye(s)

    def _off_norm():
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return np.sqrt((off * off).sum())

    for _ in range(_JACOBI_MAX_SWEEPS):
        d = np.diag(a)
        if _off_norm() <= _JACOBI_TOL * np.sqrt((d * d).sum()):
            return d.copy(), v
        with np.errstate(over="ignore"):  # near-zero pivots give huge theta
            _sweep(a, v, s)
    d = np.diag(a)
    if _off_norm() <= _JACOBI_TOL * np.sqrt((d * d).sum()):
        return d.copy(), v
    raise EigenNoConvergence(f"off-diagonal mass {_off_norm():.3e} left after "
                             f"{_JACOBI_MAX_SWEEPS} sweeps")


def _sweep(a: np.ndarray, v: np.ndarray, s: int) -> None:
    for p in range(s - 1):
        for q in range(p + 1, s):
            apq = a[p, q]
            if apq == 0.0:
                continue
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            if abs(theta) > 1e140:  # theta^2 would overflow
                t = 1.0 / (2.0 * theta)
            elif theta >= 0.0:
                t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
            else:
                t = 1.0 / (theta - np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            sn = t * c
            ap, aq = a[:, p].copy(), a[:, q].copy()
            a[:, p] = c * ap - sn * aq
            a[:, q] = sn * ap + c * aq
            ap, aq = a[p, :].copy(), a[q, :].copy()
            a[p, :] = c * ap - sn * aq
            a[q, :] = sn * ap + c * aq
            a[p, q] = a[q, p] = 0.0
            vp, vq = v[:, p].copy(), v[:, q].copy()
            v[:, p] = c * vp - sn * vq
            v[:, q] = sn * vp + c * vq


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
    cov = blocks.T @ blocks / blocks.shape[0]
    cov = (cov + cov.T) * 0.5
    eigenvalues, vectors = jacobi_eigh(cov)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    return PatchBasis(block_side=block_side, mean_block=mean,
                      eigenvectors=vectors[:, order].T.copy(),
                      eigenvalues=eigenvalues)


def project(basis: PatchBasis, blocks: np.ndarray) -> np.ndarray:
    """Coefficients of one block (s,) or a stack of blocks (n, s) on the
    centered basis."""
    arr = np.asarray(blocks, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != basis.size:
        raise DimensionMismatch(f"block length {arr.shape[1]} != basis size "
                                f"{basis.size}")
    coeffs = (arr - basis.mean_block) @ basis.eigenvectors.T
    return coeffs[0] if single else coeffs


def training_ranks(basis: PatchBasis,
                   image: GrayImage) -> tuple[list[ComponentCDF], np.ndarray]:
    """Empirical CDF of each component over every complete block of the
    image, and every block's own CDF values as integer ranks.

    Returns (cdfs, ranks).  ranks is an (m, s) table in interior_blocks
    order, of the smallest unsigned type that holds m; ranks / m equals
    cdf_eval(cdf, value) bit for bit at every training value, because a
    training value's CDF value is its last-occurrence rank over m.  The
    image is projected in row bands straight into the (s, m) block of
    sorted values; one pool task per component then sorts its row in place.
    """
    side = basis.block_side
    hi, wi = interior_shape(image, side)
    m, s = hi * wi, basis.size
    if m < 2:
        raise ImageTooSmall("need at least 2 complete blocks for the CDFs")
    # allocated here, not in the tasks: memory that a worker thread
    # allocates and that outlives its task stays in that thread's arena
    sorted_values = np.empty((s, m))
    ranks = np.empty((m, s), dtype=np.min_scalar_type(m))

    def band(rows):
        sorted_values[:, rows.start * wi:rows.stop * wi] = project(
            basis, interior_blocks(image, side, rows)).T

    def component(i):
        sv = sorted_values[i]
        perm = np.argsort(sv)
        sv[:] = sv[perm]
        # last-occurrence rank of sv[k]: one past the end of its run of ties
        run_end = np.empty(m, dtype=bool)
        run_end[-1] = True
        np.not_equal(sv[1:], sv[:-1], out=run_end[:-1])
        ends = np.flatnonzero(run_end) + 1
        column = np.empty(m, dtype=ranks.dtype)
        column[perm] = np.repeat(ends, np.diff(ends, prepend=0))
        ranks[:, i] = column

    bands.run_bands(band, hi)
    bands.run_parallel(component, range(s))
    cdfs = [ComponentCDF(component_index=i + 1, sorted_values=sorted_values[i])
            for i in range(s)]
    return cdfs, ranks


def build_component_cdfs(image: GrayImage, basis: PatchBasis) -> list[ComponentCDF]:
    """Empirical CDFs of each component's coefficients over all complete
    blocks of the image."""
    return training_ranks(basis, image)[0]


def cdf_eval(cdf: ComponentCDF, value):
    """Fraction of training values <= value, linearly interpolated between
    adjacent order statistics; ties share the rank of their last occurrence.
    Below the minimum -> 0, at or above the maximum -> 1.  Accepts scalars
    or arrays."""
    sv = cdf.sorted_values
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


def sample_coefficients(cdfs: list[ComponentCDF], rng: np.random.Generator,
                        count: int) -> np.ndarray:
    """Draw count independent coefficient vectors, each component sampled by
    inverse-CDF from its own empirical distribution.  The uniforms are drawn
    at once, so the draws do not depend on the band pool that turns each
    component's column into values."""
    u = rng.random((count, len(cdfs)))
    out = np.empty_like(u)

    def column(i):
        sv = cdfs[i].sorted_values
        ranks = np.arange(1, sv.size + 1) / sv.size
        # interpolating at ascending u keeps the searches in cache
        values = u[:, i].copy()
        perm = np.argsort(values)
        values[perm] = np.interp(values[perm], ranks, sv)
        out[:, i] = values

    bands.run_parallel(column, range(len(cdfs)))
    return out


def sample_background_block(basis: PatchBasis, cdfs: list[ComponentCDF],
                            rng_seed: int) -> np.ndarray:
    """One random block from the background model, deterministic per seed."""
    if len(cdfs) != basis.size:
        raise DimensionMismatch(f"{len(cdfs)} CDFs for basis size {basis.size}")
    rng = np.random.default_rng(rng_seed)
    c = sample_coefficients(cdfs, rng, 1)[0]
    return basis.mean_block + c @ basis.eigenvectors


def learn_background_model(image: GrayImage, block_side: int = 9,
                           basis: PatchBasis | None = None) -> BackgroundModel:
    """Basis (learned from the image unless given) plus that image's CDFs."""
    if basis is None:
        basis = compute_patch_basis(image, block_side)
    elif basis.block_side != block_side:
        raise DimensionMismatch(f"basis block side {basis.block_side} != "
                                f"requested {block_side}")
    return BackgroundModel(basis=basis, cdfs=build_component_cdfs(image, basis))


def save_basis(basis: PatchBasis, path) -> None:
    """Binary container: magic "ACBM1", two little-endian uint32 (block_side,
    s), then mean block, eigenvector rows and eigenvalues as little-endian
    float64."""
    s = basis.size
    try:
        with open(path, "wb") as fh:
            fh.write(BASIS_MAGIC)
            fh.write(np.array([basis.block_side, s], dtype="<u4").tobytes())
            fh.write(np.ascontiguousarray(basis.mean_block, "<f8").tobytes())
            fh.write(np.ascontiguousarray(basis.eigenvectors, "<f8").tobytes())
            fh.write(np.ascontiguousarray(basis.eigenvalues, "<f8").tobytes())
    except OSError as exc:
        raise WriteFailure(f"{path}: {exc}") from None


def load_basis(path) -> PatchBasis:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from None
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
