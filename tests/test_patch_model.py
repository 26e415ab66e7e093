"""Patch statistics: block extraction, PCA basis, empirical CDFs, sampling."""
import numpy as np
import pytest

from acbm import gen_texture
from acbm.errors import (
    BlockOutOfBounds,
    CorruptHeader,
    DimensionMismatch,
    EigenNoConvergence,
    ImageTooSmall,
    TruncatedData,
    UnsupportedFormat,
    WriteFailure,
)
from acbm.imgio import GrayImage
from acbm.patch_model import (
    cdf_eval,
    compute_patch_basis,
    extract_block,
    interior_blocks,
    jacobi_eigh,
    learn_background_model,
    load_basis,
    project,
    sample_coefficients,
    save_basis,
    training_ranks,
)


@pytest.fixture(scope="module")
def texture_model():
    img = gen_texture(96, 96, seed=5)
    return img, learn_background_model(img)


def saturated_square(side, lo=20, hi=80):
    """Texture with the square [lo, hi)^2 saturated; by default 96x96 with
    about 35% of the 9x9 blocks identical, so every component has a large
    run of ties."""
    pixels = gen_texture(side, side, seed=6).pixels.copy()
    pixels[lo:hi, lo:hi] = 255.0
    return GrayImage(pixels)


def ramp_image(width=12, height=12):
    return GrayImage(np.tile(np.arange(width, dtype=float), (height, 1)))


# ------------------------------------------------------------------ blocks

def test_extract_block_constant():
    img = GrayImage(np.full((8, 8), 7.0))
    assert extract_block(img, (4, 4), 3).tolist() == [7.0] * 9


def test_extract_block_ramp_row_major():
    got = extract_block(ramp_image(), (5, 5), 3)
    assert got.tolist() == [4, 5, 6, 4, 5, 6, 4, 5, 6]


def test_extract_block_border_raises():
    img = ramp_image()
    with pytest.raises(BlockOutOfBounds):
        extract_block(img, (0, 0), 3)
    with pytest.raises(BlockOutOfBounds):
        extract_block(img, (11, 5), 3)
    with pytest.raises(BlockOutOfBounds):
        extract_block(img, (5, 5), 13)


def test_interior_blocks_layout():
    img = gen_texture(11, 9, seed=2)
    blocks = interior_blocks(img, 3)
    assert blocks.shape == ((9 - 2) * (11 - 2), 9)
    # row-major over interior centers, same samples as extract_block
    k = 0
    for y in range(1, 8):
        for x in range(1, 10):
            assert np.array_equal(blocks[k], extract_block(img, (x, y), 3))
            k += 1


# ------------------------------------------------------------- eigensolver

def test_jacobi_matches_reference_solver():
    # jacobi_eigh returns unsorted eigenvalues with column eigenvectors
    rng = np.random.default_rng(20)
    for size in (2, 3, 5, 9, 16):
        m = rng.normal(size=(size, size))
        sym = (m + m.T) / 2
        vals, vecs = jacobi_eigh(sym)
        ref = np.linalg.eigvalsh(sym)
        scale = max(abs(ref).max(), 1e-30)
        assert np.abs(np.sort(vals) - ref).max() <= 1e-9 * scale
        # eigenpairs actually solve the problem
        assert np.abs(sym @ vecs - vecs * vals).max() <= 1e-9 * scale
        assert np.abs(vecs.T @ vecs - np.eye(size)).max() <= 1e-10


def test_jacobi_checkerboard_covariance():
    tiles = np.indices((8, 8)).sum(axis=0) % 2
    img = GrayImage(tiles * 255.0)
    blocks = interior_blocks(img, 3)
    centered = blocks - blocks.mean(axis=0)
    cov = centered.T @ centered / blocks.shape[0]
    vals, _ = jacobi_eigh(cov)
    ref = np.linalg.eigvalsh(cov)
    assert np.abs(np.sort(vals) - ref).max() <= 1e-6 * max(abs(ref).max(), 1.0)


def test_jacobi_full_size_covariance(texture_model):
    img, model = texture_model
    blocks = interior_blocks(img, 9)
    centered = blocks - blocks.mean(axis=0)
    cov = centered.T @ centered / blocks.shape[0]
    vals, vecs = jacobi_eigh(cov)
    ref = np.linalg.eigvalsh(cov)
    assert np.abs(np.sort(vals) - ref).max() <= 1e-6 * abs(ref).max()
    assert np.abs(vecs.T @ vecs - np.eye(81)).max() <= 1e-8


def test_jacobi_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        jacobi_eigh(np.zeros((3, 4)))


def loop_jacobi_eigh(matrix):
    """The Jacobi solver as first written, one numpy call per row and column
    operation of each rotation: jacobi_eigh must reproduce its bytes."""
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    s = a.shape[0]
    v = np.eye(s)

    def _off_norm():
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return np.sqrt((off * off).sum())

    for _ in range(100):
        d = np.diag(a)
        if _off_norm() <= 1e-12 * np.sqrt((d * d).sum()):
            return d.copy(), v
        with np.errstate(over="ignore"):  # near-zero pivots give huge theta
            _loop_sweep(a, v, s)
    d = np.diag(a)
    if _off_norm() <= 1e-12 * np.sqrt((d * d).sum()):
        return d.copy(), v
    raise EigenNoConvergence(f"off-diagonal mass {_off_norm():.3e} left after "
                             f"100 sweeps")


def _loop_sweep(a, v, s):
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


def block_covariance(image, side):
    """The symmetrized block covariance, as compute_patch_basis forms it."""
    blocks = interior_blocks(image, side)
    centered = blocks - blocks.mean(axis=0)
    cov = centered.T @ centered / blocks.shape[0]
    return (cov + cov.T) * 0.5


def random_symmetric(size):
    m = np.random.default_rng(100 + size).normal(size=(size, size))
    return (m + m.T) / 2


def block_diagonal():
    """A 3x3 and a 2x2 block on the diagonal: the zeros between them stay
    exact zeros under every rotation, so every sweep skips those pivots."""
    m = np.zeros((5, 5))
    m[:3, :3] = random_symmetric(3)
    m[3:, 3:] = random_symmetric(2)
    return m


def first_pivot(pq):
    """3x3 whose first pivot (0, 1) has theta = (1 - 0) / (2 * pq), with an
    entry at (1, 2) that keeps it from passing the convergence test at once."""
    return np.array([[0.0, pq, 0.0], [pq, 1.0, 0.5], [0.0, 0.5, 2.0]])


# a 2x2 cannot reach the |theta| > 1e140 branch: its only off-diagonal entry
# is then below 1e-140 of the diagonal, and the convergence test stops first
PIVOT_CASES = {
    "theta-negative": np.array([[2.0, 1.0], [1.0, 1.0]]),
    "theta-zero": np.array([[1.0, 1.0], [1.0, 1.0]]),
    "theta-positive": np.array([[1.0, 1.0], [1.0, 2.0]]),
    "theta-huge": first_pivot(1e-300),
    "theta-overflows": first_pivot(1e-310),
}

ORACLE_CASES = {
    "texture": lambda: block_covariance(gen_texture(96, 96, seed=5), 9),
    "saturated": lambda: block_covariance(saturated_square(96), 9),
    "checkerboard": lambda: block_covariance(
        GrayImage(np.indices((8, 8)).sum(axis=0) % 2 * 255.0), 3),
    "block-diagonal": block_diagonal,
    "diagonal": lambda: np.diag([3.0, -1.0, 0.0, 2.0]),
    **{f"random-{n}": (lambda n=n: random_symmetric(n)) for n in range(2, 17)},
    **{name: (lambda m=m: m) for name, m in PIVOT_CASES.items()},
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_jacobi_equals_loop_oracle(name):
    matrix = ORACLE_CASES[name]()
    given = matrix.copy()
    values, vectors = jacobi_eigh(matrix)
    ref_values, ref_vectors = loop_jacobi_eigh(matrix)
    assert values.tobytes() == ref_values.tobytes()
    assert vectors.tobytes() == ref_vectors.tobytes()
    assert matrix.tobytes() == given.tobytes()


def test_pivot_cases_reach_their_branches():
    # Python floats: an overflowing division gives inf without a warning
    theta = {name: (m.item(1, 1) - m.item(0, 0)) / (2.0 * m.item(0, 1))
             for name, m in PIVOT_CASES.items()}
    assert theta["theta-negative"] < 0.0
    assert theta["theta-zero"] == 0.0
    assert 0.0 < theta["theta-positive"] <= 1e140
    assert 1e140 < theta["theta-huge"] < np.inf
    assert theta["theta-overflows"] == np.inf
    for m in PIVOT_CASES.values():  # not converged before the first sweep
        off = m - np.diag(np.diag(m))
        assert np.linalg.norm(off) > 1e-12 * np.linalg.norm(np.diag(m))


def test_jacobi_rejects_nonsymmetric():
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    m[0, 1] = np.nextafter(1.0, 2.0)
    with pytest.raises(DimensionMismatch):
        jacobi_eigh(m)
    m = np.eye(3)
    m[0, 2] = np.nan
    with pytest.raises(DimensionMismatch):
        jacobi_eigh(m)


def test_jacobi_nan_matrix_does_not_converge():
    m = np.eye(3)
    m[0, 2] = m[2, 0] = np.nan
    with pytest.raises(EigenNoConvergence):
        jacobi_eigh(m)


# ------------------------------------------------------------------- basis

def test_basis_constant_image():
    basis = compute_patch_basis(GrayImage(np.full((16, 16), 9.0)), 3)
    assert np.allclose(basis.mean_block, 9.0)
    assert np.allclose(basis.eigenvalues, 0.0)


def test_basis_needs_enough_blocks():
    with pytest.raises(ImageTooSmall):
        compute_patch_basis(GrayImage(np.zeros((4, 4))), 3)
    # 5x5 admits exactly 9 complete 3x3 blocks, the minimum
    compute_patch_basis(GrayImage(np.arange(25, dtype=float).reshape(5, 5)), 3)


def two_table_basis(image, side):
    """The block copy and a second, centered copy, solved by the loop Jacobi
    solver, as the basis was first written: compute_patch_basis must give
    the same bytes."""
    blocks = interior_blocks(image, side)
    mean = blocks.mean(axis=0)
    centered = blocks - mean
    cov = centered.T @ centered / blocks.shape[0]
    cov = (cov + cov.T) * 0.5
    values, vectors = loop_jacobi_eigh(cov)
    order = np.argsort(-values, kind="stable")
    return mean, vectors[:, order].T.copy(), np.maximum(values[order], 0.0)


@pytest.mark.parametrize("image, side", [
    (saturated_square(96), 9),
    (GrayImage(np.full((40, 40), 90.0)), 9),
    (gen_texture(61, 23, seed=2), 5),
    # one interior column: the blocks are a view of the image's own rows
    (gen_texture(9, 120, seed=3), 9),
], ids=["saturated", "constant", "non-square", "one-column"])
def test_basis_equals_two_table_oracle(image, side):
    pixels = image.pixels.copy()
    basis = compute_patch_basis(image, side)
    mean, vectors, values = two_table_basis(image, side)
    assert basis.mean_block.tobytes() == mean.tobytes()
    assert basis.eigenvectors.tobytes() == vectors.tobytes()
    assert basis.eigenvalues.tobytes() == values.tobytes()
    assert image.pixels.tobytes() == pixels.tobytes()


def test_basis_eigenvalues_sorted_and_nonnegative(texture_model):
    _, model = texture_model
    vals = model.basis.eigenvalues
    assert (vals >= 0).all()
    assert (np.diff(vals) <= 0).all()


def test_basis_orthonormal(texture_model):
    _, model = texture_model
    v = model.basis.eigenvectors
    assert np.abs(v @ v.T - np.eye(v.shape[0])).max() <= 1e-8


def test_eigenvalues_equal_projected_variances(texture_model):
    img, model = texture_model
    coeffs = project(model.basis, interior_blocks(img, 9))
    variances = coeffs.var(axis=0)  # population variance, matching the basis
    vals = model.basis.eigenvalues
    assert np.abs(variances - vals).max() <= 1e-6 * max(vals.max(), 1.0)


def test_components_are_decorrelated(texture_model):
    img, model = texture_model
    coeffs = project(model.basis, interior_blocks(img, 9))
    centered = coeffs - coeffs.mean(axis=0)
    cov = centered.T @ centered / coeffs.shape[0]
    std = np.sqrt(np.diag(cov))
    live = std > 1e-9 * std.max()
    corr = cov[np.ix_(live, live)] / np.outer(std[live], std[live])
    np.fill_diagonal(corr, 0.0)
    assert np.abs(corr).max() <= 1e-6


# -------------------------------------------------------------- projection

def test_project_mean_block_is_zero(texture_model):
    _, model = texture_model
    assert np.abs(project(model.basis, model.basis.mean_block)).max() <= 1e-9


def test_project_single_component(texture_model):
    _, model = texture_model
    basis = model.basis
    block = basis.mean_block + 3.0 * basis.eigenvectors[0]
    coeffs = project(basis, block)
    expected = np.zeros(basis.size)
    expected[0] = 3.0
    assert np.abs(coeffs - expected).max() <= 1e-9


def test_project_reconstruction(texture_model):
    _, model = texture_model
    basis = model.basis
    rng = np.random.default_rng(21)
    block = rng.uniform(0.0, 255.0, basis.size)
    coeffs = project(basis, block)
    rebuilt = basis.mean_block + coeffs @ basis.eigenvectors
    assert np.abs(rebuilt - block).max() <= 1e-6 * max(abs(block).max(), 1.0)


def test_project_dimension_mismatch(texture_model):
    _, model = texture_model
    with pytest.raises(DimensionMismatch):
        project(model.basis, np.zeros(80))
    with pytest.raises(DimensionMismatch):
        project(model.basis, np.zeros((4, 80)))


# ------------------------------------------------------------------- CDFs

def naive_cdf(sample, x):
    """Rank count with linear interpolation between adjacent order stats."""
    sv = sorted(sample)
    m = len(sv)
    if x < sv[0]:
        return 0.0
    if x >= sv[-1]:
        return 1.0
    j = 0
    while sv[j] <= x:
        j += 1
    # sv[j-1] <= x < sv[j]
    frac = (x - sv[j - 1]) / (sv[j] - sv[j - 1])
    return (j + frac) / m


def test_cdf_matches_rank_oracle():
    rng = np.random.default_rng(22)
    sample = rng.normal(size=257)
    cdf = np.sort(sample)
    for x in rng.normal(size=400):
        assert cdf_eval(cdf, x) == pytest.approx(naive_cdf(sample, x), abs=1e-12)


def test_cdf_tails_and_median():
    cdf = np.arange(1.0, 102.0)  # odd length, distinct
    assert cdf_eval(cdf, 0.0) == 0.0
    assert cdf_eval(cdf, 102.0) == 1.0
    assert cdf_eval(cdf, 51.0) == pytest.approx(0.5, abs=1.0 / cdf.size)


def test_cdf_ties_share_last_rank():
    cdf = np.array([1.0, 2.0, 2.0, 3.0])
    assert cdf_eval(cdf, 2.0) == pytest.approx(3 / 4)


def test_cdf_monotone():
    rng = np.random.default_rng(23)
    cdf = np.sort(rng.normal(size=300))
    probes = np.sort(rng.normal(scale=2.0, size=2000))
    out = cdf_eval(cdf, probes)
    assert (np.diff(out) >= 0).all()
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_cdf_vector_matches_scalar():
    rng = np.random.default_rng(24)
    train = rng.normal(size=64)
    cdf = np.sort(train)
    # unsorted 2-D probes: duplicates, both tails and exact training values
    mixed = np.concatenate([rng.normal(size=20), train[:10], train[:5],
                            [train.min() - 1.0, train.max() + 1.0,
                             train.min(), train.max()]])
    mixed = rng.permutation(np.tile(mixed, 2)).reshape(6, 13)
    for probes in (rng.normal(size=50), mixed):
        vec = cdf_eval(cdf, probes)
        assert vec.shape == probes.shape
        assert vec.ravel().tolist() == [cdf_eval(cdf, float(x))
                                        for x in probes.ravel()]


@pytest.mark.parametrize("image, dtype", [
    (saturated_square(96), np.uint16),
    (GrayImage(np.full((40, 40), 90.0)), np.uint16),
    (saturated_square(23, 2, 21), np.uint8),        # 225 blocks
    (saturated_square(264, 20, 244), np.uint32),     # 65536 blocks
], ids=["saturated", "constant", "uint8", "uint32"])
def test_training_ranks_match_cdf_eval(image, dtype):
    basis = compute_patch_basis(saturated_square(96), 9)
    coeffs = project(basis, interior_blocks(image, 9))
    m = coeffs.shape[0]
    model, ranks = training_ranks(basis, image)
    assert model.basis is basis and model.cdfs.shape == (81, m)
    assert ranks.shape == (m, 81) and ranks.dtype == dtype
    for i, cdf in enumerate(model.cdfs):
        column = coeffs[:, i]
        assert np.unique(column).size < 0.7 * column.size
        assert np.array_equal(cdf, np.sort(column))
        assert (ranks[:, i] / m).tobytes() == \
            cdf_eval(cdf, column).tobytes(), i


@pytest.mark.parametrize("image, dtype", [
    (saturated_square(23, 2, 21), np.uint8),        # 225 blocks
    (saturated_square(96), np.uint16),
    (saturated_square(264, 20, 244), np.uint32),     # 65536 blocks
], ids=["uint8", "uint16", "uint32"])
def test_training_ranks_on_components_equal_full_rows(image, dtype):
    basis = compute_patch_basis(saturated_square(96), 9)
    full, full_ranks = training_ranks(basis, image)
    for components in ([0], [2, 3, 40, 80], np.arange(0, 81, 2)):
        components = np.array(components)
        model, ranks = training_ranks(basis, image, components)
        assert model.basis is basis
        assert np.array_equal(model.components, components)
        assert ranks.dtype == full_ranks.dtype == dtype
        assert model.cdfs.shape == (components.size, full.cdfs.shape[1])
        assert model.cdfs.tobytes() == full.cdfs[components].tobytes()
        assert ranks.shape == (full_ranks.shape[0], components.size)
        assert ranks.tobytes() == \
            np.ascontiguousarray(full_ranks[:, components]).tobytes()


@pytest.mark.parametrize("image", [
    gen_texture(96, 96, seed=5), saturated_square(96),
    GrayImage(np.full((40, 40), 90.0)),
], ids=["texture", "saturated", "constant"])
def test_learned_model_equals_training_ranks_model(image):
    # the two sort differently and could place -0.0 and 0.0 apart: bytes
    basis = compute_patch_basis(saturated_square(96), 9)
    model = learn_background_model(image, 9, basis=basis)
    assert np.array_equal(model.components, np.arange(81))
    assert model.cdfs.tobytes() == \
        training_ranks(basis, image)[0].cdfs.tobytes()


def test_training_ranks_need_two_blocks():
    basis = compute_patch_basis(gen_texture(40, 40, seed=1), 5)
    with pytest.raises(ImageTooSmall):
        training_ranks(basis, gen_texture(5, 5, seed=2))
    model, ranks = training_ranks(basis, gen_texture(6, 5, seed=2))
    assert ranks.shape == (2, 25)
    assert model.cdfs.shape == (25, 2)


def test_build_cdfs_counts(texture_model):
    img, model = texture_model
    n_blocks = (96 - 8) ** 2
    assert model.cdfs.shape == (81, n_blocks)
    assert model.cdfs.dtype == np.float64
    assert (np.diff(model.cdfs, axis=1) >= 0).all()


def test_build_cdfs_needs_blocks():
    img = GrayImage(np.zeros((3, 3)))
    basis = compute_patch_basis(GrayImage(np.arange(25.0).reshape(5, 5)), 3)
    with pytest.raises(ImageTooSmall):
        learn_background_model(img, 3, basis=basis)


def test_component1_tracks_image_histogram(texture_model):
    # the leading component follows local brightness, so its quantile
    # profile should line up with the gray-level quantile profile
    img, model = texture_model
    c1 = model.cdfs[0]
    px = np.sort(img.pixels.ravel())
    grid = np.linspace(0.0, 1.0, 512)
    qc = np.interp(grid, np.linspace(0.0, 1.0, c1.size), c1)
    qp = np.interp(grid, np.linspace(0.0, 1.0, px.size), px)
    assert abs(np.corrcoef(qc, qp)[0, 1]) > 0.9


# ---------------------------------------------------------------- sampling

def test_sampling_deterministic(texture_model):
    _, model = texture_model
    a, b, c = (sample_coefficients(model.cdfs, np.random.default_rng(seed), 3)
               for seed in (7, 7, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (3, 81)


def test_sampling_marginal_means(texture_model):
    img, model = texture_model
    coeffs = project(model.basis, interior_blocks(img, 9))
    draws = sample_coefficients(model.cdfs, np.random.default_rng(1), 100_000)
    for i in range(81):
        train = coeffs[:, i]
        se = train.std() / np.sqrt(draws.shape[0])
        if se == 0.0:
            assert np.allclose(draws[:, i], train.mean())
        else:
            assert abs(draws[:, i].mean() - train.mean()) <= 3.0 * se, i


def test_sampling_matches_unsorted_interp(texture_model):
    _, model = texture_model
    got = sample_coefficients(model.cdfs, np.random.default_rng(3), 500)
    u = np.random.default_rng(3).random((500, 81))
    for i, cdf in enumerate(model.cdfs):
        m = cdf.size
        ref = np.interp(u[:, i], np.arange(1, m + 1) / m, cdf)
        assert got[:, i].tobytes() == ref.tobytes(), i


class FixedUniforms:
    """Stands in for a Generator whose random() draws the given table."""

    def __init__(self, table):
        self.table = table

    def random(self, shape):
        assert shape == self.table.shape
        return self.table.copy()


def edge_rows(m, rng):
    """Sorted rows of m values: random, tied, constant, signed zeros and
    infinite."""
    ties = np.sort(rng.integers(-2, 3, m).astype(np.float64))
    zeros = np.zeros(m)
    zeros[::2] = -0.0
    if m >= 4:
        zeros[0], zeros[-1] = -1.0, 1.0
    infinite = np.sort(rng.normal(size=m))
    infinite[-1] = np.inf
    return np.stack([np.sort(rng.normal(size=m)), ties, np.full(m, -2.5),
                     zeros, infinite])


@pytest.mark.parametrize("m", [1, 2, 3, 14400, 70001])
def test_sampling_edges_match_interp(m):
    # every rank k/m with both neighbours, the ends of [0, 1], values below
    # the first rank and random ones; byte equality also tells -0.0 from 0.0
    rng = np.random.default_rng(m)
    ranks = np.arange(1, m + 1) / m
    u = np.concatenate([ranks, np.nextafter(ranks, 2.0),
                        np.nextafter(ranks, -1.0),
                        [0.0, np.nextafter(1.0, 0.0), 1.0, 0.5 / m,
                         np.nextafter(0.0, 1.0)],
                        rng.random(3000)])
    rows = edge_rows(m, rng)
    signs = np.signbit(rows[3][rows[3] == 0])
    assert signs.any() and (m == 1 or not signs.all())
    got = sample_coefficients(rows, FixedUniforms(np.tile(u[:, None], 5)),
                              u.size)
    for i, row in enumerate(rows):
        ref = np.interp(u, ranks, row)
        assert got[:, i].tobytes() == ref.tobytes(), (m, i)


def test_sampling_needs_values():
    with pytest.raises(ValueError):
        sample_coefficients(np.empty((2, 0)), np.random.default_rng(0), 3)


def test_sampling_constant_model():
    model = learn_background_model(GrayImage(np.full((16, 16), 40.0)), 3)
    coeffs = sample_coefficients(model.cdfs, np.random.default_rng(0), 5)
    blocks = model.basis.mean_block + coeffs @ model.basis.eigenvectors
    assert np.allclose(blocks, 40.0)


# -------------------------------------------------------------- basis file

def test_basis_round_trip(tmp_path, texture_model):
    _, model = texture_model
    path = tmp_path / "model.basis"
    save_basis(model.basis, path)
    loaded = load_basis(path)
    assert loaded.block_side == 9
    assert np.array_equal(loaded.mean_block, model.basis.mean_block)
    assert np.array_equal(loaded.eigenvectors, model.basis.eigenvectors)
    assert np.array_equal(loaded.eigenvalues, model.basis.eigenvalues)


def test_basis_save_into_missing_directory(tmp_path, texture_model):
    _, model = texture_model
    path = tmp_path / "missing" / "model.basis"
    with pytest.raises(WriteFailure) as excinfo:
        save_basis(model.basis, path)
    assert str(path) in str(excinfo.value)


def test_basis_bad_magic(tmp_path):
    path = tmp_path / "bad.basis"
    path.write_bytes(b"BOGUS" + bytes(32))
    with pytest.raises(UnsupportedFormat):
        load_basis(path)


def test_basis_truncated(tmp_path, texture_model):
    _, model = texture_model
    path = tmp_path / "model.basis"
    save_basis(model.basis, path)
    whole = path.read_bytes()
    for cut in (7, 12, len(whole) - 8):
        path.write_bytes(whole[:cut])
        with pytest.raises(TruncatedData):
            load_basis(path)


@pytest.mark.parametrize("part", ["mean", "eigenvectors", "eigenvalues"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_basis_not_finite(tmp_path, part, bad):
    basis = compute_patch_basis(gen_texture(40, 40, seed=1), 5)
    if part == "mean":
        basis.mean_block[3] = bad
    elif part == "eigenvectors":
        basis.eigenvectors[2, 7] = bad
    else:
        basis.eigenvalues[0] = bad  # +inf first still reads as sorted
    path = tmp_path / "bad.basis"
    save_basis(basis, path)
    with pytest.raises(CorruptHeader):
        load_basis(path)


def test_basis_inconsistent_header(tmp_path):
    head = b"ACBM1" + np.array([4, 16], dtype="<u4").tobytes()
    path = tmp_path / "even.basis"
    path.write_bytes(head + bytes(8 * (16 + 256 + 16)))
    with pytest.raises(CorruptHeader):
        load_basis(path)
