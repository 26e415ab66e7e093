"""Patch statistics: block extraction, PCA basis, empirical CDFs, sampling."""
import numpy as np
import pytest

from acbm import gen_texture
from acbm.errors import (
    BlockOutOfBounds,
    CorruptHeader,
    DimensionMismatch,
    ImageTooSmall,
    TruncatedData,
    UnsupportedFormat,
)
from acbm.imgio import GrayImage
from acbm.patch_model import (
    ComponentCDF,
    build_component_cdfs,
    cdf_eval,
    compute_patch_basis,
    extract_block,
    interior_blocks,
    jacobi_eigh,
    learn_background_model,
    load_basis,
    project,
    sample_background_block,
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
    """The block copy and a second, centered copy, as the basis was first
    written: the one-table version must give the same bytes."""
    blocks = interior_blocks(image, side)
    mean = blocks.mean(axis=0)
    centered = blocks - mean
    cov = centered.T @ centered / blocks.shape[0]
    cov = (cov + cov.T) * 0.5
    values, vectors = jacobi_eigh(cov)
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
    cdf = ComponentCDF(1, np.sort(sample))
    for x in rng.normal(size=400):
        assert cdf_eval(cdf, x) == pytest.approx(naive_cdf(sample, x), abs=1e-12)


def test_cdf_tails_and_median():
    values = np.arange(1.0, 102.0)  # odd length, distinct
    cdf = ComponentCDF(1, values)
    assert cdf_eval(cdf, 0.0) == 0.0
    assert cdf_eval(cdf, 102.0) == 1.0
    assert cdf_eval(cdf, 51.0) == pytest.approx(0.5, abs=1.0 / values.size)


def test_cdf_ties_share_last_rank():
    cdf = ComponentCDF(1, np.array([1.0, 2.0, 2.0, 3.0]))
    assert cdf_eval(cdf, 2.0) == pytest.approx(3 / 4)


def test_cdf_monotone():
    rng = np.random.default_rng(23)
    cdf = ComponentCDF(1, np.sort(rng.normal(size=300)))
    probes = np.sort(rng.normal(scale=2.0, size=2000))
    out = cdf_eval(cdf, probes)
    assert (np.diff(out) >= 0).all()
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_cdf_vector_matches_scalar():
    rng = np.random.default_rng(24)
    train = rng.normal(size=64)
    cdf = ComponentCDF(1, np.sort(train))
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
    cdfs, ranks = training_ranks(basis, image)
    assert len(cdfs) == 81
    assert ranks.shape == (m, 81) and ranks.dtype == dtype
    for i, cdf in enumerate(cdfs):
        column = coeffs[:, i]
        assert np.unique(column).size < 0.7 * column.size
        assert cdf.component_index == i + 1
        assert np.array_equal(cdf.sorted_values, np.sort(column))
        assert (ranks[:, i] / m).tobytes() == \
            cdf_eval(cdf, column).tobytes(), i


def test_training_ranks_need_two_blocks():
    basis = compute_patch_basis(gen_texture(40, 40, seed=1), 5)
    with pytest.raises(ImageTooSmall):
        training_ranks(basis, gen_texture(5, 5, seed=2))
    cdfs, ranks = training_ranks(basis, gen_texture(6, 5, seed=2))
    assert ranks.shape == (2, 25)
    assert all(cdf.sorted_values.size == 2 for cdf in cdfs)


def test_build_cdfs_counts(texture_model):
    img, model = texture_model
    n_blocks = (96 - 8) ** 2
    assert len(model.cdfs) == 81
    for i, cdf in enumerate(model.cdfs):
        assert cdf.component_index == i + 1
        assert cdf.sorted_values.size == n_blocks
        assert (np.diff(cdf.sorted_values) >= 0).all()


def test_build_cdfs_needs_blocks():
    img = GrayImage(np.zeros((3, 3)))
    basis = compute_patch_basis(GrayImage(np.arange(25.0).reshape(5, 5)), 3)
    with pytest.raises(ImageTooSmall):
        build_component_cdfs(img, basis)


def test_component1_tracks_image_histogram(texture_model):
    # the leading component follows local brightness, so its quantile
    # profile should line up with the gray-level quantile profile
    img, model = texture_model
    c1 = np.sort(model.cdfs[0].sorted_values)
    px = np.sort(img.pixels.ravel())
    grid = np.linspace(0.0, 1.0, 512)
    qc = np.interp(grid, np.linspace(0.0, 1.0, c1.size), c1)
    qp = np.interp(grid, np.linspace(0.0, 1.0, px.size), px)
    assert abs(np.corrcoef(qc, qp)[0, 1]) > 0.9


# ---------------------------------------------------------------- sampling

def test_sampling_deterministic(texture_model):
    _, model = texture_model
    a = sample_background_block(model.basis, model.cdfs, rng_seed=7)
    b = sample_background_block(model.basis, model.cdfs, rng_seed=7)
    c = sample_background_block(model.basis, model.cdfs, rng_seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (81,)


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
        m = cdf.sorted_values.size
        ref = np.interp(u[:, i], np.arange(1, m + 1) / m, cdf.sorted_values)
        assert got[:, i].tobytes() == ref.tobytes(), i


def test_sampling_constant_model():
    model = learn_background_model(GrayImage(np.full((16, 16), 40.0)), 3)
    block = sample_background_block(model.basis, model.cdfs, rng_seed=0)
    assert np.allclose(block, 40.0)


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
