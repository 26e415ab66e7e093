"""File formats: PGM and PFM images, disparity text, visualization PGM."""
import numpy as np
import pytest

from acbm.errors import (
    CorruptHeader,
    TruncatedData,
    UnreadableFile,
    UnsupportedFormat,
    WriteFailure,
)
from acbm.imgio import (
    CellState,
    DisparityMap,
    GrayImage,
    load_disparity,
    load_gray,
    save_disparity,
    save_disparity_viz,
    save_pfm,
    save_pgm,
)


def small_map():
    state = np.array([[0, 1], [2, 3]], dtype=np.uint8)
    disparity = np.array([[-3, 0], [0, 0]], dtype=np.int32)
    nfa = np.array([[0.25, np.nan], [np.nan, np.nan]])
    return DisparityMap(state=state, disparity=disparity, nfa=nfa)


# -------------------------------------------------------------------- PGM

def test_pgm_round_trip_8bit(tmp_path):
    rng = np.random.default_rng(30)
    img = GrayImage(rng.integers(0, 256, size=(13, 7)).astype(float))
    path = tmp_path / "img.pgm"
    save_pgm(img, path)
    back = load_gray(path)
    assert back.maxval == 255.0
    assert np.array_equal(back.pixels, img.pixels)


def test_pgm_round_trip_16bit(tmp_path):
    rng = np.random.default_rng(31)
    img = GrayImage(rng.integers(0, 65536, size=(5, 9)).astype(float),
                    maxval=65535.0)
    path = tmp_path / "img16.pgm"
    save_pgm(img, path)
    back = load_gray(path)
    assert back.maxval == 65535.0
    assert np.array_equal(back.pixels, img.pixels)


def test_pgm_ascii_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_bytes(b"P2 # magic\n# a comment line\n3 2\t255\n"
                     b"0 10 20\n30 40 # trailing\n50\n")
    img = load_gray(path)
    assert img.pixels.tolist() == [[0, 10, 20], [30, 40, 50]]


def test_pgm_ascii_truncated(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P2\n3 2 255\n0 10 20 30\n")
    with pytest.raises(TruncatedData):
        load_gray(path)


@pytest.mark.parametrize("data", [b"P2\n3 2 255\n",
                                  b"P2\n3 2 255\n0 10 20 30 # cut here\n"])
def test_pgm_ascii_truncated_at_end_of_data(tmp_path, data):
    path = tmp_path / "short.pgm"
    path.write_bytes(data)
    with pytest.raises(TruncatedData):
        load_gray(path)


def test_pgm_ascii_bad_sample_before_running_short(tmp_path):
    # a bad sample among those present wins over the missing ones
    path = tmp_path / "bad_then_short.pgm"
    path.write_bytes(b"P2\n2 2 255\n1 x\n")
    with pytest.raises(CorruptHeader, match="bad sample: b'x'"):
        load_gray(path)


def test_pgm_binary_truncated(tmp_path):
    path = tmp_path / "short5.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(15))
    with pytest.raises(TruncatedData):
        load_gray(path)


def test_pgm_sample_above_maxval(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P2\n2 1 10\n3 11\n")
    with pytest.raises(CorruptHeader):
        load_gray(path)


@pytest.mark.parametrize("header", [
    b"P2\n0 2 255\n",           # zero width
    b"P2\n2 -1 255\n",          # negative height
    b"P2\n2 2 0\n",             # maxval too small
    b"P2\n2 2 70000\n",         # maxval too large
    b"P2\nx 2 255\n0 0 0 0\n",  # non-numeric width
    b"P2\n3 2",                 # cut before maxval
])
def test_pgm_corrupt_headers(tmp_path, header):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + b"0 0 0 0\n")
    with pytest.raises(CorruptHeader):
        load_gray(path)


def test_unknown_magic(tmp_path):
    path = tmp_path / "strange.img"
    path.write_bytes(b"P7\n1 1 255\n0")
    with pytest.raises(UnsupportedFormat):
        load_gray(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.pgm"
    path.write_bytes(b"")
    with pytest.raises(UnsupportedFormat):
        load_gray(path)


def test_missing_file(tmp_path):
    with pytest.raises(UnreadableFile):
        load_gray(tmp_path / "nope.pgm")


def test_save_pgm_rounds_and_clips(tmp_path):
    img = GrayImage(np.array([[-4.0, 0.4, 0.6], [254.5, 300.0, 128.0]]))
    path = tmp_path / "clip.pgm"
    save_pgm(img, path)
    back = load_gray(path)
    assert back.pixels.tolist() == [[0, 0, 1], [254, 255, 128]]


# -------------------------------------------------------------------- PFM

def test_pfm_round_trip(tmp_path):
    # float32-representable samples survive the trip exactly
    rng = np.random.default_rng(32)
    img = GrayImage(rng.random((6, 11)).astype(np.float32).astype(np.float64))
    path = tmp_path / "img.pfm"
    save_pfm(img, path)
    back = load_gray(path)
    assert np.array_equal(back.pixels, img.pixels)


def test_pfm_big_endian_and_row_order(tmp_path):
    # rows are stored bottom-up; positive scale means big-endian floats
    pixels = np.array([[1.0, 2.0], [3.0, 4.0]])
    raster = np.flipud(pixels).astype(">f4").tobytes()
    path = tmp_path / "be.pfm"
    path.write_bytes(b"Pf\n2 2\n1.0\n" + raster)
    back = load_gray(path)
    assert np.array_equal(back.pixels, pixels)


def test_pfm_color_rejected(tmp_path):
    path = tmp_path / "color.pfm"
    path.write_bytes(b"PF\n1 1\n-1.0\n" + bytes(12))
    with pytest.raises(UnsupportedFormat):
        load_gray(path)


def test_pfm_nonfinite_rejected(tmp_path):
    raster = np.array([[np.inf]], dtype="<f4").tobytes()
    path = tmp_path / "inf.pfm"
    path.write_bytes(b"Pf\n1 1\n-1.0\n" + raster)
    with pytest.raises(UnsupportedFormat):
        load_gray(path)


def test_pfm_zero_scale(tmp_path):
    path = tmp_path / "scale0.pfm"
    path.write_bytes(b"Pf\n1 1\n0.0\n" + bytes(4))
    with pytest.raises(CorruptHeader):
        load_gray(path)


def test_pfm_truncated(tmp_path):
    path = tmp_path / "cut.pfm"
    path.write_bytes(b"Pf\n2 2\n-1.0\n" + bytes(10))
    with pytest.raises(TruncatedData):
        load_gray(path)


# -------------------------------------------------------- disparity text

def test_disparity_round_trip(tmp_path):
    dmap = small_map()
    path = tmp_path / "disp.tsv"
    save_disparity(dmap, path)
    assert path.read_text() == "-3\tNaN\nNaN\tNaN\n"
    back = load_disparity(path)
    assert back.state.tolist() == [[CellState.ACCEPTED,
                                    CellState.NOT_MEANINGFUL],
                                   [CellState.NOT_MEANINGFUL,
                                    CellState.NOT_MEANINGFUL]]
    assert back.disparity[0, 0] == -3
    assert np.isnan(back.nfa).all()


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_disparity_crlf_and_cr_end_rows(tmp_path, newline):
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"1\tNaN" + newline + b"-2\t3" + newline)
    back = load_disparity(path)
    assert back.state.tolist() == [[0, 1], [0, 0]]
    assert back.disparity.tolist() == [[1, 0], [-2, 3]]


def test_disparity_ragged_rejected(tmp_path):
    path = tmp_path / "ragged.tsv"
    path.write_text("1\t2\n3\n")
    with pytest.raises(CorruptHeader):
        load_disparity(path)


def test_disparity_bad_token(tmp_path):
    path = tmp_path / "tok.tsv"
    path.write_text("1\tbogus\n")
    with pytest.raises(CorruptHeader):
        load_disparity(path)


@pytest.mark.parametrize("token, expected", [
    ("+5", 5), (" 5 ", 5), ("5_0", 50), ("0x10", None), ("", None),
    ("1.0", None), ("2147483647", 2147483647), ("2147483648", None),
    ("-2147483649", None), ("99999999999", None),
    ("99999999999999999999999", None)])
def test_disparity_tokens_follow_python_int(tmp_path, token, expected):
    # a cell holds what int() reads, if that is an int32; None: rejected
    try:
        value = int(token)
    except ValueError:
        value = None
    assert expected == (value if value is not None
                        and -2**31 <= value < 2**31 else None)
    path = tmp_path / "tok.tsv"
    path.write_text(f"NaN\t{token}\n-7\tNaN\n")
    if expected is None:
        with pytest.raises(CorruptHeader, match="bad token"):
            load_disparity(path)
    else:
        back = load_disparity(path)
        assert back.disparity.tolist() == [[0, expected], [-7, 0]]
        assert back.accepted.tolist() == [[False, True], [True, False]]


def test_disparity_empty(tmp_path):
    path = tmp_path / "none.tsv"
    path.write_text("")
    with pytest.raises(CorruptHeader):
        load_disparity(path)


def test_disparity_missing_file(tmp_path):
    with pytest.raises(UnreadableFile):
        load_disparity(tmp_path / "missing.tsv")


# ------------------------------------------------------------ write errors

@pytest.mark.parametrize("save", [
    lambda path: save_pgm(GrayImage(np.zeros((2, 3))), path),
    lambda path: save_pfm(GrayImage(np.zeros((2, 3))), path),
    lambda path: save_disparity(small_map(), path),
    lambda path: save_disparity_viz(small_map(), path),
], ids=["pgm", "pfm", "disparity", "viz"])
def test_save_into_missing_directory(tmp_path, save):
    path = tmp_path / "missing" / "out"
    with pytest.raises(WriteFailure) as excinfo:
        save(path)
    assert str(path) in str(excinfo.value)


# ----------------------------------------------------------------- viz

def test_viz_affine_range(tmp_path):
    state = np.zeros((1, 3), dtype=np.uint8)
    state[0, 2] = CellState.NOT_MEANINGFUL
    dmap = DisparityMap(state=state,
                        disparity=np.array([[-5, 5, 0]], dtype=np.int32),
                        nfa=np.zeros((1, 3)))
    path = tmp_path / "viz.pgm"
    save_disparity_viz(dmap, path)
    viz = load_gray(path)
    assert viz.pixels.tolist() == [[0.0, 254.0, 255.0]]


def test_viz_single_value_midgray(tmp_path):
    dmap = DisparityMap(state=np.zeros((2, 2), dtype=np.uint8),
                        disparity=np.full((2, 2), 4, dtype=np.int32),
                        nfa=np.zeros((2, 2)))
    path = tmp_path / "flat.pgm"
    save_disparity_viz(dmap, path)
    assert (load_gray(path).pixels == 127.0).all()


def test_viz_all_rejected(tmp_path):
    dmap = DisparityMap(state=np.ones((2, 2), dtype=np.uint8),
                        disparity=np.zeros((2, 2), dtype=np.int32),
                        nfa=np.full((2, 2), np.nan))
    path = tmp_path / "rej.pgm"
    save_disparity_viz(dmap, path)
    assert (load_gray(path).pixels == 255.0).all()


# ------------------------------------------------------------ validation

def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        GrayImage(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        GrayImage(np.array([[np.nan]]))


def test_disparity_map_validation():
    with pytest.raises(ValueError):
        DisparityMap(state=np.zeros((2, 2), dtype=np.uint8),
                     disparity=np.zeros((2, 3), dtype=np.int32),
                     nfa=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DisparityMap(state=np.full((2, 2), 9, dtype=np.uint8),
                     disparity=np.zeros((2, 2), dtype=np.int32),
                     nfa=np.zeros((2, 2)))
