"""Image and disparity-map file formats.

Gray images are read from PGM (P2 ASCII or P5 binary, maxval up to 65535,
'#' comments allowed in the header) and from grayscale PFM ("Pf" magic,
32-bit floats, scale sign gives endianness, rows stored bottom to top).
Sample values are kept as-is; 16-bit and float data are not re-quantized.

Disparity maps are written as text (one line per pixel row, tab-separated,
rejected cells as the token "NaN") and optionally as a visualization PGM
where accepted disparities map affinely onto [0, 254] and rejected pixels
are the sentinel 255.

Every file in the package is read by read_file and written by write_file,
so an OS error always surfaces as UnreadableFile or WriteFailure naming the
path.  Parsing raises UnsupportedFormat for an empty file or unknown magic,
CorruptHeader for an unparsable header, sample or text token, and
TruncatedData when the data stop short of what the header promises.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import (CorruptHeader, TruncatedData, UnreadableFile,
                     UnsupportedFormat, WriteFailure)

# one token after any whitespace and '#' comments; a '#' also ends a token.
# Bytes-pattern \s is the six ASCII whitespace bytes Netpbm allows.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")
_INT32 = np.iinfo(np.int32)


@dataclass(eq=False)
class GrayImage:
    """Single-channel image, float64 samples in row-major (row, column) order."""

    pixels: np.ndarray
    maxval: float = 255.0

    def __post_init__(self):
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2 or self.pixels.size == 0:
            raise ValueError("pixels must be a non-empty 2-D array")
        if not np.isfinite(self.pixels).all():
            raise ValueError("image samples must be finite")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


class CellState(IntEnum):
    """Per-pixel outcome of the matcher."""

    ACCEPTED = 0
    NOT_MEANINGFUL = 1   # no candidate reached the NFA threshold
    SELF_SIMILAR = 2     # meaningful candidate vetoed by the self-similarity test
    BORDER = 3           # block window does not fit inside the reference image


@dataclass(eq=False)
class DisparityMap:
    """Dense per-pixel match outcome for a reference image.

    disparity and nfa are only meaningful where state == ACCEPTED; elsewhere
    they hold 0 and NaN.  Maps reloaded from the text format carry NaN nfa
    for accepted cells too (the format does not store it) and mark every
    rejected cell NOT_MEANINGFUL (the reason is not stored either).
    """

    state: np.ndarray      # uint8 of CellState
    disparity: np.ndarray  # int32
    nfa: np.ndarray        # float64

    def __post_init__(self):
        self.state = np.ascontiguousarray(self.state, dtype=np.uint8)
        self.disparity = np.ascontiguousarray(self.disparity, dtype=np.int32)
        self.nfa = np.ascontiguousarray(self.nfa, dtype=np.float64)
        if not (self.state.shape == self.disparity.shape == self.nfa.shape):
            raise ValueError("state, disparity and nfa must share one shape")
        if self.state.ndim != 2:
            raise ValueError("disparity map must be 2-D")
        if self.state.max(initial=0) > CellState.BORDER:
            raise ValueError("unknown cell state")

    @property
    def height(self) -> int:
        return self.state.shape[0]

    @property
    def width(self) -> int:
        return self.state.shape[1]

    @property
    def accepted(self) -> np.ndarray:
        return self.state == CellState.ACCEPTED


def read_file(path) -> bytes:
    """The whole file; any OS error becomes UnreadableFile."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from None


def write_file(path, *chunks: bytes) -> None:
    """Write the chunks in order; any OS error becomes WriteFailure."""
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise WriteFailure(f"{path}: {exc}") from None


def _int(tok: bytes, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise CorruptHeader(f"bad {what}: {tok!r}") from None


def _next_token(buf: bytes, pos: int, what: str | None = None):
    """The next header token, as an int when what names it, and the
    position after it."""
    m = _TOKEN.match(buf, pos)
    if not m[1]:
        raise CorruptHeader("unexpected end of header")
    return (m[1] if what is None else _int(m[1], what)), m.end()


def _raster(buf: bytes, pos: int, dtype: np.dtype, width: int, height: int,
            path) -> np.ndarray:
    """The width*height binary samples after the header's last whitespace."""
    if not buf[pos:pos + 1].isspace():
        raise CorruptHeader(f"{path}: missing raster separator")
    count = width * height
    if len(buf) - pos - 1 < count * dtype.itemsize:
        raise TruncatedData(f"{path}: raster shorter than {width}x{height}")
    return np.frombuffer(buf, dtype=dtype, count=count,
                         offset=pos + 1).astype(np.float64)


def load_gray(path) -> GrayImage:
    """Load a PGM (P2/P5) or grayscale PFM file."""
    buf = read_file(path)
    try:
        magic, pos = _next_token(buf, 0)
    except CorruptHeader:
        raise UnsupportedFormat(f"{path}: empty file") from None
    if magic in (b"P2", b"P5"):
        return _load_pgm(buf, pos, magic, path)
    if magic == b"Pf":
        return _load_pfm(buf, pos, path)
    if magic == b"PF":
        raise UnsupportedFormat(f"{path}: color PFM not supported")
    raise UnsupportedFormat(f"{path}: unknown magic {magic!r}")


def _load_pgm(buf: bytes, pos: int, magic: bytes, path) -> GrayImage:
    width, pos = _next_token(buf, pos, "width")
    height, pos = _next_token(buf, pos, "height")
    maxval, pos = _next_token(buf, pos, "maxval")
    if width < 1 or height < 1:
        raise CorruptHeader(f"{path}: bad dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise CorruptHeader(f"{path}: maxval {maxval} out of range")
    if magic == b"P5":
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        data = _raster(buf, pos, dtype, width, height, path)
    else:
        count = width * height
        # only the end of the data gives an empty token
        tokens = [m[1] for m in itertools.islice(_TOKEN.finditer(buf, pos),
                                                 count) if m[1]]
        data = np.array([_int(t, "sample") for t in tokens], dtype=np.float64)
        if data.size < count:
            raise TruncatedData(f"{path}: {data.size} samples, expected {count}")
    if data.min() < 0 or data.max() > maxval:
        raise CorruptHeader(f"{path}: sample outside [0, {maxval}]")
    return GrayImage(data.reshape(height, width), maxval=float(maxval))


def _load_pfm(buf: bytes, pos: int, path) -> GrayImage:
    width, pos = _next_token(buf, pos, "width")
    height, pos = _next_token(buf, pos, "height")
    tok, pos = _next_token(buf, pos)
    try:
        scale = float(tok)
    except ValueError:
        raise CorruptHeader(f"{path}: bad scale {tok!r}") from None
    if width < 1 or height < 1 or scale == 0.0:
        raise CorruptHeader(f"{path}: bad PFM header")
    dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
    data = _raster(buf, pos, dtype, width, height, path)
    if not np.isfinite(data).all():
        raise UnsupportedFormat(f"{path}: non-finite samples")
    pixels = np.flipud(data.reshape(height, width))  # PFM rows run bottom-up
    return GrayImage(pixels, maxval=max(1.0, float(pixels.max())))


def save_pgm(image: GrayImage, path, maxval: int | None = None) -> None:
    """Write a binary (P5) PGM; samples rounded to the nearest integer."""
    if maxval is None:
        maxval = int(round(image.maxval))
    if not 1 <= maxval <= 65535:
        raise ValueError(f"maxval {maxval} out of range")
    data = np.clip(np.rint(image.pixels), 0, maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    header = f"P5\n{image.width} {image.height}\n{maxval}\n".encode("ascii")
    write_file(path, header, data.astype(dtype).tobytes())


def save_pfm(image: GrayImage, path) -> None:
    """Write a little-endian grayscale PFM (scale -1)."""
    header = f"Pf\n{image.width} {image.height}\n-1.0\n".encode("ascii")
    write_file(path, header, np.flipud(image.pixels).astype("<f4").tobytes())


def save_disparity(dmap: DisparityMap, data_path) -> None:
    """Write the tab-separated text form; rejected cells become "NaN"."""
    lines = []
    for acc, disp in zip(dmap.accepted.tolist(), dmap.disparity.tolist()):
        lines.append("\t".join([str(d) if a else "NaN"
                                for a, d in zip(acc, disp)]) + "\n")
    write_file(data_path, "".join(lines).encode("ascii"))


def _is_int32(token: str) -> bool:
    try:
        return _INT32.min <= int(token) <= _INT32.max
    except ValueError:
        return False


def load_disparity(path) -> DisparityMap:
    """Read the text form back; rejection reasons and nfa are not recoverable.
    CRLF, CR and LF each end a row; the file must be ASCII.  A cell is "NaN"
    or an int32 in any form Python's int() reads."""
    text = read_file(path).decode("ascii")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise CorruptHeader(f"{path}: empty disparity file")
    rows = [ln.split("\t") for ln in lines]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise CorruptHeader(f"{path}: ragged rows")
    cells = np.array(rows, dtype=object)
    accepted = cells != "NaN"
    tokens = cells[accepted]
    try:
        values = tokens.astype(np.int64)   # numpy reads each token with int()
        in_range = ((values >= _INT32.min) & (values <= _INT32.max)).all()
    except (ValueError, OverflowError):
        in_range = False
    if not in_range:
        bad = next(tok for tok in tokens if not _is_int32(tok))
        raise CorruptHeader(f"{path}: bad token {bad!r}")
    state = np.where(accepted, CellState.ACCEPTED,
                     CellState.NOT_MEANINGFUL).astype(np.uint8)
    disp = np.zeros(cells.shape, dtype=np.int32)
    disp[accepted] = values
    nfa = np.full(cells.shape, np.nan)
    return DisparityMap(state=state, disparity=disp, nfa=nfa)


def save_disparity_viz(dmap: DisparityMap, path) -> None:
    """Write the visualization PGM (accepted -> [0, 254], rejected -> 255)."""
    acc = dmap.accepted
    viz = np.full(dmap.state.shape, 255, dtype=np.float64)
    if acc.any():
        d = dmap.disparity[acc].astype(np.float64)
        lo, hi = d.min(), d.max()
        if hi > lo:
            viz[acc] = np.rint((d - lo) * (254.0 / (hi - lo)))
        else:
            viz[acc] = 127.0
    save_pgm(GrayImage(viz, maxval=255.0), path, maxval=255)
