"""Typed errors raised across the package.

The CLI maps these onto exit codes: file/format problems exit 2,
model and numeric problems exit 3.
"""


class AcbmError(Exception):
    """Base class for all package errors."""


# --- file and format errors (CLI exit 2) ---

class UnreadableFile(AcbmError):
    """File missing or not readable."""


class UnsupportedFormat(AcbmError):
    """Magic number or content kind not handled."""


class CorruptHeader(AcbmError):
    """Header or structured text present but unparsable."""


class TruncatedData(AcbmError):
    """Fewer samples than the header promises."""


class WriteFailure(AcbmError):
    """Output file could not be written."""


IO_ERRORS = (UnreadableFile, UnsupportedFormat, CorruptHeader, TruncatedData,
             WriteFailure)


# --- model and pipeline errors (CLI exit 3) ---

class BlockOutOfBounds(AcbmError):
    """Requested block window leaves the image."""


class ImageTooSmall(AcbmError):
    """Image does not admit enough complete blocks."""


class EigenNoConvergence(AcbmError):
    """Jacobi sweeps exhausted before the off-diagonal mass vanished."""


class DimensionMismatch(AcbmError):
    """Vector or basis sizes disagree."""


class HeightMismatch(AcbmError):
    """Stereo pair images differ in height."""


class BorderPixel(AcbmError):
    """Pixel too close to the border to carry a complete block."""


class Overflow(AcbmError, OverflowError):
    """A result exceeds the range of its 64-bit type."""
