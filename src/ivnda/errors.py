"""Exception hierarchy shared by every pipeline stage.

Two families matter for the command-line tools: data errors (malformed or
inconsistent inputs, exit code 2) and numeric/contract errors (violated
mathematical preconditions, exit code 3).  Plain usage mistakes are handled
by argparse and exit with code 1.
"""

from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class IvndaError(Exception):
    """Base class for all pipeline errors."""

    exit_code = EXIT_DATA


class DataError(IvndaError):
    """Malformed, missing, or mutually inconsistent input data."""

    exit_code = EXIT_DATA


class FormatError(DataError):
    """A file does not parse as the format its extension or magic promises."""


class UnsupportedFormatError(DataError):
    """A file parses, but uses an encoding variant we do not accept."""


class EmptyInputError(DataError):
    """An input that must be non-empty (audio, archives, trial lists) is empty."""


class AlignmentError(DataError):
    """Two per-frame or per-recording structures disagree in length or ids."""


class InsufficientDataError(DataError):
    """Not enough samples/frames/recordings to run the requested estimation."""


class NoSpeechError(DataError):
    """A recording contains no speech frames after activity detection."""


class RangeError(DataError):
    """A value falls outside its documented range (indices, probabilities)."""


class KeyMismatchError(DataError):
    """A trial appears in the score file but not in the key, or vice versa."""


class DegenerateClassError(DataError):
    """A labelled class is too small for the requested statistic (e.g. a
    singleton class in a scatter estimate, or fewer members than neighbours)."""


class NumericError(IvndaError):
    """Violated numerical contract: bad shapes, non-PSD matrices, NaNs."""

    exit_code = EXIT_NUMERIC


class ShapeError(NumericError):
    """Array dimensions do not match the documented contract."""


class ContractError(NumericError):
    """A documented precondition that is not a shape or matrix property
    (e.g. an input records another upstream fingerprint than expected)."""


class MatrixError(NumericError):
    """A matrix argument is not symmetric/PSD/invertible as required."""


class RankError(NumericError):
    """A requested rank or dimensionality is unattainable for the input."""


class DegenerateDataError(NumericError):
    """Training data carries no usable signal (e.g. all-zero statistics)."""


class DegenerateVectorError(NumericError):
    """A vector that must be non-zero (e.g. before length normalisation)
    has zero norm."""


class NormalizationError(NumericError):
    """A normalisation step is undefined for the input (zero norms,
    non-invertible whitening)."""


class UnidentifiableError(NumericError):
    """A model parameter cannot be identified from the provided data."""


def read_text(path) -> str:
    """The text of input file `path`.

    Bytes that do not decode are a :class:`FormatError` naming the file: a
    bare ``UnicodeDecodeError`` is a ``ValueError``, which the command line
    reports as a usage error.  Every module imports this one, so text
    readers share the helper without an import cycle.
    """
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: cannot decode text ({exc})") from exc
