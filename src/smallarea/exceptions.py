"""Exception types shared across the package, the value checks every
config and public entry point runs its numbers through, and
:func:`_read_input`, the one reader of every input file (config, area CSV,
edge list, benchmark matrix and targets, report files).

The CLI maps ValidationError to exit code 2 and NumericalError to exit
code 3; everything else is a bug and propagates.
"""

import codecs
import io
import math
import numbers
from pathlib import Path
from typing import Iterator

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition or schema."""


class NumericalError(RuntimeError):
    """Raised when a computation fails numerically (singular or degenerate
    systems, excessive bootstrap failures)."""


def _integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int, at least ``minimum`` when given.  A bool or any
    non-integer (2.0 included) is a ValidationError naming ``name``."""
    if type(value) is not int:  # a plain int (never a bool) skips the ABC checks
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        kind = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    return value


def _real(name: str, value, minimum: float | None = None) -> float:
    """``value`` as a finite float, at least ``minimum`` when given.  A bool,
    a string or any other non-number is a ValidationError naming ``name``."""
    if isinstance(value, float):  # a float or np.float64 skips the numbers.Real check
        x = float(value)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    else:
        x = float(value)
    if not math.isfinite(x) or (minimum is not None and x < minimum):
        kind = {None: "a finite real", 0: "a finite nonnegative real"}.get(minimum, f"a finite real >= {minimum}")
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    return x


def _reals(name: str, value, ndim: int) -> np.ndarray:
    """``value`` as an ``ndim``-dimensional float64 array, not yet checked
    for finiteness.  Bools, strings and other non-numbers are a
    ValidationError naming ``name``."""
    kind, dims = ("vector", "one") if ndim == 1 else ("matrix", "two")
    try:
        v = np.asarray(value)
    except ValueError:  # ragged nesting
        raise ValidationError(f"{name} must be a {kind} of real numbers") from None
    if v.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be a {kind} of real numbers, got dtype {v.dtype}")
    v = v.astype(float, copy=False)
    if v.ndim != ndim:
        raise ValidationError(f"{name} must be {dims}-dimensional, got shape {v.shape}")
    return v


def _vector(name: str, value, size: int | None = None, checked: bytes | None = None) -> np.ndarray:
    """``value`` as a finite 1-d float64 array, of length ``size`` when
    given.  Bools, strings and other non-numbers are a ValidationError
    naming ``name``.  A value whose float64 bytes equal ``checked``, the
    bytes of a vector that passed this check, is not scanned again."""
    v = _reals(name, value, 1)
    if size is not None and v.shape[0] != size:
        raise ValidationError(f"{name} has length {v.shape[0]}, expected {size}")
    if (checked is None or v.tobytes() != checked) and not np.isfinite(v).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return v


def _matrix(name: str, value, shape: tuple[int, int] | None = None) -> np.ndarray:
    """``value`` as a finite 2-d float64 array, of ``shape`` when given.
    Bools, strings and other non-numbers are a ValidationError naming
    ``name``."""
    a = _reals(name, value, 2)
    if shape is not None and a.shape != shape:
        raise ValidationError(f"{name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def _read_input(path: str | Path, what: str) -> str:
    """The text of input file ``what`` (``"edge list"``, ...), line endings
    untouched, without a leading UTF-8 byte-order mark.  A file that is
    missing, cannot be read or is not UTF-8, or a path with a NUL byte, is
    a ValidationError naming ``what`` and ``path``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read().removeprefix(codecs.BOM_UTF8)
        return data.decode("utf-8")
    except FileNotFoundError:
        raise ValidationError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{line}: {what} is not valid UTF-8") from None
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except ValueError:  # open() refuses a NUL byte in the path
        raise ValidationError(f"cannot read {what} {str(path)!r}: the path holds a NUL byte") from None


def _input_lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    """(number, stripped text) of each line of :func:`_read_input`'s text
    that is neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(io.StringIO(_read_input(path, what), newline=None), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line
