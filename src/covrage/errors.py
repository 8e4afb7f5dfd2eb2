"""Exception types shared across the package, and the file reader that raises one."""

from pathlib import Path


class CovrageError(Exception):
    """Base class for package-specific errors."""


class ConfigError(CovrageError):
    """A scenario or array configuration is malformed or inconsistent."""


class InvalidUvError(CovrageError, ValueError):
    """A sine-space coordinate pair is not a point of the unit disc."""


class HemisphereError(CovrageError, ValueError):
    """A direction or trajectory sample left the front hemisphere."""


class SampleSpacingError(ConfigError, ValueError):
    """Path samples a coverage half-width or more apart: a fixed n_samples too small for its path."""


def read_utf8(path) -> str:
    """The text of the file at ``path``; a path with a NUL or a file that is not UTF-8 is a ConfigError."""
    try:
        data = Path(path).read_bytes()
    except ValueError as exc:  # a NUL in the path
        raise ConfigError(f"{str(path)!r}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 (byte 0x{data[exc.start]:02x} at position {exc.start})") from None
