"""Exception types shared across the package, and the file reader that raises one."""

from pathlib import Path


class CovrageError(Exception):
    """Base class for package-specific errors."""


class ConfigError(CovrageError):
    """A scenario or array configuration is malformed or inconsistent."""


class InvalidUvError(CovrageError, ValueError):
    """A sine-space coordinate pair lies outside the unit disc."""


class HemisphereError(CovrageError, ValueError):
    """A direction or trajectory sample left the front hemisphere."""


def read_utf8(path) -> str:
    """The text of the file at ``path``; a file that is not UTF-8 is a ConfigError naming it."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 (byte 0x{data[exc.start]:02x} at position {exc.start})") from None
