"""Flat, line-oriented `key = value` config files with dotted section keys.

No nesting, no quoting; `#` starts a comment.  Parsing preserves key order.
Each command declares its keys once, as a table key -> (kind, default), and
reads its config only through `read_config`.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from ..errors import ConfigError, FormatError


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise FormatError(f"line {lineno}: empty key")
        if key in out:
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def read_text_file(path: str, what: str) -> str:
    """The UTF-8 text of the file at path, a leading byte order mark
    skipped, or a one-line ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{what} is not UTF-8 text: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} cannot be read: {path} ({exc.strerror})") from None


#: The kinds of config value: (convert, the errors a bad value raises, what a
#: value must be, what a list must hold one of).  A list is its
#: comma-separated items, blank ones skipped, each converted.
STR = (str, (), "", None)
INT = (int, ValueError, "an integer", None)
NUMBER = (lambda s: float(Fraction(s)), (ValueError, ZeroDivisionError, OverflowError), "a number", None)
FRACTION = (Fraction, (ValueError, ZeroDivisionError), "a fraction", None)
INTS = (lambda s: [int(t) for t in s.split(",") if t.strip()], ValueError, "comma-separated integers", "integer")
NAMES = (lambda s: [t.strip() for t in s.split(",") if t.strip()], (), "comma-separated names", "name")


def read_config(cfg: dict[str, str], keys: dict[str, tuple], command: str) -> dict:
    """Every key of the command's table, key -> (kind, default): its value in
    cfg converted by its kind, else its default.  A one-line ConfigError for
    a key outside the table, a value that fails to convert or an empty list."""
    values = {key: default for key, (_, default) in keys.items()}
    for key, text in cfg.items():
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r} for {command}")
        convert, errors, expected, item = keys[key][0]
        try:
            values[key] = convert(text)
        except errors:
            raise ConfigError(f"config key {key!r} must be {expected}, got {text!r}") from None
        if values[key] == []:
            raise ConfigError(f"config key {key!r} must list at least one {item}")
    return values
