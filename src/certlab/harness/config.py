"""Flat, line-oriented `key = value` config files with dotted section keys.

No nesting, no quoting; `#` starts a comment.  Parsing preserves key order.
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


def _get(cfg: dict[str, str], key: str, default, convert, errors, expected: str):
    """cfg[key] converted, default when the key is absent; a ConfigError when
    it is absent with no default or fails to convert."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing config key {key!r}")
        return default
    try:
        return convert(cfg[key])
    except errors:
        raise ConfigError(f"config key {key!r} must be {expected}, got {cfg[key]!r}") from None


def get_str(cfg: dict[str, str], key: str, default: str | None = None) -> str:
    return _get(cfg, key, default, str, (), "")


def get_int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    return _get(cfg, key, default, int, ValueError, "an integer")


def get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    errors = (ValueError, ZeroDivisionError, OverflowError)
    return _get(cfg, key, default, lambda s: float(Fraction(s)), errors, "a number")


def get_fraction(cfg: dict[str, str], key: str, default: Fraction | None = None) -> Fraction:
    return _get(cfg, key, default, Fraction, (ValueError, ZeroDivisionError), "a fraction")


def _get_list(cfg: dict[str, str], key: str, default: list | None, convert, kind: str) -> list:
    """cfg[key]'s comma-separated tokens, blank ones skipped, each converted."""
    expected = f"comma-separated {kind}s"
    values = _get(cfg, key, default, lambda s: [convert(t) for t in s.split(",") if t.strip()], ValueError, expected)
    if not values:
        raise ConfigError(f"config key {key!r} must list at least one {kind}")
    return values


def get_int_list(cfg: dict[str, str], key: str, default: list[int] | None = None) -> list[int]:
    return _get_list(cfg, key, default, int, "integer")


def get_str_list(cfg: dict[str, str], key: str, default: list[str] | None = None) -> list[str]:
    return _get_list(cfg, key, default, str.strip, "name")
