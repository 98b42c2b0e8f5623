"""Exact rationals read and written, and the way to the matrix code.

parse_rational, the one reader, reads strings such as "-3/4" or
"1.5e-3" exactly.  format_rational, the one writer, gives a rational
exactly, as an int or "p/q", or as a fixed-point decimal string, and
refuses one too long to print.  Every command needs these two.

The Matrix class lives in gamedecomp.matrix and the elimination, the
products and the generalized inverses in gamedecomp.dense, which holds
Matrix too.  Every object that dense or matrix defines is served here,
through the module __getattr__ below, and from projectors, whose
__getattr__ calls the same hook.  dense, and matrix with it, is loaded
on first use, so a command that builds no matrix compiles neither.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from fractions import Fraction

Scalar = int | Fraction

# CPython reads and prints integers of up to 4300 digits
MAX_DECIMAL_EXPONENT = 4300
# the most bits an integer below 10**MAX_DECIMAL_EXPONENT is sure to fit in
# (2**14284 < 10**4300), so every number of at most this many bits prints
MAX_PRINTED_BITS = (10**MAX_DECIMAL_EXPONENT).bit_length() - 1
_EXPONENT = re.compile(r"[eE]([-+]?[0-9]+)$")


class ResultTooLongError(ValueError):
    """A number has more than MAX_PRINTED_BITS bits, too long to print exactly."""


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q", integer or decimal string such as "1.5e-3" exactly.

    A Unicode minus sign is treated as ASCII "-"; any other non-ASCII
    character, such as a digit of another script, and "_" are refused,
    so the grammar is the same on every Python version.  Decimal
    exponents beyond MAX_DECIMAL_EXPONENT in magnitude are refused,
    matching the 4300-digit limit CPython puts on integer strings.
    """
    cleaned = text.replace("−", "-").strip()
    if not cleaned.isascii() or "_" in cleaned:
        raise ValueError(
            f"cannot parse rational string {_cut(text, repr)}: use ASCII digits, no underscores"
        )
    exponent = _EXPONENT.search(cleaned)
    try:
        if exponent is None or abs(int(exponent.group(1))) <= MAX_DECIMAL_EXPONENT:
            return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational string {_cut(text, repr)}: {exc}") from None
    raise ValueError(f"decimal exponent of {_cut(text, repr)} exceeds {MAX_DECIMAL_EXPONENT}")


def _check_bits(x: Scalar) -> Scalar:
    """Return x, or raise ResultTooLongError if its numerator or denominator is too long."""
    if max(x.numerator.bit_length(), x.denominator.bit_length()) > MAX_PRINTED_BITS:
        raise ResultTooLongError(
            f"a number of more than {MAX_PRINTED_BITS} bits is too long to print"
        )
    return x


def format_rational(x: Scalar, digits: int | None = None) -> int | str:
    """Write x exactly, as an int or a "p/q" string; or, given digits, as a
    fixed-point string rounded half to even to that many decimal places.

    parse_rational reads either form back, the fixed-point one as its
    rounded value.  Raises ResultTooLongError for a number to print of
    more than MAX_PRINTED_BITS bits.
    """
    if digits is None:
        _check_bits(x)
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    scaled = _check_bits(round(x * Fraction(10**digits)))
    text = ("-" if scaled < 0 else "") + str(abs(scaled)).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}" if digits else text


def _cut(text: str, show: Callable[[str], str] = str) -> str:
    """The text for an error message, cut to its first 40 characters; show=repr quotes it."""
    return show(text) if len(text) <= 40 else f"{show(text[:40])}..."


def _dense_name(module: str, name: str) -> object:
    """gamedecomp.dense's object called name, for the __getattr__ of module.

    Only objects that dense or matrix define are served, not the names
    dense imports.  dense is loaded on first use.  Dunder names are
    refused before that: the import system probes attributes such as
    __path__, and loading dense then could run while a module that
    imports this one is half initialised.
    """
    if not name.startswith("__"):
        from gamedecomp import dense

        value = getattr(dense, name, None)
        if getattr(value, "__module__", None) in ("gamedecomp.dense", "gamedecomp.matrix"):
            return value
    raise AttributeError(f"module {module!r} has no attribute {name!r}")


def __getattr__(name: str) -> object:
    return _dense_name(__name__, name)
