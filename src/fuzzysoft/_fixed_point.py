"""Fixed-decimal texts of whole arrays by integer arithmetic, for ``softset.FixedPoint.texts``.

``softset`` imports this module on first use, so ``import fuzzysoft`` does
not compile it.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .softset import _padded

# Digit pairs "00".."99" as ASCII bytes; rows 100..199 blank the tens digit
# and rows 200..299 both, for the leading zeros of an integer part. A pair is
# written as one uint16, as its two bytes lie in memory.
_PAIRS = np.array(
    [[48 + k // 10, 48 + k % 10] for k in range(100)]
    + [[0xFF, 48 + k % 10] for k in range(100)]
    + [[0xFF, 0xFF]] * 100,
    dtype=np.uint8,
)
_PAIR_CODES = _PAIRS.view(np.uint16).ravel()
# Fixed-point texts by integer arithmetic need an exact int64 10**decimals.
_MAX_FAST_DECIMALS = 17
# Scaled values from here on are formatted by Python: their spacing is a
# quarter or more, too coarse to tell a rounding's side.
_FAST_LIMIT = 2.0**50


def _put_pair(raw: np.ndarray, end: int, pair: np.ndarray) -> None:
    """Write the digit pairs ``_PAIRS[pair]`` into the two columns of ``raw`` before ``end``."""
    raw[:, end - 2 : end].view(np.uint16)[:, 0] = _PAIR_CODES[pair]


def fixed_point_texts(
    values: np.ndarray, decimals: int, fmt: Callable[[float], str], lead: bytes = b""
) -> np.ndarray:
    """``lead`` and ``fmt(value)`` of each value, ``fmt`` being
    ``'{:.<decimals>f}'.format``, in one fixed-width bytes array, padded
    with 0xFF (between any sign and the digits, and after the texts that are
    too long for the digits' place).

    Digits come from ``rint(|x| * 10**decimals)`` by integer arithmetic,
    the sign from ``np.signbit``. A value goes to Python's format instead
    where that product may round otherwise than Python's exact decimal
    conversion: where the scaled value s lies within s * 2**-52 of a half
    (the product is rounded once, by at most half its spacing, and the
    spacing is at most s * 2**-52), where s is 2**50 or more, and where it
    is not finite.
    """
    d = decimals
    x = np.asarray(values, dtype=float).ravel()
    if d > _MAX_FAST_DECIMALS:
        return _padded([lead + fmt(v).encode() for v in x.tolist()])
    with np.errstate(over="ignore"):
        scaled = np.abs(x) * 10.0**d
    fast = scaled < _FAST_LIMIT
    scaled = np.where(fast, scaled, 0.0)
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0**-52
    units = np.rint(scaled).astype(np.int64)
    whole = units // 10**d
    frac = units - whole * 10**d
    slow = np.flatnonzero(~fast)
    slow_texts = [lead + fmt(v).encode() for v in x[slow].tolist()]
    sign = np.signbit(x) & fast
    has_sign = bool(sign.any())
    int_width = len(str(whole.max())) if len(x) else 1
    width = max([len(lead) + has_sign + int_width + (d and d + 1), *map(len, slow_texts)])
    raw = np.full((len(x), width), 0xFF, dtype=np.uint8)
    raw[:, : len(lead)] = np.frombuffer(lead, dtype=np.uint8)
    if has_sign:
        raw[:, len(lead)] = np.where(sign, ord("-"), 0xFF)
    end = width
    for _ in range(d // 2):
        rest = frac // 100
        _put_pair(raw, end, frac - rest * 100)
        frac = rest
        end -= 2
    if d % 2:
        raw[:, end - 1] = ord("0") + frac
        end -= 1
    if d:
        raw[:, end - 1] = ord(".")
        end -= 1
    for place in range(0, int_width, 2):
        # leading zeros: the tens digit below 10, the whole pair at 0 (but a lone "0")
        blanks = (whole < 10).astype(np.int64)
        if place:
            blanks += whole == 0
        rest = whole // 100
        pair = whole - rest * 100 + 100 * blanks
        whole = rest
        if place + 1 < int_width:
            _put_pair(raw, end, pair)
        else:
            raw[:, end - 1] = _PAIRS[pair, 1]
        end -= 2
    cells = raw.view(f"S{width}").ravel()
    cells[slow] = [t.ljust(width, b"\xff") for t in slow_texts]
    return cells
