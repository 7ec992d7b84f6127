"""The distance kernel: whole addresses as integer bitmasks.

Appending a letter to a level-n address keeps its distance to the matching
corner and adds 2^(n-1) to the other two, so position 1 weighs 1 and
position i >= 2 weighs 2^(i-2) in every corner distance.  With position i
as bit i-1 of a mask, the total weight of the positions in the mask is
``(mask >> 1) + (mask & 1)``.  An address is therefore held as two masks,
its l-positions and its r-positions (the u-positions are the rest), and
each closed form is a handful of integer operations on whole addresses.
Python integers are unbounded, so every result is exact at any level.
"""

from __future__ import annotations

from .word import LETTERS, DomainError, parse_address


def _digit_table(letter: str) -> bytes:
    """Byte translation: `letter` to "1", the other two letters to "0",
    every other byte to "2", a digit that base-2 `int` refuses."""
    table = bytearray(b"2" * 256)
    for c in LETTERS:
        table[ord(c)] = ord("1") if c == letter else ord("0")
    return bytes(table)


_L_DIGITS = _digit_table("l")
_R_DIGITS = _digit_table("r")


def encode(word: str) -> tuple[int, int, int]:
    """The l-mask, r-mask and level of an address, validating it.

    The reversed UTF-8 bytes (non-ASCII letters become bytes above 0x7f)
    translate to strings of "0", "1" and "2" only, so `int(..., 2)` fails
    exactly when the address is empty or has a letter outside l/r/u: no
    sign, space, underscore or Unicode digit can reach it.
    """
    try:
        raw = word.encode()[::-1]
        return int(raw.translate(_L_DIGITS), 2), int(raw.translate(_R_DIGITS), 2), len(raw)
    except ValueError:
        pass
    if word.isascii():
        parse_address(word)  # raises, naming the empty address or the bad letter
    raise DomainError(f"invalid address {word!r}: non-ascii letter")


def corner_triple(codes: tuple[int, int, int]) -> tuple[int, int, int]:
    """Distances to the corners l^n, r^n, u^n: the weight of the positions
    holding another letter.  All n positions together weigh 2^(n-1)."""
    lmask, rmask, n = codes
    total = 1 << (n - 1)
    wl = (lmask >> 1) + (lmask & 1)
    wr = (rmask >> 1) + (rmask & 1)
    return total - wl, total - wr, wl + wr


def pair_distance(x: tuple[int, int, int], y: tuple[int, int, int]) -> int:
    """Shortest-path length between two encoded addresses of one level.

    A geodesic between vertices of one top-level copy never leaves it, so
    the common coarse suffix strips away: m is the highest position where
    the addresses differ, x holding letter s there and y letter t.  The
    path then either crosses the one corner shared by copies s and t, or
    transits the third copy z between its two shared corners, which sit
    2^(m-2) apart.  Below m, all positions together also weigh 2^(m-2).
    """
    xl, xr, n = x
    yl, yr, k = y
    if n != k:
        raise DomainError(f"levels differ: level {n} and level {k}")
    m = ((xl ^ yl) | (xr ^ yr)).bit_length()
    if m < 2:
        return m
    via = 1 << (m - 2)
    below = via - 1  # positions 2 .. m-1, once shifted down by one
    al = (xl >> 1 & below) + (xl & 1)
    ar = (xr >> 1 & below) + (xr & 1)
    bl = (yl >> 1 & below) + (yl & 1)
    br = (yr >> 1 & below) + (yr & 1)
    # weight of each letter's positions below m, indexed u=0, r=1, l=2
    a = (via - al - ar, ar, al)
    b = (via - bl - br, br, bl)
    top = m - 1  # the bit of position m
    s = (xl >> top & 1) * 2 + (xr >> top & 1)
    t = (yl >> top & 1) * 2 + (yr >> top & 1)
    z = 3 - s - t
    cross = 2 * via - a[t] - b[s]
    third = 3 * via - a[z] - b[z]
    return cross if cross < third else third
