"""Reference distances, written from the recursive definition of the graphs.

The level-1 graph is a triangle on l, r, u; the level-(h+1) graph is three
copies of level h, copy t holding the addresses that end in t.  Two facts
give every distance:

* Lift law.  Appending t to a level-h address keeps its distance to the
  corner t^(h+1) and adds 2^(h-1) to its distances to the other two
  corners: to reach s^(h+1) the path leaves copy t through the corner it
  shares with copy s, at distance d(x, s^h), then runs along one side of
  copy s, which is 2^(h-1) long.
* A geodesic between two vertices of one top-level copy stays in that copy,
  so a shared coarse suffix strips away.  Between different copies s and t
  it either crosses their one shared corner, or enters the third copy z and
  runs along its side between the corners it shares with s and with t.

This module stands apart from ``trigasket.kernels`` on purpose: it is what
the benchmark checks the program's answers against.
"""

from __future__ import annotations

LETTERS = "lru"

# per corner letter c: "0" where a letter is c, "1" elsewhere
_OFF_CORNER = {
    c: bytes.maketrans(LETTERS.encode(),
                       "".join("0" if t == c else "1" for t in LETTERS).encode())
    for c in LETTERS}


def corner_triple(x: str) -> dict[str, int]:
    """Distances from address x to the corners l^n, r^n and u^n, by letter.

    Folding the lift law over x from the level-1 triangle up, position 1
    weighs 1 and position i >= 2 weighs 2^(i-2); the distance to c^n is the
    total weight of the positions whose letter is not c.  With those
    positions as the bits of an integer (position i is bit i-1), that total
    is the lowest bit plus the rest shifted down by one.
    """
    backwards = x.encode("ascii")[::-1]
    out = {}
    for c in LETTERS:
        bits = int(backwards.translate(_OFF_CORNER[c]), 2)
        out[c] = (bits & 1) + (bits >> 1)
    return out


def distance(x: str, y: str) -> int:
    """Shortest-path length between two addresses of one level."""
    if len(x) != len(y):
        raise ValueError(f"levels differ: {len(x)} and {len(y)}")
    m = len(x)
    while m and x[m - 1] == y[m - 1]:
        m -= 1
    if m == 0:
        return 0
    if m == 1:
        return 1
    s, t = x[m - 1], y[m - 1]
    z = LETTERS.replace(s, "").replace(t, "")
    a = corner_triple(x[:m - 1])
    b = corner_triple(y[:m - 1])
    crossing = a[t] + b[s]
    via_third = a[z] + (1 << (m - 2)) + b[z]
    return min(crossing, via_third)
