"""Exact distances on the level-n triangle graphs, no graph required.

Everything rides on two structural facts: appending a letter preserves the
distance to the matching corner and adds 2^(n-1) to the other two, and a
shortest path between different top-level copies crosses either their one
shared corner or the third copy between its two shared corners.  Both are
validated exhaustively against the breadth-first oracle in `gasket`.

All results are exact integers, computed on whole-address bitmasks by
`kernels`.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernels
from .word import (
    LETTERS,
    DomainError,
    WordSpec,
    as_word,
    canonicalize,
    identification_class,
    pad,
    parse_address,
)


class CornerTriple(NamedTuple):
    """Distances from a vertex to the three extremal corners of its level."""

    du: int
    dl: int
    dr: int

    def component(self, letter: str) -> int:
        if letter == "u":
            return self.du
        if letter == "l":
            return self.dl
        if letter == "r":
            return self.dr
        raise DomainError(f"unknown letter {letter!r}")

    def as_multiset(self) -> tuple[int, int, int]:
        return tuple(sorted(self))


def corner_distances(x: str) -> CornerTriple:
    """Closed-form corner distances; identical for both spellings of x."""
    dl, dr, du = kernels.corner_triple(kernels.encode(x))
    return CornerTriple(du, dl, dr)


def distance(x: str, y: str) -> int:
    """Shortest-path length between two same-level addresses."""
    return kernels.pair_distance(kernels.encode(x), kernels.encode(y))


def multiset_triple_equal(x: str, y: str) -> bool:
    """Whether the corner-distance multisets of x and y coincide."""
    if len(x) != len(y):
        raise DomainError(
            f"levels differ: {x!r} is level {len(x)}, {y!r} is level {len(y)}")
    return corner_distances(x).as_multiset() == corner_distances(y).as_multiset()


def neighbors(x: str) -> tuple[str, ...]:
    """Adjacent same-level vertices (2 for corners, 4 otherwise), sorted.

    Every edge joins two addresses differing in their first letter, so the
    neighbors are the first-letter flips of both spellings.
    """
    out = set()
    for form in identification_class(x):
        rest = form[1:]
        for t in LETTERS:
            if t != form[0]:
                out.add(canonicalize(t + rest))
    return tuple(sorted(out))


def ball(center: str, radius: int, w: WordSpec | str = "(l)",
         level: int | None = None, graph=None) -> set[str]:
    """Level-`level` vertices within `radius` of the padded center.

    Frontier expansion over the implicit adjacency; pass a FiniteGasket as
    `graph` to use its explicit adjacency instead.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    w = as_word(w)
    if level is None:
        level = len(parse_address(center))
    if graph is not None and graph.level != level:
        raise DomainError(
            f"graph level {graph.level} does not match requested level {level}")
    start = pad(center, w, level)
    adjacency = neighbors if graph is None else (lambda v: graph.adjacency[v])
    seen = {start}
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for other in adjacency(v):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        if not nxt:
            break
        frontier = nxt
    return seen


def ray_vertices(t: str, h: int) -> list[str]:
    """The geodesic from l^h to t^h along the outer side, t in {u, r}.

    Doubling step: the level-h ray is the level-(h-1) ray inside the l
    copy followed by its continuation inside the t copy, with the shared
    corner listed once.  Consecutive entries are adjacent.
    """
    if t not in ("u", "r"):
        raise DomainError(f"ray endpoint letter must be u or r, got {t!r}")
    if h < 1:
        raise DomainError("level must be >= 1")
    ray = ["l", t]
    for _ in range(h - 1):
        ray = [canonicalize(v + "l") for v in ray] + \
              [canonicalize(v + t) for v in ray[1:]]
    return ray


def project_to_ray(y: str, t: str) -> tuple[str, int]:
    """Project y onto the geodesic from l^h to t^h; returns (image, d(l^h, image)).

    The image is the structural retraction onto the ray: collapsing the
    off-side letter onto the basepoint letter fixes every ray vertex and
    keeps d(l^h, image) equal to the corner limit value busemann(t, y) at
    every vertex.  Plain nearest-vertex projection cannot do that: deep
    interior vertices sit at one distance from the whole ray, so no tie
    rule on minimizers recovers the limit value.
    """
    if t not in ("u", "r"):
        raise DomainError(f"ray endpoint letter must be u or r, got {t!r}")
    y = parse_address(y)
    h = len(y)
    z = "r" if t == "u" else "u"
    image = canonicalize(y.replace(z, "l"))
    return image, distance("l" * h, image)
