import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigasket import kernels
from trigasket.gasket import bfs_distances_from, build
from trigasket.word import LETTERS, DomainError, canonicalize, partner


def kernel_distance(x, y):
    return kernels.pair_distance(kernels.encode(x), kernels.encode(y))


def corners_by_lift(x):
    """Distances from x to l^n, r^n, u^n, folding the lift law letter by
    letter: the level-1 triangle, then appending t at level h keeps the
    distance to the t corner and adds 2^(h-1) to the other two."""
    d = {c: int(c != x[0]) for c in LETTERS}
    for h, t in enumerate(x[1:], start=1):
        d = {c: d[c] + (0 if c == t else 1 << (h - 1)) for c in LETTERS}
    return d["l"], d["r"], d["u"]


def distance_by_definition(x, y):
    """Strip the common coarse suffix, then cross the corner shared by the
    two top copies or transit the third copy along its side."""
    m = len(x)
    while m and x[m - 1] == y[m - 1]:
        m -= 1
    if m < 2:
        return m
    s, t = x[m - 1], y[m - 1]
    (z,) = set(LETTERS) - {s, t}
    a = dict(zip(LETTERS, corners_by_lift(x[:m - 1])))
    b = dict(zip(LETTERS, corners_by_lift(y[:m - 1])))
    return min(a[t] + b[s], a[z] + (1 << (m - 2)) + b[z])


def test_encode_validates():
    assert kernels.encode("lru") == (0b001, 0b010, 3)
    assert kernels.encode("uul") == (0b100, 0, 3)
    with pytest.raises(DomainError, match="zero-level"):
        kernels.encode("")
    with pytest.raises(DomainError, match="'x'"):
        kernels.encode("lxr")
    with pytest.raises(DomainError, match="non-ascii"):
        kernels.encode("lé")


def test_kernel_matches_bfs_on_every_spelling():
    # all raw spellings (both spellings of glued vertices) through level 4
    for n in range(1, 5):
        g = build("(l)", n)
        maps = {v: bfs_distances_from(g, v) for v in g.vertices}
        words = ["".join(p) for p in itertools.product(LETTERS, repeat=n)]
        for x in words:
            dmap = maps[canonicalize(x)]
            assert kernels.corner_triple(kernels.encode(x)) == tuple(
                dmap[c * n] for c in LETTERS)
            for y in words:
                assert kernel_distance(x, y) == dmap[canonicalize(y)]


@st.composite
def address_pairs(draw):
    """Random same-level spellings sharing a coarse suffix of random length;
    y is sometimes swapped for its other spelling."""
    n = draw(st.integers(1, 1000))
    rng = draw(st.randoms(use_true_random=False))
    x = "".join(rng.choices(LETTERS, k=n))
    keep = draw(st.integers(0, n))
    y = "".join(rng.choices(LETTERS, k=n - keep)) + x[n - keep:]
    if draw(st.booleans()):
        y = partner(y) or y
    return x, y


@settings(max_examples=300, deadline=None)
@given(address_pairs())
def test_kernel_matches_the_recursive_definition(pair):
    x, y = pair
    assert kernel_distance(x, y) == distance_by_definition(x, y)
    assert kernels.corner_triple(kernels.encode(x)) == corners_by_lift(x)


def test_levels_past_the_compiled_cap_stay_exact():
    # far beyond any fixed-width integer
    n = 100
    x = kernels.encode("l" * n)
    y = kernels.encode("u" * n)
    assert kernels.pair_distance(x, y) == 1 << (n - 1)
    triple = kernels.corner_triple(x)
    assert triple == (0, 1 << (n - 1), 1 << (n - 1))


def test_pair_distance_rejects_level_mismatch():
    with pytest.raises(DomainError, match="levels differ"):
        kernels.pair_distance(kernels.encode("l"), kernels.encode("lr"))
