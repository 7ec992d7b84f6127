"""Isomorphism of the infinite graphs named by eventually periodic words.

Two graphs coincide exactly when some relabelling of the three letters
makes the words agree from some index on, so the decision reduces to six
permutations checked over one aligned period.  The degree-2 census gives
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .gasket import degree_in_limit
from .word import (
    LETTERS,
    PERMUTATIONS,
    Permutation,
    WordSpec,
    apply_permutation,
    as_word,
    cofinal_up_to_permutation,
    letter_at,
)


@dataclass
class IsoVerdict:
    isomorphic: bool
    witnesses: tuple[Permutation, ...] = ()
    census: tuple[int, int] | None = None
    # per permutation: first tail index where the relabelled word disagrees
    exhausted: tuple[tuple[str, int], ...] = ()


def degree_two_census(w: WordSpec | str) -> tuple[int, WordSpec | None]:
    """Count (0 or 1) of degree-2 vertices in the infinite graph of w.

    Only an eventually constant word keeps one corner extremal forever;
    the vertex is returned as the constant word it spells.
    """
    w = as_word(w)
    start = len(w.prefix) + 1
    for t in LETTERS:
        if degree_in_limit(t * start, w) == 2:
            return 1, WordSpec("", t)
    return 0, None


def decide_iso(v: WordSpec | str, w: WordSpec | str) -> IsoVerdict:
    """Isomorphic iff some relabelling of v is cofinal with w."""
    v, w = as_word(v), as_word(w)
    witnesses = cofinal_up_to_permutation(v, w)
    if witnesses:
        return IsoVerdict(True, witnesses=witnesses)
    census = (degree_two_census(v)[0], degree_two_census(w)[0])
    record = []
    for sigma in PERMUTATIONS:
        sv = apply_permutation(sigma, v)
        n0 = max(len(sv.prefix), len(w.prefix))
        period = lcm(len(sv.cycle), len(w.cycle))
        first = next(i for i in range(n0 + 1, n0 + period + 1)
                     if letter_at(sv, i) != letter_at(w, i))
        record.append((str(sigma), first))
    return IsoVerdict(False, census=census, exhausted=tuple(record))

