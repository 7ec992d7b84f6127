"""Seeded workload inputs.  The same (workload, seed) gives the same inputs."""

from __future__ import annotations

import random

# bytes 0..254 fall evenly on the three letters; 255 is dropped
_LETTER_OF_BYTE = bytes(b"lru"[b % 3] for b in range(255)) + b"?"


def rng_for(workload: str, seed: int) -> random.Random:
    """One generator per (workload, seed); string seeds hash the same in
    every interpreter."""
    return random.Random(f"{workload}/{seed}")


def addresses(rng: random.Random, level: int, count: int) -> list[str]:
    """`count` uniform random spellings of `level` letters."""
    need = level * count
    letters = b""
    while len(letters) < need:
        letters += rng.randbytes(need - len(letters) + 16).translate(
            _LETTER_OF_BYTE, b"\xff")
    text = letters[:need].decode("ascii")
    return [text[i:i + level] for i in range(0, need, level)]


def address(rng: random.Random, level: int) -> str:
    """One uniform random spelling of `level` letters."""
    return addresses(rng, level, 1)[0]


def address_pairs(rng: random.Random, level: int, count: int) -> list[tuple[str, str]]:
    """`count` independent uniform address pairs.

    Pairs are drawn from 3^(2 level) ordered spellings, so a run never
    repeats one in practice: at level 30, 10^6 draws collide with
    probability below 10^-16.  No record of earlier pairs is kept, which
    would only inflate the memory the benchmark reports.
    """
    flat = addresses(rng, level, 2 * count)
    return list(zip(flat[::2], flat[1::2]))
