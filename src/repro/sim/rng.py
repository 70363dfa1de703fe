"""Deterministic random-number streams.

Every stochastic component of the simulator (workload generators, ECMP salt,
DIBS random detour choice, topology wiring) draws from its own named stream
derived from a single experiment seed.  This keeps runs reproducible and —
more importantly — keeps the *comparisons* fair: flipping DIBS on or off does
not perturb the background-traffic arrival sequence.
"""

from __future__ import annotations

import random
import zlib

__all__ = ["RngFactory", "stable_hash", "stable_hash_from", "stable_hash_state"]


def stable_hash(*parts: int | str) -> int:
    """A process-independent hash of a tuple of ints/strings.

    Python's built-in ``hash`` is salted for strings, so it cannot be used
    where cross-run determinism matters (ECMP flow placement, stream
    derivation).  CRC32 over a canonical encoding is plenty for our purposes.
    """
    h = 0
    for part in parts:
        data = str(part).encode("utf-8")
        h = zlib.crc32(data, h)
    return h & 0x7FFFFFFF


def stable_hash_state(*parts: int | str, state: int = 0) -> int:
    """The running CRC after ``parts`` (continuing from ``state``, another
    running CRC), for :func:`stable_hash_from`: a caller hashing many
    tuples with a constant prefix folds it once."""
    h = state
    for part in parts:
        h = zlib.crc32(str(part).encode("utf-8"), h)
    return h


def stable_hash_from(state: int, *parts: int | str) -> int:
    """``stable_hash_from(stable_hash_state(*a), *b) == stable_hash(*a, *b)``,
    and ``stable_hash_state(*b, state=stable_hash_state(*a))`` folds
    ``(*a, *b)``."""
    h = state
    for part in parts:
        h = zlib.crc32(str(part).encode("utf-8"), h)
    return h & 0x7FFFFFFF


class RngFactory:
    """Derives independent, reproducible ``random.Random`` streams.

    >>> f = RngFactory(seed=7)
    >>> a = f.stream("workload.background")
    >>> b = f.stream("dibs.detour")
    >>> a is not b
    True

    Requesting the same name twice returns the same stream object.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the named stream, creating it deterministically on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(stable_hash(self.seed, name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngFactory":
        """Create a child factory whose streams are independent of the parent's."""
        return RngFactory(stable_hash(self.seed, "fork", name))
