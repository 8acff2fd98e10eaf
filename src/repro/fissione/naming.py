"""``Kautz_hash``: map arbitrary keys to length-``k`` Kautz ObjectIDs.

FISSIONE publishes each object on the unique peer whose PeerID is a prefix of
the object's ObjectID.  For exact-match workloads the ObjectID is produced by
hashing the object's name uniformly over ``KautzSpace(2, k)``; Armada replaces
this with the order-preserving ``Single_hash`` / ``Multiple_hash`` algorithms,
but the plain hash is still needed for the exact-match lookups that the
quickstart example and the FISSIONE property benchmarks exercise.
"""

from __future__ import annotations

import hashlib

from repro.kautz import strings as ks


def kautz_hash(name: str, length: int = 100, base: int = 2) -> str:
    """Deterministically hash ``name`` to a Kautz string of the given length.

    The digest bytes of SHA-256 (extended by counter re-hashing when more
    entropy is needed) select, position by position, one of the symbols
    allowed after the previous symbol.  The result is uniform over
    ``KautzSpace(base, length)`` up to hash quality.

    >>> kautz_hash("alice", length=8)
    '20212012'
    >>> kautz_hash("alice", length=8) == kautz_hash("alice", length=8)
    True
    """
    if length < 1:
        raise ks.KautzStringError(f"length must be >= 1, got {length}")
    ks.alphabet(base)

    symbols: list = []
    previous = None
    counter = 0
    pool = b""
    pool_index = 0
    while len(symbols) < length:
        if pool_index >= len(pool):
            digest = hashlib.sha256(f"{name}\x1f{counter}".encode("utf-8")).digest()
            pool = digest
            pool_index = 0
            counter += 1
        byte = pool[pool_index]
        pool_index += 1
        choices = ks.allowed_symbols(previous, base=base)
        chosen = choices[byte % len(choices)]
        symbols.append(chosen)
        previous = chosen
    return "".join(symbols)
