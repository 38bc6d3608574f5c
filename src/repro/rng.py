"""Seeded randomness utilities.

Every stochastic component of the library draws its randomness from a
:class:`random.Random` instance that is threaded explicitly through the code
(never the module-level global generator).  This keeps simulations exactly
reproducible from a single seed and lets independent components (e.g. the
workload generator and the adversary) be driven by independent streams.

The helpers below create child generators deterministically from a parent so
that adding randomness consumption in one component does not perturb another.

:func:`sha256` is the one SHA-256 of the library (child seeds here, state
hashes in :mod:`repro.trace.hashing`, sweep digests).  It is CPython's
built-in implementation, imported the way the standard library's
:mod:`random` imports its sha512: ``hashlib`` would load OpenSSL's
``_hashlib`` and libcrypto (about 3.7 MB resident) for digests that are
byte-for-byte the same.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence, TypeVar

try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11
    except ImportError:  # pragma: no cover - interpreters without the built-in
        from hashlib import sha256

T = TypeVar("T")


def make_rng(seed: Optional[int] = None) -> random.Random:
    """Return a new :class:`random.Random` seeded with ``seed``.

    ``None`` produces an OS-entropy seeded generator, which is convenient for
    interactive exploration but should not be used in tests or benchmarks.
    """
    return random.Random(seed)


def derive_rng(parent: random.Random, label: str) -> random.Random:
    """Derive a child generator from ``parent`` identified by ``label``.

    The child's seed is a deterministic function of a value drawn from the
    parent and of the label, so two children with different labels are
    decorrelated even when created from the same parent state.
    """
    base = parent.getrandbits(64)
    digest = sha256(f"{base}:{label}".encode("utf-8")).digest()
    child_seed = int.from_bytes(digest[:8], "big")
    return random.Random(child_seed)


def rng_state_to_json(state) -> list:
    """Convert a :meth:`random.Random.getstate` tuple into a JSON-ready list.

    The Mersenne Twister state is ``(version, (int, ...), gauss_next)``;
    tuples become lists (JSON has no tuple type) and everything else is
    already JSON-representable.  The round-trip through
    :func:`rng_state_from_json` is exact, so serialising a generator and
    restoring it continues the stream bit-identically — the foundation of
    the ``repro.trace`` checkpoint layer.
    """
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def rng_state_from_json(data) -> tuple:
    """Inverse of :func:`rng_state_to_json`: a tuple ``setstate`` accepts."""
    version, internal, gauss_next = data
    return (version, tuple(int(word) for word in internal), gauss_next)


def restore_rng(data) -> random.Random:
    """A new generator positioned at the serialised state ``data``."""
    rng = random.Random()
    rng.setstate(rng_state_from_json(data))
    return rng


def choice_weighted(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one element of ``items`` with probability proportional to ``weights``.

    A thin wrapper around :meth:`random.Random.choices` returning a single
    element; raises ``ValueError`` on empty input or non-positive total weight.
    """
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    total = float(sum(weights))
    if total <= 0.0:
        raise ValueError("total weight must be positive")
    return rng.choices(list(items), weights=list(weights), k=1)[0]


def sample_without_replacement(rng: random.Random, items: Iterable[T], count: int) -> list:
    """Sample ``count`` distinct elements from ``items`` (fewer if not enough)."""
    pool = list(items)
    if count >= len(pool):
        rng.shuffle(pool)
        return pool
    return rng.sample(pool, count)


def shuffled(rng: random.Random, items: Iterable[T]) -> list:
    """Return a new list containing ``items`` in a uniformly random order."""
    pool = list(items)
    rng.shuffle(pool)
    return pool
