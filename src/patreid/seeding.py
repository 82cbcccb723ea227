"""Deterministic RNG stream derivation.

The synthetic benchmark draws from generators derived here, so that it is
reproducible from a single global seed and independent work items
(individuals, views) get decorrelated streams regardless of execution order.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(*tokens) -> int:
    """Hash a tuple of tokens (ints/strings) into a 64-bit seed."""
    material = "|".join(str(t) for t in tokens).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big", signed=False)


def derive_rng(*tokens) -> np.random.Generator:
    """Generator seeded from a hashed token tuple."""
    return np.random.default_rng(derive_seed(*tokens))
