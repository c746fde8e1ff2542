"""Deterministic seed derivation, and the CPU count that work is spread over.

Every random draw in the package flows from one top-level integer seed.
Child seeds are derived by hashing (seed, label, index) so that adding a
consumer never shifts the streams of existing ones, and so that no result
depends on how many workers share the draws.
"""
from __future__ import annotations

import hashlib
import os


def child_seed(seed: int, label: str, index: int = 0) -> int:
    """Derive a stable 64-bit child seed for a named consumer."""
    digest = hashlib.sha256(f"{seed}/{label}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def cpu_count() -> int:
    """CPUs this process may run on: the voltage sweep runs one thread on
    each, and a coverage seed batch one process."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
