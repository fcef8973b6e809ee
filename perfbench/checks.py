"""Output checks shared by every workload.

An iteration's outputs are a mapping from file name to bytes.  The first
iteration of a run is checked against the committed SHA-256 digests (when
the seed has them) and against workload-specific invariants; every later
iteration must reproduce the first byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import os

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests(family: str, seed: int) -> dict[str, str] | None:
    """Committed digests of one input family's outputs for this seed, or
    None when the seed is not among the recorded ones."""
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    return table[family].get(str(seed))


def digest_errors(outputs: dict[str, bytes], expected: dict[str, str]) -> list[str]:
    errors = []
    for name, digest in sorted(expected.items()):
        if name not in outputs:
            errors.append(f"{name}: missing")
        elif sha256(outputs[name]) != digest:
            errors.append(f"{name}: sha256 {sha256(outputs[name])} != committed {digest}")
    return errors


def identity_errors(outputs: dict[str, bytes], reference: dict[str, bytes]) -> list[str]:
    errors = []
    for name in sorted(set(outputs) | set(reference)):
        if outputs.get(name) != reference.get(name):
            errors.append(f"{name}: differs from the run's first iteration")
    return errors
