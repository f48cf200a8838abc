"""Seeded random-number management.

Every stochastic component in the reproduction draws from a
:class:`numpy.random.Generator` handed to it explicitly, so whole experiment
runs are reproducible from a single integer seed.  :class:`SeedSequencer`
derives independent child generators for subsystems (crowd simulator,
bandit, model initialization, ...) so that changing how many draws one
subsystem makes does not perturb the others.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["default_rng", "SeedSequencer"]


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Return a new :class:`numpy.random.Generator` seeded with ``seed``.

    A thin wrapper over :func:`numpy.random.default_rng` kept as the single
    entry point so a different bit generator can be swapped in globally.
    """
    return np.random.default_rng(seed)


class SeedSequencer:
    """Deterministically hands out named child generators.

    Children are keyed by name, so the generator a subsystem receives
    depends only on the root seed and the subsystem's name — not on the
    order subsystems are constructed in.

    Example
    -------
    >>> seq = SeedSequencer(42)
    >>> crowd_rng = seq.get("crowd")
    >>> model_rng = seq.get("models")
    """

    def __init__(self, root_seed: int) -> None:
        self._root_seed = int(root_seed)
        self._issued: dict[str, int] = {}

    @property
    def root_seed(self) -> int:
        """The root seed this sequencer derives all children from."""
        return self._root_seed

    def get(self, name: str) -> np.random.Generator:
        """Return the child generator for ``name`` (fresh state each call)."""
        seed = self._seed_for(name)
        self._issued[name] = seed
        return np.random.default_rng(seed)

    def seed_for(self, name: str) -> int:
        """The integer seed ``name`` maps to, without issuing a generator.

        Lets out-of-process workers (see :mod:`repro.eval.parallel`) derive
        the exact seed a name would get here and reconstruct the generator
        on their side of the process boundary.
        """
        return self._seed_for(name)

    def issued(self) -> dict[str, int]:
        """Mapping of names to derived seeds issued so far (for audit logs)."""
        return dict(self._issued)

    def _seed_for(self, name: str) -> int:
        # Stable, platform-independent hash of (root_seed, name).
        digest = 1469598103934665603  # FNV-1a offset basis
        for byte in f"{self._root_seed}:{name}".encode("utf-8"):
            digest ^= byte
            digest = (digest * 1099511628211) % (2**64)
        return digest % (2**63 - 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self._issued)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeedSequencer(root_seed={self._root_seed}, issued={len(self._issued)})"
