"""Mechanism base class and noise primitives.

A mechanism is constructed once per (policy, epsilon) pair and can then be
applied to databases; every application draws fresh randomness from the
generator the caller passes (or seeds), never from hidden global state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..core.database import Database
from ..core.policy import Policy
from ..core.rng import ensure_rng

__all__ = ["Mechanism", "laplace_noise"]


def laplace_noise(
    rng: np.random.Generator,
    scale: float | np.ndarray,
    size: int | tuple[int, ...],
) -> np.ndarray:
    """Draw Laplace noise with the given scale (``b`` in ``Lap(b)``).

    ``scale`` may also be an array broadcast against ``size``, one scale
    per element (e.g. per tree level).  The elements are drawn in C order,
    each exactly as a scalar call with its own scale would draw it; an
    element whose scale is 0 comes out exact but still advances ``rng``.

    ``scale == 0`` (a query with zero policy-specific sensitivity, e.g. a
    histogram under partitioned secrets at the partition's granularity)
    yields exact answers — the zero vector.
    """
    if np.min(scale) < 0:
        raise ValueError("scale must be non-negative")
    if np.max(scale) == 0:
        return np.zeros(size, dtype=np.float64)
    return rng.laplace(loc=0.0, scale=scale, size=size)


class Mechanism(ABC):
    """A randomized algorithm parameterized by a Blowfish policy and epsilon.

    Subclasses implement :meth:`release`; privacy comes from calibrating
    noise to the policy-specific global sensitivity (Theorem 5.1) or from
    structure-specific budgeting (Sections 7-8), and each subclass documents
    its argument.
    """

    def __init__(self, policy: Policy, epsilon: float):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.policy = policy
        self.epsilon = float(epsilon)

    @abstractmethod
    def release(self, db: Database, rng: int | np.random.Generator | None = None):
        """Run the mechanism on ``db`` and return its (private) output."""

    def _check_db(self, db: Database) -> None:
        if db.domain != self.policy.domain:
            raise ValueError("database domain does not match the policy domain")
        if not self.policy.admits(db):
            raise ValueError(
                "database violates the policy's public constraints; the "
                "constraints are assumed true of the real data"
            )

    def _rng(self, rng: int | np.random.Generator | None) -> np.random.Generator:
        return ensure_rng(rng)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(epsilon={self.epsilon}, policy={self.policy!r})"
