"""Three-valued membership verdicts shared by all cone oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IN = "In"
OUT = "Out"
UNKNOWN = "Unknown"


@dataclass
class MembershipVerdict:
    """Result of a cone-membership query.

    ``witness`` holds a separating functional for Out verdicts, or a
    decomposition certificate for In verdicts when one was computed.
    ``margin`` is the deciding inner product / eigenvalue; its sign and
    scale depend on which tier produced the verdict.  ``gap``,
    ``iterations`` and ``converged`` describe the conic solve behind it,
    as in :func:`~gptcone.dual.conic_feasibility`; a verdict made without
    a solve keeps gap 0, 0 iterations, converged.
    """

    status: str
    witness: np.ndarray | object | None = None
    margin: float = 0.0
    tier: str | None = None
    gap: float = 0.0
    iterations: int = 0
    converged: bool = True

    def __bool__(self) -> bool:
        return self.status == IN
