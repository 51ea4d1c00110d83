"""A single small verdict type shared by every analysis module.

Verdicts always carry a *mode* so that statements about infinite tails are
never overclaimed:

* ``proven``      -- backed by a generator-specific argument,
* ``exact``       -- exact finite-dimensional computation under a declared
                     tail model,
* ``at-horizon``  -- checked on the evaluated prefix only,
* ``numerical``   -- certified by a least-squares residual at truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Verdict",
    "CYCLIC",
    "NON_CYCLIC",
    "PROVEN",
    "YES_AT_HORIZON",
    "NO_WITNESS",
    "POSSIBLY_CYCLIC",
    "NOT_CYCLIC",
    "CYCLIC_SUFFICIENT",
    "INCONCLUSIVE",
    "STATUS_CLASSES",
]

CYCLIC = "Cyclic"
NON_CYCLIC = "NonCyclic"
PROVEN = "Proven"
YES_AT_HORIZON = "Yes-at-horizon"
NO_WITNESS = "No-witness"
POSSIBLY_CYCLIC = "PossiblyCyclic"
NOT_CYCLIC = "NotCyclic"
CYCLIC_SUFFICIENT = "CyclicSufficient"
INCONCLUSIVE = "Inconclusive"

# every status belongs to exactly one class: positive statuses make a verdict
# truthy, negative ones fail a --strict CLI run
STATUS_CLASSES = {
    "positive": (CYCLIC, PROVEN, YES_AT_HORIZON, POSSIBLY_CYCLIC,
                 CYCLIC_SUFFICIENT),
    "negative": (NON_CYCLIC, NOT_CYCLIC, NO_WITNESS),
    "inconclusive": (INCONCLUSIVE,),
}


@dataclass(frozen=True)
class Verdict:
    status: str
    mode: str = "at-horizon"  # proven | exact | at-horizon | numerical
    witness: object = None
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("proven", "exact", "at-horizon", "numerical"):
            raise ValueError(f"unknown verdict mode {self.mode!r}")

    def __bool__(self):
        return self.status in STATUS_CLASSES["positive"]

    def __str__(self):
        w = f", witness={self.witness}" if self.witness is not None else ""
        return f"{self.status} [{self.mode}{w}]"

    def to_dict(self):
        return {
            "status": self.status,
            "mode": self.mode,
            "witness": self.witness,
            "detail": dict(self.detail),
        }
