"""Exact entropy values, stabilization policies, and check records."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError


@dataclass(frozen=True, order=True)
class EntropyValue:
    """log q for an exact positive rational q.

    The rational is the value that is stored, compared and hashed; floats
    exist only behind the as_float accessor.
    """

    log_of: Fraction

    def __post_init__(self):
        q = Fraction(self.log_of)
        if q <= 0:
            raise ValueError(f"entropy must be log of a positive rational, got {q}")
        object.__setattr__(self, "log_of", q)

    @classmethod
    def of_log(cls, q) -> "EntropyValue":
        return cls(Fraction(q))

    @classmethod
    def of_log_ratio(cls, num: int, den: int) -> "EntropyValue":
        return cls(Fraction(num, den))

    @classmethod
    def zero(cls) -> "EntropyValue":
        return cls(Fraction(1))

    @property
    def is_zero(self) -> bool:
        return self.log_of == 1

    def times(self, k: int) -> "EntropyValue":
        return EntropyValue(self.log_of**k)

    def as_float(self) -> float:
        return math.log(self.log_of.numerator) - math.log(self.log_of.denominator)

    def __repr__(self):
        return f"EntropyValue(log {self.log_of})"

    def to_json(self):
        return {
            "log_of": {
                "num": self.log_of.numerator,
                "den": self.log_of.denominator,
            },
            "approx": f"{self.as_float():.12g}",
        }


@dataclass(frozen=True)
class StabilizationPolicy:
    """Budgets of the chain walks and window searches.

    ``max_n`` bounds the steps of every chain walk: the trajectory and
    cotrajectory limits, ``cotrajectory_exact``, ``depth.antistable_check``
    and the tail search of ``depth.plus_minus``.  A cotrajectory whose
    correction term grows on each of its last max(2, max_n // 2) steps is
    a hypothesis failure.

    ``stall_window`` is the number of consecutive agreeing values that are
    taken as a stall: of the chain indices, of the pinned growing windows
    and half-line patterns, and of the window kernels and cokernels.  Two
    places use it otherwise: ``depth.invert`` searches windows up to the
    radius max(4 * band, stall_window), and ``depth.plus_minus`` checks a
    half-line tail on stall_window truncations.

    ``window_budget`` bounds the window radius of ``surjective_on_windows``,
    ``kernel_order`` and ``cokernel_order``, and nothing else.
    """

    max_n: int = 64
    stall_window: int = 3
    window_budget: int = 32

    def __post_init__(self):
        if self.max_n < 1 or self.stall_window < 1 or self.window_budget < 1:
            raise ValidationError("policy budgets must be positive")


DEFAULT_POLICY = StabilizationPolicy()


@dataclass(frozen=True)
class CheckRecord:
    """One verified identity: name, both sides, verdict."""

    name: str
    ok: bool
    lhs: object = None
    rhs: object = None
    note: str = ""

    def to_json(self):
        out = {"name": self.name, "ok": self.ok}
        if self.lhs is not None:
            out["lhs"] = _json_value(self.lhs)
        if self.rhs is not None:
            out["rhs"] = _json_value(self.rhs)
        if self.note:
            out["note"] = self.note
        return out


def _json_value(v):
    if isinstance(v, EntropyValue):
        return v.to_json()
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v
