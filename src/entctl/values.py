"""Exact entropy values, stabilization policies, and check records."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class EntropyValue:
    """log q for an exact positive rational q, or +infinity.

    The rational is the value that is stored and compared; floats exist
    only behind the as_float accessor.
    """

    log_of: Fraction
    infinite: bool = False

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

    @classmethod
    def infinity(cls) -> "EntropyValue":
        return cls(Fraction(1), infinite=True)

    @property
    def is_zero(self) -> bool:
        return not self.infinite and self.log_of == 1

    def times(self, k: int) -> "EntropyValue":
        if self.infinite:
            return self
        return EntropyValue(self.log_of**k)

    def as_float(self) -> float:
        if self.infinite:
            return math.inf
        return math.log(self.log_of.numerator) - math.log(self.log_of.denominator)

    def __eq__(self, other):
        if not isinstance(other, EntropyValue):
            return NotImplemented
        if self.infinite or other.infinite:
            return self.infinite == other.infinite
        return self.log_of == other.log_of

    def __hash__(self):
        return hash((self.infinite, None if self.infinite else self.log_of))

    def __lt__(self, other):
        if self.infinite:
            return False
        if other.infinite:
            return True
        return self.log_of < other.log_of

    def __le__(self, other):
        return self == other or self < other

    def __repr__(self):
        if self.infinite:
            return "EntropyValue(infinite)"
        return f"EntropyValue(log {self.log_of})"

    def to_json(self):
        if self.infinite:
            return "infinite"
        return {
            "log_of": {
                "num": self.log_of.numerator,
                "den": self.log_of.denominator,
            },
            "approx": f"{self.as_float():.12g}",
        }


@dataclass(frozen=True)
class StabilizationPolicy:
    """Budgets for the stall-detection loops.

    max_n bounds the trajectory / cotrajectory length, stall_window is the
    number of consecutive agreeing steps required before a stall is
    trusted, window_budget bounds auxiliary window growth (kernel and
    cokernel certification, inverse search, antistability checks).
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
