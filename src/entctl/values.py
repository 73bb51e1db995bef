"""Exact entropy values, stabilization policies, and check records."""

from __future__ import annotations

import itertools
import math
import sys
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
    cotrajectory limits, ``depth.antistable_check``, and
    ``ends.chain_end``, which decides how a chain ends (for
    ``ends.chain_limit`` and the half-line preimages of ``depth``)
    from at most max_n + 1 cylinders.  A cotrajectory whose correction
    term grows on each of its last max(2, max_n // 2) steps is a
    hypothesis failure; the term is at most [K : U] and at least doubles
    at each rise, so that needs [K : U] >= 2^(max(2, max_n // 2) - 1).

    ``stall_window`` is the number of consecutive agreeing values that are
    taken as a stall: of the chain indices and their companion (in
    ``read_stall``, the one stall rule of both limits classifiers), of the
    pinned growing windows and half-line patterns, and of the window
    kernels and cokernels.  Two
    places use it otherwise: ``depth.invert`` searches windows up to the
    radius max(4 * band, stall_window), and ``ends.chain_limit``
    checks a half-line tail on stall_window truncations.

    ``window_budget`` bounds the window radius of ``surjective_on_windows``,
    ``kernel_order`` and ``cokernel_order``, and nothing else.
    """

    max_n: int = 64
    stall_window: int = 3
    window_budget: int = 32

    def __post_init__(self):
        budgets = (self.max_n, self.stall_window, self.window_budget)
        if min(budgets) < 1:
            raise ValidationError("policy budgets must be positive")
        # the walks count their steps with itertools.islice, which takes no
        # bound above sys.maxsize
        if max(budgets) > sys.maxsize:
            raise ValidationError(f"policy budgets must be at most {sys.maxsize}")


DEFAULT_POLICY = StabilizationPolicy()


@dataclass(frozen=True)
class Stall:
    """What ``read_stall`` read: the alphas, the companion of each step and,
    when certified, n0 and the values ``certify`` returned."""

    alphas: tuple[int, ...]
    companions: tuple
    n0: int | None = None
    certified: tuple | None = None

    @property
    def alpha(self) -> int | None:
        return self.alphas[-1] if self.certified is not None else None


def run_start(values) -> int:
    """The step (counted from 1) at which the last run of equal values starts."""
    n = len(values)
    while n > 1 and values[n - 2] == values[-1]:
        n -= 1
    return n


def read_stall(readings, policy: StabilizationPolicy, divisible: bool) -> Stall:
    """The one stall rule of both index chains, [T_{n+1} : T_n] and [C_n : C_{n+1}].

    ``readings`` yields (alpha_n, companion, certify) for n = 1, 2, ..., of
    which at most ``policy.max_n`` are pulled; with ``divisible`` each alpha
    must divide the one before.  The chain ends exactly at alpha_n = 1 (the
    chains are nested) and stalls when alpha and the companion (any value
    compared by equality) have held over ``stall_window`` steps.  There
    ``certify(alpha)`` checks the side's identity and returns the certified
    values, or None: a stall that fails is passed over, an exact end that
    fails (the identity with h = 0) is a broken invariant.  n0 is the first
    step of alpha's last run.
    """
    w = policy.stall_window
    alphas, companions = [], []
    for n, (alpha, comp, certify) in enumerate(itertools.islice(readings, policy.max_n), 1):
        if divisible and alphas and alphas[-1] % alpha:
            raise AssertionError("index divisibility violated")
        alphas.append(alpha)
        companions.append(comp)
        held = n >= w and all(v == vs[-1] for vs in (alphas[-w:], companions[-w:]) for v in vs)
        if alpha == 1 or held:
            values = certify(alpha)
            if values is not None:
                return Stall(tuple(alphas), tuple(companions), run_start(alphas), values)
            if alpha == 1:
                raise AssertionError("exact chain end failed its identity")
    return Stall(tuple(alphas), tuple(companions))


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
