"""Profinite abelian groups as full products of finite blocks, open cylinder
subgroups, cotrajectories, and topological entropy.

A group is a full product of finite abelian blocks over N or Z with the
product topology; open subgroups are cylinders, i.e. conditions on a
finite window of coordinates.  Continuous endomorphisms are row-finite:
each output coordinate depends on a band of input coordinates, given on
one period and shifted.  Preimages of cylinders are cylinders, so the
whole cotrajectory calculus happens in finite windows, exactly.

Every walk of a cotrajectory chain C_{n+1} = U n psi^{-1}(C_n), here and
in ``depth`` and ``duality``, runs on the one generator ``chain_steps``
(or its lazy view ``chain``).  How a chain ends (a fixed point, pinned
growing windows or a half line) is decided by ``chain_end`` alone, for
the chain of U by the memoised ``chain_limit``.  A cylinder is pulled
back by ``RowFiniteEndo.preimage_cylinder`` alone, for powers too, and
it returns the window map it read psi^{-1}(C) from: a step builds the
map of C_n once, and ``classify_cotrajectory`` reads [K : Im(psi) * C_n]
off the same map.

The chain questions (cotrajectory limits, the chain's limit, window
surjectivity, kernel and cokernel order) are deterministic in the map,
the subgroup and the policy.  A map object remembers the outcomes it has
computed, keyed per question, subgroup and policy, so that the checks of
one run ask each of them once; the memory is never shared between maps
and goes away with the map.  Outcomes are kept, never the chains.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    AmbientMismatchError,
    DimensionError,
    HypothesisFailure,
    Inconclusive,
    ValidationError,
)
from .finabel import (
    AbSubgroup,
    Band,
    BlockSequence,
    FiniteAbelianGroup,
    Hom,
    canonical_subgroup,
    hom_validate,
)
from .values import DEFAULT_POLICY, CheckRecord, EntropyValue, StabilizationPolicy


@dataclass(frozen=True)
class ProGroup(BlockSequence):
    """Full product of finite abelian blocks over N or Z."""

    prefix: tuple
    period: tuple
    index_set: str = "N"

    def __post_init__(self):
        if self.index_set not in ("N", "Z"):
            raise ValidationError("index_set must be 'N' or 'Z'")
        if not self.period:
            raise ValidationError("period must contain at least one block")
        if self.index_set == "Z" and self.prefix:
            raise ValidationError("Z-indexed groups are purely periodic")
        if not all(isinstance(b, FiniteAbelianGroup) for b in self.prefix + self.period):
            raise ValidationError("profinite blocks must be finite abelian groups")
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))
        object.__setattr__(self, "_layouts", {})

    def is_infinite(self) -> bool:
        return any(b.order > 1 for b in self.period)

    def all_trivial_outside(self, lo: int, hi: int) -> bool:
        """True when every block outside [lo, hi) has order 1."""
        if any(b.order > 1 for b in self.period):
            return False
        if self.index_set == "N":
            return all(
                self.prefix[i].order == 1
                for i in range(len(self.prefix))
                if not (lo <= i < hi)
            )
        return True

    def whole(self) -> "CylinderSubgroup":
        g, _ = self.window_layout(0, 0)
        return CylinderSubgroup(self, 0, 0, g.whole_subgroup())


class CylinderSubgroup:
    """Open subgroup {x : x restricted to [lo, hi) lies in core}.

    Stored in canonical form: boundary blocks on which the core is the
    full block are shrunk away, so equality is structural.
    """

    __slots__ = ("parent", "lo", "hi", "core")

    def __init__(self, parent: ProGroup, lo: int, hi: int, core: AbSubgroup):
        wg, starts = parent.window_layout(lo, hi)
        if core.ambient != wg:
            raise AmbientMismatchError("core does not live in the window group")
        # shrink free boundary blocks: a block is free when the core contains
        # its unit vectors, i.e. when no non-unit HNF row has its pivot there
        if not core.rows:
            lo = hi = 0
            core = parent.window_layout(0, 0)[0].whole_subgroup()
        else:
            new_lo, new_hi = lo, hi
            last, first = max(core.rows), min(core.rows)
            while starts[new_hi - 1 - lo] > last:
                new_hi -= 1
            if new_hi < hi:
                core = _project_out(core, starts[new_hi - lo], parent.window_layout(lo, new_hi)[0])
            while starts[new_lo + 1 - lo] <= first:
                new_lo += 1
            if new_lo > lo:
                core = _project_out_front(
                    core, starts[new_lo - lo], parent.window_layout(new_lo, new_hi)[0]
                )
            lo, hi = new_lo, new_hi
        self.parent = parent
        self.lo = lo
        self.hi = hi
        self.core = core

    @property
    def index(self) -> int:
        """[K : U], exactly."""
        return self.core.index

    def is_whole(self) -> bool:
        return self.lo == self.hi

    def is_trivial_subgroup(self) -> bool:
        """True when the cylinder is the one-element subgroup (finite K only)."""
        return self.core.order == 1 and self.parent.all_trivial_outside(self.lo, self.hi)

    def extended_core(self, lo: int, hi: int) -> AbSubgroup:
        """The same subgroup presented on the larger window [lo, hi).

        The added blocks are free, so their HNF rows are unit rows, which
        are not stored; the core's rows, shifted to their place in the
        window, keep their pivots and reduced entries: the unique HNF of the
        extension, built without elimination.
        """
        if self.is_whole():
            wg, _ = self.parent.window_layout(lo, hi)
            return wg.whole_subgroup()
        if lo > self.lo or hi < self.hi:
            raise ValidationError("extension window must contain the current window")
        wg, starts = self.parent.window_layout(lo, hi)
        return AbSubgroup.from_rows(wg, _shifted(self.core.rows, starts[self.lo - lo]))

    def hull_with(self, other: "CylinderSubgroup") -> tuple[int, int]:
        if self.parent != other.parent:
            raise AmbientMismatchError("cylinders over different groups")
        if self.is_whole():
            return (other.lo, other.hi)
        if other.is_whole():
            return (self.lo, self.hi)
        return (min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "CylinderSubgroup") -> "CylinderSubgroup":
        lo, hi = self.hull_with(other)
        a = self.extended_core(lo, hi)
        b = other.extended_core(lo, hi)
        return CylinderSubgroup(self.parent, lo, hi, a.intersect_with(b))

    def sum_with(self, other: "CylinderSubgroup") -> "CylinderSubgroup":
        lo, hi = self.hull_with(other)
        a = self.extended_core(lo, hi)
        b = other.extended_core(lo, hi)
        return CylinderSubgroup(self.parent, lo, hi, a.sum_with(b))

    def contains_cylinder(self, other: "CylinderSubgroup") -> bool:
        lo, hi = self.hull_with(other)
        return self.extended_core(lo, hi).contains_subgroup(other.extended_core(lo, hi))

    def contains_elem(self, elem: dict) -> bool:
        return self.core.contains(self.parent.coords(elem, self.lo, self.hi))

    def pinned_blocks(self) -> set[int]:
        """Blocks i in the window forced to 0 for every element."""
        wg, starts = self.parent.window_layout(self.lo, self.hi)
        mods, rows = wg.moduli, self.core.rows
        # coordinate t is forced to 0 iff every HNF row is 0 there mod d_t;
        # a unit row e_t is 0 there iff d_t = 1
        free = {t for row in rows.values() for t, x in row.items() if x % mods[t]}
        free.update(t for t, d in enumerate(mods) if d > 1 and t not in rows)
        return {
            i for i in range(self.lo, self.hi)
            if free.isdisjoint(range(starts[i - self.lo], starts[i - self.lo + 1]))
        }

    def __eq__(self, other):
        return (
            isinstance(other, CylinderSubgroup)
            and self.parent == other.parent
            and self.lo == other.lo
            and self.hi == other.hi
            and self.core == other.core
        )

    def __hash__(self):
        return hash((self.parent, self.lo, self.hi, self.core))

    def __repr__(self):
        return f"Cylinder([{self.lo},{self.hi}) index={self.index})"


def _shifted(rows: dict, off: int) -> dict:
    """HNF rows ``{pivot: {column: value}}`` with every column moved by ``off``."""
    if not off:
        return rows
    return {p + off: {t + off: x for t, x in row.items()} for p, row in rows.items()}


def _project_out(core: AbSubgroup, cut: int, wg: FiniteAbelianGroup) -> AbSubgroup:
    """The projection of ``core`` onto its first ``cut`` coordinates, in ``wg``,
    for a core containing every e_j with j >= ``cut`` (a free back block).

    The HNF rows from ``cut`` on are then those e_j, and the unit pivots
    clear their columns in the other rows, so the stored rows, all with
    pivots and columns below ``cut``, are the HNF of the projection.
    """
    assert max(core.rows, default=-1) < cut, "the back block is not free"
    return AbSubgroup.from_rows(wg, core.rows)


def _project_out_front(core: AbSubgroup, cut: int, wg: FiniteAbelianGroup) -> AbSubgroup:
    """The projection of ``core`` onto its coordinates from ``cut`` on, in ``wg``,
    for a core containing every e_j with j < ``cut`` (a free front block).

    Those e_j are then the first ``cut`` HNF rows, and the other rows vanish
    on the first ``cut`` columns, so the stored rows moved ``cut`` columns
    to the left give the HNF of the projection.
    """
    assert min(core.rows, default=cut) >= cut, "the front block is not free"
    return AbSubgroup.from_rows(wg, _shifted(core.rows, -cut))


def pro_group(prefix, period, index_set: str = "N") -> ProGroup:
    return ProGroup(tuple(prefix), tuple(period), index_set)


def cylinder(parent: ProGroup, window, core_gens) -> CylinderSubgroup:
    """Open subgroup from a window (range or index list) and core generators."""
    if isinstance(window, tuple) and len(window) == 2:
        lo, hi = window
        idx = list(range(lo, hi))
    else:
        idx = sorted(set(int(i) for i in window))
    if not idx:
        return parent.whole()
    lo, hi = idx[0], idx[-1] + 1
    for i in idx:
        if not parent.valid_index(i):
            raise DimensionError(f"index {i} invalid for this group")
    wg, starts = parent.window_layout(lo, hi)
    gens = [list(wg.reduce(g)) for g in core_gens]
    # blocks inside the hull but not named in the window are unconstrained
    for i in range(lo, hi):
        if i not in idx:
            gens.extend({j: 1} for j in range(starts[i - lo], starts[i - lo + 1]))
    return CylinderSubgroup(parent, lo, hi, canonical_subgroup(wg, gens))


class RowFiniteEndo(Band):
    """Continuous endomorphism of a full product: a ``finabel.Band``, whose
    output block i (with i = r mod period) receives matrix * x_{i+offset}
    for each term of rows[r].  The outcomes of the chain questions asked of
    it are remembered in ``_memo``.
    """

    __slots__ = ("_memo",)

    def __init__(
        self, parent: ProGroup, offset: int, width: int, period: int, rows,
        prefix_rows=(),
    ):
        super().__init__(parent, offset, width, period, rows, prefix_rows)
        self._memo: dict = {}

    def window_map(self, lo: int, hi: int) -> tuple[int, int, Hom]:
        """Induced map window(src) -> window([lo,hi)) capturing all dependencies."""
        g = self.parent
        deps = set()
        for i in range(lo, hi):
            for o, _ in self.row_terms(i):
                j = i + o
                if g.valid_index(j):
                    deps.add(j)
        if not deps:
            src_lo = src_hi = 0
        else:
            src_lo, src_hi = min(deps), max(deps) + 1
        cols, src_g, tgt_g = self.band_columns(range(lo, hi), src_lo, src_hi)
        return src_lo, src_hi, hom_validate(cols, src_g, tgt_g)

    def preimage_cylinder(self, u: CylinderSubgroup) -> tuple[CylinderSubgroup, Hom]:
        """(psi^{-1}(U), the window map of U's window it is read from).

        The one pull-back of a cylinder, for this map and for ``PowerEndo``
        alike: it needs only ``parent`` and ``window_map``.  The whole group
        has the empty window, whose map is the zero map of trivial groups.
        """
        if u.parent != self.parent:
            raise AmbientMismatchError("cylinder over a different group")
        src_lo, src_hi, h = self.window_map(u.lo, u.hi)
        return CylinderSubgroup(self.parent, src_lo, src_hi, h.preimage(u.core)), h

    def compose(self, inner: "RowFiniteEndo") -> "RowFiniteEndo":
        """self after inner, as a banded spec; Z-indexed groups only."""
        if self.parent != inner.parent:
            raise AmbientMismatchError("composition across groups")
        if self.parent.index_set != "Z":
            raise ValidationError("spec composition requires a Z-indexed group")
        p = lcm(self.period, inner.period)
        new_rows = []
        for r in range(p):
            acc: dict[int, list[list[int]]] = {}
            tgt = self.parent.block(r)
            for o1, m1 in self.row_terms(r):
                mid = r + o1
                for o2, m2 in inner.row_terms(mid):
                    o = o1 + o2
                    src = self.parent.block(mid + o2)
                    prod_mat = [
                        [
                            sum(m1[u][t] * m2[t][v] for t in range(len(m2)))
                            for v in range(src.rank)
                        ]
                        for u in range(tgt.rank)
                    ]
                    if o in acc:
                        for u in range(tgt.rank):
                            for v in range(src.rank):
                                acc[o][u][v] += prod_mat[u][v]
                    else:
                        acc[o] = prod_mat
            terms = []
            for o in sorted(acc):
                mat = [
                    [x % tgt.moduli[u] for x in row] for u, row in enumerate(acc[o])
                ]
                if any(any(row) for row in mat):
                    terms.append((o, mat))
            if not terms:
                terms = [(self.offset + inner.offset, [[0] * self.parent.block(r + self.offset + inner.offset).rank for _ in range(tgt.rank)])]
            new_rows.append(terms)
        offset = self.offset + inner.offset
        width = self.width + inner.width - 1
        return RowFiniteEndo(self.parent, offset, width, p, new_rows)

    def equals_spec(self, other: "RowFiniteEndo") -> bool:
        """Same map, compared as reduced banded specs on one lcm period."""
        if self.parent != other.parent:
            return False

        def nonzero_terms(endo, r):
            # reduce first: a term that vanishes modulo the target is no term
            mods = self.parent.block(r).moduli
            terms = {}
            for o, m in endo.row_terms(r):
                m = tuple(tuple(x % d for x in row) for row, d in zip(m, mods))
                if any(map(any, m)):
                    terms[o] = m
            return terms

        p = lcm(self.period, other.period)
        return all(nonzero_terms(self, r) == nonzero_terms(other, r) for r in range(p))


class PowerEndo:
    """psi^k via iteration; supports the same window calculus as the base map."""

    def __init__(self, base, k: int):
        if k < 1:
            raise ValidationError("power must be >= 1")
        self.base = base
        self.k = k
        self.parent = base.parent
        self._memo: dict = {}

    def apply(self, elem: dict) -> dict:
        for _ in range(self.k):
            elem = self.base.apply(elem)
        return elem

    preimage_cylinder = RowFiniteEndo.preimage_cylinder

    def window_map(self, lo: int, hi: int) -> tuple[int, int, Hom]:
        cur_lo, cur_hi, h = self.base.window_map(lo, hi)
        for _ in range(self.k - 1):
            cur_lo, cur_hi, h2 = self.base.window_map(cur_lo, cur_hi)
            h = h.compose(h2)
        return cur_lo, cur_hi, h


def rowfinite_endo(
    parent: ProGroup, offset: int, width: int, period: int, rows, prefix_rows=()
) -> RowFiniteEndo:
    return RowFiniteEndo(parent, offset, width, period, rows, prefix_rows)


def identity_endo(parent: ProGroup) -> RowFiniteEndo:
    def eye(blk):
        return [(0, [[1 if i == j else 0 for j in range(blk.rank)] for i in range(blk.rank)])]

    p = len(parent.period)
    shift = len(parent.prefix)
    rows = [eye(parent.period[(r - shift) % p]) for r in range(p)]
    prefix_rows = [eye(b) for b in parent.prefix]
    return RowFiniteEndo(parent, 0, 1, p, rows, prefix_rows)


def _memoized(fn):
    """Compute ``fn(endo, ...)`` once per map object and equal arguments.

    The outcome is stored on the map under the function and its remaining
    arguments with defaults filled in, so ``f(endo, u)`` and
    ``f(endo, u, DEFAULT_POLICY)`` share one entry.  An Inconclusive
    outcome is stored too; every later call raises a fresh exception with
    the same message and report.
    """
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(endo, *args, **kwargs):
        bound = sig.bind(endo, *args, **kwargs)
        bound.apply_defaults()
        key = (fn, *bound.args[1:])
        if key not in endo._memo:
            try:
                endo._memo[key] = (fn(endo, *args, **kwargs), None)
            except Inconclusive as exc:
                endo._memo[key] = (None, (str(exc), exc.report))
                raise
        value, failure = endo._memo[key]
        if failure is not None:
            raise Inconclusive(*failure)
        return value

    return wrapper


def chain_steps(endo, u: CylinderSubgroup):
    """Yield (C_n, psi^{-1}(C_n), window map of C_n, C_{n+1}) for n = 1, 2, ...

    C_1 = U and C_{n+1} = U n psi^{-1}(C_n).  This is the only place the
    recurrence is written; every cotrajectory walk runs on it.  Only the
    current cylinder is held, and the walk never ends by itself: each
    caller stops it by its own rule.
    """
    c = u
    while True:
        p, h = endo.preimage_cylinder(c)
        c_next = u.intersect(p)
        yield c, p, h, c_next
        c = c_next


def chain(endo, u: CylinderSubgroup):
    """Yield C_1 = U, C_2, ...; C_{n+1} is computed only when asked for."""
    yield u
    for *_, c in chain_steps(endo, u):
        yield c


def pins_growing_windows(parent: ProGroup, windows, w: int) -> bool:
    """True when the last ``w`` cylinders of a chain are fully pinned on
    windows that grow on both sides over Z, or grow to the right from 0
    over N; band geometry then pins every coordinate in the limit.

    ``windows`` lists (lo, hi, core is trivial) for each cylinder so far.
    """
    if len(windows) < w:
        return False
    recent = windows[-w:]
    if not all(r[2] for r in recent):
        return False
    growing_hi = all(recent[i][1] < recent[i + 1][1] for i in range(w - 1))
    if parent.index_set == "N":
        return growing_hi and recent[-1][0] == 0
    return growing_hi and all(recent[i][0] > recent[i + 1][0] for i in range(w - 1))


def cotrajectory(endo, u: CylinderSubgroup, n: int) -> CylinderSubgroup:
    """C_n = U n psi^{-1}(U) n ... n psi^{-(n-1)}(U)."""
    if n < 1:
        raise ValidationError("cotrajectory index must be >= 1")
    return next(itertools.islice(chain(endo, u), n - 1, None))


@dataclass(frozen=True)
class TailCylinder:
    """Closed subgroup pinned to 0 on a half line plus a finite condition.

    side +1 means every coordinate at index >= pin_from is 0; side -1
    means every coordinate at index <= pin_from is 0.  The residual
    cylinder carries the remaining finite-window condition.
    """

    parent: ProGroup
    side: int
    pin_from: int
    residual: CylinderSubgroup

    def truncate(self, m: int) -> CylinderSubgroup:
        """The cylinder that pins only the part of the half line up to radius m.

        Its HNF is read off without elimination: the residual's rows, shifted
        into the window as by ``extended_core``, and the relation rows d_t e_t
        of the pinned coordinates; the other blocks are free, with unit rows.
        """
        g, res = self.parent, self.residual
        if self.side == +1:
            lo = min(res.lo, self.pin_from) if not res.is_whole() else self.pin_from
            hi = max(m, self.pin_from)
            pin_lo, pin_hi = self.pin_from, hi
        else:
            hi = max(res.hi, self.pin_from + 1) if not res.is_whole() else self.pin_from + 1
            lo = min(-m, self.pin_from)
            pin_lo, pin_hi = lo, self.pin_from + 1
        wg, _ = g.window_layout(lo, hi)
        # the pinned blocks [pin_lo, pin_hi) take the coordinates after those
        # of [lo, pin_lo) and up to those of [lo, pin_hi)
        pinned = range(g.window_layout(lo, pin_lo)[0].rank, g.window_layout(lo, pin_hi)[0].rank)
        rows = {t: {t: wg.moduli[t]} for t in pinned if wg.moduli[t] > 1}
        rows.update(res.extended_core(lo, hi).rows)
        return CylinderSubgroup(g, lo, hi, AbSubgroup.from_rows(wg, dict(sorted(rows.items()))))


def _residual_of(cyl: CylinderSubgroup, boundary: int, side: int) -> CylinderSubgroup:
    """The finite condition left after removing the pinned half of a cylinder."""
    g = cyl.parent
    lo, hi = (cyl.lo, boundary) if side == +1 else (boundary + 1, cyl.hi)
    if lo >= hi:
        return g.whole()
    return CylinderSubgroup(g, lo, hi, g.project(cyl.core, (cyl.lo, cyl.hi), (lo, hi)))


def _pinned_ends(cyl: CylinderSubgroup) -> dict:
    """{side: (boundary, extent) or None}: the run of pinned blocks at the
    right end (side +1, from block ``boundary`` up to ``extent`` = hi) and
    at the left end (side -1, up to block ``boundary``, ``extent`` = -lo)."""
    pinned = cyl.pinned_blocks()
    start, end = cyl.hi, cyl.lo
    while start > cyl.lo and start - 1 in pinned:
        start -= 1
    while end < cyl.hi and end in pinned:
        end += 1
    return {
        +1: (start, cyl.hi) if start < cyl.hi else None,
        -1: (end - 1, -cyl.lo) if end > cyl.lo else None,
    }


def chain_end(cylinders, policy: StabilizationPolicy):
    """Candidate ends of a descending cylinder stream, read off at most
    ``policy.max_n + 1`` cylinders.  It ends on ("cylinder", C) at two equal
    successive cylinders and on ("trivial", n) when ``pins_growing_windows``
    holds at the (n+1)-th; it yields ("tail", TailCylinder) and goes on when
    the pinned run at one end starts at one block and grows on the last
    ``stall_window`` cylinders while the rest projects to one residual
    (projected only once the integer boundaries and extents hold).  Both
    patterns are read from the second cylinder on, pinned windows first,
    since over N they also match a tail.  Raises Inconclusive past the budget.
    """
    w = policy.stall_window
    windows = []
    runs = {+1: [], -1: []}
    cylinders = itertools.islice(cylinders, policy.max_n + 1)
    prev = next(cylinders)
    for n, cur in enumerate(cylinders, 1):
        if cur == prev:
            yield ("cylinder", cur)
            return
        prev = cur
        windows.append((cur.lo, cur.hi, cur.core.order == 1))
        if pins_growing_windows(cur.parent, windows, w):
            yield ("trivial", n)
            return
        for side, end in _pinned_ends(cur).items():
            hist = runs[side]
            hist.append((*end, cur) if end else None)
            del hist[:-w]
            grows = all(hist) and all(a[1] < b[1] for a, b in zip(hist, hist[1:]))
            if len(hist) == w and grows and len({h[0] for h in hist}) == 1:
                res = [_residual_of(c, boundary, side) for boundary, _, c in hist]
                if all(r == res[0] for r in res):
                    yield ("tail", TailCylinder(cur.parent, side, hist[0][0], res[0]))
    raise Inconclusive("chain neither stalls, pins growing windows nor ends in a half line", None)


@_memoized
def chain_limit(endo, u: CylinderSubgroup, policy: StabilizationPolicy = DEFAULT_POLICY):
    """C(psi, U), the limit of the chain of U: the first end of ``chain_end``
    that holds.  A tail holds when it satisfies V = U n psi^{-1}(V) on
    ``stall_window`` truncations (any fixed point lies in every C_n, and the
    chain's pinned windows force the reverse inclusion); one that fails, as
    the early growth of a map of longer period may, is passed over."""
    band = abs(endo.offset) + endo.width
    for kind, obj in chain_end(chain(endo, u), policy):
        if kind != "tail":
            return kind, obj
        for extra in range(policy.stall_window):
            m = abs(obj.pin_from) + 2 * band + 2 + extra
            fixed = u.intersect(endo.preimage_cylinder(obj.truncate(m))[0])
            extent = fixed.hi if obj.side == +1 else -fixed.lo
            if extent < m - band or fixed != obj.truncate(extent):
                break
        else:
            return kind, obj


@dataclass(frozen=True)
class CotrajectoryReport:
    """Stall analysis of the cotrajectory index chain c_n = [K : C_n]."""

    n_max: int
    c: tuple[int, ...]
    alphas: tuple[int, ...]
    n0: int | None
    alpha: int | None
    n1: int | None
    psi_inv_c_mod_c: int | None
    k_mod_l: int | None
    certified: bool
    status: str

    def _certified(self) -> "CotrajectoryReport":
        if self.status == "hypothesis_failure":
            raise HypothesisFailure("[K : Im(psi) C_n] keeps growing; quotient not finite")
        if not self.certified:
            raise Inconclusive("cotrajectory did not stall within budget", self)
        return self

    @property
    def entropy(self) -> EntropyValue:
        """The limit-free entropy log |psi^{-1}(C)/C| - log [K : Im(psi) C]."""
        rep = self._certified()
        return EntropyValue.of_log(Fraction(rep.psi_inv_c_mod_c, rep.k_mod_l))

    @property
    def entropy_limit(self) -> EntropyValue:
        """log alpha, from the stabilized index chain; equals ``entropy``."""
        return EntropyValue.of_log(self._certified().alpha)


@_memoized
def cotrajectory_limits(
    endo, u: CylinderSubgroup, policy: StabilizationPolicy = DEFAULT_POLICY
) -> CotrajectoryReport:
    """Run the cotrajectory chain until every companion chain stalls (see
    ``classify_cotrajectory``)."""
    return classify_cotrajectory(u, chain_steps(endo, u), policy)


def classify_cotrajectory(
    u: CylinderSubgroup, steps, policy: StabilizationPolicy
) -> CotrajectoryReport:
    """Read the ``chain_steps`` of U until every companion chain stalls; at
    most ``policy.max_n`` steps.  [K : Im(psi) * C_n] is read off the window
    map of C_n that the step carries.

    Certification requires the identity
    |psi^{-1}(C)/C| = alpha * [K : Im(psi) * C] to hold at the stall.
    """
    w = policy.stall_window
    cs = [u.index]
    alphas: list[int] = []
    ds: list[int] = []
    ls: list[int] = []

    def report(n, n0, alpha, n1, psi_inv, kml, certified, status):
        return CotrajectoryReport(
            n_max=n,
            c=tuple(cs),
            alphas=tuple(alphas),
            n0=n0,
            alpha=alpha,
            n1=n1,
            psi_inv_c_mod_c=psi_inv,
            k_mod_l=kml,
            certified=certified,
            status=status,
        )

    for n, (c_cyl, p_cyl, h, c_next) in enumerate(itertools.islice(steps, policy.max_n), 1):
        cs.append(c_next.index)
        if cs[n] % cs[n - 1]:
            raise AssertionError("c_n must divide c_{n+1}")
        alphas.append(cs[n] // cs[n - 1])
        if n >= 2 and alphas[-2] % alphas[-1]:
            raise AssertionError("alpha divisibility violated")
        ds.append(p_cyl.sum_with(u).index)
        ls.append(h.image().sum_with(c_cyl.core).index)

        if c_next == c_cyl:
            # exact fixed point: C = C_n, psi^{-1}(C) = P exactly
            psi_inv = c_cyl.index // p_cyl.index
            kml = ls[-1]
            certified = psi_inv == 1 * kml
            return report(
                n, n, 1, n, psi_inv, kml, certified,
                "certified" if certified else "inconclusive",
            )
        if (
            n >= w
            and len(set(alphas[-w:])) == 1
            and len(set(ds[-w:])) == 1
            and len(set(ls[-w:])) == 1
        ):
            alpha = alphas[-1]
            psi_inv = u.index // ds[-1]
            kml = ls[-1]
            if psi_inv == alpha * kml:
                n0 = n - w + 1
                n1 = n - w + 1
                for back in range(len(ds) - 1, -1, -1):
                    if ds[back] != ds[-1]:
                        n1 = back + 2
                        break
                else:
                    n1 = 1
                for back in range(len(alphas) - 1, -1, -1):
                    if alphas[back] != alphas[-1]:
                        n0 = back + 2
                        break
                else:
                    n0 = 1
                return report(n, n0, alpha, n1, psi_inv, kml, True, "certified")

    half = max(2, policy.max_n // 2)
    if len(ls) >= half and all(ls[i] < ls[i + 1] for i in range(len(ls) - half, len(ls) - 1)):
        return report(policy.max_n, None, None, None, None, None, False, "hypothesis_failure")
    return report(policy.max_n, None, None, None, None, None, False, "inconclusive")


@_memoized
def surjective_on_windows(endo, policy: StabilizationPolicy = DEFAULT_POLICY) -> bool:
    """Check window surjectivity up to the budget.

    The outputs on the window of radius r depend only on the source window
    of radius r, which lies inside the source window of every R >= r.  So
    the window map at R, projected onto the outputs of radius r, is the
    window map at r with the extra source coordinates entering by zero;
    a map onto its window at R is onto at every r <= R.
    The verdict at ``window_budget`` thus decides every radius up to the
    budget.  Radii 1, 2, 4, ... come first so that a map that is not
    surjective usually fails on a small window.  A failed window disproves
    surjectivity; full windows up to the budget establish it on every
    tested finite quotient.
    """
    g = endo.parent
    radius = 1
    while True:
        lo, hi = (0, radius) if g.index_set == "N" else (-radius, radius)
        _, _, h = endo.window_map(lo, hi)
        if h.image().index != 1:
            return False
        if radius == policy.window_budget:
            return True
        radius = min(2 * radius, policy.window_budget)


@_memoized
def kernel_order(endo, policy: StabilizationPolicy = DEFAULT_POLICY) -> int:
    """|ker psi| certified through stable images of window kernels.

    The kernel is the inverse limit of the partial-solution groups P_V
    over growing windows V; once the stable images have constant order
    across several windows the transition maps are bijective and that
    order is |ker psi|.
    """
    g = endo.parent
    w = policy.stall_window

    def window_of(n: int) -> tuple[int, int]:
        return (0, n) if g.index_set == "N" else (-n, n)

    def partial_kernel(lo: int, hi: int) -> AbSubgroup:
        """Solutions on window [lo,hi) of all rows fully visible there."""
        rows_idx = []
        scan_lo = lo - abs(endo.offset) - endo.width
        scan_hi = hi + abs(endo.offset) + endo.width
        for i in range(scan_lo, scan_hi):
            if not g.valid_index(i):
                continue
            deps = [i + o for o, _ in endo.row_terms(i) if g.valid_index(i + o)]
            if deps and all(lo <= d < hi for d in deps):
                rows_idx.append(i)
        if not rows_idx:
            return g.window_layout(lo, hi)[0].whole_subgroup()
        cols, wg, tgt = endo.band_columns(rows_idx, lo, hi)
        return hom_validate(cols, wg, tgt).kernel()

    stable_orders: list[int] = []
    for n in range(1, policy.window_budget + 1):
        small = window_of(n)
        prev: AbSubgroup | None = None
        agree = 0
        stable: AbSubgroup | None = None
        for m in range(n, policy.window_budget + 1):
            big = window_of(m)
            r = g.project(partial_kernel(*big), big, small)
            if prev is not None and r == prev:
                agree += 1
                if agree >= w - 1:
                    stable = r
                    break
            else:
                agree = 0
            prev = r
        if stable is None:
            raise Inconclusive("kernel window images did not stabilize", None)
        stable_orders.append(stable.order)
        if len(stable_orders) >= w and len(set(stable_orders[-w:])) == 1:
            return stable_orders[-1]
    raise Inconclusive("kernel order did not stabilize within budget", None)


@_memoized
def cokernel_order(endo, policy: StabilizationPolicy = DEFAULT_POLICY) -> int:
    """|K / Im psi| certified through stalled window cokernels."""
    g = endo.parent
    w = policy.stall_window
    qs: list[int] = []
    for n in range(1, policy.window_budget + 1):
        lo, hi = (0, n) if g.index_set == "N" else (-n, n)
        _, _, h = endo.window_map(lo, hi)
        qs.append(h.image().index)
        if len(qs) >= w and len(set(qs[-w:])) == 1:
            return qs[-1]
        if len(qs) >= 2 and qs[-1] < qs[-2]:
            raise AssertionError("window cokernels must be monotone")
    raise Inconclusive("cokernel order did not stabilize within budget", None)


def finite_cotrajectory(f: Hom, u: AbSubgroup):
    """(C, alpha) for an endomorphism of a finite abelian group; exact."""
    if f.source != f.target or u.ambient != f.source:
        raise AmbientMismatchError("finite cotrajectory needs an endomorphism and its subgroup")
    c = u
    while True:
        c_next = u.intersect_with(f.preimage(c))
        if c_next == c:
            return c
        c = c_next


@dataclass(frozen=True)
class QuotientSystem:
    """K/U_- with the induced endomorphism, plus its verification records."""

    mode: str  # "whole" when U_- is trivial, "finite" when it is an open cylinder
    u_minus: object
    quotient: object
    endo_q: object
    u_image: object
    checks: tuple[CheckRecord, ...]


def _quotient_data(cyl: CylinderSubgroup):
    """Present K / cylinder as a finite abelian group, with the map of window
    vectors ({coordinate: value} maps) onto it and a lift of its elements to
    dense window vectors."""
    from .lattice import smith_normal_form

    basis = [list(r) for r in cyl.core.basis]
    s, uu, vv, uinv, vinv = smith_normal_form(basis, with_inverses=True)
    k = len(basis)
    diag = [s[i][i] for i in range(k)]
    keep = [i for i, d in enumerate(diag) if d != 1]
    q_group = FiniteAbelianGroup(tuple(diag[i] for i in keep))

    def to_quotient(vec: dict) -> tuple[int, ...]:
        return tuple(sum(x * vv[t][i] for t, x in vec.items()) % diag[i] for i in keep)

    def lift(qvec) -> list[int]:
        full = [0] * k
        for pos, i in enumerate(keep):
            full[i] = qvec[pos]
        return [sum(full[t] * vinv[t][j] for t in range(k)) for j in range(k)]

    return q_group, to_quotient, lift


def quotient_system(
    endo, u: CylinderSubgroup, policy: StabilizationPolicy = DEFAULT_POLICY
) -> QuotientSystem:
    """The induced system on K/U_- together with its one-term entropy check."""
    g = endo.parent
    kind, u_minus = chain_limit(endo, u, policy)
    if kind == "tail":
        raise Inconclusive("cotrajectory is a half line; quotient not materialized", None)
    checks: list[CheckRecord] = []
    if kind == "trivial":
        ker = kernel_order(endo, policy)
        try:
            cok = cokernel_order(endo, policy)
        except Inconclusive:
            checks.append(
                CheckRecord("coker_finite", False, note="cokernel not certified finite")
            )
            return QuotientSystem("whole", None, g, endo, u, tuple(checks))
        h = cotrajectory_limits(endo, u, policy).entropy
        expect = EntropyValue.of_log(Fraction(ker, cok))
        checks.append(CheckRecord("ker_order", True, lhs=ker))
        checks.append(CheckRecord("coker_order", True, lhs=cok))
        checks.append(
            CheckRecord("entropy_eq_log_ker_minus_log_coker", h == expect, lhs=h, rhs=expect)
        )
        return QuotientSystem("whole", None, g, endo, u, tuple(checks))

    window = (u_minus.lo, u_minus.hi)
    q_group, to_quotient, lift = _quotient_data(u_minus)
    # induced endomorphism on the finite quotient: lift, apply, project
    cols = [
        to_quotient(g.coords(endo.apply(g.elem_of(lift(q_group.unit(j)), *window)), *window))
        for j in range(q_group.rank)
    ]
    mat = [[cols[j][i] for j in range(q_group.rank)] for i in range(q_group.rank)]
    endo_q = hom_validate(mat, q_group, q_group)

    # image of U in the quotient
    hull = u.hull_with(u_minus)
    u_core = g.project(u.extended_core(*hull), hull, window)
    u_image = canonical_subgroup(q_group, [to_quotient(row) for row in u_core.hnf_rows()])

    c_q = finite_cotrajectory(endo_q, u_image)
    checks.append(
        CheckRecord("induced_cotrajectory_trivial", c_q.order == 1, lhs=c_q.order, rhs=1)
    )
    ker_q = endo_q.kernel().order
    cok_q = endo_q.image().index
    checks.append(
        CheckRecord(
            "finite_entropy_eq_log_ker_minus_log_coker",
            ker_q == cok_q,
            lhs=ker_q,
            rhs=cok_q,
            note="entropy on a finite group is 0",
        )
    )
    return QuotientSystem("finite", u_minus, q_group, endo_q, u_image, tuple(checks))


def log_law_check(
    endo, u: CylinderSubgroup, k: int, policy: StabilizationPolicy = DEFAULT_POLICY
) -> CheckRecord:
    """Verify [psi^{-k}(U_-) : U_-] = [psi^{-1}(U_-) : U_-]^k for surjective psi."""
    if k < 1:
        raise ValidationError("power must be >= 1")
    if not surjective_on_windows(endo, policy):
        raise ValidationError("log law requires a surjective endomorphism")
    base_rep = cotrajectory_limits(endo, u, policy)
    if not base_rep.certified:
        raise Inconclusive("base cotrajectory did not certify", base_rep)
    rhs = base_rep.psi_inv_c_mod_c**k

    try:
        kind, u_minus = chain_limit(endo, u, policy)
    except Inconclusive:
        kind = None
    if kind == "cylinder":
        pk, _ = PowerEndo(endo, k).preimage_cylinder(u_minus)
        lhs = u_minus.index // pk.index
    else:
        # telescope [psi^{-k}(C) : C] through psi^{-j}(C) = C(psi, psi^{-j}(U))
        lhs = 1
        v = u
        for _ in range(k):
            rep = cotrajectory_limits(endo, v, policy)
            if not rep.certified:
                raise Inconclusive("telescoped cotrajectory did not certify", rep)
            lhs *= rep.psi_inv_c_mod_c
            v, _ = endo.preimage_cylinder(v)
    # entropy form of the law: psi^k with respect to C_k(psi, U)
    hk = cotrajectory_limits(PowerEndo(endo, k), cotrajectory(endo, u, k), policy).entropy_limit
    h1 = base_rep.entropy_limit
    ok = lhs == rhs and hk == h1.times(k)
    return CheckRecord(
        f"log_law_k{k}", ok, lhs=lhs, rhs=rhs,
        note=f"H(psi^{k}, C_{k}) = log {hk.log_of} vs k*H(psi, U) = log {h1.log_of**k}",
    )
