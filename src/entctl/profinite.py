"""Profinite abelian groups as full products of finite blocks, open cylinder
subgroups, cotrajectories, and topological entropy.

A group is a full product of finite abelian blocks over N or Z with the
product topology; open subgroups are cylinders, i.e. conditions on a
finite window of coordinates.  Continuous endomorphisms are row-finite:
each output coordinate depends on a band of input coordinates, given on
one period and shifted.  Preimages of cylinders are cylinders, so the
whole cotrajectory calculus happens in finite windows, exactly.

Every walk of a cotrajectory chain C_{n+1} = U n psi^{-1}(C_n), here and
in ``ends``, ``depth`` and ``duality``, reads the one walk of (psi, U)
kept on the map, through ``walk`` or its cylinders, ``chain``, which pull
back only past the kept steps.  How a chain ends is decided in ``ends``;
psi^k is the ``RowFiniteEndo.compose`` of k copies of psi.  One
elimination, ``RowFiniteEndo.pull_back``, gives U n psi^{-1}(C) and
[K : U + psi^{-1}(C)] with rows written from the band (U = K for
``preimage_cylinder``); no step builds a window map, and
``classify_cotrajectory`` builds that of C_n only to read [K : Im(psi) C_n]
at a stall and on the trailing steps of an uncertified walk.  Indices
that are only read, never compared (that one, a window's [window : Im psi],
a cokernel order), come from ``finabel.span_index`` without a normal form.

The chain questions (cotrajectory limits, the chain's limit, window
surjectivity, kernel and cokernel order) are deterministic in the map,
the subgroup and the policy.  A map object remembers the outcomes it has
computed, keyed per question, subgroup and policy, so that the checks of
one run ask each of them once, and the walk of each U it was asked about
(per step C_n, d_n and C_{n+1}; no window maps, no lattices), so that the
questions of one run pull each step back once.  The memory is never
shared between maps and goes away with the map.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import operator
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
    factor_positions,
    joined_pull_back,
    span_index,
)
from .values import (
    DEFAULT_POLICY, CheckRecord, EntropyValue, StabilizationPolicy, read_stall, run_start,
)


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

    def meet_index(self, other: "CylinderSubgroup") -> tuple[int, int, int]:
        """(lo, hi, [K : C n D]) for the canonical window [lo, hi) of C n D, not
        built.  For C, D not K it is their hull: a boundary block not free in C
        (its elements not all in C) is not free in C n D.  [K : C n D] =
        [K : C][K : D] / [K : C + D], the last a ``span_index`` on the hull, to
        which only D's stored rows and the e_t at C's pivots add; C n D pins its
        window when that index is the order of the window's group."""
        if self.is_whole() or other.is_whole():
            e = other if self.is_whole() else self
            return e.lo, e.hi, e.index
        lo, hi = self.hull_with(other)
        ext = self.extended_core(lo, hi)
        o_rows = _shifted(other.core.rows, self.parent.window_layout(lo, hi)[1][other.lo - lo])
        gens = [*o_rows.values(), *({t: 1} for t in ext.rows if t not in o_rows)]
        return lo, hi, self.index * other.index // span_index(ext, gens)

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
    lo, hi = (idx[0], idx[-1] + 1) if idx else (0, 0)
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
    for each term of rows[r].  ``_memo`` remembers the outcomes of the chain
    questions asked of it and, keyed by U, the walk of each chain of U
    (see ``walk``), for as long as the map lives.
    """

    __slots__ = ("_memo",)

    def __init__(
        self, parent: ProGroup, offset: int, width: int, period: int, rows,
        prefix_rows=(),
    ):
        super().__init__(parent, offset, width, period, rows, prefix_rows)
        self._memo: dict = {}

    def window_map(self, lo: int, hi: int) -> tuple[int, int, Hom]:
        """(src_lo, src_hi, h): [src_lo, src_hi) spans the blocks that the
        rows [lo, hi) read, (0, 0) if none, and h maps its window onto the
        window [lo, hi).  h is read off the entries the band checked and
        reduced at construction (``finabel.Band.row_entries``), unchecked."""
        deps = [i + o for i in range(lo, hi) for o, _ in self.row_entries(i)]
        src_lo, src_hi = (min(deps), max(deps) + 1) if deps else (0, 0)
        return src_lo, src_hi, self.band_map(range(lo, hi), src_lo, src_hi)

    def pull_back(self, c: CylinderSubgroup, u: CylinderSubgroup) -> tuple[int, CylinderSubgroup]:
        """([K : U + psi^{-1}(C)], U n psi^{-1}(C)): C.core x U.core pulled back
        under x -> (psi(x) on C's window, x on U's window), from the hull of
        both source windows, the index off U's section.  No window map is
        built: the entry by which coordinate v of block i + o enters C's
        coordinate t of block i (``row_entries``) goes to t's W position in
        the image row of v (``finabel.factor_positions``, ``joined_pull_back``)."""
        if c.parent != self.parent or u.parent != self.parent:
            raise AmbientMismatchError("cylinder over a different group")
        g = self.parent
        terms = [(i, self.row_entries(i)) for i in range(c.lo, c.hi)]
        deps = [i + o for i, entries in terms for o, _ in entries]
        lo, hi = u.lo, u.hi
        if deps:
            src_lo, src_hi = min(deps), max(deps) + 1
            lo, hi = (src_lo, src_hi) if u.is_whole() else (min(lo, src_lo), max(hi, src_hi))
        wg, starts = g.window_layout(lo, hi)
        c_starts = g.window_layout(c.lo, c.hi)[1]
        pos, relation = factor_positions((c.core, u.core))
        at_w = pos.get
        rows = [{} for _ in range(wg.rank)]
        for i, entries in terms:
            a = c_starts[i - c.lo]
            for o, term in entries:
                ss = starts[i + o - lo]
                for v, t, x in term:
                    s = at_w(a + t)
                    if s is not None:
                        rows[ss + v][s] = x
        cut = c.core.ambient.rank
        for j in u.core.rows:
            rows[starts[u.lo - lo] + j][pos[cut + j]] = 1
        core, d = joined_pull_back(rows, relation, wg, cut=len(c.core.rows))
        return d, CylinderSubgroup(g, lo, hi, core)

    def preimage_cylinder(self, c: CylinderSubgroup) -> CylinderSubgroup:
        """psi^{-1}(C): ``pull_back`` with U = K."""
        return self.pull_back(c, self.parent.whole())[1]

    def compose(self, inner: "RowFiniteEndo") -> "RowFiniteEndo":
        """self after inner, as a banded spec: product row i multiplies the
        ``row_entries`` of row i of self and of the rows i + o of inner that
        it reads.  With (P1, L1) and (P2, L2) the ``repeat`` of self and
        inner, the product rows repeat with lcm(L1, L2) from first =
        max(P1, P2 - self.offset) on over N, where the rows below it are
        prefix rows, and from 0 over Z."""
        if self.parent != inner.parent:
            raise AmbientMismatchError("composition across groups")
        g = self.parent
        (p1, l1), (p2, l2) = self.repeat(), inner.repeat()
        period = lcm(l1, l2)
        first = max(p1, p2 - self.offset) if g.index_set == "N" else 0

        def row(i):
            acc: dict[int, list[list[int]]] = {}
            for o1, outer_term in self.row_entries(i):
                for o2, inner_term in inner.row_entries(i + o1):
                    # coordinate v of block i + o1 + o2 enters w of i + o1 by y, u of i by x y
                    mat = acc.setdefault(
                        o1 + o2, [[0] * g.block(i + o1 + o2).rank for _ in range(g.block(i).rank)]
                    )
                    for w, u, x in outer_term:
                        for v, w2, y in inner_term:
                            if w2 == w:
                                mat[u][v] += x * y
            return sorted(acc.items())

        return RowFiniteEndo(
            g, self.offset + inner.offset, self.width + inner.width - 1, period,
            [row(first + (r - first) % period) for r in range(period)], list(map(row, range(first))),
        )

    def equals_spec(self, other: "RowFiniteEndo") -> bool:
        """Same map: the same nonzero ``row_entries`` on the rows up to the
        later repeat point and one period of both bands past it."""
        if self.parent != other.parent:
            return False
        (p1, l1), (p2, l2) = self.repeat(), other.repeat()

        def nonzero_terms(endo, i):
            return {o: term for o, term in endo.row_entries(i) if term}

        return all(
            nonzero_terms(self, i) == nonzero_terms(other, i)
            for i in range(max(p1, p2) + lcm(l1, l2))
        )


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


def walk(endo, u: CylinderSubgroup):
    """Yield (C_n, d_n, C_{n+1}) for n = 1, 2, ... off the walk of U kept in
    ``endo._memo``: C_1 = U, C_{n+1} = U n psi^{-1}(C_n), d_n =
    [K : U + psi^{-1}(C_n)].  Past its end one ``pull_back`` makes and keeps
    the next step.  This is the only place the recurrence is written; the
    walk is read by index, so interleaved readers of one (map, U) share it.
    """
    steps = endo._memo.setdefault((walk, u), [])
    for n in itertools.count():
        if n == len(steps):
            c = steps[-1][2] if steps else u
            steps.append((c, *endo.pull_back(c, u)))
        yield steps[n]


def drop_walk(endo, u: CylinderSubgroup) -> None:
    """Forget the walk of U kept on the map, if any."""
    endo._memo.pop((walk, u), None)


def chain(endo, u: CylinderSubgroup):
    """Yield C_1 = U, C_2, ... off the walk of U; C_{n+1} is pulled back only
    when asked for and not kept yet."""
    yield u
    for _, _, c in walk(endo, u):
        yield c


def cotrajectory(endo, u: CylinderSubgroup, n: int) -> CylinderSubgroup:
    """C_n = U n psi^{-1}(U) n ... n psi^{-(n-1)}(U)."""
    if n < 1:
        raise ValidationError("cotrajectory index must be >= 1")
    return next(itertools.islice(chain(endo, u), n - 1, None))


@dataclass(frozen=True)
class CotrajectoryReport:
    """Stall analysis of the cotrajectory index chain c_n = [K : C_n] read by
    ``values.read_stall``: n0 and n1 are the first steps of the last runs of
    alpha and of [K : U + psi^{-1}(C_n)] at a windowed stall; both are n at an
    exact end (alpha = 1)."""

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
    """Run the cotrajectory chain until it ends or stalls (see
    ``classify_cotrajectory``)."""
    return classify_cotrajectory(endo, u, walk(endo, u), policy)


def classify_cotrajectory(
    endo, u: CylinderSubgroup, steps, policy: StabilizationPolicy
) -> CotrajectoryReport:
    """Read the steps (C_n, d_n, C_{n+1}) of U's ``walk`` under ``endo`` with
    ``values.read_stall``; at most ``policy.max_n`` steps.  The companion is
    d_n = [K : U + psi^{-1}(C_n)], as the step carries it: [C_n : C_{n+1}] =
    [K : U] / (d_n [K : Im(psi) C_n]) (C_{n+1} = U n psi^{-1}(C_n), and
    K / psi^{-1}(C) = (Im(psi) + C) / C), so alpha and d_n hold exactly when
    alpha and [K : Im(psi) C_n] do.

    Certification requires |psi^{-1}(C)/C| = alpha * [K : Im(psi) * C] at the
    stall, with [K : Im(psi) * C_n] a ``span_index`` on the window map of C_n,
    built there, not read off the step's lattice, whose pivots multiply to
    both sides.  An uncertified walk of at least half = max(2, max_n // 2)
    steps is a hypothesis failure when that index grows on each of its last
    half steps, where alone it is read too.
    """
    half = max(2, policy.max_n // 2)
    tail = collections.deque(maxlen=half)
    stall = read_stall(_readings(endo, u, steps, tail), policy, True)
    n = len(stall.alphas)
    c = tuple(itertools.accumulate(stall.alphas, operator.mul, initial=u.index))
    if stall.certified is not None:
        n1 = n if stall.alpha == 1 else run_start(stall.companions)
        return CotrajectoryReport(
            n, c, stall.alphas, stall.n0, stall.alpha, n1, *stall.certified, True, "certified"
        )
    kmls = (span_index(c.core, endo.window_map(c.lo, c.hi)[2].columns) for c in tail)
    grows = len(tail) == half and all(a < b for a, b in itertools.pairwise(kmls))
    status = "hypothesis_failure" if grows else "inconclusive"
    return CotrajectoryReport(n, c, stall.alphas, None, None, None, None, None, False, status)


def _readings(endo, u: CylinderSubgroup, steps, tail):
    """The readings of ``read_stall`` for n = 1, 2, ...: alpha_n =
    [C_n : C_{n+1}], the companion d_n = [K : U + psi^{-1}(C_n)], as the
    step carries it, and the identity, which on success certifies
    |psi^{-1}(C)/C| = [K : U] / d_n and [K : Im(psi) * C].  Each C_n is
    appended to ``tail`` as it passes."""
    c_prev = u.index
    for c_cyl, d, c_next in steps:
        if c_next.index % c_prev:
            raise AssertionError("c_n must divide c_{n+1}")
        tail.append(c_cyl)

        def certify(alpha):
            h = endo.window_map(c_cyl.lo, c_cyl.hi)[2]
            psi_inv, kml = u.index // d, span_index(c_cyl.core, h.columns)
            return (psi_inv, kml) if psi_inv == alpha * kml else None

        yield c_next.index // c_prev, d, certify
        c_prev = c_next.index


@_memoized
def surjective_on_windows(endo, policy: StabilizationPolicy = DEFAULT_POLICY) -> bool:
    """Check window surjectivity up to the budget, on radius 1 and then on
    radius ``window_budget``.

    The outputs on the window of radius r depend only on the source window
    of radius r, which lies inside the source window of every R >= r.  So
    the window map at R, projected onto the outputs of radius r, is the
    window map at r with the extra source coordinates entering by zero;
    a map onto its window at R is onto at every r <= R, and a map that
    fails at some r <= R fails at R.  The verdict at ``window_budget``
    thus decides every radius up to the budget, and a radius between 1
    and the budget cannot change it.  Radius 1 comes first only because
    it is cheap and a map that is not surjective usually fails there.
    A failed window disproves surjectivity; a full window at the budget
    establishes it on every tested finite quotient, and is no proof.
    """
    g = endo.parent
    for radius in sorted({1, policy.window_budget}):
        lo, hi = (0, radius) if g.index_set == "N" else (-radius, radius)
        _, _, h = endo.window_map(lo, hi)
        if span_index(h.target.trivial_subgroup(), h.columns) != 1:
            return False
    return True


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
        band = abs(endo.offset) + endo.width
        rows_idx = [
            i for i in range(lo - band, hi + band)
            if g.valid_index(i) and (terms := endo.row_entries(i))
            and all(lo <= i + o < hi for o, _ in terms)
        ]
        if not rows_idx:
            return g.window_layout(lo, hi)[0].whole_subgroup()
        return endo.band_map(rows_idx, lo, hi).kernel()

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
        qs.append(span_index(h.target.trivial_subgroup(), h.columns))
        if len(qs) >= w and len(set(qs[-w:])) == 1:
            return qs[-1]
        if len(qs) >= 2 and qs[-1] < qs[-2]:
            raise AssertionError("window cokernels must be monotone")
    raise Inconclusive("cokernel order did not stabilize within budget", None)


@dataclass(frozen=True)
class QuotientSystem:
    """The checks of the induced system on K/U_-: mode "whole" when U_- is
    trivial (K itself), "finite" when U_- is an open cylinder, whose
    quotient is read in the window group W of U_- as W / core."""

    mode: str
    u_minus: object
    checks: tuple[CheckRecord, ...]


def quotient_system(
    endo, u: CylinderSubgroup, policy: StabilizationPolicy = DEFAULT_POLICY
) -> QuotientSystem:
    """The induced system on K/U_- together with its one-term entropy check."""
    from .ends import chain_limit

    g = endo.parent
    kind, u_minus = chain_limit(endo, u, policy)
    if kind in ("tail", "constraint"):
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
            return QuotientSystem("whole", None, tuple(checks))
        h = cotrajectory_limits(endo, u, policy).entropy
        expect = EntropyValue.of_log(Fraction(ker, cok))
        checks.append(CheckRecord("ker_order", True, lhs=ker))
        checks.append(CheckRecord("coker_order", True, lhs=cok))
        checks.append(
            CheckRecord("entropy_eq_log_ker_minus_log_coker", h == expect, lhs=h, rhs=expect)
        )
        return QuotientSystem("whole", None, tuple(checks))

    # K/U_- is W / core for the window group W of U_-; psi(U_-) <= U_-, so
    # the window map f of U_- maps core into core and induces the map on it
    window, core = (u_minus.lo, u_minus.hi), u_minus.core
    f = endo.band_map(range(*window), *window)
    # U in W, which holds core; the cotrajectory of U in W/core is C / core
    hull = u.hull_with(u_minus)
    u_image = g.project(u.extended_core(*hull), hull, window)
    c = u_image
    while (c_next := u_image.intersect_with(f.preimage(c))) != c:
        c = c_next
    checks.append(
        CheckRecord(
            "induced_cotrajectory_trivial", c == core, lhs=c.order // core.order, rhs=1
        )
    )
    ker_q = f.preimage(core).order // core.order
    cok_q = span_index(core, f.columns)
    checks.append(
        CheckRecord(
            "finite_entropy_eq_log_ker_minus_log_coker",
            ker_q == cok_q,
            lhs=ker_q,
            rhs=cok_q,
            note="entropy on a finite group is 0",
        )
    )
    return QuotientSystem("finite", u_minus, tuple(checks))


def log_law_check(
    endo, u: CylinderSubgroup, k: int, policy: StabilizationPolicy = DEFAULT_POLICY
) -> CheckRecord:
    """Verify [psi^{-k}(U_-) : U_-] = [psi^{-1}(U_-) : U_-]^k for surjective psi."""
    from .ends import chain_limit

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
    power = functools.reduce(RowFiniteEndo.compose, [endo] * k)
    if kind == "cylinder":
        pk = power.preimage_cylinder(u_minus)
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
            v = endo.preimage_cylinder(v)
    # entropy form of the law: psi^k with respect to C_k(psi, U)
    hk = cotrajectory_limits(power, cotrajectory(endo, u, k), policy).entropy_limit
    h1 = base_rep.entropy_limit
    ok = lhs == rhs and hk == h1.times(k)
    return CheckRecord(
        f"log_law_k{k}", ok, lhs=lhs, rhs=rhs,
        note=f"H(psi^{k}, C_{k}) = log {hk.log_of} vs k*H(psi, U) = log {h1.log_of**k}",
    )
