"""Locally finite groups as restricted direct sums of finite blocks, banded
endomorphisms, trajectories, and algebraic entropy.

Elements are sparse: a dict mapping block index (a natural number) to a
nonzero block value, a coordinate tuple for abelian blocks or an element
index for Cayley blocks.  An endomorphism is specified on one period of
block generators by finite-support images shifted along the index line,
so every evaluation stays inside a finite window that can be inferred.

Abelian blocks share their window layout with the full products of
``profinite`` (``finabel.BlockSequence``): the blocks [0, hi) lie one after
another in one flat coordinate vector.  The abelian trajectory runs on it
alone: its layers and lattice rows are {coordinate: value} maps, and the
endomorphism acts through ``BandedEndo.window_map``, the map of the window
read off the entries that the endomorphism's ``finabel.Band`` checked at
construction.  Windows start at 0, so when a step reaches new blocks the
trajectory appends their columns to its map and keeps the old ones; each
column is built once per walk.  ``BandedEndo.apply`` acts on block
elements; the Cayley trajectory and the public API use it.

A certified ``TrajectoryReport`` gives the entropy two ways: from the
stabilized index [T_{n+1} : T_n] of the trajectory chain, and limit-free as
log |T/phi(T)| - log |ker phi n T|, with an independent cross-identity
required before a stall is certified.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
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
    echelon_subgroup,
    image_rows,
    repeat_point,
)
from .gengroup import FiniteGroup
from .lattice import ZLattice, congruence_kernel, joined_rows
from .values import DEFAULT_POLICY, EntropyValue, StabilizationPolicy, read_stall


@dataclass(frozen=True)
class LFGroup(BlockSequence):
    """Restricted direct sum of finite blocks indexed by the naturals.

    The block sequence is ``prefix`` followed by ``period`` repeated
    forever.  Blocks are all FiniteAbelianGroup or all FiniteGroup; the
    window layouts and coordinate conversions of ``BlockSequence`` need
    abelian blocks.
    """

    prefix: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise ValidationError("period must contain at least one block")
        blocks = tuple(self.prefix) + tuple(self.period)
        abelian = all(isinstance(b, FiniteAbelianGroup) for b in blocks)
        cayley = all(isinstance(b, FiniteGroup) for b in blocks)
        if not (abelian or cayley):
            raise ValidationError("blocks must be all abelian or all Cayley groups")
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))
        object.__setattr__(self, "_layouts", {})

    @property
    def is_abelian(self) -> bool:
        return isinstance(self.period[0], FiniteAbelianGroup)

    def identity(self) -> dict:
        return {}

    def reduce_elem(self, raw: dict) -> dict:
        out = {}
        for i, v in raw.items():
            b = self.block(i)
            if self.is_abelian:
                rv = b.reduce(v)
                if any(rv):
                    out[i] = rv
            else:
                iv = int(v)
                if not (0 <= iv < b.order):
                    raise DimensionError(f"element index {iv} invalid in block {i}")
                if iv != b.identity:
                    out[i] = iv
        return out

    def add(self, a: dict, b: dict) -> dict:
        """Group operation (written additively; blockwise product in general)."""
        out = dict(a)
        for i, v in b.items():
            blk = self.block(i)
            if i in out:
                w = blk.add(out[i], v) if self.is_abelian else blk.mul(out[i], v)
                if (self.is_abelian and any(w)) or (
                    not self.is_abelian and w != blk.identity
                ):
                    out[i] = w
                else:
                    del out[i]
            else:
                out[i] = v
        return out

    def neg(self, a: dict) -> dict:
        if self.is_abelian:
            return {i: self.block(i).neg(v) for i, v in a.items()}
        return {i: self.block(i).inv(v) for i, v in a.items()}

    def max_support(self, a: dict) -> int:
        return max(a.keys(), default=-1)


def locally_finite_group(prefix, period) -> LFGroup:
    return LFGroup(tuple(prefix), tuple(period))


def freeze_elem(elem: dict) -> tuple:
    return tuple(sorted(elem.items()))


class BandedEndo:
    """Endomorphism with finite-support generator images, shifted periodically.

    For abelian groups, images[r][j] lists (offset, vector) terms: the j-th
    generator of block i (i = r mod period) maps to the sum of those
    vectors placed at blocks i + offset.  Terms landing at negative indices
    are dropped, which is the restriction homomorphism at the boundary.
    The images are read once into ``band``, the ``finabel.Band`` that
    checks and applies the map: output block t reads input block t - o
    through the matrix whose column j sums generator j's image terms at
    offset o.  For Cayley blocks, images[r][x] gives the full image of
    block element x as a list of (offset, element index) factors, and
    ``band`` is None.
    """

    __slots__ = ("group", "offset", "width", "period", "images", "band")

    def __init__(self, group: LFGroup, offset: int, width: int, period: int, images):
        if width < 1 or period < 1:
            raise ValidationError("band width and period must be positive")
        self.group = group
        self.offset = int(offset)
        self.width = int(width)
        self.period = int(period)
        self.images = tuple(
            tuple(tuple((int(o), tuple(v) if group.is_abelian else int(v)) for o, v in gen_img)
                  for gen_img in res)
            for res in images
        )
        if len(self.images) != period:
            raise ValidationError("images must cover one full period")
        self._validate()
        self.band = self._band() if group.is_abelian else None

    def _terms_for(self, i: int):
        return self.images[i % self.period]

    def _validate(self) -> None:
        g = self.group
        abelian = g.is_abelian
        lo, hi = self.offset, self.offset + self.width
        # past the rows [0, P + L), a block's images, its block and the
        # blocks they reach repeat
        rows = range(sum(repeat_point(g, self.offset, self.period)))
        for i in rows:
            blk = g.block(i)
            res = self._terms_for(i)
            size = blk.rank if abelian else blk.order
            if len(res) != size:
                raise ValidationError(f"block {i} needs {size} images but {len(res)} are given")
            if abelian:
                continue
            for terms in res:
                for o, idx in terms:
                    if not (lo <= o < hi):
                        raise ValidationError(
                            f"offset {o} outside band [{lo}, {hi}) at block {i}"
                        )
                    t = i + o
                    if t >= 0 and not (0 <= idx < g.block(t).order):
                        raise ValidationError(
                            f"image index {idx} invalid at block {t}"
                        )
        if not abelian:
            self._validate_cayley_homomorphism(rows)

    def _band(self) -> Band:
        """The abelian images as a band (``finabel.image_rows``), checked by it."""
        return Band(self.group, 1 - self.offset - self.width, self.width, self.period,
                    image_rows(self.period, self.images))

    def _image_of_block_elem(self, i: int, x: int) -> dict:
        """Image of a single-block element of a Cayley block, as a sparse element."""
        g = self.group
        out: dict = {}
        for o, idx in self._terms_for(i)[x]:
            t = i + o
            if t < 0:
                continue
            out = g.add(out, {t: idx})
        return g.reduce_elem(out)

    def _validate_cayley_homomorphism(self, rows: range) -> None:
        g = self.group
        for i in rows:
            blk = g.block(i)
            imgs = [self._image_of_block_elem(i, x) for x in range(blk.order)]
            for a in range(blk.order):
                for b in range(blk.order):
                    lhs = g.add(imgs[a], imgs[b])
                    rhs = imgs[blk.mul(a, b)]
                    if lhs != rhs:
                        raise ValidationError(
                            f"block {i}: images do not respect the Cayley table "
                            f"at ({a}, {b})"
                        )
            # images of distinct blocks must commute for the blockwise
            # extension to be a homomorphism; a pair repeats with its
            # first row, and the images of rows a band apart are disjoint
            for i2 in range(i + 1, i + abs(self.offset) + self.width + 1):
                blk2 = g.block(i2)
                imgs2 = [self._image_of_block_elem(i2, x) for x in range(blk2.order)]
                for a in range(1, blk.order):
                    for b in range(1, blk2.order):
                        if g.add(imgs[a], imgs2[b]) != g.add(imgs2[b], imgs[a]):
                            raise ValidationError(
                                f"images of blocks {i} and {i2} do not commute"
                            )

    def apply(self, elem: dict) -> dict:
        if self.band is not None:
            return self.band.apply(elem)
        g = self.group
        out: dict = {}
        for i, x in sorted(elem.items()):
            out = g.add(out, self._image_of_block_elem(i, x))
        return g.reduce_elem(out)

    def image_reach(self, hi: int) -> int:
        """Exclusive upper bound of the image support of elements in [0, hi)."""
        return max(hi + max(0, self.offset + self.width - 1), 1)

    def window_map(self, lo: int, hi: int) -> Hom:
        """The map on the blocks [lo, hi), abelian blocks only: window group
        of [lo, hi) -> window group of [0, image_reach(hi)), read off the
        entries that ``band`` checked and reduced at construction
        (``finabel.Band.band_map``), not checked again.

        Targets start at 0, so a column has the same entries in the map of
        every window that holds its block: the map of [0, hi) is those of
        [0, lo) and [lo, hi) side by side.
        """
        return self.band.band_map(range(self.image_reach(hi)), lo, hi)


def banded_endo(group: LFGroup, offset: int, width: int, period: int, images) -> BandedEndo:
    return BandedEndo(group, offset, width, period, images)


@dataclass(frozen=True)
class LFSubgroup:
    """A finite subgroup of an LFGroup, materialized in a window [0, hi)."""

    group: LFGroup
    window_hi: int
    subgroup: AbSubgroup | None = None
    elements: frozenset | None = None

    @property
    def order(self) -> int:
        if self.subgroup is not None:
            return self.subgroup.order
        return len(self.elements)


@dataclass(frozen=True)
class TrajectoryReport:
    """Stall analysis of the trajectory chain T_n = F phi(F) ... phi^{n-1}(F):
    the indices [T_{n+1} : T_n] that ``values.read_stall`` read, and n0, the
    first step of alpha's last run (n at an exact end, alpha = 1)."""

    n_max: int
    orders: tuple[int, ...]
    alphas: tuple[int, ...]
    n0: int | None
    alpha: int | None
    t_mod_phi_t: int | None
    ker_cap_t: int | None
    certified: bool
    status: str
    f_order: int

    def _certified(self) -> "TrajectoryReport":
        if not self.certified:
            raise Inconclusive("trajectory did not stall within budget", self)
        return self

    @property
    def entropy(self) -> EntropyValue:
        """The limit-free entropy log |T/phi(T)| - log |ker phi n T|."""
        rep = self._certified()
        return EntropyValue.of_log(Fraction(rep.t_mod_phi_t, rep.ker_cap_t))

    @property
    def entropy_limit(self) -> EntropyValue:
        """log alpha, from the stabilized index chain; equals ``entropy``."""
        return EntropyValue.of_log(self._certified().alpha)

    @property
    def yuzvinski_gap(self) -> EntropyValue:
        """log |T/phi(T)| alone, the uncorrected one-term formula: the
        entropy for injective maps, above it for non-injective ones."""
        return EntropyValue.of_log(self._certified().t_mod_phi_t)


class _AbelianTrajectory:
    """T_n and phi(T_n) as lattices on the coordinates of the window [0, hi)
    of the blocks reached so far, relations included.  Layers and lattice
    rows are {coordinate: value} maps; phi acts through the window map of
    the current window, grown by the columns of the new blocks when the
    window grows.
    """

    def __init__(self, endo: BandedEndo, f_gens: list[dict]):
        self.endo = endo
        self.group = g = endo.group
        self.hi = max(max(map(g.max_support, f_gens), default=-1) + 1, 1)
        self.f_group, _ = g.window_layout(0, self.hi)
        f_rows = [g.coords(x, 0, self.hi) for x in f_gens]
        self.f_sub = canonical_subgroup(self.f_group, f_rows)
        self.f_order = self.f_sub.order
        self.lat_t = self.f_group.relation_lattice()
        self.lat_phit = self.f_group.relation_lattice()
        self.layers = [f_rows]
        for x in f_rows:
            self.lat_t.add(x)
        self.orders = [self._order(self.lat_t)]  # |T_1|, |T_2|, ...
        self.phit_orders: list[int] = []  # |phi(T_1)|, ...
        self.map = endo.window_map(0, self.hi)

    def _order(self, lat: ZLattice) -> int:
        return self.group.window_layout(0, self.hi)[0].order // lat.pivot_product()

    def step(self) -> None:
        g, h = self.group, self.map
        nxt = [h.apply_map(x) for x in self.layers[-1]]
        self.layers.append(nxt)
        # the block after the one that holds the largest coordinate reached
        _, starts = g.window_layout(0, self.endo.image_reach(self.hi))
        hi = bisect.bisect_right(starts, max((max(x) for x in nxt if x), default=-1))
        if hi > self.hi:
            new = self.endo.window_map(self.hi, hi)
            wg, _ = g.window_layout(0, hi)
            self.map = Hom(wg, new.target, h.columns + new.columns)
            self.hi = hi
            new_moduli = wg.moduli[self.lat_t.width :]
            self.lat_t.extend(wg.rank, new_moduli)
            self.lat_phit.extend(wg.rank, new_moduli)
        for x in nxt:
            self.lat_t.add(x)
            self.lat_phit.add(x)
        self.orders.append(self._order(self.lat_t))
        self.phit_orders.append(self._order(self.lat_phit))

    def f_cap_phit_order(self) -> int:
        """|F n phi(T_n)| for the current n: the kernel's index read off
        the pivots on the payload columns, no kernel row built."""
        f_rows, lat = self.f_sub.hnf_rows(), self.lat_phit
        mods = self.f_group.moduli
        rows = joined_rows(f_rows, lat.width, lat, mods, f_rows)
        _, index = congruence_kernel(rows, lat.width, lat, mods, range(lat.width, lat.width + len(mods)))
        return self.f_group.order // index

    def kernel_cap_t_order(self) -> int:
        """|ker phi n T_n|: the combinations of T_n's echelon rows whose
        image under the window map vanishes, one elimination, its index
        read off the pivots on the payload columns.  An implicit m_j e_j of
        T_n maps to 0 and is the kernel's implicit row: it is not joined."""
        h = self.map
        t_rows = list(self.lat_t.stored_rows().values())
        tgt, mods = h.target, h.source.moduli
        rel = tgt.relation_lattice()
        rows = joined_rows([h.apply_map(r) for r in t_rows], tgt.rank, rel, mods, t_rows)
        _, index = congruence_kernel(rows, tgt.rank, rel, mods, range(tgt.rank, tgt.rank + len(mods)))
        return h.source.order // index

    def snapshot(self) -> LFSubgroup:
        wg, _ = self.group.window_layout(0, self.hi)
        rows = {p: dict(r) for p, r in self.lat_t.row_maps().items()}
        return LFSubgroup(self.group, self.hi, subgroup=echelon_subgroup(wg, rows, wg.moduli))


class _CayleyTrajectory:
    """T_n and phi(T_n) as element sets, generated by the layers:
    T_{n+1} = <layers 0..n> and phi(T_n) = <layers 1..n>."""

    def __init__(self, endo: BandedEndo, f_gens: list[dict]):
        self.endo = endo
        self.group = endo.group
        self.f_elems = self._close(frozenset(), f_gens)
        self.f_order = len(self.f_elems)
        self.t_elems = self.f_elems
        self.layers = [list(f_gens)]
        self.orders = [len(self.t_elems)]
        self.phit_elems = frozenset({freeze_elem({})})
        self.phit_orders: list[int] = []

    def _close(self, sub: frozenset, gens: list[dict]) -> frozenset:
        """The subgroup generated by the subgroup ``sub`` and ``gens``, for
        ``gens`` that generate ``sub`` too: the closure of ``sub`` and the
        identity under right multiplication by ``gens`` (in a finite group
        the monoid that generators span is the group)."""
        g = self.group
        elems = set(sub)
        elems.add(freeze_elem({}))
        frontier = list(elems)
        while frontier:
            new = []
            for fx in frontier:
                x = dict(fx)
                for s in gens:
                    fy = freeze_elem(g.add(x, s))
                    if fy not in elems:
                        elems.add(fy)
                        new.append(fy)
            frontier = new
        return frozenset(elems)

    def check_f_normal(self) -> None:
        """t f t^-1 in F for the newest layer's elements t and the generators
        f of F.  The layers before it passed at their step and together they
        generate T, and a finite F with t F t^-1 inside it is normalised by t."""
        g = self.group
        for t in self.layers[-1]:
            t_inv = g.neg(t)
            for f in self.layers[0]:
                if freeze_elem(g.add(g.add(t, f), t_inv)) not in self.f_elems:
                    raise HypothesisFailure(
                        "F is not normal in the subgroup generated by its trajectory"
                    )

    def step(self) -> None:
        nxt = [self.endo.apply(x) for x in self.layers[-1]]
        self.layers.append(nxt)
        self.t_elems = self._close(self.t_elems, [x for layer in self.layers for x in layer])
        self.phit_elems = self._close(
            self.phit_elems, [x for layer in self.layers[1:] for x in layer]
        )
        self.orders.append(len(self.t_elems))
        self.phit_orders.append(len(self.phit_elems))
        self.check_f_normal()

    def f_cap_phit_order(self) -> int:
        return len(self.f_elems & self.phit_elems)

    def kernel_cap_t_order(self) -> int:
        count = 0
        for fx in self.t_elems:
            if not self.endo.apply(dict(fx)):
                count += 1
        return count

    def snapshot(self) -> LFSubgroup:
        hi = 0
        for fx in self.t_elems:
            for i, _ in fx:
                hi = max(hi, i + 1)
        return LFSubgroup(self.group, hi, elements=frozenset(self.t_elems))


def _make_engine(endo: BandedEndo, f_gens):
    gens = [endo.group.reduce_elem(dict(x)) for x in f_gens]
    gens = [x for x in gens if x]
    if endo.group.is_abelian:
        return _AbelianTrajectory(endo, gens), gens
    eng = _CayleyTrajectory(endo, gens)
    eng.check_f_normal()
    return eng, gens


def trajectory_engines(endo: BandedEndo, f_gens):
    """Yield the one trajectory engine at T_1 = F, T_2, ...: the engine at
    T_n, before its step n.

    This is the only walk of a trajectory; every reader runs on it.  The
    engine is one object, stepped in place when the next one is asked for,
    so a reader that keeps T_n takes its ``snapshot`` as it passes.
    """
    engine, _ = _make_engine(endo, f_gens)
    while True:
        yield engine
        engine.step()


def trajectory(endo: BandedEndo, f_gens, n: int) -> LFSubgroup:
    """T_n = F phi(F) ... phi^{n-1}(F) inside its inferred window."""
    if n < 1:
        raise ValidationError("trajectory index must be >= 1")
    return next(itertools.islice(trajectory_engines(endo, f_gens), n - 1, None)).snapshot()


def trajectory_limits(
    endo: BandedEndo, f_gens, policy: StabilizationPolicy = DEFAULT_POLICY
) -> TrajectoryReport:
    """Run the trajectory chain until the index stalls and certify the stall
    (see ``classify_trajectory``)."""
    return classify_trajectory(trajectory_engines(endo, f_gens), policy)


def classify_trajectory(engines, policy: StabilizationPolicy) -> TrajectoryReport:
    """Read the engines at T_1, T_2, ... of ``trajectory_engines`` with
    ``values.read_stall``; at most ``policy.max_n`` steps.

    Certification requires the stabilized index alpha together with the
    independent cross-identity [T_{n+1} : phi(T_n)] = alpha * |ker phi n T_n|
    at the stall point; without both it reports inconclusive.
    """
    engine = next(engines)
    if not engine.layers[0]:  # F reduces to 0
        return TrajectoryReport(
            n_max=1, orders=(1,), alphas=(), n0=1, alpha=1,
            t_mod_phi_t=1, ker_cap_t=1, certified=True, status="certified", f_order=1,
        )
    stall = read_stall(_readings(engines, engine.f_order), policy, engine.group.is_abelian)
    t_mod, ker = stall.certified or (None, None)
    return TrajectoryReport(
        n_max=len(stall.alphas), orders=tuple(engine.orders), alphas=stall.alphas, n0=stall.n0,
        alpha=stall.alpha, t_mod_phi_t=t_mod, ker_cap_t=ker, certified=stall.certified is not None,
        status="inconclusive" if stall.certified is None else "certified", f_order=engine.f_order,
    )


def _readings(engines, f_order: int):
    """The readings of ``read_stall`` for n = 1, 2, ...: alpha_n =
    [T_{n+1} : T_n], the companion |T_n| / |phi(T_n)|, and the
    cross-identity, which on success certifies |T/phi(T)| =
    |F| / |F n phi(T_n)| and |ker phi n T| = |ker phi n T_n|, each an
    elimination of its own.  T_{n+1} = F phi(T_n) gives |F n phi(T_n)| =
    |F| / (alpha_n |T_n| / |phi(T_n)|), so alpha and the companion hold
    exactly when alpha and |F n phi(T_n)| do."""
    for n, engine in enumerate(engines, 1):
        t_next, t_cur, phit = engine.orders[n], engine.orders[n - 1], engine.phit_orders[n - 1]
        if t_next % t_cur:
            raise AssertionError("trajectory orders must divide")
        kmon = t_cur // phit

        def certify(alpha):
            ker = engine.kernel_cap_t_order()
            if ker != kmon or t_next // phit != alpha * ker:
                return None
            return f_order // engine.f_cap_phit_order(), ker

        yield t_next // t_cur, kmon, certify
