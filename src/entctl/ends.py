"""How a cotrajectory chain ends, and its limit C(psi, U) when it ends.

A chain C_1 = U, C_{n+1} = U n psi^{-1}(C_n) of cylinders descends to the
closed subgroup C(psi, U).  ``chain_end`` reads off a descending cylinder
stream the ends that show in its windows: an exact fixed point, windows
that grow and are fully pinned, or a half line pinned from one block on
with a fixed residual (a ``TailCylinder``).  The memoised ``chain_limit``
applies it to the chain of U, checks its tails, and proves the one end
that shows in no window: a window constraint repeated on a half line to
the right (a ``HalfLineConstraint``), which ``chain_end`` would walk to
its budget.  ``depth`` reads the preimage of a half line with ``chain_end``
too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import Inconclusive
from .finabel import AbSubgroup, stacked_pull_back
from .profinite import CylinderSubgroup, ProGroup, _memoized, chain
from .values import DEFAULT_POLICY, StabilizationPolicy


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


@dataclass(frozen=True)
class HalfLineConstraint:
    """X = R n {x : x|[i, i + w) lies in K for every i >= start}: one window
    constraint K, a subgroup of the group of w period blocks, repeated on
    the half line to the right, after the finite condition of the residual
    cylinder R on blocks below start + w - 1.  This is a one-sided group
    shift of finite type (Kitchens-Schmidt); a ``TailCylinder`` with side
    +1 is the case w = 1, K = 0.  The blocks from ``start`` on are one
    periodic block G.

    K is kept trimmed to the words that extend: each is the first window of
    a word on w + 1 blocks whose two windows lie in K, so every word of K
    starts a point of the half line, and X is the same with the untrimmed
    K.  ``chain_limit`` returns one as the limit of a chain only once both
    inclusions are proved (X lies in every C_n, and every C_n past the
    walk lies in a truncation of X), and only when K is neither G^w nor
    pins a block and X is no cylinder, pinned half line or trivial group.
    """

    parent: ProGroup
    start: int
    width: int
    window: AbSubgroup
    residual: CylinderSubgroup

    def truncate(self, m: int) -> CylinderSubgroup:
        """The cylinder of R and the windows of X below block m (at least
        start + w): exactly the image of X on those blocks, since a point
        that meets them extends to the right, window by window, inside K."""
        m = max(m, self.start + self.width)
        return _windowed(self.parent, self.residual, self.start, self.window, self.width, m)


def _windowed(parent: ProGroup, res: CylinderSubgroup, start: int, k: AbSubgroup, w: int, m: int):
    """R n {x : x|[i, i + w) in K for start <= i <= m - w} for the residual
    R, as one cylinder: the pull-back of K x ... x K x R.core under x ->
    (its windows, x on R's window), one elimination."""
    lo, hi = (start, m) if res.is_whole() else (min(res.lo, start), max(res.hi, m))
    wg, starts = parent.window_layout(lo, hi)
    placed = [(i, k) for i in range(start, m - w + 1)]
    if not res.is_whole():
        placed.append((res.lo, res.core))
    images = [{} for _ in range(wg.rank)]
    at = 0
    for first, sub in placed:
        for j in range(sub.ambient.rank):
            images[starts[first - lo] + j][at + j] = 1
        at += sub.ambient.rank
    core = stacked_pull_back([sub for _, sub in placed], images, wg)
    return CylinderSubgroup(parent, lo, hi, core)


def _image(c: CylinderSubgroup, lo: int, hi: int) -> AbSubgroup:
    """The image of the cylinder ``c`` in the group of the blocks [lo, hi)."""
    g = c.parent
    if c.is_whole():
        return g.window_layout(lo, hi)[0].whole_subgroup()
    a, b = min(c.lo, lo), max(c.hi, hi)
    return g.project(c.extended_core(a, b), (a, b), (lo, hi))


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


def stall_wait(endo, policy: StabilizationPolicy) -> int:
    """The number of cylinders over which ``chain_end``'s patterns must hold
    for the chains of ``endo``: ``stall_window``, or P + L of its band if
    larger, since the rows before the repeat point and one period of them
    can grow pinned windows that later stall."""
    return max(policy.stall_window, sum(endo.repeat()))


def chain_end(cylinders, policy: StabilizationPolicy, w: int):
    """Candidate ends of a descending cylinder stream, read off at most
    ``policy.max_n + 1`` cylinders.  It ends on ("cylinder", C) at two equal
    successive cylinders and on ("trivial", n) when ``pins_growing_windows``
    holds over ``w`` cylinders at the (n+1)-th; it yields ("tail",
    TailCylinder) and goes on when the pinned run at one end starts at one
    block and grows on the last ``w`` cylinders while the rest projects to
    one residual (projected only once the integer boundaries and extents
    hold).  Both patterns are read from the second cylinder on, pinned
    windows first, since over N they also match a tail.  ``w`` is the map's
    ``stall_wait``.  Raises Inconclusive past the budget, as on a chain
    whose limit is a ``HalfLineConstraint``: no window shows that end, and
    only ``chain_limit`` proves it, by the two inclusions X <= lim (X lies
    in U and in psi^{-1}(X)) and lim <= X (the walked cylinders are
    truncations of X whose windows propagate).
    """
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
    that holds, or ("constraint", X) for a ``HalfLineConstraint`` X.

    A tail holds when it satisfies V = U n psi^{-1}(V) on ``stall_window``
    truncations (any fixed point lies in every C_n, and the chain's pinned
    windows force the reverse inclusion); one that fails, as the early
    growth of a map of longer period may, is passed over.

    Once the walk has passed ``stall_wait`` cylinders, each cylinder that
    ``chain_end`` passes without an end is offered to ``_constraint_end``,
    which reads a constraint X = R n {x|[i, i + w) in K for i >= s} off the
    last cylinders and proves both inclusions on finite windows:

    - X <= lim: X <= U and X <= psi^{-1}(X), so X lies in every C_n;
    - lim <= X: the walked C_N is R n Q_[s,t)(K), the windows of K in
      [s, t) after R, and the windows before any t' >= t with their
      pull-backs imply the window that ends at block t'; since C_{n+1} <=
      C_n n psi^{-1}(C_n), each later C_n lies in R n Q_[s,t')(K) with t'
      one block further a step, and their intersection is X.

    It also proves that no cylinder, trivial or tail end can follow, so
    the proved X ends a walk that ``chain_end`` would run to its budget.
    """
    band = abs(endo.offset) + endo.width
    wait = stall_wait(endo, policy)
    proved = []

    def walk():
        # a proved constraint stops the stream; chain_end then gives up
        recent = []
        for n, c in enumerate(chain(endo, u), 1):
            yield c
            recent.append(c)
            del recent[:-wait]
            if n > wait and (end := _constraint_end(endo, u, recent)):
                proved.append(end)
                return

    try:
        for kind, obj in chain_end(walk(), policy, wait):
            if kind != "tail":
                return kind, obj
            for extra in range(policy.stall_window):
                m = abs(obj.pin_from) + 2 * band + 2 + extra
                fixed = endo.pull_back(obj.truncate(m), u)[1]
                extent = fixed.hi if obj.side == +1 else -fixed.lo
                if extent < m - band or fixed != obj.truncate(extent):
                    break
            else:
                return kind, obj
    except Inconclusive:
        if not proved:
            raise
        return "constraint", proved[0]


def _constraint_end(endo, u: CylinderSubgroup, recent):
    """The ``HalfLineConstraint`` X that is the limit of the chain of U, read
    off its last cylinders ``recent`` (C_N last, on [lo, t)) and proved, or
    None; a failed check leaves the walk going on.

    Scope: a band and blocks of period 1 from the repeat point P on, and
    cylinders that keep their first block, grow by the same step and have
    no pinned run at either end.  The proposal: K, the image of the newest
    w blocks, the same in every cylinder of ``recent`` and not G^w; s, the
    first block of the run of windows of C_N in K that ends at t; R, the
    image of C_N before block s + w - 1.

    The checks (span = w + band; from block p = max(s, P) on, a window's
    rows and blocks repeat with period 1, so a check on one window there
    holds at every later one):
    - lim <= X: C_N = R n Q_[s,t)(K), and on [t - span, t), past p, the
      windows of K and their pull-backs imply the window that ends at t;
    - X <= lim: X <= U, and X <= psi^{-1}(X) on R and the windows up to
      p + span, read on the exact images of X (``truncate``), and on the
      window at p + span from its neighbourhood of windows of K;
    - no finite-window end: the images A_i of X on the windows [i, i + w)
      obey A_{i+1} = F(A_i) for a monotone F, so A_{t-w} <= A_{t-w+1}
      gives A_i >= A_{t-w} at every later i.  As A_{t-w} pins no block,
      no later C_n is pinned at its last block; each keeps block lo, which
      X leaves free below, so no trivial end or tail follows, and X, with
      K not G^w, is no cylinder.
    """
    g = endo.parent
    cur = recent[-1]
    lo, t = cur.lo, cur.hi
    grown = {b.hi - a.hi for a, b in zip(recent, recent[1:])}
    if endo.repeat()[1] != 1 or len(grown) != 1 or min(grown) < 1:
        return None
    if any(c.lo != lo for c in recent) or any(_pinned_ends(cur).values()):
        return None
    floor = lo if g.index_set == "Z" else max(lo, len(g.prefix))
    band = abs(endo.offset) + endo.width
    for w in range(1, band + u.hi - u.lo + 1):
        if recent[0].hi - w < floor:
            break
        k = _image(cur, t - w, t)
        if k.index > 1 and all(_image(c, c.hi - w, c.hi) == k for c in recent[:-1]):
            end = _proved_constraint(endo, u, cur, k, w, floor)
            if end is not None:
                return end
    return None


def _proved_constraint(endo, u: CylinderSubgroup, cur: CylinderSubgroup, k: AbSubgroup, w: int, floor: int):
    """The proposal of ``_constraint_end`` for K and w, if it is proved."""
    g, t = endo.parent, cur.hi
    span = w + abs(endo.offset) + endo.width
    s = t - w
    while s > floor and k.contains_subgroup(_image(cur, s - 1, s - 1 + w)):
        s -= 1
    # the first window from which rows and blocks repeat with period 1
    p = max(s, endo.repeat()[0]) if g.index_set == "N" else s
    if t - span < p:
        return None
    res = _residual_of(cur, s + w - 1, +1)
    if _windowed(g, res, s, k, w, t) != cur:
        return None
    local = _windowed(g, g.whole(), t - span, k, w, t)
    if not CylinderSubgroup(g, t - w + 1, t + 1, k).contains_cylinder(endo.pull_back(local, local)[1]):
        return None
    x = HalfLineConstraint(g, s, w, _extending(g, k, w, s), res)
    if not u.contains_cylinder(x.truncate(u.hi)):
        return None
    generic = p + span
    pre = endo.preimage_cylinder(x.truncate(generic + w))
    if not pre.contains_cylinder(x.truncate(pre.hi)):
        return None
    local = _windowed(g, g.whole(), generic - span, x.window, w, generic + span)
    at_generic = CylinderSubgroup(g, generic, generic + w, x.window)
    if not endo.preimage_cylinder(at_generic).contains_cylinder(local):
        return None
    last = x.truncate(t + 1)
    if last.pinned_blocks().intersection(range(t - w, t)):
        return None
    if not _image(last, t - w + 1, t + 1).contains_subgroup(_image(last, t - w, t)):
        return None
    return x


def _extending(g: ProGroup, k: AbSubgroup, w: int, at: int) -> AbSubgroup:
    """K trimmed to its words that extend forever to the right: the words
    with no successor in K are dropped until none is, a descending chain
    of finite subgroups, so it ends.  ``at`` is a periodic block."""
    while True:
        kept = _image(_windowed(g, g.whole(), at, k, w, at + w + 1), at, at + w)
        if kept == k:
            return k
        k = kept
