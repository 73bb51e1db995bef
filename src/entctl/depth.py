"""Finite-depth machinery for banded automorphisms of two-sided products.

The inverse of a banded automorphism is found by solving psi(y) = e for
each generator on growing windows and verified exactly by composing the
banded specs both ways.  Antistability of an open subgroup is certified
from band geometry: the partial two-sided cotrajectories must pin every
coordinate of monotonically growing windows.  The depth index is computed
through both one-sided cotrajectories and must agree; the entropy-depth
identity is cross-checked over the canonical shrinking base.

Antistability is decided in constraint form, on the characters that
vanish on the partial intersections: one echelon lattice grows by the
layers psi-hat^{+-n}(U-perp) (``antistable_check``), so no cylinder is
pulled back and no walk is left on either map, and pinning is decided by
``ends.pins_growing_windows``.  The depth values come from the other
engine: every one-sided chain here (U_+/U_-, the depth indices, the
shrinking base) is read off the walk of (psi, U) kept on the map by
``profinite.chain``, so the checks of one run pull each step back once,
and only for a candidate certified antistable.  U_+ and U_- are the limits
``ends.chain_limit`` finds, and the preimage of a half line is read by
``ends.chain_end`` off the preimages of its truncations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm, prod

from .duality import annihilator, dual_group
from .errors import Inconclusive, InversionFailure, HypothesisFailure, ValidationError
from .ends import TailCylinder, chain_end, chain_limit, pins_growing_windows, stall_wait
from .finabel import canonical_subgroup, image_rows
from .lattice import ZLattice, congruence_kernel, joined_rows
from .profinite import (
    CylinderSubgroup,
    ProGroup,
    RowFiniteEndo,
    chain,
    cotrajectory_limits,
    identity_endo,
)
from .values import DEFAULT_POLICY, CheckRecord, EntropyValue, StabilizationPolicy


def _solve_on_window(endo: RowFiniteEndo, target_block: int, target_vec, radius: int):
    """Solve psi(y) = e for y supported on [target_block - radius, + radius].

    Returns the sparse solution or None when no solution with that support
    exists.  A window solution solves the global equation exactly: rows
    outside the scanned range see only zero inputs.
    """
    g = endo.parent
    lo = target_block - radius
    hi = target_block + radius + 1
    wg, _ = g.window_layout(lo, hi)
    scan_lo = lo - abs(endo.offset) - endo.width - 1
    scan_hi = hi + abs(endo.offset) + endo.width + 1
    rows_idx = [
        j for j in range(scan_lo, scan_hi)
        if any(lo <= j + o < hi for o, _ in endo.row_entries(j))
    ]
    if target_block not in rows_idx:
        return None
    h = endo.band_map(rows_idx, lo, hi)
    tgt = h.target
    t_at = sum(g.block(j).rank for j in rows_idx[: rows_idx.index(target_block)])

    # kernel of (s, y) -> s * (-t) + y * M  modulo the target relations
    c = lcm(1, *tgt.moduli)
    map_rows = [{t_at + u: -x for u, x in enumerate(target_vec) if x}, *h.columns]
    rel, mods = tgt.relation_lattice(), [c] * (wg.rank + 1)
    kernel = congruence_kernel(joined_rows(map_rows, tgt.rank, rel, mods), tgt.rank, rel, mods)
    # the echelon row at payload column 0 is the one with s != 0; when none
    # is stored it is the implicit c e_0, which has s = 1 when c = 1
    combo = kernel.get(0, {0: c})
    if combo[0] != 1:
        return None
    return g.elem_of({t - 1: x for t, x in combo.items() if t}, lo, hi)


def invert(endo: RowFiniteEndo, policy: StabilizationPolicy = DEFAULT_POLICY) -> RowFiniteEndo:
    """Banded inverse of a banded automorphism, verified exactly.

    Solves psi(y) = e blockwise on windows up to four band widths (or
    ``policy.stall_window``, if larger), assembles the candidate, and
    requires both spec compositions to equal the identity.  Raises
    InversionFailure when no banded inverse exists within the budget.
    """
    g = endo.parent
    if g.index_set != "Z":
        raise ValidationError("inversion is implemented for Z-indexed groups")
    band = abs(endo.offset) + endo.width
    radius_cap = max(4 * band, policy.stall_window)
    p = lcm(endo.period, len(g.period))
    # images[r][u]: the solution for generator u of block r, as image terms
    images = []
    for r in range(p):
        blk = g.block(r)
        images.append([])
        for u in range(blk.rank):
            target = [0] * blk.rank
            target[u] = 1
            sol = None
            for radius in range(band, radius_cap + 1):
                sol = _solve_on_window(endo, r, target, radius)
                if sol is not None:
                    break
            if sol is None:
                raise InversionFailure(
                    f"no banded preimage of generator {u} of block {r} "
                    f"within radius {radius_cap}"
                )
            images[r].append([(i - r, vec) for i, vec in sol.items()])
    rows = image_rows(p, images)
    offsets = [o for terms in rows for o, _ in terms] or [0]
    o_lo = min(offsets)
    inv = RowFiniteEndo(g, o_lo, max(offsets) - o_lo + 1, p, rows)
    ident = identity_endo(g)
    if not endo.compose(inv).equals_spec(ident) or not inv.compose(endo).equals_spec(ident):
        raise InversionFailure("candidate inverse fails the two-sided composition check")
    return inv


@dataclass(frozen=True)
class AntistableCertificate:
    status: str  # "antistable" | "not_antistable" | "unknown"
    n: int | None = None
    window: tuple[int, int] | None = None
    witness: object = None


def _dual_entries(endo: RowFiniteEndo, i: int) -> list[list[tuple[int, int, int]]]:
    """Row i of the band transposed for characters, the rule of
    ``duality.dual_map`` read backwards: for coordinate u of block i, the
    (o, v, c) by which a character's entry at u enters chi o psi at
    coordinate v of block i + o, c = x d_v / d_u mod d_v for each entry
    (v, u, x) of ``row_entries(i)``, d the moduli of the two blocks.  Kept
    per row class in the map's memo."""
    p, l = endo.repeat()
    key = i if 0 <= i < p else p + (i - p) % l
    memo = endo._memo.setdefault(_dual_entries, {})
    out = memo.get(key)
    if out is None:
        g = endo.parent
        tgt = g.block(i).moduli
        out = memo[key] = [[] for _ in tgt]
        for o, term in endo.row_entries(i):
            src = g.block(i + o).moduli
            for v, u, x in term:
                if c := x * src[v] // tgt[u] % src[v]:
                    out[u].append((o, v, c))
    return out


class _Span:
    """S = T+ + T-, the characters that vanish on C_n(psi, U) n C_n(psi^{-1}, U),
    as one echelon lattice that only grows: |S| = [K : C n D], the product
    of the moduli over the pivot product, and the support hull of S, the
    hull of the characters added, is the canonical window of C n D.

    A character is a {column: value} map; a block's coordinates take the
    next columns, with its moduli, when a character first reaches it."""

    def __init__(self, g: ProGroup):
        self.g = g
        self.first: dict[int, int] = {}  # block -> its first column
        self.block: list[int] = []  # column -> block
        self.mods: list[int] = []
        self.total = 1  # the product of the moduli
        self.lat = ZLattice(0, [])
        self.lo = self.hi = 0

    def columns(self, i: int) -> int:
        """The first column of block i."""
        at = self.first.get(i)
        if at is None:
            mods = self.g.block(i).moduli
            at = self.first[i] = len(self.mods)
            self.mods += mods
            self.block += [i] * len(mods)
            self.total *= prod(mods)
            self.lat.extend(len(self.mods), mods)
        return at

    def add(self, layer) -> bool:
        """Add the characters of ``layer``, which the caller keeps; True if S grew."""
        grew = False
        for chi in layer:
            blocks = [self.block[c] for c in chi]
            if self.lo < self.hi:
                blocks += (self.lo, self.hi - 1)
            self.lo, self.hi = min(blocks), max(blocks) + 1
            grew |= self.lat.add(dict(chi), True)
        return grew

    def order(self) -> int:
        return self.total // self.lat.pivot_product()

    def perp(self) -> CylinderSubgroup:
        """C n D = S-perp: ``duality.annihilator`` of S on its hull's coordinates."""
        g, lo, hi = self.g, self.lo, self.hi
        if lo == hi:
            return g.whole()
        wg, starts = g.window_layout(lo, hi)
        shift = {i: starts[i - lo] - at for i, at in self.first.items() if lo <= i < hi}
        rows = [{c + shift[self.block[c]]: x for c, x in row.items()} for row in self.lat.stored_rows().values()]
        return CylinderSubgroup(g, lo, hi, annihilator(canonical_subgroup(wg, rows), dual_group(wg)[1]))


class _Side:
    """The layers psi-hat^k(U-perp), k = 0, 1, ..., of one map: each is
    chi o psi of the one before, with the terms of each column read once
    off ``_dual_entries``.  T, their sum, takes them in only when asked."""

    def __init__(self, span: _Span, endo: RowFiniteEndo, perp: list[dict]):
        self.span, self.endo = span, endo
        self.layers = [perp]
        self.images: dict[int, list[tuple[int, int]]] = {}  # column -> (column, factor) terms
        self.lat, self.added = ZLattice(0, []), 0  # T, and the layers it holds
        self.stalled = False

    def step(self) -> list[dict]:
        span, images, mods = self.span, self.images, self.span.mods
        layer = []
        for chi in self.layers[-1]:
            acc: dict[int, int] = {}
            for c, x in chi.items():
                terms = images.get(c)
                if terms is None:
                    i = span.block[c]
                    entries = _dual_entries(self.endo, i)[c - span.first[i]]
                    terms = images[c] = [(span.columns(i + o) + v, y) for o, v, y in entries]
                for t, y in terms:
                    acc[t] = acc.get(t, 0) + x * y
            if image := {t: r for t, x in acc.items() if (r := x % mods[t])}:
                layer.append(image)
        self.layers.append(layer)
        return layer

    def holds_last_layer(self) -> bool:
        """Whether the last layer lies in T, the sum of the layers before it."""
        lat, mods = self.lat, self.span.mods
        lat.extend(len(mods), mods[lat.width :])
        *before, last = self.layers[self.added :]
        self.added = len(self.layers)
        for chi in itertools.chain.from_iterable(before):
            lat.add(dict(chi), True)
        return not any([lat.add(dict(chi), True) for chi in last])


def _perp(span: _Span, u: CylinderSubgroup) -> list[dict]:
    """U-perp's generators as characters: the unit characters when U's core
    is trivial, else the HNF rows of ``duality.annihilator``."""
    if u.is_whole():
        return []
    mods = u.core.ambient.moduli
    if u.core.order == 1:
        rows = [{t: 1} for t, d in enumerate(mods) if d > 1]
    else:
        hnf = annihilator(u.core, dual_group(u.core.ambient)[1]).hnf_rows()
        rows = [{t: x for t, x in r.items() if x % mods[t]} for r in hnf]
    col = [span.columns(i) + v for i, a, b in zip(range(u.lo, u.hi), u.starts, u.starts[1:]) for v in range(b - a)]
    return [{col[t]: x for t, x in r.items()} for r in rows if r]


def antistable_check(
    endo: RowFiniteEndo,
    u: CylinderSubgroup,
    policy: StabilizationPolicy = DEFAULT_POLICY,
    inverse: RowFiniteEndo | None = None,
) -> AntistableCertificate:
    """Decide whether the two-sided intersection of psi^n(U) is trivial.

    Certified antistable when the partial intersections pin every
    coordinate of windows that keep growing on both sides, over the larger
    ``stall_wait`` of psi and its inverse (band geometry then pins every
    coordinate in the limit); certified not antistable
    when both one-sided chains reach exact fixed points with a nontrivial
    intersection; unknown otherwise.

    Decided in constraint form, by duality: C_{n+1}-perp = U-perp +
    psi-hat(C_n-perp) and (C n D)-perp = C-perp + D-perp, so the partial
    intersection C_n(psi, U) n C_n(psi^{-1}, U) is the annihilator of
    S_n = T+_n + T-_n, T+-_n the sum of the layers psi-hat^{+-k}(U-perp),
    k < n.  Its index is |S_n|, its window the support hull of S_n, and a
    side stalls when its layer adds nothing to its T (looked at only when
    the layer adds nothing to S).  No cylinder is pulled back; only the
    witness of a not-antistable verdict, S's annihilator, is built.
    """
    if inverse is None:
        inverse = invert(endo, policy)
    g = endo.parent
    span = _Span(g)
    perp = _perp(span, u)
    span.add(perp)
    sides = (_Side(span, endo, perp), _Side(span, inverse, perp))
    wait = max(stall_wait(endo, policy), stall_wait(inverse, policy))
    history = []
    for n in range(1, policy.max_n + 1):
        for side in sides:
            if not side.stalled and not span.add(side.step()):
                side.stalled = side.holds_last_layer()
        lo, hi = span.lo, span.hi
        pinned = span.order() == g.window_layout(lo, hi)[0].order
        if pinned and g.all_trivial_outside(lo, hi):
            return AntistableCertificate("antistable", n, (lo, hi))
        if sides[0].stalled and sides[1].stalled:
            return AntistableCertificate("not_antistable", n, (lo, hi), witness=span.perp())
        history.append((lo, hi, pinned))
        if pins_growing_windows(g, history, wait):
            return AntistableCertificate("antistable", n, (lo, hi))
    return AntistableCertificate("unknown", None, None)


def plus_minus(
    endo: RowFiniteEndo,
    u: CylinderSubgroup,
    policy: StabilizationPolicy = DEFAULT_POLICY,
    inverse: RowFiniteEndo | None = None,
):
    """(U_+, U_-) = (C(psi^{-1}, U), C(psi, U)) as exact cylinders or tails,
    by ``ends.chain_limit``; a chain that pins every coordinate, or ends in
    a window constraint, has no pinned half line to offer and raises
    Inconclusive."""
    if inverse is None:
        inverse = invert(endo, policy)

    def limit(the_endo):
        kind, obj = chain_limit(the_endo, u, policy)
        if kind == "trivial":
            raise Inconclusive("cotrajectory pins every coordinate; no half line", None)
        if kind == "constraint":
            raise Inconclusive("cotrajectory ends in a window constraint; no pinned half line", None)
        return obj

    return limit(inverse), limit(endo)


def tail_relative_index(big, small, radius: int) -> int:
    """[big : small] for nested half-line subgroups, on the joint finite window."""
    def bounds(obj):
        if isinstance(obj, TailCylinder):
            extra = (obj.residual.lo, obj.residual.hi) if not obj.residual.is_whole() else (obj.pin_from, obj.pin_from)
            return min(extra[0], obj.pin_from), max(extra[1], obj.pin_from + 1)
        return (obj.lo, obj.hi) if not obj.is_whole() else (0, 1)

    b_lo, b_hi = bounds(big)
    s_lo, s_hi = bounds(small)
    m = radius + max(abs(b_lo), b_hi, abs(s_lo), s_hi)

    def visible(obj) -> CylinderSubgroup:
        if isinstance(obj, TailCylinder):
            return obj.truncate(m)
        return obj

    vb, vs = visible(big), visible(small)
    lo, hi = vb.hull_with(vs)
    cb = vb.extended_core(lo, hi)
    csml = vs.extended_core(lo, hi)
    if not cb.contains_subgroup(csml):
        # depth_report passes a preimage of U_-+ that holds it: a broken invariant
        raise AssertionError("tail index of subgroups that are not nested")
    return cb.order // csml.order


def base_sequence(
    endo: RowFiniteEndo,
    u: CylinderSubgroup,
    n: int,
    inverse: RowFiniteEndo | None = None,
    policy: StabilizationPolicy = DEFAULT_POLICY,
) -> list[CylinderSubgroup]:
    """U_k = C_k(psi, U) n C_k(psi^{-1}, U) for k = 1..n, a shrinking base."""
    if inverse is None:
        inverse = invert(endo, policy)
    pairs = zip(chain(endo, u), chain(inverse, u))
    return [cp.intersect(cm) for cp, cm in itertools.islice(pairs, n)]


# members U_1..U_n of the shrinking base on which depth_report checks
# the entropy-depth identity
BASE_LEN = 4


@dataclass(frozen=True)
class CandidateResult:
    status: str
    depth_via_minus: int | None
    depth_via_plus: int | None


@dataclass(frozen=True)
class DepthReport:
    candidates: tuple[CandidateResult, ...]
    depth: int
    depth_inverse: int
    h_top_value: EntropyValue
    checks: tuple[CheckRecord, ...]
    endo: RowFiniteEndo | None = None
    inverse: RowFiniteEndo | None = None


def depth_report(
    endo: RowFiniteEndo,
    candidates,
    policy: StabilizationPolicy = DEFAULT_POLICY,
) -> DepthReport:
    """Full depth analysis over candidate subgroups.

    Requires at least one antistable certificate; verifies depth
    independence across candidates, the two-sided index equality, the
    entropy-depth identity over the shrinking base, and depth(psi) =
    depth(psi^{-1}).  With no certificate, a candidate left ``unknown``
    (its chains ran to ``policy.max_n``) makes the run Inconclusive; a
    HypothesisFailure says that no candidate is antistable or certified."""
    inverse = invert(endo, policy)

    def evaluate(u):
        cert = antistable_check(endo, u, policy, inverse)
        if cert.status != "antistable":
            return CandidateResult(cert.status, None, None)
        rep_minus = cotrajectory_limits(endo, u, policy)
        rep_plus = cotrajectory_limits(inverse, u, policy)
        if not (rep_minus.certified and rep_plus.certified):
            return CandidateResult("inconclusive", None, None)
        return CandidateResult(
            "antistable", rep_minus.psi_inv_c_mod_c, rep_plus.psi_inv_c_mod_c
        )

    candidates = list(candidates)
    results = [evaluate(u) for u in candidates]
    depths = [
        (r.depth_via_minus, r.depth_via_plus)
        for r in results
        if r.status == "antistable"
    ]
    first_antistable = None
    for u, r in zip(candidates, results):
        if r.status == "antistable":
            first_antistable = u
            break
    if first_antistable is None:
        if any(r.status == "unknown" for r in results):
            raise Inconclusive(
                f"antistability undecided within max_n = {policy.max_n}: "
                "no candidate certified antistable",
                None,
            )
        raise HypothesisFailure(
            "no candidate certified antistable: the pair may not have finite depth"
        )
    checks: list[CheckRecord] = []
    two_sided_ok = all(dm == dp for dm, dp in depths)
    checks.append(CheckRecord("two_sided_index_equality", two_sided_ok))
    flat = sorted({d for pair in depths for d in pair})
    checks.append(CheckRecord("depth_independent_of_candidate", len(flat) == 1, lhs=flat))
    if not (two_sided_ok and len(flat) == 1):
        raise AssertionError("depth values disagree: uncertified stabilization")
    depth = flat[0]

    base = base_sequence(endo, first_antistable, BASE_LEN, inverse, policy)
    values = [cotrajectory_limits(endo, uk, policy).entropy for uk in base]
    per_base_ok = all(val == EntropyValue.of_log(depth) for val in values)
    checks.append(
        CheckRecord("entropy_on_base_members_is_log_depth", per_base_ok, rhs=depth)
    )
    h_val = max(values)
    checks.append(
        CheckRecord(
            "h_top_is_log_depth", h_val == EntropyValue.of_log(depth), lhs=h_val, rhs=depth
        )
    )
    # depth of the inverse automorphism, computed from scratch
    rep_m_inv = cotrajectory_limits(inverse, first_antistable, policy)
    rep_p_inv = cotrajectory_limits(endo, first_antistable, policy)
    depth_inv = rep_m_inv.psi_inv_c_mod_c
    checks.append(
        CheckRecord(
            "depth_of_inverse_equals_depth",
            depth_inv == depth and rep_p_inv.psi_inv_c_mod_c == depth,
            lhs=depth_inv,
            rhs=depth,
        )
    )
    if endo.parent.is_infinite():
        checks.append(CheckRecord("infinite_group_depth_gt_1", depth > 1, lhs=depth))
    # cross-check the boundary indices through the half-line representations
    try:
        u_plus, u_minus = plus_minus(endo, first_antistable, policy, inverse)
        pre_minus = _preimage_halfline(endo, u_minus, policy)
        idx_minus = tail_relative_index(pre_minus, u_minus, 2)
        img_plus = _preimage_halfline(inverse, u_plus, policy)
        idx_plus = tail_relative_index(img_plus, u_plus, 2)
        checks.append(
            CheckRecord(
                "halfline_boundary_indices",
                idx_minus == depth and idx_plus == depth,
                lhs=(idx_minus, idx_plus),
                rhs=depth,
            )
        )
    except Inconclusive:
        checks.append(
            CheckRecord("halfline_boundary_indices", True, note="tails not detected; skipped")
        )
    return DepthReport(
        tuple(results), depth, depth_inv, h_val, tuple(checks), endo=endo, inverse=inverse
    )


def _preimage_halfline(endo: RowFiniteEndo, obj, policy: StabilizationPolicy):
    """psi^{-1} of an exact cylinder or tail cylinder."""
    if isinstance(obj, CylinderSubgroup):
        return endo.preimage_cylinder(obj)

    radii = itertools.count(max(abs(obj.pin_from) + 2, 2))
    preimages = (endo.preimage_cylinder(obj.truncate(m)) for m in radii)
    kind, out = next(chain_end(preimages, policy, stall_wait(endo, policy)))
    if kind == "trivial":
        raise Inconclusive("preimage pins every coordinate; no half line", None)
    return out
