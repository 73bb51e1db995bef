"""Finite-depth machinery for banded automorphisms of two-sided products.

The inverse of a banded automorphism is found by solving psi(y) = e for
each generator on growing windows and verified exactly by composing the
banded specs both ways.  Antistability of an open subgroup is certified
from band geometry: the partial two-sided cotrajectories must pin every
coordinate of monotonically growing windows.  The depth index is computed
through both one-sided cotrajectories and must agree; the entropy-depth
identity is cross-checked over the canonical shrinking base.

Every one-sided chain here (antistability, U_+/U_-, the shrinking base)
is walked by the generator ``profinite.chain_steps`` or its lazy view
``profinite.chain``, and pinning is decided by
``profinite.pins_growing_windows``.  U_+ and U_- are the limits
``profinite.chain_limit`` finds, and the preimage of a half line is read
by ``profinite.chain_end`` off the preimages of its truncations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .errors import Inconclusive, InversionFailure, HypothesisFailure, ValidationError
from .lattice import congruence_kernel
from .profinite import (
    CylinderSubgroup,
    RowFiniteEndo,
    TailCylinder,
    chain,
    chain_end,
    chain_limit,
    chain_steps,
    cotrajectory_limits,
    identity_endo,
    pins_growing_windows,
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
    rows_idx = []
    for j in range(scan_lo, scan_hi):
        deps = [j + o for o, _ in endo.row_terms(j) if lo <= j + o < hi]
        if deps:
            rows_idx.append(j)
    if target_block not in rows_idx:
        return None
    cols, _, tgt = endo.band_columns(rows_idx, lo, hi)
    t_at = sum(g.block(j).rank for j in rows_idx[: rows_idx.index(target_block)])

    # kernel of (s, y) -> s * (-t) + y * M  modulo the target relations
    c = lcm(1, *tgt.moduli)
    map_rows = [{t_at + u: -x for u, x in enumerate(target_vec) if x}] + cols
    combos = congruence_kernel(
        map_rows, tgt.rank, tgt.relation_lattice(), payload_moduli=[c] * (wg.rank + 1)
    )
    for combo in combos:
        if combo.get(0) == 1:
            return g.elem_of({t - 1: x for t, x in combo.items() if t}, lo, hi)
    return None


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
    solutions = {}
    for r in range(p):
        blk = g.block(r)
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
            solutions[(r, u)] = sol

    acc: dict[int, dict[int, list[list[int]]]] = {}
    offsets = set()
    for (r, u), sol in solutions.items():
        for i, vec in sol.items():
            out_res = i % p
            o = r - i  # output row i depends on input r with offset o = r - i
            offsets.add(o)
            src_blk = g.block(r)
            out_blk = g.block(i)
            mat = acc.setdefault(out_res, {}).setdefault(
                o, [[0] * src_blk.rank for _ in range(out_blk.rank)]
            )
            for v, cval in enumerate(vec):
                mat[v][u] = cval
    if not offsets:
        offsets = {0}
    o_lo, o_hi = min(offsets), max(offsets)
    rows = []
    for r in range(p):
        terms = sorted(acc.get(r, {}).items())
        if not terms:
            terms = [(o_lo, [[0] * g.block(r).rank for _ in range(g.block(r).rank)])]
        rows.append(terms)
    inv = RowFiniteEndo(g, o_lo, o_hi - o_lo + 1, p, rows)
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


def antistable_check(
    endo: RowFiniteEndo,
    u: CylinderSubgroup,
    policy: StabilizationPolicy = DEFAULT_POLICY,
    inverse: RowFiniteEndo | None = None,
) -> AntistableCertificate:
    """Decide whether the two-sided intersection of psi^n(U) is trivial.

    Certified antistable when the partial intersections pin every
    coordinate of windows that keep growing on both sides (band geometry
    then pins every coordinate in the limit); certified not antistable
    when both one-sided chains reach exact fixed points with a nontrivial
    intersection; unknown otherwise.
    """
    if inverse is None:
        inverse = invert(endo, policy)
    steps_p, steps_m = chain_steps(endo, u), chain_steps(inverse, u)
    stalled_p = stalled_m = False
    history = []
    for n in range(1, policy.max_n + 1):
        if not stalled_p:
            prev, *_, cp = next(steps_p)
            stalled_p = cp == prev
        if not stalled_m:
            prev, *_, cm = next(steps_m)
            stalled_m = cm == prev
        d = cp.intersect(cm)
        if d.is_trivial_subgroup():
            return AntistableCertificate("antistable", n, (d.lo, d.hi))
        if stalled_p and stalled_m:
            return AntistableCertificate("not_antistable", n, (d.lo, d.hi), witness=d)
        history.append((d.lo, d.hi, d.core.order == 1))
        if pins_growing_windows(endo.parent, history, policy.stall_window):
            return AntistableCertificate("antistable", n, (d.lo, d.hi))
    return AntistableCertificate("unknown", None, None)


def plus_minus(
    endo: RowFiniteEndo,
    u: CylinderSubgroup,
    policy: StabilizationPolicy = DEFAULT_POLICY,
    inverse: RowFiniteEndo | None = None,
):
    """(U_+, U_-) = (C(psi^{-1}, U), C(psi, U)) as exact cylinders or tails,
    by ``profinite.chain_limit``; a chain that pins every coordinate has no
    half line to offer and raises Inconclusive."""
    if inverse is None:
        inverse = invert(endo, policy)

    def limit(the_endo):
        kind, obj = chain_limit(the_endo, u, policy)
        if kind == "trivial":
            raise Inconclusive("cotrajectory pins every coordinate; no half line", None)
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
        raise ValidationError("tail index of non-nested subgroups")
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
    depth(psi^{-1})."""
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
        return endo.preimage_cylinder(obj)[0]

    radii = itertools.count(max(abs(obj.pin_from) + 2, 2))
    preimages = (endo.preimage_cylinder(obj.truncate(m))[0] for m in radii)
    kind, out = next(chain_end(preimages, policy))
    if kind == "trivial":
        raise Inconclusive("preimage pins every coordinate; no half line", None)
    return out
