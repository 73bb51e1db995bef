import itertools
import json
import pathlib
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from entctl import depth
from entctl.cli import emit_report, instance_from_dict, run_command
from entctl.depth import (
    TailCylinder,
    _preimage_halfline,
    antistable_check,
    base_sequence,
    depth_report,
    invert,
    plus_minus,
    tail_relative_index,
)
from entctl.errors import HypothesisFailure, Inconclusive, InversionFailure
from entctl.finabel import FiniteAbelianGroup
from entctl.profinite import (
    RowFiniteEndo,
    chain,
    cotrajectory,
    cotrajectory_limits,
    cylinder,
    identity_endo,
    pro_group,
    rowfinite_endo,
)
from entctl.values import DEFAULT_POLICY, EntropyValue, StabilizationPolicy
from test_profinite import topo_map

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))


def full_shift(mods):
    blk = FiniteAbelianGroup(mods)
    k = pro_group([], [blk], "Z")
    ident = [[1 if i == j else 0 for j in range(blk.rank)] for i in range(blk.rank)]
    return k, rowfinite_endo(k, 1, 1, 1, [[(1, ident)]])


def test_invert_shift():
    k, shift = full_shift((3,))
    inv = invert(shift)
    assert inv.offset == -1 and inv.rows == (((-1, ((1,),)),),)
    assert invert(identity_endo(k)).rows == identity_endo(k).rows


def test_invert_triangular_map():
    # x_i -> x_i + 2 x_{i+1} on (Z/4)^Z is invertible with banded inverse
    # (1 + 2 sigma)^{-1} = 1 - 2 sigma since (2 sigma)^2 = 0 mod 4
    z4 = FiniteAbelianGroup((4,))
    k = pro_group([], [z4], "Z")
    endo = rowfinite_endo(k, 0, 2, 1, [[(0, [[1]]), (1, [[2]])]])
    inv = invert(endo)
    assert endo.compose(inv).equals_spec(identity_endo(k))
    assert inv.compose(endo).equals_spec(identity_endo(k))


def test_invert_with_a_trivial_block():
    """Z/3 and Z/1 alternating: the Z/1 rows of a composite reduce to zero
    terms, and a Z/1 residue gets no term from the solved windows."""
    z1 = FiniteAbelianGroup((1,))
    k = pro_group([], [Z3, z1], "Z")
    involution = rowfinite_endo(k, 0, 1, 2, [[(0, [[2]])], [(0, [[1]])]])
    shift2 = rowfinite_endo(k, 2, 1, 2, [[(2, [[1]])], [(2, [[1]])]])
    for psi in (involution, shift2):
        inv = invert(psi)
        assert psi.compose(inv).equals_spec(identity_endo(k))
        assert inv.compose(psi).equals_spec(identity_endo(k))
    assert invert(shift2).offset == -2


def test_invert_failure_unbounded_support():
    k, _ = full_shift((2,))
    fold = rowfinite_endo(k, 0, 2, 1, [[(0, [[1]]), (1, [[1]])]])
    with pytest.raises(InversionFailure):
        invert(fold)


def test_invert_failure_non_injective():
    z4 = FiniteAbelianGroup((4,))
    k = pro_group([], [z4], "Z")
    doubling = rowfinite_endo(k, 0, 1, 1, [[(0, [[2]])]])
    with pytest.raises(InversionFailure):
        invert(doubling)


def test_antistable_examples():
    k, shift = full_shift((3,))
    u = cylinder(k, (0, 1), [])
    cert = antistable_check(shift, u)
    assert cert.status == "antistable"
    ident = identity_endo(k)
    cert2 = antistable_check(ident, u)
    assert cert2.status == "not_antistable"
    assert cert2.witness == u
    # identity on a finite group: K = prefix Z/4 with trivial periodic tail
    z4 = FiniteAbelianGroup((4,))
    triv = FiniteAbelianGroup(())
    kf = pro_group([z4], [triv], "N")
    idf = rowfinite_endo(kf, 0, 1, 1, [[]], prefix_rows=[[(0, [[1]])]])
    u_triv = cylinder(kf, (0, 1), [])  # the one-element subgroup of finite K
    assert u_triv.core.order == 1 and kf.all_trivial_outside(u_triv.lo, u_triv.hi)
    cert3 = antistable_check(idf, u_triv, inverse=idf)
    assert cert3.status == "antistable"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_meet_index_matches_the_intersection(perfbench_gen, data):
    # pairs of cylinders on ``gen.topo_case`` maps (N and Z, rank 1-3, period
    # 1-2, prefix rows): K, the first cylinders of U's chain and of U's
    # preimages; the index rule's window, index and pinning are those of
    # C n D, built
    inst = topo_map(perfbench_gen, data)
    endo, u = inst.endo, inst.cylinders[0]
    k = endo.parent
    cs = [k.whole(), *itertools.islice(chain(endo, u), 4), *inst.cylinders[1:]]
    pre = u
    for _ in range(3):
        pre = endo.preimage_cylinder(pre)
        cs.append(pre)
    for c, d in itertools.product(cs, repeat=2):
        meet = c.intersect(d)
        lo, hi, index = c.meet_index(d)
        assert (lo, hi, index) == (meet.lo, meet.hi, meet.index)
        assert (index == k.window_layout(lo, hi)[0].order) == (meet.core.order == 1)


DEPTH_SHIFT = pathlib.Path(__file__).resolve().parent.parent / "instances" / "depth_shift_z3.json"


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_meet_index_of_both_chains_is_an_index_of_the_chain(perfbench_gen, data):
    # for an automorphism psi, C_n(psi, U) n C_n(psi^{-1}, U) is the
    # intersection of the psi^j(U), |j| < n, which is psi^{n-1}(C_{2n-1}(psi, U)):
    # its index is c_{2n-1}, on twisted and unipotent shifts of the depth
    # sweep and on the bundled depth instance
    gen = perfbench_gen
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    kind = data.draw(st.sampled_from(("twisted", "unipotent", "bundled")))
    if kind == "twisted":
        case = gen.twisted_shift(rng, data.draw(st.sampled_from(gen.TWISTED_BLOCKS)), 3, gen.DEPTH_POLICY)
    elif kind == "unipotent":
        case = gen.unipotent_shift(rng, gen.DEPTH_POLICY)
    else:
        case = json.loads(DEPTH_SHIFT.read_text(encoding="utf-8"))
    inst = instance_from_dict(case)
    psi = inst.endo
    inverse = invert(psi)
    for u in inst.cylinders:
        for n, cp, cm in zip(range(1, 6), chain(psi, u), chain(inverse, u)):
            assert cp.meet_index(cm)[2] == cotrajectory(psi, u, 2 * n - 1).index, n


def test_plus_minus_shift():
    k, shift = full_shift((3,))
    u = cylinder(k, (0, 1), [])
    up, um = plus_minus(shift, u)
    assert isinstance(um, TailCylinder) and um.side == +1 and um.pin_from == 0
    assert isinstance(up, TailCylinder) and up.side == -1 and up.pin_from == 0
    assert um.residual.is_whole() and up.residual.is_whole()
    # equal tails compare and hash equal
    twin = TailCylinder(um.parent, um.side, um.pin_from, um.residual)
    assert twin is not um and twin == um and hash(twin) == hash(um) and up != um
    # truncations look right
    t = um.truncate(4)
    assert (t.lo, t.hi) == (0, 4) and t.core.order == 1


def test_plus_minus_identity():
    k, _ = full_shift((3,))
    ident = identity_endo(k)
    u = cylinder(k, (0, 1), [])
    up, um = plus_minus(ident, u, inverse=ident)
    assert up == u and um == u


def test_preimage_of_a_half_line_that_pins_everything_is_inconclusive():
    # over N the right shift pulls the half line x_0 = x_1 = ... = 0 back to
    # fully pinned windows [0, m - 1) growing from 0: no half line to read
    k = pro_group([], [Z2], "N")
    right = rowfinite_endo(k, -1, 1, 1, [[(-1, [[1]])]])
    with pytest.raises(Inconclusive):
        _preimage_halfline(right, TailCylinder(k, +1, 0, k.whole()), DEFAULT_POLICY)


def test_tail_relative_index():
    k, shift = full_shift((3,))
    u = cylinder(k, (0, 1), [])
    inv = invert(shift)
    up, um = plus_minus(shift, u, inverse=inv)
    # [psi^{-1}(U_-) : U_-] computed on the half-line boundary should be 3
    from entctl.depth import _preimage_halfline
    from entctl.values import DEFAULT_POLICY

    pre_minus = _preimage_halfline(shift, um, DEFAULT_POLICY)
    assert tail_relative_index(pre_minus, um, 2) == 3


@pytest.mark.parametrize("mods,expected", [((2,), 2), ((3,), 3), ((2, 2), 4), ((6,), 6)])
def test_depth_of_full_shifts(mods, expected):
    k, shift = full_shift(mods)
    u = cylinder(k, (0, 1), [])
    rep = depth_report(shift, [u])
    assert rep.depth == expected
    assert rep.candidates[0].depth_via_minus == rep.candidates[0].depth_via_plus == expected


def test_base_sequence():
    k, shift = full_shift((3,))
    u = cylinder(k, (0, 1), [])
    seq = base_sequence(shift, u, 3)
    assert [s.index for s in seq] == [3, 27, 243]
    assert [(s.lo, s.hi) for s in seq] == [(0, 1), (-1, 2), (-2, 3)]
    for a, b in zip(seq, seq[1:]):
        assert a.contains_cylinder(b)
    ident = identity_endo(k)
    assert base_sequence(ident, u, 3, inverse=ident) == [u, u, u]


def test_depth_report_full():
    k, shift = full_shift((3,))
    cands = [cylinder(k, (0, 1), []), cylinder(k, (0, 2), []), cylinder(k, (-1, 1), [])]
    rep = depth_report(shift, cands)
    assert rep.depth == 3
    assert rep.depth_inverse == 3
    assert rep.h_top_value == EntropyValue.of_log(3)
    assert all(c.ok for c in rep.checks)
    assert all(r.status == "antistable" for r in rep.candidates)
    assert all(r.depth_via_minus == 3 and r.depth_via_plus == 3 for r in rep.candidates)


def test_depth_report_no_antistable_candidate():
    k, shift = full_shift((3,))
    ident = identity_endo(k)
    with pytest.raises(HypothesisFailure):
        depth_report(ident, [cylinder(k, (0, 1), [])])


def test_depth_value_needs_antistable():
    # no candidate is antistable for the identity, so no depth is reported
    k, shift = full_shift((3,))
    ident = identity_endo(k)
    with pytest.raises(HypothesisFailure):
        depth_report(ident, [cylinder(k, (0, 1), []), cylinder(k, (-1, 1), [])])


def test_entropy_on_base_members():
    k, shift = full_shift((2,))
    u = cylinder(k, (0, 1), [])
    for uk in base_sequence(shift, u, 3):
        assert cotrajectory_limits(shift, uk).entropy == EntropyValue.of_log(2)


def test_involution_certified_not_antistable():
    # 1 + 2s on (Z/4)^Z squares to the identity, so no open subgroup is
    # antistable; both one-sided chains reach exact fixed points
    z4 = FiniteAbelianGroup((4,))
    k = pro_group([], [z4], "Z")
    invol = rowfinite_endo(k, 0, 2, 1, [[(0, [[1]]), (1, [[2]])]])
    u = cylinder(k, (0, 1), [])
    cert = antistable_check(invol, u)
    assert cert.status == "not_antistable"
    with pytest.raises(HypothesisFailure):
        depth_report(invol, [u])


def test_mixing_automorphism_returns_unknown():
    # s + 2s^2 on (Z/4)^Z is a banded automorphism whose constraints never
    # pin coordinates; the certificate honestly refuses
    z4 = FiniteAbelianGroup((4,))
    k = pro_group([], [z4], "Z")
    psi = rowfinite_endo(k, 1, 2, 1, [[(1, [[1]]), (2, [[2]])]])
    inv = invert(psi)
    assert psi.compose(inv).equals_spec(identity_endo(k))
    u = cylinder(k, (0, 1), [])
    cert = antistable_check(psi, u, inverse=inv)
    assert cert.status == "unknown"
    with pytest.raises(Inconclusive, match=f"max_n = {DEFAULT_POLICY.max_n}"):
        depth_report(psi, [u])


def test_alternating_blocks_shift_by_two():
    # shift by a full period on (Z/2 x Z/3)-alternating blocks: depth is the
    # period order; a single-block subgroup pins only half the coordinates
    # and is honestly left uncertified
    z2, z3 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((3,))
    k = pro_group([], [z2, z3], "Z")
    shift2 = rowfinite_endo(k, 2, 1, 2, [[(2, [[1]])], [(2, [[1]])]])
    inv = invert(shift2)
    assert inv.offset == -2
    assert antistable_check(shift2, cylinder(k, (0, 1), []), inverse=inv).status == "unknown"
    rep = depth_report(shift2, [cylinder(k, (0, 2), []), cylinder(k, (-2, 0), [])])
    assert rep.depth == 6
    assert rep.h_top_value == EntropyValue.of_log(6)
    assert all(c.ok for c in rep.checks)


def test_matrix_twisted_shift_depth():
    # block shift twisted by an invertible matrix still pins coordinates
    z22 = FiniteAbelianGroup((2, 2))
    k = pro_group([], [z22], "Z")
    # A = [[1,1],[0,1]] is invertible over Z/2
    psi = rowfinite_endo(k, 1, 1, 1, [[(1, [[1, 1], [0, 1]])]])
    u = cylinder(k, (0, 1), [])
    rep = depth_report(psi, [u, cylinder(k, (-1, 1), [])])
    assert rep.depth == 4
    assert rep.h_top_value == EntropyValue.of_log(4)
    assert all(c.ok for c in rep.checks)


def pulls_to_walk(monkeypatch, endo, u, steps: int) -> int:
    """The pull-backs that reading ``steps`` steps of the chain of U takes:
    none when the map keeps that much of the walk."""
    calls = []
    original = RowFiniteEndo.pull_back
    with monkeypatch.context() as mp:
        mp.setattr(RowFiniteEndo, "pull_back", lambda *args: calls.append(1) or original(*args))
        for _ in zip(range(steps + 1), chain(endo, u)):
            pass
    return len(calls)


def test_depth_drops_the_walks_of_rejected_candidates(monkeypatch):
    # the unipotent automorphism 4s + 6s^2 of (Z/9)^Z runs out of budget on
    # U = [0, 1), so no candidate is certified and the run is inconclusive:
    # neither psi nor its inverse keeps a walk once depth_report has raised
    k = pro_group([], [FiniteAbelianGroup((9,))], "Z")
    psi = rowfinite_endo(k, 1, 2, 1, [[(1, [[4]]), (2, [[6]])]])
    u = cylinder(k, (0, 1), [])
    policy = StabilizationPolicy(max_n=24, stall_window=3, window_budget=32)
    inverses = []
    monkeypatch.setattr(depth, "invert", lambda *args: inverses.append(invert(*args)) or inverses[-1])
    with pytest.raises(Inconclusive, match="max_n = 24"):
        depth_report(psi, [u], policy)
    for endo in (psi, *inverses):
        assert pulls_to_walk(monkeypatch, endo, u, 1) == 1
    assert antistable_check(psi, u, policy, *inverses).status == "unknown"
    # beside a candidate that is not antistable (K itself), only the walks of
    # the antistable one are kept, on the map and on its inverse
    k3, shift = full_shift((3,))
    whole, u3 = k3.whole(), cylinder(k3, (0, 1), [])
    rep = depth_report(shift, [whole, u3])
    assert [c.status for c in rep.candidates] == ["not_antistable", "antistable"]
    for endo in (shift, rep.inverse):
        assert pulls_to_walk(monkeypatch, endo, whole, 1) == 1
        assert pulls_to_walk(monkeypatch, endo, u3, 3) == 0


TRIVIAL_DEPTH_REPORT = (
    '{"command":"depth","kind":"depth","results":[{"candidate":0,"depth_via_minus":1,'
    '"depth_via_plus":1,"status":"antistable"},{"candidate":1,"depth_via_minus":1,'
    '"depth_via_plus":1,"status":"antistable"},'
    '{"checks":[{"name":"two_sided_index_equality","ok":true},{"lhs":[1],'
    '"name":"depth_independent_of_candidate","ok":true},'
    '{"name":"entropy_on_base_members_is_log_depth","ok":true,"rhs":1},'
    '{"lhs":{"approx":"0","log_of":{"den":1,"num":1}},"name":"h_top_is_log_depth",'
    '"ok":true,"rhs":1},{"lhs":1,"name":"depth_of_inverse_equals_depth","ok":true,'
    '"rhs":1},{"lhs":[1,1],"name":"halfline_boundary_indices","ok":true,"rhs":1}],'
    '"depth":1,"depth_inverse":1,"h_top":{"approx":"0","log_of":{"den":1,"num":1}},'
    '"inverse_band":{"offset":0,"period":1,"width":1}}],"schema":1,"status":"ok"}'
)


def test_invert_and_depth_on_trivial_blocks():
    """On (Z/1)^Z every target block is trivial, so ``_solve_on_window``
    eliminates with c = lcm(1, *moduli) = 1 and finds the kernel row with
    s = 1 as the implicit row e_0 of payload column 0, which no stored row
    replaces.  The inverse and the depth report are those the earlier
    elimination gave, which built that row as a map."""
    z1 = FiniteAbelianGroup((1,))
    k = pro_group([], [z1], "Z")
    for psi in (rowfinite_endo(k, 1, 1, 1, [[(1, [[1]])]]), rowfinite_endo(k, 0, 2, 1, [[(0, [[1]]), (1, [[1]])]])):
        inv = invert(psi)
        assert (inv.offset, inv.width, inv.period, inv.rows) == (0, 1, 1, ((),))
    inst = instance_from_dict({
        "schema": 1, "kind": "depth",
        "group": {"index_set": "Z", "blocks": {"period": 1, "types": [[1]]}},
        "endo": {"offset": 1, "width": 1, "period": 1, "rows": [[[1, [[1]]]]]},
        "cylinders": [{"window": [0, 1], "core_gens": []}, {"window": [-1, 1], "core_gens": []}],
        "policy": {"max_n": 64, "stall_window": 3, "window_budget": 32},
    })
    assert emit_report(run_command("depth", inst), "json") == TRIVIAL_DEPTH_REPORT + "\n"
