import collections
import pathlib
import random
import sys

import pytest

import oracles
from entctl.cli import parse_instance, run_command
from entctl.errors import HypothesisFailure, Inconclusive, ValidationError
from entctl.finabel import FiniteAbelianGroup, canonical_subgroup
from entctl.profinite import (
    CotrajectoryReport,
    CylinderSubgroup,
    PowerEndo,
    RowFiniteEndo,
    TailCylinder,
    chain,
    chain_limit,
    cokernel_order,
    cotrajectory,
    cotrajectory_limits,
    cylinder,
    identity_endo,
    kernel_order,
    log_law_check,
    pro_group,
    quotient_system,
    rowfinite_endo,
    surjective_on_windows,
    _project_out,
    _project_out_front,
)
from entctl.values import DEFAULT_POLICY, EntropyValue, StabilizationPolicy
from test_acceptance import random_rowfinite
from test_finabel import assert_forms_agree

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))


def k_z2():
    return pro_group([], [Z2], "N")


def left_shift(k):
    rank = k.period[0].rank
    ident = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    return rowfinite_endo(k, 1, 1, 1, [[(1, ident)]])


def right_shift(k):
    return rowfinite_endo(k, -1, 1, 1, [[(-1, [[1]])]])


def u0(k, depth=1):
    return cylinder(k, (0, depth), [])


def test_group_and_cylinder_basics():
    k = k_z2()
    u = u0(k)
    assert u.index == 2
    assert cylinder(k, [], []).is_whole()
    diag = cylinder(k, (0, 2), [[1, 1]])
    assert diag.index == 2
    kz = pro_group([], [Z3], "Z")
    assert kz.block(-2).moduli == (3,)
    with pytest.raises(ValidationError):
        pro_group([Z2], [Z2], "Z")


def test_cylinder_core_window_mismatch():
    from entctl.errors import AmbientMismatchError

    k = k_z2()
    wrong, _ = k.window_layout(0, 3)
    with pytest.raises(AmbientMismatchError):
        CylinderSubgroup(k, 0, 1, wrong.whole_subgroup())


def test_cylinder_normalization_shrinks_free_blocks():
    k = k_z2()
    wg, _ = k.window_layout(0, 3)
    # core constrains only coordinate 0; blocks 1, 2 are free
    core = canonical_subgroup(wg, [(0, 1, 0), (0, 0, 1)])
    c = CylinderSubgroup(k, 0, 3, core)
    assert (c.lo, c.hi) == (0, 1)
    assert c == u0(k)


def test_whole_group_subgroup_gives_zero_entropy():
    k = k_z2()
    u = cylinder(k, [], [])
    assert u.is_whole() and u.index == 1
    rep = cotrajectory_limits(left_shift(k), u)
    assert rep.certified and rep.alpha == 1
    assert rep.entropy.is_zero


def test_cylinder_membership():
    k = k_z2()
    diag = cylinder(k, (0, 2), [[1, 1]])
    assert diag.contains_elem({})
    assert diag.contains_elem({0: (1,), 1: (1,)})
    assert not diag.contains_elem({0: (1,)})
    assert diag.contains_elem({0: (1,), 1: (1,), 7: (1,)})  # outside window is free
    assert k.whole().contains_elem({3: (1,)})


def test_cotrajectory_examples():
    k = k_z2()
    sig = left_shift(k)
    u = u0(k)
    c3 = cotrajectory(sig, u, 3)
    assert c3.index == 8 and (c3.lo, c3.hi) == (0, 3)
    ident = identity_endo(k)
    assert cotrajectory(ident, u, 7) == u
    rho = right_shift(k)
    assert cotrajectory(rho, u, 2) == u


def test_cotrajectory_limits_left_shift():
    k = k_z2()
    rep = cotrajectory_limits(left_shift(k), u0(k))
    assert rep.certified
    assert rep.alpha == 2
    assert rep.k_mod_l == 1
    assert rep.psi_inv_c_mod_c == 2
    assert rep.c[:4] == (2, 4, 8, 16)
    for a, b in zip(rep.c, rep.c[1:]):
        assert b % a == 0
    for a, b in zip(rep.alphas, rep.alphas[1:]):
        assert a % b == 0


def test_cotrajectory_limits_right_shift():
    k = k_z2()
    rep = cotrajectory_limits(right_shift(k), u0(k))
    assert rep.certified
    assert rep.alpha == 1
    assert rep.psi_inv_c_mod_c == 2
    assert rep.k_mod_l == 2


def test_entropy_methods():
    k = k_z2()
    sig, rho = left_shift(k), right_shift(k)
    u = u0(k)
    rep = cotrajectory_limits(sig, u)
    assert rep.entropy_limit == EntropyValue.of_log(2)
    assert rep.entropy == EntropyValue.of_log(2)
    # the one-term form of top-entropy --method surjective
    assert surjective_on_windows(sig) and rep.k_mod_l == 1
    assert EntropyValue.of_log(rep.psi_inv_c_mod_c) == EntropyValue.of_log(2)
    rep = cotrajectory_limits(rho, u)
    assert rep.entropy_limit.is_zero
    assert rep.entropy.is_zero
    assert not surjective_on_windows(rho)
    assert cotrajectory_limits(identity_endo(k), u).entropy.is_zero


def test_surjectivity_detection():
    k = k_z2()
    assert surjective_on_windows(left_shift(k))
    assert not surjective_on_windows(right_shift(k))
    assert surjective_on_windows(identity_endo(k))


def test_surjectivity_fails_late():
    # Identity on a prefix of R mixed blocks, except a zero row at index
    # R - 1: the first window that is not onto has radius R.  R = 20 is not
    # a power of two and a budget of 24 is not either, so only the final
    # budget radius sees the failure.
    r_fail = 20
    prefix = [Z2 if i % 2 else Z3 for i in range(r_fail)]
    k = pro_group(prefix, [Z2], "N")
    prefix_rows = [[(0, [[1]])] for _ in range(r_fail)]
    prefix_rows[r_fail - 1] = [(0, [[0]])]
    endo = rowfinite_endo(k, 0, 1, 1, [[(0, [[1]])]], prefix_rows)
    assert not surjective_on_windows(endo, StabilizationPolicy(window_budget=24))
    assert not surjective_on_windows(endo)
    # below R every window is onto: the verdict only covers the budget
    assert surjective_on_windows(endo, StabilizationPolicy(window_budget=r_fail - 1))


def h_top(endo, base):
    """The entropy's max over an explicit base of open subgroups."""
    return max(cotrajectory_limits(endo, u).entropy for u in base)


def test_h_top_base():
    k = k_z2()
    sig = left_shift(k)
    base = [u0(k, d) for d in (1, 2, 3)]
    assert h_top(sig, base) == EntropyValue.of_log(2)
    assert h_top(identity_endo(k), base).is_zero
    kz = pro_group([], [Z3], "Z")
    shift_z = rowfinite_endo(kz, 1, 1, 1, [[(1, [[1]])]])
    centered = [cylinder(kz, (-m, m + 1), []) for m in range(3)]
    assert h_top(shift_z, centered) == EntropyValue.of_log(3)


def test_kernel_and_cokernel_orders():
    k = k_z2()
    assert kernel_order(left_shift(k)) == 2
    assert cokernel_order(left_shift(k)) == 1
    assert kernel_order(right_shift(k)) == 1
    assert cokernel_order(right_shift(k)) == 2
    assert kernel_order(identity_endo(k)) == 1
    # kernel with infinite-support elements: psi(x)_i = x_i + x_{i+1} on (Z/2)^N
    # has kernel {0, (1,1,1,...)} of order 2
    fold = rowfinite_endo(k, 0, 2, 1, [[(0, [[1]]), (1, [[1]])]])
    assert kernel_order(fold) == 2
    assert cokernel_order(fold) == 1


def test_chain_limit_classification():
    k = k_z2()
    assert chain_limit(left_shift(k), u0(k))[0] == "trivial"
    assert chain_limit(right_shift(k), u0(k)) == ("cylinder", u0(k))
    assert chain_limit(identity_endo(k), u0(k)) == ("cylinder", u0(k))
    # the Z-shift pins x_0, x_1, ...: a half line to the right from block 0
    kz = pro_group([], [Z2], "Z")
    shift_z = rowfinite_endo(kz, 1, 1, 1, [[(1, [[1]])]])
    kind, tail = chain_limit(shift_z, cylinder(kz, (0, 1), []))
    assert kind == "tail" and isinstance(tail, TailCylinder)
    assert (tail.side, tail.pin_from) == (+1, 0) and tail.residual.is_whole()
    # and its inverse pins ..., x_{-1}, x_0
    back = rowfinite_endo(kz, -1, 1, 1, [[(-1, [[1]])]])
    kind, tail = chain_limit(back, cylinder(kz, (0, 1), []))
    assert kind == "tail" and (tail.side, tail.pin_from) == (-1, 0)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("index_set", ["N", "Z"])
def test_chain_limit_agrees_with_the_earlier_exact_end(index_set, periodic):
    # the earlier rule found fixed points and pinned growing windows only;
    # chain_limit must find the same ends and add tails only where it gave
    # up.  A short walk keeps the chains that end nowhere cheap.
    policy = StabilizationPolicy(max_n=12)
    ends = collections.Counter()
    for seed in range(60):
        _, endo, u = random_rowfinite(random.Random(seed), index_set, periodic)
        try:
            kind, limit = oracles.cotrajectory_exact(endo, u, policy)
        except Inconclusive:
            kind = None
        try:
            end = chain_limit(endo, u, policy)
        except Inconclusive:
            end = None
        if kind == "stalled":
            assert end == ("cylinder", limit), seed
        elif kind == "trivial":
            assert end == ("trivial", limit), seed
        else:
            assert end is None or end[0] == "tail", seed
        ends[end and end[0]] += 1
    assert ends["cylinder"] and ends["trivial" if index_set == "N" else "tail"]


def test_chain_limit_waits_out_the_growth_of_a_longer_period():
    # x_0 -> x_1, x_1 -> x_2, x_2 -> x_2, period 3: C_1, C_2, C_3 pin the
    # growing windows [0, 1), [0, 2), [0, 3) and then C_4 = C_3
    k = k_z2()
    endo = rowfinite_endo(k, 0, 2, 3, [[(1, [[1]])], [(1, [[1]])], [(0, [[1]])]])
    c3 = cylinder(k, (0, 3), [])
    assert chain_limit(endo, u0(k)) == ("cylinder", c3)
    assert oracles.cotrajectory_exact(endo, u0(k)) == ("stalled", c3)
    # over Z, a map of period 4 grows a pinned half line on three steps
    # before it stalls: the tail fails the fixed-point equation and the
    # walk goes on to the fixed point
    kz = pro_group([], [Z2], "Z")
    rows = [[(-1, [[1]])], [(-1, [[0]])], [(-1, [[1]])], [(-1, [[1]])]]
    endo = rowfinite_endo(kz, -1, 1, 4, rows)
    c4 = cylinder(kz, (-3, 2), [])
    assert chain_limit(endo, cylinder(kz, (0, 2), [])) == ("cylinder", c4)


def test_quotient_system_examples():
    k = k_z2()
    u = u0(k)
    qs = quotient_system(left_shift(k), u)
    assert qs.mode == "whole"
    assert all(c.ok for c in qs.checks)
    qr = quotient_system(right_shift(k), u)
    assert qr.mode == "finite"
    assert qr.quotient.moduli == (2,)
    assert qr.endo_q.matrix == ((0,),)  # induced map is zero on K/U
    assert qr.u_image.order == 1
    assert all(c.ok for c in qr.checks)
    qi = quotient_system(identity_endo(k), u)
    assert qi.mode == "finite"
    assert all(c.ok for c in qi.checks)


def test_log_law():
    k = k_z2()
    sig = left_shift(k)
    u = u0(k)
    for kk in (2, 3, 4):
        rec = log_law_check(sig, u, kk)
        assert rec.ok and rec.lhs == 2**kk
    kz = pro_group([], [Z2], "Z")
    shift_z = rowfinite_endo(kz, 1, 1, 1, [[(1, [[1]])]])
    rec = log_law_check(shift_z, cylinder(kz, (0, 1), []), 2)
    assert rec.ok and rec.lhs == 4
    with pytest.raises(ValidationError):
        log_law_check(right_shift(k), u, 2)
    rec = log_law_check(identity_endo(k), u, 5)
    assert rec.ok and rec.lhs == 1


def test_coker_remark_inequality():
    # trivial certified cotrajectory on an infinite group forces
    # |ker psi| > |coker psi|
    k = k_z2()
    sig = left_shift(k)
    assert chain_limit(sig, u0(k))[0] == "trivial"
    assert k.is_infinite()
    assert kernel_order(sig) > cokernel_order(sig)


def test_power_endo_consistency():
    k = k_z2()
    sig = left_shift(k)
    p2 = PowerEndo(sig, 2)
    x = {3: (1,)}
    assert p2.apply(x) == sig.apply(sig.apply(x))
    u = u0(k)
    assert p2.preimage_cylinder(u)[0] == sig.preimage_cylinder(sig.preimage_cylinder(u)[0])[0]
    rep = cotrajectory_limits(p2, u)
    assert rep.certified and rep.alpha == 2  # same U sees one new pin per step


def test_automorphism_inverse_has_same_index_chain():
    # for a topological automorphism, [K : C_n(psi, U)] = [K : C_n(psi^{-1}, U)]
    z8 = FiniteAbelianGroup((8,))
    kz = pro_group([], [z8], "Z")
    cases = [
        # shift and its inverse
        (
            rowfinite_endo(kz, 1, 1, 1, [[(1, [[1]])]]),
            rowfinite_endo(kz, -1, 1, 1, [[(-1, [[1]])]]),
        ),
        # unipotent automorphism 1 + 2s with inverse 1 + 6s + 4s^2 (s = shift)
        (
            rowfinite_endo(kz, 0, 2, 1, [[(0, [[1]]), (1, [[2]])]]),
            rowfinite_endo(kz, 0, 3, 1, [[(0, [[1]]), (1, [[6]]), (2, [[4]])]]),
        ),
    ]
    from entctl.profinite import identity_endo as _ie

    for psi, psi_inv in cases:
        assert psi.compose(psi_inv).equals_spec(_ie(kz))
        assert psi_inv.compose(psi).equals_spec(_ie(kz))
        for u in [cylinder(kz, (0, 1), []), cylinder(kz, (0, 2), [[1, 2]])]:
            a = cotrajectory_limits(psi, u)
            b = cotrajectory_limits(psi_inv, u)
            n = min(len(a.c), len(b.c))
            assert a.c[:n] == b.c[:n]


def test_period_two_blocks():
    k = pro_group([], [Z2, FiniteAbelianGroup((4,))], "N")
    # shift by 2 keeps block types aligned
    shift2 = rowfinite_endo(
        k, 2, 1, 2, [[(2, [[1]])], [(2, [[1]])]]
    )
    u = cylinder(k, (0, 1), [])
    rep = cotrajectory_limits(shift2, u)
    assert rep.certified and rep.alpha == 2
    u1 = cylinder(k, (1, 2), [])
    rep4 = cotrajectory_limits(shift2, u1)
    assert rep4.certified and rep4.alpha == 4


def test_cotrajectory_membership_against_iterated_application():
    # x lies in C_n iff every iterate psi^j(x), j < n, satisfies the U
    # condition; check element by element over the cylinder's window
    import itertools
    import random

    rng = random.Random(4321)
    for _ in range(15):
        d = rng.choice([2, 3])
        k_rank = rng.randrange(1, 3)
        blk = FiniteAbelianGroup((d,) * k_rank)
        kgrp = pro_group([], [blk], "N")
        offset = rng.choice([-1, 0, 1])
        width = rng.randrange(1, 3)
        terms = []
        for o in range(offset, offset + width):
            mat = [[rng.randrange(d) for _ in range(k_rank)] for _ in range(k_rank)]
            if any(any(r) for r in mat):
                terms.append((o, mat))
        if not terms:
            continue
        endo = rowfinite_endo(kgrp, offset, width, 1, [terms])
        u = cylinder(kgrp, (0, 1), [])
        n = rng.randrange(2, 4)
        c_n = cotrajectory(endo, u, n)
        wg, starts = kgrp.window_layout(c_n.lo, c_n.hi)
        if wg.order > 4000:
            continue
        for dense in itertools.product(*(range(m) for m in wg.moduli)):
            x = {}
            for i in range(c_n.lo, c_n.hi):
                piece = tuple(dense[starts[i - c_n.lo] : starts[i - c_n.lo + 1]])
                if any(piece):
                    x[i] = piece
            expect = True
            y = dict(x)
            for _ in range(n):
                if not u.contains_elem(y):
                    expect = False
                    break
                y = endo.apply(y)
            assert c_n.core.contains(dense) == expect


def test_zero_map_finiteness_hypothesis_holds():
    # for abelian K the quotient K/(Im psi * C) is always finite; even the
    # zero map certifies, with both correction terms equal and entropy 0
    k = k_z2()
    zero = rowfinite_endo(k, 0, 1, 1, [[(0, [[0]])]])
    u = u0(k)
    rep = cotrajectory_limits(zero, u)
    assert rep.certified
    assert rep.psi_inv_c_mod_c == rep.k_mod_l == 2
    assert rep.entropy.is_zero


def test_small_image_maps_still_certify():
    # Im psi can have infinite index in K while Im psi * C stays open
    z4 = FiniteAbelianGroup((4,))
    k = pro_group([], [z4], "N")
    u = cylinder(k, (0, 1), [])
    double_shift = rowfinite_endo(k, 1, 1, 1, [[(1, [[2]])]])
    rep = cotrajectory_limits(double_shift, u)
    assert rep.certified
    assert rep.alpha == 1 and rep.psi_inv_c_mod_c == 4 and rep.k_mod_l == 4
    assert rep.entropy.is_zero


def test_inconclusive_on_tiny_budget():
    k = k_z2()
    sig = left_shift(k)
    tiny = StabilizationPolicy(max_n=2, stall_window=5, window_budget=4)
    rep = cotrajectory_limits(sig, u0(k), tiny)
    assert not rep.certified
    for formula in ("entropy", "entropy_limit"):
        with pytest.raises(Inconclusive) as exc:
            getattr(rep, formula)
        assert exc.value.report is rep


def test_entropy_of_growing_correction_term_is_hypothesis_failure():
    # the status classify_cotrajectory gives when [K : Im(psi) C_n] keeps growing
    rep = CotrajectoryReport(
        n_max=4, c=(2, 4, 8, 16, 32), alphas=(2, 2, 2, 2), n0=None, alpha=None,
        n1=None, psi_inv_c_mod_c=None, k_mod_l=None, certified=False,
        status="hypothesis_failure",
    )
    for formula in ("entropy", "entropy_limit"):
        with pytest.raises(HypothesisFailure, match="keeps growing"):
            getattr(rep, formula)


def count_calls(monkeypatch, method: str) -> list:
    """Record the calling function's name for every call to a RowFiniteEndo method."""
    calls = []
    original = getattr(RowFiniteEndo, method)

    def counting(self, *args):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(self, *args)

    monkeypatch.setattr(RowFiniteEndo, method, counting)
    return calls


def test_chain_computes_each_cylinder_on_demand(monkeypatch):
    k = k_z2()
    sig = left_shift(k)
    u = u0(k)
    calls = count_calls(monkeypatch, "preimage_cylinder")
    cs = chain(sig, u)
    assert next(cs) == u and calls == []
    next(cs)
    c3 = next(cs)
    assert len(calls) == 2
    assert c3 == cotrajectory(sig, u, 3)


def test_walk_builds_one_window_map_per_step(monkeypatch):
    # psi^{-1}(C_n) and [K : Im(psi) C_n] are read off the same map of C_n;
    # psi^2 composes two maps of the base per window
    calls = count_calls(monkeypatch, "window_map")
    k = k_z2()
    sig = left_shift(k)
    for endo, per_step in ((sig, 1), (PowerEndo(sig, 2), 2)):
        calls.clear()
        rep = cotrajectory_limits(endo, u0(k, 2))
        assert rep.certified
        assert len(calls) == per_step * rep.n_max


def z_shift():
    kz = pro_group([], [Z2], "Z")
    return kz, rowfinite_endo(kz, 1, 1, 1, [[(1, [[1]])]])


# too short a walk for the Z-shift's tail to show: it ends Inconclusive
SHORT = StabilizationPolicy(max_n=2, stall_window=4)


def test_memo_repeats_inconclusive_outcome_without_walking(monkeypatch):
    calls = count_calls(monkeypatch, "preimage_cylinder")
    kz, shift_z = z_shift()
    u = cylinder(kz, (-1, 2), [])
    with pytest.raises(Inconclusive) as first:
        chain_limit(shift_z, u, SHORT)
    walked = len(calls)
    assert walked == SHORT.max_n
    with pytest.raises(Inconclusive) as second:
        chain_limit(shift_z, u, SHORT)
    assert len(calls) == walked
    assert second.value is not first.value
    assert str(second.value) == str(first.value)
    assert second.value.report == first.value.report


def test_memo_is_not_shared_between_equal_maps(monkeypatch):
    calls = count_calls(monkeypatch, "preimage_cylinder")
    kz, shift_z = z_shift()
    _, again = z_shift()
    assert again.equals_spec(shift_z)
    u = cylinder(kz, (-1, 2), [])
    for endo in (shift_z, again):
        with pytest.raises(Inconclusive):
            chain_limit(endo, u, SHORT)
    assert len(calls) == 2 * SHORT.max_n


def test_memo_normalizes_default_policy(monkeypatch):
    calls = count_calls(monkeypatch, "preimage_cylinder")
    k = k_z2()
    sig = left_shift(k)
    rep = cotrajectory_limits(sig, u0(k))
    walked = len(calls)
    assert walked > 0
    assert cotrajectory_limits(sig, u0(k), DEFAULT_POLICY) is rep
    assert cotrajectory_limits(sig, u=u0(k), policy=DEFAULT_POLICY) is rep
    assert len(calls) == walked


def test_memo_keys_on_policy():
    k = k_z2()
    sig = left_shift(k)
    assert cotrajectory_limits(sig, u0(k)).certified
    tiny = StabilizationPolicy(max_n=2, stall_window=5, window_budget=4)
    rep = cotrajectory_limits(sig, u0(k), tiny)
    assert not rep.certified and rep.n_max == 2
    with pytest.raises(Inconclusive):
        cotrajectory_limits(sig, u0(k), tiny).entropy_limit
    assert cotrajectory_limits(sig, u0(k)).entropy_limit == EntropyValue.of_log(2)


def test_verify_decides_surjectivity_once_per_map(monkeypatch):
    calls = count_calls(monkeypatch, "window_map")
    path = pathlib.Path(__file__).resolve().parent.parent / "instances" / "left_shift_pro_z2.json"
    inst = parse_instance(str(path))
    assert len(inst.cylinders) == 2
    report = run_command("verify", inst)
    assert report.status == "ok"
    # radii 1, 2, 4, ..., window_budget, walked for one cylinder only
    assert calls.count("surjective_on_windows") == 6


def test_verify_ends_half_line_chains_early(monkeypatch):
    # both cylinders of the Z-shift have half-line limits, so their chains
    # end at the tail; walking them to max_n takes 146 pull-backs
    calls = count_calls(monkeypatch, "preimage_cylinder")
    path = pathlib.Path(__file__).resolve().parent.parent / "instances" / "twosided_shift_z2.json"
    report = run_command("verify", parse_instance(str(path)))
    assert report.status == "ok"
    assert 0 < len(calls) <= 40


# -- window changes built from the HNF against elimination from generators --

FAMILIES = ((2, 4, 8), (3, 9), (2, 3, 6))


def mixed_block(rng):
    """A block with moduli mixed inside one family, sometimes Z/1."""
    if rng.random() < 0.15:
        return FiniteAbelianGroup((1,))
    fam = rng.choice(FAMILIES)
    return FiniteAbelianGroup(tuple(rng.choice(fam) for _ in range(rng.randrange(1, 3))))


def mixed_pro_group(rng):
    index_set = rng.choice("NZ")
    period = [mixed_block(rng) for _ in range(rng.choice((1, 2)))]
    prefix = [mixed_block(rng) for _ in range(rng.randrange(3))] if index_set == "N" else []
    return pro_group(prefix, period, index_set)


def sparse_elems(rng, group, count):
    return [
        tuple(rng.choice((0, 1, 2, 3)) * rng.randrange(d) for d in group.moduli)
        for _ in range(count)
    ]


def units(width, coords):
    return [tuple(int(t == j) for t in range(width)) for j in coords]


def random_cylinder(rng, k):
    lo = rng.randrange(0, 3) if k.index_set == "N" else rng.randrange(-3, 3)
    hi = lo + rng.randrange(1, 3)
    wg, _ = k.window_layout(lo, hi)
    return cylinder(k, (lo, hi), sparse_elems(rng, wg, rng.randrange(0, 3)))


def test_extended_core_matches_elimination_from_generators():
    rng = random.Random(808)
    grown_both_sides = enumerated = 0
    for _ in range(200):
        k = mixed_pro_group(rng)
        c = random_cylinder(rng, k)
        if c.is_whole():
            continue
        lo = c.lo - rng.randrange(0, 3)
        if k.index_set == "N":
            lo = max(lo, 0)
        hi = c.hi + rng.randrange(0, 3)
        grown_both_sides += lo < c.lo and hi > c.hi
        ext = c.extended_core(lo, hi)
        wg, starts = k.window_layout(lo, hi)
        off = starts[c.lo - lo]
        end = off + c.core.ambient.rank
        # the padded core generators plus the unit vectors of the new blocks
        gens = [(0,) * off + g + (0,) * (wg.rank - end) for g in c.core.generators()]
        gens += units(wg.rank, [t for t in range(wg.rank) if not off <= t < end])
        assert ext.basis == canonical_subgroup(wg, gens).basis
        assert_forms_agree([ext, canonical_subgroup(wg, gens), c.extended_core(lo, hi), c.core])
        if wg.order <= 4096:
            enumerated += 1
            core = oracles.subgroup_elements(c.core.ambient.moduli, c.core.generators())
            expect = {x for x in oracles.all_elements(wg.moduli) if x[off:end] in core}
            assert set(ext.elements()) == expect
    assert grown_both_sides > 20 and enumerated > 40


def test_window_projections_match_elimination_from_generators():
    rng = random.Random(909)
    cases = {"back": 0, "front": 0}
    enumerated = 0
    for _ in range(200):
        k = mixed_pro_group(rng)
        lo = rng.randrange(0, 3) if k.index_set == "N" else rng.randrange(-3, 3)
        hi = lo + rng.randrange(2, 4)
        wg, starts = k.window_layout(lo, hi)
        side = rng.choice(("back", "front"))
        # a core on which the last (or first) block is free
        free = range(starts[-2], wg.rank) if side == "back" else range(starts[1])
        core = canonical_subgroup(
            wg, sparse_elems(rng, wg, rng.randrange(0, 3)) + units(wg.rank, free)
        )
        if side == "back":
            cut = starts[-2]
            small, _ = k.window_layout(lo, hi - 1)
            got = _project_out(core, cut, small)
            gens = [g[:cut] for g in core.generators()]
            keep = slice(0, cut)
        else:
            cut = starts[1]
            small, _ = k.window_layout(lo + 1, hi)
            got = _project_out_front(core, cut, small)
            gens = [g[cut:] for g in core.generators()]
            keep = slice(cut, wg.rank)
        cases[side] += 1
        assert got.basis == canonical_subgroup(small, gens).basis
        assert_forms_agree([got, canonical_subgroup(small, gens), core])
        if wg.order <= 4096:
            enumerated += 1
            elems = oracles.subgroup_elements(wg.moduli, core.generators())
            assert set(got.elements()) == {x[keep] for x in elems}
    assert min(cases.values()) > 50 and enumerated > 60
