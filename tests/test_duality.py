import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from entctl.cli import instance_from_dict
from entctl.discrete import banded_endo, locally_finite_group, trajectory_engines, trajectory_limits
from entctl.duality import (
    annihilator,
    bridge,
    dual_group,
    dual_hom,
    dual_map,
    verify_duality_facts,
    weiss_bridge_check,
)
from entctl.finabel import (
    FiniteAbelianGroup,
    canonical_subgroup,
    hom_validate,
    identity_hom,
    zero_hom,
)
from entctl.profinite import RowFiniteEndo, cotrajectory, cotrajectory_limits
from entctl.values import EntropyValue, StabilizationPolicy

import oracles
from test_finabel import random_moduli, random_valid_matrix, random_elems

Z2 = FiniteAbelianGroup((2,))


def test_dual_group_examples():
    for mods in [(4,), (2, 2, 2), (2, 6)]:
        a = FiniteAbelianGroup(mods)
        d, p = dual_group(a)
        assert d.moduli == a.moduli
        assert d.order == a.order
        # non-degeneracy by enumeration
        for x in a.elements():
            if any(x):
                assert any(p.pair(x, chi) for chi in d.elements())


def test_pairing_matches_fraction_oracle():
    rng = random.Random(8)
    for _ in range(20):
        a = FiniteAbelianGroup(random_moduli(rng))
        _, p = dual_group(a)
        x = tuple(rng.randrange(d) for d in a.moduli)
        chi = tuple(rng.randrange(d) for d in a.moduli)
        assert Fraction(p.pair(x, chi), p.modulus) == oracles.pairing_value(a.moduli, x, chi)


def test_dual_hom_examples():
    z8 = FiniteAbelianGroup((8,))
    f = hom_validate([[2]], z8, z8)
    assert dual_hom(f).matrix == ((2,),)
    a = FiniteAbelianGroup((2, 4))
    assert dual_hom(identity_hom(a)).matrix == identity_hom(a).matrix
    assert dual_hom(zero_hom(a, a)).matrix == zero_hom(a, a).matrix


def test_double_dual_is_identity():
    rng = random.Random(44)
    for _ in range(30):
        a = FiniteAbelianGroup(random_moduli(rng))
        if a.order > 1000:
            continue
        f = hom_validate(random_valid_matrix(rng, a, a), a, a)
        assert dual_hom(dual_hom(f)).matrix == f.matrix


def test_annihilator_examples():
    z4 = FiniteAbelianGroup((4,))
    d, p = dual_group(z4)
    h = canonical_subgroup(z4, [(2,)])
    hp = annihilator(h, p)
    assert hp == canonical_subgroup(d, [(2,)])
    assert annihilator(z4.trivial_subgroup(), p) == d.whole_subgroup()
    assert annihilator(z4.whole_subgroup(), p).order == 1


def test_annihilator_against_enumeration():
    rng = random.Random(17)
    for _ in range(30):
        a = FiniteAbelianGroup(random_moduli(rng))
        if a.order > 1500:
            continue
        _, p = dual_group(a)
        h = canonical_subgroup(a, random_elems(rng, a, 2))
        hp = annihilator(h, p)
        assert set(hp.elements()) == oracles.annihilator_set(a.moduli, set(h.elements()))
        assert h.order * hp.order == a.order


def test_annihilator_reverses_lattice_ops():
    rng = random.Random(29)
    for _ in range(25):
        a = FiniteAbelianGroup(random_moduli(rng))
        _, p = dual_group(a)
        h = canonical_subgroup(a, random_elems(rng, a, 2))
        l = canonical_subgroup(a, random_elems(rng, a, 2))
        assert annihilator(h.sum_with(l), p) == annihilator(h, p).intersect_with(
            annihilator(l, p)
        )
        assert annihilator(h.intersect_with(l), p) == annihilator(h, p).sum_with(
            annihilator(l, p)
        )


def test_verify_duality_facts_examples():
    z8 = FiniteAbelianGroup((8,))
    f = hom_validate([[2]], z8, z8)
    h = canonical_subgroup(z8, [(4,)])
    recs = verify_duality_facts(z8, f, h, z8.whole_subgroup(), 1)
    assert all(r.ok for r in recs)
    a = FiniteAbelianGroup((2, 2))
    recs = verify_duality_facts(a, identity_hom(a), a.trivial_subgroup(), a.whole_subgroup(), 2)
    assert all(r.ok for r in recs)


def test_verify_duality_facts_randomized():
    rng = random.Random(500)
    for _ in range(40):
        a = FiniteAbelianGroup(random_moduli(rng))
        f = hom_validate(random_valid_matrix(rng, a, a), a, a)
        h = canonical_subgroup(a, random_elems(rng, a, 1))
        l = canonical_subgroup(a, h.generators() + random_elems(rng, a, 1))
        for r in verify_duality_facts(a, f, h, l, rng.randrange(1, 4)):
            assert r.ok, r


def shift_group_and_endo():
    g = locally_finite_group([], [Z2])
    beta = banded_endo(g, 1, 1, 1, [[[(1, (1,))]]])
    return g, beta


def test_bridge_shift_example():
    g, beta = shift_group_and_endo()
    k, psi, u = bridge(g, beta, [{0: (1,)}])
    assert psi.offset == 1 and psi.rows == (((1, ((1,),)),),)
    assert u.index == 2 and (u.lo, u.hi) == (0, 1)


def test_bridge_identity_and_zero():
    g = locally_finite_group([], [Z2])
    ident = banded_endo(g, 0, 1, 1, [[[(0, (1,))]]])
    _, psi, _ = bridge(g, ident, [{0: (1,)}])
    assert psi.rows == (((0, ((1,),)),),)
    zero = banded_endo(g, 0, 1, 1, [[[]]])
    _, psi0, _ = bridge(g, zero, [{0: (1,)}])
    assert all(not any(any(r) for r in m) for _, m in psi0.rows[0])


def test_terms_at_one_offset_are_one_entry():
    """A generator's terms at one offset are summed into one entry before the
    map is checked and dualized: two terms (1,) from Z/2 into Z/4, each
    ill-defined alone, are the well-defined term (2,)."""
    g = locally_finite_group([], [Z2, FiniteAbelianGroup((4,))])
    split = banded_endo(g, 1, 1, 2, [[[(1, (1,)), (1, (1,))]], [[(1, (1,))]]])
    whole = banded_endo(g, 1, 1, 2, [[[(1, (2,))]], [[(1, (1,))]]])
    assert split.window_map(0, 4) == whole.window_map(0, 4)
    f = [{0: (1,)}]
    assert bridge(g, split, f)[1].rows == bridge(g, whole, f)[1].rows
    assert weiss_bridge_check(g, split, [f]).ok


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_dual_map_matches_the_earlier_construction(perfbench_gen, data):
    # the dual read off the checked band entries, one period from the repeat
    # point P, is the earlier one built from the raw generator images:
    # ``gen.abelian_case`` bridges (mixed moduli, block and map period 1-2,
    # every band), on windows from 0 and on windows past P + L
    gen = perfbench_gen
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    case = gen.abelian_case(
        rng, "bridge", data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)),
        data.draw(st.sampled_from(gen.DISCRETE_BANDS)), data.draw(st.sampled_from(gen.MODULI_FAMILIES)),
    )
    inst = instance_from_dict(case)
    (_, psi), (_, ref) = dual_map(inst.group, inst.endo), oracles.reference_dual_map(inst.group, inst.endo)
    p, l = inst.endo.band.repeat()
    for hi in range(1, p + l + 3):
        assert psi.window_map(0, hi) == ref.window_map(0, hi), hi
    for _ in range(3):
        lo = data.draw(st.integers(p + l, 3 * (p + l) + 10))
        hi = lo + data.draw(st.integers(1, 4))
        assert psi.window_map(lo, hi) == ref.window_map(lo, hi), (lo, hi)


def test_trajectory_annihilator_is_cotrajectory():
    from entctl.discrete import trajectory

    g, beta = shift_group_and_endo()
    f = [{0: (1,)}]
    k, psi, u = bridge(g, beta, f)
    for n in range(1, 7):
        assert oracles.reference_is_perp(k, trajectory(beta, f, n), cotrajectory(psi, u, n))


def test_weiss_bridge_check_examples():
    g, beta = shift_group_and_endo()
    rep = weiss_bridge_check(g, beta, [[{0: (1,)}]])
    assert rep.ok
    assert rep.h_alg_value == rep.h_top_value == EntropyValue.of_log(2)
    zero = banded_endo(g, 0, 1, 1, [[[]]])
    rep0 = weiss_bridge_check(g, zero, [[{0: (1,)}]])
    assert rep0.ok and rep0.h_alg_value.is_zero and rep0.h_top_value.is_zero
    ident = banded_endo(g, 0, 1, 1, [[[(0, (1,))]]])
    repi = weiss_bridge_check(g, ident, [[{0: (1,)}]])
    assert repi.ok and repi.h_alg_value.is_zero


def test_bridge_comparison_walks_each_chain_once(monkeypatch):
    import entctl.discrete as discrete

    g, beta = shift_group_and_endo()
    family = [[{0: (1,)}], [{0: (1,)}, {1: (1,)}]]
    policy = StabilizationPolicy(max_n=64, stall_window=8, window_budget=32)
    steps = 0
    for f in family:
        _, psi, u = bridge(g, beta, f)
        n_cot = cotrajectory_limits(psi, u, policy).n_max
        assert min(8, trajectory_limits(beta, f, policy).n_max, n_cot) == 8
        steps += n_cot

    counts = {"pull_back": 0, "engine": 0}
    pull_back, make_engine = RowFiniteEndo.pull_back, discrete._make_engine

    def counted_pull_back(self, c, u):
        counts["pull_back"] += 1
        return pull_back(self, c, u)

    def counted_engine(*args):
        counts["engine"] += 1
        return make_engine(*args)

    monkeypatch.setattr(RowFiniteEndo, "pull_back", counted_pull_back)
    monkeypatch.setattr(discrete, "_make_engine", counted_engine)
    rep = weiss_bridge_check(g, beta, family, policy)
    assert rep.ok
    assert all(recs[1].name == "trajectory_perp_is_cotrajectory_n_le_8" for recs, _ in rep.entries)
    # the comparison reads the walks of the two limits: one step per C_n
    # and one trajectory engine per member
    assert counts["pull_back"] == steps
    assert counts["engine"] == len(family)


def comparison_record(rep):
    (records, _), = rep.entries
    (record,) = [r for r in records if r.name.startswith("trajectory_perp_is_cotrajectory")]
    return record


def test_bridge_comparison_fails_on_a_wrong_cotrajectory_step(monkeypatch):
    import entctl.duality as duality

    g, beta = shift_group_and_endo()
    family = [[{0: (1,)}]]
    policy = StabilizationPolicy(max_n=64, stall_window=8, window_budget=32)
    record = comparison_record(weiss_bridge_check(g, beta, family, policy))
    assert record.ok and record.name.endswith("n_le_8")
    steps = duality.walk

    def wrong_second_step(endo, u):
        # C_2 replaced by C_1 = U, which is strictly larger for the shift
        for n, (c, d, c_next) in enumerate(steps(endo, u), 1):
            yield (u if n == 2 else c), d, c_next

    monkeypatch.setattr(duality, "walk", wrong_second_step)
    rep = weiss_bridge_check(g, beta, family, policy)
    assert not comparison_record(rep).ok
    assert not rep.ok


def test_bridge_comparison_of_a_zero_subgroup_runs_once(monkeypatch):
    import entctl.duality as duality

    g, beta = shift_group_and_endo()
    calls = []
    is_perp = duality._is_perp

    def counted(engine, n, c):
        calls.append((n, c))
        return is_perp(engine, n, c)

    monkeypatch.setattr(duality, "_is_perp", counted)
    # F reduces to 0: both chains end at n = 1, and T_1-perp = C_1 is still compared
    rep = weiss_bridge_check(g, beta, [[{0: (0,)}, {3: (2,)}]])
    record = comparison_record(rep)
    assert record.name == "trajectory_perp_is_cotrajectory_n_le_1" and record.ok
    assert len(calls) == 1 and calls[0][0] == 1 and calls[0][1].is_whole()
    assert rep.ok


def test_bridge_comparison_builds_no_annihilator_and_no_snapshot(monkeypatch):
    import entctl.discrete as discrete
    import entctl.duality as duality

    g, beta = shift_group_and_endo()
    family = [[{0: (0,)}], [{0: (1,)}], [{0: (1,)}, {1: (1,)}]]
    counts = {"annihilator": 0, "snapshot": 0}
    annihilator_, snapshot = duality.annihilator, discrete._AbelianTrajectory.snapshot

    def counted_annihilator(h, pairing):
        counts["annihilator"] += 1
        return annihilator_(h, pairing)

    def counted_snapshot(self):
        counts["snapshot"] += 1
        return snapshot(self)

    monkeypatch.setattr(duality, "annihilator", counted_annihilator)
    monkeypatch.setattr(discrete._AbelianTrajectory, "snapshot", counted_snapshot)
    rep = weiss_bridge_check(g, beta, family)
    assert rep.ok
    # U = F-perp in dual_cylinder, once per member that does not reduce to 0;
    # the comparisons of T_n-perp with C_n build none
    assert counts == {"annihilator": 2, "snapshot": 0}


def _engine_at_t1(group, f_gens):
    """The trajectory engine at T_1 = F, for the zero map of ``group``."""
    zero = banded_endo(group, 0, 1, 1, [[[]] * group.period[0].rank])
    return next(trajectory_engines(zero, f_gens))


def test_is_perp_hand_built_cases():
    from entctl.duality import _is_perp
    from entctl.profinite import CylinderSubgroup, ProGroup

    g = locally_finite_group([], [Z2])
    k = ProGroup((), (Z2,), "N")
    z2_2 = FiniteAbelianGroup((2, 2))
    x0_zero = CylinderSubgroup(k, 0, 1, Z2.trivial_subgroup())  # {x_0 = 0}
    both_zero = CylinderSubgroup(k, 0, 2, z2_2.trivial_subgroup())  # {x_0 = x_1 = 0}
    t0, t1 = _engine_at_t1(g, [{0: (1,)}]), _engine_at_t1(g, [{1: (1,)}])
    # <e_0>-perp is {x_0 = 0}
    assert _is_perp(t0, 1, x0_zero)
    assert oracles.reference_is_perp(k, t0.snapshot(), x0_zero)
    # <e_1>-perp is {x_1 = 0}: {x_0 = 0} has its index, and its one stored
    # row pairs to 0 with e_1, but it leaves coordinate 1 free
    assert not _is_perp(t1, 1, x0_zero)
    assert not oracles.reference_is_perp(k, t1.snapshot(), x0_zero)
    # {x_0 = x_1 = 0} lies in <e_0>-perp with a larger index
    assert not _is_perp(t0, 1, both_zero)
    assert not oracles.reference_is_perp(k, t0.snapshot(), both_zero)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_is_perp_matches_the_earlier_comparison(perfbench_gen, data):
    # the comparison by index and pairing agrees with T_n-perp built by
    # ``annihilator`` from a snapshot of T_n, on ``gen.abelian_case`` bridges
    # (mixed moduli, period 1-2, every band), on (T_n, C_n), which are equal,
    # and on (T_n, C_{n+1}), which are equal only once the chain stalls; and
    # on C_n moved by whole block periods past T_n's window, which has
    # T_n-perp's index but constrains none of T_n's coordinates
    from entctl.duality import _is_perp, dual_cylinder
    from entctl.finabel import AbSubgroup
    from entctl.profinite import CylinderSubgroup, walk

    gen = perfbench_gen
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    case = gen.abelian_case(
        rng, "bridge", data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)),
        data.draw(st.sampled_from(gen.DISCRETE_BANDS)), data.draw(st.sampled_from(gen.MODULI_FAMILIES)),
    )
    inst = instance_from_dict(case)
    k_group, psi = dual_map(inst.group, inst.endo)
    for f_gens in inst.family:
        u = dual_cylinder(inst.group, k_group, f_gens)
        cs = [c for c, *_ in itertools.islice(walk(psi, u), 9)]
        engines = itertools.islice(trajectory_engines(inst.endo, f_gens), 8)
        for n, engine in enumerate(engines, 1):
            t_n = engine.snapshot()
            assert _is_perp(engine, n, cs[n - 1]), n
            assert oracles.reference_is_perp(k_group, t_n, cs[n - 1]), n
            assert _is_perp(engine, n, cs[n]) == oracles.reference_is_perp(k_group, t_n, cs[n]), n
            c = cs[n - 1]
            if not c.is_whole():
                lo = c.lo + len(k_group.period) * t_n.window_hi
                wg, _ = k_group.window_layout(lo, lo + c.hi - c.lo)
                far = CylinderSubgroup(k_group, lo, lo + c.hi - c.lo, AbSubgroup.from_rows(wg, c.core.rows))
                assert not _is_perp(engine, n, far), n
                assert not oracles.reference_is_perp(k_group, t_n, far), n


@pytest.mark.xfail(
    strict=True,
    reason="cotrajectory_limits certifies a premature stall (ROADMAP item 1)",
)
def test_premature_stall_is_not_certified():
    # e_i -> 2 e_{i+1} for even i and 3 e_{i+1} for odd i on (Z/4)^(N):
    # [C_n : C_{n+1}] reads 2, 2, 2 and then 1 for good, so the stall
    # window of 3 certifies alpha = 2 one step too early
    g = locally_finite_group([], [FiniteAbelianGroup((4,))])
    phi = banded_endo(g, 1, 1, 2, [[[(1, (2,))]], [[(1, (3,))]]])
    _, psi, u = bridge(g, phi, [{1: (1,)}, {2: (2,)}])
    rep = cotrajectory_limits(psi, u)
    assert not rep.certified or rep.alpha == 1


def test_weiss_bridge_sum_rule():
    g = locally_finite_group([], [Z2])
    sumrule = banded_endo(g, 0, 2, 1, [[[(0, (1,)), (1, (1,))]]])
    rep = weiss_bridge_check(g, sumrule, [[{0: (1,)}], [{0: (1,)}, {1: (1,)}]])
    assert rep.ok
    assert rep.h_alg_value == EntropyValue.of_log(2)


def test_bridge_negative_offset_left_shift():
    # e_0 -> 0, e_i -> e_{i-1} dualizes to the right shift; both correction
    # terms are nontrivial on both sides and the entropies are 0
    g = locally_finite_group([], [Z2])
    left = banded_endo(g, -1, 1, 1, [[[(-1, (1,))]]])
    rep = trajectory_limits(left, [{0: (1,)}])
    assert rep.certified and rep.t_mod_phi_t == 2 and rep.ker_cap_t == 2
    _, psi, _ = bridge(g, left, [{0: (1,)}])
    assert psi.rows == (((-1, ((1,),)),),)
    br = weiss_bridge_check(
        g, left, [[{0: (1,)}], [{1: (1,)}], [{0: (1,)}, {2: (1,)}]]
    )
    assert br.ok and br.h_alg_value.is_zero and br.h_top_value.is_zero


def test_bridge_randomized_mixed_blocks():
    # blocks of different orders exercise the adjoint scaling d_src/d_tgt
    import math

    rng = random.Random(606)
    done = 0
    while done < 12:
        period = [
            FiniteAbelianGroup(
                tuple(rng.choice([2, 3, 4, 6]) for _ in range(rng.randrange(1, 3)))
            )
            for _ in range(rng.randrange(1, 3))
        ]
        g = locally_finite_group([], period)
        p = len(period)
        offset = rng.choice([0, 1])
        width = rng.randrange(1, 3)
        images = []
        for r in range(p):
            src = period[r]
            gen_images = []
            for j in range(src.rank):
                dj = src.moduli[j]
                terms = []
                for o in range(offset, offset + width):
                    tgt = period[(r + o) % p]
                    vec = []
                    for du in tgt.moduli:
                        step = du // math.gcd(du, dj)
                        vec.append(step * rng.randrange(0, du // step))
                    if any(vec):
                        terms.append((o, tuple(vec)))
                gen_images.append(terms)
            images.append(gen_images)
        endo = banded_endo(g, offset, width, p, images)
        blk0 = period[0]
        f = [{0: tuple(rng.randrange(d) for d in blk0.moduli)}]
        rep = weiss_bridge_check(g, endo, [f])
        assert rep.ok, (period, images, f)
        done += 1


def test_bridge_rejects_nonabelian():
    s3 = oracles.perm_table(3)[0]
    from entctl.gengroup import cayley_group
    from entctl.errors import ValidationError

    g = locally_finite_group([], [cayley_group(s3)])
    endo = banded_endo(g, 1, 1, 1, [[[(1, x)] for x in range(6)]])
    with pytest.raises(ValidationError):
        bridge(g, endo, [{0: 1}])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_both_companions_are_read_off_the_index_chains(perfbench_gen, data):
    # on ``gen.abelian_case`` bridges (mixed moduli, period 1-2, every band),
    # at every step n <= 16: |F n phi(T_n)| = |F| |phi(T_n)| / |T_{n+1}|
    # (T_{n+1} = F phi(T_n)) on the trajectory, and on the cotrajectory of
    # the dual [K : Im(psi) C_n] = [K : U] / (alpha_n d_n), each exactly
    from entctl.duality import dual_cylinder
    from entctl.finabel import span_index
    from entctl.profinite import walk

    gen = perfbench_gen
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    case = gen.abelian_case(
        rng, "bridge", data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)),
        data.draw(st.sampled_from(gen.DISCRETE_BANDS)), data.draw(st.sampled_from(gen.MODULI_FAMILIES)),
    )
    inst = instance_from_dict(case)
    k_group, psi = dual_map(inst.group, inst.endo)
    for f_gens in inst.family:
        engines = trajectory_engines(inst.endo, f_gens)
        f_order = next(engines).f_order
        for n, engine in enumerate(itertools.islice(engines, 16), 1):
            q, r = divmod(f_order * engine.phit_orders[n - 1], engine.orders[n])
            assert r == 0 and engine.f_cap_phit_order() == q
        u = dual_cylinder(inst.group, k_group, f_gens)
        for c, d, c_next in itertools.islice(walk(psi, u), 16):
            q, r = divmod(u.index, c_next.index // c.index * d)
            assert r == 0 and span_index(c.core, psi.window_map(c.lo, c.hi)[2].columns) == q
