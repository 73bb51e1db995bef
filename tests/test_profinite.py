import collections
import dataclasses
import itertools
import json
import math
import pathlib
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from entctl import finabel, lattice
from entctl.cli import instance_from_dict, parse_instance, run_command
from entctl.ends import (
    HalfLineConstraint,
    TailCylinder,
    chain_end,
    chain_limit,
    stall_wait,
    _constraint_end,
    _image,
)
from entctl.errors import HypothesisFailure, Inconclusive, ValidationError
from entctl.finabel import FiniteAbelianGroup, canonical_subgroup
from entctl.lattice import ZLattice
from entctl.profinite import (
    CotrajectoryReport,
    CylinderSubgroup,
    RowFiniteEndo,
    chain,
    classify_cotrajectory,
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
    walk,
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


def test_surjectivity_builds_no_normal_form(monkeypatch):
    # [window : Im psi] = 1 is read off the pivots of an echelon basis
    calls = []
    original = ZLattice.normalize
    monkeypatch.setattr(ZLattice, "normalize", lambda lat: calls.append(1) or original(lat))
    mixed = pro_group([], [FiniteAbelianGroup((4, 2))], "N")
    twist = rowfinite_endo(mixed, 0, 2, 1, [[(0, [[2, 2], [1, 0]]), (1, [[1, 0], [0, 1]])]])
    maps = (left_shift(k_z2()), left_shift(mixed), twist, identity_endo(pro_group([], [Z3], "Z")))
    assert all(surjective_on_windows(endo) for endo in maps)
    assert calls == []


@pytest.mark.parametrize("r_fail", [2, 3, 5, 20])
def test_surjectivity_fails_late(r_fail):
    # Identity on a prefix of R mixed blocks, except a zero row at index
    # R - 1: the first window that is not onto has radius R.  Whether R is
    # a power of two or not, every budget from R on sees the failure and no
    # budget below R does.
    prefix = [Z2 if i % 2 else Z3 for i in range(r_fail)]
    k = pro_group(prefix, [Z2], "N")
    prefix_rows = [[(0, [[1]])] for _ in range(r_fail)]
    prefix_rows[r_fail - 1] = [(0, [[0]])]
    endo = rowfinite_endo(k, 0, 1, 1, [[(0, [[1]])]], prefix_rows)
    for budget in (r_fail, r_fail + 1, 24, DEFAULT_POLICY.window_budget):
        assert not surjective_on_windows(endo, StabilizationPolicy(window_budget=budget))
    # below R every window is onto: the verdict only covers the budget
    for budget in {1, r_fail - 1}:
        assert surjective_on_windows(endo, StabilizationPolicy(window_budget=budget))


def onto_at_every_radius(endo, budget):
    """Window surjectivity at each radius 1..budget, read off the image."""
    for radius in range(1, budget + 1):
        lo, hi = (0, radius) if endo.parent.index_set == "N" else (-radius, radius)
        _, _, h = endo.window_map(lo, hi)
        if h.image().order != h.target.order:
            return False
    return True


def test_surjectivity_agrees_with_construction_and_every_radius(perfbench_gen):
    # every topo_sweep stratum, plus the surjective Z-indexed rank 2-3 and
    # the non-surjective N period-2 strata that the sweep leaves out
    gen = perfbench_gen
    extra = [("Z", r, q, True, None) for r in (2, 3) for q in (1, 2)]
    extra += [("N", r, 2, False, None) for r in (1, 2)]
    strata = [*gen.TOPO_PASS, *extra]
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for i, stratum in enumerate(strata):
            inst = instance_from_dict(gen.topo_case(rng, *stratum, gen.MODULI_FAMILIES[i % 3]))
            onto = surjective_on_windows(inst.endo, inst.policy)
            assert onto == stratum[3], (seed, stratum)
            assert onto == onto_at_every_radius(inst.endo, inst.policy.window_budget), (seed, stratum)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_surjectivity_matches_laurent_determinant(data):
    # a period-1 map on (Z/p)^K over Z is onto exactly when det M(x) != 0
    p = data.draw(st.sampled_from((2, 3, 5)))
    rank = data.draw(st.integers(1, 2))
    late = rank == 2 and data.draw(st.booleans())
    offset = data.draw(st.integers(-2, 0 if late else 2))
    width = data.draw(st.integers(3 if late else 1, 3 - offset))
    row = st.lists(st.integers(0, p - 1), min_size=rank, max_size=rank)
    mat = st.lists(row, min_size=rank, max_size=rank)
    terms = [(o, data.draw(mat)) for o in range(offset, offset + width)]
    if late:
        # row 1 of M(x) is c x^s times row 0, so det M(x) = 0; outputs s
        # apart are related, which no window of radius 1 holds for s >= 2
        s = data.draw(st.integers(2, width - 1))
        c = data.draw(st.integers(1, p - 1))
        for _, m in terms[width - s :]:
            m[0] = [0, 0]
        for o, m in terms:
            m[1] = [c * x % p for x in terms[o - s - offset][1][0]] if o - s >= offset else [0, 0]
    k = pro_group([], [FiniteAbelianGroup((p,) * rank)], "Z")
    endo = rowfinite_endo(k, offset, width, 1, [terms])
    onto = surjective_on_windows(endo, StabilizationPolicy(window_budget=12))
    assert onto == any(oracles.laurent_det(terms, offset, p))


def topo_map(gen, data):
    """A ``gen.topo_case`` instance of a drawn stratum: N or Z, rank 1-3,
    block period 1-2, surjective or not, over one moduli family; over N,
    sometimes with two prefix blocks, the first drawn from the family with
    rows of its own and the second the last periodic block, so that the
    periodic rows read the blocks they were drawn for."""
    index_set = data.draw(st.sampled_from("NZ"))
    rank, period = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))
    surjective = data.draw(st.booleans())
    band = data.draw(st.sampled_from((None, *gen.N_BANDS)))
    family = data.draw(st.sampled_from(gen.MODULI_FAMILIES))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    case = gen.topo_case(rng, index_set, rank, period, surjective, band, family)
    if index_set == "N" and data.draw(st.booleans()):
        types, endo = case["group"]["blocks"]["types"], case["endo"]
        prefix = [gen._block(rng, family, rank), types[-1]]
        blocks = prefix + types * 2
        offsets = [o for o, _ in endo["rows"][0]]
        endo["prefix_rows"] = [
            [[o, gen._matrix(rng, blocks[i + o], blocks[i])] for o in offsets if i + o >= 0]
            for i in range(2)
        ]
        case["group"]["blocks"]["prefix"] = prefix
    return instance_from_dict(case)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_pull_back_matches_three_eliminations(perfbench_gen, data):
    # one stacked elimination gives the cylinder and the index of the
    # earlier three, for psi and psi^2, for U and U = K, on C = K and on
    # the first cylinders of U's chain
    inst = topo_map(perfbench_gen, data)
    k, u = inst.endo.parent, inst.cylinders[0]
    for endo in (inst.endo, inst.endo.compose(inst.endo)):
        cs = [k.whole(), *itertools.islice(chain(endo, u), 4)]
        for c in cs:
            for v in (u, k.whole()):
                d, got = endo.pull_back(c, v)
                assert (got, d) == oracles.three_elimination_step(endo, c, v)
            assert endo.preimage_cylinder(c) == endo.pull_back(c, k.whole())[1]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_window_maps_match_the_earlier_construction(perfbench_gen, data):
    # window maps read off the entries a band checked at construction equal
    # the earlier construction (raw terms, then hom_validate): topo_case maps
    # over N and Z, with prefix blocks and rows over N, their squares, and
    # the abelian banded maps of abelian_case; on windows below 0 over Z,
    # windows across P and windows far past P + L
    gen = perfbench_gen
    if data.draw(st.booleans()):
        inst = topo_map(gen, data)
        maps, (p, l) = (inst.endo, inst.endo.compose(inst.endo)), inst.endo.repeat()
        z = inst.endo.parent.index_set == "Z"
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        case = gen.abelian_case(
            rng, data.draw(st.sampled_from(("bridge", "discrete"))), data.draw(st.integers(1, 2)),
            data.draw(st.integers(1, 2)), data.draw(st.sampled_from(gen.DISCRETE_BANDS)),
            data.draw(st.sampled_from(gen.MODULI_FAMILIES)),
        )
        endo = instance_from_dict(case).endo
        maps, (p, l), z = (endo,), endo.band.repeat(), False
    far = 3 * (p + l) + 20
    windows = st.one_of(
        st.integers(-far if z else 0, p + l + 2),
        st.integers(max(p - 3, -far if z else 0), p),
        st.integers(far, far + 10),
        st.integers(-far - 10, -far) if z else st.integers(0, 2),
    )
    for _ in range(3):
        lo = data.draw(windows)
        hi = lo + data.draw(st.integers(1, 4))
        for endo in maps:
            assert endo.window_map(lo, hi) == oracles.reference_window_map(endo, lo, hi), (lo, hi)


def assert_composed_window_map(composed, iterated, lo, hi):
    """The composed map's window map of [lo, hi) is the iterated one on the
    composed source hull, and the rest of the iterated source window enters
    by zero columns: the iterated hull also spans blocks that a middle map's
    rows read but no composed row reaches."""
    s_lo, s_hi, h = composed.window_map(lo, hi)
    i_lo, i_hi, ih = iterated.window_map(lo, hi)
    a = b = 0
    if s_lo < s_hi:
        assert i_lo <= s_lo and s_hi <= i_hi, (lo, hi)
        _, starts = composed.parent.window_layout(i_lo, i_hi)
        a, b = starts[s_lo - i_lo], starts[s_hi - i_lo]
    assert h.target == ih.target and h.columns == ih.columns[a:b], (lo, hi)
    assert not any(ih.columns[:a] + ih.columns[b:]), (lo, hi)


def span(endo):
    """The blocks from 0 over N (from -L - 2 over Z) to two periods L past
    the repeat point P of ``endo``: each row of a period appears there once
    past P, and once more."""
    p, l = endo.repeat()
    return (0 if endo.parent.index_set == "N" else -l - 2), p + 2 * l + 2


def sample_windows(endo, data, count=3):
    """The window of ``span(endo)``, then ``count`` windows of one to three
    blocks from below 0 over Z (from 0 over N) to past the repeat point, and
    far past it."""
    lo, hi = span(endo)
    yield lo, hi
    far = 3 * hi + 20
    starts = st.one_of(st.integers(-far if lo else 0, hi + 2), st.integers(far, far + 10))
    for _ in range(count):
        lo = data.draw(starts)
        yield lo, lo + data.draw(st.integers(1, 3))


def random_elem(rng, k, lo, hi):
    """A random element of the group ``k`` on the blocks [lo, hi)."""
    return {i: tuple(rng.randrange(m) for m in k.block(i).moduli) for i in range(lo, hi)}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_powers_match_the_iterated_window_maps(perfbench_gen, data):
    # psi^2, psi^2 psi and psi psi^2 of topo_map draws (N with prefix blocks
    # and rows, and Z) against the earlier power construction, which chains
    # the window maps of psi: the window maps agree (assert_composed_window_map),
    # apply is k applications of psi, and pull_back gives the same index and
    # cylinder on K and the first cylinders of U's chain
    inst = topo_map(perfbench_gen, data)
    psi, k, u = inst.endo, inst.endo.parent, inst.cylinders[0]
    square = psi.compose(psi)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    cs = [k.whole(), *itertools.islice(chain(psi, u), 3)]
    for power, times in ((square, 2), (square.compose(psi), 3), (psi.compose(square), 3)):
        iterated = oracles.IteratedMap([psi] * times)
        for lo, hi in sample_windows(power, data):
            assert_composed_window_map(power, iterated, lo, hi)
        x = random_elem(rng, k, *span(power))
        assert power.apply(x) == iterated.apply(x)
        for c in cs:
            d, got = power.pull_back(c, u)
            assert (got, d) == oracles.three_elimination_step(iterated, c, u)


def entry_step(blocks, u, v):
    """The least c > 0 by which coordinate v of either of ``blocks`` enters
    coordinate u of either well defined; the valid entries are its multiples."""
    return math.lcm(*(a[u] // math.gcd(a[u], b[v]) for a in blocks for b in blocks))


def alternating_maps(data):
    """Two period-1 maps over alternating blocks A, B of one rank and
    different moduli (such as Z/2, Z/4), the map period below the block
    period; every entry is well defined from either block into either, so
    one row serves both.  Over N with up to two prefix rows, or over Z."""
    family = data.draw(st.sampled_from(((2, 4, 8), (3, 9), (2, 3, 6))))
    rank = data.draw(st.integers(1, 2))
    blocks = data.draw(
        st.lists(st.tuples(*[st.sampled_from(family)] * rank), min_size=2, max_size=2, unique=True)
    )
    k = pro_group([], [FiniteAbelianGroup(b) for b in blocks], data.draw(st.sampled_from("NZ")))
    rng = random.Random(data.draw(st.integers(0, 2**32)))

    def matrix():
        return [[entry_step(blocks, u, v) * rng.randrange(8) for v in range(rank)] for u in range(rank)]

    def band_map():
        offset = rng.choice((-1, 0, 1))
        width = rng.randrange(1, 4 - abs(offset))
        offsets = range(offset, offset + width)
        prefix_rows = [
            [(o, matrix()) for o in offsets if i + o >= 0]
            for i in range(rng.randrange(3) if k.index_set == "N" else 0)
        ]
        return rowfinite_endo(k, offset, width, 1, [[(o, matrix()) for o in offsets]], prefix_rows)

    return band_map(), band_map()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_maps_below_their_block_period(data):
    # compositions of two different maps agree with the iterated window
    # maps and with applying one map after the other; a copy respelled with
    # period 2, unreduced entries and a zero term equals the map, and one
    # with an entry changed on the blocks of one kind only does not; window
    # maps equal the earlier construction
    phi, psi = alternating_maps(data)
    k = phi.parent
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for outer, inner in ((psi, phi), (phi, psi)):
        composed = outer.compose(inner)
        iterated = oracles.IteratedMap([outer, inner])
        for lo, hi in sample_windows(composed, data):
            assert_composed_window_map(composed, iterated, lo, hi)
        x = random_elem(rng, k, *span(composed))
        assert composed.apply(x) == iterated.apply(x)
    mods = [blk.moduli for blk in k.period]
    steps = [math.lcm(*(m[u] for m in mods)) for u in range(len(mods[0]))]

    def respelled(terms):
        # each entry moved by a multiple of every modulus its row meets
        zero = [[0] * len(steps) for _ in steps]
        return [(phi.offset - 1, zero)] + [
            (o, [[x + 2 * d for x in row] for row, d in zip(m, steps)]) for o, m in terms
        ]

    same = rowfinite_endo(
        k, phi.offset - 1, phi.width + 1, 2, [respelled(phi.rows[0])] * 2,
        list(map(respelled, phi.prefix_rows)),
    )
    assert same.equals_spec(phi) and phi.equals_spec(same)
    # coordinate u of a target block of kind a: the change vanishes there
    a, b = data.draw(st.permutations(mods))
    u = next(u for u in range(len(a)) if a[u] != b[u])
    delta = math.lcm(a[u], entry_step(mods, u, 0))
    if delta % b[u]:
        rows = [[(o, [list(row) for row in m]) for o, m in phi.rows[0]]]
        rows[0][0][1][u][0] += delta
        other = rowfinite_endo(k, phi.offset, phi.width, 1, rows, phi.prefix_rows)
        assert not other.equals_spec(phi) and not phi.equals_spec(other)
    for endo in (phi, psi):
        for lo, hi in sample_windows(endo, data, 2):
            assert endo.window_map(lo, hi) == oracles.reference_window_map(endo, lo, hi), (lo, hi)


def z_maps(gen, data):
    """A ``gen.topo_case`` map over Z (block period 1-2, rank 1-3, one moduli
    family), a second map of the same group with random terms on a random
    band, and a random element supported around 0."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    case = gen.topo_case(
        rng, "Z", data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)),
        data.draw(st.booleans()), data.draw(st.sampled_from((None, *gen.N_BANDS))),
        data.draw(st.sampled_from(gen.MODULI_FAMILIES)),
    )
    phi = instance_from_dict(case).endo
    types = case["group"]["blocks"]["types"]
    b = len(types)
    offset, width = gen._band(rng)
    rows = [
        [(o, gen._matrix(rng, types[(r + o) % b], types[r])) for o in range(offset, offset + width)]
        for r in range(b)
    ]
    psi = rowfinite_endo(phi.parent, offset, width, b, rows)
    x = {i: tuple(rng.randrange(m) for m in types[i % b]) for i in rng.sample(range(-3, 4), 3)}
    return phi, psi, x


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_composition_applies_one_map_after_the_other(perfbench_gen, data):
    # the product of two bands' entries is the map x -> psi(phi(x)), both ways
    phi, psi, x = z_maps(perfbench_gen, data)
    for outer, inner in ((psi, phi), (phi, psi)):
        assert outer.compose(inner).apply(x) == outer.apply(inner.apply(x))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_equals_spec_reads_the_map_not_its_spelling(perfbench_gen, data):
    # unreduced entries and an all-zero term spell the same map; one entry
    # changed by a well-defined nonzero step spells another
    phi, _, _ = z_maps(perfbench_gen, data)
    g = phi.parent
    spelled = []
    for r, terms in enumerate(phi.rows):
        tgt = g.block(r).moduli
        spelled.append([(phi.offset - 1, [[0] * g.block(r + phi.offset - 1).rank for _ in tgt])])
        spelled[-1] += [(o, [[x + 2 * d for x in row] for row, d in zip(m, tgt)]) for o, m in terms]
    same = rowfinite_endo(g, phi.offset - 1, phi.width + 1, phi.period, spelled)
    assert same.equals_spec(phi) and phi.equals_spec(same)
    changeable = [
        (r, t, u, v)
        for r, terms in enumerate(phi.rows)
        for t, (o, m) in enumerate(terms)
        for u, d_u in enumerate(g.block(r).moduli)
        for v, d_v in enumerate(g.block(r + o).moduli)
        if math.gcd(d_u, d_v) > 1
    ]
    if changeable:
        r, t, u, v = data.draw(st.sampled_from(changeable))
        rows = [[(o, [list(row) for row in m]) for o, m in terms] for terms in phi.rows]
        d_u, d_v = g.block(r).moduli[u], g.block(r + rows[r][t][0]).moduli[v]
        rows[r][t][1][u][v] += d_u // math.gcd(d_u, d_v)
        other = rowfinite_endo(g, phi.offset, phi.width, phi.period, rows)
        assert not other.equals_spec(phi) and not phi.equals_spec(other)


def test_spec_maps_read_every_block_of_a_period():
    # over alternating Z/2, Z/4 blocks, x_i -> 2 x_i and x_i -> 6 x_i vanish
    # on the Z/2 blocks only: neither is the zero map
    k = pro_group([], [FiniteAbelianGroup((2,)), FiniteAbelianGroup((4,))], "Z")
    double = rowfinite_endo(k, 0, 1, 1, [[(0, [[2]])]])
    triple = rowfinite_endo(k, 0, 1, 1, [[(0, [[3]])]])
    zero = rowfinite_endo(k, 0, 1, 1, [[(0, [[0]])]])
    assert double.apply({1: (1,)}) == {1: (2,)} and zero.apply({1: (1,)}) == {}
    assert not double.equals_spec(zero) and not zero.equals_spec(double)
    assert double.compose(triple).apply({1: (1,)}) == {1: (2,)}
    assert double.compose(triple).equals_spec(double)


def test_chain_walks_validate_no_window_map(monkeypatch):
    # every band entry was checked once, at construction: walking the left
    # shift's chains builds window maps without calling hom_validate
    calls = []
    validate = finabel.hom_validate

    def counting(*args):
        calls.append(args)
        return validate(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("entctl") and getattr(mod, "hom_validate", None) is validate:
            monkeypatch.setattr(mod, "hom_validate", counting)
    finabel.identity_hom(Z2)
    assert len(calls) == 1
    calls.clear()
    k = k_z2()
    sig = left_shift(k)
    assert cotrajectory_limits(sig, u0(k, 2)).certified
    assert chain_limit(sig, u0(k)) == ("trivial", 3)
    assert calls == []


@pytest.mark.xfail(
    strict=True,
    reason="a windowed stall certifies h = log 2 where the chain ends at alpha = 1 (ROADMAP item 1)",
)
def test_prefix_row_shift_stall_is_not_certified_early():
    # the left shift on (Z/2)^N whose prefix row 39 is zero, U = [0, 1) with
    # no core: every window up to radius 32 is onto, and alpha reads 2 forty
    # times before the chain ends exactly at alpha = 1, so h(psi, U) = 0, as
    # stall_window 64 certifies; stall_window 3 certifies log 2 at step 3
    k = k_z2()
    prefix_rows = [[(1, [[1]])] for _ in range(40)]
    prefix_rows[39] = [(1, [[0]])]
    endo = rowfinite_endo(k, 1, 1, 1, [[(1, [[1]])]], prefix_rows)
    rep = cotrajectory_limits(endo, u0(k), StabilizationPolicy(max_n=64, stall_window=3, window_budget=32))
    assert rep.entropy == EntropyValue.zero()


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
    # chain_limit must find the same ends and add tails and window
    # constraints only where it gave up.  It waits P + L cylinders where the band's repeat point and period
    # outlast stall_window, so there pinned windows may end a chain later,
    # never earlier.  A short walk keeps the chains that end nowhere cheap.
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
        elif kind == "trivial" and sum(endo.repeat()) > policy.stall_window:
            assert end[0] == "trivial" and end[1] >= limit, seed
        elif kind == "trivial":
            assert end == ("trivial", limit), seed
        else:
            assert end is None or end[0] in ("tail", "constraint"), seed
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


def test_chain_limit_waits_out_a_prefix_row_and_a_longer_period():
    # (Z/3)^2 over N, offset 0, width 2, period 3 and one prefix row, so
    # P + L = 1 + 3 = 4 > stall_window: C_2, C_3, C_4 pin the growing
    # windows [0, 2), [0, 3), [0, 4) and then C_5 = C_4, an open limit
    k = pro_group([], [FiniteAbelianGroup((3, 3))], "N")
    rows = [
        [(0, [[0, 0], [0, 0]])],
        [(0, [[0, 1], [2, 0]]), (1, [[1, 0], [0, 2]])],
        [(0, [[0, 1], [2, 1]]), (1, [[2, 0], [1, 2]])],
    ]
    prefix_rows = [[(0, [[1, 0], [1, 0]]), (1, [[2, 1], [0, 1]])]]
    endo = rowfinite_endo(k, 0, 2, 3, rows, prefix_rows)
    assert endo.repeat() == (1, 3)
    c4 = cylinder(k, (0, 4), [])
    assert cotrajectory(endo, u0(k), 4) == c4 == cotrajectory(endo, u0(k), 5)
    assert chain_limit(endo, u0(k)) == ("cylinder", c4)
    assert quotient_system(endo, u0(k)).mode == "finite"


def test_quotient_system_examples():
    k = k_z2()
    u = u0(k)
    qs = quotient_system(left_shift(k), u)
    assert qs.mode == "whole"
    assert all(c.ok for c in qs.checks)
    qr = quotient_system(right_shift(k), u)
    assert qr.mode == "finite"
    assert qr.u_minus.index == 2  # K/U_- = Z/2
    checks = {c.name: c for c in qr.checks}
    assert checks["induced_cotrajectory_trivial"].lhs == 1
    # the induced map is zero on K/U_-: kernel and cokernel are all of Z/2
    finite = checks["finite_entropy_eq_log_ker_minus_log_coker"]
    assert (finite.lhs, finite.rhs) == (2, 2)
    assert all(c.ok for c in qr.checks)
    qi = quotient_system(identity_endo(k), u)
    assert qi.mode == "finite"
    assert all(c.ok for c in qi.checks)


def test_quotient_checks_match_enumeration(perfbench_gen):
    # both sides of the two checks on K/U_- = W / core, against element
    # sets of the window group W of U_-: U's image in W from the case's own
    # generators, the induced map as the dense matrix of the raw terms
    gen = perfbench_gen
    policy = StabilizationPolicy(max_n=24, stall_window=3, window_budget=12)
    rng = random.Random(5)
    seen = 0
    for i in range(60):
        case = gen.topo_case(
            rng, rng.choice("NZ"), rng.randint(1, 2), rng.randint(1, 2), rng.random() < 0.5,
            rng.choice((None, *gen.N_BANDS)), gen.MODULI_FAMILIES[i % 3],
        )
        inst = instance_from_dict(case)
        g, endo, u = inst.endo.parent, inst.endo, inst.cylinders[0]
        try:
            kind, u_minus = chain_limit(endo, u, policy)
        except Inconclusive:
            continue
        if kind != "cylinder":
            continue
        lo, hi = u_minus.lo, u_minus.hi
        wg, _ = g.window_layout(lo, hi)
        if wg.order > 4096:
            continue
        seen += 1
        checks = {c.name: c for c in quotient_system(endo, u, policy).checks}
        mods = wg.moduli
        cols, _, _ = oracles._raw_columns(endo, range(lo, hi), lo, hi)
        matrix = [[col.get(t, 0) for col in cols] for t in range(wg.rank)]
        core = oracles.subgroup_elements(mods, u_minus.core.generators())
        # U's generators on the hull of both windows, where its blocks outside
        # its window are free, read on W
        (ulo, uhi), core_gens = case["cylinders"][0]["window"], case["cylinders"][0]["core_gens"]
        first = min(lo, ulo)
        at = list(itertools.accumulate(
            (g.block(b).rank for b in range(first, max(hi, uhi))), initial=0
        ))
        width = at[-1]
        gens = [[0] * at[ulo - first] + list(v) + [0] * (width - at[uhi - first]) for v in core_gens]
        gens += [
            [int(t == s) for t in range(width)]
            for b in range(first, max(hi, uhi)) if not ulo <= b < uhi
            for s in range(at[b - first], at[b - first + 1])
        ]
        u_image = oracles.subgroup_elements(mods, [v[at[lo - first] : at[hi - first]] for v in gens])
        c = u_image
        while (c_next := u_image & oracles.preimage_set(matrix, mods, mods, c)) != c:
            c = c_next
        ker = oracles.preimage_set(matrix, mods, mods, core)
        image = oracles.image_set(matrix, mods, oracles.all_elements(mods))
        cok = wg.order // len(oracles.sum_sets(mods, core, image))
        trivial = checks["induced_cotrajectory_trivial"]
        assert (trivial.ok, trivial.lhs) == (c == core, len(c) // len(core)), i
        finite = checks["finite_entropy_eq_log_ker_minus_log_coker"]
        assert (finite.lhs, finite.rhs) == (len(ker) // len(core), cok), i
    assert seen >= 20


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
    p2 = sig.compose(sig)
    x = {3: (1,)}
    assert p2.apply(x) == sig.apply(sig.apply(x))
    u = u0(k)
    assert p2.preimage_cylinder(u) == sig.preimage_cylinder(sig.preimage_cylinder(u))
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


def zero_endo(k):
    """The zero map of a product of Z/2 blocks: its window maps are zero."""
    return rowfinite_endo(k, 0, 1, 1, [[(0, [[0]])]])


def test_exact_end_that_fails_its_identity_is_a_broken_invariant():
    # the identity on (Z/2)^N with U = {x_0 = 0} ends exactly at C_2 = C_1 = U;
    # with the zero map's window maps in place of the true ones,
    # [K : Im(psi) C_1] reads 2, so |psi^{-1}(C)/C| = 1 = alpha * [K : Im(psi) C]
    # fails at alpha = 1
    k = k_z2()
    u = u0(k)
    with pytest.raises(AssertionError, match="exact chain end failed its identity"):
        classify_cotrajectory(zero_endo(k), u, walk(identity_endo(k), u), DEFAULT_POLICY)


def test_image_index_growing_at_every_step_is_a_hypothesis_failure():
    # a hand-built stream on (Z/2)^N: C_n pins the blocks [0, n), so alpha = 2
    # at every step, and the window maps are the zero map's, so
    # [K : Im(psi) C_n] = 2^n grows on every step until the budget ends
    k = k_z2()
    u = u0(k)
    steps = ((u0(k, n), 1, u0(k, n + 1)) for n in itertools.count(1))
    policy = StabilizationPolicy(max_n=8, stall_window=3)
    rep = classify_cotrajectory(zero_endo(k), u, steps, policy)
    assert (rep.n_max, rep.alphas, rep.certified) == (8, (2,) * 8, False)
    assert rep.status == "hypothesis_failure"
    with pytest.raises(HypothesisFailure, match="keeps growing"):
        rep.entropy


def test_a_wrong_step_index_fails_the_identity():
    # the steps' d = [K : U + psi^{-1}(C_n)] enter the identity
    # |psi^{-1}(C)/C| = [K : U] / d = alpha * [K : Im(psi) C]; a wrong d
    # must fail it, at a stall and at an exact end
    k = k_z2()
    u = u0(k)

    def classified(endo, change):
        steps = ((c, change(d), c_next) for c, d, c_next in walk(endo, u))
        return classify_cotrajectory(endo, u, steps, DEFAULT_POLICY)

    # the left shift stalls at alpha = 2 with d = 1; with d = 2 it never certifies
    sig = left_shift(k)
    assert classified(sig, lambda d: d).certified
    rep = classified(sig, lambda d: 2 * d)
    assert (rep.certified, rep.status, rep.n_max) == (False, "inconclusive", DEFAULT_POLICY.max_n)
    # the identity ends exactly at alpha = 1 with d = 2; with d = 1 it is broken
    ident = identity_endo(k)
    assert classified(ident, lambda d: d).certified
    with pytest.raises(AssertionError, match="exact chain end failed its identity"):
        classified(ident, lambda d: d // 2)


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
    calls = count_calls(monkeypatch, "pull_back")
    cs = chain(sig, u)
    assert next(cs) == u and calls == []
    next(cs)
    c3 = next(cs)
    assert len(calls) == 2
    assert c3 == cotrajectory(sig, u, 3)


def test_pull_back_builds_no_window_map(monkeypatch):
    # a chain step writes its rows straight from the band: walking chains of
    # the left shift, its square (one band too) and the Z-shift, and pulling
    # each cylinder back under U = K, builds no window map
    maps = count_calls(monkeypatch, "window_map")
    bands = count_calls(monkeypatch, "band_map")
    k = k_z2()
    sig = left_shift(k)
    kz, shift_z = z_shift()
    for endo, u in ((sig, u0(k, 2)), (sig.compose(sig), u0(k)), (shift_z, cylinder(kz, (-1, 2), []))):
        for c in itertools.islice(chain(endo, u), 8):
            endo.preimage_cylinder(c)
    assert maps == [] and bands == []


def test_a_certified_walk_builds_one_window_map(monkeypatch):
    # [K : Im(psi) C_n] is read off the map of C_n at the stall only, for
    # psi^2 too; a replay of the kept walk builds none
    k = k_z2()
    sig = left_shift(k)
    u = u0(k, 2)
    for endo in (sig, sig.compose(sig)):
        with monkeypatch.context() as mp:
            calls = count_calls(mp, "window_map")
            rep = cotrajectory_limits(endo, u)
        assert rep.certified and rep.n_max >= 3
        assert calls == ["certify"]
        with monkeypatch.context() as mp:
            maps, pulls = count_calls(mp, "window_map"), count_calls(mp, "pull_back")
            kept = list(itertools.islice(walk(endo, u), rep.n_max))
            assert list(itertools.islice(chain(endo, u), 1, rep.n_max + 1)) == [c for *_, c in kept]
        assert maps == [] and pulls == []


def test_a_budget_walk_builds_window_maps_on_its_tail_only(monkeypatch):
    # the left shift never stalls within max_n = 12 when the stall window is
    # longer: only the hypothesis-failure rule builds maps, of C_n on at most
    # the last half = 6 steps
    k = k_z2()
    u = u0(k)
    policy = StabilizationPolicy(max_n=12, stall_window=13)
    built = []
    window_map = RowFiniteEndo.window_map
    monkeypatch.setattr(
        RowFiniteEndo, "window_map", lambda self, lo, hi: built.append((lo, hi)) or window_map(self, lo, hi)
    )
    rep = cotrajectory_limits(left_shift(k), u, policy)
    assert (rep.status, rep.n_max) == ("inconclusive", 12)
    tail = [(c.lo, c.hi) for c in itertools.islice(chain(left_shift(k), u), 6, 12)]
    assert 0 < len(built) <= 6 and all(w in tail for w in built)


def z_shift():
    kz = pro_group([], [Z2], "Z")
    return kz, rowfinite_endo(kz, 1, 1, 1, [[(1, [[1]])]])


# too short a walk for the Z-shift's tail to show: it ends Inconclusive
SHORT = StabilizationPolicy(max_n=2, stall_window=4)


def test_memo_repeats_inconclusive_outcome_without_walking(monkeypatch):
    calls = count_calls(monkeypatch, "pull_back")
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
    calls = count_calls(monkeypatch, "pull_back")
    kz, shift_z = z_shift()
    _, again = z_shift()
    assert again.equals_spec(shift_z)
    u = cylinder(kz, (-1, 2), [])
    for endo in (shift_z, again):
        with pytest.raises(Inconclusive):
            chain_limit(endo, u, SHORT)
    assert len(calls) == 2 * SHORT.max_n
    # the walk kept on shift_z is replayed there, and walked again on an
    # equal map built afresh
    _, fresh = z_shift()
    kept = list(itertools.islice(chain(shift_z, u), SHORT.max_n + 1))
    assert len(calls) == 2 * SHORT.max_n
    assert list(itertools.islice(chain(fresh, u), SHORT.max_n + 1)) == kept
    assert len(calls) == 3 * SHORT.max_n


def test_memo_normalizes_default_policy(monkeypatch):
    calls = count_calls(monkeypatch, "pull_back")
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
    # radius 1 and window_budget, walked for one cylinder only
    assert calls.count("surjective_on_windows") == 2


def test_verify_ends_half_line_chains_early(monkeypatch):
    # both cylinders of the Z-shift have half-line limits, so their chains
    # end at the tail; walking them to max_n takes 146 pull-backs (chain
    # steps, tail checks and plain preimages alike)
    calls = count_calls(monkeypatch, "pull_back")
    path = pathlib.Path(__file__).resolve().parent.parent / "instances" / "twosided_shift_z2.json"
    report = run_command("verify", parse_instance(str(path)))
    assert report.status == "ok"
    assert 0 < len(calls) <= 40


LEFT_SHIFT = pathlib.Path(__file__).resolve().parent.parent / "instances" / "left_shift_pro_z2.json"


def left_shift_variant(rows, prefix_rows=(), modulus=2):
    """``left_shift_pro_z2`` with the given rows (and prefix rows) in place
    of the shift's one row, over Z/``modulus``."""
    raw = json.loads(LEFT_SHIFT.read_text(encoding="utf-8"))
    raw["group"]["blocks"]["types"] = [[modulus]]
    raw["endo"].update(period=len(rows), rows=rows, prefix_rows=list(prefix_rows))
    return instance_from_dict(raw)


SHIFT_ROW = [[1, [[1]]]]


def test_left_shift_chain_ends_on_a_window_constraint(monkeypatch):
    # cylinder 1's chain C_n = {x_0 = ... = x_n} ends on its limit, the
    # half line x_i = x_{i+1} for every i >= 0: K = {(a, a)} on windows of
    # width 2 from block 0, with no residual
    calls = count_calls(monkeypatch, "pull_back")
    inst = parse_instance(str(LEFT_SHIFT))
    kind, x = chain_limit(inst.endo, inst.cylinders[1], inst.policy)
    assert kind == "constraint" and isinstance(x, HalfLineConstraint)
    assert (x.start, x.width) == (0, 2) and x.residual.is_whole()
    assert x.window == canonical_subgroup(FiniteAbelianGroup((2, 2)), [(1, 1)])
    assert x.truncate(6) == cotrajectory(inst.endo, inst.cylinders[1], 5)
    assert 0 < calls.count("walk") < 16


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_replayed_walk_is_the_same_walk(perfbench_gen, monkeypatch, data):
    # k steps walked, then a reader of walk interleaved with a reader of
    # chain one step ahead of it: both match a walk on an equal map built
    # afresh, the kept steps are replayed as they are, and only the steps
    # past the kept walk are pulled back
    inst = topo_map(perfbench_gen, data)
    endo, u = inst.endo, inst.cylinders[0]
    fresh = rowfinite_endo(endo.parent, endo.offset, endo.width, endo.period, endo.rows, endo.prefix_rows)
    assert fresh.equals_spec(endo)
    k = data.draw(st.integers(1, 5))
    expected = list(itertools.islice(walk(fresh, u), k + 3))
    first = list(itertools.islice(walk(endo, u), k))
    with monkeypatch.context() as mp:
        calls = count_calls(mp, "pull_back")
        second, third = walk(endo, u), chain(endo, u)
        next(third)
        for n, step in enumerate(expected):
            assert next(third) == step[2]
            got = next(second)
            if n < k:
                assert got is first[n]
            assert got == step
    assert len(calls) == 3


MAIN_COMMAND = {"discrete": "alg-entropy", "profinite": "top-entropy", "bridge": "bridge-check", "depth": "depth"}


def test_a_run_pulls_each_step_back_once(monkeypatch):
    # every bundled instance with its main command and with verify: no run
    # pulls the same cylinder back twice under one map object and one U
    original = RowFiniteEndo.pull_back
    made = collections.Counter()
    maps = []

    def counting(self, c, u):
        maps.append(self)  # no map of the run is freed, so no id is reused
        made[id(self), c, u] += 1
        return original(self, c, u)

    monkeypatch.setattr(RowFiniteEndo, "pull_back", counting)
    runs, repeated = [], []
    for path in sorted(LEFT_SHIFT.parent.glob("*.json")):
        for command in (MAIN_COMMAND[parse_instance(str(path)).kind], "verify"):
            made.clear()
            maps.clear()
            run_command(command, parse_instance(str(path)))
            runs.append(sum(made.values()))
            if max(made.values(), default=1) > 1:
                repeated.append((path.stem, command))
    assert repeated == []
    assert len(runs) == 18 and sum(runs) > 0


def count_certify_and_index(monkeypatch, module, index_name, owners=None):
    """Record the certify calls of ``module``'s stall reader and the calls
    of the elimination ``index_name`` (of ``module``, or a method of each of
    ``owners``), each with the name of its caller."""
    import entctl.values

    certifies, indices = [], []

    def counting_read_stall(readings, policy, divisible):
        def counted():
            for alpha, comp, certify in readings:
                def counted_certify(a, certify=certify):
                    certifies.append(a)
                    return certify(a)

                yield alpha, comp, counted_certify

        return entctl.values.read_stall(counted(), policy, divisible)

    monkeypatch.setattr(module, "read_stall", counting_read_stall)
    for owner in owners or [module]:
        def counting_index(*args, index=getattr(owner, index_name)):
            indices.append((sys._getframe(1).f_code.co_name, args[0]))
            return index(*args)

        monkeypatch.setattr(owner, index_name, counting_index)
    return certifies, indices


def test_a_certified_walk_reads_each_independent_index_once(monkeypatch):
    # every bundled instance with its main command and with verify: the
    # classifiers run [K : Im(psi) C_n] (span_index) and |F n phi(T_n)|
    # (f_cap_phit_order) once per certify call, not once per step
    from entctl import discrete, profinite

    with monkeypatch.context() as mp:
        top_certifies, spans = count_certify_and_index(mp, profinite, "span_index")
        alg_certifies, caps = count_certify_and_index(
            mp, discrete, "f_cap_phit_order", [discrete._AbelianTrajectory, discrete._CayleyTrajectory]
        )
        for path in sorted(LEFT_SHIFT.parent.glob("*.json")):
            for command in (MAIN_COMMAND[parse_instance(str(path)).kind], "verify"):
                run_command(command, parse_instance(str(path)))
    classifier_spans = [name for name, _ in spans if name in ("certify", "<genexpr>")]
    assert len(top_certifies) > 5 and len(alg_certifies) > 5
    assert classifier_spans == ["certify"] * len(top_certifies)
    assert len(caps) == len(alg_certifies)


def test_a_budget_walk_reads_the_image_index_on_its_tail_only(monkeypatch):
    # the left shift never stalls within max_n when the stall window is
    # longer: no certify call, and the hypothesis-failure rule reads
    # [K : Im(psi) C_n] on at most the last half = max_n // 2 steps
    from entctl import profinite

    k = k_z2()
    u = u0(k)
    policy = StabilizationPolicy(max_n=12, stall_window=13)
    with monkeypatch.context() as mp:
        certifies, spans = count_certify_and_index(mp, profinite, "span_index")
        rep = cotrajectory_limits(left_shift(k), u, policy)
    assert (rep.status, rep.n_max, certifies) == ("inconclusive", 12, [])
    tail = [c.core for c in itertools.islice(chain(left_shift(k), u), 6, 12)]
    assert 0 < len(spans) <= 6
    assert all(name == "<genexpr>" and core in tail for name, core in spans)


def test_a_growing_image_index_is_read_on_the_whole_tail(monkeypatch):
    # the hand-built stream of the hypothesis-failure test: alpha and d hold
    # from step 3 on, so each of steps 3-8 is a failed certify call, and the
    # rule then reads all half = 4 trailing indices, which grow
    from entctl import profinite

    k = k_z2()
    u = u0(k)
    steps = ((u0(k, n), 1, u0(k, n + 1)) for n in itertools.count(1))
    with monkeypatch.context() as mp:
        certifies, spans = count_certify_and_index(mp, profinite, "span_index")
        rep = classify_cotrajectory(zero_endo(k), u, steps, StabilizationPolicy(max_n=8, stall_window=3))
    assert rep.status == "hypothesis_failure" and certifies == [2] * 6
    assert [name for name, _ in spans] == ["certify"] * 6 + ["<genexpr>"] * 4
    assert [core for _, core in spans[6:]] == [u0(k, n).core for n in range(5, 9)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_image_index_is_read_off_the_index_chain(perfbench_gen, data):
    # the companion classify_cotrajectory no longer reads: at every step
    # n <= 16 of a topo_case walk, [K : Im(psi) C_n] = [K : U] / (alpha_n d_n)
    # exactly (C_{n+1} = U n psi^{-1}(C_n), K / psi^{-1}(C) = (Im psi + C) / C)
    inst = topo_map(perfbench_gen, data)
    u = inst.cylinders[0]
    for c, d, c_next in itertools.islice(walk(inst.endo, u), 16):
        alpha = c_next.index // c.index
        q, r = divmod(u.index, alpha * d)
        assert r == 0 and finabel.span_index(c.core, inst.endo.window_map(c.lo, c.hi)[2].columns) == q


def test_verify_walks_the_left_shift_briefly(monkeypatch):
    # 85 pull-backs while chain_limit walked cylinder 1 to max_n = 64
    calls = count_calls(monkeypatch, "pull_back")
    report = run_command("verify", parse_instance(str(LEFT_SHIFT)))
    assert report.status == "ok"
    assert 0 < len(calls) <= 40


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_constraint_ends_agree_with_the_walk(perfbench_gen, data):
    # period-1 topo_case maps over N and Z, shifts and two-term bands
    # first, and a random U on up to three blocks.  Where chain_limit ends
    # on a window constraint X, chain_end alone gives up at the same policy,
    # X lies in C_{max_n}, and the two have the same image on [s, s + w + 2)
    gen = perfbench_gen
    index_set = data.draw(st.sampled_from("NZ"))
    rank, surjective = data.draw(st.integers(1, 2)), data.draw(st.booleans())
    band = data.draw(st.sampled_from(((1, 1), (0, 2), None)))
    family = data.draw(st.sampled_from(gen.MODULI_FAMILIES))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    endo = instance_from_dict(gen.topo_case(rng, index_set, rank, 1, surjective, band, family)).endo
    lo = 0 if index_set == "N" else rng.randrange(-1, 1)
    hi = lo + rng.randrange(1, 4)
    wg, _ = endo.parent.window_layout(lo, hi)
    gens = [[rng.randrange(d) for d in wg.moduli] for _ in range(rng.randrange(1, wg.rank + 1))]
    u = cylinder(endo.parent, (lo, hi), gens)
    policy = StabilizationPolicy(max_n=24)
    try:
        kind, x = chain_limit(endo, u, policy)
    except Inconclusive:
        kind = None
    if kind != "constraint":
        return
    with pytest.raises(Inconclusive):
        next(chain_end(chain(endo, u), policy, stall_wait(endo, policy)))
    last = cotrajectory(endo, u, policy.max_n)
    assert last.contains_cylinder(x.truncate(last.hi))
    s, t = x.start, x.start + x.width + 2
    assert _image(last, s, t) == _image(x.truncate(t), s, t)


@pytest.mark.parametrize("r", [12, 40])
def test_no_constraint_is_read_before_the_repeat_point(r):
    # the shift's row up to row r - 2 and a zero row r - 1, as prefix rows:
    # both chains look like the left shift's until they stop on [0, r), and
    # cylinder 1's would end on K = {(a, a)} if that were read before P = r
    inst = left_shift_variant([SHIFT_ROW], [SHIFT_ROW] * (r - 1) + [[[1, [[0]]]]])
    assert inst.endo.repeat() == (r, 1)
    for u in inst.cylinders:
        kind, c = chain_limit(inst.endo, u, inst.policy)
        assert (kind, c.lo, c.hi, c.core.order) == ("cylinder", 0, r, 1)


def test_constraint_is_read_past_the_repeat_point():
    # over Z/4, with row 11 negating instead: C_n = {x_0 = ... = x_11 =
    # -x_12 = ... = -x_n}, so K = {(a, a)} holds from block 12 = P on,
    # after the residual x_0 = ... = x_11 = -x_12
    inst = left_shift_variant([SHIFT_ROW], [SHIFT_ROW] * 11 + [[[1, [[3]]]]], modulus=4)
    u = inst.cylinders[1]
    kind, x = chain_limit(inst.endo, u, inst.policy)
    assert kind == "constraint" and (x.start, x.width) == (12, 2)
    assert (x.residual.lo, x.residual.hi) == (0, 13)
    assert x.truncate(15) == cotrajectory(inst.endo, u, 14)


def test_constraint_needs_the_map_to_propagate_its_windows():
    # the left shift's cylinders {x_0 = ... = x_n}, offered as the chain of
    # {x_0 = x_1} under the identity: x_i = x_{i+1} for i >= 0 lies in U and
    # is invariant, but the identity adds no window to a cylinder, so the
    # cylinders do not shrink to it and no constraint is proved
    inst = parse_instance(str(LEFT_SHIFT))
    u = inst.cylinders[1]
    recent = [cotrajectory(inst.endo, u, n) for n in (4, 5, 6)]
    assert _constraint_end(inst.endo, u, recent) is not None
    assert _constraint_end(identity_endo(inst.group), u, recent) is None


def test_period_two_left_shift_walks_its_budget():
    # the same map written with two rows is out of the constraint rule's
    # scope: its chain runs to max_n, and verify says so in its note
    inst = left_shift_variant([SHIFT_ROW, SHIFT_ROW])
    with pytest.raises(Inconclusive) as exc:
        chain_limit(inst.endo, inst.cylinders[1], inst.policy)
    report = run_command("verify", inst)
    assert report.status == "ok"
    notes = [c.get("note") for c in report.results[1]["checks"] if c["name"] == "quotient_system"]
    assert notes == [str(exc.value)]
    assert notes != ["cotrajectory is a half line; quotient not materialized"]


def test_budget_walk_grows_quadratically(monkeypatch):
    """The left shift's cylinder 1 has the chain C_n = {x_0 = ... = x_n},
    whose limit is of no shape ``chain_end`` knows, so ``chain_end`` walks
    all ``max_n`` steps.  Each step is a pull-back against C_n, whose echelon
    basis has the row (1, ..., 1).  Eliminated last, it costs the step O(n)
    entries; met first, every map row inherits its n entries, O(n^2).  So
    doubling ``max_n`` may multiply the entries the walk touches by about 4
    (3.6 measured), not 8 (7.4 when the row is met first)."""
    touched = [0]
    add_multiple = lattice._add_multiple

    def counting(v, c, row, j, mods):
        touched[0] += len(row)
        add_multiple(v, c, row, j, mods)

    monkeypatch.setattr(lattice, "_add_multiple", counting)
    path = pathlib.Path(__file__).resolve().parent.parent / "instances" / "left_shift_pro_z2.json"
    counts = []
    for max_n in (32, 64):
        inst = parse_instance(str(path))
        touched[0] = 0
        policy = dataclasses.replace(inst.policy, max_n=max_n)
        with pytest.raises(Inconclusive):
            next(chain_end(chain(inst.endo, inst.cylinders[1]), policy, stall_wait(inst.endo, policy)))
        counts.append(touched[0])
    assert 0 < counts[0] and counts[1] < 5 * counts[0], counts


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
