"""Intersections, preimages, annihilators and the trajectory's kernel and
cap orders, each read off one elimination on the constrained coordinates,
against elimination from generators and against enumerated element sets."""

from contextlib import contextmanager
from math import lcm

from hypothesis import given, settings, strategies as st

from entctl import finabel
from entctl.discrete import _make_engine, banded_endo, locally_finite_group
from entctl.duality import annihilator, dual_group
from entctl.finabel import FiniteAbelianGroup, canonical_subgroup, echelon_subgroup, hom_validate
from entctl.lattice import ZLattice, congruence_kernel, joined_rows

import oracles
from test_finabel import FAMILIES, combine, eliminated_kernel, random_valid_matrix
from test_lattice import kernel_apart

FORCED = ("neither", "one", "both")


@st.composite
def mixed_groups(draw, max_rank=5):
    """Moduli from one of the 2/4/8, 3/9, 2/3/6 families, with Z/1 coordinates."""
    fam = draw(st.sampled_from(FAMILIES))
    mods = draw(st.lists(st.sampled_from(fam + (1,)), min_size=1, max_size=max_rank))
    return FiniteAbelianGroup(tuple(mods))


@st.composite
def subgroups(draw, g, free):
    """A subgroup from up to three sparse elements; with ``free``, also the
    unit rows of a nonempty set of coordinates, which are then unconstrained."""
    coord = [st.one_of(st.just(0), st.integers(0, d - 1)) for d in g.moduli]
    gens = draw(st.lists(st.tuples(*coord), max_size=3))
    if free:
        for j in draw(st.sets(st.integers(0, g.rank - 1), min_size=1)):
            gens.append(g.unit(j))
    h = canonical_subgroup(g, gens)
    if free:
        assert len(h.rows) < g.rank
    return h


def elements(h):
    return oracles.subgroup_elements(h.ambient.moduli, h.generators())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_intersection_matches_elimination_and_element_sets(data):
    g = data.draw(mixed_groups())
    forced = data.draw(st.sampled_from(FORCED))
    h = data.draw(subgroups(g, forced != "neither"))
    l = data.draw(subgroups(g, forced == "both"))
    inter = h.intersect_with(l)
    assert inter == l.intersect_with(h)
    k = g.rank
    combos = eliminated_kernel(h.basis, g.moduli, l.basis, [lcm(1, *g.moduli)] * k)
    assert inter.basis == canonical_subgroup(g, combine(combos, h.basis, k)).basis
    if g.order <= 4096:
        assert set(inter.elements()) == elements(h) & elements(l)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_preimage_matches_elimination_and_element_sets(data, rnd):
    a = data.draw(mixed_groups(4))
    b = data.draw(mixed_groups(4))
    f = hom_validate(random_valid_matrix(rnd, a, b), a, b)
    sub = data.draw(subgroups(b, data.draw(st.booleans())))
    pre = f.preimage(sub)
    combos = eliminated_kernel(f.columns, b.moduli, sub.basis, [lcm(1, *b.moduli)] * a.rank)
    assert pre.basis == canonical_subgroup(a, combos).basis
    if a.order <= 4096 and b.order <= 4096:
        target = elements(sub)
        assert set(pre.elements()) == oracles.preimage_set(f.matrix, a.moduli, b.moduli, target)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_annihilator_matches_elimination_and_element_sets(data):
    g = data.draw(mixed_groups())
    h = data.draw(subgroups(g, data.draw(st.booleans())))
    dual, pairing = dual_group(g)
    perp = annihilator(h, pairing)
    gens = h.generators()
    if gens:
        m = pairing.modulus
        map_rows = [[(x[i] * pairing.weights[i]) % m for x in gens] for i in range(g.rank)]
        relation = ZLattice(len(gens), [m] * len(gens))
        combos = kernel_apart(map_rows, len(gens), relation, [m] * g.rank)
        assert perp.basis == canonical_subgroup(dual, combos).basis
    if g.order <= 4096:
        # a character kills H iff it kills each generator
        assert set(perp.elements()) == oracles.annihilator_set(g.moduli, set(gens))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_annihilator_from_hnf_rows_equals_the_dense_generator_path(data):
    """The annihilator read off the stored HNF rows equals the one built from
    the dense generators, eliminated against the dual's moduli."""
    g = data.draw(mixed_groups())
    h = data.draw(subgroups(g, data.draw(st.booleans())))
    dual, pairing = dual_group(g)
    gens = h.generators()
    expected = dual.whole_subgroup()
    if gens:
        m = pairing.modulus
        map_rows = [[(x[i] * pairing.weights[i]) % m for x in gens] for i in range(g.rank)]
        relation = ZLattice(len(gens), [m] * len(gens))
        rows = joined_rows(map_rows, len(gens), relation, dual.moduli)
        expected = echelon_subgroup(dual, congruence_kernel(rows, len(gens), relation, dual.moduli), dual.moduli)
    assert annihilator(h, pairing) == expected


@contextmanager
def largest_entry():
    """The largest absolute entry stored in any lattice row while inside."""
    seen = [0]
    add = ZLattice.add

    def recording_add(self, vec, **kwargs):
        grew = add(self, vec, **kwargs)
        seen[0] = max([seen[0]] + [abs(x) for row in self.rows for x in row])
        return grew

    ZLattice.add = recording_add
    try:
        yield seen
    finally:
        ZLattice.add = add


@settings(max_examples=150, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_elimination_keeps_entries_within_the_moduli(data, rnd):
    """The moduli seeded on both sides of the elimination reduce every entry
    it stores into [0, m]: no intermediate integer grows."""
    g = data.draw(mixed_groups())
    a = data.draw(mixed_groups(4))
    h = data.draw(subgroups(g, data.draw(st.booleans())))
    l = data.draw(subgroups(g, data.draw(st.booleans())))
    f = hom_validate(random_valid_matrix(rnd, a, g), a, g)
    with largest_entry() as seen:
        h.intersect_with(l)
    assert seen[0] <= max(g.moduli)
    with largest_entry() as seen:
        f.preimage(h)
    assert seen[0] <= max(g.moduli + a.moduli)


def random_endo(rng):
    """A banded endomorphism of a sum of one mixed-moduli block, N-indexed."""
    fam = rng.choice(FAMILIES)
    blk = FiniteAbelianGroup(tuple(rng.choice(fam + (1,)) for _ in range(rng.randrange(1, 3))))
    group = locally_finite_group([], [blk])
    offset, width = rng.choice((-1, 0, 1)), rng.randrange(1, 3)
    terms = [[] for _ in range(blk.rank)]
    for o in range(offset, offset + width):
        mat = random_valid_matrix(rng, blk, blk)
        for j in range(blk.rank):
            terms[j].append((o, tuple(row[j] for row in mat)))
    return banded_endo(group, offset, width, 1, [terms])


def dense(group, elem, hi):
    """The coordinate vector of a block element on the window [0, hi)."""
    wg, _ = group.window_layout(0, hi)
    coords = group.coords(elem, 0, hi)
    return tuple(coords.get(t, 0) for t in range(wg.rank))


def kernel_cap_t_by_generators(engine):
    """|ker phi n T_n| by applying phi to T_n's echelon rows as block
    elements, multiplying kernel coefficients back and eliminating."""
    g, hi = engine.group, engine.hi
    wg, _ = g.window_layout(0, hi)
    reach = engine.endo.image_reach(hi)
    tgt, _ = g.window_layout(0, reach)
    basis = engine.lat_t.basis()
    map_rows = [g.coords(engine.endo.apply(g.elem_of(row, 0, hi)), 0, reach) for row in basis]
    combos = eliminated_kernel(map_rows, tgt.moduli, [], [lcm(1, *tgt.moduli)] * len(basis))
    rows = combine(combos, basis, wg.rank)
    return canonical_subgroup(wg, rows).order


def f_cap_phit_by_generators(engine):
    """|F n phi(T_n)| from the coefficient kernel of the unit rows of F's window."""
    kf, width = engine.f_group.rank, engine.lat_phit.width
    moduli = engine.group.window_layout(0, engine.hi)[0].moduli
    units = [[int(t == c) for t in range(width)] for c in range(kf)]
    combos = eliminated_kernel(units, moduli, engine.lat_phit.basis(), moduli[:kf])
    inside = canonical_subgroup(engine.f_group, combos)
    return canonical_subgroup(
        engine.f_group, [x for x in elements(engine.f_sub) if inside.contains(x)]
    ).order


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_trajectory_kernel_and_cap_orders(rnd):
    """The engine's orders against elimination from generators and, on small
    windows, element sets; the reference layers come from BandedEndo.apply."""
    endo = random_endo(rnd)
    g = endo.group
    blk = g.period[0]
    f_gens = [{i: tuple(rnd.randrange(d) for d in blk.moduli)} for i in range(rnd.randrange(1, 3))]
    engine, gens = _make_engine(endo, f_gens)
    if not gens:
        return
    layers = [gens]
    for _ in range(rnd.randrange(1, 4)):
        engine.step()
        layers.append([endo.apply(x) for x in layers[-1]])
        hi = engine.hi
        assert all(g.max_support(x) < hi for x in layers[-1])
        assert engine.layers[-1] == [g.coords(x, 0, hi) for x in layers[-1]]
        ker = engine.kernel_cap_t_order()
        cap = engine.f_cap_phit_order()
        assert ker == kernel_cap_t_by_generators(engine)
        assert cap == f_cap_phit_by_generators(engine)
        if engine.orders[-1] > 4096:
            continue
        mods = g.window_layout(0, hi)[0].moduli
        t_set = oracles.subgroup_elements(mods, [dense(g, x, hi) for lay in layers for x in lay])
        assert ker == sum(1 for x in t_set if not endo.apply(g.elem_of(x, 0, hi)))
        phit = oracles.subgroup_elements(mods, [dense(g, x, hi) for lay in layers[1:] for x in lay])
        kf = engine.f_group.rank
        pad = (0,) * (len(mods) - kf)
        f_set = oracles.subgroup_elements(engine.f_group.moduli, [dense(g, x, hi)[:kf] for x in gens])
        assert cap == sum(1 for x in f_set if x + pad in phit)


def test_one_elimination_on_the_constrained_coordinates(monkeypatch):
    """A one-block U against a 40-block Z/2 window: neither operation
    re-eliminates its result, and no lattice is wider than k + |W|."""
    k = 40
    g = FiniteAbelianGroup((2,) * k)
    u = canonical_subgroup(g, [g.unit(j) for j in range(1, k)])
    c = canonical_subgroup(g, [tuple((i * j + i) % 3 % 2 for j in range(k)) for i in range(1, 5)])
    shift = hom_validate([[int(j == i + 1) for j in range(k)] for i in range(k)], g, g)
    assert list(u.rows) == [0] and len(c.rows) > k // 2

    widths = []
    init, extend = ZLattice.__init__, ZLattice.extend

    def recording_init(self, width, moduli=None):
        init(self, width, moduli)
        widths.append(self.width)

    def recording_extend(self, new_width, new_moduli=None):
        extend(self, new_width, new_moduli)
        widths.append(self.width)

    def no_reelimination(*args, **kwargs):
        raise AssertionError("result eliminated a second time")

    with monkeypatch.context() as patch:
        patch.setattr(ZLattice, "__init__", recording_init)
        patch.setattr(ZLattice, "extend", recording_extend)
        patch.setattr(finabel, "canonical_subgroup", no_reelimination)
        inter = u.intersect_with(c)
        pre = shift.preimage(u)
    assert widths and max(widths) <= k + 1

    combos = eliminated_kernel(c.basis, g.moduli, u.basis, [2] * k)
    assert inter == canonical_subgroup(g, combine(combos, c.basis, k))
    assert pre == canonical_subgroup(g, [g.unit(j) for j in range(k) if j != 1])


def test_zero_image_unit_rows_are_seeded_not_eliminated(monkeypatch):
    """A subgroup of (Z/2)^6 constrained on one coordinate, against the whole
    group: the whole group has no constrained coordinates, so its unit rows
    and the subgroup's all have image 0 there and are in the intersection
    already.  Only the one non-unit row is eliminated; the preimage of the
    subgroup under a map that misses its constrained coordinate is the same."""
    g = FiniteAbelianGroup((2,) * 6)
    h = canonical_subgroup(g, [g.unit(j) for j in range(1, 6)])
    whole = g.whole_subgroup()
    shift = hom_validate([[int(j == i + 1) for j in range(6)] for i in range(6)], g, g)
    expected = canonical_subgroup(g, [g.unit(j) for j in range(6) if j != 1])
    assert h.index == 2
    adds = []
    add = ZLattice.add

    def counting_add(self, vec, **kwargs):
        adds.append(vec)
        return add(self, vec, **kwargs)

    monkeypatch.setattr(ZLattice, "add", counting_add)
    assert h.intersect_with(whole) == h
    assert len(adds) <= 1
    assert whole.intersect_with(h) == h
    assert len(adds) <= 2
    adds.clear()
    assert shift.preimage(h) == expected
    assert len(adds) == 1
