"""One window layout for restricted sums and full products: block elements
to coordinates and back, and the abelian trajectory engine, which applies
its endomorphism through window maps only."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from entctl.discrete import BandedEndo, _make_engine, banded_endo, locally_finite_group
from entctl.finabel import FiniteAbelianGroup
from entctl.profinite import pro_group

from test_finabel import FAMILIES


@st.composite
def block_lists(draw, min_size):
    """Blocks of rank 0 to 3 with moduli from one family, Z/1 included."""
    fam = draw(st.sampled_from(FAMILIES))
    mods = st.lists(st.sampled_from(fam + (1,)), max_size=3)
    return [FiniteAbelianGroup(tuple(m)) for m in draw(st.lists(mods, min_size=min_size, max_size=3))]


@st.composite
def sequences_and_windows(draw):
    """A restricted sum or product over N with prefix blocks, or a product
    over Z, and a window of it, over Z possibly on negative blocks."""
    period = draw(block_lists(1))
    if draw(st.booleans()):
        group = pro_group([], period, "Z")
        lo = draw(st.integers(-5, 2))
    else:
        prefix = draw(block_lists(0))
        make = draw(st.sampled_from((locally_finite_group, pro_group)))
        group = make(prefix, period)
        lo = draw(st.integers(0, 3))
    return group, lo, lo + draw(st.integers(0, 5))


@settings(max_examples=200, deadline=None)
@given(sequences_and_windows(), st.data())
def test_elements_round_trip_through_window_coordinates(case, data):
    group, lo, hi = case
    wg, _ = group.window_layout(lo, hi)
    elem = {}
    for i in range(lo - 1, hi + 1):
        if group.index_set == "Z" or i >= 0:
            blk = group.block(i)
            entries = st.tuples(*(st.integers(-d, 2 * d) for d in blk.moduli))
            elem[i] = data.draw(entries)
    reduced = {}
    for i, v in elem.items():
        piece = group.block(i).reduce(v)
        if lo <= i < hi and any(piece):
            reduced[i] = piece
    coords = group.coords(elem, lo, hi)
    assert all(0 <= t < wg.rank and x for t, x in coords.items())
    assert group.elem_of(coords, lo, hi) == reduced
    dense = [coords.get(t, 0) for t in range(wg.rank)]
    assert group.elem_of(dense, lo, hi) == reduced
    # reduced elements and the maps of reduced vectors correspond one to one
    assert group.elem_of(group.coords(reduced, lo, hi), lo, hi) == reduced
    assert group.coords(group.elem_of(wg.reduce(dense), lo, hi), lo, hi) == {
        t: x for t, x in enumerate(wg.reduce(dense)) if x
    }


@settings(max_examples=100, deadline=None)
@given(block_lists(0), block_lists(1), st.integers(0, 4), st.integers(0, 6))
def test_sums_and_products_share_the_layout(prefix, period, lo, width):
    lf, pro = locally_finite_group(prefix, period), pro_group(prefix, period)
    hi = lo + width
    assert [lf.block(i) for i in range(hi)] == [pro.block(i) for i in range(hi)]
    assert lf.window_layout(lo, hi) == pro.window_layout(lo, hi)
    wg, starts = lf.window_layout(lo, hi)
    assert wg.moduli == tuple(d for i in range(lo, hi) for d in lf.block(i).moduli)
    assert starts[0] == 0 and starts[-1] == wg.rank and len(starts) == width + 1
    assert lf.window_layout(lo, hi) is lf.window_layout(lo, hi)


@settings(max_examples=300, deadline=None)
@given(sequences_and_windows(), st.integers(-2, 2))
def test_window_layouts_are_kept_per_window_shape(case, periods):
    """A window's layout is the block-by-block build, in the prefix and past
    it, over N and over Z on negative blocks too; and past the prefix
    (everywhere over Z) a window shifted by whole block periods returns the
    very same layout."""
    group, lo, hi = case
    wg, starts = group.window_layout(lo, hi)
    blocks = [group.block(i) for i in range(lo, hi)]
    assert wg.moduli == tuple(d for b in blocks for d in b.moduli)
    assert starts == tuple(itertools.accumulate((b.rank for b in blocks), initial=0))
    shift = periods * len(group.period)
    if group.index_set == "Z" or min(lo, lo + shift) >= len(group.prefix):
        assert group.window_layout(lo + shift, hi + shift) is group.window_layout(lo, hi)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_kept_layout_is_the_block_by_block_build(data):
    """Windows asked one after another of one group, growing and shrinking
    by a block as walks and hulls do, and at random (over N with prefix
    blocks, over Z on negative blocks too, block period 1-2): each layout,
    new or kept, is the block-by-block build."""
    period = data.draw(block_lists(1).filter(lambda blocks: len(blocks) <= 2))
    if data.draw(st.booleans()):
        group, low = pro_group([], period, "Z"), -6
    else:
        make = data.draw(st.sampled_from((locally_finite_group, pro_group)))
        group, low = make(data.draw(block_lists(0)), period), 0
    lo = data.draw(st.integers(low, 3))
    # (first block, width): growing to the right, then to the left, then at random
    windows = [(lo, w) for w in range(6)] + [(lo - w, 5 + w) for w in range(lo - low + 1)]
    windows += data.draw(st.lists(st.tuples(st.integers(low, 4), st.integers(0, 7)), max_size=8))
    for lo, width in windows:
        hi = lo + width
        wg, starts = group.window_layout(lo, hi)
        blocks = [group.block(i) for i in range(lo, hi)]
        assert wg == FiniteAbelianGroup(tuple(d for b in blocks for d in b.moduli))
        assert starts == tuple(itertools.accumulate((b.rank for b in blocks), initial=0))


def prefix_endo():
    """x_i + x_{i+1} (doubled into Z/4) on Z/8 followed by Z/2, Z/4 repeated:
    a prefix block, mixed moduli and period 2."""
    z2, z4, z8 = (FiniteAbelianGroup((d,)) for d in (2, 4, 8))
    group = locally_finite_group([z8], [z2, z4])
    return banded_endo(group, 0, 2, 2, [[[(0, (1,)), (1, (1,))]], [[(0, (1,)), (1, (2,))]]])


def left_endo():
    """A map on Z/2 x Z/4 blocks with terms at offset -1, dropped at block 0."""
    group = locally_finite_group([], [FiniteAbelianGroup((2, 4))])
    images = [[[(-1, (1, 2)), (0, (1, 0))], [(-1, (1, 1)), (0, (0, 1))]]]
    return banded_endo(group, -1, 2, 1, images)


@pytest.mark.parametrize("make", [prefix_endo, left_endo])
def test_abelian_engine_makes_no_apply_calls(monkeypatch, make):
    endo = make()
    f_gens = [{0: endo.group.block(0).unit(0)}, {2: endo.group.block(2).unit(0)}]
    calls = []
    apply = BandedEndo.apply

    def counting_apply(self, elem):
        calls.append(elem)
        return apply(self, elem)

    monkeypatch.setattr(BandedEndo, "apply", counting_apply)
    engine, gens = _make_engine(endo, f_gens)
    for _ in range(4):
        engine.step()
        engine.kernel_cap_t_order()
        engine.f_cap_phit_order()
    assert calls == []
    endo.apply(gens[0])
    assert len(calls) == 1

    g, layer = endo.group, gens
    for coords in engine.layers[1:]:
        layer = [apply(endo, x) for x in layer]
        assert coords == [g.coords(x, 0, engine.hi) for x in layer]
