"""The sparse forms of subgroups and homomorphisms against dense oracles.

A Hom keeps its columns as {row: value} maps and an AbSubgroup only its
non-unit HNF rows as {pivot: {column: value}} maps; both must behave exactly
like the dense matrices and bases they stand for."""

import pathlib
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from entctl import cli, depth, discrete, duality, finabel, lattice, profinite
from entctl.discrete import banded_endo, locally_finite_group
from entctl.errors import ValidationError
from entctl.finabel import (
    FiniteAbelianGroup,
    Hom,
    canonical_subgroup,
    hom_validate,
    span_index,
)
from entctl.profinite import pro_group, rowfinite_endo
from test_elimination import mixed_groups, subgroups
from test_finabel import FAMILIES, assert_forms_agree, random_valid_matrix


def columns_of(matrix, width):
    """The column maps of a dense matrix with ``width`` columns, their keys
    in descending order: nothing may depend on the order of a map."""
    rows = list(enumerate(matrix))[::-1]
    return [{i: row[j] for i, row in rows if row[j]} for j in range(width)]


def reduced(matrix, moduli):
    return tuple(tuple(x % d for x in row) for row, d in zip(matrix, moduli))


def product(outer, inner, moduli):
    """outer * inner reduced modulo ``moduli``, by the textbook formula."""
    width = len(inner[0]) if inner else 0
    return tuple(
        tuple(sum(row[t] * inner[t][j] for t in range(len(inner))) % d for j in range(width))
        for row, d in zip(outer, moduli)
    )


def first_failure(matrix, a, b):
    """(j, i) of the first entry in column-major order with d_j * m_ij != 0 mod d_i."""
    bad = [
        (j, i) for j in range(a.rank) for i in range(b.rank)
        if (a.moduli[j] * matrix[i][j]) % b.moduli[i]
    ]
    return min(bad, default=None)


@settings(max_examples=200, deadline=None)
@given(mixed_groups(4), mixed_groups(4), mixed_groups(4), st.randoms(use_true_random=False))
def test_hom_from_columns_matches_the_dense_matrix(a, b, c, rnd):
    m = random_valid_matrix(rnd, a, b)
    n = random_valid_matrix(rnd, b, c)
    f = hom_validate(columns_of(m, a.rank), a, b)
    g = hom_validate(columns_of(n, b.rank), b, c)
    assert f == hom_validate(m, a, b) and hash(f) == hash(hom_validate(m, a, b))
    assert f.matrix == reduced(m, b.moduli)
    assert all(all(col.values()) for col in f.columns)  # maps of nonzeros
    for _ in range(5):
        x = tuple(rnd.randrange(d) for d in a.moduli)
        assert f.apply(x) == oracles.apply_matrix(m, b.moduli, x)
        assert g.compose(f).apply(x) == g.apply(f.apply(x))
    assert g.compose(f).matrix == product(n, m, c.moduli)


@settings(max_examples=200, deadline=None)
@given(mixed_groups(4), mixed_groups(4), st.randoms(use_true_random=False))
def test_hom_validate_names_the_first_failure_in_both_forms(a, b, rnd):
    m = [[rnd.choice((0, 0, 1, 2, 3, 5)) for _ in range(a.rank)] for _ in range(b.rank)]
    bad = first_failure(m, a, b)
    if bad is None:
        assert hom_validate(columns_of(m, a.rank), a, b) == hom_validate(m, a, b)
        return
    messages = []
    for form in (m, columns_of(m, a.rank)):
        with pytest.raises(ValidationError) as exc:
            hom_validate(form, a, b)
        messages.append(str(exc.value))
    j, i = bad
    assert messages[0] == messages[1]
    assert f"generator {j} of order {a.moduli[j]}" in messages[0]
    assert f"coordinate {i} = {m[i][j]} mod {b.moduli[i]}" in messages[0]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_power_window_map_matches_iterated_application(rnd):
    """psi^2 on a window, the window map of psi composed with psi, against
    applying psi twice to elements and against the dense product of the
    two window maps of psi."""
    fam = rnd.choice(((2, 4, 8), (3, 9), (2, 3, 6)))
    blk = FiniteAbelianGroup(tuple(rnd.choice(fam + (1,)) for _ in range(rnd.randrange(1, 3))))
    k = pro_group([], [blk], rnd.choice("NZ"))
    offset, width = rnd.choice((-1, 0, 1)), rnd.randrange(1, 3)
    terms = [(o, random_valid_matrix(rnd, blk, blk)) for o in range(offset, offset + width)]
    endo = rowfinite_endo(k, offset, width, 1, [terms])
    lo = rnd.randrange(0, 3) if k.index_set == "N" else rnd.randrange(-3, 3)
    hi = lo + rnd.randrange(1, 3)
    src_lo, src_hi, h = endo.compose(endo).window_map(lo, hi)
    mid_lo, mid_hi, h1 = endo.window_map(lo, hi)
    _, _, h2 = endo.window_map(mid_lo, mid_hi)
    assert h.matrix == product(h1.matrix, h2.matrix, h.target.moduli)
    src, starts = k.window_layout(src_lo, src_hi)
    tgt, tgt_starts = k.window_layout(lo, hi)
    for _ in range(5):
        y = tuple(rnd.randrange(d) for d in src.moduli)
        elem = {i: y[starts[i - src_lo]:starts[i - src_lo + 1]] for i in range(src_lo, src_hi)}
        image = endo.apply(endo.apply({i: v for i, v in elem.items() if any(v)}))
        dense = [0] * tgt.rank
        for i, vec in image.items():
            if lo <= i < hi:
                dense[tgt_starts[i - lo]:tgt_starts[i - lo + 1]] = vec
        assert h.apply(y) == tuple(dense)


def random_banded_endo(rnd):
    """An abelian banded map on prefix blocks and a period of one or two
    blocks of one rank, moduli mixed inside one family, map period 1 or 2.
    A coefficient from coordinate j to coordinate u is a multiple of
    L_u / gcd(L_u, G_j), with L_u the lcm of the moduli at u over all
    blocks and G_j the gcd at j, so the map is well defined at every block.
    A generator has no, one or two image terms at each offset."""
    fam = rnd.choice(((2, 4, 8), (3, 9), (2, 3, 6)))
    rank = rnd.randrange(1, 3)
    blocks = [
        FiniteAbelianGroup(tuple(rnd.choice(fam + (1,)) for _ in range(rank)))
        for _ in range(rnd.randrange(1, 5))
    ]
    n_prefix = rnd.randrange(len(blocks))
    g = locally_finite_group(blocks[:n_prefix], blocks[n_prefix:])
    lcm_at = [lcm(*(b.moduli[u] for b in blocks)) for u in range(rank)]
    gcd_at = [gcd(*(b.moduli[j] for b in blocks)) for j in range(rank)]
    offset, width, period = rnd.choice((-1, 0, 1)), rnd.randrange(1, 3), rnd.randrange(1, 3)
    images = [
        [
            [
                (o, tuple(
                    rnd.randrange(lcm_at[u]) * (lcm_at[u] // gcd(lcm_at[u], gcd_at[j]))
                    for u in range(rank)
                ))
                for o in range(offset, offset + width)
                for _ in range(rnd.choice((0, 1, 1, 1, 2)))
            ]
            for j in range(rank)
        ]
        for _ in range(period)
    ]
    return g, banded_endo(g, offset, width, period, images)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_banded_window_map_matches_apply_built_whole_or_grown(rnd):
    """The window map of [0, hi) and BandedEndo.apply against the images
    summed term by term (``oracles.apply_images``), the map built whole and
    grown block by block as the abelian trajectory grows it: each column
    keeps its entries in every window that holds its block."""
    g, endo = random_banded_endo(rnd)
    hi = rnd.randrange(1, 7)
    whole = endo.window_map(0, hi)
    grown = endo.window_map(0, 1)
    for lo in range(1, hi):
        new = endo.window_map(lo, lo + 1)
        grown = Hom(g.window_layout(0, lo + 1)[0], new.target, grown.columns + new.columns)
    assert grown.source == whole.source and grown.target == whole.target
    assert grown.columns == whole.columns
    reach = endo.image_reach(hi)
    for _ in range(5):
        elem = {i: tuple(rnd.randrange(d) for d in g.block(i).moduli) for i in range(hi)}
        image = oracles.apply_images(g, endo.images, endo.period, elem)
        assert endo.apply(elem) == image
        assert whole.apply_map(g.coords(elem, 0, hi)) == g.coords(image, 0, reach)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_subgroup_equality_follows_the_dense_basis(data, rnd):
    g = data.draw(mixed_groups())
    h = data.draw(subgroups(g, data.draw(st.booleans())))
    l = data.draw(subgroups(g, data.draw(st.booleans())))
    f = hom_validate(random_valid_matrix(rnd, g, g), g, g)
    subs = [h, l, h.sum_with(l), l.sum_with(h), h.intersect_with(l), l.intersect_with(h),
            f.preimage(h), f.image(h), g.whole_subgroup(), g.trivial_subgroup()]
    # the same subgroups again, from generators
    subs += [canonical_subgroup(g, s.generators()) for s in subs]
    assert_forms_agree(subs)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_span_index_is_the_index_of_the_normalised_sum(data, rnd):
    """[A : H + <rows>] read off the pivots of an unnormalised echelon basis
    against the index of the subgroup that sum_with or image() normalises."""
    g = data.draw(mixed_groups())
    a = data.draw(mixed_groups())
    h = data.draw(subgroups(g, data.draw(st.booleans())))
    l = data.draw(subgroups(g, data.draw(st.booleans())))
    f = hom_validate(random_valid_matrix(rnd, a, g), a, g)
    trivial = g.trivial_subgroup()
    assert trivial == canonical_subgroup(g, [])
    assert span_index(h, l.hnf_rows()) == h.sum_with(l).index
    assert span_index(h, l.generators()) == h.sum_with(l).index
    assert span_index(trivial, f.columns) == f.image().index
    assert span_index(h, f.columns) == f.image().sum_with(h).index
    assert span_index(h, []) == h.index


@st.composite
def relation_subgroups(draw, g):
    """A subgroup of ``g`` whose HNF has long rows: the diagonal generated by
    (1, ..., 1) on a block of coordinates ({x_lo = ... = x_hi-1} when their
    moduli agree), the same with a non-unit first entry (2 in Z/4, whose
    modulus row 4 e_lo then holds the row's place), or else the whole group,
    the trivial subgroup or a random one."""
    kind = draw(st.sampled_from(("diagonal", "non-unit pivot") * 2 + ("whole", "trivial", "random")))
    if kind == "whole":
        return g.whole_subgroup()
    if kind == "trivial":
        return g.trivial_subgroup()
    if kind == "random":
        return draw(subgroups(g, draw(st.booleans())))
    # blocks of three or more coordinates, where the group has them
    lo = draw(st.integers(0, max(0, g.rank - 3)))
    hi = draw(st.integers(min(lo + 3, g.rank), g.rank))
    gen = [int(lo <= j < hi) for j in range(g.rank)]
    if kind == "non-unit pivot":
        divisors = [q for q in range(2, g.moduli[lo]) if g.moduli[lo] % q == 0]
        gen[lo] = draw(st.sampled_from(divisors)) if divisors else 1
    # the coordinates outside the block are free, or not, at random
    free = [g.unit(j) for j in range(g.rank) if not lo <= j < hi and draw(st.booleans())]
    return canonical_subgroup(g, [gen] + free)


def sparse_valid_matrix(rnd, a, b, density):
    """A well-defined matrix with about ``density`` of its entries kept, or
    with one entry kept per column when ``density`` is None: zeroing an
    entry keeps d_src * e = 0 mod d_tgt."""
    matrix = random_valid_matrix(rnd, a, b)
    if density is None:
        keep = [rnd.randrange(b.rank) for _ in range(a.rank)]
        return [[x if keep[j] == i else 0 for j, x in enumerate(row)] for i, row in enumerate(matrix)]
    return [[x if rnd.random() < density else 0 for x in row] for row in matrix]


def test_long_relation_rows_eliminated_last_keep_the_pull_back(monkeypatch):
    """Preimages and intersections against subgroups with long HNF rows, on
    mixed-moduli windows of order <= 4096, equal the enumerated sets; a
    counter of the joined rows with an empty payload, no column past the
    image columns (the deferred relation rows: every map row of these
    well-defined maps and subgroups carries a payload entry), shows that
    the long rows were eliminated last in many of them."""
    deferred = []
    kernel = finabel.congruence_kernel

    def counting_kernel(rows, image_width, relation, payload_moduli=None, section=None):
        deferred.append(sum(1 for row in rows if max(row, default=-1) < image_width))
        return kernel(rows, image_width, relation, payload_moduli, section)

    monkeypatch.setattr(finabel, "congruence_kernel", counting_kernel)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.randoms(use_true_random=False))
    def check(data, rnd):
        fam = data.draw(st.sampled_from(FAMILIES))
        windows = st.lists(st.sampled_from(fam * 2 + (1,)), min_size=3, max_size=6).filter(
            lambda mods: prod(mods) <= 4096)
        g = FiniteAbelianGroup(tuple(data.draw(windows)))
        a = data.draw(st.sampled_from((g, FiniteAbelianGroup(tuple(data.draw(windows))))))
        h = data.draw(relation_subgroups(g))
        l = data.draw(relation_subgroups(g))
        density = data.draw(st.sampled_from((None, 0.3, 1.0)))
        f = hom_validate(sparse_valid_matrix(rnd, a, g, density), a, g)
        target = oracles.subgroup_elements(g.moduli, h.generators())
        pre = f.preimage(h)
        assert set(pre.elements()) == oracles.preimage_set(f.matrix, a.moduli, g.moduli, target)
        meet = target & oracles.subgroup_elements(g.moduli, l.generators())
        assert set(h.intersect_with(l).elements()) == meet
        assert set(l.intersect_with(h).elements()) == meet

    check()
    # 7-10% of the 600 pull-backs deferred a row in sampled runs
    assert sum(map(bool, deferred)) >= 15, (sum(map(bool, deferred)), len(deferred))


def test_bundled_runs_build_each_chain_step_row_once(monkeypatch):
    """Over the 18 bundled runs (each instance's main command and verify):
    no row of a ``RowFiniteEndo.pull_back`` goes through the joiner of rows
    held apart, no kernel row map is built for a free coordinate (a payload
    column of modulus 1, whose unit row stays implicit) and no row map of
    the lattice with them (``ZLattice.row_maps``) under a pull-back, and the
    discrete cap and kernel orders read their index in place, building no
    kernel rows.  The reports stay the goldens."""
    inside: list[str] = []
    seen = {"joined": 0, "row_maps": 0}

    def tracked(name, fn):
        def wrapper(*args, **kwargs):
            inside.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    monkeypatch.setattr(profinite.RowFiniteEndo, "pull_back", tracked("pull_back", profinite.RowFiniteEndo.pull_back))
    for name in ("f_cap_phit_order", "kernel_cap_t_order"):
        method = getattr(discrete._AbelianTrajectory, name)
        monkeypatch.setattr(discrete._AbelianTrajectory, name, tracked("cap", method))
    joined, row_maps = lattice._joined, lattice.ZLattice.row_maps

    def counting_joined(*args):
        seen["joined"] += "pull_back" in inside
        return joined(*args)

    def counting_row_maps(self):
        seen["row_maps"] += "pull_back" in inside
        return row_maps(self)

    monkeypatch.setattr(lattice, "_joined", counting_joined)
    monkeypatch.setattr(lattice.ZLattice, "row_maps", counting_row_maps)
    kernel = lattice.congruence_kernel
    kernels = []  # (the caller, the payload moduli, the result)

    def recording_kernel(*args, **kwargs):
        out = kernel(*args, **kwargs)
        mods = args[3] if len(args) > 3 else kwargs.get("payload_moduli")
        kernels.append((inside[-1] if inside else None, mods, out))
        return out

    for module in (finabel, discrete, depth, duality):
        monkeypatch.setattr(module, "congruence_kernel", recording_kernel)
    golden = pathlib.Path(__file__).resolve().parent / "golden"
    instances = golden.parent.parent / "instances"
    runs = sorted(golden.glob("*.json"))
    assert len(runs) == 18
    for path in runs:
        name, command, _ = path.name.split(".")
        inst = cli.parse_instance(str(instances / f"{name}.json"))
        assert cli.emit_report(cli.run_command(command, inst), "json") == path.read_text(encoding="utf-8")
    callers = [caller for caller, _, _ in kernels]
    # the runs reach every checked path
    assert callers.count("pull_back") > 100 and callers.count("cap") > 10, callers
    assert seen["joined"] == 0
    assert seen["row_maps"] == 0
    results = [(caller, mods, out[0] if isinstance(out, tuple) else out) for caller, mods, out in kernels]
    assert [rows[p] for _, mods, rows in results if mods for p in rows if mods[p] == 1] == []
    assert [rows for caller, _, rows in results if caller == "cap" and rows] == []
