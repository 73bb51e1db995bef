import random
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from entctl.errors import AmbientMismatchError, ContainmentError, DimensionError, ValidationError
from entctl.finabel import (
    AbSubgroup,
    Band,
    FiniteAbelianGroup,
    canonical_subgroup,
    hom_validate,
    identity_hom,
    quotient_invariants,
    subgroup_index,
    zero_hom,
)
from entctl.lattice import ZLattice, congruence_kernel
from entctl.profinite import pro_group

import oracles


def sub_from_set(group, elems):
    return canonical_subgroup(group, list(elems))


def test_canonical_subgroup_examples():
    a = FiniteAbelianGroup((4, 4))
    assert canonical_subgroup(a, [(2, 0)]).order == 2
    assert canonical_subgroup(a, [(1, 2), (2, 0)]).order == 4
    assert canonical_subgroup(a, []).order == 1


def test_canonical_subgroup_dimension_error():
    a = FiniteAbelianGroup((4, 4))
    with pytest.raises(DimensionError):
        canonical_subgroup(a, [(1, 2, 3)])


def test_subgroup_sum_intersect_examples():
    a = FiniteAbelianGroup((4, 4))
    h = canonical_subgroup(a, [(1, 0)])
    l = canonical_subgroup(a, [(1, 2)])
    inter = h.intersect_with(l)
    assert inter.order == 2
    assert inter == canonical_subgroup(a, [(2, 0)])
    assert h.sum_with(l).order == 8
    assert h.sum_with(canonical_subgroup(a, [])) == h


def test_subgroup_index_examples():
    z8 = FiniteAbelianGroup((8,))
    h = canonical_subgroup(z8, [(2,)])
    assert subgroup_index(h, h) == 1
    assert subgroup_index(h, z8.whole_subgroup()) == 2
    a = FiniteAbelianGroup((4, 4))
    assert subgroup_index(a.trivial_subgroup(), a.whole_subgroup()) == 16
    with pytest.raises(ContainmentError):
        subgroup_index(canonical_subgroup(a, [(1, 0)]), canonical_subgroup(a, [(2, 0)]))


def test_hom_validate_examples():
    z8 = FiniteAbelianGroup((8,))
    f = hom_validate([[2]], z8, z8)
    assert f.apply((3,)) == (6,)
    z2, z4 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((4,))
    with pytest.raises(ValidationError):
        hom_validate([[1]], z2, z4)
    zero_hom(z2, z4)  # zero map is always fine
    # two failing entries: the message names the first in column-major order
    z22, z44 = FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((4, 4))
    with pytest.raises(ValidationError, match="generator 0 of order 2 .* coordinate 1 = 1 mod 4"):
        hom_validate([[0, 1], [1, 0]], z22, z44)


@pytest.mark.parametrize("index_set,bad_block", [("N", 7), ("Z", 5)])
def test_band_check_reaches_the_last_distinct_row(index_set, bad_block):
    # Rows repeat with L = lcm(3, 2) = 6 once past the prefix: from P = 2
    # over N (two prefix rows, and row 1 reads the prefix block 0) and from
    # P = 0 over Z.  Entry 1 from Z/2 into Z/4 is ill-defined; of the rows
    # [P, P + L) only the last reads Z/2 into Z/4 through the term of its
    # residue, so the check must reach that row.
    z2, z3, z4 = (FiniteAbelianGroup((d,)) for d in (2, 3, 4))
    ident = [(0, [[1]])]
    if index_set == "N":
        g = pro_group([z3], [z4, z2], "N")
        offset, prefix_rows = -1, [ident, ident]
    else:
        g = pro_group([], [z2, z4], "Z")
        offset, prefix_rows = 0, []
    o = offset if index_set == "N" else 1
    rows = [ident, ident, ident]
    rows[bad_block % 3] = [(o, [[1]])]
    with pytest.raises(ValidationError, match=f"of block {bad_block}: 2\\*1 != 0 mod 4"):
        Band(g, offset, 2, 3, rows, prefix_rows)
    rows[bad_block % 3] = [(o, [[2]])]
    Band(g, offset, 2, 3, rows, prefix_rows)


def test_hom_kernel_image_preimage_examples():
    z8 = FiniteAbelianGroup((8,))
    f = hom_validate([[2]], z8, z8)
    assert f.kernel() == canonical_subgroup(z8, [(4,)])
    assert f.image() == canonical_subgroup(z8, [(2,)])
    pre = f.preimage(canonical_subgroup(z8, [(4,)]))
    assert pre == canonical_subgroup(z8, [(2,)])


def test_ambient_mismatch():
    a, b = FiniteAbelianGroup((4,)), FiniteAbelianGroup((8,))
    with pytest.raises(AmbientMismatchError):
        a.whole_subgroup().sum_with(b.whole_subgroup())
    f = hom_validate([[2]], a, a)
    with pytest.raises(AmbientMismatchError):
        f.preimage(b.whole_subgroup())
    with pytest.raises(AmbientMismatchError):
        f.image(b.whole_subgroup())


def random_moduli(rng, max_order=10**4):
    while True:
        mods = tuple(
            rng.choice([2, 3, 4, 5, 6, 8, 9]) for _ in range(rng.randrange(1, 5))
        )
        order = 1
        for d in mods:
            order *= d
        if order <= max_order:
            return mods


def random_elems(rng, group, count):
    return [
        tuple(rng.randrange(d) for d in group.moduli) for _ in range(count)
    ]


def test_canonicality_idempotent_and_equality():
    rng = random.Random(2024)
    for _ in range(60):
        g = FiniteAbelianGroup(random_moduli(rng))
        gens = random_elems(rng, g, rng.randrange(0, 4))
        h = canonical_subgroup(g, gens)
        again = canonical_subgroup(g, h.generators())
        assert again == h
        # equality as sets iff identical canonical basis
        shuffled = list(gens)
        rng.shuffle(shuffled)
        doubled = shuffled + shuffled
        assert canonical_subgroup(g, doubled) == h


def test_lagrange_and_membership_against_enumeration():
    rng = random.Random(99)
    for _ in range(40):
        g = FiniteAbelianGroup(random_moduli(rng))
        if g.order > 4000:
            continue
        gens = random_elems(rng, g, rng.randrange(0, 4))
        h = canonical_subgroup(g, gens)
        elems = oracles.subgroup_elements(g.moduli, gens)
        assert h.order == len(elems)
        assert g.order % h.order == 0
        assert h.order * h.index == g.order
        for v in list(elems)[:50]:
            assert h.contains(v)
        assert set(h.elements()) == elems


def test_sum_intersect_against_enumeration():
    rng = random.Random(5)
    for _ in range(40):
        g = FiniteAbelianGroup(random_moduli(rng))
        if g.order > 2500:
            continue
        h = canonical_subgroup(g, random_elems(rng, g, 2))
        l = canonical_subgroup(g, random_elems(rng, g, 2))
        hs = oracles.subgroup_elements(g.moduli, h.generators())
        ls = oracles.subgroup_elements(g.moduli, l.generators())
        inter = h.intersect_with(l)
        assert set(inter.elements()) == (hs & ls)
        tot = h.sum_with(l)
        assert set(tot.elements()) == oracles.sum_sets(g.moduli, hs, ls)
        assert h.order * l.order == tot.order * inter.order


def random_valid_matrix(rng, a, b):
    """Entries satisfying d_src * e = 0 mod d_tgt, so the map is well defined."""
    import math

    mat = []
    for i in range(b.rank):
        row = []
        for j in range(a.rank):
            dt, ds = b.moduli[i], a.moduli[j]
            step = dt // math.gcd(dt, ds)
            row.append(step * rng.randrange(0, dt // step))
        mat.append(row)
    return mat


def test_first_isomorphism_theorem():
    rng = random.Random(123)
    for _ in range(40):
        a = FiniteAbelianGroup(random_moduli(rng))
        b = FiniteAbelianGroup(random_moduli(rng))
        f = hom_validate(random_valid_matrix(rng, a, b), a, b)
        assert f.kernel().order * f.image().order == a.order


def test_preimage_image_adjunction():
    rng = random.Random(321)
    for _ in range(30):
        a = FiniteAbelianGroup(random_moduli(rng))
        f = identity_hom(a)
        h = canonical_subgroup(a, random_elems(rng, a, 2))
        assert f.preimage(h) == h
        assert f.image(h) == h
    # f(f^{-1}(H)) = H n im f ; f^{-1}(f(whole)) = whole
    z8 = FiniteAbelianGroup((8,))
    f = hom_validate([[2]], z8, z8)
    whole = z8.whole_subgroup()
    assert f.preimage(f.image(whole)) == whole
    h = canonical_subgroup(z8, [(4,)])
    assert f.image(f.preimage(h)) == h.intersect_with(f.image(whole))


def test_modular_law():
    rng = random.Random(77)
    for _ in range(30):
        g = FiniteAbelianGroup(random_moduli(rng))
        if g.order > 3000:
            continue
        h = canonical_subgroup(g, random_elems(rng, g, 1))
        l_extra = random_elems(rng, g, 1)
        l = canonical_subgroup(g, h.generators() + l_extra)  # ensures H <= L
        m = canonical_subgroup(g, random_elems(rng, g, 2))
        lhs = h.sum_with(m.intersect_with(l))
        rhs = h.sum_with(m).intersect_with(l)
        assert lhs == rhs


def test_invariants_and_quotients():
    a = FiniteAbelianGroup((4, 4))
    h = canonical_subgroup(a, [(1, 2)])
    assert h.invariants() == (4,)
    assert quotient_invariants(canonical_subgroup(a, [(2, 0)]), a.whole_subgroup()) == (2, 4)
    z12 = FiniteAbelianGroup((12,))
    assert canonical_subgroup(z12, [(4,)]).invariants() == (3,)


# -- direct constructions from the HNF against elimination from generators --

FAMILIES = ((2, 4, 8), (3, 9), (2, 3, 6))


def mixed_group(rng, max_rank=4):
    """Moduli mixed inside one family, with some Z/1 coordinates."""
    fam = rng.choice(FAMILIES)
    return FiniteAbelianGroup(
        tuple(rng.choice(fam + (1,)) for _ in range(rng.randrange(1, max_rank + 1)))
    )


def assert_forms_agree(subs):
    """== and hash of the sparse rows agree with equality of dense bases, and
    the checked dense constructor gives back the same subgroup."""
    for x in subs:
        again = AbSubgroup(x.ambient, x.basis)
        assert again == x and hash(again) == hash(x) and again.order == x.order
        for y in subs:
            if x.ambient == y.ambient:
                assert (x == y) == (x.basis == y.basis)
                if x == y:
                    assert hash(x) == hash(y)


def sparse_elems(rng, group, count):
    """Elements with multiples and zeros, so subgroups come in every size."""
    return [
        tuple(rng.choice((0, 1, 2, 3)) * rng.randrange(d) for d in group.moduli)
        for _ in range(count)
    ]


def eliminated_kernel(map_rows, moduli, relation_rows, coeff):
    """congruence_kernel with the relation lattice built by adding its rows
    one by one to its moduli: the kernel rows elimination from generators
    gives."""
    relation = ZLattice(len(moduli), moduli)
    for r in relation_rows:
        relation.add(list(r))
    return congruence_kernel(map_rows, len(moduli), relation, payload_moduli=coeff)


def combine(combos, basis, k):
    """sum_i c_i basis[i] for each kernel row c, a {i: c_i} map."""
    rows = []
    for combo in combos:
        row = [0] * k
        for i, ci in combo.items():
            for t in range(k):
                row[t] += ci * basis[i][t]
        rows.append(row)
    return rows


def test_sum_and_intersection_match_elimination_from_generators():
    rng = random.Random(4096)
    enumerated = 0
    for _ in range(120):
        g = mixed_group(rng)
        h = canonical_subgroup(g, sparse_elems(rng, g, rng.randrange(0, 3)))
        l = canonical_subgroup(g, sparse_elems(rng, g, rng.randrange(0, 3)))
        tot = h.sum_with(l)
        assert tot.basis == canonical_subgroup(g, list(h.basis) + list(l.basis)).basis
        k = g.rank
        combos = eliminated_kernel(h.basis, g.moduli, l.basis, [lcm(1, *g.moduli)] * k)
        inter = h.intersect_with(l)
        assert inter.basis == canonical_subgroup(g, combine(combos, h.basis, k)).basis
        if g.order <= 4096:
            enumerated += 1
            hs = oracles.subgroup_elements(g.moduli, h.generators())
            ls = oracles.subgroup_elements(g.moduli, l.generators())
            assert set(tot.elements()) == oracles.sum_sets(g.moduli, hs, ls)
            assert set(inter.elements()) == hs & ls
    assert enumerated > 60


def test_preimage_matches_elimination_from_generators():
    rng = random.Random(4097)
    enumerated = 0
    for _ in range(120):
        a = mixed_group(rng, 3)
        b = mixed_group(rng, 3)
        f = hom_validate(random_valid_matrix(rng, a, b), a, b)
        sub = canonical_subgroup(b, sparse_elems(rng, b, rng.randrange(0, 3)))
        combos = eliminated_kernel(f.columns, b.moduli, sub.basis, [lcm(1, *b.moduli)] * a.rank)
        pre = f.preimage(sub)
        assert pre.basis == canonical_subgroup(a, combos).basis
        if a.order * b.order <= 4096:
            enumerated += 1
            target = oracles.subgroup_elements(b.moduli, sub.generators())
            assert set(pre.elements()) == oracles.preimage_set(f.matrix, a.moduli, b.moduli, target)
    assert enumerated > 60


@st.composite
def group_and_generators(draw):
    mods = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 9)), max_size=4))
    gens = draw(st.lists(st.tuples(*(st.integers(-20, 20) for _ in mods)), max_size=4))
    return FiniteAbelianGroup(tuple(mods)), gens


@settings(max_examples=150, deadline=None)
@given(group_and_generators(), st.randoms(use_true_random=False))
def test_canonical_basis_is_the_hermite_normal_form(case, rnd):
    g, gens = case
    h = canonical_subgroup(g, gens)
    k = g.rank
    assert len(h.basis) == k
    for j, row in enumerate(h.basis):
        assert len(row) == k
        assert all(row[t] == 0 for t in range(j))
        p = row[j]
        assert p > 0 and g.moduli[j] % p == 0
        assert all(0 <= h.basis[i][j] < p for i in range(j))
    permuted = list(gens)
    rnd.shuffle(permuted)
    assert canonical_subgroup(g, permuted + permuted[: rnd.randrange(len(gens) + 1)]).basis == h.basis


def test_malformed_basis_is_an_internal_error():
    g = FiniteAbelianGroup((2, 4))
    for basis in (
        ((1, 0),),  # too few rows
        ((1, 0), (0, 4), (0, 2)),  # too many rows
        ((1, 0), (0,)),  # short row
        ((1, 0), (0, 0)),  # zero pivot
        ((2, 1), (0, -4)),  # negative pivot
    ):
        with pytest.raises(AssertionError):
            AbSubgroup(g, basis)
    assert AbSubgroup(g, ((1, 0), (0, 2))).order == 4


def test_order_is_read_off_the_hnf_without_a_lattice(monkeypatch):
    """Constructing a subgroup and reading its order builds no lattice;
    membership builds one, once."""
    g = FiniteAbelianGroup((4, 6))
    basis = canonical_subgroup(g, [(2, 3)]).basis
    built = []
    init = ZLattice.__init__

    def counting_init(self, width, moduli=None):
        built.append(width)
        init(self, width, moduli)

    monkeypatch.setattr(ZLattice, "__init__", counting_init)
    h = AbSubgroup(g, basis)
    assert (h.order, h.index) == (2, 12)
    assert built == []
    assert h.contains((2, 3)) and not h.contains((2, 0))
    assert built == [2]
