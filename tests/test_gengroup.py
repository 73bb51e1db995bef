import random

import pytest

from entctl.errors import NormalityError, ValidationError
from entctl.gengroup import (
    GenSubgroup,
    cayley_group,
    closure,
    heart,
    is_normal,
    subgroup_product,
)

import oracles

S3_TABLE, S3_PERMS = oracles.perm_table(3)
T12 = S3_PERMS.index((1, 0, 2))
T123 = S3_PERMS.index((1, 2, 0))


def test_cayley_group_valid_tables():
    assert cayley_group(oracles.cyclic_table(2)).order == 2
    g = cayley_group(S3_TABLE)
    assert g.order == 6
    assert not g.is_abelian()
    assert cayley_group(oracles.quaternion_table()).order == 8


def test_cayley_group_order_cap():
    with pytest.raises(ValidationError):
        cayley_group(oracles.cyclic_table(513))
    assert cayley_group(oracles.cyclic_table(512)).order == 512


def test_cayley_group_rejects_bad_tables():
    with pytest.raises(ValidationError):
        cayley_group([[0, 1], [1, 1]])  # no inverse for 1
    # non-associative magma with identity and "inverses"
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError) as exc:
        cayley_group(bad)
    assert "triple" in str(exc.value) or "inverse" in str(exc.value)


def test_closure_examples():
    g = cayley_group(S3_TABLE)
    assert closure(g, [T12]).order == 2
    a3 = closure(g, [T123])
    assert a3.order == 3
    assert closure(g, []).order == 1
    # closure is a fixed point of closure
    again = closure(g, list(a3.sorted_elements))
    assert again == a3


def test_is_normal_and_heart_examples():
    g = cayley_group(S3_TABLE)
    h = closure(g, [T12])
    a3 = closure(g, [T123])
    assert is_normal(g, h) is False
    assert heart(g, h).order == 1
    assert g.order // h.order == 3
    assert is_normal(g, a3) is True
    assert heart(g, a3) == a3
    whole = closure(g, list(range(6)))
    assert heart(g, whole) == whole


def test_subgroup_product_examples():
    g = cayley_group(S3_TABLE)
    h = closure(g, [T12])
    a3 = closure(g, [T123])
    p = subgroup_product(h, a3)
    assert p.order == 6
    assert subgroup_product(h, h) == h
    triv = closure(g, [])
    assert subgroup_product(triv, a3) == a3
    with pytest.raises(NormalityError):
        subgroup_product(a3, h)  # <(12)> is not normal in S3


@pytest.mark.parametrize(
    "table",
    [
        oracles.cyclic_table(12),
        oracles.dihedral_table(4),
        oracles.dihedral_table(6),
        S3_TABLE,
        oracles.quaternion_table(),
        oracles.perm_table(4)[0],
    ],
)
def test_heart_and_closure_against_oracle(table):
    g = cayley_group(table)
    rng = random.Random(g.order)
    for _ in range(6):
        seed = [rng.randrange(g.order) for _ in range(rng.randrange(0, 3))]
        sub = closure(g, seed)
        assert sub.elements == oracles.closure_set_oracle(table, set(seed))
        hh = heart(g, sub)
        assert hh.elements == oracles.heart_oracle(table, sub.elements)
        assert is_normal(g, hh)
        assert sub.elements >= hh.elements


@pytest.mark.parametrize(
    "table",
    [
        oracles.cyclic_table(8),
        S3_TABLE,
        oracles.dihedral_table(4),
        oracles.perm_table(4)[0],
        oracles.dihedral_table(24),  # order 48
    ],
)
def test_heart_is_greatest_normal_subgroup(table):
    g = cayley_group(table)
    subs = oracles.all_subgroups(table)
    for s in subs:
        sub = GenSubgroup(g, frozenset(s))
        hh = heart(g, sub)
        for t in subs:
            if t <= s and oracles.heart_oracle(table, t) == t:
                # t normal and inside s: must be inside the heart
                assert t <= hh.elements


def test_product_order_formula():
    g = cayley_group(oracles.dihedral_table(6))
    rng = random.Random(3)
    for _ in range(20):
        n_sub = closure(g, [rng.randrange(g.order)])
        if not is_normal(g, n_sub):
            continue
        h_sub = closure(g, [rng.randrange(g.order)])
        p = subgroup_product(h_sub, n_sub)
        inter = h_sub.elements & n_sub.elements
        assert p.order * len(inter) == h_sub.order * n_sub.order
