import itertools
import random
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from entctl.lattice import ZLattice, congruence_kernel, joined_rows, smith_normal_form, xgcd

import oracles
from oracles import det_bareiss

small_int = st.integers(min_value=-30, max_value=30)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert g >= 0
    assert x * a + y * b == g
    if a or b:
        assert a % g == 0 and b % g == 0


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_snf_properties(m):
    s = smith_normal_form(m)
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    for i in range(len(s)):
        for j in range(len(s[0])):
            if i != j:
                assert s[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    # determinantal divisors: s_1 ... s_k is the gcd of the k x k minors
    for k in range(1, len(diag) + 1):
        minors = (
            det_bareiss([[m[i][j] for j in cols] for i in rows])
            for rows in itertools.combinations(range(len(m)), k)
            for cols in itertools.combinations(range(len(m[0])), k)
        )
        assert prod(diag[:k]) == gcd(*minors)


def test_snf_examples():
    s = smith_normal_form([[2, 0], [0, 4]])
    assert [s[0][0], s[1][1]] == [2, 4]
    s = smith_normal_form([[2, 4], [6, 8]])
    assert [s[0][0], s[1][1]] == [2, 4]
    assert smith_normal_form([[0]]) == [[0]]
    assert smith_normal_form([[2, 4, 1], [6, 8, 0]]) == [[1, 0, 0], [0, 2, 0]]


def test_lattice_membership_and_canonical_form():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randrange(1, 5)
        lat = ZLattice(k)
        rows = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(rng.randrange(1, 5))]
        for r in rows:
            lat.add(list(r))
        lat.normalize()
        # every original row is a member; random combinations are members
        for r in rows:
            assert lat.contains(list(r))
        combo = [0] * k
        for r in rows:
            c = rng.randrange(-3, 4)
            combo = [x + c * y for x, y in zip(combo, r)]
        assert lat.contains(combo)
        # canonical form is stable under re-insertion of basis rows
        lat2 = ZLattice(k)
        for r in lat.basis():
            lat2.add(list(r))
        lat2.normalize()
        assert lat2.basis() == lat.basis()


def dense(row, width):
    """The dense form of a {column: value} kernel row."""
    return [row.get(t, 0) for t in range(width)]


def kernel_basis(kernel, relation, payload_moduli):
    """The rows of a ``congruence_kernel`` result in pivot order, each
    implicit m_j e_j as the map {j: m_j}: the echelon basis its elimination
    holds (a relation without moduli takes no payload moduli)."""
    rows = dict(kernel)
    if relation.moduli is not None:
        for j, m in enumerate(payload_moduli or ()):
            if m and j not in rows:
                rows[j] = {j: m}
    return [rows[p] for p in sorted(rows)]


def kernel_apart(map_rows, image_width, relation, payload_moduli=None, payload=None):
    """``kernel_basis`` of the kernel of rows held apart, joined by ``joined_rows``."""
    rows = joined_rows(map_rows, image_width, relation, payload_moduli, payload)
    return kernel_basis(congruence_kernel(rows, image_width, relation, payload_moduli), relation, payload_moduli)


def test_congruence_kernel_is_exact():
    rng = random.Random(11)
    for _ in range(40):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        map_rows = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        mods = [rng.choice([2, 3, 4, 6]) for _ in range(m)]
        rel = [[mods[i] if j == i else 0 for j in range(m)] for i in range(m)]
        relation = ZLattice(m)
        for r in rel:
            relation.add(r)
        combos = [dense(c, n) for c in kernel_apart(map_rows, m, relation)]
        # every kernel basis row really maps into the relation lattice
        for c in combos:
            img = [sum(ci * mr[j] for ci, mr in zip(c, map_rows)) for j in range(m)]
            assert all(img[j] % mods[j] == 0 for j in range(m))
        # brute force: all small combinations that map to 0 are in the lattice
        lat = ZLattice(n)
        for c in combos:
            lat.add(c)
        for c in itertools.product(range(-2, 3), repeat=n):
            img = [sum(ci * mr[j] for ci, mr in zip(c, map_rows)) for j in range(m)]
            if all(img[j] % mods[j] == 0 for j in range(m)):
                assert lat.contains(list(c))


def test_congruence_kernel_with_an_echelon_relation():
    """A relation lattice in echelon but not diagonal form, with declared
    moduli, as the discrete side passes its growing phi(T_n) lattice."""
    rng = random.Random(12)
    off_diagonal = 0
    for _ in range(60):
        m = rng.randrange(1, 4)
        mods = [rng.choice([1, 2, 4, 8, 3, 9, 6]) for _ in range(m)]
        rel_rows = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(rng.randrange(1, 3))]
        relation = ZLattice(m, mods)
        for r in rel_rows:
            relation.add(r)
        off_diagonal += any(row[t] % mods[t] for row, p in zip(relation.rows, relation.pivots)
                            for t in range(p + 1, m))
        in_relation = oracles.subgroup_elements(mods, rel_rows)
        if rng.random() < 0.5:
            # unit map rows e_c with the kill moduli as coefficient moduli
            n = rng.randrange(1, m + 1)
            map_rows = [[int(t == c) for t in range(m)] for c in range(n)]
            coeff = mods[:n]
        else:
            n = rng.randrange(1, 4)
            map_rows = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
            coeff = [lcm(*mods)] * n
        combos = [dense(c, n) for c in kernel_apart(map_rows, m, relation, coeff)]

        def maps_into_relation(c):
            img = [sum(ci * mr[j] for ci, mr in zip(c, map_rows)) for j in range(m)]
            return oracles.reduce_vec(mods, img) in in_relation

        assert all(maps_into_relation(c) for c in combos)
        lat = ZLattice(n)
        for c in combos:
            lat.add(list(c))
        for c in itertools.product(range(-2, 3), repeat=n):
            assert lat.contains(list(c)) == maps_into_relation(c)
    assert off_diagonal > 10


entry = st.one_of(st.just(0), st.integers(-12, 12))  # half the entries 0
kill_moduli = st.sampled_from((0, 0, 1, 2, 3, 4, 6, 8, 9))


def dense_rows(width, max_rows=6):
    return st.lists(st.lists(entry, min_size=width, max_size=width), max_size=max_rows)


def as_map(row):
    """The {column: value} form of a dense row, with one explicit zero kept."""
    out = {t: x for t, x in enumerate(row) if x}
    if len(row) > len(out):
        out[row.index(0)] = 0
    return out


def assert_same(lat, ref):
    assert lat.pivots == ref.pivots
    assert lat.rows == ref.rows


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_lattice_repeats_the_dense_reference(data):
    """Raw echelon rows, pivots and every return value equal the dense
    reference's after each add, extend and normalize, with and without
    moduli; normalize gives the same HNF, and membership agrees throughout."""
    width = data.draw(st.integers(0, 6))
    moduli = data.draw(st.one_of(st.none(), st.lists(kill_moduli, min_size=width, max_size=width)))
    lat, ref = ZLattice(width, moduli), oracles.DenseZLattice(width, moduli)
    form = as_map if data.draw(st.booleans()) else list
    assert_same(lat, ref)
    for _ in range(data.draw(st.integers(1, 3))):
        for row in data.draw(dense_rows(lat.width)):
            assert lat.add(form(row)) == ref.add(row)
            assert_same(lat, ref)
        for probe in data.draw(dense_rows(lat.width, 3)):
            assert lat.contains(form(probe)) == ref.contains(probe)
        extra = data.draw(st.integers(0, 2))
        new_moduli = data.draw(st.lists(kill_moduli, min_size=extra, max_size=extra))
        lat.extend(lat.width + extra, new_moduli)
        ref.extend(ref.width + extra, new_moduli)
        assert_same(lat, ref)
    copy = lat.copy()
    lat.normalize()
    ref.normalize()
    assert_same(lat, ref)
    assert lat.basis() == tuple(map(tuple, ref.rows))
    for probe in data.draw(dense_rows(lat.width, 4)) + ref.rows:
        assert lat.contains(probe) == ref.contains(probe) == copy.contains(probe)


def nonunit_hnf(ref):
    """The rows of a normalized dense reference that are not unit rows e_p,
    as {pivot: {column: value}} in pivot order."""
    rows = {p: {t: x for t, x in enumerate(row) if x} for p, row in zip(ref.pivots, ref.rows)}
    return {p: row for p, row in rows.items() if row != {p: 1}}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normalize_returns_the_nonunit_rows_of_the_dense_reference(data):
    """``normalize`` returns the HNF rows of the dense reference that are not
    unit rows, in pivot order: implicit rows of modulus 1 are left out,
    those of larger moduli come back as {j: m_j}."""
    width = data.draw(st.integers(0, 6))
    moduli = data.draw(st.one_of(st.none(), st.lists(kill_moduli, min_size=width, max_size=width)))
    lat, ref = ZLattice(width, moduli), oracles.DenseZLattice(width, moduli)
    for row in data.draw(dense_rows(width)):
        lat.add(row)
        ref.add(row)
    got = lat.normalize()
    ref.normalize()
    assert got == nonunit_hnf(ref)
    assert list(got) == sorted(got)
    assert lat.basis() == tuple(map(tuple, ref.rows))


@pytest.mark.parametrize(
    "moduli, rows, expected",
    [
        # implicit rows: modulus 1 is a unit row, 4 is not, 0 has no row
        ([1, 4, 0], [], {1: {1: 4}}),
        # (1, 3) reduces to e_0 against the stored unit row e_1
        (None, [[1, 3], [0, 1]], {}),
        # (1, 2) keeps its entry below the implicit row 4 e_1
        ([6, 4], [[1, 2]], {0: {0: 1, 1: 2}, 1: {1: 4}}),
    ],
)
def test_normalize_drops_rows_that_reduce_to_unit_rows(moduli, rows, expected):
    width = len(moduli or rows[0])
    lat, ref = ZLattice(width, moduli), oracles.DenseZLattice(width, moduli)
    for row in rows:
        lat.add(row)
        ref.add(row)
    ref.normalize()
    assert lat.normalize() == nonunit_hnf(ref) == expected


def test_normalize_drops_a_row_that_reduces_to_a_unit_row_against_an_implicit_one():
    # (1, 0, 5) reduces to e_0 against the implicit unit row of column 2
    lat = ZLattice.from_echelon(3, {0: {0: 1, 2: 5}}, [0, 3, 1])
    assert lat.normalize() == {1: {1: 3}}
    assert lat.basis() == ((1, 0, 0), (0, 3, 0), (0, 0, 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_congruence_kernel_repeats_the_dense_reference(data):
    """Raw congruence_kernel output, its implicit rows m_j e_j read off the
    payload moduli, equals the dense reference's, which stores every m_j e_j
    from the start, for relations with and without kill moduli, default and
    explicit payloads, payload moduli 0 and 1, payload columns that no row
    reaches, and a section of image columns of nonzero moduli, which only
    their implicit rows may reach, or of payload columns of nonzero moduli,
    whose rows are read as their pivot product instead of returned."""
    image_width = data.draw(st.integers(0, 5))
    moduli = data.draw(
        st.one_of(st.none(), st.lists(kill_moduli, min_size=image_width, max_size=image_width))
    )
    relation, ref = ZLattice(image_width, moduli), oracles.DenseZLattice(image_width, moduli)
    for row in data.draw(dense_rows(image_width, 3)):
        relation.add(row)
        ref.add(row)
    map_rows = data.draw(dense_rows(image_width))
    form = as_map if data.draw(st.booleans()) else list
    n = len(map_rows)
    explicit, with_moduli = data.draw(st.booleans()), data.draw(st.booleans())
    # without payload moduli the payload is n wide, and the default payload
    # is n wide or wider: the unit rows reach none of the later columns
    if not with_moduli:
        width = n
    elif explicit:
        width = data.draw(st.integers(0, 5))
    else:
        width = n + data.draw(st.integers(0, 3))
    payload_moduli = data.draw(st.lists(kill_moduli, min_size=width, max_size=width)) if with_moduli else None
    payload = None
    if explicit:
        payload = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=n, max_size=n))
    # where every column has a nonzero kill modulus the relation has full
    # rank, and so has the lattice on payload columns of nonzero modulus
    # when the relation declares moduli
    columns = moduli or []
    if moduli is not None and payload_moduli is not None and data.draw(st.booleans()):
        columns = [*moduli, *payload_moduli]
    lo = data.draw(st.integers(0, len(columns)))
    hi = data.draw(st.integers(lo, len(columns)))
    section = range(lo, hi) if moduli is not None and all(columns[lo:hi]) and data.draw(st.booleans()) else None
    rows = joined_rows([form(r) for r in map_rows], image_width, relation, payload_moduli, payload)
    got = congruence_kernel(rows, image_width, relation, payload_moduli, section)
    expected = oracles.dense_congruence_kernel(map_rows, image_width, ref, payload_moduli, payload, section)
    if section is not None:
        (got, index), (expected, ref_index) = got, expected
        assert index == ref_index
    assert all(all(r.values()) for r in got.values())  # maps of nonzeros
    assert all(min(r) == p for p, r in got.items())  # keyed by pivot
    read = [p - image_width for p in section or ()]
    basis = [r for r in kernel_basis(got, relation, payload_moduli) if min(r) not in read]
    assert [dense(r, width) for r in basis] == expected
    assert relation.rows == ref.rows


@pytest.mark.parametrize("relation, payload_moduli, expected", [
    # no map rows: the result is the m_j e_j alone, modulus 1 included, and
    # all of them are implicit
    (ZLattice(0, []), [1], [{0: 1}]),
    (ZLattice(0, []), [0, 3, 1], [{1: 3}, {2: 1}]),
    # a relation without moduli takes no payload moduli either
    (ZLattice(0), [2], []),
])
def test_congruence_kernel_reads_the_implicit_payload_rows(relation, payload_moduli, expected):
    assert congruence_kernel([], 0, relation, payload_moduli) == {}
    assert kernel_basis({}, relation, payload_moduli) == expected
    ref = oracles.DenseZLattice(0, relation.moduli)
    width = len(payload_moduli)
    assert oracles.dense_congruence_kernel([], 0, ref, payload_moduli) == [dense(r, width) for r in expected]


def test_congruence_kernel_adds_each_row_once_and_checks_both_halves(monkeypatch):
    """The lattice takes each joined row over as it is, one ``add`` per row
    and no copy; ``joined_rows`` checks the columns of both halves."""
    relation = ZLattice(2, [4, 4])
    adds = []
    add = ZLattice.add

    def counting_add(self, vec, **kwargs):
        adds.append(vec)
        return add(self, vec, **kwargs)

    monkeypatch.setattr(ZLattice, "add", counting_add)
    map_rows = [{0: 1}, [2, 0], {1: 3}]
    payload = [{0: 1}, [0, 5, 0], {2: 6}]
    rows = joined_rows(map_rows, 2, relation, [4, 4, 4], payload)
    # one row, reduced modulo the moduli: 5 and 6 enter as 1 and 2
    assert rows[1] == {0: 2, 3: 1}
    got = congruence_kernel(rows, 2, relation, [4, 4, 4])
    assert len(adds) == len(map_rows)
    assert all(a is r for a, r in zip(adds, rows))
    assert got == {0: {0: 2, 1: 1}, 1: {1: 2}}
    assert kernel_basis(got, relation, [4, 4, 4]) == [{0: 2, 1: 1}, {1: 2}, {2: 4}]
    assert relation.row_maps() == {0: {0: 4}, 1: {1: 4}}
    for bad_image in ({2: 1}, {-1: 1}, [1, 0, 0]):
        with pytest.raises(ValueError):
            joined_rows([bad_image], 2, relation, [4, 4, 4], [{0: 1}])
    for bad_payload in ({3: 1}, {-1: 1}, [1, 0]):
        with pytest.raises(ValueError):
            joined_rows([{0: 1}], 2, relation, [4, 4, 4], [bad_payload])
    with pytest.raises(ValueError):
        joined_rows([{0: 1}, {1: 1}], 2, relation, [4])  # default payload past its width
    with pytest.raises(ValueError):
        congruence_kernel([], 3, relation)  # the relation's width is the image width
