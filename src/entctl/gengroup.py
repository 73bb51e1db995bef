"""Minimal generic finite group engine over Cayley tables.

Groups are given by an n x n multiplication table of element indices and
validated on construction (identity, inverses, associativity via Light's
test against a greedy generating set).  Subgroups are explicit element
sets; this module exists for non-abelian coverage, not performance, so
the order is hard-capped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NormalityError, ValidationError

MAX_ORDER = 512


class FiniteGroup:
    """Finite group on indices 0..n-1 with a validated Cayley table."""

    __slots__ = ("order", "table", "identity", "inverse")

    def __init__(self, table):
        n = len(table)
        if n == 0:
            raise ValidationError("empty table")
        if n > MAX_ORDER:
            raise ValidationError(f"group order {n} exceeds cap {MAX_ORDER}")
        rows = []
        for r in table:
            row = tuple(int(x) for x in r)
            if len(row) != n or any(x < 0 or x >= n for x in row):
                raise ValidationError("table is not a square table over 0..n-1")
            rows.append(row)
        self.table = tuple(rows)
        self.order = n

        ident = None
        all_idx = tuple(range(n))
        for e in range(n):
            if self.table[e] == all_idx and all(self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValidationError("table has no two-sided identity")
        self.identity = ident

        inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == ident and self.table[b][a] == ident:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValidationError(f"element {a} has no inverse")
        self.inverse = tuple(inv)

        self._check_associativity()

    def _generating_set(self) -> list[int]:
        gens: list[int] = []
        generated = {self.identity}
        for x in range(self.order):
            if x not in generated:
                gens.append(x)
                generated = self._closure_set(generated | {x})
        return gens

    def _closure_set(self, seed) -> set[int]:
        t = self.table
        elems = set(seed)
        frontier = list(elems)
        while frontier:
            new = []
            for a in frontier:
                row = t[a]
                for b in tuple(elems):
                    for c in (row[b], t[b][a]):
                        if c not in elems:
                            elems.add(c)
                            new.append(c)
            frontier = new
        return elems

    def _check_associativity(self) -> None:
        # Light's associativity test: checking a(gc) == (ag)c for g in a
        # generating set suffices.
        t = self.table
        n = self.order
        for g in self._generating_set():
            row_g = t[g]
            for a in range(n):
                ag = t[a][g]
                row_ag = t[ag]
                row_a = t[a]
                for c in range(n):
                    if row_ag[c] != row_a[row_g[c]]:
                        raise ValidationError(
                            f"non-associative triple ({a}, {g}, {c})"
                        )

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.table[self.table[g][h]][self.inverse[g]]

    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def cayley_group(table) -> FiniteGroup:
    return FiniteGroup(table)


@dataclass(frozen=True)
class GenSubgroup:
    parent: FiniteGroup
    elements: frozenset[int]
    sorted_elements: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sorted_elements", tuple(sorted(self.elements)))

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return x in self.elements

    def __eq__(self, other):
        return (
            isinstance(other, GenSubgroup)
            and self.parent == other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.parent, self.sorted_elements))


def closure(group: FiniteGroup, seed) -> GenSubgroup:
    """Smallest subgroup containing ``seed``."""
    for x in seed:
        if not (0 <= x < group.order):
            raise ValidationError(f"element {x} outside group of order {group.order}")
    elems = group._closure_set(set(seed) | {group.identity})
    return GenSubgroup(group, frozenset(elems))


def is_subgroup_set(group: FiniteGroup, elems) -> bool:
    s = set(elems)
    if group.identity not in s:
        return False
    t = group.table
    return all(t[a][b] in s for a in s for b in s)


def is_normal(group: FiniteGroup, sub: GenSubgroup) -> bool:
    return all(
        group.conj(g, h) in sub.elements
        for g in range(group.order)
        for h in sub.sorted_elements
    )


def heart(group: FiniteGroup, sub: GenSubgroup) -> GenSubgroup:
    """Greatest normal subgroup of the group contained in ``sub``.

    Computed as the intersection of all conjugates g H g^-1.
    """
    core = set(sub.elements)
    for g in range(group.order):
        conj = {group.conj(g, h) for h in sub.elements}
        core &= conj
        if len(core) == 1:
            break
    return GenSubgroup(group, frozenset(core))


def subgroup_product(h: GenSubgroup, n: GenSubgroup) -> GenSubgroup:
    """H * N as an element set; requires N normal in <H u N>."""
    if h.parent != n.parent:
        raise NormalityError("product across different groups")
    g = h.parent
    joined = closure(g, set(h.elements) | set(n.elements))
    if not all(
        g.conj(a, x) in n.elements for a in joined.sorted_elements for x in n.elements
    ):
        raise NormalityError("second factor not normal in the generated subgroup")
    t = g.table
    prod_set = {t[a][b] for a in h.elements for b in n.elements}
    if not is_subgroup_set(g, prod_set):
        raise NormalityError("product set is not a subgroup")
    out = GenSubgroup(g, frozenset(prod_set))
    inter = h.elements & n.elements
    assert out.order * len(inter) == h.order * n.order
    return out
