"""Exact finite abelian group kernel.

A group is a quotient Z^k / diag(d_1, ..., d_k); elements are integer
vectors reduced coordinatewise.  Subgroups are represented by the Hermite
normal form of the integer lattice spanned by their generators together
with the relation lattice, which makes equality a tuple comparison and
membership a back-substitution.  Homomorphisms are integer matrices with a
well-definedness certificate; kernel, image and preimage are computed on
the lattice side, never by enumeration.

A n B and f^-1(S) are one elimination each: rows (b|_W | b) for B's HNF rows
b, or (f(e_j)|_W | e_j), against A's (or S's) rows on W, the coordinates whose
HNF row is not e_j.  That is exact: a unit row's pivot is 1, so the other rows
vanish in its column, and x is in A iff x_W is in the span of A's rows on W.
The result rows come out echelon, so ``normalize`` alone gives the HNF.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import compress, repeat
from math import prod
from operator import mod

from .errors import (
    AmbientMismatchError,
    ContainmentError,
    DimensionError,
    ValidationError,
)
from .lattice import ZLattice, congruence_kernel, smith_normal_form


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z/d_1 x ... x Z/d_k with coordinatewise arithmetic."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        mods = tuple(int(d) for d in self.moduli)
        if any(d < 1 for d in mods):
            raise ValidationError(f"moduli must be positive, got {mods}")
        object.__setattr__(self, "moduli", mods)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return prod(self.moduli)

    def __str__(self):
        if not self.moduli:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.moduli)

    def check_vector(self, vec) -> None:
        if len(vec) != self.rank:
            raise DimensionError(
                f"vector of length {len(vec)} in group of rank {self.rank}"
            )

    def reduce(self, vec) -> tuple[int, ...]:
        self.check_vector(vec)
        return tuple(int(v) % d for v, d in zip(vec, self.moduli))

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def unit(self, i: int) -> tuple[int, ...]:
        e = [0] * self.rank
        e[i] = 1 % self.moduli[i]
        return tuple(e)

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.moduli))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.moduli))

    def scale(self, c: int, a) -> tuple[int, ...]:
        return tuple((c * x) % d for x, d in zip(a, self.moduli))

    def elements(self):
        """Iterate all elements; intended for small groups only."""
        return itertools.product(*(range(d) for d in self.moduli))

    def relation_rows(self) -> list[list[int]]:
        k = self.rank
        rows = []
        for i, d in enumerate(self.moduli):
            row = [0] * k
            row[i] = d
            rows.append(row)
        return rows

    def relation_lattice(self) -> ZLattice:
        return ZLattice(self.rank, moduli=self.moduli)

    def subgroup(self, gens) -> "AbSubgroup":
        return canonical_subgroup(self, gens)

    def trivial_subgroup(self) -> "AbSubgroup":
        return canonical_subgroup(self, [])

    def whole_subgroup(self) -> "AbSubgroup":
        return canonical_subgroup(self, [self.unit(i) for i in range(self.rank)])


class AbSubgroup:
    """Subgroup of a FiniteAbelianGroup in canonical (HNF) form.

    Two AbSubgroups are equal as sets iff their bases are identical tuples.
    Instances are immutable; the order is read off the HNF diagonal, and the
    backing lattice is built once, when membership or a sum first needs it.
    """

    __slots__ = ("ambient", "basis", "order", "_lat")

    def __init__(self, ambient: FiniteAbelianGroup, basis: tuple[tuple[int, ...], ...]):
        k = ambient.rank
        assert len(basis) == k and all(
            len(row) == k and row[j] > 0 for j, row in enumerate(basis)
        ), f"not a full-rank triangular basis of rank {k}: {basis}"
        self.ambient = ambient
        self.basis = basis
        self.order = ambient.order // prod(row[j] for j, row in enumerate(basis))
        self._lat = None

    def _lattice(self) -> ZLattice:
        if self._lat is None:
            self._lat = ZLattice.from_echelon(
                self.ambient.rank, self.basis, range(self.ambient.rank), self.ambient.moduli
            )
        return self._lat

    def __eq__(self, other):
        return (
            isinstance(other, AbSubgroup)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"AbSubgroup(order={self.order} in {self.ambient})"

    @property
    def index(self) -> int:
        """[A : H], the index in the ambient group."""
        return self.ambient.order // self.order

    def contains(self, vec) -> bool:
        self.ambient.check_vector(vec)
        return self._lattice().contains(vec)

    def contains_subgroup(self, other: "AbSubgroup") -> bool:
        if other.ambient != self.ambient:
            raise AmbientMismatchError("subgroups of different ambient groups")
        lat = self._lattice()
        return all(lat.contains(r) for r in other.basis)

    def generators(self) -> list[tuple[int, ...]]:
        gens = []
        for row in self.basis:
            g = self.ambient.reduce(row)
            if any(g):
                gens.append(g)
        return gens

    def elements(self):
        """All elements, by closure from the generators.  Small groups only."""
        amb = self.ambient
        gens = self.generators()
        seen = {amb.zero()}
        frontier = [amb.zero()]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = amb.add(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return seen

    def sum_with(self, other: "AbSubgroup") -> "AbSubgroup":
        if other.ambient != self.ambient:
            raise AmbientMismatchError("subgroup sum across ambient groups")
        lat = self._lattice().copy()
        for row in other.basis:
            lat.add(row)
        lat.normalize()
        return AbSubgroup(self.ambient, lat.basis())

    def intersect_with(self, other: "AbSubgroup") -> "AbSubgroup":
        if other.ambient != self.ambient:
            raise AmbientMismatchError("subgroup intersection across ambient groups")
        # eliminate on the side with fewer constrained coordinates
        wa, wb = self._constrained(), other._constrained()
        if len(wb) < len(wa):
            return other._pull_back(wb, self.basis, self.ambient, self.basis)
        return self._pull_back(wa, other.basis, self.ambient, other.basis)

    def _constrained(self) -> list[int]:
        """W: the j whose HNF row is not e_j.  HNF entries are >= 0, so row j
        is e_j iff its pivot and its sum are both 1."""
        return [j for j, row in enumerate(self.basis) if row[j] != 1 or sum(row) != 1]

    def _pull_back(self, w, map_rows, ambient, payload=None) -> "AbSubgroup":
        """{sum_i c_i payload[i] : sum_i c_i map_rows[i] in this subgroup} in ``ambient``
        (payload rows default to unit rows), eliminating on W = ``w`` only."""
        pos = {j: i for i, j in enumerate(w)}
        rows = [_restrict(self.basis[j], pos) for j in w]
        mods = [self.ambient.moduli[j] for j in w]
        relation = ZLattice.from_echelon(len(w), rows, range(len(w)), mods)
        images = [_restrict(row, pos) for row in map_rows]
        return echelon_subgroup(
            ambient, congruence_kernel(images, len(w), relation, ambient.moduli, payload)
        )

    def invariants(self) -> tuple[int, ...]:
        """Invariant factors of this subgroup as an abstract group."""
        # H is (own lattice) / (relation lattice); express relations in the basis.
        coeffs = [
            _coords_in_triangular_basis(self.basis, row)
            for row in self.ambient.relation_rows()
        ]
        return _invariants_of_cokernel(coeffs)


def _restrict(row, pos: dict[int, int]) -> dict[int, int]:
    """The nonzero entries of ``row`` at the coordinates in ``pos``, as a
    {column: value} map renumbered by ``pos``."""
    return {pos[j]: row[j] for j in compress(range(len(row)), row) if j in pos}


def _coords_in_triangular_basis(basis, vec) -> list[int]:
    """Coefficients of vec in a full-rank upper-triangular basis."""
    k = len(basis)
    v = list(vec)
    coeffs = [0] * k
    for j in range(k):
        if v[j] == 0:
            continue
        p = basis[j][j]
        if v[j] % p:
            raise ContainmentError("vector not in lattice")
        q = v[j] // p
        coeffs[j] = q
        for t in range(j, k):
            v[t] -= q * basis[j][t]
    return coeffs


def _invariants_of_cokernel(rows) -> tuple[int, ...]:
    """Invariant factors > 1 of Z^k / rowspan(rows) for square nonsingular rows."""
    s, _, _ = smith_normal_form(rows)
    out = []
    for i in range(len(s)):
        d = s[i][i]
        if d != 1:
            out.append(d)
    return tuple(out)


def canonical_subgroup(ambient: FiniteAbelianGroup, gens) -> AbSubgroup:
    """Subgroup generated by ``gens``, in canonical form."""
    lat = ambient.relation_lattice()
    for g in gens:
        ambient.check_vector(g)
        lat.add(g)
    lat.normalize()
    return AbSubgroup(ambient, lat.basis())


def echelon_subgroup(ambient: FiniteAbelianGroup, rows) -> AbSubgroup:
    """Subgroup with an echelon basis of one row per column, relations included."""
    lat = ZLattice.from_echelon(ambient.rank, rows, range(ambient.rank))
    lat.normalize()
    return AbSubgroup(ambient, lat.basis())


def subgroup_index(h: AbSubgroup, l: AbSubgroup) -> int:
    """[L : H] for H <= L, exactly."""
    if h.ambient != l.ambient:
        raise AmbientMismatchError("index across ambient groups")
    if not l.contains_subgroup(h):
        raise ContainmentError("index undefined: first subgroup not inside second")
    return l.order // h.order


def quotient_invariants(inner: AbSubgroup, outer: AbSubgroup) -> tuple[int, ...]:
    """Invariant factors of outer/inner for inner <= outer."""
    if inner.ambient != outer.ambient:
        raise AmbientMismatchError("quotient across ambient groups")
    if not outer.contains_subgroup(inner):
        raise ContainmentError("quotient undefined: inner not inside outer")
    coeffs = [_coords_in_triangular_basis(outer.basis, row) for row in inner.basis]
    return _invariants_of_cokernel(coeffs)


@dataclass(frozen=True)
class Hom:
    """Homomorphism between finite abelian groups as an integer matrix.

    matrix has target.rank rows and source.rank columns; f(x) = M x.
    Constructed through hom_validate, which certifies well-definedness.
    """

    source: FiniteAbelianGroup
    target: FiniteAbelianGroup
    matrix: tuple[tuple[int, ...], ...]

    def apply(self, vec) -> tuple[int, ...]:
        self.source.check_vector(vec)
        out = []
        for i, row in enumerate(self.matrix):
            out.append(sum(m * x for m, x in zip(row, vec)) % self.target.moduli[i])
        return tuple(out)

    def columns(self) -> list[tuple[int, ...]]:
        """The columns of the matrix: the images of the unit vectors."""
        return list(zip(*self.matrix)) if self.matrix else [()] * self.source.rank

    def kernel(self) -> AbSubgroup:
        return self.preimage(self.target.trivial_subgroup())

    def image(self, sub: AbSubgroup | None = None) -> AbSubgroup:
        if sub is None:
            # f(A) is spanned by the images of the unit vectors: the columns.
            return canonical_subgroup(self.target, self.columns())
        if sub.ambient != self.source:
            raise AmbientMismatchError("image of subgroup from a different group")
        rows = [self.apply(self.source.reduce(r)) for r in sub.basis]
        return canonical_subgroup(self.target, rows)

    def preimage(self, sub: AbSubgroup) -> AbSubgroup:
        if sub.ambient != self.target:
            raise AmbientMismatchError("preimage of subgroup from a different group")
        return sub._pull_back(sub._constrained(), self.columns(), self.source)

    def compose(self, inner: "Hom") -> "Hom":
        """self o inner."""
        if inner.target != self.source:
            raise AmbientMismatchError("composition type mismatch")
        rows = []
        for i, row in enumerate(self.matrix):
            d = self.target.moduli[i]
            rows.append(
                tuple(
                    sum(row[t] * inner.matrix[t][j] for t in range(len(row))) % d
                    for j in range(inner.source.rank)
                )
            )
        return Hom(inner.source, self.target, tuple(rows))


def hom_validate(matrix, source: FiniteAbelianGroup, target: FiniteAbelianGroup) -> Hom:
    """Validate well-definedness: d_j^src * M e_j must die in the target."""
    rows = [tuple(map(int, r)) for r in matrix]
    if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
        raise DimensionError(
            f"matrix {len(rows)}x{len(rows[0]) if rows else 0} for map "
            f"rank {source.rank} -> rank {target.rank}"
        )
    # a zero entry always passes; report the first failure in column-major order
    src = source.moduli
    bad = [
        (j, i)
        for i, (row, di) in enumerate(zip(rows, target.moduli))
        for j in compress(range(len(row)), row)
        if (src[j] * row[j]) % di
    ]
    if bad:
        j, i = min(bad)
        raise ValidationError(
            f"ill-defined map: generator {j} of order {src[j]} maps to a "
            f"vector with coordinate {i} = {rows[i][j]} mod {target.moduli[i]}"
        )
    reduced = tuple(tuple(map(mod, row, repeat(d))) for row, d in zip(rows, target.moduli))
    return Hom(source, target, reduced)


def identity_hom(group: FiniteAbelianGroup) -> Hom:
    k = group.rank
    return hom_validate(
        [[1 if i == j else 0 for j in range(k)] for i in range(k)], group, group
    )


def zero_hom(source: FiniteAbelianGroup, target: FiniteAbelianGroup) -> Hom:
    return hom_validate(
        [[0] * source.rank for _ in range(target.rank)], source, target
    )
