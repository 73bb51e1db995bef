"""Exact finite abelian group kernel.

A group is a quotient Z^k / diag(d_1, ..., d_k); elements are integer
vectors reduced coordinatewise.  Subgroups are represented by the Hermite
normal form of the integer lattice spanned by their generators together
with the relation lattice.  Only its rows that are not unit vectors are
stored, as sparse {column: value} maps keyed by pivot, which makes equality
a comparison of those maps and membership a back-substitution; the dense
``basis`` is a view for cold readers.  Homomorphisms store the images of
the unit vectors as sparse columns, with a well-definedness certificate;
kernel, image and preimage are computed on the lattice side, never by
enumeration.

A n B and f^-1(S) are one elimination each: rows (b|_W | b) for B's HNF rows
b, or (f(e_j)|_W | e_j), against A's (or S's) rows on W, the coordinates whose
HNF row is not e_j.  That is exact: a unit row's pivot is 1, so the other rows
vanish in its column, and x is in A iff x_W is in the span of A's rows on W.
A unit row e_j with e_j|_W = 0 (or f(e_j)|_W = 0) is in the result already;
it enters as the modulus 1 of column j, not as a row to eliminate.
The result rows come out echelon, so ``normalize`` alone gives the HNF.

``BlockSequence`` is the block rule and window layout shared by restricted
sums and full products of blocks; its ``coords`` and ``elem_of`` are the one
place where block elements meet window coordinates.  ``Band`` is the one band
rule over it: the row-finite maps of products are bands, and the abelian
banded maps of restricted sums read their generator images into one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm, prod

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
        # every HNF row is a unit row, and those are not stored
        return AbSubgroup.from_rows(self, {})


class AbSubgroup:
    """Subgroup of a FiniteAbelianGroup in canonical (HNF) form.

    Only the HNF rows that are not unit vectors are stored, as
    ``rows = {pivot: {column: value}}``: row j of the HNF is e_j exactly
    when j is not a key.  The keys are the constrained coordinates W; the
    unit pivots being 1, every stored row vanishes outside W.  Two
    AbSubgroups are equal as sets iff their rows are equal.
    Instances are immutable; the order is read off the pivots, ``basis``
    is the dense HNF built on demand, and the backing lattice is built
    once, when membership or a sum first needs it.
    """

    __slots__ = ("ambient", "rows", "order", "_lat")

    def __init__(self, ambient: FiniteAbelianGroup, basis: tuple[tuple[int, ...], ...]):
        """The subgroup with the dense HNF ``basis``, checked for shape."""
        k = ambient.rank
        assert len(basis) == k and all(
            len(row) == k and row[j] > 0 for j, row in enumerate(basis)
        ), f"not a full-rank triangular basis of rank {k}: {basis}"
        rows = {}
        for j, row in enumerate(basis):
            entries = {t: x for t, x in enumerate(row) if x}
            if entries != {j: 1}:
                rows[j] = entries
        self._init(ambient, rows)

    def _init(self, ambient, rows) -> None:
        # each row's pivot is its least column, with a positive entry, and
        # every column is below the rank (checked with C-level maps only)
        vals = rows.values()
        assert not rows or (
            all(vals)
            and list(map(min, vals)) == list(rows)
            and min(map(dict.__getitem__, vals, rows)) > 0
            and max(map(max, vals)) < ambient.rank
        ), f"not the non-unit rows of a triangular basis of rank {ambient.rank}: {rows}"
        self.ambient = ambient
        self.rows = rows
        self.order = ambient.order // prod(map(dict.__getitem__, vals, rows))
        self._lat = None

    @classmethod
    def from_rows(cls, ambient: FiniteAbelianGroup, rows: dict) -> "AbSubgroup":
        """The subgroup whose HNF has the non-unit rows ``rows``, given as
        ``{pivot: {column: value}}``, the maps shared."""
        sub = cls.__new__(cls)
        sub._init(ambient, rows)
        return sub

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The dense HNF, one row per coordinate."""
        k = self.ambient.rank
        return tuple(tuple(row.get(t, 0) for t in range(k)) for row in self.hnf_rows())

    def hnf_rows(self) -> list[dict[int, int]]:
        """The HNF rows as maps, unit rows included; the stored maps shared."""
        rows = self.rows
        return [rows[j] if j in rows else {j: 1} for j in range(self.ambient.rank)]

    def _lattice(self) -> ZLattice:
        if self._lat is None:
            # the lattice only reads the shared maps: membership never changes
            # a row, and sum_with copies the lattice before adding to it
            self._lat = ZLattice.from_echelon(
                self.ambient.rank, dict(enumerate(self.hnf_rows())), self.ambient.moduli
            )
        return self._lat

    def __eq__(self, other):
        return (
            isinstance(other, AbSubgroup)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        rows = frozenset((p, frozenset(r.items())) for p, r in self.rows.items())
        return hash((self.ambient, rows))

    def __repr__(self):
        return f"AbSubgroup(order={self.order} in {self.ambient})"

    @property
    def index(self) -> int:
        """[A : H], the index in the ambient group."""
        return self.ambient.order // self.order

    def contains(self, vec) -> bool:
        """Membership of a vector, dense or a {coordinate: value} map."""
        if not isinstance(vec, dict):
            self.ambient.check_vector(vec)
        return self._lattice().contains(vec)

    def contains_subgroup(self, other: "AbSubgroup") -> bool:
        if other.ambient != self.ambient:
            raise AmbientMismatchError("subgroups of different ambient groups")
        lat = self._lattice()
        return all(lat.contains(r) for r in other.hnf_rows())

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
        for row in other.hnf_rows():
            lat.add(row)
        return _normalized(self.ambient, lat)

    def intersect_with(self, other: "AbSubgroup") -> "AbSubgroup":
        if other.ambient != self.ambient:
            raise AmbientMismatchError("subgroup intersection across ambient groups")
        # eliminate on the side with fewer constrained coordinates
        if len(other.rows) < len(self.rows):
            self, other = other, self
        rows = other.hnf_rows()
        return self._pull_back(rows, self.ambient, rows)

    def _pull_back(self, images, ambient, payload=None) -> "AbSubgroup":
        """{sum_i c_i payload[i] : sum_i c_i images[i] in this subgroup} in
        ``ambient``, eliminating on this subgroup's constrained coordinates W.

        ``images`` are maps on this subgroup's coordinates and ``payload``
        maps on ``ambient``'s (unit rows by default).  A unit payload row e_j
        whose image vanishes on W is in the result: it is seeded as the
        modulus 1 of column j instead of being eliminated.
        """
        pos = {j: i for i, j in enumerate(sorted(self.rows))}
        relation = ZLattice.from_echelon(
            len(pos),
            {pos[p]: {pos[t]: x for t, x in self.rows[p].items()} for p in pos},
            [self.ambient.moduli[j] for j in pos],
        )
        moduli = list(ambient.moduli)
        map_rows, kept = [], []
        for j, image in enumerate(images):
            row = payload[j] if payload is not None else {j: 1}
            image_w = {pos[t]: x for t, x in image.items() if t in pos}
            if not image_w and len(row) == 1 and row.get(j) == 1:
                moduli[j] = 1
            else:
                map_rows.append(image_w)
                kept.append(row)
        return echelon_subgroup(ambient, congruence_kernel(map_rows, len(pos), relation, moduli, kept))

    def invariants(self) -> tuple[int, ...]:
        """Invariant factors of this subgroup as an abstract group."""
        # H is (own lattice) / (relation lattice); express relations in the basis.
        basis = self.basis
        coeffs = [
            _coords_in_triangular_basis(basis, row)
            for row in self.ambient.relation_rows()
        ]
        return _invariants_of_cokernel(coeffs)


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
    """Subgroup generated by ``gens`` (vectors, or {coordinate: value} maps),
    in canonical form."""
    lat = ambient.relation_lattice()
    for g in gens:
        if not isinstance(g, dict):
            ambient.check_vector(g)
        lat.add(g)
    return _normalized(ambient, lat)


def echelon_subgroup(ambient: FiniteAbelianGroup, rows) -> AbSubgroup:
    """Subgroup with an echelon basis of one row per column, relations
    included, given as {column: value} maps that it takes over."""
    return _normalized(ambient, ZLattice.from_echelon(ambient.rank, dict(enumerate(rows))))


def _normalized(ambient: FiniteAbelianGroup, lat: ZLattice) -> AbSubgroup:
    """The subgroup of a full-rank lattice that contains the relations,
    read off its HNF; the lattice's rows are taken over, not copied."""
    lat.normalize()
    rows = {p: r for p, r in lat.row_maps().items() if len(r) > 1 or r[p] != 1}
    return AbSubgroup.from_rows(ambient, rows)


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
    basis = outer.basis
    coeffs = [_coords_in_triangular_basis(basis, row) for row in inner.basis]
    return _invariants_of_cokernel(coeffs)


class BlockSequence:
    """Blocks ``prefix`` followed by ``period`` repeated forever, indexed by
    N, or by Z when ``index_set`` is "Z" (the prefix then empty).

    A window [lo, hi) lays the blocks lo..hi-1 out one after another in one
    flat coordinate vector, and ``window_layout`` gives that layout once per
    window.  Block elements ({block index: coordinate tuple}) go to and from
    a window's coordinates through ``coords`` and ``elem_of`` only.  The
    subclasses are frozen dataclasses with ``prefix`` and ``period`` fields
    that set ``_layouts`` to an empty dict.
    """

    index_set = "N"

    def block(self, i: int):
        k = len(self.prefix)
        if i < k:
            if i >= 0:
                return self.prefix[i]
            if self.index_set == "N":
                raise DimensionError(f"negative block index {i}")
        return self.period[(i - k) % len(self.period)]

    def valid_index(self, i: int) -> bool:
        return self.index_set == "Z" or i >= 0

    def window_layout(self, lo: int, hi: int) -> tuple[FiniteAbelianGroup, tuple[int, ...]]:
        """(window group, coordinate starts) of the blocks lo..hi-1: block i
        takes the coordinates from starts[i - lo] on.  Computed once per
        window, the blocks being fixed; abelian blocks only."""
        layout = self._layouts.get((lo, hi))
        if layout is None:
            starts = [0]
            moduli: list[int] = []
            for i in range(lo, hi):
                moduli.extend(self.block(i).moduli)
                starts.append(len(moduli))
            layout = self._layouts[lo, hi] = (FiniteAbelianGroup(tuple(moduli)), tuple(starts))
        return layout

    def coords(self, elem: dict, lo: int, hi: int) -> dict[int, int]:
        """The {coordinate: value} map of the nonzero entries of the block
        element ``elem`` on the window [lo, hi); other blocks are left out."""
        _, starts = self.window_layout(lo, hi)
        return {
            t: c
            for i, vec in elem.items()
            if lo <= i < hi
            for t, c in enumerate(vec, starts[i - lo])
            if c
        }

    def elem_of(self, vec, lo: int, hi: int) -> dict:
        """The reduced block element of a vector on the window [lo, hi),
        dense or a {coordinate: value} map."""
        wg, starts = self.window_layout(lo, hi)
        if isinstance(vec, dict):
            vec = [vec.get(t, 0) for t in range(wg.rank)]
        wg.check_vector(vec)
        out = {}
        for i in range(lo, hi):
            piece = self.block(i).reduce(vec[starts[i - lo] : starts[i + 1 - lo]])
            if any(piece):
                out[i] = piece
        return out

    def project(self, core: AbSubgroup, window, sub_window) -> AbSubgroup:
        """The image of ``core``, a subgroup of the group of ``window``, in
        the group of ``sub_window`` inside it, read off its HNF rows."""
        (lo, hi), (slo, shi) = window, sub_window
        _, starts = self.window_layout(lo, hi)
        a, b = starts[slo - lo], starts[shi - lo]
        rows = [{t - a: x for t, x in row.items() if a <= t < b} for row in core.hnf_rows()]
        return canonical_subgroup(self.window_layout(slo, shi)[0], rows)


class Band:
    """A banded map of a ``BlockSequence`` of abelian blocks into itself.

    rows[r] lists (offset, matrix) terms: output block i (with
    i = r mod period) receives matrix * x_{i+offset}, the matrix mapping
    block(i+offset) into block(i); ``prefix_rows`` replace the rows of the
    first blocks of an N-indexed sequence.  Offsets lie in
    [offset, offset + width), and terms whose input block is outside the
    index set are dropped.  Construction checks the shapes, and that the
    map is well defined, on the rows [0, P + L): from row P on, a row's
    terms, its target block and its source blocks repeat with
    L = lcm(period, block period).
    """

    __slots__ = ("parent", "offset", "width", "period", "rows", "prefix_rows")

    def __init__(
        self, parent: BlockSequence, offset: int, width: int, period: int, rows,
        prefix_rows=(),
    ):
        if width < 1 or period < 1:
            raise ValidationError("band width and period must be positive")
        if prefix_rows and parent.index_set != "N":
            raise ValidationError("prefix rows only make sense over N")

        def norm(res):
            return tuple((int(o), tuple(tuple(map(int, r)) for r in mat)) for o, mat in res)

        self.parent = parent
        self.offset = int(offset)
        self.width = int(width)
        self.period = int(period)
        self.rows = tuple(norm(res) for res in rows)
        self.prefix_rows = tuple(norm(res) for res in prefix_rows)
        if len(self.rows) != period:
            raise ValidationError("rows must cover one full period")
        self._validate()

    def row_terms(self, i: int):
        if 0 <= i < len(self.prefix_rows):
            return self.prefix_rows[i]
        return self.rows[i % self.period]

    def _validate(self) -> None:
        g = self.parent
        lo_o, hi_o = self.offset, self.offset + self.width
        # P: the first row past the prefix rows whose target and sources
        # all lie in the periodic blocks
        first = max(len(self.prefix_rows), len(g.prefix) - min(lo_o, 0))
        for i in range(first + lcm(self.period, len(g.period))):
            tgt = g.block(i)
            seen = set()
            for o, mat in self.row_terms(i):
                j = i + o
                if not (lo_o <= o < hi_o):
                    raise ValidationError(
                        f"block {i} reads block {j}: offset {o} is outside the band "
                        f"[{lo_o}, {hi_o})"
                    )
                if o in seen:
                    raise ValidationError(f"block {i} reads block {j} through two terms")
                seen.add(o)
                if not g.valid_index(j):
                    continue
                src = g.block(j)
                if list(map(len, mat)) != [src.rank] * tgt.rank:
                    raise ValidationError(
                        f"the matrix by which block {i} reads block {j} is not "
                        f"{tgt.rank}x{src.rank}"
                    )
                for u, (row, du) in enumerate(zip(mat, tgt.moduli)):
                    for v, (c, d) in enumerate(zip(row, src.moduli)):
                        if (d * c) % du:
                            raise ValidationError(
                                f"ill-defined map: generator {v} of block {j} (order {d}) "
                                f"maps to coordinate {u} of block {i}: {d}*{c} != 0 mod {du}"
                            )

    def apply(self, elem: dict) -> dict:
        """Image of a finite-support element."""
        g = self.parent
        out: dict = {}
        targets = set()
        for i in elem:
            for o in range(self.offset, self.offset + self.width):
                j = i - o
                if g.valid_index(j):
                    targets.add(j)
        for j in targets:
            tgt = g.block(j)
            acc = [0] * tgt.rank
            hit = False
            for o, mat in self.row_terms(j):
                src_i = j + o
                if src_i in elem:
                    vec = elem[src_i]
                    for u in range(tgt.rank):
                        acc[u] += sum(m * x for m, x in zip(mat[u], vec))
                    hit = True
            if hit:
                red = tgt.reduce(acc)
                if any(red):
                    out[j] = red
        return out

    def band_columns(self, rows, lo: int, hi: int):
        """(columns, source group, target group) of the output rows ``rows``
        read on the source window [lo, hi), each column of the map a
        {target coordinate: value} map of its nonzero entries.

        The target stacks the blocks of ``rows`` in the given order; terms
        whose source coordinate lies outside the window are left out, and
        the entries are not reduced.  Offsets in a row are distinct, so each
        entry comes from one term.
        """
        g = self.parent
        src_g, starts = g.window_layout(lo, hi)
        cols: list[dict[int, int]] = [{} for _ in range(src_g.rank)]
        tgt_mods: list[int] = []
        for i in rows:
            at = len(tgt_mods)
            for o, m in self.row_terms(i):
                if lo <= i + o < hi:
                    ss = starts[i + o - lo]
                    for u, m_row in enumerate(m, at):
                        for v, x in enumerate(m_row, ss):
                            if x:
                                cols[v][u] = x
            tgt_mods.extend(g.block(i).moduli)
        return cols, src_g, FiniteAbelianGroup(tuple(tgt_mods))


@dataclass(frozen=True)
class Hom:
    """Homomorphism between finite abelian groups, f(x) = M x.

    ``columns`` holds the images of the unit vectors, column j as a
    {target coordinate: value} map of its nonzero entries reduced modulo
    the target; ``matrix`` is the dense view (target.rank rows, source.rank
    columns).  Constructed through hom_validate, which certifies
    well-definedness.
    """

    source: FiniteAbelianGroup
    target: FiniteAbelianGroup
    columns: tuple[dict[int, int], ...]

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(col.get(i, 0) for col in self.columns) for i in range(self.target.rank)
        )

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def _combine(self, coeffs) -> dict[int, int]:
        """sum_j coeffs[j] * column j, for a {j: coefficient} map, unreduced."""
        out: dict[int, int] = {}
        cols = self.columns
        for j, c in coeffs.items():
            for i, m in cols[j].items():
                out[i] = out.get(i, 0) + c * m
        return out

    def apply(self, vec) -> tuple[int, ...]:
        self.source.check_vector(vec)
        out = [0] * self.target.rank
        for i, x in self._combine({j: x for j, x in enumerate(vec) if x}).items():
            out[i] = x
        return self.target.reduce(out)

    def kernel(self) -> AbSubgroup:
        return self.preimage(self.target.trivial_subgroup())

    def image(self, sub: AbSubgroup | None = None) -> AbSubgroup:
        if sub is None:
            # f(A) is spanned by the images of the unit vectors: the columns.
            return canonical_subgroup(self.target, self.columns)
        if sub.ambient != self.source:
            raise AmbientMismatchError("image of subgroup from a different group")
        return canonical_subgroup(self.target, [self._combine(r) for r in sub.hnf_rows()])

    def preimage(self, sub: AbSubgroup) -> AbSubgroup:
        if sub.ambient != self.target:
            raise AmbientMismatchError("preimage of subgroup from a different group")
        return sub._pull_back(self.columns, self.source)

    def apply_map(self, coeffs: dict) -> dict[int, int]:
        """f(x) for x given as a {coordinate: value} map, as the map of the
        nonzero entries of the reduced image."""
        mods = self.target.moduli
        out = {}
        for i, x in self._combine(coeffs).items():
            x %= mods[i]
            if x:
                out[i] = x
        return out

    def compose(self, inner: "Hom") -> "Hom":
        """self o inner."""
        if inner.target != self.source:
            raise AmbientMismatchError("composition type mismatch")
        return Hom(inner.source, self.target, tuple(map(self.apply_map, inner.columns)))


def hom_validate(matrix, source: FiniteAbelianGroup, target: FiniteAbelianGroup) -> Hom:
    """Validate well-definedness: d_j^src * M e_j must die in the target.

    ``matrix`` is dense, target.rank rows of source.rank entries, or the
    sequence of source.rank columns as {target coordinate: value} maps.
    """
    matrix = list(matrix)
    if all(isinstance(col, dict) for col in matrix) and (matrix or not source.rank):
        cols = matrix
        if len(cols) != source.rank or any(
            col and (min(col) < 0 or max(col) >= target.rank) for col in cols
        ):
            raise DimensionError(
                f"{len(cols)} columns for map rank {source.rank} -> rank {target.rank}"
            )
    else:
        rows = [tuple(map(int, r)) for r in matrix]
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise DimensionError(
                f"matrix {len(rows)}x{len(rows[0]) if rows else 0} for map "
                f"rank {source.rank} -> rank {target.rank}"
            )
        cols = [{i: x for i, x in enumerate(col) if x} for col in zip(*rows)] or [{}] * source.rank
    src, tgt = source.moduli, target.moduli
    reduced = []
    for j, col in enumerate(cols):
        dj = src[j]
        out = {}
        for i, x in col.items():
            if (dj * x) % tgt[i]:
                # a zero entry always passes; name the first failure in
                # column-major order
                bad = min(t for t, y in col.items() if (dj * y) % tgt[t])
                raise ValidationError(
                    f"ill-defined map: generator {j} of order {dj} maps to a "
                    f"vector with coordinate {bad} = {col[bad]} mod {tgt[bad]}"
                )
            x %= tgt[i]
            if x:
                out[i] = x
        reduced.append(out)
    return Hom(source, target, tuple(reduced))


def identity_hom(group: FiniteAbelianGroup) -> Hom:
    return hom_validate([{j: 1} for j in range(group.rank)], group, group)


def zero_hom(source: FiniteAbelianGroup, target: FiniteAbelianGroup) -> Hom:
    return hom_validate([{}] * source.rank, source, target)
