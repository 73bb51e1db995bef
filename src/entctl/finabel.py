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
The pull-back of S x T under x -> (f(x), g(x)), T <= B, gives [B : T +
g(f^-1(S))] too, as the pivot product on T's coordinates.  No S x T is
built: ``factor_positions`` re-keys S's and T's rows onto W, and a chain
step writes its image rows there itself for ``joined_pull_back``.

A sum H + <rows> is the echelon basis H holds with the rows added.
``AbSubgroup.sum_with`` normalises it; ``span_index`` reads only
[A : H + <rows>] off its pivots, for callers that compare no subgroups.

``BlockSequence`` is the block rule and window layout shared by restricted
sums and full products of blocks; its ``coords`` and ``elem_of`` are the one
place where block elements meet window coordinates.  ``Band`` is the one band
rule over it: the row-finite maps of products are bands, and maps given by
generator images (the abelian banded maps of restricted sums, the inverses
``depth.invert`` solves for) become one through ``image_rows``.  A band
checks and reduces each entry once, at construction; every window map is
built from those entries (``Band.band_map``) and not checked again.
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

    def elements(self):
        """Iterate all elements; intended for small groups only."""
        return itertools.product(*(range(d) for d in self.moduli))

    def relation_rows(self) -> list[list[int]]:
        return [[d if t == i else 0 for t in range(self.rank)] for i, d in enumerate(self.moduli)]

    def relation_lattice(self) -> ZLattice:
        return ZLattice(self.rank, moduli=self.moduli)

    def subgroup(self, gens) -> "AbSubgroup":
        return canonical_subgroup(self, gens)

    def trivial_subgroup(self) -> "AbSubgroup":
        # the HNF of the relation lattice: the rows d_j e_j with d_j > 1
        return AbSubgroup.from_rows(self, {j: {j: d} for j, d in enumerate(self.moduli) if d > 1})

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
            # a row, and sum_with copies the lattice before adding to it; a
            # unit row e_j is the implicit row of modulus 1 of column j
            rows = self.rows
            mods = [m if j in rows else 1 for j, m in enumerate(self.ambient.moduli)]
            self._lat = ZLattice.from_echelon(self.ambient.rank, rows, mods)
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
        return [g for row in self.basis if any(g := self.ambient.reduce(row))]

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
        return _normalized(self.ambient, _spanned(self, other.hnf_rows()))

    def intersect_with(self, other: "AbSubgroup") -> "AbSubgroup":
        if other.ambient != self.ambient:
            raise AmbientMismatchError("subgroup intersection across ambient groups")
        # eliminate on the side with fewer constrained coordinates
        if len(other.rows) < len(self.rows):
            self, other = other, self
        rows = other.hnf_rows()
        return stacked_pull_back((self,), rows, self.ambient, rows)

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
    s = smith_normal_form(rows)
    return tuple(s[i][i] for i in range(len(s)) if s[i][i] != 1)


def canonical_subgroup(ambient: FiniteAbelianGroup, gens) -> AbSubgroup:
    """Subgroup generated by ``gens`` (vectors, or {coordinate: value} maps),
    in canonical form."""
    lat = ambient.relation_lattice()
    for g in gens:
        if not isinstance(g, dict):
            ambient.check_vector(g)
        lat.add(g)
    return _normalized(ambient, lat)


def echelon_subgroup(ambient: FiniteAbelianGroup, rows: dict, moduli) -> AbSubgroup:
    """Subgroup with the echelon rows ``{pivot: {column: value}}``, which it
    takes over, and the implicit rows m_j e_j of ``moduli`` at the other
    pivots (``ZLattice.from_echelon``), relations included."""
    return _normalized(ambient, ZLattice.from_echelon(ambient.rank, rows, moduli))


def stacked_pull_back(factors, images, ambient, payload=None):
    """{sum_i c_i payload[i] : sum_i c_i images[i] in S_1 x ... x S_k} in
    ``ambient``, for the subgroups ``factors`` S_1, ..., S_k with their
    coordinates laid out one after another, eliminating on the constrained
    coordinates W of the product.

    ``images`` are maps on the product's coordinates and ``payload`` maps
    on ``ambient``'s (unit rows by default), reduced as subgroup rows and
    window-map columns are.  Each image is re-keyed onto W in one pass and
    the rows are eliminated by ``joined_pull_back``.
    """
    pos, relation = factor_positions(factors)
    on_w = [{pos[t]: x for t, x in image.items() if t in pos} for image in images]
    return joined_pull_back(on_w, relation, ambient, payload)


def factor_positions(factors):
    """(pos, relation): the position in W of each constrained coordinate of
    the product of ``factors`` (keyed by product coordinate, in pivot order),
    and (the factors' stored rows re-keyed onto W, their moduli)."""
    pos, rel_rows, rel_moduli, at = {}, {}, [], 0
    for sub in factors:
        w = {j: len(pos) + i for i, j in enumerate(sorted(sub.rows))}
        for j, k in w.items():
            pos[at + j] = k
            rel_rows[k] = {w[t]: x for t, x in sub.rows[j].items()}
            rel_moduli.append(sub.ambient.moduli[j])
        at += sub.ambient.rank
    return pos, (rel_rows, rel_moduli)


def joined_pull_back(rows, relation, ambient, payload=None, cut=None):
    """The elimination of ``stacked_pull_back`` for fresh image maps ``rows``,
    one per coordinate of ``ambient``, keyed by position in W against the
    ``relation`` of ``factor_positions``; with ``cut``, (the subgroup, the
    pivot product on the W positions from ``cut`` on).  Each row (image on
    W | payload shifted by |W|) is joined in place for ``congruence_kernel``;
    a unit payload row e_j with image 0 on W is in the result, as the
    implicit row of modulus 1 of column j.

    Long relation rows are eliminated last: one with more entries than the
    longest joined row leaves the starting lattice for its modulus row
    m_p e_p and is added after the map rows with an empty payload.  Met
    first, it would pass its entries on to every map row eliminated against
    it (on (Z/2)^n, {x_0 = ... = x_n} has the row (1, ..., 1)); met last, it
    is reduced once.  The lattice, so the normal form and the pivot product,
    is the same.
    """
    rel_rows, rel_moduli = relation
    width = len(rel_moduli)
    moduli = list(ambient.moduli)
    joined = []
    for j, row in enumerate(rows):
        if payload is None or payload[j] == {j: 1}:
            if not row:
                moduli[j] = 1
                continue
            if moduli[j] > 1:
                row[width + j] = 1
        else:
            for t, x in payload[j].items():
                row[width + t] = x
        joined.append(row)
    # Exact although the stored rows may lack some m_t e_t until the long
    # rows come: a step at a pivot q >= t changes the span of the rows
    # with pivots >= t only by multiples of the m_s e_s with s > t, so
    # each relation row, and each m_t e_t as their combination, ends in
    # the finished basis up to those; from the last column down, the
    # basis holds every m_t e_t.
    if joined and rel_rows:
        longest = max(map(len, joined))
        if max(map(len, rel_rows.values())) > longest:
            for p, rel in rel_rows.items():
                if len(rel) > longest:
                    rel_rows[p] = {p: rel_moduli[p]}
                    joined.append(rel)
    lattice = ZLattice.from_echelon(width, rel_rows, rel_moduli)
    if cut is None:
        return echelon_subgroup(ambient, congruence_kernel(joined, width, lattice, moduli), moduli)
    kernel, index = congruence_kernel(joined, width, lattice, moduli, range(cut, width))
    return echelon_subgroup(ambient, kernel, moduli), index


def _spanned(sub: AbSubgroup, rows) -> ZLattice:
    """An echelon basis of the lattice of sub + <rows>, relations included:
    a copy of the lattice that ``sub`` holds, with ``rows`` added."""
    lat = sub._lattice().copy()
    for row in rows:
        lat.add(row)
    return lat


def span_index(sub: AbSubgroup, rows) -> int:
    """[A : sub + <rows>] for vectors or {coordinate: value} maps ``rows``.

    The pivot product of any echelon basis of a full-rank lattice that
    contains the relations is its index, so no normal form is built.
    """
    return _spanned(sub, rows).pivot_product()


def _normalized(ambient: FiniteAbelianGroup, lat: ZLattice) -> AbSubgroup:
    """The subgroup of a full-rank lattice that contains the relations,
    read off its HNF; the lattice's rows are taken over, not copied."""
    lat.normalize()
    return AbSubgroup.from_rows(ambient, lat.nonunit_rows())


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
    flat coordinate vector, and ``window_layout`` gives that layout, kept
    once per window shape.  Block elements ({block index: coordinate
    tuple}) go to and from a window's coordinates through ``coords`` and
    ``elem_of`` only.  The
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
        takes the coordinates from starts[i - lo] on; abelian blocks only.
        One layout is kept per window shape: past the prefix (everywhere
        over Z) a window's blocks are fixed by its width and its first
        block's residue modulo the block period, so it is shifted by whole
        periods to start in [len(prefix), len(prefix) + period)."""
        k, per = len(self.prefix), len(self.period)
        if lo >= k or self.index_set == "Z":
            shift = lo - k - (lo - k) % per
            lo, hi = lo - shift, hi - shift
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


def repeat_point(blocks: BlockSequence, offset: int, period: int, prefix_rows: int = 0):
    """(P, L) of a banded map of ``blocks`` with ``period`` rows after
    ``prefix_rows`` prefix rows, whose row i reaches the blocks i + o for
    offsets o >= ``offset``: from row P on, a row's terms, its own block and
    the blocks it reaches repeat with L = lcm(period, block period).  Over N
    the rows that reach the prefix blocks or below 0 come before P."""
    first = len(blocks.prefix) - min(offset, 0) if blocks.index_set == "N" else 0
    return max(prefix_rows, first), lcm(period, len(blocks.period))


def image_rows(period: int, images) -> list[list]:
    """The band rows of a map given by its generator images: images[s][j]
    lists the (o, vec) terms of the image of generator j of the blocks
    i = s mod ``period``, vec placed at block i + o.  Output block t reads
    block t - o through the term at offset -o of row t mod ``period``,
    whose column j sums generator j's image terms at offset o."""
    rows: list[dict] = [{} for _ in range(period)]
    for s, res in enumerate(images):
        for j, terms in enumerate(res):
            for o, vec in terms:
                mat = rows[(s + o) % period].setdefault(-o, [[0] * len(res) for _ in vec])
                if len(vec) != len(mat):
                    raise ValidationError(
                        f"image terms at offset {o} from the blocks {s} mod {period} "
                        f"differ in length"
                    )
                for row, c in zip(mat, vec):
                    row[j] += c
    return [sorted(row.items()) for row in rows]


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
    L = lcm(period, block period) (``repeat``); it keeps the reduced entries
    (``row_entries``), and maps of windows are read off them unchecked.
    """

    __slots__ = ("parent", "offset", "width", "period", "rows", "prefix_rows", "_repeat", "_entries")

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

    def repeat(self) -> tuple[int, int]:
        """(P, L): P is the first row past the prefix rows whose target and
        sources all lie in the periodic blocks, and from it on the rows
        repeat with period L."""
        return repeat_point(self.parent, self.offset, self.period, len(self.prefix_rows))

    def row_entries(self, i: int):
        """Row i's terms with a source in the index set, i < 0 too over Z, as
        (o, ((v, u, x), ...)): coordinate v of block i + o enters coordinate
        u of block i by x, reduced and nonzero (a term may have none)."""
        p, l = self._repeat
        return self._entries[i if 0 <= i < p else p + (i - p) % l]

    def _validate(self) -> None:
        g = self.parent
        lo_o, hi_o = self.offset, self.offset + self.width
        self._repeat = self.repeat()
        entries = self._entries = []
        for i in range(sum(self._repeat)):
            tgt = g.block(i)
            seen = set()
            terms = []
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
                term = []
                for u, (row, du) in enumerate(zip(mat, tgt.moduli)):
                    for v, (c, d) in enumerate(zip(row, src.moduli)):
                        if (d * c) % du:
                            raise ValidationError(
                                f"ill-defined map: generator {v} of block {j} (order {d}) "
                                f"maps to coordinate {u} of block {i}: {d}*{c} != 0 mod {du}"
                            )
                        c %= du
                        if c:
                            term.append((v, u, c))
                terms.append((o, tuple(term)))
            entries.append(tuple(terms))

    def apply(self, elem: dict) -> dict:
        """Image of a finite-support element, accumulated from ``row_entries``."""
        g = self.parent
        out: dict = {}
        offsets = range(self.offset, self.offset + self.width)
        for j in {i - o for i in elem for o in offsets if g.valid_index(i - o)}:
            tgt = g.block(j)
            acc = [0] * tgt.rank
            for o, term in self.row_entries(j):
                vec = elem.get(j + o)
                if vec is not None:
                    for v, u, x in term:
                        acc[u] += x * vec[v]
            red = tgt.reduce(acc)
            if any(red):
                out[j] = red
        return out

    def band_map(self, rows, lo: int, hi: int) -> "Hom":
        """The map of the output rows ``rows`` read on the source window
        [lo, hi), into the blocks of ``rows`` stacked in the given order,
        built from ``row_entries``: terms whose source block lies outside
        the window are left out, and offsets in a row are distinct, so each
        entry comes from one term.  For a range of rows the target group is
        that window's, from ``window_layout``."""
        g = self.parent
        src_g, starts = g.window_layout(lo, hi)
        if isinstance(rows, range):
            tgt, at = g.window_layout(rows.start, rows.stop)
        else:
            mods = [g.block(i).moduli for i in rows]
            tgt = FiniteAbelianGroup(tuple(itertools.chain.from_iterable(mods)))
            at = itertools.accumulate(map(len, mods), initial=0)
        cols: list[dict[int, int]] = [{} for _ in range(src_g.rank)]
        for i, a in zip(rows, at):
            for o, term in self.row_entries(i):
                if lo <= i + o < hi:
                    ss = starts[i + o - lo]
                    for v, u, x in term:
                        cols[ss + v][a + u] = x
        return Hom(src_g, tgt, tuple(cols))


@dataclass(frozen=True)
class Hom:
    """Homomorphism between finite abelian groups, f(x) = M x.

    ``columns`` holds the images of the unit vectors, column j as a
    {target coordinate: value} map of its nonzero entries reduced modulo
    the target; ``matrix`` is the dense view (target.rank rows, source.rank
    columns).  Well-definedness is certified by ``hom_validate``, or for a
    ``Band.band_map`` by the band's construction, with the same rule.
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
        return stacked_pull_back((sub,), self.columns, self.source)

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
