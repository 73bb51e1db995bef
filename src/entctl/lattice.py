"""Exact integer lattice arithmetic.

Row lattices over Z kept in Hermite echelon form, congruence kernels, and
the diagonal of the Smith normal form (invariant factors; the unimodular
transforms are not kept).  All arithmetic is arbitrary-precision integer
arithmetic; nothing here ever rounds.

Lattice rows are stored sparse, as {column: value} maps of their nonzero
entries, so an elimination step costs the entries it touches rather than
the lattice width; rows may be passed in dense or as such maps, and the
dense views ``rows``, ``pivots`` and ``basis()`` are built on demand.  The
rows m_j e_j of declared moduli are implicit until a row lands on column
j, as the modulus rows of modular Hermite form algorithms are
(Domich-Kannan-Trotter 1987): nothing is seeded, and the combination with
such a one-entry row is one pass over the new row.  The arithmetic is the
textbook dense elimination's with every m_j e_j stored, step for step, so
the raw echelon rows are the same as a dense implementation's.  The maps are
the currency of the layers above too: ``row_maps`` hands them out uncopied and
``from_echelon`` takes them over, so a subgroup's rows go from the
elimination into ``finabel`` without a dense detour.

``congruence_kernel`` is the one elimination behind intersections, preimages,
annihilators and kernel orders, as in Zassenhaus's intersection algorithm.
The caller joins each (image | payload) row in the elimination's own
columns, once: ``stacked_pull_back`` as it re-keys its images, the callers
that hold the halves apart through ``joined_rows``.  The kernel comes back
as ``{pivot: row}`` maps with its implicit rows left implicit, or, for a
reader of orders only, as the pivot product over its columns, read in
place.  ``normalize`` is needed only for a canonical form: ``pivot_product``
reads the index of a full-rank lattice off any of its echelon bases.
"""

from __future__ import annotations

from itertools import compress
from math import prod


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    g0, g1 = a, b
    while g1:
        q = g0 // g1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
        g0, g1 = g1, g0 - q * g1
    if g0 < 0:
        return -g0, -x0, -y0
    return g0, x0, y0


class ZLattice:
    """Mutable integer row lattice in echelon form, stored sparse.

    Each row is kept as a ``{column: value}`` map of its nonzero entries,
    keyed by its pivot column, so an elimination step costs the nonzeros it
    touches, not the width.  Pivots are positive, so membership tests are a
    single back-substitution pass.  ``normalize`` additionally reduces the
    entries above each pivot, after which ``basis`` is the unique Hermite
    normal form of the lattice and can be compared directly.  ``rows``,
    ``pivots`` and ``basis()`` are dense read-only views in pivot order.

    ``moduli`` optionally declares per-column integers m_j whose multiples
    m_j * e_j belong to the lattice (0 disables a column).  They let every
    elimination step reduce entries coordinatewise, which keeps all
    intermediate integers small.  The row m_j e_j is implicit: it is the
    row at pivot j while no row is stored there, so declaring moduli
    stores nothing, and a row that lands on column j combines with it in
    one pass over its own entries.  The views and ``pivot_product`` count
    the implicit rows, so the lattice and its echelon rows are those of
    the same elimination with every m_j e_j stored from the start.
    """

    __slots__ = ("width", "moduli", "_rows")

    def __init__(self, width: int, moduli=None):
        self.width = width
        self._rows: dict[int, dict[int, int]] = {}
        self.moduli: list[int] | None = None
        if moduli is not None:
            self.moduli = [int(m) for m in moduli]
            if len(self.moduli) != width:
                raise ValueError("moduli length must match width")

    @classmethod
    def from_echelon(cls, width: int, rows: dict, moduli=None) -> "ZLattice":
        """The lattice with the echelon rows ``{pivot: {column: value}}``.

        The maps become the lattice's own, unchecked and uncopied: each must
        have its least column at its pivot, a positive entry there, no zero
        entries and columns below ``width``; a column of nonzero modulus
        with no map has the implicit row m_j e_j.  ``normalize`` changes rows in
        place, so a caller that keeps the maps must ``copy`` first.
        """
        lat = cls(width)
        lat._rows = rows
        lat.moduli = list(moduli) if moduli is not None else None
        return lat

    def copy(self) -> "ZLattice":
        lat = ZLattice(self.width)
        lat._rows = {p: dict(r) for p, r in self._rows.items()}
        lat.moduli = list(self.moduli) if self.moduli is not None else None
        return lat

    def _implicit(self) -> dict[int, int]:
        """{j: m_j} for the columns whose row is the implicit m_j e_j."""
        rows, mods = self._rows, self.moduli
        if not mods or len(rows) == self.width:
            return {}
        return {j: m for j, m in enumerate(mods) if m and j not in rows}

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows.keys() | self._implicit().keys())

    @property
    def rows(self) -> list[list[int]]:
        return [_dense(r, self.width) for r in self.row_maps().values()]

    def row_maps(self) -> dict[int, dict[int, int]]:
        """The rows as ``{pivot: {column: value}}`` in pivot order: the
        lattice's own maps, not copies, so callers must not change them,
        and a fresh {j: m_j} for each implicit row."""
        rows = {j: {j: m} for j, m in self._implicit().items()}
        rows.update(self._rows)
        return {p: rows[p] for p in sorted(rows)}

    def stored_rows(self) -> dict[int, dict[int, int]]:
        """The stored rows ``{pivot: row}``, implicit ones left out; not copies."""
        return self._rows

    def nonunit_rows(self) -> dict[int, dict[int, int]]:
        """``row_maps`` without the unit rows e_j, and with no map built for
        an implicit one (modulus 1)."""
        rows = self._rows
        out = {p: r for p, r in rows.items() if len(r) > 1 or r[p] != 1}
        out.update((j, {j: m}) for j, m in enumerate(self.moduli or ()) if m > 1 and j not in rows)
        return dict(sorted(out.items()))

    def _entries(self, vec) -> dict[int, int]:
        """A fresh sparse copy of ``vec``, reduced modulo the moduli."""
        mods = self.moduli
        v = {}
        for t, x in _pairs(vec, self.width):
            if mods and mods[t]:
                x %= mods[t]
            if x:
                v[t] = x
        return v

    def add(self, vec, fresh: bool = False) -> bool:
        """Add a row, dense or a {column: value} map; return True if the
        lattice grew.

        With ``fresh``, ``vec`` is a map that nobody else holds, with its
        columns checked and its entries reduced modulo the moduli (as
        ``joined_rows`` and ``finabel.stacked_pull_back`` build them): the
        lattice takes it over as it is.

        Against a row with one entry, p e_j (the implicit m_j e_j among
        them), the unimodular step below is (g e_j + y v', (p/g) v') for
        v' the entries of v right of j: one pass over v.
        """
        v = vec if fresh else self._entries(vec)
        rows, mods = self._rows, self.moduli
        changed = False
        while v:
            j = min(v)
            row = rows.get(j)
            if row is None:
                p = mods[j] if mods else 0
                if not p:
                    if v[j] < 0:
                        v, negated = {}, v
                        _add_multiple(v, -1, negated, j, mods)
                    rows[j] = v
                    return True
            else:
                p = row[j]
            a = v[j]
            if a % p == 0:
                _add_multiple(v, -(a // p), row or {j: p}, j, mods)
            elif row is None or len(row) == 1:
                g, _, y = xgcd(p, a)
                pg = p // g
                new_row, new_v = {j: g}, {}
                del v[j]
                for t, s in v.items():
                    r, s = y * s, pg * s
                    if mods is not None and mods[t]:
                        r %= mods[t]
                        s %= mods[t]
                    if r:
                        new_row[t] = r
                    if s:
                        new_v[t] = s
                rows[j] = new_row
                v = new_v
                changed = True
            else:
                # (row, v) <- (x row + y v, (p/g) v - (a/g) row), unimodular
                g, x, y = xgcd(p, a)
                pg, ag = p // g, a // g
                new_row, new_v = {}, {}
                for t in row.keys() | v.keys():
                    r, s = row.get(t, 0), v.get(t, 0)
                    r, s = x * r + y * s, pg * s - ag * r
                    if t > j and mods is not None and mods[t]:
                        r %= mods[t]
                        s %= mods[t]
                    if r:
                        new_row[t] = r
                    if s:
                        new_v[t] = s
                rows[j] = new_row
                v = new_v
                changed = True
        return changed

    def contains(self, vec) -> bool:
        v = self._entries(vec)
        rows, mods = self._rows, self.moduli
        while v:
            j = min(v)
            row = rows.get(j)
            if row is None or v[j] % row[j]:
                return False
            _add_multiple(v, -(v[j] // row[j]), row, j, mods)
        return True

    def extend(self, new_width: int, new_moduli=None) -> None:
        """Add zero columns on the right (sparse rows need no padding)."""
        if new_width < self.width:
            raise ValueError("lattices only grow")
        delta = new_width - self.width
        if delta:
            self.width = new_width
            if self.moduli is not None:
                if new_moduli is None or len(new_moduli) != delta:
                    raise ValueError("extension of a reduced lattice needs new moduli")
                self.moduli.extend(int(m) for m in new_moduli)

    def normalize(self) -> None:
        """Reduce entries above each pivot into [0, pivot)."""
        rows, implicit = self._rows, self._implicit()
        pivots = sorted(rows.keys() | implicit.keys() if implicit else rows)
        for i, p in enumerate(pivots):
            row_r = rows.get(p)
            if row_r is None or len(row_r) == 1:
                continue
            # a step at pivot j changes only columns >= j, so one pass over
            # the later pivots in increasing order meets each of them once
            for j in pivots[i + 1 :]:
                x = row_r.get(j)
                if x is not None:
                    row_s = rows.get(j) or {j: implicit[j]}
                    q = x // row_s[j]
                    if q:
                        _add_multiple(row_r, -q, row_s, j, None)

    def basis(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.rows))

    def pivot_product(self) -> int:
        """Product of the pivots; for a full-rank lattice this is [Z^k : L]."""
        return prod(r[p] for p, r in self._rows.items()) * prod(self._implicit().values())


def _pairs(vec, width: int):
    """The (column, value) pairs of the nonzero entries of a row, dense or a
    map, its columns checked against ``width``."""
    if isinstance(vec, dict):
        if vec and (min(vec) < 0 or max(vec) >= width):
            raise ValueError(f"row with columns outside [0, {width})")
        return vec.items()
    if len(vec) != width:
        raise ValueError(f"row of width {len(vec)}, expected {width}")
    return zip(compress(range(width), vec), filter(None, vec))


def _joined(left, left_width: int, right, right_width: int, mods) -> dict[int, int]:
    """The fresh map (left | right) of two rows, dense or maps, built in one
    pass over their entries: the right row's columns shifted by
    ``left_width``, each entry reduced modulo ``mods[t]`` where that is not 0.
    A column index ``right`` stands for the unit row e_right."""
    row = {}
    for t, x in _pairs(left, left_width):
        if mods[t]:
            x %= mods[t]
        if x:
            row[t] = x
    if isinstance(right, int):
        if not 0 <= right < right_width:
            raise ValueError(f"row with columns outside [0, {right_width})")
        right = ((right, 1),)
    else:
        right = _pairs(right, right_width)
    for t, x in right:
        t += left_width
        if mods[t]:
            x %= mods[t]
        if x:
            row[t] = x
    return row


def joined_rows(map_rows, image_width, relation: "ZLattice", payload_moduli=None, payload=None):
    """The rows (image | payload) that ``congruence_kernel`` takes, joined by
    ``_joined`` for callers that hold images and payloads apart, dense or
    maps; the payload defaults to the unit rows, and payload moduli are read
    only when ``relation`` declares moduli."""
    width = len(payload_moduli) if payload_moduli is not None else len(map_rows)
    if relation.moduli is None:
        mods = [0] * (image_width + width)
    else:
        mods = [*relation.moduli, *(payload_moduli if payload_moduli is not None else [0] * width)]
    return [
        _joined(mrow, image_width, payload[i] if payload is not None else i, width, mods)
        for i, mrow in enumerate(map_rows)
    ]


def _dense(row: dict[int, int], width: int) -> list[int]:
    """The dense row of width ``width`` of a map."""
    out = [0] * width
    for t, x in row.items():
        out[t] = x
    return out


def _add_multiple(v: dict[int, int], c: int, row: dict[int, int], j: int, mods) -> None:
    """v += c * row in place, over row's entries only; those right of column
    j are reduced modulo ``mods`` (when given), and zeros are dropped."""
    for t, r in row.items():
        x = v.get(t, 0) + c * r
        if x and t > j and mods is not None and mods[t]:
            x %= mods[t]
        if x:
            v[t] = x
        else:
            v.pop(t, None)


def congruence_kernel(map_rows, image_width, relation: ZLattice, payload_moduli=None, section=None):
    """Echelon basis of {c : sum_i c_i image_i in ``relation``}, read on the
    payload, plus the m_j e_j of ``payload_moduli`` (0 to skip; its length is
    the payload width, by default the number of rows).

    ``map_rows`` are fresh maps (image | payload), the payload shifted by
    ``image_width`` and every entry reduced (``joined_rows``, or written by
    ``stacked_pull_back``); the lattice takes them over.  They are eliminated
    against the rows of ``relation``, shared, and the implicit rows m_j e_j.
    The rows left with a pivot right of the image columns have image 0
    modulo ``relation``: the result is their payloads, ``{pivot: row}`` in
    payload coordinates, an implicit m_j e_j left implicit.  With
    ``section``, a range of joined columns where the lattice has full rank,
    it is (the rows with pivots outside it, the product of the pivots in
    it): on image columns the index in Z^section of the projection of the
    lattice's part that is 0 before it, on all payload columns the index of
    the kernel, read in place.

    ``relation`` is an echelon lattice of width ``image_width`` (passed too,
    second and positional, because ``perfbench/tracer.py`` buckets calls by
    ``args[1] + len(args[0])``); its ``moduli`` are per-column kill moduli.
    Each m_j e_j must lie in the result; moduli are used only when
    ``relation`` declares them, and only keep entries bounded.
    """
    if relation.width != image_width:
        raise ValueError(f"relation of width {relation.width} for images of width {image_width}")
    width = len(payload_moduli) if payload_moduli is not None else len(map_rows)
    # ``add`` replaces a stored row and never changes one in place, so the
    # lattice shares the relation's maps instead of copying them
    lat = ZLattice.from_echelon(image_width, dict(relation._rows), relation.moduli)
    lat.extend(image_width + width, payload_moduli if payload_moduli is not None else [0] * width)
    for row in map_rows:
        lat.add(row, fresh=True)
    read = section or ()
    kernel = {
        p - image_width: {t - image_width: x for t, x in row.items()}
        for p, row in lat._rows.items()
        if p >= image_width and p not in read
    }
    if section is None:
        return kernel
    stored = lat._rows
    return kernel, prod(stored[p][p] if p in stored else lat.moduli[p] for p in section)


def smith_normal_form(mat):
    """The Smith normal form S of an integer matrix: S = U * M * V for some
    unimodular U, V, diagonal with nonnegative entries s1 | s2 | ...; only
    S is returned, the transforms are not kept."""
    A = [list(r) for r in mat]
    nr = len(A)
    nc = len(A[0]) if nr else 0

    def col_swap(i, j):
        for r in range(nr):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    def row_addmul(i, j, q):
        # row_i += q * row_j
        Ai, Aj = A[i], A[j]
        for t in range(nc):
            Ai[t] += q * Aj[t]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        for r in range(nr):
            A[r][i] += q * A[r][j]

    def row_combine(i, j, x, y, ag, bg):
        # (row_i, row_j) <- (x*row_i + y*row_j, -bg*row_i + ag*row_j); det = 1
        Ai, Aj = A[i], A[j]
        for t in range(nc):
            a, b = Ai[t], Aj[t]
            Ai[t] = x * a + y * b
            Aj[t] = -bg * a + ag * b

    def col_combine(i, j, x, y, ag, bg):
        for r in range(nr):
            a, b = A[r][i], A[r][j]
            A[r][i] = x * a + y * b
            A[r][j] = -bg * a + ag * b

    def row_negate(i):
        A[i] = [-t for t in A[i]]

    def clear_at(t):
        """Eliminate row t and column t outside the pivot (t, t)."""
        while True:
            dirty = False
            for i in range(t + 1, nr):
                a = A[t][t]
                b = A[i][t]
                if b == 0:
                    continue
                if b % a == 0:
                    row_addmul(i, t, -(b // a))
                else:
                    g, x, y = xgcd(a, b)
                    row_combine(t, i, x, y, a // g, b // g)
                    dirty = True
            for j in range(t + 1, nc):
                a = A[t][t]
                b = A[t][j]
                if b == 0:
                    continue
                if b % a == 0:
                    col_addmul(j, t, -(b // a))
                    dirty = True  # row ops after col ops can refill the column
                else:
                    g, x, y = xgcd(a, b)
                    col_combine(t, j, x, y, a // g, b // g)
                    dirty = True
            if not all(A[i][t] == 0 for i in range(t + 1, nr)):
                continue
            if not dirty or all(A[t][j] == 0 for j in range(t + 1, nc)):
                return

    rank = 0
    for t in range(min(nr, nc)):
        # move a nonzero entry of smallest magnitude into position (t, t)
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                a = A[i][j]
                if a and (best is None or abs(a) < best[0]):
                    best = (abs(a), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
        if bj != t:
            col_swap(t, bj)
        if A[t][t] < 0:
            row_negate(t)
        clear_at(t)
        if A[t][t] < 0:
            row_negate(t)
        rank = t + 1

    # enforce the divisibility chain s1 | s2 | ...
    done = False
    while not done:
        done = True
        for t in range(rank - 1):
            a, b = A[t][t], A[t + 1][t + 1]
            if b % a:
                col_addmul(t, t + 1, 1)
                clear_at(t)
                if A[t][t] < 0:
                    row_negate(t)
                if A[t + 1][t + 1] < 0:
                    row_negate(t + 1)
                done = False

    return A
