"""Independent brute-force oracles.

Everything here works by plain enumeration over element tuples or by
naive textbook algorithms, sharing no code with the lattice-based
implementations it is used to check.  Keep it dumb.

Four exceptions are at the end.  The dense echelon kernel is the
reference for the sparse ``entctl.lattice`` kernel, which must perform
the same arithmetic in the same order and so shares its ``xgcd``.
``cotrajectory_exact`` is the earlier exact-end rule of cotrajectories,
the reference for ``ends.chain_limit``; it walks the chain by
``profinite.chain_steps`` and tests pinning by ``pins_growing_windows``.
``three_elimination_step`` is the earlier cotrajectory step, the reference
for ``RowFiniteEndo.pull_back``; it reads the map's window map and uses the
subgroup operations of ``entctl``, one elimination each.
``reference_window_map`` is the earlier construction of window maps, the
reference for those read off a band's checked entries: it scans the raw
terms of ``Band.row_terms``, lays their entries out unreduced and checks
every column with ``finabel.hom_validate``; ``IteratedMap`` chains those
maps through the maps of a composition, the reference for
``RowFiniteEndo.compose``.  ``reference_dual_map`` is the
earlier construction of the dual map, the reference for the one read off
the checked entries: it walks the raw generator images of an abelian
``discrete.BandedEndo`` and scales them itself.  ``reference_is_perp`` is
the earlier comparison of the bridge check, the reference for the one by
index and pairing: it builds T_n-perp with ``duality.annihilator`` from a
snapshot of T_n and compares cylinders.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from entctl.discrete import BandedEndo
from entctl.duality import annihilator, dual_group
from entctl.errors import Inconclusive
from entctl.finabel import FiniteAbelianGroup, hom_validate, span_index
from entctl.lattice import xgcd
from entctl.ends import pins_growing_windows
from entctl.profinite import CylinderSubgroup, ProGroup, RowFiniteEndo, chain_steps
from entctl.values import DEFAULT_POLICY


# -- finite abelian groups as element sets ----------------------------------

def reduce_vec(moduli, v):
    return tuple(x % d for x, d in zip(v, moduli))


def add_vec(moduli, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, moduli))


def all_elements(moduli):
    return list(itertools.product(*(range(d) for d in moduli)))


def subgroup_elements(moduli, gens):
    """Closure of the generators under addition, by BFS."""
    zero = tuple(0 for _ in moduli)
    gens = [reduce_vec(moduli, g) for g in gens]
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = add_vec(moduli, x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def apply_images(group, images, period, elem):
    """phi(elem) for an abelian banded map given by its generator images:
    generator j of block i goes to the sum of its terms (o, vec) placed at
    the blocks i + o, terms at negative blocks dropped; each image block is
    reduced by its moduli, and zero blocks are left out."""
    acc = {}
    for i, vec in elem.items():
        for terms, c in zip(images[i % period], vec):
            for o, img in terms:
                if i + o >= 0:
                    block = acc.setdefault(i + o, [0] * len(img))
                    for u, x in enumerate(img):
                        block[u] += c * x
    out = {t: reduce_vec(group.block(t).moduli, v) for t, v in acc.items()}
    return {t: v for t, v in out.items() if any(v)}


def sum_sets(moduli, h, l):
    out = set()
    for a in h:
        for b in l:
            out.add(add_vec(moduli, a, b))
    return out


def apply_matrix(matrix, tgt_moduli, v):
    return tuple(
        sum(m * x for m, x in zip(row, v)) % d for row, d in zip(matrix, tgt_moduli)
    )


def kernel_set(matrix, src_moduli, tgt_moduli):
    zero = tuple(0 for _ in tgt_moduli)
    return {
        v for v in all_elements(src_moduli)
        if apply_matrix(matrix, tgt_moduli, v) == zero
    }


def image_set(matrix, tgt_moduli, domain):
    return {apply_matrix(matrix, tgt_moduli, v) for v in domain}


def preimage_set(matrix, src_moduli, tgt_moduli, target_set):
    return {
        v for v in all_elements(src_moduli)
        if apply_matrix(matrix, tgt_moduli, v) in target_set
    }


def annihilator_set(moduli, h_set):
    """Characters chi with sum_i x_i chi_i / d_i integral for all x in H."""
    m = 1
    for d in moduli:
        m = m * d // gcd(m, d)
    weights = [m // d for d in moduli]
    out = set()
    for chi in all_elements(moduli):
        if all(
            sum(x * c * w for x, c, w in zip(v, chi, weights)) % m == 0
            for v in h_set
        ):
            out.add(chi)
    return out


def pairing_value(moduli, x, chi) -> Fraction:
    f = Fraction(0)
    for a, b, d in zip(x, chi, moduli):
        f += Fraction(a * b, d)
    return f % 1


# -- generic groups over Cayley tables --------------------------------------

def perm_table(n):
    """Composition table of the symmetric group on n letters."""
    perms = sorted(itertools.permutations(range(n)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms
    ]
    return table, perms


def cyclic_table(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral_table(n):
    """D_n of order 2n; elements (r, s) with r in Z/n, s in {0,1}."""
    elems = [(r, s) for s in range(2) for r in range(n)]
    idx = {e: i for i, e in enumerate(elems)}

    def mul(a, b):
        r1, s1 = a
        r2, s2 = b
        if s1 == 0:
            return ((r1 + r2) % n, s2)
        return ((r1 - r2) % n, 1 - s2)

    return [[idx[mul(a, b)] for b in elems] for a in elems]


def quaternion_table():
    """Q8 = {1,-1,i,-i,j,-j,k,-k} with the usual relations."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a, b):
        sign = 1
        for x in (a, b):
            if x.startswith("-"):
                sign = -sign
        ua, ub = a.lstrip("-"), b.lstrip("-")
        table = {
            ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
        }
        r = table[(ua, ub)]
        if r.startswith("-"):
            sign = -sign
            r = r[1:]
        return ("-" if sign < 0 else "") + r

    idx = {n_: i for i, n_ in enumerate(names)}
    return [[idx[mul(a, b)] for b in names] for a in names]


def closure_set_oracle(table, seed):
    n = len(table)
    e = next(i for i in range(n) if all(table[i][x] == x for x in range(n)))
    elems = set(seed) | {e}
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for b in list(elems):
                c = table[a][b]
                if c not in elems:
                    elems.add(c)
                    changed = True
    return elems


def inverse_of(table, a):
    n = len(table)
    e = next(i for i in range(n) if all(table[i][x] == x for x in range(n)))
    return next(b for b in range(n) if table[a][b] == e)


def heart_oracle(table, h_set):
    n = len(table)
    core = set(h_set)
    for g in range(n):
        ginv = inverse_of(table, g)
        core &= {table[table[g][h]][ginv] for h in h_set}
    return core


def all_subgroups(table):
    """Every subgroup of a small Cayley group, by closure saturation."""
    n = len(table)
    e = next(i for i in range(n) if all(table[i][x] == x for x in range(n)))
    subs = {frozenset([e])}
    frontier = [frozenset([e])]
    while frontier:
        new = []
        for s in frontier:
            for g in range(n):
                if g not in s:
                    t = frozenset(closure_set_oracle(table, set(s) | {g}))
                    if t not in subs:
                        subs.add(t)
                        new.append(t)
        frontier = new
    return subs


# -- integer matrices ---------------------------------------------------------

def det_bareiss(mat):
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- Laurent polynomial matrices over F_p -------------------------------------

def _poly_mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def laurent_det(terms, offset, p):
    """det over F_p[x] of M(x) = sum_o M_o x^(o - offset), for the
    (offset, K x K matrix) ``terms`` of a period-1 map on (Z/p)^K, K <= 2.

    Returns the coefficients, lowest degree first; the zero polynomial has
    only zero coefficients.  A linear cellular automaton over F_p^K on Z
    is surjective exactly when this determinant is nonzero (Ito-Osato-Nasu
    1983; Kari 2000); the shift by x^offset is a unit of F_p[x, 1/x].
    """
    rank = len(terms[0][1])
    assert rank <= 2
    deg = max(o for o, _ in terms) - offset
    entry = [[[0] * (deg + 1) for _ in range(rank)] for _ in range(rank)]
    for o, mat in terms:
        for i in range(rank):
            for j in range(rank):
                entry[i][j][o - offset] = mat[i][j] % p
    if rank == 1:
        return entry[0][0]
    ad = _poly_mul_mod(entry[0][0], entry[1][1], p)
    bc = _poly_mul_mod(entry[0][1], entry[1][0], p)
    return [(x - y) % p for x, y in zip(ad, bc)]


def abelian_types_up_to(max_order):
    """All isomorphism types, as invariant-factor chains d1 | d2 | ... with
    product <= max_order."""
    out = [()]

    def rec(chain, prod_so_far):
        if chain:
            out.append(tuple(chain))
        d = chain[-1] if chain else 2
        while prod_so_far * d <= max_order:
            if not chain or d % chain[-1] == 0:
                rec(chain + [d], prod_so_far * d)
            d += 1

    rec([], 1)
    return sorted(set(out))


# -- dense reference for the sparse lattice kernel -----------------------------

class DenseZLattice:
    """Echelon row lattice with every row stored dense, entry by entry: the
    reference for ``entctl.lattice.ZLattice``, whose raw rows must match."""

    def __init__(self, width, moduli=None):
        self.width = width
        self.rows = []
        self.pivots = []
        self.moduli = None
        if moduli is not None:
            self.moduli = [int(m) for m in moduli]
            for j, m in enumerate(self.moduli):
                if m:
                    row = [0] * width
                    row[j] = m
                    self.pivots.append(j)
                    self.rows.append(row)

    def copy(self):
        lat = DenseZLattice(self.width)
        lat.rows = [list(r) for r in self.rows]
        lat.pivots = list(self.pivots)
        lat.moduli = list(self.moduli) if self.moduli is not None else None
        return lat

    def _reduce_tail(self, v, start):
        if self.moduli is None:
            return
        for t in range(start, self.width):
            m = self.moduli[t]
            if m and v[t]:
                v[t] %= m

    def add(self, vec):
        v = list(vec)
        assert len(v) == self.width
        rows, pivots, width = self.rows, self.pivots, self.width
        self._reduce_tail(v, 0)
        changed = False
        j = 0
        while True:
            while j < width and v[j] == 0:
                j += 1
            if j == width:
                return changed
            pos = bisect_left(pivots, j)
            if pos < len(pivots) and pivots[pos] == j:
                row = rows[pos]
                p, a = row[j], v[j]
                if a % p == 0:
                    q = a // p
                    for t in range(j, width):
                        v[t] -= q * row[t]
                    self._reduce_tail(v, j + 1)
                else:
                    g, x, y = xgcd(p, a)
                    pg, ag = p // g, a // g
                    new_row = [0] * j + [x * row[t] + y * v[t] for t in range(j, width)]
                    new_v = [0] * (j + 1) + [pg * v[t] - ag * row[t] for t in range(j + 1, width)]
                    self._reduce_tail(new_row, j + 1)
                    self._reduce_tail(new_v, j + 1)
                    rows[pos] = new_row
                    v = new_v
                    changed = True
            else:
                if v[j] < 0:
                    v = [-t for t in v]
                    self._reduce_tail(v, j + 1)
                rows.insert(pos, v)
                pivots.insert(pos, j)
                return True

    def contains(self, vec):
        v = list(vec)
        rows, pivots, width = self.rows, self.pivots, self.width
        self._reduce_tail(v, 0)
        for j in range(width):
            if v[j] == 0:
                continue
            pos = bisect_left(pivots, j)
            if pos == len(pivots) or pivots[pos] != j:
                return False
            row = rows[pos]
            if v[j] % row[j]:
                return False
            q = v[j] // row[j]
            for t in range(j, width):
                v[t] -= q * row[t]
            self._reduce_tail(v, j + 1)
        return True

    def extend(self, new_width, new_moduli=None):
        delta = new_width - self.width
        for row in self.rows:
            row.extend([0] * delta)
        old_width, self.width = self.width, new_width
        if self.moduli is not None:
            self.moduli.extend(int(m) for m in new_moduli)
            for j in range(old_width, new_width):
                m = self.moduli[j]
                if m:
                    row = [0] * new_width
                    row[j] = m
                    self.rows.append(row)
                    self.pivots.append(j)

    def normalize(self):
        rows, pivots, width = self.rows, self.pivots, self.width
        for r in range(len(rows)):
            row_r = rows[r]
            for s in range(r + 1, len(rows)):
                j = pivots[s]
                row_s = rows[s]
                q = row_r[j] // row_s[j]
                if q:
                    for t in range(j, width):
                        row_r[t] -= q * row_s[t]


def dense_congruence_kernel(map_rows, image_width, relation, payload_moduli=None, payload=None):
    """``entctl.lattice.congruence_kernel`` on a DenseZLattice ``relation``:
    the rows (image | payload) concatenated dense, identity payload by default."""
    n = len(map_rows)
    if payload is None:
        payload = [[int(i == j) for j in range(n)] for i in range(n)]
    width = len(payload_moduli) if payload_moduli is not None else n
    lat = relation.copy()
    lat.extend(image_width + width, payload_moduli if payload_moduli is not None else [0] * width)
    for mrow, prow in zip(map_rows, payload):
        lat.add(list(mrow) + list(prow))
    return [row[image_width:] for row, p in zip(lat.rows, lat.pivots) if p >= image_width]


# -- the exact end of a cotrajectory, by the earlier rule -----------------------


def cotrajectory_exact(endo, u, policy=DEFAULT_POLICY):
    """Determine C(psi, U) exactly when possible.

    Returns ("stalled", cylinder) when the chain reaches a fixed point,
    ("trivial", n) when the chain pins every coordinate of monotonically
    growing windows (so the intersection is the one-element subgroup), and
    raises Inconclusive otherwise.
    """
    windows = []
    steps = itertools.islice(chain_steps(endo, u), policy.max_n)
    for n, (c_cyl, _, _, c_next) in enumerate(steps, 1):
        if c_next == c_cyl:
            return ("stalled", c_cyl)
        windows.append((c_next.lo, c_next.hi, c_next.core.order == 1))
        if pins_growing_windows(endo.parent, windows, policy.stall_window):
            return ("trivial", n)
    raise Inconclusive("cotrajectory neither stalls nor pins coordinates", None)


# -- a cotrajectory step, by the earlier three eliminations ---------------------


def three_elimination_step(endo, c, u):
    """(U n psi^{-1}(C), [K : U + psi^{-1}(C)]) as three eliminations: the
    preimage P of C's core under the window map of C, then U n P, then the
    index of U + P on the hull of their windows."""
    src_lo, src_hi, h = endo.window_map(c.lo, c.hi)
    p = CylinderSubgroup(endo.parent, src_lo, src_hi, h.preimage(c.core))
    hull = p.hull_with(u)
    d = span_index(p.extended_core(*hull), u.extended_core(*hull).hnf_rows())
    return u.intersect(p), d


# -- a window map, by the earlier construction ----------------------------------


def _raw_columns(band, rows, lo, hi):
    """(columns, source, target) of the output rows ``rows`` of a
    ``finabel.Band`` on the source window [lo, hi), each column a map of
    the raw nonzero entries of the terms in ``row_terms``, not reduced."""
    g = band.parent
    src_g, starts = g.window_layout(lo, hi)
    cols = [{} for _ in range(src_g.rank)]
    tgt_mods = []
    for i in rows:
        at = len(tgt_mods)
        for o, m in band.row_terms(i):
            if lo <= i + o < hi:
                for u, m_row in enumerate(m, at):
                    for v, x in enumerate(m_row, starts[i + o - lo]):
                        if x:
                            cols[v][u] = x
        tgt_mods.extend(g.block(i).moduli)
    return cols, src_g, FiniteAbelianGroup(tuple(tgt_mods))


def reference_window_map(endo, lo, hi):
    """``window_map(lo, hi)`` of a ``RowFiniteEndo`` or an abelian
    ``discrete.BandedEndo``, built as before: the sources of the rows
    [lo, hi) found by scanning ``row_terms`` for indices in the index set,
    then the raw columns checked by ``hom_validate``."""
    if isinstance(endo, BandedEndo):
        return hom_validate(*_raw_columns(endo.band, range(endo.image_reach(hi)), lo, hi))
    g = endo.parent
    deps = {i + o for i in range(lo, hi) for o, _ in endo.row_terms(i) if g.valid_index(i + o)}
    src_lo, src_hi = (min(deps), max(deps) + 1) if deps else (0, 0)
    return src_lo, src_hi, hom_validate(*_raw_columns(endo, range(lo, hi), src_lo, src_hi))


class IteratedMap:
    """maps[0] after maps[1] after ... of ``RowFiniteEndo``s, as powers were
    built before ``RowFiniteEndo.compose`` served them: the window map of
    [lo, hi) chains each map's ``reference_window_map`` of the source window
    of the one before by ``Hom.compose``, and ``apply`` applies the maps
    one after the other.  ``three_elimination_step`` pulls back through it."""

    def __init__(self, maps):
        self.maps = list(maps)
        self.parent = self.maps[0].parent

    def window_map(self, lo, hi):
        cur_lo, cur_hi, h = reference_window_map(self.maps[0], lo, hi)
        for inner in self.maps[1:]:
            cur_lo, cur_hi, h2 = reference_window_map(inner, cur_lo, cur_hi)
            h = h.compose(h2)
        return cur_lo, cur_hi, h

    def apply(self, elem):
        for endo in reversed(self.maps):
            elem = endo.apply(elem)
        return elem


# -- a dual map, by the earlier construction -------------------------------------


def reference_dual_map(group, endo):
    """``duality.dual_map(group, endo)`` built as before: the image term of
    generator j of block r landing at block r + o gives row r of psi, at
    offset o, the column j of its adjoint, x d_j / d_u mod d_j, summed over
    the terms at one offset before the division."""
    k_group = ProGroup((), tuple(group.period), "N")
    p_blocks = len(group.period)
    p = lcm(p_blocks, endo.period)
    rows = []
    for r in range(p):
        src_blk = group.period[r % p_blocks]
        acc = {}
        for j, terms in enumerate(endo.images[r % endo.period]):
            for o, vec in terms:
                tgt_blk = group.period[(r + o) % p_blocks]
                mat = acc.setdefault(o, [[0] * tgt_blk.rank for _ in range(src_blk.rank)])
                for u, c in enumerate(vec):
                    mat[j][u] += c * src_blk.moduli[j]
        terms_out = []
        for o, num in sorted(acc.items()):
            mods = group.period[(r + o) % p_blocks].moduli
            assert not any(x % du for row in num for x, du in zip(row, mods))
            mat = [[x // du % dj for x, du in zip(row, mods)] for row, dj in zip(num, src_blk.moduli)]
            if any(map(any, mat)):
                terms_out.append((o, mat))
        if not terms_out:
            tgt_blk = group.period[(r + endo.offset) % p_blocks]
            terms_out = [(endo.offset, [[0] * tgt_blk.rank for _ in range(src_blk.rank)])]
        rows.append(terms_out)
    return k_group, RowFiniteEndo(k_group, endo.offset, endo.width, p, rows)


# -- T_n-perp = C_n, by the earlier comparison -----------------------------------


def reference_is_perp(k_group, t_n, c):
    """T_n-perp = C for the snapshot ``t_n`` of a trajectory: the annihilator
    of T_n in the dual of its window, as a cylinder on [0, window_hi) of
    ``k_group``, compared with C by ``==``."""
    _, pairing = dual_group(t_n.subgroup.ambient)
    return CylinderSubgroup(k_group, 0, t_n.window_hi, annihilator(t_n.subgroup, pairing)) == c
