"""Pontryagin duality for finite abelian groups and the window-level duality
between restricted sums and full products of finite blocks.

The dual of Z/d_1 x ... x Z/d_k is the same group; the pairing of x with a
character chi is sum_i x_i chi_i (m/d_i) mod m for m = lcm(d_i), an exact
representative of a circle element.  Annihilators, read off a subgroup's
stored HNF rows, translate trajectories on the discrete side into
cotrajectories on the profinite side, which is what the bridge check
exercises.  The check walks each chain once: the classifiers behind
``trajectory_limits`` and ``cotrajectory_limits`` read the walks, and the
C_n and trajectory engines it compares are kept as they pass; T_n-perp =
C_n is decided by an index and the pairing, T_n-perp never built.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .discrete import BandedEndo, LFGroup, classify_trajectory, trajectory_engines
from .errors import AmbientMismatchError, ValidationError
from .finabel import (
    AbSubgroup,
    FiniteAbelianGroup,
    Hom,
    canonical_subgroup,
    echelon_subgroup,
    hom_validate,
    quotient_invariants,
)
from .lattice import ZLattice, congruence_kernel
from .profinite import (
    CylinderSubgroup,
    ProGroup,
    RowFiniteEndo,
    chain_steps,
    classify_cotrajectory,
)
from .values import DEFAULT_POLICY, CheckRecord, EntropyValue, StabilizationPolicy


@dataclass(frozen=True)
class DualPairing:
    """Non-degenerate pairing A x A^ -> Z/m with m = lcm of the moduli."""

    group: FiniteAbelianGroup
    dual: FiniteAbelianGroup
    modulus: int
    weights: tuple[int, ...]

    def pair(self, x, chi) -> int:
        self.group.check_vector(x)
        self.dual.check_vector(chi)
        return sum(a * b * w for a, b, w in zip(x, chi, self.weights)) % self.modulus

    def pair_fraction(self, x, chi) -> Fraction:
        """The circle value as an exact fraction in [0, 1)."""
        return Fraction(self.pair(x, chi), self.modulus)


def dual_group(a: FiniteAbelianGroup) -> tuple[FiniteAbelianGroup, DualPairing]:
    m = lcm(1, *a.moduli)
    dual = FiniteAbelianGroup(a.moduli)
    weights = tuple(m // d for d in a.moduli)
    return dual, DualPairing(a, dual, m, weights)


def dual_hom(f: Hom) -> Hom:
    """Adjoint of f: pairing(f(x), chi) = pairing(x, dual_hom(f)(chi))."""
    a, b = f.source, f.target
    mat = []
    for j in range(a.rank):
        dj = a.moduli[j]
        row = []
        for i in range(b.rank):
            di = b.moduli[i]
            num = f.matrix[i][j] * dj
            if num % di:
                raise AssertionError("valid hom must give integral adjoint entries")
            row.append((num // di) % dj)
        mat.append(tuple(row))
    adj = hom_validate(mat, FiniteAbelianGroup(b.moduli), FiniteAbelianGroup(a.moduli))
    _, pa = dual_group(a)
    _, pb = dual_group(b)
    for j in range(a.rank):
        ej = a.unit(j)
        for i in range(b.rank):
            ei = adj.source.unit(i)
            lhs = pb.pair_fraction(f.apply(ej), ei)
            rhs = pa.pair_fraction(ej, adj.apply(ei))
            if (lhs - rhs) % 1 != 0:
                raise AssertionError("adjoint identity failed on a generator pair")
    return adj


def annihilator(h: AbSubgroup, pairing: DualPairing) -> AbSubgroup:
    """H-perp, the characters vanishing on H."""
    if h.ambient != pairing.group:
        raise AmbientMismatchError("subgroup does not live in the paired group")
    a = pairing.group
    m = pairing.modulus
    # the HNF rows that are not relations d_j e_j: the generators, in order
    gens = [
        row for j, row in enumerate(h.hnf_rows()) if len(row) > 1 or row[j] % a.moduli[j]
    ]
    if not gens:
        return pairing.dual.whole_subgroup()
    # chi is in H-perp iff sum_i h_i chi_i w_i = 0 mod m for every generator h
    map_rows: list[dict[int, int]] = [{} for _ in range(a.rank)]
    for c, g in enumerate(gens):
        for i, x in g.items():
            map_rows[i][c] = x * pairing.weights[i] % m
    # d_i * w_i = m, so the relations d_i e_i of the dual solve every row
    combos = congruence_kernel(
        map_rows, len(gens), ZLattice(len(gens), [m] * len(gens)), pairing.dual.moduli
    )
    return echelon_subgroup(pairing.dual, combos)


def _endo_block_ranks_ok(group: LFGroup) -> None:
    if not group.is_abelian:
        raise ValidationError("duality bridge requires abelian blocks")
    if group.prefix:
        raise ValidationError("duality bridge requires a purely periodic block spec")


def dual_map(group: LFGroup, endo: BandedEndo) -> tuple[ProGroup, RowFiniteEndo]:
    """Dualize (G, phi) to (K, psi) = (product of dual blocks, adjoint).

    The adjoint of a column-finite banded map is row-finite with the same
    band, read off the entries phi's band checked (``finabel.Band.row_entries``)
    on one period of rows from its repeat point P, where every term has its
    source: coordinate v of block t + q entering coordinate u of block t by
    x is the entry [v][u] = x d_v / d_u mod d_v of psi's row t + q at
    offset -q, for the block moduli d_v and d_u.
    """
    _endo_block_ranks_ok(group)
    k_group = ProGroup((), tuple(group.period), "N")
    p, l = endo.band.repeat()
    acc: list[dict[int, list[list[int]]]] = [{} for _ in range(l)]
    for t in range(p, p + l):
        tgt = group.block(t).moduli
        for q, term in endo.band.row_entries(t):
            src = group.block(t + q).moduli
            mat = acc[(t + q) % l].setdefault(-q, [[0] * len(tgt) for _ in src])
            for v, u, x in term:
                if x * src[v] % tgt[u]:
                    raise AssertionError("validated endo must dualize integrally")
                mat[v][u] = x * src[v] // tgt[u] % src[v]
    rows = []
    for r, terms in enumerate(acc):
        # a zero row keeps one zero term; blocks repeat with the period
        zero = [[0] * group.period[(r + endo.offset) % len(group.period)].rank] * group.block(r).rank
        rows.append([(o, mat) for o, mat in sorted(terms.items()) if any(map(any, mat))]
                    or [(endo.offset, zero)])
    return k_group, RowFiniteEndo(k_group, endo.offset, endo.width, l, rows)


def dual_cylinder(group: LFGroup, k_group: ProGroup, f_gens) -> CylinderSubgroup:
    """U = F-perp in ``k_group``, the dual of ``group``, for F = <f_gens>."""
    gens = [group.reduce_elem(dict(x)) for x in f_gens]
    gens = [x for x in gens if x]
    if not gens:
        return k_group.whole()
    hi = max(max(x.keys()) for x in gens) + 1
    wg, _ = k_group.window_layout(0, hi)
    f_sub = canonical_subgroup(wg, [k_group.coords(x, 0, hi) for x in gens])
    _, pairing = dual_group(wg)
    return CylinderSubgroup(k_group, 0, hi, annihilator(f_sub, pairing))


def bridge(group: LFGroup, endo: BandedEndo, f_gens) -> tuple[ProGroup, RowFiniteEndo, CylinderSubgroup]:
    """(K, psi, U) = (product of dual blocks, adjoint, F-perp) of (G, phi, F)."""
    k_group, psi = dual_map(group, endo)
    return k_group, psi, dual_cylinder(group, k_group, f_gens)


def verify_duality_facts(
    a: FiniteAbelianGroup, f: Hom, h: AbSubgroup, l: AbSubgroup, n: int = 1
) -> list[CheckRecord]:
    """Check the finite-level duality identities for f: A -> A and H <= L <= A."""
    if f.source != a or f.target != a:
        raise AmbientMismatchError("facts need an endomorphism of A")
    if not l.contains_subgroup(h):
        raise ValidationError("facts need H <= L")
    dual, pairing = dual_group(a)
    fhat = dual_hom(f)
    hp = annihilator(h, pairing)
    lp = annihilator(l, pairing)
    records = []

    records.append(
        CheckRecord("annihilator_order_law", h.order * hp.order == a.order,
                    lhs=h.order * hp.order, rhs=a.order)
    )
    records.append(
        CheckRecord("dual_of_H_is_dual_mod_Hperp",
                    h.invariants() == quotient_invariants(hp, dual.whole_subgroup()),
                    lhs=list(h.invariants()),
                    rhs=list(quotient_invariants(hp, dual.whole_subgroup())))
    )
    img = h
    pre = hp
    ok_c = True
    for _ in range(n):
        img = f.image(img)
        pre = fhat.preimage(pre)
    ok_c = annihilator(img, pairing) == pre
    records.append(CheckRecord(f"image_annihilator_is_adjoint_preimage_n{n}", ok_c))
    records.append(
        CheckRecord("kernel_annihilator_is_adjoint_image",
                    annihilator(f.kernel(), pairing) == fhat.image())
    )
    records.append(
        CheckRecord("relative_annihilator_quotient",
                    quotient_invariants(lp, hp) == quotient_invariants(h, l),
                    lhs=list(quotient_invariants(lp, hp)),
                    rhs=list(quotient_invariants(h, l)))
    )
    records.append(
        CheckRecord("annihilator_swaps_sum_and_intersection",
                    annihilator(h.sum_with(l), pairing) == hp.intersect_with(lp)
                    and annihilator(h.intersect_with(l), pairing) == hp.sum_with(lp))
    )
    return records


# leading terms T_n-perp = C_n that weiss_bridge_check compares
COMPARE_N = 8


@dataclass(frozen=True)
class BridgeReport:
    """Per-subgroup duality comparison of the two entropy computations."""

    entries: tuple
    h_alg_value: EntropyValue
    h_top_value: EntropyValue
    ok: bool


def _passing(stream, keep: int, view, kept: list):
    """Yield the items of ``stream``; of the first ``keep``, ``view(item)``
    is appended to ``kept`` as the item passes."""
    for item in itertools.islice(stream, keep):
        kept.append(view(item))
        yield item
    yield from stream


def _is_perp(engine, n: int, c: CylinderSubgroup) -> bool:
    """C = T_n-perp, for the T_n that the trajectory engine's first n
    layers generate, decided without building T_n-perp.

    C lies in T_n-perp exactly when every layer vector x pairs to 0 with
    C's generators: the unit vectors of its free coordinates, which are the
    coordinates outside its window and the non-pivots of its core, and its
    stored HNF rows.  x's entries being reduced and nonzero, the first asks
    that every key of x be a pivot; the second that sum_t x_t r_t (m / d_t)
    = 0 mod m for each row r, m the lcm of the window moduli.  T_n-perp has
    index |T_n| in K, so a C inside it with that index is T_n-perp.
    """
    if not engine.group.is_abelian:
        raise ValidationError("bridge comparison needs abelian trajectories")
    if c.index != engine.orders[n - 1]:
        return False
    # the columns of C's rows, on the coordinates of the window [0, ...) of
    # the layers: (row, r_t m / d_t) for each entry r_t of a row
    mods = c.core.ambient.moduli
    m = lcm(1, *mods)
    off = c.parent.window_layout(0, c.lo)[0].rank
    rows = c.core.rows
    cols: dict[int, list] = {p + off: [] for p in rows}
    for i, r in enumerate(rows.values()):
        for t, v in r.items():
            cols[t + off].append((i, v * (m // mods[t])))
    for x in itertools.chain.from_iterable(engine.layers[:n]):
        if not x.keys() <= cols.keys():
            return False
        pairs = [0] * len(rows)
        for t, v in x.items():
            for i, w in cols[t]:
                pairs[i] += v * w
        if any(p % m for p in pairs):
            return False
    return True


def weiss_bridge_check(
    group: LFGroup,
    endo: BandedEndo,
    family,
    policy: StabilizationPolicy = DEFAULT_POLICY,
) -> BridgeReport:
    """For each F: dualize, compare T_n-perp with C_n, the two limit-free
    correction terms, and the entropies; then compare the suprema.

    The map is dualized once.  Each chain is walked once.  The two classifiers behind
    ``cotrajectory_limits`` and ``trajectory_limits`` read the walks, and
    C_n and (trajectory engine, n) are kept as they pass, for n <= ``COMPARE_N``
    (the engine only up to the cotrajectory's end); exactly
    n_cmp = min(COMPARE_N, both n_max) pairs are then compared by ``_is_perp``,
    which reads T_n off the engine's layers and orders: they only grow.
    """
    entries = []
    best_alg = EntropyValue.zero()
    best_top = EntropyValue.zero()
    all_ok = True
    dual = None
    for f_gens in family:
        # only U depends on F; an empty family dualizes nothing, as before
        k_group, psi = dual = dual or dual_map(group, endo)
        u = dual_cylinder(group, k_group, f_gens)
        cs: list[CylinderSubgroup] = []
        ts: list[tuple] = []
        steps = _passing(chain_steps(psi, u), COMPARE_N, operator.itemgetter(0), cs)
        rep_t = classify_cotrajectory(u, steps, policy)
        # the engine at T_n has taken n - 1 steps: n orders
        engines = _passing(
            trajectory_engines(endo, f_gens),
            min(COMPARE_N, rep_t.n_max),
            lambda engine: (engine, len(engine.orders)),
            ts,
        )
        rep_d = classify_trajectory(engines, policy)
        records = []
        certified = rep_d.certified and rep_t.certified
        records.append(CheckRecord("both_sides_certified", certified))
        n_cmp = min(COMPARE_N, rep_d.n_max, rep_t.n_max)
        tc_a = all(_is_perp(engine, n, c_n) for (engine, n), c_n in zip(ts[:n_cmp], cs[:n_cmp]))
        records.append(CheckRecord(f"trajectory_perp_is_cotrajectory_n_le_{n_cmp}", tc_a))
        if certified:
            records.append(
                CheckRecord("kernel_term_matches_index_term",
                            rep_d.ker_cap_t == rep_t.k_mod_l,
                            lhs=rep_d.ker_cap_t, rhs=rep_t.k_mod_l)
            )
            records.append(
                CheckRecord("image_term_matches_preimage_term",
                            rep_d.t_mod_phi_t == rep_t.psi_inv_c_mod_c,
                            lhs=rep_d.t_mod_phi_t, rhs=rep_t.psi_inv_c_mod_c)
            )
            h_alg_f, h_top_f = rep_d.entropy, rep_t.entropy
            records.append(
                CheckRecord("entropies_equal", h_alg_f == h_top_f, lhs=h_alg_f, rhs=h_top_f)
            )
            if best_alg < h_alg_f:
                best_alg = h_alg_f
            if best_top < h_top_f:
                best_top = h_top_f
        entry_ok = all(r.ok for r in records)
        all_ok = all_ok and entry_ok
        entries.append((tuple(records), entry_ok))
    all_ok = all_ok and best_alg == best_top
    return BridgeReport(tuple(entries), best_alg, best_top, all_ok)
