"""Seeded generators of schema-1 instance dicts for the sweep workloads.

Every generator returns plain JSON-ready dicts, so any case can be written
to a file and replayed with ``entctl <command> case.json``.  The cases cover
what the test corpora do not: mixed moduli inside and across blocks, block
and endomorphism period 2, prefix blocks, Z-indexing and Cayley blocks.

Each sweep is stratified: the strata (index set, rank, band, period, case
kind) are laid out by a fixed rule and the seed draws only the entries, so
two seeds give the same mix of shapes and runs stay comparable.
"""

from __future__ import annotations

import itertools
import random
from math import gcd, lcm
from typing import NamedTuple


class Op(NamedTuple):
    """One instance run with one command: what a user types as
    ``entctl <command> [--method <method>] case.json``."""

    command: str
    method: str | None
    instance: dict


# Moduli families mixed inside one instance: a prime-power ladder, a
# second prime, and a composite family whose blocks share only part of
# their torsion.
MODULI_FAMILIES = ((2, 4, 8), (3, 9), (2, 3, 6))

POLICY = {"max_n": 64, "stall_window": 3, "window_budget": 32}


def _block(rng, family, rank):
    return [rng.choice(family) for _ in range(rank)]


def _entry(rng, src_mod, tgt_mod):
    """A random c with src_mod * c = 0 mod tgt_mod (a valid matrix entry)."""
    step = tgt_mod // gcd(tgt_mod, src_mod)
    return step * rng.randrange(tgt_mod // step)


def _matrix(rng, src, tgt):
    """Random homomorphism matrix from block ``src`` to block ``tgt``."""
    return [[_entry(rng, s, t) for s in src] for t in tgt]


def _band(rng):
    offset = rng.choice((-1, 0, 1))
    width = rng.randrange(1, 4 - abs(offset))
    return offset, width


# -- topo_sweep: profinite instances, top-entropy --method surjective -------


def _unit(rng, m):
    while True:
        u = rng.randrange(1, m)
        if gcd(u, m) == 1:
            return u


def _unitriangular(rng, blk):
    """An automorphism of ``blk``: unit diagonal, valid entries above it."""
    return [
        [
            _unit(rng, t) if u == v else _entry(rng, s, t) if v > u else 0
            for v, s in enumerate(blk)
        ]
        for u, t in enumerate(blk)
    ]


def topo_case(rng, index_set, rank, period, surjective, band, family):
    """One profinite instance with a single cylinder.

    Surjectivity is fixed by construction so that its share, which decides
    how long ``surjective_on_windows`` runs, is the same for every seed:
    a surjective map has an automorphism as its highest-offset term (the
    equations can then be solved block by block upward); a non-surjective
    map keeps row 0 of every term inside p times its target block.
    ``family`` is the moduli family the blocks draw from, fixed by the
    caller because it moves the cost as much as the rank does; ``band``
    is the (offset, width) pair, or None for a random one.
    ``period`` is the block period; the endomorphism period equals it when
    it is 2 and is drawn from 1..2 otherwise (rows alternate over
    identical blocks).
    """
    offset, width = band or _band(rng)
    top = offset + width - 1
    types = [_block(rng, family, rank)]
    if period == 2:
        types.append(list(types[0]) if surjective and top % 2 else _block(rng, family, rank))
        endo_period = 2
    else:
        endo_period = rng.choice((1, 2))
    p = rng.choice([q for q in (2, 3) if all(m % q == 0 for m in types[0])] or [types[0][0]])
    rows = []
    for r in range(endo_period):
        tgt = types[r % len(types)]
        terms = []
        for o in range(offset, offset + width):
            src = types[(r + o) % len(types)]
            if surjective and o == top:
                mat = _unitriangular(rng, tgt)
            else:
                mat = _matrix(rng, src, tgt)
            if not surjective and tgt[0] % p == 0:
                mat[0] = [x * p % tgt[0] for x in mat[0]]
            terms.append([o, mat])
        rows.append(terms)
    lo = 0 if index_set == "N" else rng.choice((-1, 0))
    hi = lo + rng.randrange(1, 3)
    window_mods = [m for i in range(lo, hi) for m in types[i % len(types)]]
    core = [
        [rng.randrange(m) for m in window_mods]
        for _ in range(rng.randrange(0, len(window_mods)))
    ]
    return {
        "schema": 1,
        "kind": "profinite",
        "group": {
            "index_set": index_set,
            "blocks": {"period": len(types), "types": types, "prefix": []},
        },
        "endo": {"offset": offset, "width": width, "period": endo_period, "rows": rows},
        "cylinders": [{"window": [lo, hi], "core_gens": core}],
        "policy": dict(POLICY),
    }


# Bands whose top term sits at offset >= 0, as a surjective map over N needs
# (the row at 0 must see a coordinate of its own).
N_BANDS = ((0, 1), (1, 1), (0, 2), (1, 2), (-1, 2), (0, 3))

# One pass as (index set, rank, block period, surjective, band or None for
# a random one).  Op cost is set by the stratum: the rank, the window count
# that surjective_on_windows scans and, less, the band width.  The counts
# place the pass median inside the (N, 2) surjective tier and the 90th
# percentile inside the (N, 3) one, away from tier boundaries.  Surjective
# (Z, 2) and (Z, 3) maps take 2 s and 6 s each and would crowd out every
# other stratum, so they run only as non-surjective.
TOPO_PASS = (
    ("N", 1, 1, False, None), ("Z", 2, 2, False, None),
    ("N", 3, 2, False, None), ("Z", 3, 1, False, None),
    ("N", 1, 1, True, (0, 2)), ("N", 1, 2, True, (1, 1)), ("Z", 1, 1, True, (-1, 2)),
    *[("N", 2, 1 + i % 2, True, N_BANDS[i % 6]) for i in range(8)],
    *[("N", 3, 1 + i % 2, True, N_BANDS[i]) for i in (0, 2, 3, 5)],
)


# -- alg_bridge_sweep: abelian bridges, prefix blocks and Cayley blocks -----


def _discrete_images(rng, blocks, period, offset, width):
    """Generator images, one list per residue class of the endomorphism.

    A residue class meets every block kind (prefix blocks and both periodic
    types), so each entry is a multiple of the step that makes it a valid
    image between every pair of blocks; all blocks share one rank.
    """
    rank = len(blocks[0])
    steps = [
        [
            lcm(*(t // gcd(t, d) for d in {b[j] for b in blocks} for t in {b[u] for b in blocks}))
            for u in range(rank)
        ]
        for j in range(rank)
    ]
    top = lcm(*(m for b in blocks for m in b))
    images = []
    for _ in range(period):
        gens = []
        for j in range(rank):
            terms = []
            for o in range(offset, offset + width):
                vec = [steps[j][u] * rng.randrange(top) % top for u in range(rank)]
                if any(vec):
                    terms.append([o, vec])
            gens.append(terms)
        images.append(gens)
    return images


DISCRETE_BANDS = ((0, 1), (1, 1), (0, 2), (1, 2))


def abelian_case(rng, kind, rank, period, band, family):
    """A bridge instance (periodic blocks) or a discrete one with prefix blocks.

    Prefix blocks only make sense on the discrete side: the bridge needs a
    purely periodic block spec.
    """
    types = [_block(rng, family, rank) for _ in range(period)]
    prefix = []
    if kind == "discrete":
        prefix = [_block(rng, family, rank) for _ in range(rng.randrange(1, 3))]
    offset, width = band
    endo_period = period if period == 2 else rng.choice((1, 2))
    images = _discrete_images(rng, prefix + types, endo_period, offset, width)
    blocks = prefix + types * 3
    family_specs = []
    for _ in range(2):
        gens = []
        for i in rng.sample(range(3), rng.randrange(1, 3)):
            vec = [rng.randrange(m) for m in blocks[i]]
            vec[i % rank] = vec[i % rank] or 1
            gens.append([[i, vec]])
        family_specs.append({"gens": gens})
    return {
        "schema": 1,
        "kind": kind,
        "group": {
            "index_set": "N",
            "blocks": {"period": len(types), "types": types, "prefix": prefix},
        },
        "endo": {"offset": offset, "width": width, "period": endo_period, "images": images},
        "family": family_specs,
        "policy": dict(POLICY),
    }


# S3 as a Cayley table: element 0 is the identity.
S3_TABLE = (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 4, 5, 2, 3),
    (2, 3, 0, 1, 5, 4),
    (3, 2, 5, 4, 0, 1),
    (4, 5, 1, 0, 3, 2),
    (5, 4, 3, 2, 1, 0),
)


def _s3_maps():
    """Endomorphisms of S3 as element maps: the six automorphisms and the
    three maps x -> t^sign(x) onto a transposition t."""
    n = len(S3_TABLE)
    mul = S3_TABLE
    autos = [
        (0, *perm)
        for perm in itertools.permutations(range(1, n))
        if all(
            (0, *perm)[mul[a][b]] == mul[(0, *perm)[a]][(0, *perm)[b]]
            for a in range(n)
            for b in range(n)
        )
    ]
    transpositions = [x for x in range(1, n) if mul[x][x] == 0]
    rotations = {0} | {x for x in range(1, n) if x not in transpositions}
    signs = [tuple(0 if x in rotations else t for x in range(n)) for t in transpositions]
    return autos, signs, sorted(rotations - {0})


def cayley_case(rng, whole_block):
    """S3 blocks mapped by an automorphism or a sign map per residue class,
    all with one offset.  F is A3 or, with ``whole_block``, all of S3; both
    are normal, so F is normal in its trajectory.  With F = S3 every class
    uses a sign map: an automorphism shift would grow T as S3^n, whose
    element-set closure takes seconds and would swamp the lattice work this
    workload is for."""
    autos, signs, rotations = _s3_maps()
    endo_period = rng.choice((1, 2))
    offset = rng.choice((0, 1))
    images = []
    for _ in range(endo_period):
        f = rng.choice(signs if whole_block or rng.random() < 0.3 else autos)
        images.append([[[offset, f[x]]] if f[x] else [] for x in range(len(S3_TABLE))])
    index = rng.randrange(2)
    gens = [[[index, rotations[0]]]]
    if whole_block:
        gens.append([[index, signs[0][1]]])
    return {
        "schema": 1,
        "kind": "discrete",
        "group": {
            "index_set": "N",
            "blocks": {
                "period": 1,
                "types": [{"cayley": [list(r) for r in S3_TABLE]}],
                "prefix": [],
            },
        },
        "endo": {"offset": offset, "width": 1, "period": endo_period, "images": images},
        "family": [{"gens": gens}],
        "policy": dict(POLICY),
    }


# -- depth_sweep: banded automorphisms of Z-indexed products, run as depth --


def _candidates(count):
    """The first ``count`` of three candidate cylinders (fixed: the window
    sets most of a candidate's cost)."""
    windows = ([0, 1], [0, 2], [-1, 1])
    return [{"window": list(w), "core_gens": []} for w in windows[:count]]


def _depth_instance(types, offset, width, rows, candidates, policy):
    return {
        "schema": 1,
        "kind": "depth",
        "group": {"index_set": "Z", "blocks": {"period": len(types), "types": types, "prefix": []}},
        "endo": {"offset": offset, "width": width, "period": len(rows), "rows": rows},
        "cylinders": candidates,
        "policy": policy,
    }


def twisted_shift(rng, blk, count, policy):
    """x_i -> A_r x_{i+s}, s = +-1, with A_r an automorphism of ``blk`` per
    residue: antistable, of depth |block|."""
    s = rng.choice((-1, 1))
    rows = [[[s, _unitriangular(rng, blk)]] for _ in range(rng.choice((1, 2)))]
    return _depth_instance([blk], s, 1, rows, _candidates(count), dict(policy))


def unipotent_shift(rng, policy):
    """s + p s^2 on Z/p^2, an automorphism (its inverse is s^-1 (1 - p s))
    whose antistability check runs out of budget and ends unknown."""
    p = rng.choice((2, 3))
    m = p * p
    u = rng.choice([x for x in range(1, m) if x % p])
    rows = [[[1, [[u]]], [2, [[p * rng.randrange(1, p) % m]]]]]
    return _depth_instance([[m]], 1, 2, rows, _candidates(1), dict(policy))


def alternating_shift(rng, policy):
    """Shift by two over alternating Z/2, Z/3 blocks: the even coordinates
    are pinned for good, yet the check runs out of budget (unknown)."""
    types = [[2], [3]] if rng.random() < 0.5 else [[3], [2]]
    rows = [[[2, [[_unit(rng, types[r][0])]]]] for r in range(2)]
    window = rng.choice(([0, 1], [1, 2]))
    return _depth_instance(types, 2, 1, rows, [{"window": window, "core_gens": []}], dict(policy))


def involution(rng, family, policy):
    """x_i -> A x_i with A^2 = 1 (a negation or a coordinate swap): every
    cotrajectory stalls at once, so no candidate is antistable."""
    d = rng.choice(family)
    if rng.random() < 0.5:
        blk, mat = [d], [[d - 1]]
    else:
        blk, mat = [d, d], [[0, 1], [1, 0]]
    return _depth_instance([blk], 0, 1, [[[0, mat]]], _candidates(2), dict(policy))


# The depth sweep runs with max_n 24 instead of 64: a run that exhausts the
# budget costs about max_n^3, so at 64 a single one (8 s) would fill most of
# a pass; at 24 they are still the slowest runs and fill its top quarter.
DEPTH_POLICY = dict(POLICY, max_n=24)


# Verify runs quotient_system, whose exact cotrajectory runs to the end of
# its budget (1 to 11 s) on a band reaching offset 2 or on a two-block
# cylinder; the verify cases avoid both, and those runs are measured on
# the bundled two-sided shift instead.
VERIFY_BANDS = ((-1, 2), (0, 1), (0, 2), (1, 1))


def _verify_case(rng, band, family):
    case = topo_case(rng, "N", 1, 1, True, band, family)
    case["cylinders"] = [{"window": [0, 1], "core_gens": []}]
    return case


def topo_sweep(seed):
    """One pass: 8 verify runs, then the TOPO_PASS strata twice as
    top-entropy (two draws per stratum halve the seed-to-seed spread)."""
    rng = random.Random(seed)
    verify = [
        Op("verify", None, _verify_case(rng, band, MODULI_FAMILIES[i % 3]))
        for i, band in enumerate(VERIFY_BANDS * 2)
    ]
    return verify + [
        Op("top-entropy", "surjective", topo_case(rng, *st, MODULI_FAMILIES[i % 3]))
        for i, st in enumerate(TOPO_PASS * 2)
    ]


def alg_bridge_sweep(seed):
    """One pass: 20 verify runs, 144 bridges, 18 discrete instances with
    prefix blocks and 18 with S3 blocks.

    A bridge's cost varies by a factor of ten within any stratum (it follows
    the chain length), so the pass holds many of them, cycling rank 2..4,
    period 1..2, band and moduli family, to keep the pass steady.
    """
    rng = random.Random(seed)
    ops = []
    for i in range(20):
        ops.append(Op("verify", None, abelian_case(rng, "bridge", 3, 1, (0, 1), MODULI_FAMILIES[i % 3])))
    for i in range(144):  # two full cycles of the 72 bridge strata
        case = abelian_case(
            rng, "bridge", 2 + i % 3, 1 + i // 3 % 2, DISCRETE_BANDS[i // 6 % 4], MODULI_FAMILIES[i // 24 % 3]
        )
        ops.append(Op("bridge-check", None, case))
    for i in range(18):
        case = abelian_case(
            rng, "discrete", 2 + i % 3, 1 + i // 3 % 2, DISCRETE_BANDS[i % 4], MODULI_FAMILIES[i % 3]
        )
        ops.append(Op("alg-entropy", None, case))
    ops += [Op("alg-entropy", None, cayley_case(rng, i % 2 == 0)) for i in range(18)]
    return ops


# Twisted-shift blocks, one per slot: the block fixes most of the cost.
TWISTED_BLOCKS = ([2], [4], [8], [3], [9], [6], [2, 4], [3, 9], [2, 6], [4, 4])


def depth_sweep(seed):
    """One pass: 3 verify runs and 10 depth runs on twisted shifts
    (antistable), 4 involutions (not antistable), 3 unipotent and 3
    alternating shifts (both exhaust the budget and end unknown)."""
    rng = random.Random(seed)
    policy = DEPTH_POLICY
    ops = [Op("verify", None, twisted_shift(rng, [d], 2, policy)) for d in (4, 9, 6)]
    ops += [
        Op("depth", None, twisted_shift(rng, blk, 1 + i % 3, policy))
        for i, blk in enumerate(TWISTED_BLOCKS)
    ]
    ops += [Op("depth", None, involution(rng, MODULI_FAMILIES[i % 3], policy)) for i in range(4)]
    ops += [Op("depth", None, unipotent_shift(rng, policy)) for _ in range(3)]
    ops += [Op("depth", None, alternating_shift(rng, policy)) for _ in range(3)]
    return ops


SWEEPS = {"topo_sweep": topo_sweep, "alg_bridge_sweep": alg_bridge_sweep, "depth_sweep": depth_sweep}
