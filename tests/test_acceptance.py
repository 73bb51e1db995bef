"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines).
Randomized criteria use fixed seeds, so the suite is deterministic.
"""

import math
import pathlib
import random
import time
from fractions import Fraction

from entctl.cli import emit_report, parse_instance, run_command
from entctl.depth import depth_report
from entctl.discrete import (
    banded_endo,
    locally_finite_group,
    trajectory,
    trajectory_limits,
)
from entctl.duality import annihilator, bridge, dual_group, verify_duality_facts
from entctl.finabel import (
    FiniteAbelianGroup,
    canonical_subgroup,
    hom_validate,
    subgroup_index,
)
from entctl.gengroup import cayley_group, closure, heart
from entctl.ends import chain_limit
from entctl.profinite import (
    cokernel_order,
    cotrajectory,
    cotrajectory_limits,
    cylinder,
    kernel_order,
    log_law_check,
    pro_group,
    rowfinite_endo,
    surjective_on_windows,
)
from entctl.values import EntropyValue

import oracles

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
# canonical reports of every bundled instance x {main command, verify}
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _passline(n, text):
    print(f"PASS criterion {n}: {text}")


# -- randomized instance generators ------------------------------------------


def random_banded_discrete(rng):
    d = rng.choice([2, 3, 4, 8])
    k = rng.randrange(1, 4)
    blk = FiniteAbelianGroup((d,) * k)
    g = locally_finite_group([], [blk])
    offset = rng.choice([-1, 0, 1])
    width = rng.randrange(1, 4 - abs(offset))
    images = []
    gen_images = []
    for _ in range(k):
        terms = []
        for o in range(offset, offset + width):
            vec = tuple(rng.randrange(d) for _ in range(k))
            if any(vec):
                terms.append((o, vec))
        gen_images.append(terms)
    images.append(gen_images)
    endo = banded_endo(g, offset, width, 1, images)
    n_gens = rng.randrange(1, 3)
    f_gens = []
    for _ in range(n_gens):
        i = rng.randrange(0, 2)
        vec = tuple(rng.randrange(d) for _ in range(k))
        if any(vec):
            f_gens.append({i: vec})
    if not f_gens:
        f_gens = [{0: tuple(1 if t == 0 else 0 for t in range(k))}]
    return g, endo, f_gens


def random_rowfinite(rng, index_set="N", periodic=False):
    """A random map on a product of one block and a cylinder over its first
    blocks; ``periodic`` draws a map period of 1-6 and, over N, 0-2 prefix
    rows (the default draws period 1 and no prefix)."""
    d = rng.choice([2, 3, 4, 8])
    k = rng.randrange(1, 4)
    blk = FiniteAbelianGroup((d,) * k)
    kgrp = pro_group([], [blk], index_set)
    offset = rng.choice([-1, 0, 1])
    width = rng.randrange(1, 4 - abs(offset))

    def row():
        terms = []
        for o in range(offset, offset + width):
            mat = [[rng.randrange(d) for _ in range(k)] for _ in range(k)]
            if any(any(r) for r in mat):
                terms.append((o, mat))
        return terms or [(offset, [[0] * k for _ in range(k)])]

    period = rng.randrange(1, 7) if periodic else 1
    prefix = rng.randrange(3) if periodic and index_set == "N" else 0
    rows = [row() for _ in range(period + prefix)]
    endo = rowfinite_endo(kgrp, offset, width, period, rows[prefix:], rows[:prefix])
    # random open subgroup: cylinder over 1-2 blocks with a random core
    w = rng.randrange(1, 3)
    wg, _ = kgrp.window_layout(0, w)
    gens = [
        tuple(rng.randrange(d) for _ in range(wg.rank))
        for _ in range(rng.randrange(0, wg.rank))
    ]
    u = cylinder(kgrp, (0, w), gens)
    return kgrp, endo, u


def _random_hom_matrix(rng, src_mods, tgt_mods):
    """A random well-defined matrix: entry (i, j) is a multiple of d_i / gcd(d_i, d_j)."""
    mat = []
    for dt in tgt_mods:
        row = []
        for ds in src_mods:
            step = dt // math.gcd(dt, ds)
            row.append(step * rng.randrange(0, dt // step))
        mat.append(row)
    return mat


# -- criteria ------------------------------------------------------------------


def test_criterion_1_algebraic_formula_agreement():
    rng = random.Random(10001)
    t0 = time.time()
    total, certified = 0, 0
    while total < 100:
        g, endo, f_gens = random_banded_discrete(rng)
        total += 1
        rep = trajectory_limits(endo, f_gens)
        if not rep.certified:
            continue
        certified += 1
        limit = EntropyValue.of_log(rep.alpha)
        limitfree = EntropyValue.of_log(Fraction(rep.t_mod_phi_t, rep.ker_cap_t))
        assert limit == limitfree, (rep,)
        assert limitfree.log_of.denominator == 1
        assert rep.entropy == limitfree and rep.entropy_limit == limit
    elapsed = time.time() - t0
    assert certified >= 0.9 * total, f"only {certified}/{total} certified"
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _passline(1, f"{certified}/{total} certified, limit == limitfree exactly, {elapsed:.1f}s")


def test_criterion_2_topological_formula_agreement():
    rng = random.Random(20002)
    t0 = time.time()
    total, certified = 0, 0
    while total < 100:
        kgrp, endo, u = random_rowfinite(rng)
        total += 1
        rep = cotrajectory_limits(endo, u)
        # divisibility invariants at every step, zero exceptions
        for a, b in zip(rep.c, rep.c[1:]):
            assert b % a == 0
        for a, b in zip(rep.alphas, rep.alphas[1:]):
            assert a % b == 0
        if not rep.certified:
            continue
        certified += 1
        limit = EntropyValue.of_log(rep.alpha)
        limitfree = EntropyValue.of_log(Fraction(rep.psi_inv_c_mod_c, rep.k_mod_l))
        assert limit == limitfree
        assert rep.entropy == limitfree and rep.entropy_limit == limit
        if surjective_on_windows(endo):
            assert rep.k_mod_l == 1
            assert EntropyValue.of_log(rep.psi_inv_c_mod_c) == limit
    elapsed = time.time() - t0
    assert certified >= 0.9 * total, f"only {certified}/{total} certified"
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _passline(2, f"{certified}/{total} certified, all methods agree, {elapsed:.1f}s")


def test_criterion_3_zero_endomorphism_gap():
    cases = {2: (2,), 3: (3,), 4: (4,), 8: (8,), 16: (4, 4)}
    for m, mods in cases.items():
        blk = FiniteAbelianGroup(mods)
        g = locally_finite_group([], [blk])
        zero = banded_endo(g, 0, 1, 1, [[[] for _ in mods]])
        f = [{0: tuple(1 if i == j else 0 for i in range(len(mods)))} for j in range(len(mods))]
        rep = trajectory_limits(zero, f)
        assert rep.yuzvinski_gap == EntropyValue.of_log(m)
        assert rep.entropy.is_zero
    # injective cases: shifts have zero gap
    for mods in [(2,), (3,), (2, 2)]:
        blk = FiniteAbelianGroup(mods)
        g = locally_finite_group([], [blk])
        ident = [[1 if i == j else 0 for j in range(len(mods))] for i in range(len(mods))]
        shift = banded_endo(
            g, 1, 1, 1, [[[(1, tuple(ident[i][j] for i in range(len(mods))))] for j in range(len(mods))]]
        )
        f = [{0: tuple(1 if t == 0 else 0 for t in range(len(mods)))}]
        rep = trajectory_limits(shift, f)
        assert rep.yuzvinski_gap == rep.entropy
    _passline(3, "zero endomorphism gap log m with entropy 0; injective shifts gap-free")


def test_criterion_4_weiss_bridge():
    rng = random.Random(40004)
    t0 = time.time()
    checked = 0
    while checked < 50:
        g, endo, f_gens = random_banded_discrete(rng)
        rep_d = trajectory_limits(endo, f_gens)
        if not rep_d.certified:
            continue
        kgrp, psi, u = bridge(g, endo, f_gens)
        rep_t = cotrajectory_limits(psi, u)
        assert rep_t.certified
        h_alg_v = EntropyValue.of_log(Fraction(rep_d.t_mod_phi_t, rep_d.ker_cap_t))
        h_top_v = EntropyValue.of_log(Fraction(rep_t.psi_inv_c_mod_c, rep_t.k_mod_l))
        assert h_alg_v == h_top_v
        assert rep_d.entropy == h_alg_v and rep_t.entropy == h_top_v
        for n in range(1, 9):
            t_n = trajectory(endo, f_gens, n)
            assert oracles.reference_is_perp(kgrp, t_n, cotrajectory(psi, u, n))
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _passline(4, f"{checked} randomized bridge instances, entropies equal, T-C(a) at n<=8, {elapsed:.1f}s")


def test_criterion_5_duality_identity_suite():
    rng = random.Random(50005)
    trials = 0
    while trials < 500:
        mods = tuple(rng.choice([2, 3, 4, 5, 8, 9]) for _ in range(rng.randrange(1, 4)))
        a = FiniteAbelianGroup(mods)
        if a.order > 10**4:
            continue
        mat = _random_hom_matrix(rng, mods, mods)
        f = hom_validate(mat, a, a)
        h = canonical_subgroup(
            a, [tuple(rng.randrange(d) for d in mods)]
        )
        l = canonical_subgroup(
            a, h.generators() + [tuple(rng.randrange(d) for d in mods)]
        )
        for rec in verify_duality_facts(a, f, h, l, rng.randrange(1, 4)):
            assert rec.ok, rec
        trials += 1
    _passline(5, f"{trials} randomized duality-fact instances, zero failures")


def test_criterion_6_depth_theorem():
    t0 = time.time()
    for mods in [(2,), (3,), (2, 2), (6,)]:
        order = 1
        for d in mods:
            order *= d
        blk = FiniteAbelianGroup(mods)
        kgrp = pro_group([], [blk], "Z")
        ident = [[1 if i == j else 0 for j in range(blk.rank)] for i in range(blk.rank)]
        shift = rowfinite_endo(kgrp, 1, 1, 1, [[(1, ident)]])
        candidates = [
            cylinder(kgrp, (0, 1), []),
            cylinder(kgrp, (0, 2), []),
            cylinder(kgrp, (-1, 1), []),
        ]
        rep = depth_report(shift, candidates)
        assert rep.depth == order
        assert rep.depth_inverse == order
        assert rep.h_top_value == EntropyValue.of_log(order)
        assert sum(1 for c in rep.candidates if c.status == "antistable") >= 3
        assert all(c.ok for c in rep.checks)
    elapsed = time.time() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    _passline(6, f"full shifts depth = |F|, h_top = log depth, inverse equal, {elapsed:.1f}s")


def test_criterion_7_non_surjective_sanity():
    z2 = FiniteAbelianGroup((2,))
    k = pro_group([], [z2], "N")
    rho = rowfinite_endo(k, -1, 1, 1, [[(-1, [[1]])]])
    u = cylinder(k, (0, 1), [])
    rep = cotrajectory_limits(rho, u)
    assert rep.certified
    assert rep.psi_inv_c_mod_c == 2 and rep.k_mod_l == 2
    assert rep.entropy.is_zero
    assert rep.entropy_limit.is_zero
    # left shift has trivial cotrajectory on an infinite group, so the
    # kernel must strictly dominate the cokernel
    sigma = rowfinite_endo(k, 1, 1, 1, [[(1, [[1]])]])
    assert chain_limit(sigma, u)[0] == "trivial"
    assert k.is_infinite()
    assert kernel_order(sigma) > cokernel_order(sigma)
    _passline(7, "right shift: log 2 - log 2 = 0 both ways; |ker| > |coker| on the left shift")


def test_criterion_8_logarithmic_law():
    z2 = FiniteAbelianGroup((2,))
    z3 = FiniteAbelianGroup((3,))
    one_sided = pro_group([], [z2], "N")
    sigma = rowfinite_endo(one_sided, 1, 1, 1, [[(1, [[1]])]])
    u1 = cylinder(one_sided, (0, 1), [])
    two_sided = pro_group([], [z3], "Z")
    shift_z = rowfinite_endo(two_sided, 1, 1, 1, [[(1, [[1]])]])
    u2 = cylinder(two_sided, (0, 1), [])
    for endo, u, base in [(sigma, u1, 2), (shift_z, u2, 3)]:
        for k_pow in (2, 3, 4):
            rec = log_law_check(endo, u, k_pow)
            assert rec.ok
            assert rec.lhs == base**k_pow == rec.rhs
    _passline(8, "index power law exact for k in {2,3,4} on one- and two-sided shifts")


def test_criterion_9_oracle_equivalence():
    rng = random.Random(90009)
    rng_b = random.Random(90010)
    discrepancies = 0
    types = [t for t in oracles.abelian_types_up_to(256) if t]
    for mods in types:
        a = FiniteAbelianGroup(mods)
        gens_h = [tuple(rng.randrange(d) for d in mods)]
        gens_l = [tuple(rng.randrange(d) for d in mods)]
        h = canonical_subgroup(a, gens_h)
        l = canonical_subgroup(a, gens_l)
        hs = oracles.subgroup_elements(mods, gens_h)
        ls = oracles.subgroup_elements(mods, gens_l)
        assert set(h.elements()) == hs
        assert set(h.sum_with(l).elements()) == oracles.sum_sets(mods, hs, ls)
        assert set(h.intersect_with(l).elements()) == (hs & ls)
        assert subgroup_index(h, a.whole_subgroup()) == a.order // len(hs)
        # a random valid endomorphism: kernel/image/preimage
        mat = _random_hom_matrix(rng, mods, mods)
        f = hom_validate(mat, a, a)
        assert set(f.kernel().elements()) == oracles.kernel_set(mat, mods, mods)
        assert set(f.image().elements()) == oracles.image_set(mat, mods, oracles.all_elements(mods))
        assert set(f.preimage(h).elements()) == oracles.preimage_set(mat, mods, mods, hs)
        # a random non-square map into mixed moduli, like a window map
        rank_b = rng_b.choice([r for r in (1, 2, 3) if r != a.rank])
        mods_b = tuple(rng_b.choice((2, 3, 4, 6, 9)) for _ in range(rank_b))
        mat_b = _random_hom_matrix(rng_b, mods, mods_b)
        f_b = hom_validate(mat_b, a, FiniteAbelianGroup(mods_b))
        assert set(f_b.image().elements()) == oracles.image_set(
            mat_b, mods_b, oracles.all_elements(mods)
        )
        _, pairing = dual_group(a)
        assert set(annihilator(h, pairing).elements()) == oracles.annihilator_set(mods, hs)
    cayley_tables = [
        oracles.cyclic_table(n) for n in (2, 3, 4, 6, 8, 12, 16)
    ] + [
        oracles.perm_table(3)[0],
        oracles.perm_table(4)[0],
        oracles.dihedral_table(4),
        oracles.dihedral_table(6),
        oracles.quaternion_table(),
    ]
    for table in cayley_tables:
        g = cayley_group(table)
        for _ in range(4):
            seed = [rng.randrange(g.order) for _ in range(rng.randrange(0, 3))]
            sub = closure(g, seed)
            assert sub.elements == oracles.closure_set_oracle(table, set(seed))
            assert heart(g, sub).elements == oracles.heart_oracle(table, sub.elements)
    _passline(9, f"{len(types)} abelian types and {len(cayley_tables)} Cayley groups vs enumeration, zero discrepancies")


def test_criterion_10_determinism():
    command_of = {
        "discrete": "alg-entropy",
        "profinite": "top-entropy",
        "bridge": "bridge-check",
        "depth": "depth",
    }
    count = 0
    for path in sorted(INSTANCES.glob("*.json")):
        first = None
        for _ in range(3):
            inst = parse_instance(str(path))
            command = command_of[inst.kind]
            out = emit_report(run_command(command, inst), "json")
            if first is None:
                first = out
            assert out == first, f"nondeterministic output for {path.name}"
        golden = GOLDEN / f"{path.stem}.{command}.json"
        assert first == golden.read_text(encoding="utf-8"), f"report differs from {golden.name}"
        # verify is deterministic too
        inst = parse_instance(str(path))
        v1 = emit_report(run_command("verify", inst), "json")
        v2 = emit_report(run_command("verify", parse_instance(str(path))), "json")
        assert v1 == v2
        golden = GOLDEN / f"{path.stem}.verify.json"
        assert v1 == golden.read_text(encoding="utf-8"), f"report differs from {golden.name}"
        count += 1
    assert count == len(list(GOLDEN.glob("*.verify.json")))
    _passline(10, f"{count} bundled instances, reports byte-identical across runs and to tests/golden")
