import pathlib

import pytest

from entctl.cli import parse_instance
from entctl.errors import HypothesisFailure, Inconclusive, ValidationError
from entctl.finabel import FiniteAbelianGroup
from entctl.gengroup import cayley_group
from entctl.discrete import (
    banded_endo,
    locally_finite_group,
    trajectory,
    trajectory_engines,
    trajectory_limits,
)
from entctl.values import EntropyValue, StabilizationPolicy

import oracles

Z2 = FiniteAbelianGroup((2,))
Z3 = FiniteAbelianGroup((3,))
Z4 = FiniteAbelianGroup((4,))


def sum_z2():
    return locally_finite_group([], [Z2])


def shift_on(group, rank=1):
    ident = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
    images = [[[(1, tuple(ident[i][j] for i in range(rank)))] for j in range(rank)]]
    return banded_endo(group, 1, 1, 1, images)


E0 = {0: (1,)}


def test_group_construction():
    g = sum_z2()
    assert g.is_abelian
    alt = locally_finite_group([], [Z2, Z3])
    assert alt.block(0).moduli == (2,) and alt.block(1).moduli == (3,)
    assert alt.block(2).moduli == (2,)
    s3 = cayley_group(oracles.perm_table(3)[0])
    nonab = locally_finite_group([], [s3])
    assert not nonab.is_abelian
    with pytest.raises(ValidationError):
        locally_finite_group([], [])


def test_banded_endo_validation():
    g = sum_z2()
    shift_on(g)  # valid
    banded_endo(g, 0, 1, 1, [[[]]])  # zero endomorphism
    banded_endo(g, 0, 2, 1, [[[(0, (1,)), (1, (1,))]]])  # sum rule
    # image outside the band
    with pytest.raises(ValidationError):
        banded_endo(g, 0, 1, 1, [[[(1, (1,))]]])
    # order violation: Z/4 generator into Z/2 coordinate scaled wrong
    mixed = locally_finite_group([], [Z4, Z2])
    with pytest.raises(ValidationError):
        banded_endo(mixed, 1, 1, 2, [[[(1, (1,))]], [[(1, (1,))]]])


def test_trajectory_examples():
    g = sum_z2()
    beta = shift_on(g)
    t3 = trajectory(beta, [E0], 3)
    assert t3.order == 8
    assert t3.window_hi == 3
    zero = banded_endo(g, 0, 1, 1, [[[]]])
    for n in (1, 2, 5):
        assert trajectory(zero, [E0], n).order == 2
    ident = banded_endo(g, 0, 1, 1, [[[(0, (1,))]]])
    assert trajectory(ident, [E0], 4).order == 2


def test_trajectory_limits_shift():
    rep = trajectory_limits(shift_on(sum_z2()), [E0])
    assert rep.certified
    assert rep.alpha == 2
    assert rep.t_mod_phi_t == 2
    assert rep.ker_cap_t == 1
    assert rep.orders[:4] == (2, 4, 8, 16)
    # Lagrange inside every window
    for n in range(len(rep.alphas)):
        assert rep.orders[n + 1] == rep.alphas[n] * rep.orders[n]


def test_trajectory_limits_zero_and_identity():
    g = sum_z2()
    zero = banded_endo(g, 0, 1, 1, [[[]]])
    rep = trajectory_limits(zero, [E0])
    assert rep.certified and rep.alpha == 1
    assert rep.t_mod_phi_t == 2 and rep.ker_cap_t == 2
    ident = banded_endo(g, 0, 1, 1, [[[(0, (1,))]]])
    rep = trajectory_limits(ident, [E0])
    assert rep.certified and rep.alpha == 1
    assert rep.t_mod_phi_t == 1 and rep.ker_cap_t == 1


def test_alpha_divisibility_chain():
    g = locally_finite_group([], [FiniteAbelianGroup((8,))])
    # e_i -> 2 e_i + e_{i+1}
    endo = banded_endo(g, 0, 2, 1, [[[(0, (2,)), (1, (1,))]]])
    rep = trajectory_limits(endo, [{0: (1,)}])
    assert rep.certified
    for a, b in zip(rep.alphas, rep.alphas[1:]):
        assert a % b == 0


def test_algebraic_entropy_methods_agree():
    g = sum_z2()
    beta = shift_on(g)
    rep = trajectory_limits(beta, [E0])
    assert rep.entropy_limit == EntropyValue.of_log(2)
    assert rep.entropy == EntropyValue.of_log(2)
    zero = banded_endo(g, 0, 1, 1, [[[]]])
    assert trajectory_limits(zero, [E0]).entropy.is_zero
    ident = banded_endo(g, 0, 1, 1, [[[(0, (1,))]]])
    assert trajectory_limits(ident, [E0]).entropy.is_zero


def test_yuzvinski_gap_zero_endomorphism():
    # the uncorrected formula reports log |F| while the entropy is 0
    for mods, f_gens, f_order in [
        ((2,), [{0: (1,)}], 2),
        ((3,), [{0: (1,)}], 3),
        ((4,), [{0: (1,)}], 4),
        ((8,), [{0: (1,)}], 8),
    ]:
        g = locally_finite_group([], [FiniteAbelianGroup(mods)])
        zero = banded_endo(g, 0, 1, 1, [[[]]])
        rep = trajectory_limits(zero, f_gens)
        assert rep.yuzvinski_gap == EntropyValue.of_log(f_order)
        assert rep.entropy.is_zero


def test_yuzvinski_no_gap_for_injective():
    g = sum_z2()
    beta = shift_on(g)
    rep = trajectory_limits(beta, [E0])
    assert rep.yuzvinski_gap == rep.entropy
    sumrule = banded_endo(g, 0, 2, 1, [[[(0, (1,)), (1, (1,))]]])
    rep = trajectory_limits(sumrule, [E0])
    assert rep.ker_cap_t == 1
    assert rep.yuzvinski_gap == rep.entropy


def h_alg(endo, family):
    """The entropy's max over an explicit family of finite subgroups."""
    return max(trajectory_limits(endo, f_gens).entropy for f_gens in family)


def test_h_alg_family():
    g = sum_z2()
    beta = shift_on(g)
    fam = [[E0], [E0, {1: (1,)}]]
    # both members give alpha = 2 under the unit shift
    assert h_alg(beta, fam) == EntropyValue.of_log(2)
    # a shift by two blocks doubles the growth of a two-block subgroup
    beta2 = banded_endo(g, 2, 1, 1, [[[(2, (1,))]]])
    assert trajectory_limits(beta2, [E0, {1: (1,)}]).entropy == EntropyValue.of_log(4)
    assert h_alg(beta2, [[E0], [E0, {1: (1,)}]]) == EntropyValue.of_log(4)
    zero = banded_endo(g, 0, 1, 1, [[[]]])
    assert h_alg(zero, fam).is_zero


def test_trivial_subgroup_short_circuit():
    g = sum_z2()
    beta = shift_on(g)
    rep = trajectory_limits(beta, [])
    assert rep.certified and rep.alpha == 1 and rep.f_order == 1


def test_inconclusive_on_tiny_budget():
    g = sum_z2()
    beta = shift_on(g)
    tiny = StabilizationPolicy(max_n=2, stall_window=3, window_budget=4)
    rep = trajectory_limits(beta, [E0], tiny)
    assert not rep.certified and rep.status == "inconclusive"
    for formula in ("entropy", "entropy_limit", "yuzvinski_gap"):
        with pytest.raises(Inconclusive) as exc:
            getattr(rep, formula)
        assert exc.value.report is rep


def test_prefix_blocks():
    g = locally_finite_group([Z4], [Z2])
    endo = banded_endo(g, 1, 1, 1, [[[(1, (1,))]]])
    rep = trajectory_limits(endo, [{0: (1,)}])
    assert rep.certified
    assert rep.orders[0] == 4  # F = <e_0> has order 4 in the Z/4 prefix block
    assert rep.alpha == 2


def test_alternating_blocks():
    g = locally_finite_group([], [Z2, Z3])
    endo = banded_endo(g, 2, 1, 2, [[[(2, (1,))]], [[(2, (1,))]]])
    rep = trajectory_limits(endo, [{0: (1,)}])
    assert rep.certified and rep.alpha == 2
    rep3 = trajectory_limits(endo, [{1: (1,)}])
    assert rep3.certified and rep3.alpha == 3


def test_trajectory_orders_against_bruteforce_closure():
    # close F u phi(F) u ... u phi^{n-1}(F) by raw sparse-element addition,
    # sharing nothing with the lattice engine
    import random

    rng = random.Random(1234)
    for _ in range(25):
        d = rng.choice([2, 3, 4])
        k = rng.randrange(1, 3)
        blk = FiniteAbelianGroup((d,) * k)
        g = locally_finite_group([], [blk])
        offset = rng.choice([-1, 0, 1])
        width = rng.randrange(1, 3)
        images = [[]]
        for _ in range(k):
            terms = []
            for o in range(offset, offset + width):
                vec = tuple(rng.randrange(d) for _ in range(k))
                if any(vec):
                    terms.append((o, vec))
            images[0].append(terms)
        endo = banded_endo(g, offset, width, 1, images)
        f = [{0: tuple(rng.randrange(d) for _ in range(k))}]
        layer = [g.reduce_elem(dict(x)) for x in f]
        gens = list(layer)
        for n in range(1, 5):
            t_n = trajectory(endo, f, n)
            elems = {tuple(sorted({}.items()))}
            frontier = [{}]
            while frontier:
                nxt = []
                for x in frontier:
                    for s in gens:
                        y = g.add(x, s)
                        fy = tuple(sorted(y.items()))
                        if fy not in elems:
                            elems.add(fy)
                            nxt.append(y)
                frontier = nxt
            assert t_n.order == len(elems), (images, f, n)
            layer = [endo.apply(x) for x in layer]
            gens.extend(layer)


# -- non-abelian coverage -----------------------------------------------------

S3_TABLE, S3_PERMS = oracles.perm_table(3)
T12 = S3_PERMS.index((1, 0, 2))
T123 = S3_PERMS.index((1, 2, 0))


def s3_sum():
    return locally_finite_group([], [cayley_group(S3_TABLE)])


def s3_shift(g):
    return banded_endo(g, 1, 1, 1, [[[(1, x)] for x in range(6)]])


def test_nonabelian_shift_entropy():
    g = s3_sum()
    sh = s3_shift(g)
    rep = trajectory_limits(sh, [{0: T123}])
    assert rep.certified and rep.alpha == 3
    assert rep.entropy == EntropyValue.of_log(3)
    rep6 = trajectory_limits(sh, [{0: T123}, {0: T12}])
    assert rep6.certified and rep6.alpha == 6


def test_cayley_trajectory_snapshot_matches_the_limits():
    # trajectory(..., n) materializes T_n of the Cayley walk as an element
    # set; its order is the one the limits read at step n
    path = pathlib.Path(__file__).resolve().parent.parent / "instances" / "shift_sum_s3.json"
    inst = parse_instance(str(path))
    gens = inst.family[0]
    orders = trajectory_limits(inst.endo, gens, inst.policy).orders
    for n in (1, 2, 3):
        t = trajectory(inst.endo, gens, n)
        assert t.elements is not None and (t.order, t.window_hi) == (orders[n - 1], n)


def test_nonabelian_zero_endo_gap():
    g = s3_sum()
    zero = banded_endo(g, 0, 1, 1, [[[] for _ in range(6)]])
    f = [{0: T123}]
    rep = trajectory_limits(zero, f)
    assert rep.yuzvinski_gap == EntropyValue.of_log(3)
    assert rep.entropy.is_zero


def test_nonabelian_rejects_nonnormal_f():
    g = s3_sum()
    table = S3_TABLE
    conj = S3_PERMS.index((1, 2, 0))
    conj_inv = oracles.inverse_of(table, conj)
    images = [[[(0, table[table[conj][x]][conj_inv])] for x in range(6)]]
    endo = banded_endo(g, 0, 1, 1, images)
    # conjugation walks <(12)> through all transpositions; F is not normal
    # in the subgroup its trajectory generates
    with pytest.raises(HypothesisFailure):
        trajectory_limits(endo, [{0: T12}])


def test_nonabelian_nonnormal_f_fails_at_the_step_that_breaks_normality():
    # F = <(12)> is normal in T_1 = F; conjugation by (123) adds (13) or
    # (23), so T_2 = S3, in which F is not normal
    g = s3_sum()
    table = S3_TABLE
    conj = S3_PERMS.index((1, 2, 0))
    conj_inv = oracles.inverse_of(table, conj)
    images = [[[(0, table[table[conj][x]][conj_inv])] for x in range(6)]]
    engines = trajectory_engines(banded_endo(g, 0, 1, 1, images), [{0: T12}])
    assert next(engines).orders == [2]
    with pytest.raises(HypothesisFailure):
        next(engines)


def test_nonabelian_validation_reaches_the_last_distinct_row():
    # blocks Z6, S3, S3, ... and map period 2: row 0 inverts Z6 (a
    # homomorphism), rows 1, 3, ... are the identity, and rows 2, 4, ...
    # apply the same index map to S3, where it is not a homomorphism.
    # The rows repeat from P = 1 with L = 2, so row P + L - 1 = 2 is the
    # first and last row to show the fault.
    z6 = cayley_group(oracles.cyclic_table(6))
    g = locally_finite_group([z6], [cayley_group(S3_TABLE)])
    invert = [[(0, -x % 6)] for x in range(6)]
    ident = [[(0, x)] for x in range(6)]
    banded_endo(locally_finite_group([z6], [z6]), 0, 1, 2, [invert, ident])  # valid
    with pytest.raises(ValidationError, match="block 2"):
        banded_endo(g, 0, 1, 2, [invert, ident])


def test_nonabelian_validation_rejects_non_homomorphism():
    g = s3_sum()
    # map every element to the identity except one transposition: not a hom
    images = [[[(0, 0)] if x != T12 else [(0, T123)] for x in range(6)]]
    with pytest.raises(ValidationError):
        banded_endo(g, 0, 1, 1, images)
