import itertools
import json
from fractions import Fraction

import pytest

from entctl.values import CheckRecord, EntropyValue, StabilizationPolicy, read_stall, run_start


def test_entropy_value_exactness():
    a = EntropyValue.of_log(2)
    b = EntropyValue.of_log_ratio(4, 2)
    assert a == b
    assert hash(a) == hash(b)
    assert EntropyValue.zero().is_zero
    assert EntropyValue.of_log(Fraction(3, 2)).log_of == Fraction(3, 2)
    with pytest.raises(ValueError):
        EntropyValue.of_log(0)
    with pytest.raises(ValueError):
        EntropyValue.of_log(Fraction(-1, 2))


def test_entropy_value_ordering():
    vals = [EntropyValue.of_log(q) for q in (1, 2, 3)]
    assert vals[0] < vals[1] < vals[2]


def test_entropy_value_power_and_float():
    v = EntropyValue.of_log(2)
    assert v.times(3) == EntropyValue.of_log(8)
    assert abs(v.as_float() - 0.6931471805599453) < 1e-15


def test_entropy_value_json():
    j = EntropyValue.of_log_ratio(2, 1).to_json()
    assert j["log_of"] == {"num": 2, "den": 1}
    assert isinstance(j["approx"], str)
    json.dumps(j)


def test_policy_validation():
    StabilizationPolicy()
    with pytest.raises(ValueError):
        StabilizationPolicy(max_n=0)
    with pytest.raises(ValueError):
        StabilizationPolicy(stall_window=0)


def test_check_record_json():
    rec = CheckRecord("demo", True, lhs=EntropyValue.of_log(2), rhs=Fraction(1, 3), note="x")
    j = rec.to_json()
    assert j["ok"] and j["rhs"] == {"num": 1, "den": 3}
    json.dumps(j)


def readings(steps, pulls):
    """Hand-made readings of ``read_stall``: ``steps`` yields (alpha,
    companions, the values certify returns); each pull is counted in
    ``pulls`` and each certify call records the alpha it was given."""
    for alpha, companions, values in steps:
        pulls.append(alpha)

        def certify(a, values=values):
            pulls.append(("certify", a))
            return values

        yield alpha, companions, certify


def test_read_stall_certifies_an_exact_end_at_its_step():
    pulls = []
    policy = StabilizationPolicy(stall_window=3)
    steps = [(4, (1,), None), (2, (1,), None), (1, (2,), ("h", 0))]
    stall = read_stall(readings(steps, pulls), policy, True)
    assert stall.alphas == (4, 2, 1) and stall.companions == ((1,), (1,), (2,))
    assert stall.n0 == 3 and stall.alpha == 1 and stall.certified == ("h", 0)
    assert pulls == [4, 2, 1, ("certify", 1)]


def test_read_stall_raises_at_an_exact_end_that_fails_its_identity():
    steps = [(2, (1,), None), (1, (1,), None), (1, (1,), ("never read",))]
    with pytest.raises(AssertionError, match="exact chain end"):
        read_stall(readings(steps, []), StabilizationPolicy(stall_window=3), True)


def test_read_stall_passes_over_a_stall_that_fails_and_certifies_a_later_one():
    pulls = []
    steps = [(4, (1, 1), None), (2, (1, 1), None), (2, (1, 1), None), (2, (1, 1), ("ok",))]
    stall = read_stall(readings(steps, pulls), StabilizationPolicy(stall_window=2), True)
    assert [p for p in pulls if isinstance(p, tuple)] == [("certify", 2), ("certify", 2)]
    assert stall.alphas == (4, 2, 2, 2) and stall.certified == ("ok",)
    assert stall.n0 == 2 and stall.alpha == 2


def test_read_stall_n0_is_the_start_of_alphas_last_run():
    # alpha holds from step 2 on, the companion only from step 4 on
    steps = [(9, (0,), None), (3, (1,), None), (3, (2,), None), (3, (3,), None), (3, (3,), (1,))]
    stall = read_stall(readings(steps, []), StabilizationPolicy(stall_window=2), True)
    assert stall.alphas == (9, 3, 3, 3, 3) and stall.n0 == 2


def test_read_stall_pulls_at_most_max_n_readings():
    pulls = []
    steps = ((2, (n,), (1,)) for n in itertools.count())  # the companion never holds
    stall = read_stall(readings(steps, pulls), StabilizationPolicy(max_n=5), True)
    assert pulls == [2] * 5
    assert stall.alphas == (2,) * 5 and stall.companions == tuple((n,) for n in range(5))
    assert stall.certified is None and stall.alpha is None and stall.n0 is None


def test_read_stall_checks_divisibility_only_when_asked():
    steps = [(2, (0,), None), (3, (1,), None), (3, (2,), None)]
    with pytest.raises(AssertionError, match="divisibility"):
        read_stall(readings(steps, []), StabilizationPolicy(max_n=3), True)
    stall = read_stall(readings(steps, []), StabilizationPolicy(max_n=3), False)
    assert stall.alphas == (2, 3, 3) and stall.certified is None


def test_run_start():
    assert run_start([5]) == 1
    assert run_start([4, 2, 2, 2]) == 2
    assert run_start([2, 2, 2]) == 1
    assert run_start([(1, 2), (1, 3)]) == 2
