import json
from fractions import Fraction

import pytest

from entctl.values import CheckRecord, EntropyValue, StabilizationPolicy


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
