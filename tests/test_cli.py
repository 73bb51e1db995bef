import copy
import functools
import json
import operator
import pathlib
import sys

import pytest
from hypothesis import given, settings, strategies as st

from entctl.cli import (
    EXIT_HYPOTHESIS,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    emit_report,
    instance_from_dict,
    main,
    parse_instance,
    run_command,
)
from entctl.errors import HypothesisFailure, Inconclusive, InversionFailure, ValidationError
from entctl.values import StabilizationPolicy

INSTANCES = pathlib.Path(__file__).resolve().parent.parent / "instances"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def all_instances():
    return sorted(INSTANCES.glob("*.json"))


def test_bundled_instances_parse():
    assert len(all_instances()) >= 6
    for path in all_instances():
        inst = parse_instance(str(path))
        assert inst.kind in ("discrete", "profinite", "bridge", "depth")


def test_alg_entropy_command():
    inst = parse_instance(str(INSTANCES / "shift_sum_z2.json"))
    rep = run_command("alg-entropy", inst)
    assert rep.status == "ok"
    certified = [r for r in rep.results if r.get("status") == "certified"]
    assert len(certified) == 2
    assert all(r["entropy"]["log_of"] == {"num": 2, "den": 1} for r in certified)


def test_zero_endo_verify_flags_gap():
    inst = parse_instance(str(INSTANCES / "zero_endo_z4.json"))
    rep = run_command("verify", inst)
    assert rep.status == "ok"
    for r in rep.results:
        names = {c["name"]: c["ok"] for c in r["checks"]}
        assert names["uncorrected_formula_gap_expected"]
        assert names["limit_equals_limitfree"]
        assert r["entropy"]["log_of"] == {"num": 1, "den": 1}


def test_top_entropy_commands():
    inst = parse_instance(str(INSTANCES / "left_shift_pro_z2.json"))
    rep = run_command("top-entropy", inst)
    assert rep.status == "ok"
    inst2 = parse_instance(str(INSTANCES / "right_shift_pro_z2.json"))
    rep2 = run_command("top-entropy", inst2)
    r = rep2.results[0]
    assert r["psi_inv_c_mod_c"] == 2 and r["k_mod_l"] == 2
    assert r["entropy"]["log_of"] == {"num": 1, "den": 1}


def test_top_entropy_surjective_goldens(capsys):
    # top-entropy --method surjective adds the one-term form, or says why not
    goldens = sorted((GOLDEN / "surjective").glob("*.top-entropy.json"))
    assert len(goldens) == 3
    for golden in goldens:
        instance = INSTANCES / f"{golden.name.split('.')[0]}.json"
        assert main(["top-entropy", str(instance), "--method", "surjective"]) == EXIT_OK
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8"), golden.name


def test_top_entropy_surjective_on_windows_but_not_onto(tmp_path, capsys):
    # The left shift on (Z/2)^N with a zero row at index 4: every window up
    # to the budget of 4 is onto, yet the certified [K : Im(psi) C] = 2
    # disproves surjectivity.  That is an error entry, not a broken invariant.
    shift = [[1, [[1]]]]
    case = {
        "schema": 1,
        "kind": "profinite",
        "group": {"index_set": "N", "blocks": {"period": 1, "types": [[2]]}},
        "endo": {"offset": 1, "width": 1, "period": 1, "rows": [shift],
                 "prefix_rows": [shift] * 4 + [[[1, [[0]]]]]},
        "cylinders": [{"window": [0, 1], "core_gens": []}],
        "policy": {"max_n": 64, "stall_window": 6, "window_budget": 4},
    }
    p = tmp_path / "late_zero_row.json"
    p.write_text(json.dumps(case))
    assert main(["top-entropy", str(p), "--method", "surjective"]) == EXIT_OK
    entry = json.loads(capsys.readouterr().out)["results"][0]
    assert entry["status"] == "certified" and entry["k_mod_l"] == 2
    assert "entropy_surjective" not in entry
    assert entry["entropy_surjective_error"].endswith("[K : Im(psi) C] = 2")

@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "zero_endo_z4.json", "--bogus"], "unrecognized arguments: --bogus"),
        (["top-entropy", "left_shift_pro_z2.json", "--method", "limit"], "invalid choice"),
        (["alg-entropy", "shift_sum_z2.json", "--method", "surjective"], "only to top-entropy"),
    ],
)
def test_usage_errors_exit_validation(capsys, argv, message):
    command, name, *flags = argv
    assert main([command, str(INSTANCES / name), *flags]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "validation" and message in err["message"]


def test_bridge_and_depth_commands():
    rep = run_command("bridge-check", parse_instance(str(INSTANCES / "bridge_shift_z2.json")))
    assert rep.status == "ok"
    assert rep.results[-1]["bridge_equal"] is True
    rep2 = run_command("depth", parse_instance(str(INSTANCES / "depth_shift_z3.json")))
    assert rep2.status == "ok"
    assert rep2.results[-1]["depth"] == 3


def test_depth_out_of_budget_exits_inconclusive(capsys):
    # with one step, every candidate of depth_shift_z3 ends unknown: the run
    # ran out of budget, which is no failed hypothesis
    argv = ["depth", str(INSTANCES / "depth_shift_z3.json"), "--max-n", "1"]
    assert main(argv) == EXIT_INCONCLUSIVE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "inconclusive" and "max_n = 1" in err["message"]


# a profinite map whose [K : Im(psi) C_n] rises on each of the last steps
# of a walk cut at max_n 4; under the default policy it ends exactly at
# step 6 (alpha = 8, 4, 4, 2, 2, 1)
RISING_IMAGE_INDEX = {
    "schema": 1, "kind": "profinite",
    "group": {"index_set": "N", "blocks": {"period": 1, "types": [[8, 8]], "prefix": []}},
    "endo": {"offset": 1, "width": 1, "period": 1, "rows": [[[1, [[4, 2], [1, 2]]]]]},
    "cylinders": [{"window": [0, 1], "core_gens": [[2, 6]]}],
    "policy": {"max_n": 64, "stall_window": 3, "window_budget": 32},
}


def test_a_walk_cut_while_its_image_index_rises_exits_inconclusive(tmp_path, capsys):
    # on a compact group [K : Im(psi) C_n] <= [K : U] is finite: a walk that
    # ends at the budget while it rises ran out of budget, no hypothesis failed
    path = tmp_path / "rising.json"
    path.write_text(json.dumps(RISING_IMAGE_INDEX))
    assert main(["top-entropy", str(path), "--max-n", "4"]) == EXIT_INCONCLUSIVE
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "inconclusive"
    assert [r["status"] for r in report["results"]] == ["inconclusive"]
    assert main(["top-entropy", str(path)]) == EXIT_OK


def test_incompatible_command_kind():
    inst = parse_instance(str(INSTANCES / "shift_sum_z2.json"))
    with pytest.raises(ValidationError):
        run_command("top-entropy", inst)


def test_emit_report_deterministic():
    for path in all_instances():
        inst = parse_instance(str(path))
        cmd = {
            "discrete": "alg-entropy",
            "profinite": "top-entropy",
            "bridge": "bridge-check",
            "depth": "depth",
        }[inst.kind]
        a = emit_report(run_command(cmd, inst), "json")
        b = emit_report(run_command(cmd, parse_instance(str(path))), "json")
        assert a == b
        assert a.endswith("\n")
        json.loads(a)  # valid json


def test_no_floats_in_json_output():
    inst = parse_instance(str(INSTANCES / "shift_sum_z2.json"))
    payload = json.loads(emit_report(run_command("alg-entropy", inst), "json"))

    def scan(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into report")
        if isinstance(node, dict):
            for k, v in node.items():
                if k != "approx":
                    scan(v)
        elif isinstance(node, list):
            for v in node:
                scan(v)

    scan(payload)


def test_text_format():
    inst = parse_instance(str(INSTANCES / "shift_sum_z2.json"))
    text = emit_report(run_command("alg-entropy", inst), "text")
    assert text.startswith("alg-entropy")


def test_main_exit_codes(tmp_path, capsys):
    ok = main(["alg-entropy", str(INSTANCES / "shift_sum_z2.json")])
    assert ok == EXIT_OK
    capsys.readouterr()

    # inconclusive: budget too small to stall
    rc = main(["alg-entropy", str(INSTANCES / "shift_sum_z2.json"), "--max-n", "2", "--stall", "5"])
    assert rc == EXIT_INCONCLUSIVE
    capsys.readouterr()

    # validation: ill-defined endomorphism named in the message
    bad = {
        "schema": 1,
        "kind": "discrete",
        "group": {"index_set": "N", "blocks": {"period": 2, "types": [[2], [4]]}},
        "endo": {"offset": 1, "width": 1, "period": 2,
                 "images": [[[[1, [1]]]], [[[1, [1]]]]]},
        "family": [{"gens": [[[0, [1]]]]}],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    rc = main(["alg-entropy", str(p)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "generator 0" in err

    # hypothesis failure: depth of a non-invertible map
    fold = {
        "schema": 1,
        "kind": "depth",
        "group": {"index_set": "Z", "blocks": {"period": 1, "types": [[2]]}},
        "endo": {"offset": 0, "width": 2, "period": 1,
                 "rows": [[[0, [[1]]], [1, [[1]]]]]},
        "cylinders": [{"window": [0, 1], "core_gens": []}],
    }
    p2 = tmp_path / "fold.json"
    p2.write_text(json.dumps(fold))
    rc = main(["depth", str(p2)])
    assert rc == EXIT_HYPOTHESIS
    capsys.readouterr()


def test_broken_invariant_exits_internal(capsys, monkeypatch):
    import entctl.profinite as profinite

    def broken(*args, **kwargs):
        raise AssertionError("c_n must divide c_{n+1}")

    monkeypatch.setattr(profinite, "cotrajectory_limits", broken)
    rc = main(["top-entropy", str(INSTANCES / "left_shift_pro_z2.json")])
    assert rc == EXIT_INTERNAL
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "internal", "message": "c_n must divide c_{n+1}"}


def test_window_indices_leave_the_other_blocks_free(tmp_path, capsys):
    # window_indices [0, 2] is the window [0, 3) with block 1 free; a
    # negative index over N is a malformed instance
    raw = json.loads((INSTANCES / "left_shift_pro_z2.json").read_text())
    raw["cylinders"] = [
        {"window_indices": [0, 2], "core_gens": [[1, 0, 1]]},
        {"window": [0, 3], "core_gens": [[1, 0, 1], [0, 1, 0]]},
    ]
    listed, free = instance_from_dict(raw).cylinders
    assert listed == free and (listed.lo, listed.hi, listed.index) == (0, 3, 2)
    raw["cylinders"] = [{"window_indices": [-1, 0], "core_gens": []}]
    p = tmp_path / "negative.json"
    p.write_text(json.dumps(raw))
    assert main(["top-entropy", str(p)]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


@pytest.mark.parametrize("window", [{"window": []}, {"window": [2, 2]}, {"window_indices": []}])
def test_empty_window_checks_its_generators(tmp_path, capsys, window):
    # an empty window's group has rank 0, so a generator of length 3 is
    # malformed there as it is on [0, 1); with no generators the cylinder is
    # the whole group, as before
    raw = json.loads((INSTANCES / "left_shift_pro_z2.json").read_text())
    raw["cylinders"] = [{**window, "core_gens": [[1, 0, 5]]}]
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(raw))
    assert main(["top-entropy", str(p)]) == EXIT_VALIDATION
    assert "vector of length 3 in group of rank 0" in json.loads(capsys.readouterr().err)["message"]
    raw["cylinders"] = [{**window, "core_gens": []}]
    inst = instance_from_dict(raw)
    assert inst.cylinders == [inst.group.whole()]


def test_restricted_sums_are_indexed_by_n(tmp_path, capsys):
    # discrete and bridge groups are restricted sums over N: any other
    # index_set is malformed, and a missing one means N
    p = tmp_path / "indexed.json"
    for name, command in (("shift_sum_z2.json", "alg-entropy"), ("bridge_shift_z2.json", "bridge-check")):
        raw = json.loads((INSTANCES / name).read_text())
        for index_set in ("Z", "banana"):
            raw["group"]["index_set"] = index_set
            p.write_text(json.dumps(raw))
            assert main([command, str(p)]) == EXIT_VALIDATION
            assert "index_set" in json.loads(capsys.readouterr().err)["message"]
        del raw["group"]["index_set"]
        assert instance_from_dict(raw).group == parse_instance(str(INSTANCES / name)).group


def test_failed_depth_check_fails_verify(capsys, monkeypatch):
    # the depth summary carries its checks without a status: a failed one
    # makes depth and verify alike inconclusive
    import dataclasses

    import entctl.depth as depth
    from entctl.values import CheckRecord

    report = depth.depth_report

    def failing(*args, **kwargs):
        rep = report(*args, **kwargs)
        return dataclasses.replace(rep, checks=(*rep.checks, CheckRecord("planted", False)))

    monkeypatch.setattr(depth, "depth_report", failing)
    for command in ("depth", "verify"):
        assert main([command, str(INSTANCES / "depth_shift_z3.json")]) == EXIT_INCONCLUSIVE
        assert json.loads(capsys.readouterr().out)["status"] == "inconclusive"


def test_schema_rejections(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"schema": 99, "kind": "discrete"}))
    with pytest.raises(ValidationError):
        parse_instance(str(p))
    p.write_text(json.dumps({"schema": 1, "kind": "nope"}))
    with pytest.raises(ValidationError):
        parse_instance(str(p))


@pytest.mark.parametrize("drop", ["group", "endo"])
def test_missing_key_exits_validation(tmp_path, capsys, drop):
    raw = json.loads((INSTANCES / "left_shift_pro_z2.json").read_text())
    del raw[drop]
    p = tmp_path / "missing.json"
    p.write_text(json.dumps(raw))
    assert main(["top-entropy", str(p)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert repr(drop) in err["message"]


PRO_SHIFT = ("left_shift_pro_z2.json", "top-entropy")


@pytest.mark.parametrize(
    "instance, section, edit",
    [
        (PRO_SHIFT, "group", lambda raw: raw.update(group=5)),
        (PRO_SHIFT, "group", lambda raw: raw["group"].update(blocks=[])),
        (PRO_SHIFT, "endo", lambda raw: raw["endo"].update(rows="x")),
        (PRO_SHIFT, "policy", lambda raw: raw["policy"].update(max_n="abc")),
        (PRO_SHIFT, "policy", lambda raw: raw["policy"].update(max_n=float("inf"))),
        (PRO_SHIFT, "cylinders", lambda raw: raw["cylinders"][0].update(window=[0, "q"])),
        # read as range(3, 1), a reversed window would be the whole group
        (PRO_SHIFT, "cylinders", lambda raw: raw["cylinders"][0].update(window=[3, 1])),
        # int() would truncate these: max_n 2, Z/1, a zero matrix, generator [1, 0]
        (PRO_SHIFT, "policy", lambda raw: raw["policy"].update(max_n=2.5)),
        (PRO_SHIFT, "group", lambda raw: raw["group"]["blocks"].update(types=[[True]])),
        (PRO_SHIFT, "endo", lambda raw: raw["endo"].update(rows=[[[1, [[0.5]]]]])),
        (PRO_SHIFT, "cylinders", lambda raw: raw["cylinders"][1].update(core_gens=[[1, 0.9]])),
        # a generator term [index] without its value
        (("bridge_shift_z2.json", "bridge-check"), "family",
         lambda raw: raw["family"][1].update(gens=[[[0, [1]]], [[1]]])),
        # one block index twice: keeping the last entry read F = 0 here
        (("shift_sum_z2.json", "alg-entropy"), "family",
         lambda raw: raw["family"][0].update(gens=[[[0, [1]], [0, [0]]]])),
        # int() would parse these strings: offset 1, max_n 64, Z/2, generator [1, 1]
        (PRO_SHIFT, "endo", lambda raw: raw["endo"].update(offset="1")),
        (PRO_SHIFT, "policy", lambda raw: raw["policy"].update(max_n="6_4")),
        (PRO_SHIFT, "group", lambda raw: raw["group"]["blocks"].update(types=[["2"]])),
        (PRO_SHIFT, "cylinders", lambda raw: raw["cylinders"][1].update(core_gens=[[" 1", 1]])),
        (("shift_sum_z2.json", "alg-entropy"), "family",
         lambda raw: raw["family"][0].update(gens=[[[0, ["1"]]]])),
    ],
    ids=["group-int", "blocks-list", "rows-str", "max_n-str", "max_n-inf", "window-str",
         "window-reversed", "max_n-float", "modulus-bool", "matrix-float", "core-gen-float",
         "gens-short-term", "gens-repeated-index", "offset-str", "max_n-underscore-str",
         "modulus-str", "core-gen-spaced-str", "gens-value-str"],
)
def test_wrong_json_type_exits_validation(tmp_path, capsys, instance, section, edit):
    name, command = instance
    raw = json.loads((INSTANCES / name).read_text())
    edit(raw)
    p = tmp_path / "wrong_type.json"
    p.write_text(json.dumps(raw))
    assert main([command, str(p)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert repr(section) in err["message"]


def test_nonpositive_budget_exits_validation(tmp_path, capsys):
    raw = json.loads((INSTANCES / "left_shift_pro_z2.json").read_text())
    raw["policy"] = {"window_budget": 0}
    p = tmp_path / "budget.json"
    p.write_text(json.dumps(raw))
    assert main(["top-entropy", str(p)]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


@pytest.mark.parametrize("flag", ["--max-n", "--stall"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_budget_flag_exits_validation(capsys, flag, value):
    """A budget flag of 0 reaches the policy like any other value, and is
    rejected there rather than read as absent."""
    path = str(INSTANCES / "left_shift_pro_z2.json")
    assert main(["top-entropy", path, flag, value]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "validation", "message": "policy budgets must be positive"}


HUGE_MAX_N = 10**23


@pytest.mark.parametrize("name, command", [
    ("shift_sum_z2", "alg-entropy"),
    ("left_shift_pro_z2", "top-entropy"),
    ("bridge_shift_z2", "bridge-check"),
    ("depth_shift_z3", "depth"),
])
@pytest.mark.parametrize("verify", [False, True], ids=["main", "verify"])
def test_max_n_beyond_maxsize_exits_validation(tmp_path, capsys, name, command, verify):
    """A step budget that no walk can count to is malformed, for every kind,
    in the instance and in the flag; it used to crash in the stall reader."""
    command = "verify" if verify else command
    path = INSTANCES / f"{name}.json"
    raw = json.loads(path.read_text())
    raw.setdefault("policy", {})["max_n"] = HUGE_MAX_N
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(raw))
    for argv in ([command, str(p)], [command, str(path), "--max-n", str(HUGE_MAX_N)]):
        assert main(argv) == EXIT_VALIDATION
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "validation", "message": f"policy budgets must be at most {sys.maxsize}"}


@pytest.mark.parametrize("key", ["max_n", "stall_window", "window_budget"])
def test_every_budget_is_at_most_maxsize(key):
    StabilizationPolicy(**{key: sys.maxsize})
    with pytest.raises(ValidationError, match="at most"):
        StabilizationPolicy(**{key: sys.maxsize + 1})


def test_top_level_array_exits_validation(tmp_path, capsys):
    p = tmp_path / "array.json"
    p.write_text(json.dumps([{"schema": 1, "kind": "profinite"}]))
    assert main(["top-entropy", str(p)]) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert "list" in err["message"]


def _paths(node, path=()):
    """Every (container, key) place in a JSON tree, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


BUNDLED = [json.loads(p.read_text()) for p in sorted(INSTANCES.glob("*.json"))]


# small values only: a large width or window would make a valid parse slow
json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 12), st.sampled_from((0.5, 2.0, -1.5)),
        st.text("abNZ01", max_size=3),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text("ab", max_size=2), inner, max_size=2)),
    max_leaves=6,
)


def _int_paths(raw):
    """The places of the JSON integers in an instance."""
    return [path for path in _paths(raw) if type(functools.reduce(operator.getitem, path, raw)) is int]


@pytest.mark.parametrize("raw", BUNDLED, ids=[p.stem for p in sorted(INSTANCES.glob("*.json"))])
def test_every_integer_as_a_string_fails_validation(raw):
    """Each JSON integer of a bundled instance, in every section, written as
    the string of its digits, is rejected: the parser reads every integer
    it is given."""
    paths = _int_paths(raw)
    assert paths
    for *parent_path, key in paths:
        mutant = copy.deepcopy(raw)
        parent = functools.reduce(operator.getitem, parent_path, mutant)
        parent[key] = str(parent[key])
        with pytest.raises(ValidationError):
            instance_from_dict(mutant)


@st.composite
def mutants(draw):
    """A bundled instance with one to three places replaced, deleted,
    duplicated or wrapped in a list, an integer replaced by a small
    integer, which keeps the instance's shape so that it often parses, or
    an integer written as a string."""
    raw = copy.deepcopy(draw(st.sampled_from(BUNDLED)))
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(("replace", "delete", "duplicate", "wrap", "small int", "int as str")))
        paths = _int_paths(raw) if action in ("small int", "int as str") else list(_paths(raw))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, parent_path, raw)
        if action == "small int":
            parent[key] = draw(st.integers(-1, 4))
        elif action == "int as str":
            parent[key] = draw(st.sampled_from(("{}", " {}", "{}_0"))).format(parent[key])
        elif action == "replace":
            parent[key] = draw(json_values)
        elif action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key]]
    return raw


@settings(max_examples=400, deadline=None)
@given(mutants())
def test_mutated_instances_parse_or_fail_validation(raw):
    """Every mutant of a bundled instance either parses or is rejected with
    a ValidationError (exit 3 from the CLI); nothing else escapes."""
    try:
        instance_from_dict(raw)
    except ValidationError:
        pass


MAIN_COMMAND = {
    "discrete": "alg-entropy", "profinite": "top-entropy", "bridge": "bridge-check", "depth": "depth",
}


@settings(max_examples=600, deadline=None)
@given(mutants())
def test_parsed_mutants_run_or_fail_documented(raw):
    """Every mutant that parses, run through its kind's command and through
    verify with a small policy, gives a report or fails in a documented
    way: invalid input, an inconclusive run, a failed hypothesis or no
    banded inverse.  Nothing else escapes."""
    try:
        instance_from_dict(raw)
    except ValidationError:
        return
    for command in (MAIN_COMMAND[raw["kind"]], "verify"):
        inst = instance_from_dict(raw)
        p = inst.policy
        inst.policy = StabilizationPolicy(
            min(p.max_n, 8), min(p.stall_window, 3), min(p.window_budget, 8)
        )
        try:
            emit_report(run_command(command, inst))
        except (ValidationError, Inconclusive, HypothesisFailure, InversionFailure):
            pass
