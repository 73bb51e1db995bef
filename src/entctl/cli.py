"""Instance files, command dispatch, and structured reports.

Instances are JSON with a versioned schema; every group, endomorphism and
subgroup in the file is validated eagerly at parse time.  Reports carry
exact integers and rationals only; the single float rendering lives in an
"approx" string field.  JSON output is canonical (sorted keys, fixed
separators), so identical instances produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from . import depth as depth_mod
from . import discrete, duality, profinite
from .errors import (
    HypothesisFailure,
    Inconclusive,
    InversionFailure,
    ValidationError,
)
from .finabel import FiniteAbelianGroup
from .gengroup import cayley_group
from .values import CheckRecord, EntropyValue, StabilizationPolicy

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_VALIDATION = 3
EXIT_HYPOTHESIS = 4
EXIT_INTERNAL = 5


@dataclass
class Instance:
    kind: str
    policy: StabilizationPolicy
    group: object
    endo: object
    family: list
    cylinders: list


def _int(value) -> int:
    """An integer field of an instance: a JSON integer and nothing else.
    ``int`` would truncate a float (2.5 -> 2), read true as 1 and parse the
    strings "1", "6_4" and " 1", so all of these are malformed; the section
    names the field's place."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return value


def _block_from_spec(spec):
    if isinstance(spec, dict) and "cayley" in spec:
        return cayley_group([[_int(x) for x in row] for row in spec["cayley"]])
    if isinstance(spec, list):
        return FiniteAbelianGroup(tuple(_int(d) for d in spec))
    raise ValidationError(f"bad block spec {spec!r}")


def _parse_element(spec, abelian: bool) -> dict:
    out = {}
    for item in spec:
        idx, val = _int(item[0]), item[1]
        if idx in out:
            # keeping either entry would make the element depend on the order
            raise ValueError(f"block index {idx} appears twice in one element")
        out[idx] = tuple(_int(x) for x in val) if abelian else _int(val)
    return out


def _parse_policy(spec: dict | None) -> StabilizationPolicy:
    spec = spec or {}
    return StabilizationPolicy(
        max_n=_int(spec.get("max_n", 64)),
        stall_window=_int(spec.get("stall_window", 3)),
        window_budget=_int(spec.get("window_budget", 32)),
    )


def _parse_discrete_group(gspec: dict) -> discrete.LFGroup:
    if gspec.get("index_set", "N") != "N":
        raise ValidationError("restricted sums are indexed by N: index_set must be 'N'")
    blocks = gspec["blocks"]
    prefix = [_block_from_spec(b) for b in blocks.get("prefix", [])]
    period = [_block_from_spec(b) for b in blocks["types"]]
    if _int(blocks.get("period", len(period))) != len(period):
        raise ValidationError("blocks.period must equal the number of types")
    return discrete.locally_finite_group(prefix, period)


def _parse_pro_group(gspec: dict) -> profinite.ProGroup:
    blocks = gspec["blocks"]
    prefix = [_block_from_spec(b) for b in blocks.get("prefix", [])]
    period = [_block_from_spec(b) for b in blocks["types"]]
    if _int(blocks.get("period", len(period))) != len(period):
        raise ValidationError("blocks.period must equal the number of types")
    for b in prefix + period:
        if not isinstance(b, FiniteAbelianGroup):
            raise ValidationError("profinite blocks must be abelian")
    return profinite.pro_group(prefix, period, gspec.get("index_set", "N"))


def _parse_banded_endo(group: discrete.LFGroup, espec: dict) -> discrete.BandedEndo:
    images = []
    for res in espec["images"]:
        res_images = []
        for gen_terms in res:
            terms = []
            for term in gen_terms:
                o, val = term
                if group.is_abelian:
                    terms.append((_int(o), tuple(_int(x) for x in val)))
                else:
                    terms.append((_int(o), _int(val)))
            res_images.append(terms)
        images.append(res_images)
    return discrete.banded_endo(
        group, _int(espec["offset"]), _int(espec["width"]),
        _int(espec.get("period", len(images))), images,
    )


def _parse_rowfinite_endo(group: profinite.ProGroup, espec: dict) -> profinite.RowFiniteEndo:
    def parse_rows(rows_spec):
        rows = []
        for res in rows_spec:
            terms = []
            for term in res:
                o, mat = term
                terms.append((_int(o), [[_int(x) for x in r] for r in mat]))
            rows.append(terms)
        return rows

    rows = parse_rows(espec["rows"])
    prefix_rows = parse_rows(espec.get("prefix_rows", []))
    return profinite.rowfinite_endo(
        group, _int(espec["offset"]), _int(espec["width"]),
        _int(espec.get("period", len(rows))), rows, prefix_rows,
    )


def _parse_cylinder(group: profinite.ProGroup, spec: dict) -> profinite.CylinderSubgroup:
    if "window_indices" in spec:
        idx = [_int(i) for i in spec["window_indices"]]
    else:
        window = spec.get("window", [])
        if len(window) not in (0, 2):
            raise ValidationError("window must be a [lo, hi) pair or window_indices a list")
        lo, hi = (_int(window[0]), _int(window[1])) if window else (0, 0)
        if lo > hi:
            raise ValueError(f"window [{lo}, {hi}) is reversed")
        idx = list(range(lo, hi))
    gens = [[_int(x) for x in g] for g in spec.get("core_gens", [])]
    return profinite.cylinder(group, idx, gens)


def parse_instance(path: str) -> Instance:
    """Load and eagerly validate an instance file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return instance_from_dict(raw)


def instance_from_dict(raw: dict) -> Instance:
    if not isinstance(raw, dict):
        raise ValidationError(f"an instance must be a JSON object, got {type(raw).__name__}")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema {raw.get('schema')!r}")
    kind = raw.get("kind")
    if kind not in ("discrete", "profinite", "bridge", "depth"):
        raise ValidationError(f"unknown kind {kind!r}")
    with _section("policy"):
        policy = _parse_policy(raw.get("policy"))
    family: list = []
    cylinders: list = []
    if kind in ("discrete", "bridge"):
        with _section("group"):
            group = _parse_discrete_group(raw["group"])
        with _section("endo"):
            endo = _parse_banded_endo(group, raw["endo"])
        with _section("family"):
            for fspec in raw.get("family", []):
                family.append([_parse_element(g, group.is_abelian) for g in fspec["gens"]])
        if kind == "bridge" and not group.is_abelian:
            raise ValidationError("bridge instances must be abelian")
    else:
        with _section("group"):
            group = _parse_pro_group(raw["group"])
        with _section("endo"):
            endo = _parse_rowfinite_endo(group, raw["endo"])
        with _section("cylinders"):
            for cspec in raw.get("cylinders", []):
                cylinders.append(_parse_cylinder(group, cspec))
        if kind == "depth" and group.index_set != "Z":
            raise ValidationError("depth instances need a Z-indexed group")
    return Instance(kind, policy, group, endo, family, cylinders)


@contextmanager
def _section(name: str):
    """Turn a missing key or a value of the wrong JSON type in one section of
    an instance into a ValidationError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"instance is missing the key {exc.args[0]!r}") from exc
    except ValidationError:
        raise
    except (TypeError, ValueError, AttributeError, OverflowError, IndexError) as exc:
        raise ValidationError(f"malformed {name!r} section: {exc}") from exc


@dataclass
class Report:
    command: str
    kind: str
    results: list
    status: str  # ok | inconclusive | hypothesis_failure

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "kind": self.kind,
            "status": self.status,
            "results": self.results,
        }


def _trajectory_result(idx: int, rep: discrete.TrajectoryReport) -> dict:
    out = {
        "subgroup": idx,
        "status": rep.status,
        "orders": list(rep.orders),
        "indices": list(rep.alphas),
        "f_order": rep.f_order,
    }
    if rep.certified:
        out.update(
            {
                "n0": rep.n0,
                "alpha": rep.alpha,
                "t_mod_phi_t": rep.t_mod_phi_t,
                "ker_cap_t": rep.ker_cap_t,
                "entropy": rep.entropy.to_json(),
                "entropy_limit": rep.entropy_limit.to_json(),
                "yuzvinski_gap": rep.yuzvinski_gap.to_json(),
            }
        )
    return out


def _cotrajectory_result(idx: int, rep: profinite.CotrajectoryReport) -> dict:
    out = {
        "subgroup": idx,
        "status": rep.status,
        "c": list(rep.c),
        "indices": list(rep.alphas),
    }
    if rep.certified:
        out.update(
            {
                "n0": rep.n0,
                "n1": rep.n1,
                "alpha": rep.alpha,
                "psi_inv_c_mod_c": rep.psi_inv_c_mod_c,
                "k_mod_l": rep.k_mod_l,
                "entropy": rep.entropy.to_json(),
                "entropy_limit": rep.entropy_limit.to_json(),
            }
        )
    return out


def run_command(cmd: str, inst: Instance, method: str | None = None) -> Report:
    """Dispatch a command against a parsed instance.  The only method is
    "surjective", for top-entropy."""
    compatible = {
        "alg-entropy": ("discrete",),
        "top-entropy": ("profinite",),
        "bridge-check": ("bridge",),
        "depth": ("depth",),
        "verify": ("discrete", "profinite", "bridge", "depth"),
    }
    if cmd not in compatible:
        raise ValidationError(f"unknown command {cmd!r}")
    if inst.kind not in compatible[cmd]:
        raise ValidationError(f"command {cmd!r} incompatible with kind {inst.kind!r}")
    if method not in (None, "surjective"):
        raise ValidationError(f"unknown method {method!r}")
    if method is not None and cmd != "top-entropy":
        raise ValidationError(f"--method applies only to top-entropy, not to {cmd!r}")

    if cmd == "alg-entropy":
        return _run_alg_entropy(inst)
    if cmd == "top-entropy":
        return _run_top_entropy(inst, surjective=method == "surjective")
    if cmd == "bridge-check":
        return _run_bridge(inst)
    if cmd == "depth":
        return _run_depth(inst)
    return _run_verify(inst)


def _status_of(results) -> str:
    """The report status: a result's status, and any failed check, even in a
    result without a status (the depth summary), is read."""
    statuses = [r.get("status", "ok") for r in results]
    if any(s == "hypothesis_failure" for s in statuses):
        return "hypothesis_failure"
    if any(s == "inconclusive" for s in statuses) or any(
        not c["ok"] for r in results for c in r.get("checks", ())
    ):
        return "inconclusive"
    return "ok"


def _run_alg_entropy(inst: Instance) -> Report:
    reps = [discrete.trajectory_limits(inst.endo, gens, inst.policy) for gens in inst.family]
    results = [_trajectory_result(i, rep) for i, rep in enumerate(reps)]
    report = Report("alg-entropy", inst.kind, results, _status_of(results))
    if reps and all(rep.certified for rep in reps):
        best = max(rep.entropy for rep in reps)
        report.results.append({"h_alg_lower_bound": best.to_json()})
    return report


def _run_top_entropy(inst: Instance, surjective: bool) -> Report:
    reps = [profinite.cotrajectory_limits(inst.endo, cyl, inst.policy) for cyl in inst.cylinders]
    results = [_cotrajectory_result(i, rep) for i, rep in enumerate(reps)]
    for rep, out in zip(reps, results):
        if not (surjective and rep.certified):
            continue
        # the one-term form log [psi^{-1}(U_-) : U_-], valid for surjective maps
        error = "surjective method requires a surjective endomorphism"
        if not profinite.surjective_on_windows(inst.endo, inst.policy):
            out["entropy_surjective_error"] = error
        elif rep.k_mod_l != 1:
            # the windows were onto up to the budget, but a certified
            # [K : Im(psi) C] > 1 disproves surjectivity
            out["entropy_surjective_error"] = f"{error}: [K : Im(psi) C] = {rep.k_mod_l}"
        else:
            out["entropy_surjective"] = EntropyValue.of_log(rep.psi_inv_c_mod_c).to_json()
    report = Report("top-entropy", inst.kind, results, _status_of(results))
    if reps and all(rep.certified for rep in reps):
        best = max(rep.entropy for rep in reps)
        report.results.append({"h_top_lower_bound": best.to_json()})
    return report


def _records_json(records) -> list:
    return [r.to_json() for r in records]


def _run_bridge(inst: Instance) -> Report:
    rep = duality.weiss_bridge_check(inst.group, inst.endo, inst.family, inst.policy)
    results = [
        {"subgroup": i, "status": "certified" if ok else "inconclusive", "checks": _records_json(records)}
        for i, (records, ok) in enumerate(rep.entries)
    ]
    results.append(
        {"h_alg": rep.h_alg_value.to_json(), "h_top": rep.h_top_value.to_json(), "bridge_equal": rep.ok}
    )
    return Report("bridge-check", inst.kind, results, "ok" if rep.ok else "inconclusive")


def _run_depth(inst: Instance) -> Report:
    rep = depth_mod.depth_report(inst.endo, inst.cylinders, inst.policy)
    results = [
        {"candidate": i, "status": cand.status, "depth_via_minus": cand.depth_via_minus,
         "depth_via_plus": cand.depth_via_plus}
        for i, cand in enumerate(rep.candidates)
    ]
    results.append(
        {
            "depth": rep.depth,
            "depth_inverse": rep.depth_inverse,
            "h_top": rep.h_top_value.to_json(),
            "inverse_band": {
                "offset": rep.inverse.offset,
                "width": rep.inverse.width,
                "period": rep.inverse.period,
            },
            "checks": _records_json(rep.checks),
        }
    )
    ok = all(c.ok for c in rep.checks)
    return Report("depth", inst.kind, results, "ok" if ok else "inconclusive")


def _verify_discrete(inst: Instance) -> list:
    def one(idx, gens):
        rep = discrete.trajectory_limits(inst.endo, gens, inst.policy)
        checks = []
        if inst.group.is_abelian:
            div_ok = all(
                rep.alphas[i] % rep.alphas[i + 1] == 0 for i in range(len(rep.alphas) - 1)
            )
            checks.append(CheckRecord("index_divisibility_chain", div_ok))
        if rep.certified:
            lf = rep.entropy.log_of
            checks.append(
                CheckRecord("limit_equals_limitfree", lf == rep.alpha, lhs=lf, rhs=rep.alpha)
            )
            if rep.ker_cap_t == 1:
                checks.append(
                    CheckRecord("injective_one_term_formula",
                                rep.t_mod_phi_t == rep.alpha,
                                lhs=rep.t_mod_phi_t, rhs=rep.alpha)
                )
            else:
                checks.append(
                    CheckRecord("uncorrected_formula_gap_expected",
                                rep.t_mod_phi_t > rep.alpha,
                                lhs=rep.t_mod_phi_t, rhs=rep.alpha,
                                note="gap between log|T/phi T| and the entropy")
                )
        out = _trajectory_result(idx, rep)
        out["checks"] = _records_json(checks)
        if not all(c.ok for c in checks):
            out["status"] = "inconclusive"
        return out

    return [one(i, gens) for i, gens in enumerate(inst.family)]


def _verify_profinite(inst: Instance) -> list:
    def one(idx, cyl):
        rep = profinite.cotrajectory_limits(inst.endo, cyl, inst.policy)
        checks = []
        div_c = all(rep.c[i + 1] % rep.c[i] == 0 for i in range(len(rep.c) - 1))
        div_a = all(
            rep.alphas[i] % rep.alphas[i + 1] == 0 for i in range(len(rep.alphas) - 1)
        )
        checks.append(CheckRecord("c_divisibility_chain", div_c))
        checks.append(CheckRecord("alpha_divisibility_chain", div_a))
        if rep.certified:
            lf = rep.entropy.log_of
            checks.append(
                CheckRecord("limit_equals_limitfree", lf == rep.alpha, lhs=lf, rhs=rep.alpha)
            )
            if profinite.surjective_on_windows(inst.endo, inst.policy):
                checks.append(
                    CheckRecord("surjective_one_term_formula",
                                rep.psi_inv_c_mod_c == rep.alpha and rep.k_mod_l == 1,
                                lhs=rep.psi_inv_c_mod_c, rhs=rep.alpha)
                )
                checks.append(profinite.log_law_check(inst.endo, cyl, 2, inst.policy))
            try:
                qs = profinite.quotient_system(inst.endo, cyl, inst.policy)
                checks.extend(qs.checks)
            except Inconclusive as exc:
                checks.append(CheckRecord("quotient_system", True, note=str(exc)))
        out = _cotrajectory_result(idx, rep)
        out["checks"] = _records_json(checks)
        if not all(c.ok for c in checks):
            out["status"] = "inconclusive"
        return out

    return [one(i, cyl) for i, cyl in enumerate(inst.cylinders)]


def _run_verify(inst: Instance) -> Report:
    if inst.kind == "discrete":
        results = _verify_discrete(inst)
    elif inst.kind == "profinite":
        results = _verify_profinite(inst)
    elif inst.kind == "bridge":
        results = _run_bridge(inst).results
    else:
        results = _run_depth(inst).results
    return Report("verify", inst.kind, results, _status_of(results))


def emit_report(report: Report, fmt: str = "json") -> str:
    """Render a report; json output is canonical and byte-stable."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    if fmt != "text":
        raise ValidationError(f"unknown format {fmt!r}")
    lines = [f"{report.command} [{report.kind}] status={report.status}"]
    for r in report.results:
        lines.append("  " + json.dumps(r, sort_keys=True, default=str))
    return "\n".join(lines) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_VALIDATION, as malformed instances do,
    not with argparse's 2, which entctl reserves for inconclusive runs."""

    def error(self, message):
        raise ValidationError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="entctl",
        description="Exact algebraic/topological entropy and depth computations",
    )
    parser.add_argument(
        "command",
        choices=["alg-entropy", "top-entropy", "bridge-check", "depth", "verify"],
    )
    parser.add_argument("instance", help="path to an instance JSON file")
    parser.add_argument("--method", choices=["surjective"], help="top-entropy only")
    parser.add_argument("--max-n", type=int, dest="max_n")
    parser.add_argument("--stall", type=int)
    parser.add_argument("--format", choices=["text", "json"], default="json")
    try:
        args = parser.parse_args(argv)
        inst = parse_instance(args.instance)
        if args.max_n is not None or args.stall is not None:
            inst.policy = StabilizationPolicy(
                max_n=inst.policy.max_n if args.max_n is None else args.max_n,
                stall_window=inst.policy.stall_window if args.stall is None else args.stall,
                window_budget=inst.policy.window_budget,
            )
        report = run_command(args.command, inst, method=args.method)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return EXIT_VALIDATION
    except (HypothesisFailure, InversionFailure) as exc:
        print(json.dumps({"error": "hypothesis", "message": str(exc)}), file=sys.stderr)
        return EXIT_HYPOTHESIS
    except Inconclusive as exc:
        print(json.dumps({"error": "inconclusive", "message": str(exc)}), file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except AssertionError as exc:
        # a library invariant broke: a defect in entctl, not in the instance
        print(json.dumps({"error": "internal", "message": str(exc)}), file=sys.stderr)
        return EXIT_INTERNAL

    sys.stdout.write(emit_report(report, args.format))
    if report.status == "hypothesis_failure":
        return EXIT_HYPOTHESIS
    if report.status != "ok":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
