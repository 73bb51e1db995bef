"""Correctness checks on the canonical reports, as a user receives them.

Each check reads the emitted JSON only; none of them recomputes the value
it checks with the code under test.
"""

from __future__ import annotations

from fractions import Fraction


def _divides_up(seq):
    return all(b % a == 0 for a, b in zip(seq, seq[1:]))


def _divides_down(seq):
    return all(a % b == 0 for a, b in zip(seq, seq[1:]))


def _entry_problems(entry, abelian):
    problems = []
    if "c" in entry:
        if not _divides_up(entry["c"]):
            problems.append("c chain is not a divisibility chain")
        if not _divides_down(entry["indices"]):
            problems.append("cotrajectory indices are not a divisibility chain")
    if "orders" in entry:
        if not _divides_up(entry["orders"]):
            problems.append("trajectory orders are not a divisibility chain")
        if abelian and not _divides_down(entry["indices"]):
            problems.append("trajectory indices are not a divisibility chain")
    if entry.get("status") == "certified" and "alpha" in entry:
        num, den = (
            (entry["t_mod_phi_t"], entry["ker_cap_t"])
            if "t_mod_phi_t" in entry
            else (entry["psi_inv_c_mod_c"], entry["k_mod_l"])
        )
        if Fraction(num, den) != entry["alpha"] or entry["entropy"] != entry["entropy_limit"]:
            problems.append("certified limit differs from limitfree")
        if "entropy_surjective" in entry and entry["entropy_surjective"] != entry["entropy"]:
            problems.append("surjective one-term entropy differs from limitfree")
    if entry.get("status") == "antistable" and entry["depth_via_minus"] != entry["depth_via_plus"]:
        problems.append("depth_via_minus differs from depth_via_plus")
    return problems


def report_problems(report: dict, abelian: bool) -> list[str]:
    """Violations of the invariants every report must satisfy.

    A bridge the report itself declares not to hold (status inconclusive)
    is a documented outcome, not a violation; one it declares to hold must
    have h_alg == h_top.  A report with status ok must pass all its checks.
    """
    problems = []
    for entry in report["results"]:
        problems += _entry_problems(entry, abelian)
        if "bridge_equal" in entry and report["status"] == "ok":
            if not entry["bridge_equal"] or entry["h_alg"] != entry["h_top"]:
                problems.append("certified bridge with h_alg != h_top")
        if report["status"] == "ok":
            if not all(c["ok"] for c in entry.get("checks", [])):
                problems.append("status ok with a failed check")
    return problems


def bridge_contradictions(report: dict) -> int:
    """Bridge entries where both sides certified yet the entropies differ.

    Two certified exact values of one quantity that disagree mean one
    certificate is wrong; the report marks the entry inconclusive.
    """
    count = 0
    for entry in report["results"]:
        checks = {c["name"]: c["ok"] for c in entry.get("checks", [])}
        if checks.get("both_sides_certified") and checks.get("entropies_equal") is False:
            count += 1
    return count
