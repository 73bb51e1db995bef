"""Per-layer tracing of entctl from outside the program.

The tracer wraps public functions and methods of the package for the
length of a traced op.  Every wrapped callable counts its calls and its
self time (its own duration minus that of the wrapped callables it calls);
coarse ones also leave one span per call, hot leaves such as
``ZLattice.add`` keep only the counters.  Module-level functions are
re-bound in every module that imported them by name, so calls inside the
package do not escape.  Names that no longer exist are skipped.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

HOT, SPAN = False, True


def _width_bucket(width: int) -> str:
    if width <= 8:
        return "w_le8"
    if width <= 32:
        return "w9_32"
    return "w_gt32"


def _policy_of(args, kwargs, position):
    policy = kwargs.get("policy", args[position] if len(args) > position else None)
    if policy is None:
        from entctl.values import DEFAULT_POLICY

        policy = DEFAULT_POLICY
    return policy


def _hom_image(tr, args, kwargs, result, self_s, elapsed):
    tr.add(f"finabel.Hom.image.self_s.{_width_bucket(args[0].source.rank)}", self_s)


def _congruence_kernel(tr, args, kwargs, result, self_s, elapsed):
    width = args[1] + len(args[0])
    tr.add(f"lattice.congruence_kernel.self_s.{_width_bucket(width)}", self_s)


def _window_map(tr, args, kwargs, result, self_s, elapsed):
    if tr.parent_name() == "profinite.surjective_on_windows":
        tr.add("profinite.surjective_on_windows.windows", 1)


def _surjective(tr, args, kwargs, result, self_s, elapsed):
    tr.add("profinite.surjective_on_windows.true_count", int(bool(result)))


def _chain_report(prefix, policy_position):
    """Steps, certified share and budget exhaustion of a chain report: a
    chain that ran to ``policy.max_n`` without certifying ran out of budget."""

    def hook(tr, args, kwargs, result, self_s, elapsed):
        tr.add(f"{prefix}.steps", result.n_max)
        tr.add(f"{prefix}.certified", int(result.certified))
        max_n = _policy_of(args, kwargs, policy_position).max_n
        tr.add(f"{prefix}.budget_exhausted", int(not result.certified and result.n_max == max_n))

    return hook


def _antistable(tr, args, kwargs, result, self_s, elapsed):
    # unknown is the only verdict reached by exhausting max_n
    if result.status == "unknown":
        tr.add("depth.antistable_check.budget_exhausted", 1)
        tr.add("depth.antistable_check.budget_exhausted_s", elapsed)
    else:
        tr.add("depth.antistable_check.decided", 1)


# (module, qualified name, span or hot, hook)
TARGETS = (
    ("cli", "parse_instance", SPAN, None),
    ("cli", "instance_from_dict", SPAN, None),
    ("cli", "emit_report", SPAN, None),
    ("lattice", "ZLattice.add", HOT, None),
    ("lattice", "ZLattice.normalize", HOT, None),
    ("lattice", "congruence_kernel", HOT, _congruence_kernel),
    ("lattice", "smith_normal_form", HOT, None),
    ("finabel", "canonical_subgroup", HOT, None),
    ("finabel", "hom_validate", HOT, None),
    ("finabel", "Hom.image", HOT, _hom_image),
    ("finabel", "Hom.preimage", HOT, None),
    ("finabel", "AbSubgroup.intersect_with", HOT, None),
    ("gengroup", "cayley_group", SPAN, None),
    ("discrete", "BandedEndo.apply", HOT, None),
    ("discrete", "trajectory_limits", SPAN, _chain_report("discrete.trajectory_limits", 2)),
    ("profinite", "RowFiniteEndo.window_map", HOT, _window_map),
    ("profinite", "RowFiniteEndo.preimage_cylinder", HOT, None),
    ("profinite", "CylinderSubgroup.intersect", HOT, None),
    ("profinite", "cotrajectory_limits", SPAN, _chain_report("profinite.cotrajectory_limits", 2)),
    ("profinite", "surjective_on_windows", SPAN, _surjective),
    ("profinite", "cotrajectory_exact", SPAN, None),
    ("profinite", "kernel_order", SPAN, None),
    ("profinite", "cokernel_order", SPAN, None),
    ("profinite", "quotient_system", SPAN, None),
    ("profinite", "log_law_check", SPAN, None),
    ("duality", "annihilator", HOT, None),
    ("duality", "bridge", SPAN, None),
    ("duality", "weiss_bridge_check", SPAN, None),
    ("depth", "invert", SPAN, None),
    ("depth", "antistable_check", SPAN, _antistable),
    ("depth", "plus_minus", SPAN, None),
    ("depth", "depth_report", SPAN, None),
)


class Tracer:
    """Counters and spans for the wrapped callables, kept in memory."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op = 0
        # one frame per active wrapped call: [child time, span id, name]
        self._stack: list[list] = []
        self._next_span = 0
        self._patches: list[tuple] = []

    def add(self, key: str, value) -> None:
        self.totals[key] += value

    def parent_name(self):
        return self._stack[-1][2] if self._stack else None

    def _wrap(self, name, fn, span, hook):
        stack, totals, spans = self._stack, self.totals, self.spans
        calls_key, self_key, total_key = f"{name}.calls", f"{name}.self_s", f"{name}.total_s"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = parent[1] if parent else None
            if span:
                self._next_span += 1
                sid = self._next_span
            frame = [0.0, sid, name]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                self_s = elapsed - frame[0]
                totals[calls_key] += 1
                totals[self_key] += self_s
                totals[total_key] += elapsed
                if parent is not None:
                    parent[0] += elapsed
                if span:
                    spans.append((sid, parent[1] if parent else None, self.op, name, t0, elapsed))
            if hook is not None:
                hook(self, args, kwargs, result, self_s, elapsed)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, package: str = "entctl") -> None:
        """Wrap every target that exists in the loaded package."""
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for mod_name, qualname, span, hook in TARGETS:
            owner = sys.modules.get(f"{package}.{mod_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                continue
            wrapper = self._wrap(f"{mod_name}.{qualname}", original, span, hook)
            self._patch(owner, attr, original, wrapper)
            if path:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """One JSON line per span: id, parent id, op, name, start, duration."""
        keys = ("id", "parent", "op", "name", "start_s", "dur_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# name, unit, better; "calls"-like counts and self times are per pass.
PER_LAYER = (
    ("finabel.Hom.image.calls", "count", "lower"),
    ("finabel.Hom.image.self_s", "s", "lower"),
    ("finabel.Hom.image.self_s.w_le8", "s", "lower"),
    ("finabel.Hom.image.self_s.w9_32", "s", "lower"),
    ("finabel.Hom.image.self_s.w_gt32", "s", "lower"),
    ("profinite.surjective_on_windows.calls", "count", "lower"),
    ("profinite.surjective_on_windows.self_s", "s", "lower"),
    ("profinite.surjective_on_windows.total_s", "s", "lower"),
    ("profinite.surjective_on_windows.windows", "count", "lower"),
    ("profinite.surjective_on_windows.true_count", "count", "higher"),
    ("lattice.ZLattice.add.calls", "count", "lower"),
    ("lattice.ZLattice.add.self_s", "s", "lower"),
    ("lattice.ZLattice.normalize.self_s", "s", "lower"),
    ("lattice.congruence_kernel.calls", "count", "lower"),
    ("lattice.congruence_kernel.self_s", "s", "lower"),
    ("lattice.congruence_kernel.self_s.w_le8", "s", "lower"),
    ("lattice.congruence_kernel.self_s.w9_32", "s", "lower"),
    ("lattice.congruence_kernel.self_s.w_gt32", "s", "lower"),
    ("lattice.smith_normal_form.calls", "count", "lower"),
    ("lattice.smith_normal_form.self_s", "s", "lower"),
    ("finabel.canonical_subgroup.calls", "count", "lower"),
    ("finabel.canonical_subgroup.self_s", "s", "lower"),
    ("finabel.Hom.preimage.calls", "count", "lower"),
    ("finabel.Hom.preimage.self_s", "s", "lower"),
    ("finabel.AbSubgroup.intersect_with.self_s", "s", "lower"),
    ("finabel.hom_validate.self_s", "s", "lower"),
    ("profinite.RowFiniteEndo.window_map.calls", "count", "lower"),
    ("profinite.RowFiniteEndo.window_map.self_s", "s", "lower"),
    ("profinite.RowFiniteEndo.preimage_cylinder.calls", "count", "lower"),
    ("profinite.RowFiniteEndo.preimage_cylinder.self_s", "s", "lower"),
    ("profinite.CylinderSubgroup.intersect.self_s", "s", "lower"),
    ("profinite.cotrajectory_limits.calls", "count", "lower"),
    ("profinite.cotrajectory_limits.self_s", "s", "lower"),
    ("profinite.cotrajectory_limits.steps", "count", "lower"),
    ("profinite.cotrajectory_limits.certified_ratio", "ratio", "higher"),
    ("profinite.cotrajectory_limits.budget_exhausted", "count", "lower"),
    ("profinite.cotrajectory_exact.self_s", "s", "lower"),
    ("profinite.kernel_order.self_s", "s", "lower"),
    ("profinite.cokernel_order.self_s", "s", "lower"),
    ("profinite.quotient_system.self_s", "s", "lower"),
    ("profinite.log_law_check.self_s", "s", "lower"),
    ("discrete.trajectory_limits.calls", "count", "lower"),
    ("discrete.trajectory_limits.self_s", "s", "lower"),
    ("discrete.trajectory_limits.steps", "count", "lower"),
    ("discrete.trajectory_limits.certified_ratio", "ratio", "higher"),
    ("discrete.trajectory_limits.budget_exhausted", "count", "lower"),
    ("discrete.BandedEndo.apply.self_s", "s", "lower"),
    ("duality.bridge.self_s", "s", "lower"),
    ("duality.annihilator.self_s", "s", "lower"),
    ("duality.weiss_bridge_check.self_s", "s", "lower"),
    ("gengroup.cayley_group.calls", "count", "lower"),
    ("gengroup.cayley_group.self_s", "s", "lower"),
    ("depth.invert.self_s", "s", "lower"),
    ("depth.antistable_check.calls", "count", "lower"),
    ("depth.antistable_check.self_s", "s", "lower"),
    ("depth.antistable_check.decided_ratio", "ratio", "higher"),
    ("depth.antistable_check.budget_exhausted", "count", "lower"),
    ("depth.antistable_check.budget_exhausted_s", "s", "lower"),
    ("depth.plus_minus.self_s", "s", "lower"),
    ("depth.depth_report.self_s", "s", "lower"),
    ("cli.parse_instance.self_s", "s", "lower"),
    ("cli.instance_from_dict.self_s", "s", "lower"),
    ("cli.emit_report.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)

_RATIOS = {
    "profinite.cotrajectory_limits.certified_ratio": (
        "profinite.cotrajectory_limits.certified", "profinite.cotrajectory_limits.calls"),
    "discrete.trajectory_limits.certified_ratio": (
        "discrete.trajectory_limits.certified", "discrete.trajectory_limits.calls"),
    "depth.antistable_check.decided_ratio": (
        "depth.antistable_check.decided", "depth.antistable_check.calls"),
}


def layer_metrics(totals, passes: int, overhead: float) -> dict:
    """The PER_LAYER metrics: counts and times per pass, ratios over calls.

    A layer the workload never reaches reads 0 (a ratio over no calls too).
    """
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace_overhead_frac":
            value = overhead
        elif name in _RATIOS:
            num, den = _RATIOS[name]
            value = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        else:
            value = totals.get(name, 0) / passes
        out[name] = {"value": value, "unit": unit}
    return out
