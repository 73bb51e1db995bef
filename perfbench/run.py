"""entctl benchmark: one workload per run, one client in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/entctl`` and
``instances/``; it imports the package from ``src`` and nothing else.
Every op takes the path a CLI user takes: ``cli.parse_instance`` (bundled
files) or ``cli.instance_from_dict`` (generated cases), then
``cli.run_command`` with default arguments, then ``cli.emit_report``.

A run sets up (imports entctl and builds the inputs, several times), then
repeats passes over the workload's ops until ``--seconds`` is used up.  An
op's latency is its median over the passes of its time at reference speed
(see REF_S); an op under REPEAT_S counts the fastest of its repeated runs.
Every report is checked (see checks.py) and must be byte-identical in
every pass.  With ``--trace 0`` the result carries the end-to-end metrics;
with ``--trace 1`` every pass runs untraced and then traced, and the result
carries the per-layer metrics (see tracer.py), whose spans are written to
``.bench_trace/`` in the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it start with
``#`` and give sample counts, the report digest and the number of bridge
contradictions.  ``failed / attempted`` is the failure share.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INSTANCES = ROOT / "instances"
TRACE_DIR = ROOT / ".bench_trace"

WORKLOADS = ("bundled", *gen.SWEEPS)
MAIN_COMMAND = {
    "discrete": "alg-entropy",
    "profinite": "top-entropy",
    "bridge": "bridge-check",
    "depth": "depth",
}
SETUP_REPS = 5
REPEAT_S = 0.01
# A shared machine runs this process up to twice as slow for seconds at a
# time.  A fixed pure-Python loop, timed next to every op, gives the current
# speed, and times are reported at the reference speed: the speed at which
# the loop takes REF_S, its fastest time on the machine of the baseline.
REF_ITERS = 10_000
REF_S = 0.0014
# the only HypothesisFailure a depth run documents as an outcome
NO_ANTISTABLE = "no candidate certified antistable"

perf = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=0,
        help="run only the first N ops of each pass (smoke tests); 0 runs all",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_entctl():
    """A fresh import of the package from the checkout's src."""
    for name in [n for n in sys.modules if n == "entctl" or n.startswith("entctl.")]:
        del sys.modules[name]
    cli = importlib.import_module("entctl.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"entctl imported from {cli.__file__}, not from {SRC}")
    return cli


def load_ops(workload, seed):
    """The ops of one pass as (command, method, instance dict, file or None).

    The bundled workload is the files in instances/, each with its main
    command and with verify; the seed selects nothing there.
    """
    if workload != "bundled":
        return [(op.command, op.method, op.instance, None) for op in gen.SWEEPS[workload](seed)]
    ops = []
    for path in sorted(INSTANCES.glob("*.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        ops.append((MAIN_COMMAND[raw["kind"]], None, raw, path))
        ops.append(("verify", None, raw, path))
    return ops


def ref_time():
    """The reference loop's fastest time over three runs."""
    best = float("inf")
    for _ in range(3):
        t0 = perf()
        acc, seen = 0, {}
        for i in range(REF_ITERS):
            acc = (acc * 31 + i) % 1_000_003
            seen[i & 1023] = acc
        best = min(best, perf() - t0)
    return best


def at_reference_speed(elapsed, ref_before, ref_after):
    return elapsed * REF_S * 2 / (ref_before + ref_after)


def setup(workload, seed):
    """Import and build the inputs SETUP_REPS times; the inputs must repeat."""
    times, ops = [], None
    for _ in range(SETUP_REPS):
        ref_before = ref_time()
        t0 = perf()
        cli = import_entctl()
        built = load_ops(workload, seed)
        times.append(at_reference_speed(perf() - t0, ref_before, ref_time()))
        if ops is not None and built != ops:
            raise SystemExit("the same seed built different inputs")
        ops = built
    if not ops:
        raise SystemExit(f"workload {workload} has no ops (is {INSTANCES} there?)")
    return cli, ops, statistics.median(times)


class Verdicts:
    """Antistability verdicts of the current op, to tell a decided depth
    question (every candidate certified either way) from an unknown one.
    This one wrapper stays on in untraced runs; it runs once per candidate."""

    def __init__(self, depth_mod):
        self.log = []
        original = depth_mod.antistable_check

        def observed(*args, **kwargs):
            cert = original(*args, **kwargs)
            self.log.append(cert.status)
            return cert

        depth_mod.antistable_check = observed


def run_op(cli, op):
    command, method, raw, path = op
    inst = cli.parse_instance(str(path)) if path else cli.instance_from_dict(raw)
    return cli.emit_report(cli.run_command(command, inst, method=method), "json")


def time_op(cli, op, repeat_s):
    """(latency, (report, exception)) of one op.

    An op faster than ``repeat_s`` runs again until its runs fill it, and
    the fastest run counts: a millisecond op loses a whole scheduler slice
    to a busy neighbour.  The first run's outcome is the one kept.
    """
    spent, latency, outcome = 0.0, None, None
    while outcome is None or spent < repeat_s:
        t0 = perf()
        try:
            result = (run_op(cli, op), None)
        except Exception as e:  # every outcome is classified after timing
            result = (None, e)
        elapsed = perf() - t0
        spent += elapsed
        if outcome is None:
            latency, outcome = elapsed, result
        latency = min(latency, elapsed)
    return latency, outcome


def run_pass(cli, ops, verdicts, repeat_s, tr=None):
    """Every op once: (wall time, latencies at reference speed, speeds, outcomes)."""
    latencies, speeds, outcomes = [], [], []
    p0 = perf()
    ref_before = ref_time()
    for i, op in enumerate(ops):
        verdicts.log = []
        if tr is not None:
            tr.op = i
        # every op starts from a collected heap, so the collections inside it
        # do not depend on what ran before
        gc.collect()
        latency, (out, exc) = time_op(cli, op, repeat_s)
        ref_after = ref_time()
        latencies.append(at_reference_speed(latency, ref_before, ref_after))
        speeds.append(REF_S / ref_after)
        ref_before = ref_after
        outcomes.append((out, exc, verdicts.log))
    return perf() - p0, latencies, speeds, outcomes


def judge(op, outcome):
    """(canonical text, failure problems, certified, bridge contradictions).

    Documented outcomes are not failures: Inconclusive, and the depth run
    that finds no antistable candidate; that one counts as certified when
    every candidate's antistability was decided either way.
    """
    out, exc, verdict_log = outcome
    if exc is not None:
        errors = sys.modules["entctl.errors"]
        text = f"!{type(exc).__name__}: {exc}\n"
        no_depth = isinstance(exc, errors.HypothesisFailure) and NO_ANTISTABLE in str(exc)
        if not (no_depth or isinstance(exc, errors.Inconclusive)):
            return text, [text.strip()], False, 0
        decided = no_depth and bool(verdict_log) and "unknown" not in verdict_log
        return text, [], decided, 0
    report = json.loads(out)
    raw = op[2]
    abelian = raw["kind"] in ("discrete", "bridge") and isinstance(
        raw["group"]["blocks"]["types"][0], list
    )
    return (
        out,
        checks.report_problems(report, abelian),
        report["status"] == "ok",
        checks.bridge_contradictions(report),
    )


class Run:
    """Outcomes of all passes of one run, checked as they arrive."""

    def __init__(self, ops):
        self.ops = ops
        self.first: list | None = None
        self.attempted = 0
        self.failures: list[str] = []
        self.certified = 0
        self.contradictions = 0

    def record(self, outcomes):
        texts = []
        for i, (op, outcome) in enumerate(zip(self.ops, outcomes)):
            text, problems, certified, contradictions = judge(op, outcome)
            texts.append(text)
            self.attempted += 1
            if self.first is not None and text != self.first[i]:
                problems = problems + ["report differs from the first pass"]
            if problems:
                self.failures.append(f"op {i} ({op[0]}): {'; '.join(problems)}")
            if self.first is None:
                self.certified += certified
                self.contradictions += contradictions
        if self.first is None:
            self.first = texts

    def digest(self):
        return hashlib.sha256("".join(self.first).encode()).hexdigest()


def keep_going(t_start, walls, seconds):
    return perf() - t_start + statistics.median(walls) <= seconds


def per_op(rows):
    """Each op's median latency over the passes in ``rows``."""
    return [statistics.median(col) for col in zip(*rows)]


def measure(cli, ops, seconds, verdicts, tr=None):
    """Passes until the time is used up.

    Returns (run, passes, untraced rows, traced rows, traced pass seconds,
    median speed), a row holding one pass's latencies at reference speed.  With a tracer, every
    untraced pass is followed by a traced one, and no op is repeated inside
    a pass, so that per-layer counts are per op run.
    """
    run = Run(ops)
    walls, plain, traced, traced_walls, speeds = [], [], [], [], []
    repeat_s = 0.0 if tr is not None else REPEAT_S
    t_start = perf()
    while not walls or keep_going(t_start, walls, seconds):
        wall, lat, speed, outcomes = run_pass(cli, ops, verdicts, repeat_s)
        run.record(outcomes)
        plain.append(lat)
        speeds += speed
        if tr is not None:
            tr.install()
            try:
                traced_wall, lat, _, outcomes = run_pass(cli, ops, verdicts, repeat_s, tr)
            finally:
                tr.uninstall()
            run.record(outcomes)
            traced.append(lat)
            traced_walls.append(traced_wall)
            wall += traced_wall
        walls.append(wall)
    return run, len(walls), plain, traced, traced_walls, statistics.median(speeds)


def percentile_ms(samples):
    """(p50, p90, samples beyond p90), in ms."""
    if len(samples) < 2:
        return samples[0] * 1e3, samples[0] * 1e3, 0
    q = statistics.quantiles(samples, n=10)
    return q[4] * 1e3, q[8] * 1e3, sum(1 for s in samples if s > q[8])


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "entctl" / "__init__.py").is_file():
        print(f"no entctl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cli, ops, setup_s = setup(args.workload, args.seed)
    if args.ops:
        ops = ops[: args.ops]
    verdicts = Verdicts(sys.modules["entctl.depth"])

    tr = tracer.Tracer() if args.trace else None
    run, passes, plain, traced, traced_walls, speed = measure(cli, ops, args.seconds, verdicts, tr)
    if tr is not None:
        trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        TRACE_DIR.mkdir(exist_ok=True)
        tr.write_spans(trace_path)
        overhead = sum(per_op(traced)) / sum(per_op(plain)) - 1
        metrics = tracer.layer_metrics(tr.totals, passes, overhead)
        print(
            f"# traced passes={passes} ops_per_pass={len(ops)}"
            f" traced_pass_s={statistics.median(traced_walls):.4f} spans={trace_path}"
        )
    else:
        latency = per_op(plain)
        p50, p90, beyond = percentile_ms(latency)
        wall_s = sum(latency)
        verify_s = sum(t for op, t in zip(ops, latency) if op[0] == "verify")
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "ops_per_s": (len(ops) / wall_s, "1/s"),
            "op_p50_ms": (p50, "ms"),
            "op_p90_ms": (p90, "ms"),
            "verify_s": (verify_s, "s"),
            "command_s": (wall_s - verify_s, "s"),
            "certified_frac": (run.certified / len(ops), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        print(
            f"# passes={passes} ops_per_pass={len(ops)} latency_samples={len(latency)}"
            f" samples_beyond_p90={beyond}"
        )
    print(f"# workload={args.workload} seed={args.seed} speed={speed:.3f} reports_sha256={run.digest()}")
    print(f"# bridge_contradictions={run.contradictions} failed={len(run.failures)}")
    for failure in run.failures[:20]:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
