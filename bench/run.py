"""Benchmark harness for posetmodels.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Generates the workload's inputs from the
seed, runs ops one at a time in a closed loop for about S seconds (a pass
over the workload's inputs is always finished, so every run sees the same
mix), checks every output, and prints one JSON object as its last line:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics.  End-to-end times are scaled to a reference speed
of the machine (speed.py); the wall-clock figures are printed next to
them.  Details and the per-run record go to
.bench_out/<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed
from spans import maybe_span

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
UNTRACED_SHARE = 1 / 3  # of a traced run's seconds; the traced ops repeat those passes
MIN_OPS = 100  # so that the p90 has at least ten samples beyond it


def percentile_ms(values, q: int) -> float:
    """The q-th percentile in ms (Python's exclusive method)."""
    if len(values) < 2:
        return values[0] * 1000.0
    return statistics.quantiles(values, n=100)[q - 1] * 1000.0


class Loop:
    """Closed loop: the next op starts when the previous one has finished.

    Latencies are scaled to the reference's nominal speed (see speed.py);
    the wall times are kept next to them.
    """

    def __init__(self, reference):
        self.scaler = speed.Scaler(reference)
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.passes: list[tuple[int, int]] = []  # op index ranges
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, w, seconds: float, tracer=None, min_ops: int = MIN_OPS, passes=None) -> int:
        """Run whole passes until `seconds` have gone and `min_ops` ops were
        attempted, or exactly `passes` passes; returns the passes run."""
        with self.scaler.ticking():
            done = self._run(w, seconds, tracer, min_ops, passes)
        self.latencies = self.scaler.scaled()
        self.wall = [wall for _, _, wall in self.scaler.timings]
        return done

    def _run(self, w, seconds, tracer, min_ops, passes) -> int:
        deadline = time.perf_counter() + seconds
        for done, batch in enumerate(itertools.cycle(w.passes), 1):
            start = len(self.scaler.timings)
            for item in batch:
                self.attempted += 1
                if tracer is not None:
                    tracer.begin_op()
                try:
                    self.scaler.start()
                    try:
                        with maybe_span(tracer, "op"):
                            out = w.op(item, tracer)
                    finally:
                        self.scaler.stop()
                    if tracer is not None:
                        w.probe(item, out, tracer)
                    w.check(item, out)
                except Exception as e:  # a failed op is counted and the run goes on
                    self.failed += 1
                    if len(self.errors) < 20:
                        self.errors.append("".join(traceback.format_exception_only(type(e), e)).strip())
            self.passes.append((start, len(self.scaler.timings)))
            if done == passes or (passes is None and time.perf_counter() >= deadline
                                  and self.attempted >= min_ops):
                return done

    @property
    def pass_rates(self) -> list[float]:
        return [(end - start) / sum(self.latencies[start:end])
                for start, end in self.passes if end > start]

    def ops_per_s(self) -> float:
        """Median over passes of the ops ended, failed or not, per second of
        scaled op time (checks are not timed).  Every pass has the same mix,
        and the median keeps one odd pass from moving the figure."""
        return statistics.median(self.pass_rates)


def import_seconds() -> tuple[float, float]:
    """Interpreter start plus importing the library, in a fresh process:
    median scaled and median wall seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    scaler = speed.Scaler(speed.Process())
    for _ in range(SETUP_REPEATS):
        scaler.timed(lambda: subprocess.run(
            [sys.executable, "-c", "import posetmodels.cli"], env=env, check=True,
            capture_output=True, timeout=120))
    return (statistics.median(scaler.scaled()),
            statistics.median(wall for _, _, wall in scaler.timings))


def instance_summary(descriptors) -> dict:
    """Count, [min, median, max] of n, P and |W|, and the YES/NO split."""
    out = {"count": len(descriptors)}
    for key in ("n", "P", "W"):
        vals = [d[key] for d in descriptors]
        out[key] = [min(vals), statistics.median(vals), max(vals)]
    answers = [d["expect"] for d in descriptors]
    out.update(yes=answers.count("yes"), no=answers.count("no"), unknown=answers.count(None))
    return out


def untraced(cls, seed: int, seconds: float, tiny: bool = False):
    prints = []
    scaler = speed.Scaler(speed.Kernel())
    with scaler.ticking():
        for rep in range(SETUP_REPEATS):
            w, _ = scaler.timed(lambda: cls(seed, tiny=tiny))
            prints.append(w.fingerprint())
            if rep < SETUP_REPEATS - 1:
                w.close()
    import_s, import_wall = import_seconds()
    loop = Loop(cls.reference())
    try:
        loop.run(w, seconds, min_ops=0 if tiny else MIN_OPS)
    finally:
        w.close()
    lat = loop.latencies
    metrics = {
        "setup_s": import_s + statistics.median(scaler.scaled()),
        "ops_per_s": loop.ops_per_s(),
        "op_ms_p50": percentile_ms(lat, 50),
        "op_ms_p90": percentile_ms(lat, 90),
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "samples": len(lat),
        "pass_rates": loop.pass_rates,
        "wall": {
            "setup_s": import_wall + statistics.median(wall for _, _, wall in scaler.timings),
            "ops_per_s": len(loop.wall) / sum(loop.wall),
            "op_ms_p50": percentile_ms(loop.wall, 50),
            "op_ms_p90": percentile_ms(loop.wall, 90),
        },
        "fail_frac": loop.failed / loop.attempted,
        "deterministic": len(set(prints)) == 1,
        "instances": instance_summary(w.descriptors()),
    }
    return loop, metrics, notes


def family_shares(tr, span: str, family: str) -> float | None:
    """Median share of the untraced-equivalent op time taken by `span` over
    ops of one instance family."""
    rows = tr.per_op()
    op_ms = tr.durations_ms("op")
    shares = [row[span + "_ms"] / op_ms[op] for op, row in rows.items()
              if row.get("family." + family) and span + "_ms" in row and op in op_ms]
    return statistics.median(shares) if shares else None


def layer_metrics(w, tr) -> dict:
    out = {name: value for name, value in tr.medians().items()
           if name not in ("op_ms", "probe_ms") and not name.startswith("family.")}
    peak = w.table_peak_kb()
    if peak is not None:
        out["lattice.tables_peak_kb"] = peak
    for metric, span, family in (("relative.report_share_chain", "relative.report", "chain"),
                                 ("lattice.lift_tables_share_grid", "lattice.lift_tables", "grid")):
        share = family_shares(tr, span, family)
        if share is not None:
            out[metric] = share
    return out


def traced(cls, seed: int, seconds: float, declared, tiny: bool = False):
    import workloads

    tr = spans.Tracer()
    w = cls(seed, tiny=tiny, tracer=tr)
    base = Loop(cls.reference())
    loop = Loop(cls.reference())
    try:
        loop.run(w, 0, tr, passes=base.run(w, seconds * UNTRACED_SHARE, min_ops=0))
    finally:
        w.close()
    traced_rate = loop.ops_per_s()
    untraced_rate = base.ops_per_s()
    metrics = layer_metrics(w, tr)
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    # A traced run reports every declared metric.  The layers this workload
    # never enters are borrowed from one traced pass of another workload's
    # normal inputs; they are not this workload's figures.
    borrowed: dict[str, float] = {}
    loops = [base, loop]
    for other in workloads.WORKLOADS.values():
        if other is cls or declared <= set(metrics) | set(borrowed):
            continue
        ptr = spans.Tracer()
        v = other(seed, tiny=tiny, tracer=ptr, npasses=1)
        lender = Loop(other.reference())
        loops.append(lender)
        try:
            lender.run(v, 0, ptr, passes=1)
        finally:
            v.close()
        for name, value in layer_metrics(v, ptr).items():
            if name not in metrics and name not in borrowed:
                borrowed[name] = value
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    notes = {
        "samples": len(loop.latencies),
        "untraced_samples": len(base.latencies),
        "fail_frac": failed / attempted,
        "borrowed": sorted(borrowed),
        "instances": instance_summary(w.descriptors()),
        "spans": tr.dump(),
        "counts": {str(k): v for k, v in tr.counts.items()},
    }
    if cls.name == "recognize-large":
        notes["families"] = {
            fam: tr.medians([op for op, row in tr.per_op().items() if row.get("family." + fam)])
            for fam in ("chain", "grid", "trunc", "gap-chain", "cw-product")
        }
    errors = [e for lp in loops for e in lp.errors]
    return {**metrics, **borrowed}, notes, errors, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "posetmodels" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    speed.pin_to_one_cpu()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    if args.trace:
        metrics, notes, errors, attempted, failed = traced(cls, args.seed, args.seconds, set(units))
        correct = failed == 0
    else:
        loop, metrics, notes = untraced(cls, args.seed, args.seconds)
        errors, attempted, failed = loop.errors, loop.attempted, loop.failed
        correct = failed == 0 and notes["deterministic"]

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "errors": errors, **notes}
    (out_dir / f"{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed "
          f"(fail_frac {failed / attempted}), {notes['samples']} timed samples")
    print("instances:", json.dumps(notes["instances"]))
    for fam, meds in notes.get("families", {}).items():
        top = sorted(((v, k) for k, v in meds.items() if k.endswith("_ms") and "." in k), reverse=True)
        print(f"family {fam}: " + ", ".join(f"{k} {v:.2f}" for v, k in top[:4]))
    if notes.get("borrowed"):
        print("borrowed from other workloads, not this workload's figures:",
              " ".join(notes["borrowed"]))
    for e in errors[:5]:
        print("failure:", e)
    for name, value in notes.get("wall", {}).items():
        print(f"{name} unscaled (wall clock) = {value}")
    for name in units:
        print(f"{name} = {metrics[name]} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
