"""One workload in one fresh process: a closed loop with a single client.

Each op is the in-process call `rrpfermat.cli.main(argv)` with stdout and
stderr captured; the next op starts when the previous one returns.  A run
is a sequence of whole passes (every op once, in an order drawn from the
seed), so every run measures the same mix of ops.  Outputs are checked
against the reference between passes.  The result is one JSON line on
stdout:

    python3 perfbench/runner.py --workload q-sweep --seed 1 --seconds 30 --trace 0

Times are reported at a reference machine speed.  Before each op a fixed
pure-Python kernel (`calibrate`) is timed; each op's time is multiplied by
CAL_REF_S over the median kernel time of the ops around it.  On a shared
VM the host slows the whole guest by 20-45% for tens of seconds at a time,
which no run length averages away; the kernel slows with it, so the ratio
cancels most of that drift while a change to rrpfermat, which the kernel
never calls, shows in full.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
WARMUP_OPS = 5
# latency_p90_ms needs at least ten samples beyond it.
MIN_SAMPLES = 100
# Median time of `calibrate` on the quiet 2-vCPU VM where the benchmark was
# defined; reported times are in that machine's units.
CAL_REF_S = 75e-6
# Ops on each side of an op whose kernel times set its speed factor.
CAL_WINDOW = 5


def calibrate() -> int:
    """Fixed work that touches no rrpfermat code: integer arithmetic and
    dict stores, the mix the program's own loops are made of."""
    store = {}
    x = 0
    for i in range(600):
        x += (i * 2654435761) % 1000003
        store[i & 63] = x
    return x


def time_calibrate() -> float:
    start = time.perf_counter()
    calibrate()
    return time.perf_counter() - start


def speed_factors(cal_s: list[float]) -> list[float]:
    """CAL_REF_S / (median kernel time over the window around each op)."""
    return [CAL_REF_S / statistics.median(cal_s[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i in range(len(cal_s))]


def call_cli(cli, argv):
    """(exit code, stdout, stderr) of one CLI call; code is None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the op failed; the loop goes on
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


class Phase:
    """Whole passes run back to back until about `target_s` of wall time."""

    def __init__(self):
        self.passes = 0
        self.elapsed_s = 0.0
        self.counts = {workloads.COMPLETED: 0, workloads.REFUSED: 0, workloads.MISMATCH: 0}
        self.problems: list[str] = []
        # one entry per op, in the order run
        self.verdicts: list[str] = []
        self.latency_s: list[float] = []
        self.cal_s: list[float] = []

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def completed(self) -> int:
        return self.counts[workloads.COMPLETED]

    def run(self, cli, order, ref, workload, target_s, tracer=None):
        """Run passes until about `target_s` of wall time; a target of 0
        runs exactly one pass."""
        while True:
            outcomes = []
            start = time.perf_counter()
            for argv in next(order):
                self.cal_s.append(time_calibrate())
                if tracer is not None:
                    tracer.op += 1
                t0 = time.perf_counter()
                result = call_cli(cli, argv)
                self.latency_s.append(time.perf_counter() - t0)
                outcomes.append((argv, result))
            self.elapsed_s += time.perf_counter() - start
            self.passes += 1
            self.check(outcomes, ref, workload)
            if (self.elapsed_s * (1 + 0.5 / self.passes) >= target_s
                    and (self.completed >= MIN_SAMPLES or self.elapsed_s >= 2 * target_s)):
                return self

    def check(self, outcomes, ref, workload):
        for argv, (code, out, err) in outcomes:
            verdict = workloads.classify(argv, code, out, err, ref)
            self.counts[verdict] += 1
            self.verdicts.append(verdict)
            if verdict == workloads.MISMATCH and len(self.problems) < 5:
                self.problems.append(f"{workloads.key(argv)}: exit {code} {err.strip()[:200]}")
        if workload == "q-sweep":
            # Second route: the passing set for r <= 150 is the shipped list.
            passing = sorted(int(argv[2]) for argv, (code, _, _) in outcomes
                             if code == 0 and int(argv[2]) <= 150)
            shipped = ROOT / "src" / "rrpfermat" / "data" / "q_list.txt"
            expected = sorted(int(tok) for line in shipped.read_text().splitlines()
                              for tok in line.split("#", 1)[0].split())
            if passing != expected:
                self.problems.append(f"q-sweep passing set {passing} != q_list.txt {expected}")

    def summary(self) -> dict:
        """Throughput and latency at the reference speed."""
        factors = speed_factors(self.cal_s)
        scaled = [t * f for t, f in zip(self.latency_s, factors)]
        done = [t * 1e3 for t, v in zip(scaled, self.verdicts) if v == workloads.COMPLETED]
        return {
            "factors": factors,
            "ops_per_s": len(done) / sum(scaled),
            "samples": len(done),
            "latency_p50_ms": statistics.median(done) if done else None,
            "latency_p90_ms": percentile(done, 0.9) if len(done) >= 2 else None,
        }


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.OPS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from rrpfermat import cli

    ref = workloads.load_reference()
    order = workloads.passes(args.workload, args.seed)
    warm = Phase()
    warm.check([(a, call_cli(cli, a)) for a in next(order)[:WARMUP_OPS]], ref, None)
    phases = [warm]
    result = {}

    target = args.seconds / 2 if args.trace else args.seconds
    untraced = Phase().run(cli, order, ref, args.workload, target)
    phases.append(untraced)
    summary = untraced.summary()
    del summary["factors"]
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = Phase().run(cli, order, ref, args.workload, target, tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        traced_summary = traced.summary()
        layer = tracer.metrics(traced.passes, traced.attempted, traced_summary["factors"])
        layer["trace.untraced_ops_per_s"] = summary["ops_per_s"]
        layer["trace.traced_ops_per_s"] = traced_summary["ops_per_s"]
        layer["trace.overhead_pct"] = 100.0 * (
            layer["trace.untraced_ops_per_s"] / layer["trace.traced_ops_per_s"] - 1)
        result["layer"] = layer
        tracer.write_spans(Path(__file__).resolve().parent / "out"
                           / f"spans-{args.workload}-seed{args.seed}.jsonl")

    problems = [p for ph in phases for p in ph.problems]
    result.update(summary)
    result.update({
        "attempted": sum(ph.attempted for ph in phases[1:]),
        "failed": sum(ph.counts[workloads.MISMATCH] for ph in phases),
        "refused": sum(ph.counts[workloads.REFUSED] for ph in phases[1:]),
        "correct": not problems,
        "problems": problems[:5],
        "passes": untraced.passes,
        "elapsed_s": untraced.elapsed_s,
        "completed_frac": untraced.completed / untraced.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
