"""qnk benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload {verify,attack,flows,prove}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a qnk checkout; the package is imported from ./src.

--trace 0 measures the end-to-end metrics. Set-up time is the median over
fresh processes, each timed from its start (interpreter, `import qnk`) to the
end of the workload's set-up. Then one untimed warm-up cycle runs, then whole
cycles until --seconds have passed. Latency samples are one per operation,
except on `verify`, where one sample is the mean over a batch of 256
verifications (a single one is too short to time steadily). Throughput is
the median over cycles of operations per second of program time.

Times are scaled to a reference machine speed. On a shared machine the speed
of one core drifts by a third over seconds, and a whole run can fall in a
slow stretch. So the operations run in blocks of about BLOCK_S seconds, cut
at operation boundaries and separated by a fixed calibration slice
(HMAC-SHA256 and dict work, the operations qnk spends its time on), and
every time in a block is multiplied by CAL_REF_S over the mean of the two
calibration times around it. Set-up probes are bracketed the same way. The
line before the summary, starting with `# unscaled `, holds the same
latency, throughput and set-up figures as measured, and the mean speed
factor (1 means the scaled times equal the measured ones); report.py keeps
both, so the scaling can be checked against raw runs.

--trace 1 runs a fixed number of cycles untraced, then the same cycles with
every qnk layer wrapped (see tracing.py), and reports the per-layer metrics
of the traced cycles. Counts repeat exactly for a seed. `tracing.overhead`
is traced time over untraced time, minus one. The program is
single-threaded and has no queues, so no layer waits for another and no wait
times are reported.

Every operation is checked against ground truth. The last stdout line is a
JSON object with `correct`, `attempted`, `failed` and `metrics`; the process
exits 1 if any operation failed, 2 if qnk cannot be imported.
"""
from __future__ import annotations

import argparse
import hashlib
import hmac
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
BLOCK_S = 0.1
CAL_ITERS = 2000
CAL_REF_S = 0.010     # median calibration time on the 2-core 2.1 GHz Xeon of baseline.json
_hmac_new = hmac.new  # the traced run wraps hmac.new; calibration must not see that
WORKLOAD_NAMES = ("verify", "attack", "flows", "prove")
UNSCALED_TAG = "# unscaled "


def _import_workloads():
    if not (ROOT / "src" / "qnk" / "__init__.py").is_file():
        print(f"qnk sources not found under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


class Samples:
    """Per-operation timings and outcomes. Each operation's times are kept
    with the speed factor of the block it ran in (1 until a block closes)."""

    def __init__(self):
        self.ops: list[list] = []     # [cycle, weight, produce_s, consume_s, factor]
        self.attempted = 0
        self.failed = 0
        self.factors: list[float] = []
        self._open = 0                # first operation of the open block

    def close_block(self, factor: float) -> None:
        for rec in self.ops[self._open:]:
            rec[4] = factor
        self._open = len(self.ops)
        self.factors.append(factor)

    def op_ms(self, scaled: bool = True) -> list[float]:
        return [((p or 0) + (c or 0)) * (f if scaled else 1) * 1e3 / w
                for _, w, p, c, f in self.ops]

    def produce_ms(self, scaled: bool = True) -> list[float]:
        return [p * (f if scaled else 1) * 1e3 / w
                for _, w, p, _, f in self.ops if p is not None]

    def consume_ms(self, scaled: bool = True) -> list[float]:
        return [c * (f if scaled else 1) * 1e3 / w
                for _, w, _, c, f in self.ops if c is not None]

    def busy_s(self) -> float:
        return sum(((p or 0) + (c or 0)) * f for _, _, p, c, f in self.ops)

    def cycle_rates(self, scaled: bool = True) -> list[float]:
        """Operations per second of each cycle."""
        per: dict[int, list] = {}
        for cycle, w, p, c, f in self.ops:
            acc = per.setdefault(cycle, [0, 0.0])
            acc[0] += w
            acc[1] += ((p or 0) + (c or 0)) * (f if scaled else 1)
        return [n / t for n, t in per.values()]

    def latency_metrics(self, scaled: bool = True) -> dict[str, tuple[float, str]]:
        op_ms = self.op_ms(scaled)
        return {
            "ops_per_s": (statistics.median(self.cycle_rates(scaled)), "1/s"),
            "op_p50_ms": (statistics.median(op_ms), "ms"),
            "op_p95_ms": (_p95(op_ms), "ms"),
            "produce_p50_ms": (statistics.median(self.produce_ms(scaled)), "ms"),
            "consume_p50_ms": (statistics.median(self.consume_ms(scaled)), "ms"),
        }


def calibrate() -> float:
    """Seconds taken by a fixed slice of HMAC-SHA256 and dict work: three
    times the median of three thirds, so one interruption does not count."""
    key = b"perfbench-calib!"
    thirds = []
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(CAL_ITERS // 3):
            _hmac_new(key, i.to_bytes(4, "big"), hashlib.sha256).digest()
            sum({j: j * 2 for j in range(8)}.values())
        thirds.append(time.perf_counter() - t0)
    return 3 * statistics.median(thirds)


def run_cycle(wl, c: int, samples: Samples, tracer=None, after_op=None) -> None:
    clock = time.perf_counter
    for op in wl.cycle(c):
        if tracer is not None:
            tracer.op = samples.attempted
        t0 = t1 = clock()
        try:
            result = op.produce() if op.produce is not None else None
            t1 = clock()
            if op.consume is not None:
                result = op.consume(result)
            t2 = clock()
            failed = op.check(result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            t2 = clock()
            failed = op.weight
        samples.ops.append([c, op.weight, t1 - t0 if op.produce is not None else None,
                            t2 - t1 if op.consume is not None else None, 1.0])
        samples.attempted += op.weight
        samples.failed += failed
        if failed:
            print(f"{wl.name} cycle {c}: {op.label} failed {failed}/{op.weight}",
                  file=sys.stderr)
        if after_op is not None:
            after_op()


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[-1]


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh processes, scaled like the cycles and
    as measured."""
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {rc})")
        times.append(elapsed * 2 * CAL_REF_S / (before + calibrate()))
        raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


def warm_up(wl) -> Samples:
    """Cycle 0, untimed; its checks count like any other."""
    warm = Samples()
    run_cycle(wl, 0, warm)
    s = Samples()
    s.attempted, s.failed = warm.attempted, warm.failed
    return s


def end_to_end(wl, seconds: float, setup_s: float) -> tuple[Samples, dict]:
    s = warm_up(wl)
    clock = time.perf_counter
    before = calibrate()
    block_end = clock() + BLOCK_S

    def after_op():
        # close the block at the first operation boundary after BLOCK_S; the
        # closing calibration also opens the next block
        nonlocal before, block_end
        if clock() >= block_end:
            after = calibrate()
            s.close_block(2 * CAL_REF_S / (before + after))
            before, block_end = after, clock() + BLOCK_S

    deadline = clock() + seconds
    c = 1
    while clock() < deadline:
        run_cycle(wl, c, s, after_op=after_op)
        c += 1
    s.close_block(2 * CAL_REF_S / (before + calibrate()))
    metrics = s.latency_metrics()
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return s, metrics


def traced(wl) -> tuple[Samples, dict]:
    import tracing
    cycles = range(1, wl.trace_cycles + 1)
    plain = warm_up(wl)
    for c in cycles:
        run_cycle(wl, c, plain)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    s = Samples()
    try:
        for c in cycles:
            run_cycle(wl, c, s, tracer)
    finally:
        tracing.uninstall(undo)
    metrics = tracing.layer_metrics(tracer)
    metrics["tracing.overhead"] = (s.busy_s() / plain.busy_s() - 1, "ratio")
    s.failed += plain.failed
    s.attempted += plain.attempted
    return s, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print 'ready' and exit (set-up timing)")
    args = ap.parse_args(argv)
    workloads = _import_workloads()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        unscaled = None
        if args.trace:
            s, metrics = traced(wl)
        else:
            setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
            s, metrics = end_to_end(wl, args.seconds, setup_s)
            unscaled = {name: value for name, (value, _) in s.latency_metrics(False).items()}
            unscaled["setup_s"] = raw_setup_s
            unscaled["speed_factor"] = statistics.fmean(s.factors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={s.attempted} failed={s.failed} "
          f"failed_share={s.failed / max(s.attempted, 1):.6f} "
          f"op_samples={len(s.ops)} produce_samples={len(s.produce_ms())} "
          f"consume_samples={len(s.consume_ms())} cycles={len(s.cycle_rates())}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if unscaled is not None:
        print(UNSCALED_TAG + json.dumps(unscaled))
    print(json.dumps({
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if s.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
