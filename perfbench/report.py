"""Run every workload, print every metric, and record the results.

    python3 perfbench/report.py [--runs N] [--first-seed K] [--seconds S]
                                [--out perfbench/baseline.json]

It runs two sets, so that one command shows whether repeated runs of the
same code agree. Each set runs, for each workload, `run.py --trace 0` with N
seeds (one process each; set i uses seeds K+i*N .. K+i*N+N-1) and one
`--trace 1` run with seed K. It prints every end-to-end metric with its unit:
the median over the runs and the spread (the distance between the quartiles
as a share of the median), for the times as reported and as measured before
scaling (see run.py). Then it checks, against the bounds in BENCHMARK.json,
that every spread except set-up time's stays within its bound, that the
second set's medians are no worse than the first set's by more than the
bound, that the traced counts of both sets are equal, that the `flows`
artifacts match golden.json at the default seed (run once more if no set
holds that seed), and that the traced layer shares fit the workload design.
The record written to --out adds the machine, each workload's reason, the
predicted-flat pairings, the traced layer shares, the tracing overhead and
the waste ratios. The exit code is 0 only if every check passes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from run import UNSCALED_TAG  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETS = 2
WASTE_RATIOS = ("rand.drbg_useful_byte_ratio", "qsim.distinct_sim_ratio",
                "circuit_ir.decode_distinct_ratio")

# which end-to-end metric each group of layer metrics should move, on which
# workloads, and where it should stay flat (written down before measuring)
PREDICTIONS = [
    {"layer_metrics": "<layer>.calls, <layer>.self_s, <layer>.errors",
     "moves": "whichever row below applies", "on": "all", "flat_on": []},
    {"layer_metrics": "rand.hmac_calls, rand.drbg_blocks, rand.drbg_useful_byte_ratio",
     "moves": "ops_per_s", "on": ["verify", "prove"], "flat_on": []},
    {"layer_metrics": "primitives.ro_queries, primitives.ro_hit_ratio, "
                      "primitives.ro_table_entries, primitives.prg_bytes",
     "moves": "ops_per_s, peak_rss_mb", "on": ["verify"], "flat_on": ["flows"],
     "note": "no workload lets the oracle memo grow: verify builds a fresh oracle "
             "for every 256-proof batch, so peak_rss_mb cannot show memo growth"},
    {"layer_metrics": "wire.seal_bytes, wire.unseal_bytes, wire.envelope_bytes, "
                      "wire.unpack_fields_calls",
     "moves": "ops_per_s, op_p50_ms", "on": ["attack", "flows"], "flat_on": ["verify"]},
    {"layer_metrics": "circuit_ir.evaluate_calls, circuit_ir.program_from_bytes_calls, "
                      "circuit_ir.program_bytes_decoded, circuit_ir.decode_distinct_ratio, "
                      "circuit_ir.hostgate_self_s, circuit_ir.hostgate.<GATE>",
     "moves": "attack op_p50_ms, flows consume_p50_ms; build cost in produce_p50_ms "
              "and setup_s", "on": ["attack", "flows"], "flat_on": ["verify"]},
    {"layer_metrics": "qsim.apply_gate_calls, qsim.amp_bytes_moved, qsim.run_circuit_calls, "
                      "qsim.history_state_calls, qsim.distinct_sim_ratio",
     "moves": "ops_per_s, op_p50_ms", "on": ["prove"], "flat_on": ["verify", "attack"]},
    {"layer_metrics": "qfhe.eval_calls, qfhe.payload_bytes",
     "moves": "op_p50_ms", "on": ["prove", "flows"], "flat_on": ["verify", "attack"]},
    {"layer_metrics": "cvqc.verify_calls, cvqc.judge_calls, cvqc.oracle_from_spec_calls",
     "moves": "ops_per_s (verify), consume_p50_ms (flows)",
     "on": ["verify", "flows", "prove"], "flat_on": []},
    {"layer_metrics": "attacks.queries", "moves": "ops_per_s", "on": ["attack"],
     "flat_on": []},
    {"layer_metrics": "cli.commands (cli.self_s holds argparse and file I/O)",
     "moves": "op_p50_ms", "on": ["flows"], "flat_on": ["verify", "attack", "prove"]},
]


def machine() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["unscaled"] = next((json.loads(line[len(UNSCALED_TAG):]) for line in lines
                               if line.startswith(UNSCALED_TAG)), None)
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def summary(runs: list[dict]) -> dict:
    """name -> median, spread and values of every key in `runs`."""
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        out[name] = {"median": statistics.median(values), "spread": spread(values),
                     "runs": values}
    return out


def traced_counts(per_layer: dict) -> dict:
    """The traced metrics that must repeat exactly for a seed (no times)."""
    return {k: m["value"] for k, m in per_layer.items()
            if m["unit"] not in ("s", "ratio") or k.endswith("_ratio")}


def report(workload: str, seeds: range, seconds: float, trace_seed: int) -> dict:
    results = [run_once(workload, seed, seconds, 0) for seed in seeds]
    traced = run_once(workload, trace_seed, seconds, 1)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    e2e = summary([{k: m["value"] for k, m in r["metrics"].items()} for r in results])
    for name, m in e2e.items():
        m["unit"] = results[0]["metrics"][name]["unit"]
    unscaled = summary([r["unscaled"] for r in results])
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    shares = {name: layer[f"{name}.share"] for name in LAYERS}
    print(f"{workload} seeds {seeds[0]}-{seeds[-1]}")
    for name, m in e2e.items():
        raw = unscaled.get(name)
        raw_text = (f"; unscaled {raw['median']:.6g} (spread {raw['spread']:.3f})"
                    if raw else "")
        print(f"{workload} {name} {m['median']:.6g} {m['unit']} "
              f"(spread {m['spread']:.3f}{raw_text})")
    f = unscaled["speed_factor"]
    print(f"{workload} speed_factor {f['median']:.4g} (spread {f['spread']:.3f})")
    print(f"{workload} failed_share {failed / attempted:.6g} share")
    for name in WASTE_RATIOS + ("tracing.overhead",):
        print(f"{workload} {name} {layer[name]:.6g} ratio")
    top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
    print(f"{workload} layer shares: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    return {
        "seeds": [seeds[0], seeds[-1]],
        "end_to_end": e2e,
        "unscaled": unscaled,
        "failed_share": failed / attempted,
        "correct": all(r["correct"] for r in results) and traced["correct"],
        "default_seed_correct": next((r["correct"] for seed, r in zip(seeds, results)
                                      if seed == DEFAULT_SEED), None),
        "per_layer": traced["metrics"],
        "layer_shares": shares,
        "tracing_overhead": layer["tracing.overhead"],
        "waste_ratios": {name: layer[name] for name in WASTE_RATIOS},
    }


def design_checks(first: dict) -> dict:
    """The layer shares the workload design predicts."""
    s = {w: first[w]["layer_shares"] for w in first}
    return {
        "verify: wire + circuit_ir + qsim self time under 5%":
            s["verify"]["wire"] + s["verify"]["circuit_ir"] + s["verify"]["qsim"] < 0.05,
        "prove: qsim is the largest layer":
            max(s["prove"], key=s["prove"].get) == "qsim",
        "attack: wire + circuit_ir outweigh qsim":
            s["attack"]["wire"] + s["attack"]["circuit_ir"] > s["attack"]["qsim"],
        "flows: wire + circuit_ir outweigh qsim":
            s["flows"]["wire"] + s["flows"]["circuit_ir"] > s["flows"]["qsim"],
    }


def bound_checks(sets: dict, metrics: list[dict]) -> dict:
    """Spreads within each metric's bound (set-up time excepted), and the
    second set's medians no worse than the first set's by more than it."""
    checks = {}
    for w, per_set in sets.items():
        first = per_set[0]["end_to_end"]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            for i, rep in enumerate(per_set):
                e = rep["end_to_end"][name]
                if name != "setup_s":
                    checks[f"{w} set {i + 1} {name} spread {e['spread']:.3f} "
                           f"<= {bound}"] = e["spread"] <= bound
                if i:
                    change = e["median"] / first[name]["median"] - 1
                    worse = change if m["better"] == "lower" else -change
                    checks[f"{w} set {i + 1} vs 1 {name} change {change:+.3f} "
                           f"within {bound}"] = worse <= bound
    return checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    k, n = args.first_seed, args.runs
    seed_sets = [range(k + i * n, k + (i + 1) * n) for i in range(SETS)]
    sets = {name: [report(name, seeds, args.seconds, k) for seeds in seed_sets]
            for name in WORKLOADS}
    golden = sets["flows"][0]["default_seed_correct"]
    if golden is None:
        golden = run_once("flows", DEFAULT_SEED, args.seconds, 0)["correct"]
    checks = {
        f"flows artifacts match golden.json at seed {DEFAULT_SEED}": golden,
        **{f"{w}: traced counts repeat across sets":
           all(traced_counts(r["per_layer"]) == traced_counts(per_set[0]["per_layer"])
               for r in per_set) for w, per_set in sets.items()},
        **design_checks({w: per_set[0] for w, per_set in sets.items()}),
        **bound_checks(sets, bench["end_to_end"]),
    }
    for check, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {check}")
    if args.out:
        record = {
            "machine": machine(),
            "settings": {"sets": [[s[0], s[-1]] for s in seed_sets], "trace_seed": k,
                         "seconds": args.seconds,
                         "loop": "closed, one caller, one workload per process"},
            "waits": "none reported: the program is single-threaded and has no "
                     "queues, so no layer waits for another",
            "workloads": {name: {"why": WORKLOADS[name].why, "sets": sets[name]}
                          for name in WORKLOADS},
            "predictions": PREDICTIONS,
            "checks": checks,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    ok = all(r["correct"] for per_set in sets.values() for r in per_set)
    return 0 if ok and all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
