#!/usr/bin/env python3
"""The paced open-loop auction benchmark for lorasched: one command.

Builds bench/e2e (its own CMake project) into build-e2e/ in Release, runs
each workload in a fresh e2e_bench process, prints every metric as
`<workload> <metric> <value> <unit>`, and exits non-zero when any run fails
its correctness checks. See bench/e2e/README.md for the metric catalogue.

  python3 bench/e2e/run.py                  # every workload once, untraced
  python3 bench/e2e/run.py --traced         # ... plus a traced run of each
  python3 bench/e2e/run.py --smoke          # 40 slots per workload, 32 nodes
  python3 bench/e2e/run.py --reps 5 --json-out bench/e2e/baseline/seed.json
  python3 bench/e2e/run.py --traced --workloads steady,wire \\
      --waterfall bench/e2e/baseline/waterfall-wire.txt

One run of one workload, whose last stdout line is a JSON result
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1):

  python3 bench/e2e/run.py --workload steady --seed 3 --seconds 18 --trace 0
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "bench" / "e2e"
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "e2e_bench"

WORKLOADS = ["steady", "wire", "admit-heavy", "burst-k1"]
# Must equal BENCHMARK.json's run_seconds: the measured window per run.
DEFAULT_SECONDS = 18
RUN_TIMEOUT_S = 170

# (name, unit) — the end-to-end metrics of untraced runs and the per-layer
# metrics of traced runs that BENCHMARK.json names. Every other metric a
# run produces (failed_share, service.late_bids, net.*, the publish phase)
# is printed too but is not part of the result line: each is 0 on some
# workload or only exists on `wire`.
END_TO_END = [
    ("decision_lag_ms.p50", "ms"),
    ("decision_lag_ms.p98", "ms"),
    ("on_time_share", "ratio"),
    ("capacity_bids_per_s", "1/s"),
    ("cpu_ms_per_kbid", "ms"),
    ("social_welfare", "usd"),
    ("setup_s", "s"),
]
PER_LAYER = [
    ("loadgen.late_ms.p98", "ms"),
    ("service.submit_us.p50", "us"),
    ("service.submit_us.p99", "us"),
    ("service.queue_depth.max", "count"),
    ("service.step_start_late_ms.p50", "ms"),
    ("service.step_start_late_ms.p98", "ms"),
    ("shard.step_ms.p50", "ms"),
    ("shard.step_ms.p98", "ms"),
    ("shard.leader_self_ms.p50", "ms"),
    ("shard.round_arm_ms.p50", "ms"),
    ("shard.round_offer_ms.p50", "ms"),
    ("shard.round_decide_ms.p50", "ms"),
    ("shard.rounds_per_slot", "count"),
    ("shard.critical_path_share", "ratio"),
    ("shard.reroute_ratio", "ratio"),
    ("shard.reroute_admit_ratio", "ratio"),
    ("core.on_slot_us_per_bid.p50", "us"),
    ("core.on_slot_us_per_bid.p98", "us"),
    ("core.admit_ratio", "ratio"),
    ("core.dp_finds_per_bid", "count"),
    ("core.dp_cache_hit_ratio", "ratio"),
    ("core.replay_bids_per_s", "1/s"),
]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds e2e_bench; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace, smoke=False):
    """Runs one workload in a fresh process; returns its JSON document."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd += ["--smoke", "1"]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{workload}-seed{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"run.py: {workload} seed {seed} exited {proc.returncode} "
                 "without a result")
    return json.loads(lines[-1])


def print_metrics(doc):
    for name, metric in sorted(doc["metrics"].items()):
        print(f"{doc['workload']} {name} {metric['value']:.6g} {metric['unit']}")
    for error in doc["errors"]:
        print(f"{doc['workload']} FAILED {error}")


def result_line(doc, trace):
    """The one-object result the benchmark contract reads."""
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in wanted:
        metric = doc["metrics"].get(name)
        if metric is None or metric["unit"] != unit:
            raise SystemExit(f"run.py: {doc['workload']} lacks metric {name}")
        metrics[name] = {"value": metric["value"], "unit": unit}
    return {"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
            "failed": int(doc["failed"]), "metrics": metrics}


def stamp(simd):
    """What a record was measured on."""
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            return out.stdout.strip().splitlines()[0] if out.returncode == 0 else ""
        except (OSError, IndexError):
            return ""

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = ""
    for cache in BUILD.glob("CMakeFiles/*/CMakeCXXCompiler.cmake"):
        fields = {}
        for line in cache.read_text().splitlines():
            if line.startswith("set(CMAKE_CXX_COMPILER_ID ") or \
                    line.startswith("set(CMAKE_CXX_COMPILER_VERSION "):
                key, value = line[4:-1].split(" ", 1)
                fields[key] = value.strip('"')
        compiler = " ".join(filter(None, (fields.get("CMAKE_CXX_COMPILER_ID"),
                                          fields.get("CMAKE_CXX_COMPILER_VERSION"))))
    return {"commit": first_line(["git", "rev-parse", "HEAD"]) or "unknown",
            "compiler": compiler, "cpu": cpu, "nproc": os.cpu_count(),
            "simd": simd, "date": time.strftime("%Y-%m-%d")}


def summarize(runs):
    """Median end-to-end metrics per workload over the untraced runs."""
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if not mine:
            continue
        for name, unit in END_TO_END + [("failed_share", "ratio")]:
            values = [r["metrics"][name]["value"] for r in mine]
            print(f"{workload} {name} {statistics.median(values):.6g} {unit} "
                  f"(median of {len(values)})")
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        for t in traced:
            base = [r for r in mine if r["seed"] == t["seed"]]
            if base:
                plain = base[0]["metrics"]["capacity_bids_per_s"]["value"]
                slow = t["metrics"]["capacity_bids_per_s"]["value"]
                pct = 100.0 * (plain - slow) / plain if plain else 0.0
                print(f"{workload} obs.trace_overhead_pct {pct:.6g} % "
                      f"(seed {t['seed']})")


def waterfall(runs, path):
    """Per-stage p50 and tail of the traced `wire` run next to `steady`."""
    traced = {r["workload"]: r for r in runs if r["trace"]}
    if "steady" not in traced or "wire" not in traced:
        sys.exit("run.py: --waterfall needs traced steady and wire runs")

    def value(workload, name, scale=1.0):
        metric = traced[workload]["metrics"].get(name)
        return None if metric is None else metric["value"] * scale

    def tail(workload, base, scale):
        for suffix in (".p99", ".p98"):
            v = value(workload, base + suffix, scale)
            if v is not None:
                return v
        return None

    def blocking(workload):
        """The p50 path from slot close to the bidder, in ms per slot."""
        rounds = value(workload, "shard.rounds_per_slot")
        parts = [("slot close -> step() entry",
                  value(workload, "service.step_start_late_ms.p50"))]
        in_rounds = 0.0
        for phase in ("arm", "offer", "decide"):
            ms = rounds * value(workload, f"shard.round_{phase}_ms.p50")
            in_rounds += ms
            parts.append((f"step(): round {phase} x rounds/slot", ms))
        publish = value(workload, "shard.round_publish_ms.p50")
        parts.append(("step(): publish", publish))
        parts.append(("step(): rest (route, outcomes, callbacks)",
                      value(workload, "shard.step_ms.p50") - in_rounds - publish))
        parts.append(("decision callback -> bidder",
                      value(workload, "net.decision_transit_us.p50", 1e-3) or 0.0))
        return parts

    def fmt(v, spec="8.3f"):
        width = spec.split(".")[0]
        return format("-", f">{width}s") if v is None else format(v, spec)

    seeds = {w: traced[w]["seed"] for w in ("steady", "wire")}
    lines = [f"Waterfall: traced `wire` vs `steady` (seed {seeds['steady']}, "
             f"{traced['steady']['measured_slots']} measured slots), ms.",
             "Same bid stream and service on both; decisions are identical, so",
             "the gap is the cost of the net layer.", "",
             "Stages on the blocking path (p50 per slot):",
             f"  {'stage':44s} {'steady':>8s} {'wire':>8s} {'gap':>8s}"]
    path_s, path_w = blocking("steady"), blocking("wire")
    gaps = []
    for (label, s), (_, w) in zip(path_s, path_w):
        gaps.append((w - s, label))
        lines.append(f"  {label:44s} {fmt(s)} {fmt(w)} {fmt(w - s)}")
    sum_s = sum(v for _, v in path_s)
    sum_w = sum(v for _, v in path_w)
    lag_s = value("steady", "decision_lag_ms.p50")
    lag_w = value("wire", "decision_lag_ms.p50")
    lines.append(f"  {'sum of stages':44s} {fmt(sum_s)} {fmt(sum_w)} "
                 f"{fmt(sum_w - sum_s)}")
    lines.append(f"  {'decision_lag_ms.p50 (traced run)':44s} {fmt(lag_s)} "
                 f"{fmt(lag_w)} {fmt(lag_w - lag_s)}")
    lines += ["", "Per-stage p50 / tail (p99 per bid, p98 per slot):",
              f"  {'stage':36s} {'steady p50':>10s} {'tail':>8s} "
              f"{'wire p50':>10s} {'tail':>8s}"]
    for label, base, scale in [
            ("client send -> ingest submit", "net.submit_transit_us", 1e-3),
            ("service.submit (BidQueue)", "service.submit_us", 1e-3),
            ("slot close -> step() entry", "service.step_start_late_ms", 1.0),
            ("step()", "shard.step_ms", 1.0),
            ("step(): leader self time", "shard.leader_self_ms", 1.0),
            ("Policy::on_slot per offered bid", "core.on_slot_us_per_bid",
             1e-3),
            ("decision callback -> bidder", "net.decision_transit_us", 1e-3),
            ("decision lag", "decision_lag_ms", 1.0)]:
        cells = [value("steady", base + ".p50", scale),
                 tail("steady", base, scale),
                 value("wire", base + ".p50", scale), tail("wire", base, scale)]
        lines.append(f"  {label:36s} " +
                     " ".join(fmt(v, "10.4g" if i % 2 == 0 else "8.4g")
                              for i, v in enumerate(cells)))
    lines.append("")
    for workload in ("steady", "wire"):
        parts = value(workload, "service.step_start_late_ms.p50") + \
            value(workload, "shard.step_ms.p50") + \
            (value(workload, "net.decision_transit_us.p50", 1e-3) or 0.0)
        lag = value(workload, "decision_lag_ms.p50")
        lines.append(f"{workload}: step_start_late + step (+ decision transit) "
                     f"p50 = {parts:.3f} ms vs lag p50 {lag:.3f} ms "
                     f"({100.0 * (parts - lag) / lag:+.1f}%)")
    gap, label = max(gaps)
    lines.append(f"Dominant stage of the p50 gap: {label} "
                 f"(+{gap:.3f} of {lag_w - lag_s:.3f} ms).")
    Path(path).write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload once and end with the "
                             "one-line JSON result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="measured window per run (40 slots per second)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = traced run, per-layer result")
    parser.add_argument("--traced", action="store_true",
                        help="also run each workload traced (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="40 slots per workload on a 32-node fleet")
    parser.add_argument("--reps", type=int, default=1,
                        help="untraced runs per workload (seeds seed..seed+reps-1)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--json-out", help="where to write the run record")
    parser.add_argument("--waterfall", help="write the wire-vs-steady waterfall")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()

    if args.workload:
        doc = run_once(args.workload, args.seed, args.seconds, args.trace == 1,
                       args.smoke)
        print_metrics(doc)
        print(json.dumps(result_line(doc, args.trace == 1)))
        return 0 if doc["correct"] else 1

    workloads = [w for w in args.workloads.split(",") if w]
    for w in workloads:
        if w not in WORKLOADS:
            parser.error(f"unknown workload {w}")
    runs = []
    # Seed-major order spreads a slow spell of the host over every workload
    # instead of letting it land on all runs of one.
    for rep in range(args.reps):
        seed = args.seed + rep
        for workload in workloads:
            for trace in ([False, True] if args.traced else [False]):
                log(f"run.py: {workload} seed {seed}"
                    f"{' traced' if trace else ''} ...")
                doc = run_once(workload, seed, args.seconds, trace, args.smoke)
                print_metrics(doc)
                runs.append(doc)
    summarize(runs)

    record = {"schema": "lorasched-e2e-v1", "seconds": args.seconds,
              "smoke": args.smoke,
              "stamp": stamp(runs[0]["simd"] if runs else ""), "runs": runs}
    out = Path(args.json_out) if args.json_out else \
        BUILD / f"e2e-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    log(f"run.py: record written to {out}")
    if args.waterfall:
        waterfall(runs, args.waterfall)
    failed = [r for r in runs if not r["correct"]]
    for r in failed:
        log(f"run.py: {r['workload']} seed {r['seed']} FAILED: {r['errors']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
