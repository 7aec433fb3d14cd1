"""solvlen verdict benchmark.

    python3 perfbench/run.py --workload row7 --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout.  Each run starts the workload in
child processes (perfbench/worker.py): SETUP_PROBES of them only set up,
and setup_s is the median of their times from start to ready; one more
sets up and then times verdicts for --seconds, one client in one process
with no threads.  Every verdict is checked against perfbench/expected.toml.

Verdict times are paced (see pace.py): divided by how slow the machine ran
during the round, so drift of a shared host does not read as a change of
the program.  The wall times are printed beside them.

The run prints each metric by name with its unit, then, as its last line,
one JSON object with the metrics that BENCHMARK.json lists: end-to-end
metrics with --trace 0, and with --trace 1 the per-layer metrics of a
traced run that follows an untraced one.  The full record, spans
included, goes to perfbench/out/.

Workloads (see worker.py): row7 and row8 time the d = 7 and d = 8
witnesses as `grp verify-table` builds them; eval-mix times full
`grp eval` reports over a corpus shuffled by --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 7
DEADLINE_S = 170  # a run must end within 180 s
# printed beside the metrics BENCHMARK.json bounds; wall_* are unpaced
SHOWN = ("setup_s", "verdict_s_p50", "wall_verdict_s_p50",
         "verdict_s_p90", "verdicts_per_s", "failed_ratio", "peak_rss_mb",
         "pace_p50")
EXTRA_UNITS = {"wall_verdict_s_p50": "s",
               "verdict_s_p90": "s", "failed_ratio": "ratio", "pace_p50": "x"}


def hermetic_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("GRP_THREADS", "GRP_MAX_ELEMENTS", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # str and bytes keys iterate in the same order in every run
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, out, setup_only, deadline):
    """Start one worker; return (seconds until it was ready, its result)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--expected", args.expected,
           "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=hermetic_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit("worker exceeded the run deadline")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return setup, (None if setup_only else json.loads(rest.splitlines()[-1]))


def quantile(values, q):
    """Nearest-rank quantile, and how many samples lie above it."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))
    return ordered[k], len(ordered) - 1 - k


def end_to_end(setups, result):
    untraced = [v for v in result["verdicts"] if not v["traced"]]
    seconds = [v["paced_s"] for v in untraced]
    wall = [v["wall_s"] for v in untraced]
    p90, beyond = quantile(seconds, 0.9)
    return {
        "setup_s": statistics.median(setups),
        "verdict_s_p50": statistics.median(seconds),
        "verdicts_per_s": len(seconds) / sum(seconds),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        # shown only where ten samples lie beyond it
        "verdict_s_p90": p90 if beyond >= 10 else None,
        "samples": len(seconds),
        "wall_verdict_s_p50": statistics.median(wall),
        "pace_p50": statistics.median(v["pace"] for v in untraced),
    }


def per_layer(result):
    trace = result["trace"]
    rounds = trace["per_round"]
    out = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    out["trace.round_s"] = statistics.median(trace["traced_round_s"])
    out["trace.overhead_ratio"] = (
        statistics.median(trace["traced_round_paced_s"])
        / statistics.median(trace["untraced_round_paced_s"]))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.toml"),
                    help="expected answers (default: %(default)s)")
    args = ap.parse_args(argv)
    args.expected = os.path.abspath(args.expected)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "solvlen", "__init__.py")):
        print("error: no src/solvlen here; run from the root of a solvlen "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out = os.path.join(HERE, "out",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    setups = [spawn(args, out, True, deadline)[0] for _ in range(SETUP_PROBES)]
    _, result = spawn(args, out, False, deadline)

    verdicts = result["verdicts"]
    failed = [v for v in verdicts if v["why"]]
    e2e = end_to_end(setups, result)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    outcomes = sorted({json.dumps([v["spec"], v["outcome"]]) for v in verdicts})
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    print(f"verdicts {len(outcomes)} distinct outcomes, sha256 {digest}")
    for v in failed:
        print(f"FAIL {v['spec']}: {'; '.join(v['why'])}")
    units = dict({m["name"]: m["unit"] for m in bench["end_to_end"]},
                 **EXTRA_UNITS)
    shown = dict(e2e, failed_ratio=len(failed) / len(verdicts))
    for name in SHOWN:
        value = shown[name]
        line = f"{name:38s} {'n/a' if value is None else f'{value:.6g}':>14s}"
        line += f" {units[name]:6s}"
        if "verdict_s" in name:
            line += f" n={e2e['samples']}"
        print(line.rstrip())
    if args.trace:
        layers = per_layer(result)
        for m in bench["per_layer"]:
            print(f"{m['name']:38s} {layers[m['name']]:14.6g} {m['unit']}")
        metrics, values = bench["per_layer"], layers
    else:
        metrics, values = bench["end_to_end"], e2e
    print(f"record {os.path.relpath(out, ROOT)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics}}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
