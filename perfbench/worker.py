"""Child process of the benchmark: sets up one workload, then times verdicts.

run.py starts it with the checkout's ``src/`` as the only PYTHONPATH entry
and without the ``GRP_*`` variables.  The worker prints ``ready`` once it
is set up, measures, writes its record under ``perfbench/out/`` and prints
one JSON line with its results.

A verdict is one spec in, one report out: ``solvlen.cli.build_report``,
the call behind ``grp eval`` and ``grp verify-table``, checked against
``expected.toml``.  A round is one verdict for ``row7`` and ``row8`` and
one pass over the shuffled corpus for ``eval-mix``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import sys
import time
import tomllib

from pace import Sampler
from spans import Tracer, install, layer_metrics, reduction_calls

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Full `grp eval` reports, lemma checks included: the paper's rows
# d = 0..6, matrix and model groups, and small-degree permutation groups
# with deep stabilizer chains.
EVAL_MIX = (
    "cyclic(1)", "cyclic(2)", "metacyclic(2,3)", "natsd(s3mat(5),2)",
    "gl(2,3)", "qutrit(7)", "gsp(gl(2,3),3,1)",
    "ut(4,3)", "ut(3,5)", "gl(3,3)", "extsq(7)", "qutrit(13)", "bo()",
    "extraspecial(3,1)", "extraspecial(5,1)", "extraspecial(2,2,minus)",
    "sl(2,5)",
    "wr(sym(3),wr(sym(3),sym(3)))", "wr(sym(4),sym(4))", "wr(sym(3),sym(3))",
    "sym(7)", "sym(4)", "direct(sym(3),sym(4))", "regular(gl(2,3))",
    "natsd(gl(2,3),2)",
)

# name -> (specs of one round, run the lemma checks); row7 and row8 run as
# `grp verify-table` runs them
WORKLOADS = {
    "row7": (("prop8(7)",), False),
    "row8": (("d8()",), False),
    "eval-mix": (EVAL_MIX, True),
}


def import_solvlen():
    """Import the checkout's solvlen and refuse any other copy."""
    import solvlen
    want = os.path.realpath(os.path.join(SRC, "solvlen"))
    got = os.path.realpath(os.path.dirname(solvlen.__file__))
    if got != want:
        raise SystemExit(f"solvlen imported from {got}, expected {want}")
    from solvlen import cli, lift
    return cli, lift


def load_expected(path):
    with open(path, "rb") as f:
        return tomllib.load(f)


def judge(report, expected):
    """Reasons a report disagrees with its expected answer; [] if none."""
    why = [f"{key} {report[key]!r} != {expected[key]!r}"
           for key in ("order", "solvable", "d", "c")
           if key in expected and report[key] != expected[key]]
    why += [f"check {c['name']} failed: {c['detail']}"
            for c in report["checks"] if c["status"] == "fail"]
    return why


def environment():
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": _git_commit(),
            "src_sha256": _src_digest()}


def _git_commit():
    # the benchmark may run from an export with no .git; then the source
    # digest identifies the code
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def _src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "solvlen")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


class Workload:
    """The inputs of one workload and the loop that times its verdicts."""

    def __init__(self, name, seed, expected):
        self.cli, self.lift = import_solvlen()
        self.name = name
        self.specs, self.run_checks = WORKLOADS[name]
        missing = [s for s in self.specs if s not in expected]
        if missing:
            raise SystemExit(f"no expected answer for {missing}")
        self.expected = expected
        self.rng = random.Random(seed)
        self.verdicts = []
        self.tracer = None
        self.sampler = Sampler()
        self.lift._D8_CACHE.clear()

    def next_round(self):
        specs = list(self.specs)
        self.rng.shuffle(specs)
        return specs

    def verdict(self, spec):
        # every CLI run pays the whole d = 8 pipeline; a filled cache
        # would make row8 look about 40 s faster
        why = ["stale d8() cache"] if self.lift._D8_CACHE else []
        if self.tracer is not None:
            self.tracer.verdict = len(self.verdicts)
        t0 = time.perf_counter()
        try:
            report, _ = self.cli.build_report(spec,
                                              run_checks=self.run_checks)
        except Exception as e:  # a raising verdict counts as failed
            seconds = time.perf_counter() - t0
            report, why = None, why + [f"{type(e).__name__}: {e}"]
        else:
            seconds = time.perf_counter() - t0
            why += judge(report, self.expected[spec])
        outcome = None if report is None else [
            report["order"], report["solvable"], report["d"], report["c"],
            [c["status"] for c in report["checks"]]]
        del report
        self.lift._D8_CACHE.clear()
        gc.collect()
        self.verdicts.append({"spec": spec, "t0": t0, "wall_s": seconds,
                              "why": why, "traced": self.tracer is not None,
                              "outcome": outcome})
        return seconds

    def pace(self, rounds):
        """Divide each verdict's time by the pace of its round; a round is
        long enough to hold many samples, a short verdict is not."""
        for r in rounds:
            vs = [self.verdicts[v] for v in r]
            pace = self.sampler.pace(vs[0]["t0"],
                                     vs[-1]["t0"] + vs[-1]["wall_s"])
            for v in vs:
                v["pace"] = pace
                v["paced_s"] = self.sampler.busy(
                    v["t0"], v["t0"] + v["wall_s"]) / pace

    def run(self, seconds):
        """Whole rounds until `seconds` have been measured, at least one.
        Returns the verdict-index ranges of the rounds."""
        rounds = []
        measured = 0.0
        while not rounds or measured < seconds:
            first = len(self.verdicts)
            measured += sum(self.verdict(s) for s in self.next_round())
            rounds.append(range(first, len(self.verdicts)))
        return rounds


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--expected", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = Workload(args.workload, args.seed, load_expected(args.expected))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with wl.sampler:
        rounds = wl.run(args.seconds)
        traced = []
        if args.trace:
            wl.tracer = Tracer()
            install(wl.tracer)
            traced = wl.run(args.seconds)
    wl.pace(rounds + traced)
    record = {"workload": args.workload, "seed": args.seed,
              "env": environment(),
              "trace": trace_record(wl, rounds, traced) if traced else None}
    record["verdicts"] = wl.verdicts
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f)
    summary = {k: v for k, v in record.items() if k != "trace"}
    if record["trace"] is not None:
        summary["trace"] = {k: v for k, v in record["trace"].items()
                            if k != "spans"}
    print(json.dumps(summary), flush=True)
    return 0


def trace_record(wl, rounds, traced):
    """Per-layer metrics of each traced round, and the spans behind them."""
    if wl.name == "row8":
        calls = reduction_calls(wl.tracer)
        for v in (v for r in traced for v in r):
            if calls[v] != 1:
                wl.verdicts[v]["why"].append(
                    f"{calls[v]} two_generator_reductions, expected 1")

    def total(r, key):
        return sum(wl.verdicts[v][key] for v in r)
    return {"sites": wl.tracer.sites, "spans": wl.tracer.spans,
            "per_round": [layer_metrics(wl.tracer, r, total(r, "wall_s"))
                          for r in traced],
            "traced_round_s": [total(r, "wall_s") for r in traced],
            "untraced_round_paced_s": [total(r, "paced_s") for r in rounds],
            "traced_round_paced_s": [total(r, "paced_s") for r in traced]}


if __name__ == "__main__":
    sys.exit(main())
