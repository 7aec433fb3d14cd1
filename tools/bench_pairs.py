"""Paired parent/change benchmark runs, written as a BENCH_<n>.json file.

    python3 tools/bench_pairs.py --parent HEAD --number 7 \\
        --seed eval-mix=7401 --seed row8=7501 --seed row7=7601 \\
        --claim eval-mix verdicts_per_s ">= 1.5x the parent median" \\
        --change-note "what the change does" --traced-seed 77

Run from the root of a solvlen checkout.  The parent revision is exported
with `git archive`; the change side is the working tree as it is on disk
(tracked and untracked files that git does not ignore).  Each side runs
from its own copy in a temporary directory, and the two copies must hold
the same perfbench/ and BENCHMARK.json.

For each workload, pair i (from 0) of ten runs

    python3 perfbench/run.py --workload W --seed FIRST+i --seconds S --trace 0

once on each side, S being BENCHMARK.json's run_seconds, the parent first
in pairs 1, 3, 5, ... counted from 1.
The file gives, per end-to-end metric of BENCHMARK.json, the median and
quartiles (inclusive method) of each side's runs, their ratio, the
number of pairs in which the change is better and a verdict (see
`verdict`).  With --traced-seed, one
traced run per side of the claimed workload follows the pairs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = ["perfbench/run.py"]
SIDES = ("parent", "change")
PAIRS = 10


def side_summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(entry, bound, claimed):
    """A metric's verdict by the repository's rule.  A claimed metric is
    `met` when the change is better in at least 9 of 10 pairs and its
    median beats the parent's by more than the parent's interquartile
    range, else `not met`.  Any other metric is `worse` when the change's
    median is worse than the parent's by more than `bound` (a fraction
    of the parent's median), else `unresolved` when the parent's IQR is
    wider than that, else `within`."""
    parent, change = entry["parent"], entry["change"]
    sign = 1 if entry["better"] == "higher" else -1
    gain = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    if claimed:
        wins = 10 * entry["change_better_pairs"] >= 9 * len(
            entry["parent_runs"])
        return "met" if wins and gain > iqr else "not met"
    if -gain > bound * parent["median"]:
        return "worse"
    return "unresolved" if iqr > bound * parent["median"] else "within"


def summarize(pairs, metrics, claimed=None):
    """The workload block of a BENCH file from its pairs of runs.

    Each pair is {"seed", "first", "parent", "change"}, a side being the
    last JSON line that perfbench/run.py prints; `metrics` are the
    end-to-end entries of BENCHMARK.json (name, unit, better, bound), and
    `claimed` names the metric the change claims on this workload, if any.
    """
    block = {
        "seeds": [p["seed"] for p in pairs],
        "first_side": [p["first"] for p in pairs],
        "all_correct": all(p[s]["correct"] for p in pairs for s in SIDES),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted": {s: sum(p[s]["attempted"] for p in pairs)
                      for s in SIDES},
        "metrics": {},
    }
    for m in metrics:
        runs = {s: [p[s]["metrics"][m["name"]]["value"] for p in pairs]
                for s in SIDES}
        sign = 1 if m["better"] == "higher" else -1
        entry = {"unit": m["unit"], "better": m["better"]}
        entry.update({s: side_summary(runs[s]) for s in SIDES})
        entry["change_over_parent"] = (entry["change"]["median"]
                                       / entry["parent"]["median"])
        entry["change_better_pairs"] = sum(
            sign * (c - p) > 0
            for p, c in zip(runs["parent"], runs["change"]))
        entry.update({f"{s}_runs": runs[s] for s in SIDES})
        entry["verdict"] = verdict(entry, m["bound"], m["name"] == claimed)
        block["metrics"][m["name"]] = entry
    return block


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """Copy git revision `rev`, or the working tree when rev is None, to
    dest."""
    os.makedirs(dest)
    if rev is not None:
        with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
            tar.extractall(dest, filter="data")
        return
    listed = git("ls-files", "-z", "--cached", "--others",
                 "--exclude-standard").decode().split("\0")
    for rel in filter(None, listed):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.join(dest, os.path.dirname(rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def harness_digest(tree):
    """sha256 over BENCHMARK.json and every file of perfbench/ but out/."""
    h = hashlib.sha256()
    paths = [os.path.join(tree, "BENCHMARK.json")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(tree,
                                                             "perfbench")):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in ("out", "__pycache__"))
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, tree).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_once(tree, workload, seed, seconds, trace):
    """(the run's last JSON line, its env line) for one harness run."""
    cmd = [sys.executable, *RUN, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(x[4:]) for x in lines if x.startswith("env ")),
               {})
    env.pop("commit", None)  # an export has no .git
    return json.loads(lines[-1]), env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent git revision")
    ap.add_argument("--number", type=int, required=True,
                    help="write BENCH_<number>.json at the checkout root")
    ap.add_argument("--seed", action="append", default=[], required=True,
                    metavar="WORKLOAD=FIRST", help="first seed of a workload; "
                    "only the workloads given run")
    ap.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC",
                                                 "TARGET"))
    ap.add_argument("--change-note", default="")
    ap.add_argument("--traced-seed", type=int,
                    help="one traced run per side of the claimed workload")
    ap.add_argument("--tmp", default=None, help="where the copies go")
    args = ap.parse_args(argv)
    seeds = dict(s.split("=", 1) for s in args.seed)
    seeds = {w: int(s) for w, s in seeds.items()}

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    unknown = set(seeds) - {w["name"] for w in bench["workloads"]}
    if unknown:
        raise SystemExit(f"unknown workloads {sorted(unknown)}")
    with tempfile.TemporaryDirectory(prefix="bench_pairs-",
                                     dir=args.tmp) as tmp:
        trees = {"parent": os.path.join(tmp, "parent"),
                 "change": os.path.join(tmp, "change")}
        export(args.parent, trees["parent"])
        export(None, trees["change"])
        if harness_digest(trees["parent"]) != harness_digest(trees["change"]):
            raise SystemExit("perfbench/ or BENCHMARK.json differs "
                             "between the two trees")
        out = {"change": args.change_note}
        if args.claim:
            out["claim"] = dict(zip(("workload", "metric", "target"),
                                    args.claim))
        out["parent_commit"] = git("rev-parse", args.parent).decode().strip()
        out["command"] = " ".join(["python3", *RUN, "--workload W --seed S",
                                   f"--seconds {seconds} --trace 0"])
        ranges = ", ".join(f"{w} {s}-{s + PAIRS - 1}"
                           for w, s in seeds.items())
        out["method"] = (
            f"{PAIRS} pairs per workload ({ranges}); the parent runs "
            "first in odd pairs (first_side); each side runs from its own "
            "copy of the tree, the change from a copy of the working tree; "
            "medians and quartiles "
            "(inclusive method) over the runs of each side; "
            "change_better_pairs counts the pairs in which the change is "
            "better; verdict: a claimed metric is met when the change wins "
            "at least 9 of 10 pairs and its median beats the parent's by "
            "more than the parent's IQR, any other is worse past "
            "BENCHMARK.json's bound and unresolved when the parent's IQR "
            "is wider than the bound")
        out["host"] = (f"{os.cpu_count()} CPUs; verdict times are paced by "
                       "perfbench/pace.py")
        out["env"] = {}
        out["workloads"] = {}
        for workload, first in seeds.items():
            pairs = []
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": first + i, "first": order[0]}
                for side in order:
                    pair[side], env = run_once(trees[side], workload,
                                               first + i, seconds, 0)
                    out["env"].setdefault(side, env)
                    print(f"{workload} seed {first + i} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}",
                          file=sys.stderr)
                pairs.append(pair)
            out["workloads"][workload] = summarize(
                pairs, bench["end_to_end"],
                args.claim[1] if args.claim and args.claim[0] == workload
                else None)
        if args.claim and args.traced_seed is not None:
            workload = args.claim[0]
            traced = {s: run_once(trees[s], workload, args.traced_seed,
                                  seconds, 1)[0]["metrics"]
                      for s in SIDES}
            out["traced_" + workload.replace("-", "_")] = {
                "command": " ".join(["python3", *RUN, "--workload", workload,
                                     f"--seed {args.traced_seed}",
                                     f"--seconds {seconds} --trace 1"]),
                "note": "one traced run per side after the pairs; per-layer "
                        "metrics are medians over the traced rounds, in "
                        "wall seconds",
                "metrics": {m["name"]: {"unit": m["unit"],
                                        "parent": traced["parent"][m["name"]]
                                        ["value"],
                                        "change": traced["change"][m["name"]]
                                        ["value"]}
                            for m in bench["per_layer"]}}
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
