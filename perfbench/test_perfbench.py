"""Tests of the benchmark itself: python3 -m pytest perfbench

The tests that run the benchmark run eval-mix for one corpus pass, about
15 s each.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import worker  # noqa: E402


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "1",
         *args], cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def omega(n):
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (n > 1)


def test_expected_file_is_consistent():
    expected = worker.load_expected(os.path.join(HERE, "expected.toml"))
    for specs, _ in worker.WORKLOADS.values():
        for spec in specs:
            exp = expected[spec]
            if exp["solvable"]:
                assert exp["c"] == omega(exp["order"]), spec
            else:
                assert "c" not in exp and "d" not in exp, spec


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    code, lines, result = bench("--workload", "eval-mix", "--seed", "1",
                                "--trace", str(trace))
    assert code == 0 and result["correct"] and result["failed"] == 0
    declared = benchmark_json()[section]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in
                   line.split()[2:] for line in lines), m["name"]
    assert any(line.startswith("failed_ratio") for line in lines)


def test_verdicts_same_under_two_seeds():
    digests = []
    for seed in (1, 2):
        code, lines, _ = bench("--workload", "eval-mix", "--seed", str(seed))
        assert code == 0
        digests += [line for line in lines if line.startswith("verdicts ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_corrupted_expected_answer_fails(tmp_path):
    with open(os.path.join(HERE, "expected.toml")) as f:
        text = f.read()
    bad = text.replace('["gl(2,3)"]\n# [GL]: (9 - 1)(9 - 3) = 48; row d = 4 '
                       'of [T]\norder = 48', '["gl(2,3)"]\norder = 49')
    assert bad != text
    path = tmp_path / "expected.toml"
    path.write_text(bad)
    code, lines, result = bench("--workload", "eval-mix", "--seed", "1",
                                "--expected", str(path))
    assert code == 1 and not result["correct"] and result["failed"] == 1
    ratio = next(line for line in lines if line.startswith("failed_ratio"))
    assert float(ratio.split()[1]) > 0
    assert any(line.startswith("FAIL gl(2,3): order 48 != 49")
               for line in lines)


def test_every_import_site_is_patched():
    subprocess_code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import spans\n"
        "t = spans.Tracer(); spans.install(t); print(' '.join(t.sites))"
        % (os.path.join(ROOT, "src"), HERE))
    out = subprocess.run([sys.executable, "-c", subprocess_code],
                         capture_output=True, text=True, check=True).stdout
    sites = set(out.split())
    for site in ("cli.derived_series", "cli.check_lemmas",
                 "lift.derived_series", "lift.holomorph_perm", "cli.evaluate",
                 "grp.derived_series", "perm.schreier_sims"):
        assert "solvlen." + site in sites, site


def test_bare_directory_refuses(tmp_path):
    os.mkdir(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith((".py", ".toml")):
            with open(os.path.join(HERE, name), "rb") as f:
                (tmp_path / "perfbench" / name).write_bytes(f.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(benchmark_json()))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "row7", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
