"""The summary of `scripts/bench_pairs.py`, on fixed numbers, and its
copy of the working tree: no benchmark runs here (a few milliseconds)."""

import importlib.util
import json
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def side(ops, p50, failed=0, digest="d"):
    return {"correct": not failed, "attempted": 306, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "op_p50_ms": {"value": p50, "unit": "ms"}},
            "digest": digest}


def test_summary_of_fixed_pairs():
    par = [(500, 2.0), (480, 2.1), (510, 1.9), (490, 2.0), (470, 2.2)]
    chg = [(560, 1.8), (470, 2.2), (590, 1.7), (575, 1.75), (540, 1.8)]
    pairs = [{"seed": k, "order": ["parent", "change"][::(-1) ** k],
              "parent": side(*p), "change": side(*c, digest="d" if k else "e",
                                                 failed=k == 4)}
             for k, (p, c) in enumerate(zip(par, chg))]
    got = bench_pairs.summarize(pairs, {"ops_per_s": ("higher", 0.2),
                                        "op_p50_ms": ("lower", 0.2)})
    # 4 of 5 wins is short of 9 in 10: no gain
    assert got["ops_per_s"] == {
        "parent_median": 490, "change_median": 560, "parent_iqr": 20,
        "change_iqr": 35, "change_better_pairs": 4, "pairs": 5,
        "gain": False, "regression": "no"}
    assert got["op_p50_ms"] == {
        "parent_median": 2.0, "change_median": 1.8, "parent_iqr": 0.1,
        "change_iqr": 0.05, "change_better_pairs": 4, "pairs": 5,
        "gain": False, "regression": "no"}
    assert got["digests_equal_pairs"] == 4
    assert got["failed_executions"] == {"parent": 0, "change": 1}


def verdict(par, chg, better="higher", bound=0.2):
    pairs = [{"parent": side(p, 1.0), "change": side(c, 1.0)}
             for p, c in zip(par, chg)]
    got = bench_pairs.summarize(pairs, {"ops_per_s": (better, bound)})
    return got["ops_per_s"]["gain"], got["ops_per_s"]["regression"]


def test_gain_and_regression_verdicts_of_fixed_pairs():
    par = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]  # IQR 1.75
    # 9 of 10 wins and a median step of 5 > IQR: a gain
    chg = [105, 107, 103, 106, 104, 105, 108, 102, 105, 90]
    assert verdict(par, chg) == (True, "no")
    # 10 of 10 wins by 1, inside the parent's IQR: no gain
    assert verdict(par, [x + 1 for x in par]) == (False, "no")
    # 8 of 10 wins: no gain, however large the step
    chg = [150] * 8 + [50, 50]
    assert verdict(par, chg) == (False, "no")
    # ops/s 25% below the parent's median, bound 20%: a regression;
    # the same numbers where lower is better: a gain
    worse = [x - 25 for x in par]
    assert verdict(par, worse) == (False, "yes")
    assert verdict(par, worse, "lower") == (True, "no")
    assert verdict(par, worse, bound=0.3) == (False, "no")
    # a parent IQR of 1.75 against a bound of 1%: unresolved, unless
    # every run of the change is better than every run of the parent
    assert verdict(par, worse, bound=0.01) == (False, "unresolved")
    assert verdict(par, chg, bound=0.01)[1] == "unresolved"
    assert verdict(par, [x + 10 for x in par], bound=0.01) == (True, "no")


def test_iqr_is_the_distance_between_inclusive_quartiles():
    assert bench_pairs.iqr([1, 2, 3, 4, 5]) == 2
    assert bench_pairs.iqr([1, 2, 3, 4]) == 1.5
    assert bench_pairs.iqr([7]) == 0


def test_parse_run_reads_the_summary_line_and_the_digest():
    out = ("oracles seed 3: 102 ops, 306 executions, 0 failed, fail_ratio "
           "0.0 (ratio), digest " + "ab" * 32 + "\n  3 passes\n"
           '{"correct": true, "attempted": 306, "failed": 0, "metrics": {}}\n')
    assert bench_pairs.parse_run(out) == {
        "correct": True, "attempted": 306, "failed": 0, "metrics": {},
        "digest": "ab" * 32}


def test_run_length_and_directions_come_from_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds, metrics = bench_pairs.benchmark_spec()
    assert seconds == spec["run_seconds"]
    assert metrics == {m["name"]: (m["better"], m["bound"])
                      for m in spec["end_to_end"]}


def test_the_change_side_copies_no_compiled_cache(tmp_path, monkeypatch):
    # the parent side is a fresh archive; the change side is a fresh copy
    # of the files git tracks or does not ignore, so a `__pycache__` of
    # the working tree does not let the change skip compiling its modules
    tree, into = tmp_path / "tree", tmp_path / "copy"
    for name, text in ((".gitignore", "__pycache__/\n"),
                       ("src/pkg/mod.py", "x = 1\n"),
                       ("src/pkg/__pycache__/mod.cpython.pyc", "cache"),
                       ("perfbench/__pycache__/run.cpython.pyc", "cache"),
                       ("perfbench/run.py", "y = 2\n"),
                       ("gone.py", "")):
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text(text)
    git = ["git", "-C", str(tree)]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", ".gitignore", "src", "gone.py"], check=True)
    (tree / "gone.py").unlink()  # tracked, deleted from the tree
    monkeypatch.setattr(bench_pairs, "ROOT", str(tree))
    bench_pairs.copy_working_tree(str(into))
    copied = sorted(str(p.relative_to(into)) for p in into.rglob("*")
                    if p.is_file())
    # perfbench/run.py is untracked and not ignored: copied too
    assert copied == [".gitignore", "perfbench/run.py", "src/pkg/mod.py"]
    assert (into / "src/pkg/mod.py").read_text() == "x = 1\n"
