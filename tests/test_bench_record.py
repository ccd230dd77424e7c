"""The benchmark recorder's arithmetic: quartiles, wins and bounds.

The runs themselves take minutes and are left to the script; these checks
feed it made-up reports.
"""

import hashlib
import importlib.util
import json
import pathlib
import subprocess
import types

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _round(wall, rate, rss, passes):
    e2e = {s["name"]: 1.0 for s in bench_record.BENCHMARK["end_to_end"]}
    e2e.update(wall_s=wall, items_per_s=rate, peak_rss_mb=rss)
    return {"w": {"workload": "w", "passes": passes, "digest": "d", "error_share": 0.0,
                  "end_to_end": e2e}}


def test_summary_gives_median_and_quartiles():
    s = bench_record.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["q1"], s["median"], s["q3"], s["iqr"]) == (2.0, 3.0, 4.0, 2.0)
    assert bench_record.summary([7.0])["iqr"] == 0.0


def test_compare_counts_wins_in_each_metric_direction():
    parent = bench_record.collect([_round(1.0, 10.0, 40.0, 3), _round(1.2, 8.0, 40.0, 3)])
    change = bench_record.collect([_round(0.9, 9.0, 45.0, 4), _round(1.1, 9.5, 46.0, 4)])
    assert change["w"]["metrics"]["peak_rss_mb"]["passes"] == [4, 4]
    rows = bench_record.compare(parent, change)["w"]
    assert rows["wall_s"]["change_won"] == 2 and rows["wall_s"]["verdict"] == "within-bound"
    assert rows["items_per_s"]["change_won"] == 1  # higher is better
    rss = rows["peak_rss_mb"]
    assert rss["change_won"] == 0
    assert abs(rss["median_worse_by"] - 0.1375) < 1e-12 and rss["verdict"] == "worse"


def _wall_rows(parent_walls, change_walls):
    parent = bench_record.collect([_round(w, 1.0, 1.0, 1) for w in parent_walls])
    change = bench_record.collect([_round(w, 1.0, 1.0, 1) for w in change_walls])
    return bench_record.compare(parent, change)["w"]["wall_s"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # parent quartiles 1.0 and 2.0 around a median of 1.5: spread 0.67 > 0.25
    row = _wall_rows([1.0, 1.0, 1.5, 2.0, 2.0], [1.4, 1.5, 1.5, 1.6, 1.6])
    assert row["median_worse_by"] == 0.0 and row["verdict"] == "unresolved"
    # unless every run of the change beats every run of the parent
    row = _wall_rows([1.0, 1.0, 1.5, 2.0, 2.0], [0.5, 0.6, 0.7, 0.8, 0.9])
    assert row["verdict"] == "within-bound"


def test_a_zero_parent_median_is_judged_only_when_nothing_moved():
    row = _wall_rows([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert row["median_worse_by"] is None and row["verdict"] == "within-bound"
    row = _wall_rows([0.0, 0.0, 0.0], [0.0, 5.0, 5.0])
    assert row["median_worse_by"] is None and row["verdict"] == "unresolved"


def test_each_run_uses_the_benchmarks_run_length_and_the_pinned_seed(monkeypatch):
    seen = []

    def fake_run(cmd, **kwargs):
        seen.append(cmd)
        report = json.dumps({"workload": "w"})
        return subprocess.CompletedProcess(cmd, 0, stdout=report + "\n{}\n", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    assert list(bench_record.run_once(pathlib.Path("."))) == ["w"]
    cmd = seen[0]
    assert cmd[cmd.index("--seed") + 1] == "5"
    assert cmd[cmd.index("--seconds") + 1] == str(bench_record.BENCHMARK["run_seconds"])


INPUTS = pathlib.Path("/tmp")
COMMANDS = bench_record.commands(INPUTS)


def _timed(times, exit_code=0, digest="d"):
    return {name: {"s": t, "exits": [exit_code], "digests": [digest]}
            for name, t in zip(COMMANDS, times)}


def test_command_timings_give_median_quartiles_exits_and_digests():
    n = len(COMMANDS)
    rounds = [_timed([t] * n, exit_code=1, digest=f"d{int(t) % 2}")
              for t in (5.0, 1.0, 3.0, 2.0, 4.0)]
    out = bench_record.collect_commands(rounds)
    assert list(out) == list(COMMANDS)
    row = out["suite all"]
    assert (row["q1"], row["median"], row["q3"], row["iqr"]) == (2.0, 3.0, 4.0, 2.0)
    assert row["runs"] == [5.0, 1.0, 3.0, 2.0, 4.0] and row["unit"] == "s"
    assert row["exits"] == [1] and row["digests"] == ["d0", "d1"]


def test_command_timings_are_compared_by_wins_and_median():
    n = len(COMMANDS)
    parent = bench_record.collect_commands([_timed([t] * n) for t in (2.0, 2.2, 2.4)])
    change = bench_record.collect_commands([_timed([t] * n) for t in (1.0, 2.3, 1.2)])
    row = bench_record.duel(parent["cold_start"], change["cold_start"], 1.0)
    assert row["change_won"] == 2 and row["rounds"] == 3
    assert abs(row["median_worse_by"] - (1.2 - 2.2) / 2.2) < 1e-12


def test_the_identity_table_is_written_in_full():
    m = bench_record.IDENTITY13["matrix"]
    assert bench_record.IDENTITY13["kind"] == "explicit"
    assert m == [[1.0 if i == j else 0.0 for j in range(13)] for i in range(13)]


def test_the_closure_inputs_are_cabellos_first_eight_rays():
    assert set(bench_record.INPUTS) == {"identity13.json", "ray4.json", "cabello8.json"}
    assert bench_record.RAY4 == {"kind": "ray", "d": 4}
    gens = bench_record.CABELLO8["generators"]
    assert [v for (v,) in gens] == [
        [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, -1.0, 0.0], [1.0, -1.0, 1.0, -1.0]]


def test_each_suite_and_the_cold_start_run_on_the_sides_own_source(monkeypatch):
    seen = []
    # each command's three runs take 5, 2 and 3 s: a start and an end reading each
    ticks = iter([t for _ in COMMANDS for d in (5.0, 2.0, 3.0) for t in (0.0, d)])

    def fake_run(cmd, **kwargs):
        seen.append((cmd, kwargs["cwd"], kwargs["env"]["PYTHONPATH"]))
        return subprocess.CompletedProcess(cmd, len(seen) % 2, stdout="out", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record, "time", types.SimpleNamespace(perf_counter=ticks.__next__))
    where = pathlib.Path("side")
    out = bench_record.time_commands(where, COMMANDS)
    repeats = bench_record.REPEATS
    assert [cmd[3:] for cmd, _, _ in seen[::repeats]] == [
        ["suite", s, "--seed", "42", "--json"]
        for s in ("lattice", "similarity", "sigma", "prob", "rv", "all")] + [
        ["validate", str(INPUTS / "identity13.json"), "--json"],
        ["prob", "validate", "fixtures/ray2.json", "fixtures/measure_pure_e1.json", "--json"],
        ["prob", "equal", "fixtures/ray2.json", "fixtures/measure_pure_e1.json",
         "fixtures/measure_mix_axes.json", "--json"],
        ["sigma", "generate", str(INPUTS / "ray4.json"), str(INPUTS / "cabello8.json"),
         "--cap", "512", "--json"],
        ["--version"]]
    assert len(seen) == repeats * len(COMMANDS)
    assert {tuple(cmd[1:3]) for cmd, _, _ in seen} == {("-m", "starprob.cli")}
    assert {(cwd, path) for _, cwd, path in seen} == {(where, str(where / "src"))}
    assert out["suite rv"]["s"] == 2.0  # the fastest of the three runs
    assert out["suite rv"]["exits"] == [0, 1]
    assert out["cold_start"]["digests"] == [hashlib.sha256(b"out").hexdigest()]


def test_the_timed_fixtures_are_in_the_repository():
    # read relative to each side's own checkout, which holds the same files
    paths = [a for args in COMMANDS.values() for a in args if a.startswith("fixtures/")]
    assert len(paths) == 5
    assert all((SCRIPT.parents[1] / a).is_file() for a in paths)
