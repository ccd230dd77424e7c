"""Record the benchmark's end-to-end metrics, optionally against another revision.

Usage:
    python3 scripts/bench_record.py [--against REV] [--rounds 5] > BENCH_<n>.json

Each round runs ``perfbench/run.py --workload all`` unchanged, with the
command and the run length (``run_seconds``) that ``BENCHMARK.json`` sets
and the seed the result digests are pinned to, on this checkout (the
"change" side).  With ``--against REV`` the committed files of ``REV`` are
unpacked into a temporary directory (``git archive``, so the repository's
own metadata is left alone) and every round runs both sides, alternating
which goes first.  After the workloads each side also times the command
line on its own source, best of three runs: ``suite <id> --seed 42 --json``
for every suite id, ``validate <table> --json`` on a 13-point identity
table, ``prob validate`` and ``prob equal`` of the ``ray2`` pure state
``e1`` without a field (against ``measure_mix_axes.json`` for equality),
``sigma generate`` of Cabello's first 8 rays of ``ray(4)`` with
``--cap 512`` (a real ray closure, which passes the cap and exits 2), and
the cold start of ``--version``.  The table and the closure's inputs are
written once to a temporary directory, so both sides read the same
absolute paths.

The JSON on stdout holds, per side and workload, every run of each
end-to-end metric with its median and quartiles, the result digests, the
error share and the number of passes.  ``peak_rss_mb`` carries the passes
next to its runs, because the memory peak grows with the number of passes
that fit in the run.  With ``--against`` it also holds, per workload and
metric, how many rounds the change won and its median against the parent's,
with a verdict: ``within-bound`` or ``worse`` by the bound in
``BENCHMARK.json``, or ``unresolved`` where the parent's own spread is wider
than the bound or its median is 0 (unless every run of the change beats
every run of the parent).  The command-line timings carry the same runs,
median and quartiles, with each command's distinct exit codes and stdout
digests, and are compared by wins and median only, as the benchmark sets
no bound for them.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5  # the seed the workloads' result digests are pinned to
SUITES = ("lattice", "similarity", "sigma", "prob", "rv", "all")
# 2**13 orthogonal point sets, past the enumeration budget, so validate samples it
IDENTITY13 = {"kind": "explicit",
              "matrix": [[float(i == j) for j in range(13)] for i in range(13)]}
# the first 8 of the 18 rays of Cabello, Estebaranz and Garcia-Alcaine
# (1996), in the order their bases list them: they close past 512 events
RAY4 = {"kind": "ray", "d": 4}
CABELLO8 = {"generators": [[[float(x) for x in ray]] for ray in (
    (0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0), (0, 1, 0, 0),
    (1, 0, 1, 0), (1, 0, -1, 0), (1, -1, 1, -1))]}
# the timed commands' inputs that no checkout holds, by file name
INPUTS = {"identity13.json": IDENTITY13, "ray4.json": RAY4, "cabello8.json": CABELLO8}
# a pure ray state without a field, decided in closed form; read from each
# side's own fixtures
PURE_E1 = ("fixtures/ray2.json", "fixtures/measure_pure_e1.json")
# a command's time in a round is its fastest of this many runs: single runs
# straight after the workloads spread by half their median on this 2-core box
REPEATS = 3


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def unpack(rev: str, into: Path) -> None:
    """The committed files of ``rev``, unpacked into ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_once(where: Path) -> dict:
    """One ``--workload all`` run: each workload's report, by name."""
    cmd = BENCHMARK["command"] + ["--workload", "all", "--seed", str(SEED),
                                  "--seconds", str(BENCHMARK["run_seconds"]),
                                  "--trace", "0"]
    out = subprocess.run(cmd, cwd=where, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"benchmark failed in {where} (exit {out.returncode})")
    reports = [json.loads(line) for line in out.stdout.splitlines()[:-1]]
    return {r["workload"]: r for r in reports}


def commands(inputs: Path) -> dict:
    """The command lines timed after the workloads, by name; ``inputs`` is
    the directory holding the files of ``INPUTS``."""
    return {**{f"suite {s}": ["suite", s, "--seed", "42", "--json"] for s in SUITES},
            "validate identity13": ["validate", str(inputs / "identity13.json"), "--json"],
            "prob validate pure_e1": ["prob", "validate", *PURE_E1, "--json"],
            "prob equal pure_e1 mix_axes": ["prob", "equal", *PURE_E1,
                                            "fixtures/measure_mix_axes.json", "--json"],
            "sigma generate cabello8 cap512": [
                "sigma", "generate", str(inputs / "ray4.json"),
                str(inputs / "cabello8.json"), "--cap", "512", "--json"],
            "cold_start": ["--version"]}


def time_commands(where: Path, cmds: dict) -> dict:
    """Each of ``cmds``, run ``REPEATS`` times as ``python -m
    starprob.cli`` on the source in ``where``: the fastest wall time, and
    the exit codes and stdout digests seen."""
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    out = {}
    for name, args in cmds.items():
        times, exits, digests = [], set(), set()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            run = subprocess.run([sys.executable, "-m", "starprob.cli", *args], cwd=where,
                                 env=env, capture_output=True, text=True, check=False)
            times.append(time.perf_counter() - t0)
            exits.add(run.returncode)
            digests.add(hashlib.sha256(run.stdout.encode()).hexdigest())
        out[name] = {"s": min(times), "exits": sorted(exits), "digests": sorted(digests)}
    return out


def summary(runs: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                   if len(runs) > 1 else runs * 3)
    return {"runs": runs, "median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def collect(rounds: list[dict]) -> dict:
    """Per workload: each end-to-end metric's runs and summary, the digests,
    the error shares and the passes of every round."""
    out = {}
    for name in rounds[0]:
        reports = [r[name] for r in rounds]
        passes = [r["passes"] for r in reports]
        metrics = {}
        for spec in BENCHMARK["end_to_end"]:
            metrics[spec["name"]] = summary([r["end_to_end"][spec["name"]] for r in reports])
            metrics[spec["name"]]["unit"] = spec["unit"]
        metrics["peak_rss_mb"]["passes"] = passes
        out[name] = {"digests": sorted({str(r["digest"]) for r in reports}),
                     "error_share": [r["error_share"] for r in reports],
                     "passes": passes, "metrics": metrics}
    return out


def collect_commands(rounds: list[dict]) -> dict:
    """Per command: the summary of its times, and the distinct exit codes
    and stdout digests of all its runs."""
    return {name: {**summary([r[name]["s"] for r in rounds]), "unit": "s",
                   "exits": sorted({e for r in rounds for e in r[name]["exits"]}),
                   "digests": sorted({d for r in rounds for d in r[name]["digests"]})}
            for name in rounds[0]}


def duel(p: dict, c: dict, sign: float) -> dict:
    """Rounds the change won and its median worsening, a fraction of the
    parent's median (``None`` where that median is 0)."""
    wins = sum(sign * (b - a) < 0 for a, b in zip(p["runs"], c["runs"]))
    worse = sign * (c["median"] - p["median"]) / p["median"] if p["median"] else None
    return {"change_won": wins, "rounds": len(p["runs"]), "median_worse_by": worse}


def compare(parent: dict, change: dict) -> dict:
    """Per workload and metric: the :func:`duel` of the two sides and the
    verdict against the benchmark's bound."""
    out = {}
    for name in parent:
        rows = {}
        for spec in BENCHMARK["end_to_end"]:
            p = parent[name]["metrics"][spec["name"]]
            c = change[name]["metrics"][spec["name"]]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            row = duel(p, c, sign)
            rows[spec["name"]] = {**row, "bound": spec["bound"], "verdict": verdict(
                p, c, sign, row["median_worse_by"], spec["bound"])}
        out[name] = rows
    return out


def verdict(p: dict, c: dict, sign: float, worse: float | None, bound: float) -> str:
    """``within-bound`` or ``worse``; ``unresolved`` where a relative bound
    cannot judge the parent's runs (median 0, or quartiles further apart than
    the bound), unless every run of the change beats every run of the parent."""
    if max(sign * b for b in c["runs"]) < min(sign * a for a in p["runs"]):
        return "within-bound"
    if worse is None:
        return "within-bound" if c["median"] == p["median"] else "unresolved"
    if p["iqr"] > bound * abs(p["median"]):
        return "unresolved"
    return "within-bound" if worse <= bound else "worse"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="REV",
                    help="also run this revision, alternating with this checkout")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    sides = {"change": {"dir": ROOT, "rev": git("rev-parse", "HEAD"),
                        "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}}
    with tempfile.TemporaryDirectory(prefix="bench-against-") as tmp:
        inputs = Path(tmp).resolve()
        for name, doc in INPUTS.items():
            (inputs / name).write_text(json.dumps(doc))
        cmds = commands(inputs)
        if args.against:
            parent_dir = Path(tmp, "parent")
            parent_dir.mkdir()
            sides["parent"] = {"dir": parent_dir, "rev": git("rev-parse", args.against),
                               "dirty": False}
            unpack(sides["parent"]["rev"], parent_dir)
        runs = {side: [] for side in sides}
        timed = {side: [] for side in sides}
        for i in range(args.rounds):
            order = list(sides) if i % 2 else list(sides)[::-1]
            for side in order:
                print(f"round {i + 1}/{args.rounds}: {side}", file=sys.stderr, flush=True)
                runs[side].append(run_once(sides[side]["dir"]))
                timed[side].append(time_commands(sides[side]["dir"], cmds))

    result = {"command": BENCHMARK["command"], "seed": SEED,
              "seconds": BENCHMARK["run_seconds"], "rounds": args.rounds,
              "machine": next(iter(runs["change"][0].values()))["machine"],
              "sides": {side: {"rev": info["rev"], "dirty": info["dirty"],
                               "workloads": collect(runs[side]),
                               "commands": collect_commands(timed[side])}
                        for side, info in sides.items()}}
    result["machine"].pop("git_rev", None)
    if args.against:
        parent, change = result["sides"]["parent"], result["sides"]["change"]
        result["comparison"] = compare(parent["workloads"], change["workloads"])
        result["command_comparison"] = {
            name: duel(parent["commands"][name], change["commands"][name], 1.0)
            for name in cmds}
    print(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
