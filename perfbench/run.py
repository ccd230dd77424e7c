"""The starprob benchmark: seeded workloads, checked answers, timed layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ray_lattice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run builds a fixed batch of items from the seed and runs it pass after
pass, one item at a time in this one process (a closed loop with a single
client), until the next pass would end past ``--seconds``.  Every answer of
every pass goes through the workload's oracles; an item whose answer fails
them, or that raises, counts as failed.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` the second pass runs under the layer tracer (see
``tracer.py``); its spans are written to ``.perfbench_out/`` and the run
prints the per-layer metrics instead, plus ``trace.overhead_s``, the traced
pass's wall time minus the mean of the untraced passes around it.  ``--workload all`` runs each
workload in a fresh process, one after another, and prints every metric
prefixed with the workload name.

The line before the last is a report with every figure, the result digest
(a hash of every item's rounded answer, equal across passes, traced or not),
and the machine; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics (an item is one query or case of the workload):

* ``setup_s``: median, over several fresh processes, of the time from
  process start to inputs ready (interpreter start, ``import starprob``,
  building the seeded batch).
* ``wall_s``: the time of one pass over the batch, each item counted at its
  steadiest repetition (see ``item_time``); ``items_per_s`` is the batch size
  over ``wall_s``.
* ``item_p50_ms`` and ``item_tail_ms``: median and tail of those item times;
  the tail is the highest of 99.9/99/95/90/80/75 percent that leaves ten or
  more items beyond it (50 for batches too small for any), recorded in the
  report with the count.
* ``exact_share``: exact or certified answers over all answers, first pass.
* ``peak_rss_mb``: peak resident memory of this process.

Every time above is given at the reference speed of the machine.  The host
is shared, and other tenants slow it down by up to about 1.8 times for
spells of seconds to minutes; a run that falls wholly inside such a spell
would read that much slower although the library did not change.  So the
runner also times a fixed pure-Python loop (``reference_loop``) before every
item, and scales the item times by ``REF_S`` over the loop's time (see
``speed_scale``); each set-up probe is scaled likewise by a reference
start-up spawned next to it (see ``measure_setup``).  A change to the
library moves the measured times but not the references.  The report
keeps the unscaled figures (``raw_end_to_end``) and the scale factors.

``error_share`` (failed items over items attempted) is in the report; the
result object carries the same count as ``failed`` and sets ``correct`` to
false when it is not zero or when a pass gave a different digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("ray_lattice", "ray_similarity", "discrete_fields")
SETUP_PROBES = 7
REF_S = 0.5e-3  # the speed probe's time at the reference speed
REF_START_S = 0.1  # the reference start-up's time at the reference speed
REF_START = "import numpy; print('ready', flush=True)"
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None,
                    help="batch size (default: the workload's own); for smoke runs")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_blas_threads() -> None:
    """Run OpenBLAS on one thread; call before numpy loads.

    The library's matrices are small (at most 20000 x 6 in the sampler), and
    on a 2-CPU machine shared with other tenants a second BLAS thread made
    sampler passes about 12% slower and less steady, waiting on a CPU that
    another process held.  One process with one thread keeps the load on one
    CPU.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def import_library():
    """Import starprob from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import starprob

    if Path(starprob.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"starprob imported from {starprob.__file__}, not {src}")
    return starprob


# ---------------------------------------------------------------------------
# run-time environment


def blas_info() -> dict:
    import ctypes

    import numpy as np

    info = {"version": None, "threads": None}
    try:
        info["version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def machine_info(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        rev = out.stdout.strip() or rev
    blas = blas_info()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": blas["version"], "openblas_threads": blas["threads"],
            "git_rev": rev, "seed": seed}


# ---------------------------------------------------------------------------
# measuring


def make_batch(workload, seed: int, items: int | None):
    import numpy as np

    return workload.items(np.random.default_rng(seed), items or workload.size)


def time_start(cmd: list[str]) -> float:
    """Seconds from spawning ``cmd`` until it prints ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"start-up of {cmd} failed: {line!r}")
    return t1 - t0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Time fresh processes from spawn until their inputs are ready.

    Returns the measured times and, for each, the scale to the reference
    speed: ``REF_START_S`` over the start-up time of a bare interpreter that
    imports numpy (``REF_START``), spawned just before.  Process start-up
    is file reads, unmarshalling and dynamic loading more than interpreted
    code, and it slows down with the machine by less than the speed probe
    does; a start-up of the same kind tracks it closely.  Nothing of
    starprob runs in the reference, so work moved into the library's import
    or into input generation moves ``setup_s``.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    if args.items:
        cmd += ["--items", str(args.items)]
    times, scales = [], []
    for _ in range(SETUP_PROBES):
        scales.append(REF_START_S / time_start([sys.executable, "-c", REF_START]))
        times.append(time_start(cmd))
    return times, scales


def reference_loop() -> int:
    """A fixed pure-Python task of about half a millisecond: the speed probe.

    It does the kind of work that dominates the library's own time (hashing
    frozensets, dict lookups, integer arithmetic in the interpreter) and
    touches nothing of starprob, so a change to the library cannot move it.
    """
    seen: dict[frozenset, int] = {}
    total = 0
    for i in range(1200):
        key = frozenset((i % 97, i % 89, i % 7))
        if key not in seen:
            seen[key] = i
        total += seen[key] * 3 // 7
    return total


def run_pass(workload, batch, tracer=None) -> dict:
    """One pass over the batch: timed calls first, then the oracles.

    The speed probe runs once before every item, outside the item's time.
    """
    answers, lat_s, ref_s = [], [], []
    perf = time.perf_counter
    if tracer is not None:
        tracer.install()
    start = perf()
    try:
        for i, item in enumerate(batch):
            if tracer is not None:
                tracer.item = i
            t0 = perf()
            reference_loop()
            ref_s.append(perf() - t0)
            marks = [perf()]
            try:
                ans = workload.run(item.data, lambda: marks.append(perf()))
            except Exception as exc:  # an item that raises is a failed item
                ans = exc
            marks.append(perf())
            lat_s.append([b - a for a, b in zip(marks, marks[1:])])
            answers.append(ans)
    finally:
        wall = perf() - start
        if tracer is not None:
            tracer.uninstall()
    problems, summaries, exact, answered = [], [], 0, 0
    for i, (item, ans) in enumerate(zip(batch, answers)):
        if isinstance(ans, Exception):
            problems.append((i, f"raised {type(ans).__name__}: {ans}"))
            summaries.append(["raised", type(ans).__name__])
            continue
        try:
            found = workload.check(item.data, ans)
        except Exception as exc:  # an oracle that cannot judge the answer
            found = [f"check raised {type(exc).__name__}: {exc}"]
        problems.extend((i, p) for p in found)
        summaries.append(workload.summary(ans))
        e, n = workload.exact(ans)
        exact += e
        answered += n
    digest = hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest()
    failed_items = sorted({i for i, _ in problems})
    return {"wall": wall, "latency": lat_s, "ref": ref_s, "failed": failed_items,
            "problems": problems, "digest": digest,
            "exact": exact, "answered": answered, "summaries": summaries}


def item_time(repeats: list[list[float]]) -> float:
    """An item's time from its step times in every pass.

    Interference on a shared machine only ever adds time, in bursts of
    milliseconds to seconds, so each step counts with its fastest repetition
    across passes.  Steps are the stages a workload marks inside an item.
    """
    if len({len(r) for r in repeats}) != 1:  # an item that raised part way
        return min(sum(r) for r in repeats)
    return sum(min(step) for step in zip(*repeats))


def speed_scale(ref_times: list[float], passes: int) -> float:
    """Scale from this run's item times to times at the reference speed.

    Each step of an item counts at its fastest of ``passes`` repetitions,
    and the fastest of n draws sits on average at the 1/(n+1) quantile of
    what the machine gives; the speed probe, run before every item of every
    pass, is read at that same quantile of its own times.  A run in a slow
    spell moves both by the same factor.
    """
    s = sorted(ref_times)
    return REF_S / s[int(len(s) / (passes + 1))]


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest ladder percentile with ten or more items beyond it."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return s[rank - 1], p
    return s[math.ceil(n / 2) - 1], 50.0


def run_workload(args, workload) -> tuple[dict, dict]:
    from tracer import Tracer

    setup, setup_scales = measure_setup(args)
    batch = make_batch(workload, args.seed, args.items)
    passes, traced = [], None
    tracer = Tracer() if args.trace else None
    budget_start = time.perf_counter()
    while True:
        if tracer is not None and traced is None and passes:
            traced = run_pass(workload, batch, tracer)
        else:
            passes.append(run_pass(workload, batch))
        elapsed = time.perf_counter() - budget_start
        if elapsed + passes[-1]["wall"] > args.seconds and (
                tracer is None or traced is not None):
            break

    everything = passes + ([traced] if traced else [])
    attempted = len(batch) * len(everything)
    failed = sum(len(p["failed"]) for p in everything)
    # an answer that differs from the first pass's is a failure too
    first = passes[0]["summaries"]
    for p in everything[1:]:
        failed += sum(a != b and i not in p["failed"]
                      for i, (a, b) in enumerate(zip(first, p["summaries"])))
    digests = sorted({p["digest"] for p in everything})

    walls = [p["wall"] for p in passes]
    raw_item = [item_time([p["latency"][i] for p in passes]) for i in range(len(batch))]
    scale = speed_scale([r for p in passes for r in p["ref"]], len(passes))
    per_item = [t * scale for t in raw_item]
    wall = sum(per_item)
    tail_s, tail_p = tail(per_item)
    e2e = {
        "setup_s": (statistics.median(t * k for t, k in zip(setup, setup_scales)), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (len(batch) / wall, "1/s"),
        "item_p50_ms": (statistics.median(per_item) * 1e3, "ms"),
        "item_tail_ms": (tail_s * 1e3, "ms"),
        "exact_share": (passes[0]["exact"] / max(1, passes[0]["answered"]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "workload": workload.name, "items": len(batch),
        "error_share": failed / attempted,
        "passes": len(passes), "traced_passes": int(traced is not None),
        "pass_walls_s": walls, "setup_probes_s": setup,
        "speed_scale": scale, "setup_scales": setup_scales,
        "raw_end_to_end": {"setup_s": statistics.median(setup), "wall_s": sum(raw_item),
                           "item_p50_ms": statistics.median(raw_item) * 1e3,
                           "item_tail_ms": tail(raw_item)[0] * 1e3},
        "item_tail_percentile": tail_p,
        "items_beyond_tail": sum(v > tail_s for v in per_item),
        "digest": digests[0] if len(digests) == 1 else digests,
        "digest_stable": len(digests) == 1,
        "problems": [f"item {i} ({batch[i].shape}): {msg}"
                     for p in everything for i, msg in p["problems"]][:20],
        "machine": machine_info(args.seed),
    }
    if traced is not None:
        layer = tracer.layer_metrics()
        # the untraced passes on either side of the traced one, so that a
        # slow spell of the machine does not pass for tracing cost
        layer["trace.overhead_s"] = (traced["wall"] - statistics.mean(walls[:2]), "s")
        out = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.write(out)
        report["spans"] = tracer.span_count
        report["spans_file"] = str(out.relative_to(ROOT))
        report["traced_wall_s"] = traced["wall"]
        metrics = layer
    else:
        metrics = e2e
    report["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def run_all(args) -> int:
    """Each workload in its own fresh process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.items:
            cmd += ["--items", str(args.items)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            sys.stderr.write(out.stderr)
            return 1
        print(lines[-2])
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pin_blas_threads()
    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        make_batch(workload, args.seed, args.items)
        print("ready", flush=True)
        return 0
    report, result = run_workload(args, workload)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
