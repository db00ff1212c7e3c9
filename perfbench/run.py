"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Set-up is a fresh import of the package from ``src/`` plus the seeded
inputs; ``setup_s`` is the median of all set-ups in the run.  The timed
phase runs whole rounds of the workload's fixed calls until ``--seconds``
have passed, at least one round; ``wall_s`` is the median round, counting
only the time inside the package's calls.
``peak_rss_mb`` is the process's peak resident memory at the end of the
timed phase, read before the numpy checker is imported.

With ``--trace 1`` the run makes one round with tracing off and one with
it on, prints the per-layer metrics of the traced round, and writes the
spans, counts and metrics to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import workloads
from workloads import SRC

OUT = Path(__file__).resolve().parent / "out"
SETUP_BATCH = 5
LAYERS = ("construct", "linear", "hamming", "verify", "search", "serialize", "cli", "bench")

# (name, unit) of every per-layer metric, in BENCHMARK.json's order.
PER_LAYER = (
    ("construct.s", "s"),
    ("construct.words", "count"),
    ("linear.enumerate_s", "s"),
    ("linear.words_per_s", "1/s"),
    ("linear.verify_mds_s", "s"),
    ("hamming.min_distance_s", "s"),
    ("verify.definition_s", "s"),
    ("verify.eigen_s", "s"),
    ("verify.dist2_s", "s"),
    ("verify.delsarte_s", "s"),
    ("verify.reject_s", "s"),
    ("verify.vertices_checked", "count"),
    ("verify.words_per_s", "1/s"),
    ("serialize.json_s", "s"),
    ("serialize.text_s", "s"),
    ("serialize.bytes", "bytes"),
    ("cli.construct_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.info_s", "s"),
    ("cli.search_s", "s"),
    ("search.find_s", "s"),
    ("search.find_nodes", "count"),
    ("search.refute_s", "s"),
    ("search.refute_nodes", "count"),
    ("search.nodes_per_s", "1/s"),
    ("walk.moves", "count"),
    ("walk.moves_per_s", "1/s"),
    ("walk.sphere_moves_per_s", "1/s"),
    ("walk.ball_moves_per_s", "1/s"),
    ("walk.found", "count"),
    *((f"self.{layer}_s", "s") for layer in LAYERS),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def fresh_import():
    """Import the package anew from src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "bitrades" or m.startswith("bitrades.")]:
        del sys.modules[name]
    bt = importlib.import_module("bitrades")
    if Path(bt.__file__).resolve().parent != SRC / "bitrades":
        raise SystemExit(f"bitrades was imported from {bt.__file__}, not from {SRC}")
    return bt


def timed_round(workload: str, inputs: dict, tracing: bool) -> tuple[workloads.Session, float, float]:
    gc.collect()
    start = time.perf_counter()
    session = workloads.run(workload, inputs, tracing)
    return session, start, time.perf_counter()


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def layer_metrics(session: workloads.Session, start: float, end: float, untraced_wall: float) -> dict:
    """Per-layer metrics of a traced round from its spans and counts."""
    spans = [("bench.round", start, end, None), *session.spans]
    busy: dict[str, float] = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    child_time = [0.0] * len(spans)
    for name, s, e, parent in spans[1:]:
        busy[name] = busy.get(name, 0.0) + e - s
        child_time[parent] += e - s
    for index, (name, s, e, _) in enumerate(spans):
        layer = name.split(".")[0]
        layer = "search" if layer == "walk" else layer
        self_time[layer] += e - s - child_time[index]

    c = session.counts
    m = {name: busy.get(name, 0.0) for name, unit in PER_LAYER if unit == "s"}
    m |= {name: c[name] for name, unit in PER_LAYER if unit in ("count", "bytes")}
    valid_verify = sum(m[f"verify.{k}_s"] for k in ("definition", "eigen", "dist2", "delsarte"))
    search_s = m["search.find_s"] + m["search.refute_s"]
    sphere_s, ball_s = busy.get("walk.sphere_s", 0.0), busy.get("walk.ball_s", 0.0)
    m |= {
        "linear.words_per_s": _rate(c["linear.words"], m["linear.enumerate_s"]),
        "verify.words_per_s": _rate(c["verify.words"], valid_verify),
        "search.nodes_per_s": _rate(c["search.find_nodes"] + c["search.refute_nodes"], search_s),
        "walk.moves": c["walk.sphere_moves"] + c["walk.ball_moves"],
        "walk.moves_per_s": _rate(c["walk.sphere_moves"] + c["walk.ball_moves"], sphere_s + ball_s),
        "walk.sphere_moves_per_s": _rate(c["walk.sphere_moves"], sphere_s),
        "walk.ball_moves_per_s": _rate(c["walk.ball_moves"], ball_s),
        "trace.wall_s": session.wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": session.wall - untraced_wall,
    }
    m |= {f"self.{layer}_s": t for layer, t in self_time.items()}
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}


def write_trace(path: Path, session: workloads.Session, start: float, end: float, metrics: dict) -> None:
    spans = [{"name": "bench.round", "start": 0.0, "end": end - start, "parent": None}]
    spans += [
        {"name": name, "start": s - start, "end": e - start, "parent": parent}
        for name, s, e, parent in session.spans
    ]
    path.write_text(json.dumps({"spans": spans, "counts": dict(session.counts), "metrics": metrics}, indent=1))


def set_up(args: argparse.Namespace, workdir: Path, setups: list[float]) -> dict:
    """SETUP_BATCH set-ups, each timed into setups; returns the last one's inputs."""
    for _ in range(SETUP_BATCH):
        start = time.perf_counter()
        inputs = workloads.prepare(args.workload, fresh_import(), args.seed, workdir)
        setups.append(time.perf_counter() - start)
    return inputs


def _run(args: argparse.Namespace, workdir: Path) -> int:
    # A set-up lasts about 30 ms, short enough to catch the host in one
    # fast or slow spell, so batches of them run before the first round
    # and after each round, and setup_s is the median over the whole run.
    setups: list[float] = []
    inputs = set_up(args, workdir, setups)
    rounds = []
    if args.trace:
        for tracing in (False, True):
            rounds.append(timed_round(args.workload, inputs, tracing))
    else:
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < args.seconds:
            rounds.append(timed_round(args.workload, inputs, False))
            inputs = set_up(args, workdir, setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Every round makes the same calls on the same inputs, so the first is
    # checked in full and the others must repeat its records exactly.
    records = rounds[0][0].records
    failed, problems = workloads.check(args.workload, records)
    for index, (session, _, _) in enumerate(rounds[1:], start=2):
        if session.records != records:
            problems.append(f"round {index} differs from round 1")
    for line in failed + problems:
        print(("failed: " if line in failed else "incorrect: ") + line, file=sys.stderr)

    if args.trace:
        (untraced, _, _), (traced, start, end) = rounds
        metrics = layer_metrics(traced, start, end, untraced.wall)
        write_trace(OUT / f"trace-{args.workload}-{args.seed}.json", traced, start, end, metrics)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(s.wall for s, _, _ in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records) * len(rounds),
        "failed": len({line.split(":")[0] for line in failed}) * len(rounds),
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bitrades" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
