"""The benchmark's three workloads: inputs made from a seed, the fixed calls, their checks.

A workload is a fixed list of calls into the package's public functions.
``prepare`` makes the inputs (everything that depends on ``--seed``);
``run`` makes the calls through a ``Session``, which times each call and,
when tracing, records a span for it named after the per-layer metric it
feeds.  As soon as a call returns, its result is reduced to a small record
(verdicts, counts, and the words of any bitrade as a sorted flat symbol
array) outside the timed span, so no large result outlives its call and the
numpy checker can run after the timed phase.  ``check`` compares every
record with ``checker``, which shares no code with the package.

Only the package's public names are used, through the module object that
``prepare`` is handed, so that set-up can time a fresh import.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

SPHERICAL, PERFECT = "spherical", "perfect"

# time_budget of every walk; far above any walk's time, so only move_budget binds.
WALK_TIME_BUDGET = 3600.0

# (kind, n, q, move_budget, seeded with the volume-36 lift)
WALKS = (
    (PERFECT, 4, 3, 15000, False),
    (SPHERICAL, 6, 3, 15000, False),
    (SPHERICAL, 5, 5, 8000, False),
    (PERFECT, 7, 3, 8000, True),
)

# (kind, n, q, volume_upper_bound): three searches that find a bitrade and
# two that prove a bound below the minimum empty, since the two prune
# differently.
SEARCHES = (
    (SPHERICAL, 4, 4, None),
    (PERFECT, 5, 4, 8),
    (SPHERICAL, 5, 5, 6),
    (SPHERICAL, 3, 3, None),
    (PERFECT, 4, 3, None),
)

# The prove search whose 12-word result is certified by the four checks.
CERTIFIED = (SPHERICAL, 4, 4)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_BOOT = "import sys; from bitrades.cli import main; sys.exit(main())"

# Calls whose wrong answer is a known fault of the program: min_distance
# answers 3 ("at least 3") above 20000 words, so the [8, 5, 4] code gets 3
# and verify_mds False.  They count as failed, not as incorrect output.
KEPT_FAULTS = frozenset({"rs854.min_distance", "rs854.verify_mds"})


class Session:
    """Times one round's calls; when tracing, keeps a span per call."""

    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        self.wall = 0.0
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self.records: list[dict] = []

    def call(self, span: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.wall += end - start
        if self.tracing:
            # parent 0 is the round's own span, added by the runner
            self.spans.append((span, start, end, 0))
        return out

    def record(self, op: str, **facts) -> None:
        self.records.append({"op": op, **facts})


def pack(words) -> array:
    """Words as one sorted flat symbol array."""
    return array("B", itertools.chain.from_iterable(sorted(words)))


def pack_bitrade(b) -> dict:
    return {"n": b.params.n, "q": b.params.q, "kind": b.kind, "t0": pack(b.t0), "t1": pack(b.t1)}


# ---------------------------------------------------------------------------
# inputs


def _corruptions(b, rng: random.Random) -> list[tuple[str, frozenset, frozenset]]:
    """Two seeded corruptions of each kind: delete, move and replace a word."""
    out = []
    for op in ("delete", "move", "replace") * 2:
        parts = [set(b.t0), set(b.t1)]
        side = rng.randrange(2)
        victim = rng.choice(sorted(parts[side]))
        parts[side].remove(victim)
        if op == "move":
            parts[1 - side].add(victim)
        elif op == "replace":
            taken = b.t0 | b.t1
            while True:
                fresh = tuple(rng.randrange(b.params.q) for _ in range(b.params.n))
                if fresh not in taken:
                    break
            parts[side].add(fresh)
        out.append((op, frozenset(parts[0]), frozenset(parts[1])))
    return out


def _coset_shift(rng: random.Random, q: int) -> tuple[int, ...]:
    """A sum-zero word of GF(q), q prime, outside the base code sum_i i*x_i = 0."""
    while True:
        tail = [rng.randrange(q) for _ in range(q - 1)]
        shift = (-sum(tail) % q, *tail)
        if sum(i * s for i, s in enumerate(shift)) % q:
            return shift


def prepare(workload: str, bt, seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    if workload == "certify":
        spherical = bt.alt_bitrade(5)
        perfect = bt.lift_to_perfect(bt.alt_bitrade(4))
        rejects = [
            (b.params, b.kind, op, t0, t1)
            for b in (spherical, perfect)
            for op, t0, t1 in _corruptions(b, rng)
        ]
        params, kind, _, t0, t1 = rejects[len(rejects) // 2]
        broken = workdir / "broken.json"
        broken.write_text(json.dumps({
            "format_version": "1", "n": params.n, "q": params.q, "kind": kind,
            "t0": sorted(t0), "t1": sorted(t1),
        }))
        gf8 = bt.build_field(8)
        rows = [(1,) * 8, tuple(gf8.elements), tuple(gf8.mul(a, a) for a in gf8.elements)]
        return {
            "bt": bt,
            "shift": _coset_shift(rng, 7),
            "rejects": rejects,
            "broken": broken,
            "rs854": bt.ParityCheckCode(gf8, 8, rows),
            "workdir": workdir,
        }
    if workload == "prove":
        order = list(SEARCHES)
        rng.shuffle(order)
        configs = [
            (kind, bt.SearchConfig(bt.HammingParams(n, q), volume_upper_bound=bound))
            for kind, n, q, bound in order
        ]
        return {"bt": bt, "configs": configs}
    if workload == "walk":
        start = bt.lift_to_perfect(bt.tensor_power(bt.alt_bitrade(3), 2))
        configs = [
            (kind, bt.SearchConfig(
                bt.HammingParams(n, q),
                mode="local",
                time_budget=WALK_TIME_BUDGET,
                seed=rng.randrange(2**31),
                move_budget=budget,
                start=start if seeded else None,
            ))
            for kind, n, q, budget, seeded in WALKS
        ]
        return {"bt": bt, "configs": configs}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the calls


def _report(r) -> dict:
    return {"passed": r.passed, "failures": r.failure_count}


ALL_CHECKS = ("definition", "eigen", "dist2", "delsarte")


def _certify_pair(s: Session, bt, name: str, params, kind: str, t0, t1, checks=ALL_CHECKS, reject=False) -> None:
    """Run the named checks on one pair, as a user certifies it."""
    def span(check: str) -> str:
        return "verify.reject_s" if reject else f"verify.{check}_s"

    eigenvalue = 0 if kind == SPHERICAL else -1
    values = {**dict.fromkeys(t0, 1), **dict.fromkeys(t1, -1)}
    f = s.call(span("eigen"), bt.SignedFunction, params, values)
    if not reject:
        s.counts["verify.words"] += len(t0) + len(t1)
    for check in checks:
        if check == "definition":
            r = s.call(span(check), bt.definition_check, params, kind, t0, t1)
            s.record(f"{name}.definition", **_report(r), vertices_checked=r.details["vertices_checked"])
            if not reject:
                s.counts["verify.vertices_checked"] += r.details["vertices_checked"]
            continue
        if check == "eigen":
            r = s.call(span(check), bt.eigen_check, f, eigenvalue)
        elif check == "dist2":
            r = s.call(span(check), bt.dist2_pair_check, params, kind, t0, t1)
        else:
            r = s.call(span(check), bt.delsarte_face_check, f, bt.delsarte_order(params, eigenvalue))
        s.record(f"{name}.{check}", **_report(r))


def _construct(s: Session, fn, *args):
    b = s.call("construct.s", fn, *args)
    s.counts["construct.words"] += len(b.t0) + len(b.t1)
    return b


def _cli(s: Session, span: str, workdir: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return s.call(
        span, subprocess.run, [sys.executable, "-c", CLI_BOOT, *args],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )


def _certify(s: Session, inp: dict) -> None:
    bt = inp["bt"]

    b = _construct(s, bt.mds_bitrade, 8, "swap")
    s.record("mds8_swap.construct", bitrade=pack_bitrade(b))
    del b

    b = _construct(s, bt.mds_bitrade, 7, "coset", inp["shift"])
    s.record("mds7_coset.construct", bitrade=pack_bitrade(b), shift=inp["shift"])
    # dist2 is left out: its pairwise scans would take about half an hour here
    _certify_pair(s, bt, "mds7_coset", b.params, b.kind, b.t0, b.t1, ("definition", "eigen", "delsarte"))
    for fmt, dumps, loads in (("json", bt.dumps_json, bt.loads_json), ("text", bt.dumps_text, bt.loads_text)):
        text = s.call(f"serialize.{fmt}_s", dumps, b)
        back = s.call(f"serialize.{fmt}_s", loads, text)
        s.counts["serialize.bytes"] += len(text)
        s.record(f"mds7_coset.{fmt}", text=text, back=pack_bitrade(back))
    del b, back, text

    alt3, alt4 = _construct(s, bt.alt_bitrade, 3), _construct(s, bt.alt_bitrade, 4)
    for op, fn, args in (
        ("alt6", bt.alt_bitrade, (6,)),
        ("tensor_alt4_2", bt.tensor_power, (alt4, 2)),
        ("lift_tensor_alt3_3", lambda: bt.lift_to_perfect(bt.tensor_power(alt3, 3)), ()),
    ):
        b = _construct(s, fn, *args)
        s.record(f"{op}.construct", bitrade=pack_bitrade(b))
        r = s.call("verify.dist2_s", bt.dist2_count_check, b)
        s.counts["verify.words"] += len(b.t0) + len(b.t1)
        s.record(f"{op}.dist2", **_report(r))
    s.record("alt3.construct", bitrade=pack_bitrade(alt3))
    s.record("alt4.construct", bitrade=pack_bitrade(alt4))

    for index, (params, kind, op, t0, t1) in enumerate(inp["rejects"]):
        name = f"reject{index}_{kind}_{op}"
        s.record(f"{name}.input", pair={"n": params.n, "q": params.q, "kind": kind, "t0": pack(t0), "t1": pack(t1)})
        _certify_pair(s, bt, name, params, kind, t0, t1, reject=True)

    code = inp["rs854"]
    words = s.call("linear.enumerate_s", list, code.words())
    s.counts["linear.words"] += len(words)
    s.record("rs854.words", words=pack(words))
    as_code = s.call("hamming.min_distance_s", bt.Code, code.params, frozenset(words))
    s.record("rs854.min_distance", value=s.call("hamming.min_distance_s", bt.min_distance, as_code))
    del words, as_code
    s.record("rs854.verify_mds", value=s.call("linear.verify_mds_s", bt.verify_mds, code))

    workdir = inp["workdir"]
    runs = [
        ("construct", "cli.construct_s", ("construct", "--construction", "lift", "--q", "3", "--r", "2", "--out", "lift36.json")),
        ("verify", "cli.verify_s", ("verify", "--in", "lift36.json")),
        ("verify_broken", "cli.verify_s", ("verify", "--in", inp["broken"].name)),
        ("info", "cli.info_s", ("info", "--in", "lift36.json")),
        ("search", "cli.search_s", ("search", "--n", "4", "--q", "3")),
    ]
    for op, span, args in runs:
        done = _cli(s, span, workdir, *args)
        # the search's wall time is the one printed figure that varies
        stdout = re.sub(r"wall time \S+ s", "wall time - s", done.stdout)
        facts = {"code": done.returncode, "stdout": stdout}
        if op == "construct":
            facts["file"] = (workdir / "lift36.json").read_text()
        elif op == "verify_broken":
            facts["file"] = inp["broken"].read_text()
        s.record(f"cli.{op}", **facts)


def _prove(s: Session, inp: dict) -> None:
    bt = inp["bt"]
    for kind, config in inp["configs"]:
        fn = bt.find_spherical if kind == SPHERICAL else bt.min_perfect_volume
        bound = config.volume_upper_bound
        span = "search.find" if bound is None else "search.refute"
        result = s.call(f"{span}_s", fn, config)
        s.counts[f"{span}_nodes"] += result.nodes_explored
        p = config.params
        name = f"H{p.n}_{p.q}_{kind}"
        s.record(
            f"{name}.search",
            kind=kind, n=p.n, q=p.q, bound=bound,
            proven=result.proven_minimum, nodes=result.nodes_explored,
            bitrade=None if result.best is None else pack_bitrade(result.best),
        )
        if (kind, p.n, p.q) == CERTIFIED and result.best is not None:
            b = result.best
            _certify_pair(s, bt, name, b.params, b.kind, b.t0, b.t1)


def _walk(s: Session, inp: dict) -> None:
    bt = inp["bt"]
    for kind, config in inp["configs"]:
        fn = bt.find_spherical if kind == SPHERICAL else bt.min_perfect_volume
        hood = "sphere" if kind == SPHERICAL else "ball"
        result = s.call(f"walk.{hood}_s", fn, config)
        s.counts[f"walk.{hood}_moves"] += result.nodes_explored
        s.counts["walk.found"] += result.best is not None
        p = config.params
        s.record(
            f"H{p.n}_{p.q}_{kind}.walk",
            kind=kind, n=p.n, q=p.q, budget=config.move_budget, seed=config.seed,
            moves=result.nodes_explored,
            bitrade=None if result.best is None else pack_bitrade(result.best),
        )


RUNS = {"certify": _certify, "prove": _prove, "walk": _walk}


def run(workload: str, inputs: dict, tracing: bool) -> Session:
    session = Session(tracing)
    RUNS[workload](session, inputs)
    return session


# ---------------------------------------------------------------------------
# checking the records


def check(workload: str, records: list[dict]) -> tuple[list[str], list[str]]:
    """Check one round's records; returns (failures, problems), each a list
    of "op: reason" lines.

    A failure is a kept fault or a call that did less than its fixed work;
    a problem is any other disagreement with the checker.
    """
    import checker as c

    failed: list[str] = []
    problems: list[str] = []
    by_op = {r["op"]: r for r in records}
    pairs: dict[str, c.Pair] = {}

    def pair_of(op: str) -> c.Pair:
        if op not in pairs:
            rec = by_op[op]
            pairs[op] = c.Pair(**(rec.get("bitrade") or rec["pair"]))
        return pairs[op]

    def expect(op: str, ok: bool, what: str) -> None:
        if not ok:
            (failed if op in KEPT_FAULTS else problems).append(f"{op}: {what}")

    def valid_bitrade(op: str, volume: int | None, at_least: int | None = None) -> c.Pair:
        p = pair_of(op)
        v0, v1 = len(p.ids0), len(p.ids1)
        expect(op, p.distinct, "words repeat or the parts meet")
        expect(op, p.violated_vertices() == 0, "not a bitrade by the counting definition")
        expect(op, v0 == v1, f"part sizes {v0} and {v1}")
        if volume is not None:
            expect(op, v0 == volume, f"volume {v0}, expected {volume}")
        if at_least is not None:
            expect(op, v0 >= at_least, f"volume {v0} below the lower bound {at_least}")
        return p

    def checks_agree(name: str, p: c.Pair, valid: bool) -> None:
        violated = p.violated_vertices()
        definition = by_op[f"{name}.definition"]
        expect(name, definition["failures"] == violated,
               f"definition_check counts {definition['failures']} violated vertices, the checker {violated}")
        expect(name, by_op[f"{name}.eigen"]["passed"] == p.is_eigenfunction(), "eigen verdict disagrees")
        dist2 = by_op.get(f"{name}.dist2")
        if dist2 is not None and (p.kind == SPHERICAL or valid):
            expect(name, dist2["passed"] == p.distance_profile_holds(), "dist2 verdict disagrees")
        if valid:
            expect(name, violated == 0, "a valid input fails the definition")
            expect(name, by_op[f"{name}.delsarte"]["passed"], "delsarte rejects a valid input")
            touched = p.touched_vertices()
            expect(name, definition["vertices_checked"] == touched,
                   f"vertices_checked {definition['vertices_checked']}, the checker touches {touched}")

    if workload == "certify":
        valid_bitrade("mds8_swap.construct", c.swap_volume(8))
        p = valid_bitrade("mds7_coset.construct", c.coset_volume(7))
        shift = by_op["mds7_coset.construct"]["shift"]
        expect("mds7_coset.construct", c.is_translate(p, shift), "t1 is not t0 + shift")
        checks_agree("mds7_coset", p, True)
        for fmt, parse in (("json", c.parse_json_document), ("text", c.parse_text_document)):
            rec = by_op[f"mds7_coset.{fmt}"]
            doc = parse(rec["text"])
            for source, data in (("file", doc), ("round trip", rec["back"])):
                q = c.Pair(**data)
                same = (q.n, q.q, q.kind) == (p.n, p.q, p.kind) and c.same_words(p, q)
                expect(f"mds7_coset.{fmt}", same, f"the {source} differs from the bitrade")
        valid_bitrade("alt3.construct", c.alt_volume(3))
        valid_bitrade("alt4.construct", c.alt_volume(4))
        tensor3 = c.tensor_volume(c.tensor_volume(c.alt_volume(3), c.alt_volume(3)), c.alt_volume(3))
        for op, volume in (
            ("alt6", c.alt_volume(6)),
            ("tensor_alt4_2", c.tensor_volume(c.alt_volume(4), c.alt_volume(4))),
            ("lift_tensor_alt3_3", c.lift_volume(tensor3)),
        ):
            p = valid_bitrade(f"{op}.construct", volume)
            expect(f"{op}.dist2", by_op[f"{op}.dist2"]["passed"] and p.distance_profile_holds(),
                   "dist2 rejects a valid bitrade")
        for rec in records:
            if rec["op"].endswith(".input"):
                name = rec["op"].removesuffix(".input")
                checks_agree(name, pair_of(rec["op"]), False)

        words = c.symbols(by_op["rs854.words"]["words"], 8)
        expect("rs854.words", len(words) == 8**5 and c.all_distinct(words), "not 8^5 distinct words")
        distance = c.min_distance(words)
        expect("rs854.words", distance == 4, f"distance {distance}, the Vandermonde argument gives 4")
        got = by_op["rs854.min_distance"]["value"]
        expect("rs854.min_distance", got == distance, f"min_distance {got}, exact {distance}")
        got = by_op["rs854.verify_mds"]["value"]
        expect("rs854.verify_mds", got == c.is_mds(words, 8), f"verify_mds {got} on an MDS code")

        _check_cli(by_op, expect, c)
    elif workload == "prove":
        for rec in records:
            if not rec["op"].endswith(".search"):
                continue
            op = rec["op"]
            if not rec["proven"]:
                failed.append(f"{op}: the exhaustive run did not finish its proof")
            minimum = c.MIN_VOLUME[(rec["kind"], rec["n"], rec["q"])]
            if rec["bound"] is not None and rec["bound"] < minimum:
                expect(op, rec["bitrade"] is None, f"found a bitrade below the minimum {minimum}")
            else:
                expect(op, rec["bitrade"] is not None, f"found nothing; the minimum is {minimum}")
                if rec["bitrade"] is not None:
                    p = valid_bitrade(op, minimum)
                    name = op.removesuffix(".search")
                    if f"{name}.definition" in by_op:
                        checks_agree(name, p, True)
    else:
        for rec in records:
            op = rec["op"]
            if rec["moves"] != rec["budget"]:
                failed.append(f"{op}: {rec['moves']} moves, budget {rec['budget']}")
            if rec["bitrade"] is not None:
                valid_bitrade(op, None, c.volume_lower_bound(rec["kind"], rec["n"], rec["q"]))
    return failed, problems


def _check_cli(by_op: dict, expect, c) -> None:
    lift36 = c.lift_volume(c.tensor_volume(c.alt_volume(3), c.alt_volume(3)))
    rec = by_op["cli.construct"]
    p = c.Pair(**c.parse_json_document(rec["file"]))
    expect("cli.construct", rec["code"] == 0, f"exit code {rec['code']}")
    expect("cli.construct", f"kind perfect, volume {lift36}" in rec["stdout"], "printed kind or volume")
    expect("cli.construct", (p.n, p.q, p.kind) == (7, 3, PERFECT) and len(p.ids0) == lift36, "file header or volume")
    expect("cli.construct", p.violated_vertices() == 0 and p.distinct, "file is not a bitrade")

    rec = by_op["cli.verify"]
    expect("cli.verify", rec["code"] == 0, f"exit code {rec['code']}")
    expect("cli.verify", rec["stdout"].count(": PASS") == 4 and "FAIL" not in rec["stdout"], "verdict lines")

    rec = by_op["cli.verify_broken"]
    violated = c.Pair(**c.parse_json_document(rec["file"])).violated_vertices()
    expect("cli.verify_broken", rec["code"] == 1, f"exit code {rec['code']}")
    expect("cli.verify_broken", f"definition: FAIL ({violated} failures)" in rec["stdout"],
           f"the definition line should count {violated} failures")

    rec = by_op["cli.info"]
    d0, d1 = c.min_distance(p.w0), c.min_distance(p.w1)
    cross = int(c.distances(p.w0, p.w1).min())
    expect("cli.info", rec["code"] == 0, f"exit code {rec['code']}")
    expect("cli.info", rec["stdout"].splitlines() == [
        "H(7, 3) perfect bitrade", f"volume {lift36}",
        f"min distance t0: {d0}", f"min distance t1: {d1}", f"d(t0, t1): {cross}",
    ], "info lines")

    rec = by_op["cli.search"]
    minimum = c.MIN_VOLUME[(PERFECT, 4, 3)]
    expect("cli.search", rec["code"] == 0, f"exit code {rec['code']}")
    expect("cli.search", f"minimum volume {minimum} (proven)" in rec["stdout"], "printed minimum")
