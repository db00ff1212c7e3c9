"""Minimum-volume searches: exhaustive branch and bound, local walk."""

import hashlib
import itertools
import math
import random
import sys
import time
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

import bitrades.search as search_module
from bitrades import (
    PERFECT,
    SPHERICAL,
    HammingParams,
    SearchConfig,
    SearchResult,
    alt_bitrade,
    check_bitrade,
    find_spherical,
    lift_to_perfect,
    min_perfect_volume,
    tensor_power,
)


def test_h33_spherical_minimum_is_three():
    result = find_spherical(SearchConfig(HammingParams(3, 3)))
    assert result.proven_minimum
    assert result.volume == 3
    assert check_bitrade(result.best, ["definition"])["definition"].passed
    assert result.nodes_explored > 0
    assert result.wall_time >= 0


def test_h33_without_symmetry_breaking_agrees():
    seeded = find_spherical(SearchConfig(HammingParams(3, 3)))
    plain = find_spherical(
        SearchConfig(HammingParams(3, 3), symmetry_breaking=False)
    )
    assert plain.proven_minimum
    assert plain.volume == seeded.volume == 3
    # dropping the seeding multiplies the explored tree
    assert plain.nodes_explored > seeded.nodes_explored


def test_h43_perfect_minimum_is_six():
    result = min_perfect_volume(SearchConfig(HammingParams(4, 3)))
    assert result.proven_minimum
    assert result.volume == 6
    assert check_bitrade(result.best, ["definition"])["definition"].passed
    # the minimum matches the lifted three-symbol construction
    assert result.volume == lift_to_perfect(alt_bitrade(3)).volume


def test_h43_no_perfect_bitrade_below_six():
    result = min_perfect_volume(
        SearchConfig(HammingParams(4, 3), volume_upper_bound=5)
    )
    assert result.proven_minimum
    assert result.best is None
    assert result.volume is None


def test_h43_upper_bound_six_still_finds_it():
    result = min_perfect_volume(
        SearchConfig(HammingParams(4, 3), volume_upper_bound=6)
    )
    assert result.proven_minimum
    assert result.volume == 6


def test_exhaustive_runs_are_deterministic():
    cfg = SearchConfig(HammingParams(4, 3))
    a = min_perfect_volume(cfg)
    b = min_perfect_volume(cfg)
    assert a.best == b.best
    assert a.nodes_explored == b.nodes_explored


def test_budget_exhaustion_is_reported_honestly():
    cfg = SearchConfig(HammingParams(5, 5), time_budget=0.3)
    result = find_spherical(cfg)
    assert not result.proven_minimum
    assert result.nodes_explored > 0


def test_budget_binds_on_heavy_nodes():
    # the deadline is read at every node, so it must stay close to the budget
    result = find_spherical(SearchConfig(HammingParams(5, 5), time_budget=1.0))
    assert not result.proven_minimum
    assert result.wall_time < 2.0


def test_budget_holds_when_the_covering_bound_runs():
    # once the first incumbent (216) lowers the allowed volume below the
    # packing cap, every node of H(10, 3) runs the covering bound over
    # 59,049-bit masks, a millisecond or more each
    result = min_perfect_volume(SearchConfig(HammingParams(10, 3), time_budget=2.0))
    assert not result.proven_minimum
    assert result.volume == 216
    assert result.wall_time < 2.5


def test_deadline_is_read_at_every_node(monkeypatch):
    # a clock that ticks once per reading: the deadline is tick 0 + 5, and
    # node k reads tick k, so node 6 is the first past it
    ticks = itertools.count()
    clock = SimpleNamespace(monotonic=lambda: next(ticks), perf_counter=time.perf_counter)
    monkeypatch.setattr(search_module, "time", clock)
    result = find_spherical(SearchConfig(HammingParams(5, 5), time_budget=5))
    assert not result.proven_minimum
    assert result.nodes_explored == 6


# The paper's perfect bitrades of volume (q!)^r: (3!)^2 = 36 in H(7, 3) and
# 5! = 120 in H(6, 5); a budgeted run returns one long before any proof.
@pytest.mark.parametrize("n,q,budget,built", [
    (7, 3, 2.0, lift_to_perfect(tensor_power(alt_bitrade(3), 2))),
    (6, 5, 1.0, lift_to_perfect(alt_bitrade(5))),
], ids=["H7_3", "H6_5"])
def test_budgeted_search_returns_an_early_incumbent(n, q, budget, built):
    result = min_perfect_volume(SearchConfig(HammingParams(n, q), time_budget=budget))
    assert not result.proven_minimum
    assert result.volume == built.volume == math.factorial(q) ** ((n - 1) // q)
    assert check_bitrade(result.best, ["definition"])["definition"].passed


def test_deep_search_raises_the_recursion_limit_and_restores_it(monkeypatch):
    real = sys.setrecursionlimit
    seen = []

    def spy(limit):
        seen.append(limit)
        real(limit)

    old = sys.getrecursionlimit()
    real(300)
    try:
        monkeypatch.setattr(search_module.sys, "setrecursionlimit", spy)
        # 2 * (2187 // 15) + 100 = 390 levels for the volumes H(7, 3) allows
        result = min_perfect_volume(SearchConfig(HammingParams(7, 3), time_budget=2.0))
        after = sys.getrecursionlimit()
    finally:
        real(old)
    assert result.volume == 36
    assert check_bitrade(result.best, ["definition"])["definition"].passed
    assert seen == [390, 300]
    assert after == 300


def test_parameter_feasibility_errors():
    with pytest.raises(ValueError, match=r"n must be 1 \(mod q\)"):
        min_perfect_volume(SearchConfig(HammingParams(5, 3)))
    with pytest.raises(ValueError, match="multiple of q"):
        find_spherical(SearchConfig(HammingParams(4, 3)))


def test_exhaustive_ceiling():
    refusal = r"^refusing exhaustive search over the 1594323 vertices of H\(13, 3\); the ceiling is 3\*\*10$"
    with pytest.raises(ValueError, match=refusal):
        min_perfect_volume(SearchConfig(HammingParams(13, 3)))


def test_config_validation():
    p = HammingParams(3, 3)
    with pytest.raises(ValueError, match="mode"):
        SearchConfig(p, mode="annealing")
    with pytest.raises(ValueError):
        SearchConfig(p, volume_upper_bound=-1)
    with pytest.raises(ValueError, match="time_budget"):
        SearchConfig(p, time_budget=0)
    with pytest.raises(ValueError, match="move_budget"):
        SearchConfig(p, move_budget=0)
    # bool subclasses int, so True would run as 1
    with pytest.raises(ValueError, match="volume_upper_bound"):
        SearchConfig(p, volume_upper_bound=True)
    with pytest.raises(ValueError, match="move_budget"):
        SearchConfig(p, mode="local", move_budget=True)
    for budget in ("5", True):
        with pytest.raises(ValueError, match="time_budget"):
            SearchConfig(p, time_budget=budget)


def test_upper_bound_zero_means_nothing_fits():
    result = find_spherical(
        SearchConfig(HammingParams(3, 3), volume_upper_bound=0)
    )
    assert result.proven_minimum
    assert result.best is None


def test_local_walk_finds_h33_minimum():
    cfg = SearchConfig(HammingParams(3, 3), mode="local", seed=0, move_budget=4000)
    result = find_spherical(cfg)
    assert not result.proven_minimum
    assert result.volume == 3
    assert check_bitrade(result.best, ["definition"])["definition"].passed


def test_local_walk_is_deterministic():
    cfg = SearchConfig(HammingParams(3, 3), mode="local", seed=1, move_budget=4000)
    a = find_spherical(cfg)
    b = find_spherical(cfg)
    assert a.best == b.best
    assert a.nodes_explored == b.nodes_explored


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_local_walk_finds_h43_perfect(seed):
    cfg = SearchConfig(
        HammingParams(4, 3), mode="local", seed=seed, move_budget=20000
    )
    result = min_perfect_volume(cfg)
    assert result.volume == 6
    assert check_bitrade(result.best, ["definition"])["definition"].passed


def test_local_walk_records_its_start():
    start = alt_bitrade(5)
    cfg = SearchConfig(
        HammingParams(5, 5), mode="local", seed=3, move_budget=100, start=start
    )
    result = find_spherical(cfg)
    assert result.best is not None
    assert result.volume <= start.volume
    assert not result.proven_minimum


def test_local_start_must_match_parameters():
    with pytest.raises(ValueError, match="does not match"):
        find_spherical(
            SearchConfig(
                HammingParams(3, 3), mode="local", start=alt_bitrade(4)
            )
        )


def test_result_volume_property():
    empty = SearchResult(None, True, 5, 0.1)
    assert empty.volume is None


# Node counts recorded when the exhaustive search began branching on the
# least vertex t1 lacks, else the least t0 lacks, in place of the
# fewest-candidates rule below.  Only the volume-23 refutation moved; it took
# 1,210 nodes under that rule, recorded when the search began pruning by the
# fractional covering bound (`_RepairSearch.need`).  Before the bound they were 8,
# 4, 18, 12, 102, 648 and 537,245, recorded when the search began branching
# on one candidate per orbit of the automorphisms fixing the placed words and
# the branching vertex.  Before that orbit pruning they were 18, 14, 91, 85,
# 66,538 and 522,514, under the fewest-candidates rule (of up to 8
# disagreeing vertices counted, t1's first; the first counted when none has
# 2 or fewer), and the volume-23 refutation did not finish (volume 14 took
# 19.4M nodes).  Under the least-vertex rule before that they were 20, 14,
# 224, 221 and 771,085.  Candidates are tried in increasing id order, so any
# change to the branching rule, the bound, the seeding or the pruning
# changes these trees.
PINNED_NODE_COUNTS = [
    (find_spherical, HammingParams(3, 3), None, 8),
    (find_spherical, HammingParams(3, 3), 2, 1),
    (min_perfect_volume, HammingParams(4, 3), None, 15),
    (min_perfect_volume, HammingParams(4, 3), 5, 3),
    (min_perfect_volume, HammingParams(5, 4), 8, 2),
    (min_perfect_volume, HammingParams(5, 4), 10, 3),
    (min_perfect_volume, HammingParams(5, 4), 23, 1_570),
]


# ids name the instance and not its count, so a re-pin keeps them
@pytest.mark.parametrize(
    "search,params,bound,nodes",
    PINNED_NODE_COUNTS,
    ids=[f"{s.__name__}-H{p.n}_{p.q}-{b}" for s, p, b, _ in PINNED_NODE_COUNTS],
)
def test_exhaustive_node_counts_are_pinned(search, params, bound, nodes):
    result = search(SearchConfig(params, volume_upper_bound=bound))
    assert result.proven_minimum
    assert result.nodes_explored == nodes


def test_unseeded_search_is_not_orbit_pruned():
    # symmetry_breaking=False turns off the orbit pruning with the seeds, so
    # an unseeded run stays an independent check of both; 38 is its tree
    # under the covering bound, which is on in every run (382 before it,
    # the tree from before the orbit pruning existed)
    result = find_spherical(SearchConfig(HammingParams(3, 3), symmetry_breaking=False))
    assert result.proven_minimum
    assert result.nodes_explored == 38


def _automorphisms(n, q):
    """Every element of S_q wr S_n as a tuple mapping word ids to word ids."""
    words = list(itertools.product(range(q), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    for perm in itertools.permutations(range(n)):
        for symbols in itertools.product(itertools.permutations(range(q)), repeat=n):
            yield tuple(
                index[tuple(symbols[perm[j]][w[perm[j]]] for j in range(n))] for w in words
            )


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2), (2, 4)])
def test_orbit_key_partitions_words_as_the_stabilizer_orbits(n, q):
    words = list(itertools.product(range(q), repeat=n))
    group = list(_automorphisms(n, q))
    assert len(group) == math.factorial(n) * math.factorial(q) ** n
    rng = random.Random(100 * n + q)
    keyed = trivial = 0
    for _ in range(200):
        placed = rng.sample(range(len(words)), rng.randint(1, 4))
        x = rng.randrange(len(words))
        key = search_module._orbit_key([words[p] for p in placed], words[x], q)
        if key is None:
            # only the identity (group[0]) fixes the placed words
            assert [g for g in group if all(g[p] == p for p in placed)] == [group[0]]
            trivial += 1
            continue
        stabilizer = [g for g in group if g[x] == x and all(g[p] == p for p in placed)]
        orbits = {frozenset(g[v] for g in stabilizer) for v in range(len(words))}
        classes = {}
        for v, w in enumerate(words):
            classes.setdefault(key(w), set()).add(v)
        assert {frozenset(c) for c in classes.values()} == orbits
        keyed += 1
    assert keyed and trivial


def test_h54_perfect_minimum_is_four_factorial():
    # the paper's minimality theorem at q = 4: volume (q!)^r with r = 1
    result = min_perfect_volume(SearchConfig(HammingParams(5, 4)))
    assert result.proven_minimum
    assert result.volume == math.factorial(4) == lift_to_perfect(alt_bitrade(4)).volume
    for name, report in check_bitrade(result.best).items():
        assert report.passed, name


def test_h73_has_no_perfect_bitrade_below_thirty_one():
    # the r = 2 case of the paper's construction has volume (3!)^2 = 36;
    # the covering bound refutes volumes up to 30 in about 10k nodes
    result = min_perfect_volume(SearchConfig(HammingParams(7, 3), volume_upper_bound=30))
    assert result.proven_minimum
    assert result.best is None


def test_h63_spherical_minimum_is_eighteen():
    result = find_spherical(SearchConfig(HammingParams(6, 3)))
    assert result.proven_minimum
    assert result.volume == 18
    for name, report in check_bitrade(result.best).items():
        assert report.passed, name


# A walk recorded before the searches moved onto the shared integer kernel.
def test_seeded_walk_is_pinned():
    cfg = SearchConfig(HammingParams(3, 3), mode="local", seed=1, move_budget=4000)
    result = find_spherical(cfg)
    assert result.nodes_explored == 4000
    assert result.best.sorted_parts() == (
        [(0, 1, 1), (1, 0, 0), (2, 2, 2)],
        [(0, 0, 2), (1, 2, 1), (2, 1, 0)],
    )


@pytest.mark.parametrize("mode,knob,value", [
    ("local", "volume_upper_bound", 4),
    ("exhaustive", "move_budget", 100),
    ("exhaustive", "start", alt_bitrade(3)),
    ("exhaustive", "seed", 3),
    ("local", "symmetry_breaking", False),
])
def test_knobs_the_mode_ignores_are_refused(mode, knob, value):
    with pytest.raises(ValueError, match=f"{knob} is not used in {mode} mode"):
        SearchConfig(HammingParams(3, 3), mode=mode, **{knob: value})


# Twenty walks recorded before the walk scored candidate moves by deltas
# instead of applying and reverting each one.  Each record holds the move
# count, the best parts and the final state of the walk's RNG; the state
# advances with every draw, so a walk that draws more, fewer or over other
# ranges ends in another state.
PINNED_WALKS_SHA256 = "2bd318edb4cf1c1a2eae6f4eed8f240fbc396418dd3d513cb3a8244d3908f0d2"


def test_seeded_walks_match_recorded_digest(monkeypatch):
    made = []

    class KeptRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(search_module, "random", SimpleNamespace(Random=KeptRandom))
    lifted = lift_to_perfect(tensor_power(alt_bitrade(3), 2))
    walks = [
        (min_perfect_volume, HammingParams(4, 3), 1500, None),
        (find_spherical, HammingParams(6, 3), 1000, None),
        (find_spherical, HammingParams(5, 5), 600, None),
        (min_perfect_volume, HammingParams(7, 3), 600, lifted),
    ]
    records = []
    for search, params, budget, start in walks:
        for seed in range(5):
            result = search(SearchConfig(
                params, mode="local", seed=seed, move_budget=budget, start=start
            ))
            best = None if result.best is None else result.best.sorted_parts()
            records.append((result.nodes_explored, best, made.pop().getstate()))
    assert hashlib.sha256(repr(records).encode()).hexdigest() == PINNED_WALKS_SHA256


# The walk's move scores against a recount written here: neighbourhoods
# from words, ids with the first coordinate most significant, and the
# violated vertices counted afresh from the parts around each move.
def _word(i, n, q):
    return tuple((i // q ** (n - 1 - j)) % q for j in range(n))


def _hood(i, n, q, ball):
    # the word as a base-q numeral, read back by int; every q tested here is at most 10
    w = "".join(map(str, _word(i, n, q)))
    out = [i] if ball else []
    for j in range(n):
        for s in map(str, range(q)):
            if s != w[j]:
                out.append(int(w[:j] + s + w[j + 1:], q))
    return sorted(out)


def _bad(a, b):
    """Whether a vertex covered a times by side 0 and b times by side 1 is violated."""
    return a != b or a > 1


def _violated(parts, hood):
    counts = [Counter(), Counter()]
    for side in (0, 1):
        for w in parts[side]:
            counts[side].update(hood(w))
    return sum(1 for y in counts[0].keys() | counts[1].keys() if _bad(counts[0][y], counts[1][y]))


def _counts(state):
    """Each side's nonzero coverage counts, decoded from the walk's state
    codes a + k*b (a and b the counts on sides 0 and 1)."""
    k = state.k
    return tuple(
        {y: c // k**side % k for y, c in state.code.items() if c // k**side % k}
        for side in (0, 1)
    )


def _violated_near(parts, hood, near):
    """_violated counted only on the vertices in near, from the part words."""
    counts = [
        Counter(itertools.chain.from_iterable(map(near.intersection, map(hood, part))))
        for part in parts
    ]
    return sum(_bad(counts[0][y], counts[1][y]) for y in counts[0].keys() | counts[1].keys())


def _recounted_moves(parts, x, pinned, hood, violated):
    """Each move's score from violated, the parts' full count: a move on w
    changes coverage only on N(w), which is recounted before and after it
    from the part words that cover a vertex of N(w)."""
    out = []
    for w in hood(x):
        near = set(hood(w))
        local = [{u for u in part if not near.isdisjoint(hood(u))} for part in parts]
        rest = violated - _violated_near(local, hood, near)
        after = [set(local[0]), set(local[1])]
        if w in parts[0] or w in parts[1]:
            if w in pinned:
                continue
            side = 0 if w in parts[0] else 1
            after[side].remove(w)
            out.append((rest + _violated_near(after, hood, near), (w, side, None)))
            after[1 - side].add(w)
            out.append((rest + _violated_near(after, hood, near), (w, side, 1 - side)))
        else:
            for side in (0, 1):
                after = [set(local[0]), set(local[1])]
                after[side].add(w)
                out.append((rest + _violated_near(after, hood, near), (w, None, side)))
    return out


# H(30, 3) spherical has degree 60, so its packed fields are the widest.
@pytest.mark.parametrize("kind,n,q", [
    (SPHERICAL, 3, 3), (SPHERICAL, 5, 5), (PERFECT, 4, 3), (PERFECT, 7, 3), (SPHERICAL, 30, 3),
])
def test_move_scores_equal_a_recount(kind, n, q):
    ball = kind == PERFECT
    hoods = {}

    def hood(i):
        if i not in hoods:
            hoods[i] = _hood(i, n, q, ball)
        return hoods[i]

    seen_double = seen_pinned = False
    for seed in range(3):
        rng = random.Random(1000 * n + 10 * q + seed)
        state = search_module._LocalState(HammingParams(n, q), kind)
        centres = [rng.randrange(q**n) for _ in range(3)]
        # random moves near a few centres, so counts pile above 1
        for _ in range(40):
            w = rng.choice(hood(rng.choice(centres)))
            if w in state.parts[0] or w in state.parts[1]:
                side = 0 if w in state.parts[0] else 1
                state.move(w, side, 1 - side if rng.random() < 0.5 else None)
            else:
                state.move(w, None, rng.randrange(2))
        parts = (set(state.parts[0]), set(state.parts[1]))
        pinned = {w for w in sorted(parts[0] | parts[1]) if rng.random() < 0.3}
        violated = _violated(parts, hood)
        assert len(state.violated) == violated
        counts = _counts(state)
        assert counts == tuple(
            Counter(y for w in parts[side] for y in hood(w)) for side in (0, 1)
        )
        seen_double |= any(c > 1 for side in (0, 1) for c in counts[side].values())
        xs = rng.sample(sorted(state.violated), min(12, len(state.violated)))
        xs += [rng.randrange(q**n) for _ in range(4)]
        for x in xs:
            expected = _recounted_moves(parts, x, pinned, hood, violated)
            assert state.scored_moves(x, pinned) == expected
            seen_pinned |= any(w in pinned for w in hood(x))
        # scoring leaves the state as it was
        assert parts == state.parts
        assert len(state.violated) == _violated(parts, hood)
    assert seen_double and seen_pinned


# (change to a, change to b) of each packed field, in the walk's order: add
# to 0, add to 1, remove from 0, move 0 to 1, remove from 1, move 1 to 0.
PACKED_MOVES = ((1, 0), (0, 1), (-1, 0), (-1, 1), (0, -1), (1, -1))


@pytest.mark.parametrize("kind,n,q", [
    (SPHERICAL, 3, 3), (SPHERICAL, 5, 5), (PERFECT, 4, 3), (PERFECT, 7, 3), (SPHERICAL, 30, 3),
])
def test_packed_deltas_equal_a_recount(kind, n, q):
    params = HammingParams(n, q)
    size = params.degree + (kind == PERFECT)
    state = search_module._LocalState(params, kind)
    width = state.width
    # a field sums at most 2 per vertex of a neighbourhood, so it never carries
    assert 2 * size < 1 << width
    mask = (1 << width) - 1
    checked = 0
    for a in range(size + 1):
        for b in range(size + 1):
            code = a + state.k * b
            assert state.bad[code] == _bad(a, b)
            for i, (da, db) in enumerate(PACKED_MOVES):
                # only moves that leave both counts within the region size occur
                if 0 <= a + da <= size and 0 <= b + db <= size:
                    field = state.gain[code] >> i * width & mask
                    assert field - 1 == _bad(a + da, b + db) - _bad(a, b), (a, b, i)
                    checked += 1
    # the two moves change both counts, the four others one
    assert checked == 4 * size * (size + 1) + 2 * size * size


# A walk on H(30, 3), degree 60, meets new words on nearly every move.  Once
# it kept every neighbourhood it scored: 300 moves peaked at about 35 MiB
# under tracemalloc and 2,000 at about 224 MiB.  The cache is cleared when
# full, which leaves the walk as it was: the same move count, result and
# final RNG state (recorded before the cache was bounded).
def test_walk_neighbourhood_cache_is_bounded(monkeypatch):
    made = []

    class KeptRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(search_module, "random", SimpleNamespace(Random=KeptRandom))
    cfg = SearchConfig(HammingParams(30, 3), mode="local", seed=1, move_budget=300)
    tracemalloc.start()
    try:
        result = find_spherical(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.nodes_explored == 300
    assert result.best is None
    state = repr(made.pop().getstate()).encode()
    assert hashlib.sha256(state).hexdigest() == (
        "4c3188129ef3e9c14679b359af615adb4985bde973960df06701f3ddffbc62dd"
    )
    assert peak < 24 * 2**20


@pytest.mark.parametrize("kind,n,q", [
    (SPHERICAL, 3, 3), (SPHERICAL, 5, 5), (PERFECT, 4, 3), (PERFECT, 7, 3),
])
def test_tabu_key_undoes_its_move(kind, n, q):
    params = HammingParams(n, q)

    def snapshot(state):
        return _counts(state), tuple(set(p) for p in state.parts), set(state.violated)

    undone = swapped = 0
    seen_double = False
    for seed in range(3):
        rng = random.Random(1000 * n + 10 * q + seed)
        state = search_module._LocalState(params, kind)
        centres = [rng.randrange(q**n) for _ in range(3)]
        # random moves near a few centres, so counts pile above 1
        for _ in range(40):
            x = rng.choice(state.ids(rng.choice(centres)))
            state.move(*rng.choice(state.scored_moves(x, set()))[1])
        seen_double |= any(c > 1 for side in (0, 1) for c in _counts(state)[side].values())
        before = snapshot(state)
        xs = rng.sample(sorted(state.violated), min(12, len(state.violated)))
        xs += [rng.randrange(q**n) for _ in range(4)]
        for x in xs:
            for _, (w, src, dst) in state.scored_moves(x, set()):
                state.move(w, src, dst)
                after = snapshot(state)
                state.move(w, dst, src)
                assert snapshot(state) == before
                undone += 1
                if src is not None and dst is not None:
                    # one pass from part to part equals removing, then adding
                    state.move(w, src, None)
                    state.move(w, None, dst)
                    assert snapshot(state) == after
                    state.move(w, dst, src)
                    swapped += 1
    assert undone and swapped and seen_double


# The exhaustive engine's masks against neighbourhoods built from words:
# a vertex's region, the words a part holding it may still take (those whose
# region misses its region), and the union of the regions of a vertex set.
@pytest.mark.parametrize("n,q", [(3, 3), (4, 3), (4, 4), (2, 2), (4, 2), (3, 2), (1, 3)])
@pytest.mark.parametrize("kind", [SPHERICAL, PERFECT])
def test_masks_equal_the_neighbourhood_definitions(kind, n, q):
    ball = kind == PERFECT
    engine = search_module._RepairSearch(HammingParams(n, q), kind, 0, None)
    full = (1 << q**n) - 1

    def bits(ids):
        return sum(1 << i for i in set(ids))

    for x in range(q**n):
        hood = _hood(x, n, q, ball)
        assert engine.mask(x) == bits(hood)
        assert engine.keep(x) == full ^ bits(z for y in hood for z in _hood(y, n, q, ball))
    rng = random.Random(100 * n + q)
    for _ in range(20):
        xs = rng.sample(range(q**n), rng.randint(0, q**n))
        assert engine.dilate(bits(xs)) == bits(y for x in xs for y in _hood(x, n, q, ball))
