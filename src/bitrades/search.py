"""Exhaustive and local search for minimum-volume bitrades.

The exhaustive engine grows a partial pair of parts one word at a time.
At each node it picks a vertex whose two coverage counts disagree and
branches on the words that could repair it.  Any completed bitrade
extending the current state covers that vertex exactly once on its
deficient side, by a word of the vertex's own neighbourhood, so the
branches partition the completions whichever disagreeing vertex is
picked.  The engine is therefore complete and duplicate-free and, with
the vertex and the order of its candidates fixed by the state, deterministic.

With symmetry breaking it is complete up to isomorphism instead.  It seeds
the search by translation, and a node branches on one candidate per orbit of
the automorphisms of H(n, q) (S_q wr S_n) that fix the branching vertex and
every placed word, the least id of each.  Such an automorphism g maps each
completion in branch y to a completion of the same volume in branch g(y):
the words each part may take depend only on the placed words, which g
fixes.  So every volume reachable from a skipped candidate is reachable
from the kept one, and the minimum is still found.  Once only the identity
fixes the placed words, no descendant can prune, and the orbit step is
skipped below that node.  Without symmetry breaking every candidate is
tried from every first word, which keeps an unseeded run an independent
check of both steps.

A node branches on the least vertex that t1 lacks (that only t0 covers),
else the least that t0 lacks.  A word is a candidate for a part when it
is in neither part and shares no neighbour with a word of that part,
since no vertex may be covered twice; a vertex without candidates ends
the branch.

Before branching, a node bounds the volume from below.  Each part must
still cover, one new word each, the vertices that only the other part
covers.  Once an incumbent or the volume bound is below the packing cap
(q^n // region size, the most words a part can hold), a fractional
covering bound on those words (``_RepairSearch.need``) ends the branch
when they cannot fit.

Vertices are numbered 0..q^n-1 (first coordinate most significant).  Each
part keeps the vertices it covers and the words it may still take as
bitmasks, so a vertex's candidates are one AND.  One kernel, the digit
steps of ``hamming`` (``HammingParams.step_masks``, ``moves``) and its
bit-sliced counter (``bit_planes``), builds every neighbourhood mask and
the covering bound's degrees by moving whole bitmasks with shifts; the
definition and eigen checks count on the same kernel.

The local engine is a best-effort tabu walk scoring the number of violated
vertices; it proves nothing.  A move (w, src, dst) takes word w from side
src to side dst, a side being 0, 1 or None for neither part: adding is
(w, None, s), removing (w, s, None) and moving (w, s, 1 - s); (w, dst, src) undoes it.
The walk keeps one state code per covered vertex, a + k*b for a vertex
covered a times by part 0 and b times by part 1, in a dict as sparse as the
parts.  Two tables indexed by code, built once per walk, say whether the
vertex is violated and what each of the six moves would change there,
packed into one int (``_LocalState``).  A second dict, as sparse, keeps each
covered vertex's packed entry, written in the pass that changes its code.
So a word's two moves are scored by one sum over its neighbourhood, one
lookup per vertex, and the walk picks among the least-scored open moves in
one pass over the scored list (``_least_open``).
"""

from __future__ import annotations

import math
import random
import sys
import time
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields
from functools import cache, reduce
from itertools import repeat
from operator import or_

from .construct import EIGENVALUE, PERFECT, SPHERICAL, Bitrade, bitrade_kind
from .hamming import HammingParams, Word, bit_planes, check_ceiling, is_int, moves, trust_ids
from .verify import definition_check

# Whole-graph exhaustive search is refused above this vertex count.
EXHAUSTIVE_CEILING = 3**10

LOCAL_TIME_BUDGET = 60.0
TABU_LENGTH = 50
STAGNATION_LIMIT = 200
# The walk forgets its cached neighbourhoods above this many words (the
# largest graph the benchmark walks has 5**5 = 3125 vertices).
IDS_CACHE_LIMIT = 2**12

MODES = ("exhaustive", "local")

# Knobs each engine never reads; a value other than the default is refused, not ignored.
_UNUSED = {
    "exhaustive": ("move_budget", "start", "seed"),
    "local": ("volume_upper_bound", "symmetry_breaking"),
}


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one search run.

    ``time_budget`` is in seconds (exhaustive mode defaults to unlimited,
    local mode to 60).  Five knobs are mode-specific, and giving one a
    value other than its default in the mode that does not read it raises
    ValueError.  Exhaustive mode only: ``volume_upper_bound`` restricts
    the search to volumes at most that value, and ``symmetry_breaking``
    seeds the search with canonical first words and branches on one
    candidate per orbit of the automorphisms fixing the placed words (see
    the module docstring); False turns off both.  Local mode only:
    ``seed``, an integer, seeds the walk's random choices, ``move_budget``
    caps the number of applied moves so runs can be cut off
    deterministically, and ``start`` seeds the walk with a known bitrade.
    """

    params: HammingParams
    mode: str = "exhaustive"
    volume_upper_bound: int | None = None
    symmetry_breaking: bool = True
    time_budget: float | None = None
    seed: int = 0
    move_budget: int | None = None
    start: Bitrade | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.volume_upper_bound is not None:
            if not is_int(self.volume_upper_bound) or self.volume_upper_bound < 0:
                raise ValueError("volume_upper_bound must be a nonnegative integer")
        budget = self.time_budget
        if budget is not None:
            if isinstance(budget, bool) or not isinstance(budget, (int, float)) or not budget > 0:
                raise ValueError(f"time_budget must be a positive number, got {budget!r}")
        if self.move_budget is not None:
            if not is_int(self.move_budget) or self.move_budget < 1:
                raise ValueError("move_budget must be a positive integer")
        # None would seed from the OS, so two runs of one config would differ
        if not is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        for knob in fields(self):
            if knob.name in _UNUSED[self.mode] and getattr(self, knob.name) != knob.default:
                raise ValueError(f"{knob.name} is not used in {self.mode} mode")


@dataclass(frozen=True)
class SearchResult:
    """What a search run found.

    ``proven_minimum`` is set only when an exhaustive run finished inside
    its budget; then ``best`` is a true minimum-volume bitrade, or None
    when no bitrade exists within the volume bound.  Local runs and
    budget-exhausted runs report their incumbent with
    ``proven_minimum`` False.
    """

    best: Bitrade | None
    proven_minimum: bool
    nodes_explored: int
    wall_time: float

    @property
    def volume(self) -> int | None:
        return None if self.best is None else self.best.volume


def min_perfect_volume(config: SearchConfig) -> SearchResult:
    """Search H(n, q) for a minimum-volume perfect bitrade."""
    return _run(config, PERFECT)


def find_spherical(config: SearchConfig) -> SearchResult:
    """Search H(n, q) for a minimum-volume spherical bitrade."""
    return _run(config, SPHERICAL)


def _run(config: SearchConfig, kind: str) -> SearchResult:
    bitrade_kind(config.params, kind)
    if config.mode == "exhaustive":
        return _exhaustive(config, kind)
    return _local(config, kind)


# ---------------------------------------------------------------------------
# exhaustive branch and bound


def _orbit_key(placed: list[Word], x: Word, q: int) -> Callable[[Word], tuple] | None:
    """A key on words, equal for two words exactly when they lie in one
    orbit of the automorphisms of H(n, q) that fix x and each placed word.

    Coordinate i's column is (p[i] for p in placed + [x]).  Relabelling its
    symbols by first occurrence gives the column's pattern and each symbol
    it uses a label; an unused symbol gets label -1.  A word's key lists,
    for each pattern, the sorted labels of its symbols at the coordinates
    with that pattern.  Equal keys mean one orbit: permute the coordinates
    within each pattern so the labels match, then map each coordinate's
    symbols by label and its unused symbols to each other; this fixes every
    column.  Conversely an automorphism fixing every column keeps patterns
    and labels.

    Returns None when the placed words' columns have pairwise distinct
    patterns and each uses at least q - 1 symbols.  Then only the identity
    fixes the placed words, or any set containing them: a coordinate map
    must keep each column's pattern, and a symbol map each used symbol and
    so the one unused symbol, if any.
    """
    patterns = []
    columns: list[dict[int, int]] = []
    for i in range(len(x)):
        labels: dict[int, int] = {}
        patterns.append(tuple(labels.setdefault(p[i], len(labels)) for p in placed))
        columns.append(labels)
    if len(set(patterns)) == len(x) and all(len(labels) >= q - 1 for labels in columns):
        return None
    classes: dict[tuple[int, ...], list[tuple[int, Callable]]] = {}
    for i, (pattern, labels) in enumerate(zip(patterns, columns)):
        label = labels.setdefault(x[i], len(labels))
        classes.setdefault((*pattern, label), []).append((i, labels.get))
    groups = list(classes.values())

    def key(y: Word) -> tuple:
        return tuple(tuple(sorted(get(y[i], -1) for i, get in group)) for group in groups)

    return key


class _RepairSearch:
    """The branch and bound over one graph, on its vertex bitmasks.

    Every sphere neighbour of x is x moved by one digit step
    (``hamming.moves``).  A vertex's region, its sphere plus -θ copies of
    itself (a ball for θ = -1), is the vertex moved this way, cached per
    vertex when first asked for.
    """

    __slots__ = (
        "params", "own", "size", "allowed", "deadline", "full", "cap", "scale",
        "steps", "mask", "keep", "parts", "nodes", "exhausted", "best",
    )

    def __init__(
        self, params: HammingParams, kind: str, allowed: int | None, deadline: float | None
    ) -> None:
        self.params = params
        self.own = -EIGENVALUE[kind]
        self.deadline = deadline
        self.full = (1 << params.vertex_count) - 1
        self.steps = params.step_masks()
        # x's neighbourhood, and the words a part holding w may still take
        # (those whose neighbourhood misses w's), each built on first use
        self.mask = cache(lambda x: self.dilate(1 << x))
        self.keep = cache(lambda w: self.full ^ self.dilate(self.mask(w)))
        self.size = self.mask(0).bit_count()
        self.cap = params.vertex_count // self.size
        # the largest volume still sought; None allows every volume a part can hold
        self.allowed = self.cap if allowed is None else allowed
        self.scale = math.lcm(*range(1, self.size + 1))
        self.parts: tuple[list[int], list[int]] = ([], [])
        self.nodes = 0
        self.exhausted = False
        self.best: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def moved(self, xs: int) -> Iterator[int]:
        """xs itself -θ times (``own``), then xs moved by each step: a vertex y lies in
        as many of them as its neighbourhood holds vertices of xs."""
        yield from repeat(xs, self.own)
        yield from moves(xs, self.steps)

    def dilate(self, xs: int) -> int:
        """The union of the neighbourhoods of the vertices in xs."""
        return reduce(or_, self.moved(xs))

    def need(self, lack: int, free: int) -> int | None:
        """A lower bound on the words a part must still add, or None when no
        completion exists.

        lack holds the vertices the other part covers and this part does
        not; free the words this part may still take.  Each x in lack needs
        exactly one new word of this part among its candidates, the free
        words of its region.  A candidate w repairs deg(w) = |N(w) & lack|
        of them, each of which has d_x, the largest degree among x's
        candidates, at least deg(w); so the part needs at least the sum of
        1 / d_x over lack.  It is summed exactly, scaled by lcm(1..size).
        Since d_x <= size, it is never below |lack| / size.  A vertex of
        lack without candidates admits no completion.
        """
        size = self.size
        # planes[j]: bit j of each word's degree
        planes = bit_planes(self.moved(lack), size.bit_length())
        cands = free & reduce(or_, planes)
        scale = self.scale
        total = 0
        left = lack
        # walk the degrees down: a vertex of lack next to a candidate of
        # degree g, and none of higher degree, has d_x = g
        for g in range(size, 0, -1):
            exact = cands
            for j, plane in enumerate(planes):
                exact &= plane if g >> j & 1 else ~plane
            got = exact and self.dilate(exact) & left
            if got:
                left ^= got
                total += got.bit_count() * (scale // g)
                if not left:
                    break
        if left:
            return None
        return -(-total // scale)

    def representatives(self, x: int, cands: int) -> tuple[int, bool]:
        """The least candidate of each orbit of the automorphisms fixing x and
        the placed words, and whether that group may still be nontrivial
        below this node (see _orbit_key)."""
        decode = self.params.decode
        part0, part1 = self.parts
        key = _orbit_key([*map(decode, part0), *map(decode, part1)], decode(x), self.params.q)
        if key is None:
            return cands, False
        seen = set()
        kept = 0
        while cands:
            below = cands - 1
            w = (cands ^ below).bit_length() - 1
            cands &= below
            k = key(decode(w))
            if k not in seen:
                seen.add(k)
                kept |= 1 << w
        return kept, True

    def run(self, t0: tuple[int, ...], t1: tuple[int, ...], orbits: bool) -> None:
        """Search every completion of the seed parts t0 and t1 from a fresh state.

        A seed word is closed to the other part here.  A word placed by
        dfs needs no such step: it repairs a vertex the other part covers,
        so it already shares a neighbour with a word of that part.  With
        ``orbits`` each node branches on one candidate per stabilizer orbit.
        """
        cov = [0, 0]
        free = [self.full, self.full]
        for side, words in ((0, t0), (1, t1)):
            for w in words:
                cov[side] |= self.mask(w)
                free[side] &= self.keep(w)
                free[1 - side] &= ~(1 << w)
        self.parts = (list(t0), list(t1))
        self.dfs(cov[0], cov[1], free[0], free[1], orbits)

    def dfs(self, cov0: int, cov1: int, free0: int, free1: int, orbits: bool) -> None:
        """cov0, cov1: the vertices each part covers; free0, free1: the words each may take.

        orbits: whether the placed words may still have a nontrivial stabilizer.
        """
        self.nodes += 1
        # read at every node: with the covering bound a node of H(10, 3)
        # takes over a millisecond
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.exhausted = True
            return
        part0, part1 = self.parts
        if cov0 == cov1:
            volume = len(part0)
            # lengths agree: each part covers region-size vertices per word
            if volume and volume <= self.allowed:
                self.best = (tuple(sorted(part0)), tuple(sorted(part1)))
                self.allowed = volume - 1
            return
        allowed = self.allowed
        both = cov0 & cov1
        # the vertices only part 0 covers, which part 1 lacks, and the reverse
        lack1 = cov0 ^ both
        lack0 = cov1 ^ both
        # The covering bound can prune only when one word per lacking vertex
        # is too many.  At or above the packing cap every completion fits,
        # so it could cut only branches with no completion; skipping it there
        # keeps nodes cheap until an incumbent lowers the allowed volume.
        if allowed < self.cap:
            for placed, lack, free in ((len(part1), lack1, free1), (len(part0), lack0, free0)):
                if placed + lack.bit_count() > allowed:
                    need = self.need(lack, free)
                    if need is None or placed + need > allowed:
                        return
        # Branch on the least vertex t1 lacks, else the least t0 lacks.
        side, lack, free = (1, lack1, free1) if lack1 else (0, lack0, free0)
        vertex = (lack & -lack).bit_length() - 1
        cands = self.mask(vertex) & free
        if not cands:
            return
        if orbits and cands & (cands - 1):
            cands, orbits = self.representatives(vertex, cands)
        part = self.parts[side]
        while cands:
            below = cands - 1
            w = (cands ^ below).bit_length() - 1
            cands &= below
            m, keep = self.mask(w), self.keep(w)
            part.append(w)
            if side:
                self.dfs(cov0, cov1 | m, free0, free1 & keep, orbits)
            else:
                self.dfs(cov0 | m, cov1, free0 & keep, free1, orbits)
            part.pop()
            if self.exhausted:
                return


def _exhaustive(config: SearchConfig, kind: str) -> SearchResult:
    params = config.params
    total = params.vertex_count
    what = f"exhaustive search over the {total} vertices of H({params.n}, {params.q})"
    check_ceiling(total, EXHAUSTIVE_CEILING, what)
    deadline = None if config.time_budget is None else time.monotonic() + config.time_budget
    engine = _RepairSearch(params, kind, config.volume_upper_bound, deadline)

    if config.symmetry_breaking:
        # Translations put some t0 word at 0; for the perfect kind the
        # stabilizer of 0 then moves 0's unique partner to (0,..,0,1).
        seeds = [((0,), (1,))] if kind == PERFECT else [((0,), ())]
    else:
        seeds = [((w,), ()) for w in range(total)]

    started = time.perf_counter()
    depth_needed = 2 * engine.cap + 100
    old_limit = sys.getrecursionlimit()
    if depth_needed > old_limit:
        sys.setrecursionlimit(depth_needed)
    try:
        for t0, t1 in seeds:
            engine.run(t0, t1, config.symmetry_breaking)
            if engine.exhausted:
                break
    finally:
        sys.setrecursionlimit(old_limit)
        # mask and keep refer back to the engine, a cycle only a gc pass would
        # free, so their tables are dropped here
        engine.mask.cache_clear()
        engine.keep.cache_clear()
    return _result(params, kind, engine.best, not engine.exhausted, engine.nodes, started)


def _result(
    params: HammingParams, kind: str, best_ids: tuple[tuple[int, ...], tuple[int, ...]] | None,
    proven: bool, nodes: int, started: float,
) -> SearchResult:
    """Both engines' exit: freeze the best sorted id pair, self-check it and wrap it."""
    wall = time.perf_counter() - started
    best = None
    if best_ids is not None:
        best = Bitrade(params, kind, *(trust_ids(params, x) for x in best_ids))
        if not definition_check(best.params, best.kind, best.t0, best.t1).passed:
            raise RuntimeError("internal error: search produced an invalid bitrade")
    return SearchResult(best, proven, nodes, wall)


# ---------------------------------------------------------------------------
# local search

_Move = tuple[int, int | None, int | None]  # (w, src, dst), as the module docstring sets out


class _LocalState:
    """The walk's parts, each vertex's coverage counts as one state code and
    its packed gain, and the violated vertices.

    A vertex covered a times by side 0 and b times by side 1 has code
    a + k*b, k = size + 2; ``code`` holds the nonzero codes only, so the
    state stays as sparse as the parts.  Both tables are indexed by code:
    ``bad`` says whether the vertex is violated (a != b or a > 1, which is
    symmetric in the sides), and ``gain`` packs what each of the six moves
    would change there, plus one, into fields ``width`` bits wide, in the
    order add to 0, add to 1, remove from 0, move 0 to 1, remove from 1,
    move 1 to 0.  ``score`` has the keys of ``code`` and holds
    ``gain[code[y]]`` for each, so an uncovered vertex scores ``gain[0]``.
    Summing ``score`` over a word's neighbourhood then scores that word's
    two moves at once: no field can carry into the next, since each sums at
    most 2 * size.
    """

    __slots__ = (
        "params", "own", "_ids", "code", "score", "k", "step", "bad", "gain", "width", "parts",
        "violated",
    )

    def __init__(self, params: HammingParams, kind: str) -> None:
        self.params = params
        self.own = -EIGENVALUE[kind]
        self._ids: dict[int, tuple[int, ...]] = {}
        size = len(self.ids(0))
        k = self.k = size + 2
        # what a word on each side (None: neither part) adds to the codes of its neighbourhood
        self.step: dict[int | None, int] = {None: 0, 0: 1, 1: k}
        self.width = width = (2 * size + 1).bit_length()

        def bad(a: int, b: int) -> bool:
            return a != b or a > 1

        self.bad: list[bool] = []
        self.gain: list[int] = []
        for b in range(k):
            for a in range(k):
                was = bad(a, b)
                after = (
                    bad(a + 1, b), bad(a, b + 1),
                    bad(a - 1, b), bad(a - 1, b + 1),
                    bad(a, b - 1), bad(a + 1, b - 1),
                )
                self.bad.append(was)
                self.gain.append(sum(1 + now - was << i * width for i, now in enumerate(after)))
        self.code: dict[int, int] = {}
        self.score: dict[int, int] = {}
        self.parts: tuple[set[int], set[int]] = (set(), set())
        self.violated: set[int] = set()

    def ids(self, x: int) -> tuple[int, ...]:
        """x's neighbourhood as sorted ids, cached up to IDS_CACHE_LIMIT words."""
        got = self._ids.get(x)
        if got is None:
            if len(self._ids) >= IDS_CACHE_LIMIT:
                self._ids.clear()
            # x's region: its sphere plus -θ copies of x
            got = tuple(sorted([x] * self.own + [*self.params.sphere(self.params.decode(x))]))
            self._ids[x] = got
        return got

    def clear(self) -> None:
        self.code.clear()
        self.score.clear()
        self.parts[0].clear()
        self.parts[1].clear()
        self.violated.clear()

    def move(self, w: int, src: int | None, dst: int | None) -> None:
        """Take w from side src to side dst, updating each code and score around w in one pass."""
        if src is not None:
            self.parts[src].remove(w)
        if dst is not None:
            self.parts[dst].add(w)
        delta = self.step[dst] - self.step[src]
        code = self.code
        score = self.score
        get = code.get
        bad = self.bad
        gain = self.gain
        add_violated = self.violated.add
        discard_violated = self.violated.discard
        for y in self.ids(w):
            c = get(y, 0) + delta
            if c:
                code[y] = c
                score[y] = gain[c]
            else:
                del code[y]
                del score[y]
            if bad[c]:
                add_violated(y)
            else:
                discard_violated(y)

    def scored_moves(self, x: int, pinned: set[int]) -> list[tuple[int, _Move]]:
        """Every move around x with the objective it would leave, in order.

        Each word of x's neighbourhood yields two moves: add to side 0 and
        add to side 1 for a free word, remove and move for an unpinned part
        word (pinned words stay put; they anchor the walk away from the
        empty state).  One sum of ``score`` over the word's neighbourhood
        scores both; each vertex adds one to every field, hence the offset.
        """
        score_of = self.score.get
        uncovered = self.gain[0]
        width = self.width
        mask = (1 << width) - 1
        part0, part1 = self.parts
        ids = self.ids
        words = ids(x)
        # every region has len(words) vertices
        offset = len(self.violated) - len(words)
        scored: list[tuple[int, _Move]] = []
        append = scored.append
        for w, hood in zip(words, map(self._ids.get, words)):
            if w in part0:
                if w in pinned:
                    continue
                shift = 2 * width
                first: _Move = (w, 0, None)
                second: _Move = (w, 0, 1)
            elif w in part1:
                if w in pinned:
                    continue
                shift = 4 * width
                first = (w, 1, None)
                second = (w, 1, 0)
            else:
                shift = 0
                first = (w, None, 0)
                second = (w, None, 1)
            packed = sum(map(score_of, hood or ids(w), repeat(uncovered))) >> shift
            append((offset + (packed & mask), first))
            append((offset + (packed >> width & mask), second))
        return scored


def _least_open(
    scored: list[tuple[int, _Move]], barred: set[_Move], restart_best: int
) -> list[_Move]:
    """The moves of least score among the open ones, in order.

    A move is open when it is not barred or its score beats ``restart_best``
    (aspiration).  When every move is barred, all of them are open.
    """
    low = sys.maxsize
    ties: list[_Move] = []
    for score, mv in scored:
        if score <= low and (score < restart_best or mv not in barred):
            if score < low:
                low = score
                ties = []
            ties.append(mv)
    return ties if ties or not barred else _least_open(scored, set(), restart_best)


def _local(config: SearchConfig, kind: str) -> SearchResult:
    params = config.params
    if config.start is not None:
        if config.start.params != params or config.start.kind != kind:
            raise ValueError("start bitrade does not match the search parameters")
    rng = random.Random(config.seed)
    total = params.vertex_count
    budget = LOCAL_TIME_BUDGET if config.time_budget is None else config.time_budget
    deadline = time.monotonic() + budget

    state = _LocalState(params, kind)
    tabu: deque[_Move] = deque(maxlen=TABU_LENGTH)
    pinned: set[int] = set()
    best_ids: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    moves = 0
    stagnation = 0
    restart_best = 0

    def restart(start: Bitrade | None = None) -> None:
        nonlocal stagnation, restart_best
        state.clear()
        tabu.clear()
        pinned.clear()
        stagnation = 0
        if start is not None:
            for side, part in ((0, start.t0), (1, start.t1)):
                for x in part.ids:
                    state.move(x, None, side)
            if state.parts[0]:
                pinned.add(min(state.parts[0]))
        else:
            a = rng.randrange(total)
            b = rng.randrange(total)
            while b == a:
                b = rng.randrange(total)
            state.move(a, None, 0)
            state.move(b, None, 1)
            pinned.add(a)
        restart_best = len(state.violated)

    started = time.perf_counter()
    restart(config.start)
    while time.monotonic() <= deadline:
        if config.move_budget is not None and moves >= config.move_budget:
            break
        if not state.violated:
            volume = len(state.parts[0])
            if volume and len(state.parts[1]) == volume:
                if best_ids is None or volume < len(best_ids[0]):
                    best_ids = tuple(tuple(sorted(part)) for part in state.parts)
                if volume == 1:  # no bitrade is smaller
                    break
            restart()
            continue
        x = rng.choice(sorted(state.violated))
        scored = state.scored_moves(x, pinned)
        w, src, dst = rng.choice(_least_open(scored, set(tabu), restart_best))
        state.move(w, src, dst)
        tabu.append((w, dst, src))
        moves += 1
        if len(state.violated) < restart_best:
            restart_best = len(state.violated)
            stagnation = 0
        else:
            stagnation += 1
            if stagnation > STAGNATION_LIMIT:
                restart()
    return _result(params, kind, best_ids, False, moves, started)
