"""Acceptance suite: one criterion per test, one printed verdict line each.

Every test prints "criterion <id>: PASS/FAIL (<detail>)" and asserts the
same condition, so the verdict lines and the pytest outcomes agree.  Time
limits are part of the criteria and are asserted alongside the results.
"""

import itertools
import random
import time
import zlib

from helpers import (
    brute_failures,
    characterization_votes,
    corrupt,
    random_pair,
    translate_parts,
)
from bitrades import (
    HammingParams,
    PERFECT,
    SPHERICAL,
    SearchConfig,
    alt_bitrade,
    check_bitrade,
    definition_check,
    find_spherical,
    lift_to_perfect,
    mds_bitrade,
    min_perfect_volume,
    tensor_combine,
    tensor_power,
)
from bitrades.verify import WITNESS_LIMIT


def report(capfd, criterion: str, problems: list[str], detail: str) -> None:
    verdict = "PASS" if not problems else "FAIL"
    extra = detail if not problems else "; ".join(problems)
    line = f"criterion {criterion}: {verdict} ({extra})"
    # bypass capture so the verdict line shows in any pytest run
    with capfd.disabled():
        print(line, flush=True)
    assert not problems, line


def test_criterion_1_permutation_volumes(capfd):
    problems = []
    worst = 0.0
    for q, want in ((3, 3), (4, 12), (5, 60), (6, 360)):
        started = time.perf_counter()
        volume = alt_bitrade(q).volume
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        if volume != want:
            problems.append(f"alt q={q}: volume {volume}, want {want}")
        if elapsed >= 1.0:
            problems.append(f"alt q={q}: took {elapsed:.2f} s, limit 1 s")
    report(
        capfd,
        "1 permutation volumes",
        problems,
        f"volumes 3/12/60/360, worst {worst:.3f} s",
    )


H33_WORDS = tuple(itertools.product(range(3), repeat=3))
H33_SPHERES = {
    x: frozenset(y for y in H33_WORDS if sum(a != b for a, b in zip(x, y)) == 1)
    for x in H33_WORDS
}


def is_h33_spherical(t0: frozenset, t1: frozenset) -> bool:
    """Equal sphere counts in {0, 1} at all 27 vertices of H(3, 3)."""
    return all(
        len(sphere & t0) == len(sphere & t1) <= 1 for sphere in H33_SPHERES.values()
    )


def h33_spherical_pairs(max_volume: int) -> tuple[int, list]:
    """Try every disjoint pair of volume 1..max_volume in H(3, 3).

    Uses neither the search nor the verification module.  Translation by
    -w is an automorphism of H(3, 3) that keeps every sphere count, so a
    nonempty pair with w in t0 has a translate with word 0 in t0; only
    those pairs are tried.  Returns the number tried and the spherical ones.
    """
    zero, rest = H33_WORDS[0], H33_WORDS[1:]
    tried, found = 0, []
    for volume in range(1, max_volume + 1):
        for others in itertools.combinations(rest, volume - 1):
            t0 = frozenset((zero,) + others)
            free = [w for w in rest if w not in t0]
            for words in itertools.combinations(free, volume):
                tried += 1
                t1 = frozenset(words)
                if is_h33_spherical(t0, t1):
                    found.append((t0, t1))
    return tried, found


def test_criterion_2_code_pair_volumes(capfd):
    problems = []
    # over GF(3) the two weighted-check codes coincide, so the swap
    # construction must refuse: no spherical bitrade of volume 2 exists
    started = time.perf_counter()
    try:
        swap3 = mds_bitrade(3, "swap")
    except ValueError as error:
        if "degenerates for q = 3" not in str(error):
            problems.append(f"swap q=3: refused for another reason: {error}")
    else:
        problems.append(f"swap q=3: returned volume {swap3.volume}, want a refusal")
    worst = time.perf_counter() - started
    if worst >= 5.0:
        problems.append(f"swap q=3: took {worst:.2f} s, limit 5 s")
    bounded = find_spherical(SearchConfig(HammingParams(3, 3), volume_upper_bound=2))
    if not (bounded.proven_minimum and bounded.best is None):
        problems.append(
            f"H(3, 3) volume <= 2: proven={bounded.proven_minimum}, "
            f"volume={bounded.volume}"
        )
    # positive control: the predicate accepts the volume-3 permutation pair
    if not is_h33_spherical(
        frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)}),
        frozenset({(0, 2, 1), (1, 0, 2), (2, 1, 0)}),
    ):
        problems.append("brute force rejects the volume-3 permutation pair")
    tried, found = h33_spherical_pairs(2)
    if found:
        problems.append(f"brute force: {len(found)} spherical pairs of volume <= 2")
    for q, want in ((4, 12), (5, 100)):
        started = time.perf_counter()
        try:
            volume = mds_bitrade(q, "swap").volume
        except ValueError as error:
            volume = None
            failure = str(error).splitlines()[0]
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        if volume != want:
            got = f"volume {volume}" if volume is not None else f"error: {failure}"
            problems.append(f"swap q={q}: want volume {want}, got {got}")
        if elapsed >= 5.0:
            problems.append(f"swap q={q}: took {elapsed:.2f} s, limit 5 s")
    started = time.perf_counter()
    coset_volume = mds_bitrade(5, "coset").volume
    elapsed = time.perf_counter() - started
    if coset_volume != 125:
        problems.append(f"coset q=5: volume {coset_volume}, want 125")
    if elapsed >= 5.0:
        problems.append(f"coset q=5: took {elapsed:.2f} s, limit 5 s")
    report(
        capfd,
        "2 code-pair volumes",
        problems,
        f"swap q=3 refused, volume <= 2 in H(3,3) proven empty and absent "
        f"from {tried} pairs; swap 12/100, coset 125, "
        f"worst {max(worst, elapsed):.3f} s",
    )


def test_criterion_3_composite_volumes(capfd):
    problems = []
    started = time.perf_counter()
    for q, want in ((3, 6), (4, 24), (5, 120)):
        volume = lift_to_perfect(alt_bitrade(q)).volume
        if volume != want:
            problems.append(f"lift alt q={q}: volume {volume}, want {want}")
    base = alt_bitrade(3)
    seven = lift_to_perfect(tensor_combine(base, base))
    if (seven.params, seven.volume) != (HammingParams(7, 3), 36):
        problems.append(f"lifted double tensor: {seven.params}, volume {seven.volume}")
    ten = lift_to_perfect(tensor_power(base, 3))
    if (ten.params, ten.volume) != (HammingParams(10, 3), 216):
        problems.append(f"lifted triple tensor: {ten.params}, volume {ten.volume}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"composites took {elapsed:.2f} s, limit 10 s")
    report(
        capfd,
        "3 composite volumes",
        problems,
        f"lifts 6/24/120, H(7,3) 36, H(10,3) 216, {elapsed:.2f} s",
    )


def all_constructed_bitrades():
    base = alt_bitrade(3)
    return [
        ("alt3", base),
        ("alt4", alt_bitrade(4)),
        ("alt5", alt_bitrade(5)),
        ("alt6", alt_bitrade(6)),
        ("mds4 swap", mds_bitrade(4, "swap")),
        ("mds5 swap", mds_bitrade(5, "swap")),
        ("mds5 coset", mds_bitrade(5, "coset")),
        ("lift alt3", lift_to_perfect(base)),
        ("lift alt4", lift_to_perfect(alt_bitrade(4))),
        ("lift alt5", lift_to_perfect(alt_bitrade(5))),
        ("lift tensor2", lift_to_perfect(tensor_combine(base, base))),
        ("lift tensor3", lift_to_perfect(tensor_power(base, 3))),
    ]


def test_criterion_4_verification_and_corruptions(capfd):
    problems = []
    started = time.perf_counter()
    corruptions_checked = 0
    for label, bitrade in all_constructed_bitrades():
        for name, result in check_bitrade(bitrade).items():
            if not result.passed:
                problems.append(f"{label}: {name} check failed on the real bitrade")
        rng = random.Random(zlib.crc32(label.encode()))
        for _ in range(100):
            op, broken = corrupt(bitrade, rng)
            # the counting definition almost always breaks first; fall
            # back to the full battery before declaring a miss
            if definition_check(
                broken.params, broken.kind, broken.t0, broken.t1
            ).passed and all(r.passed for r in check_bitrade(broken).values()):
                problems.append(f"{label}: {op} corruption passed every check")
            corruptions_checked += 1
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f} s, limit 60 s")
    report(
        capfd,
        "4 verification and corruptions",
        problems,
        f"12 bitrades pass, {corruptions_checked} corruptions fail, {elapsed:.1f} s",
    )


def test_criterion_5_exhaustive_minimum_h43(capfd):
    problems = []
    started = time.perf_counter()
    best = min_perfect_volume(SearchConfig(HammingParams(4, 3)))
    if not (best.proven_minimum and best.volume == 6):
        problems.append(f"minimum: proven={best.proven_minimum}, volume={best.volume}")
    empty = min_perfect_volume(
        SearchConfig(HammingParams(4, 3), volume_upper_bound=5)
    )
    if not (empty.proven_minimum and empty.best is None):
        problems.append(
            f"upper bound 5: proven={empty.proven_minimum}, best={empty.best}"
        )
    if best.best is not None:
        rng = random.Random(43)
        candidates = [best.best] + [corrupt(best.best, rng)[1] for _ in range(10)]
        for c in candidates:
            args = (c.params, c.kind, c.t0, c.t1)
            closure, swept = definition_check(*args), brute_failures(*args)
            expected = (len(swept), tuple(swept[:WITNESS_LIMIT]))
            if (closure.failure_count, closure.witnesses) != expected:
                problems.append("closure and full sweep disagree on the witness or a corruption")
                break
    elapsed = time.perf_counter() - started
    if elapsed >= 600.0:
        problems.append(f"took {elapsed:.1f} s, limit 600 s")
    report(
        capfd,
        "5 exhaustive minimum H(4, 3)",
        problems,
        f"minimum 6 proven, volume <= 5 empty, sweeps agree, {elapsed:.2f} s",
    )


def test_criterion_6_exhaustive_minimum_h33(capfd):
    problems = []
    started = time.perf_counter()
    result = find_spherical(SearchConfig(HammingParams(3, 3)))
    elapsed = time.perf_counter() - started
    if not (result.proven_minimum and result.volume == 3):
        problems.append(f"proven={result.proven_minimum}, volume={result.volume}")
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f} s, limit 10 s")
    report(
        capfd,
        "6 exhaustive minimum H(3, 3)",
        problems,
        f"minimum 3 proven, {elapsed:.2f} s",
    )


def test_criterion_7_characterization_agreement(capfd):
    problems = []
    checked = 0
    plans = (
        (HammingParams(3, 3), SPHERICAL, alt_bitrade(3), 301),
        (HammingParams(4, 3), PERFECT, lift_to_perfect(alt_bitrade(3)), 302),
    )
    for params, kind, model, seed in plans:
        rng = random.Random(seed)
        pairs = []
        for _ in range(50):
            shift = tuple(rng.randrange(params.q) for _ in range(params.n))
            pairs.append(translate_parts(params, model.t0, model.t1, shift))
        for _ in range(100):
            _, broken = corrupt(model, rng)
            pairs.append((broken.t0, broken.t1))
        while len(pairs) < 500:
            pairs.append(random_pair(params, rng))
        for t0, t1 in pairs:
            votes = characterization_votes(params, kind, t0, t1)
            if len(set(votes)) != 1:
                problems.append(
                    f"H({params.n}, {params.q}): verdicts diverge "
                    f"(definition/eigen/profile = {votes}) on a pair of sizes "
                    f"{len(t0)}/{len(t1)}"
                )
                break
            checked += 1
    report(
        capfd,
        "7 characterization agreement",
        problems,
        f"three characterizations agree on {checked} pairs",
    )


def test_criterion_8_h55_constructed_volumes_and_unproven_census(capfd):
    problems = []
    volumes = {
        alt_bitrade(5).volume,
        mds_bitrade(5, "swap").volume,
        mds_bitrade(5, "coset").volume,
    }
    if volumes != {60, 100, 125}:
        problems.append(f"constructed volumes {sorted(volumes)}, want 60/100/125")
    if 95 in volumes:
        problems.append("a construction gave volume 95, which none of the three builds")
    census = find_spherical(SearchConfig(HammingParams(5, 5), time_budget=1.0))
    if census.proven_minimum:
        problems.append("a one-second census claimed to be exhaustive over H(5, 5)")
    report(
        capfd,
        "8 H(5, 5) constructed volumes and a 1 s census",
        problems,
        f"constructed volumes {sorted(volumes)}; census stops unproven "
        f"after {census.nodes_explored} nodes",
    )
