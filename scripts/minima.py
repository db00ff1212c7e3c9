"""Print MINIMA.md: minimum bitrade volumes, the evidence for each, and a construction attaining it.

Run from the repository root with the test extra installed (numpy, scipy):

    python scripts/minima.py > MINIMA.md

A row the exhaustive search settles gives its node count and seconds.  A row
too large for it gives the seconds of the ILP in tests/test_oracle.py, whose
optimum is a floating-point solver's claim and is labelled "oracle", never
"proven".  Either way the minimum-volume pair found passes all four checks,
and the named construction has the same volume.  The H(7, 3) ILP takes one
to two minutes and, with sparse constraint blocks, about 190 MB.
"""

import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_oracle import oracle_minimum  # noqa: E402

from bitrades import (  # noqa: E402
    PERFECT,
    SPHERICAL,
    Bitrade,
    HammingParams,
    SearchConfig,
    alt_bitrade,
    check_bitrade,
    find_spherical,
    lift_to_perfect,
    min_perfect_volume,
    tensor_power,
)

# (kind, n, q, construction text, the construction, settled by the exhaustive search)
INSTANCES = [
    (SPHERICAL, 3, 3, "alt_bitrade(3)", alt_bitrade(3), True),
    (SPHERICAL, 4, 4, "alt_bitrade(4)", alt_bitrade(4), True),
    (SPHERICAL, 6, 3, "tensor_power(alt_bitrade(3), 2)", tensor_power(alt_bitrade(3), 2), True),
    (PERFECT, 4, 3, "lift_to_perfect(alt_bitrade(3))", lift_to_perfect(alt_bitrade(3)), True),
    (PERFECT, 5, 4, "lift_to_perfect(alt_bitrade(4))", lift_to_perfect(alt_bitrade(4)), True),
    (
        PERFECT, 7, 3, "lift_to_perfect(tensor_power(alt_bitrade(3), 2))",
        lift_to_perfect(tensor_power(alt_bitrade(3), 2)), False,
    ),
]


def row(kind, n, q, text, built, exhaustive) -> str:
    params = HammingParams(n, q)
    started = time.perf_counter()
    if exhaustive:
        search = find_spherical if kind == SPHERICAL else min_perfect_volume
        result = search(SearchConfig(params))
        if not result.proven_minimum:
            raise RuntimeError(f"H({n}, {q}) {kind}: the search ended unproven")
        minimum, witness = result.volume, result.best
        evidence = f"proven: {result.nodes_explored:,} nodes, {time.perf_counter() - started:.2f} s"
    else:
        minimum, (t0, t1) = oracle_minimum(kind, n, q)
        witness = Bitrade(params, kind, t0, t1)
        evidence = f"oracle: ILP optimum, {time.perf_counter() - started:.1f} s"
    failed = [name for name, report in check_bitrade(witness).items() if not report.passed]
    if failed:
        raise RuntimeError(f"H({n}, {q}) {kind}: the minimum pair fails {', '.join(failed)}")
    if built.kind != kind or built.params != params or built.volume != minimum:
        raise RuntimeError(f"{text} is not a {kind} bitrade of volume {minimum} in H({n}, {q})")
    return f"| H({n}, {q}) | {kind} | {minimum} | {evidence} | `{text}` |"


def main() -> None:
    print("# Minimum bitrade volumes")
    print()
    print("Written by `python scripts/minima.py > MINIMA.md`. \"proven\" rows come from")
    print("the exhaustive search with symmetry breaking; \"oracle\" rows from the ILP in")
    print("`tests/test_oracle.py`, a solver's claim and not a proof. In every row the")
    print("minimum-volume pair found passes all four checks (definition, eigen, dist2,")
    print("delsarte), and the construction named attains the minimum.")
    print(
        f"Timed with Python {platform.python_version()} on {platform.machine()}, "
        f"{os.cpu_count()} CPUs."
    )
    print()
    print("| instance | kind | minimum | evidence | construction |")
    print("|---|---|---|---|---|")
    for instance in INSTANCES:
        print(row(*instance), flush=True)


if __name__ == "__main__":
    main()
