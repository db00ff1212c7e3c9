"""Print MINIMA.md: minimum bitrade volumes, the evidence for each, and a construction attaining it.

Run from the repository root:

    python scripts/minima.py > MINIMA.md

Each row is settled by the exhaustive search with symmetry breaking and
gives its node count and seconds; the H(7, 3) row takes about 20 s.  The
minimum-volume pair found passes all four checks, and the named
construction has the same volume.
"""

import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bitrades import (  # noqa: E402
    PERFECT,
    SPHERICAL,
    HammingParams,
    SearchConfig,
    alt_bitrade,
    check_bitrade,
    find_spherical,
    lift_to_perfect,
    min_perfect_volume,
    tensor_power,
)

# (kind, n, q, construction text, the construction)
INSTANCES = [
    (SPHERICAL, 3, 3, "alt_bitrade(3)", alt_bitrade(3)),
    (SPHERICAL, 4, 4, "alt_bitrade(4)", alt_bitrade(4)),
    (SPHERICAL, 6, 3, "tensor_power(alt_bitrade(3), 2)", tensor_power(alt_bitrade(3), 2)),
    (PERFECT, 4, 3, "lift_to_perfect(alt_bitrade(3))", lift_to_perfect(alt_bitrade(3))),
    (PERFECT, 5, 4, "lift_to_perfect(alt_bitrade(4))", lift_to_perfect(alt_bitrade(4))),
    (
        PERFECT, 7, 3, "lift_to_perfect(tensor_power(alt_bitrade(3), 2))",
        lift_to_perfect(tensor_power(alt_bitrade(3), 2)),
    ),
]


def row(kind, n, q, text, built) -> str:
    params = HammingParams(n, q)
    search = find_spherical if kind == SPHERICAL else min_perfect_volume
    started = time.perf_counter()
    result = search(SearchConfig(params))
    seconds = time.perf_counter() - started
    if not result.proven_minimum:
        raise RuntimeError(f"H({n}, {q}) {kind}: the search ended unproven")
    minimum = result.volume
    failed = [name for name, report in check_bitrade(result.best).items() if not report.passed]
    if failed:
        raise RuntimeError(f"H({n}, {q}) {kind}: the minimum pair fails {', '.join(failed)}")
    if built.kind != kind or built.params != params or built.volume != minimum:
        raise RuntimeError(f"{text} is not a {kind} bitrade of volume {minimum} in H({n}, {q})")
    evidence = f"proven: {result.nodes_explored:,} nodes, {seconds:.2f} s"
    return f"| H({n}, {q}) | {kind} | {minimum} | {evidence} | `{text}` |"


def main() -> None:
    print("# Minimum bitrade volumes")
    print()
    print("Written by `python scripts/minima.py > MINIMA.md`. Every row is proven by")
    print("the exhaustive search with symmetry breaking, the minimum-volume pair found")
    print("passes all four checks (definition, eigen, dist2, delsarte), and the")
    print("construction named attains the minimum.")
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
