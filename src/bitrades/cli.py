"""Command line entry point: construct, verify, search, and info.

Exit codes: 0 on success, 1 when a requested verification fails, 2 for
usage or parameter errors.
"""

from __future__ import annotations

import argparse
import sys

from .construct import (
    PERFECT,
    Bitrade,
    alt_bitrade,
    bitrade_kind,
    lift_to_perfect,
    mds_bitrade,
    tensor_power,
)
from .hamming import Code, HammingParams, code_distance, is_int, min_distance
from .search import MODES, SearchConfig, find_spherical, min_perfect_volume
from .serialize import dumps_json, dumps_text, load_bitrade, save_bitrade
from .verify import CHECKS, check_bitrade


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitrades",
        description="Construct, verify and search for bitrades in Hamming graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a bitrade")
    construct.add_argument(
        "--construction", required=True, choices=("alt", "mds", "tensor", "lift")
    )
    construct.add_argument("--q", type=int, required=True, help="alphabet size")
    construct.add_argument(
        "--r", type=int, default=1, help="tensor depth (tensor and lift only)"
    )
    construct.add_argument(
        "--variant", choices=("swap", "coset"), default=None, help="mds only"
    )
    construct.add_argument("--out", default=None, help="output file (default stdout)")
    construct.add_argument("--format", choices=("json", "text"), default="json")
    construct.set_defaults(handler=_cmd_construct)

    verify = sub.add_parser("verify", help="verify a bitrade file")
    verify.add_argument("--in", dest="path", required=True, help="bitrade file")
    verify.add_argument(
        "--checks",
        default="all",
        help=f"comma-separated subset of {','.join(CHECKS)}, or all",
    )
    verify.set_defaults(handler=_cmd_verify)

    search = sub.add_parser("search", help="search for a minimum-volume bitrade")
    search.add_argument("--n", type=int, required=True)
    search.add_argument("--q", type=int, required=True)
    search.add_argument("--mode", choices=MODES, default="exhaustive")
    search.add_argument("--upper-bound", dest="upper_bound", type=int, default=None)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--budget", type=float, default=None, help="seconds")
    search.add_argument("--out", default=None, help="save the best bitrade here")
    search.set_defaults(handler=_cmd_search)

    info = sub.add_parser("info", help="summarize a bitrade file")
    info.add_argument("--in", dest="path", required=True, help="bitrade file")
    info.set_defaults(handler=_cmd_info)

    return parser


def _build(args: argparse.Namespace) -> Bitrade:
    if args.variant is not None and args.construction != "mds":
        raise ValueError("--variant applies only to the mds construction")
    if args.r != 1 and args.construction in ("alt", "mds"):
        raise ValueError("--r applies only to the tensor and lift constructions")
    if args.r < 1:
        raise ValueError(f"--r must be at least 1, got {args.r}")
    if args.construction == "alt":
        return alt_bitrade(args.q)
    if args.construction == "mds":
        return mds_bitrade(args.q, args.variant or "swap")
    out = tensor_power(alt_bitrade(args.q), args.r)
    return lift_to_perfect(out) if args.construction == "lift" else out


def _cmd_construct(args: argparse.Namespace) -> int:
    b = _build(args)
    summary = (
        f"{args.construction} bitrade in H({b.params.n}, {b.params.q}): "
        f"kind {b.kind}, volume {b.volume}"
    )
    if args.out:
        save_bitrade(b, args.out, args.format)
        print(summary)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(dumps_json(b) if args.format == "json" else dumps_text(b))
        print(summary, file=sys.stderr)
    return 0


def _parse_checks(raw: str) -> list[str]:
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    if not tokens:
        raise ValueError("--checks must name at least one check")
    return [name for t in tokens for name in (CHECKS if t == "all" else (t,))]


def _cmd_verify(args: argparse.Namespace) -> int:
    b = load_bitrade(args.path)
    all_passed = True
    for name, report in check_bitrade(b, _parse_checks(args.checks)).items():
        label = name
        if name == "eigen":
            label = f"eigen (lambda = {report.details['eigenvalue']})"
        elif name == "delsarte":
            label = f"delsarte (m = {report.details['order']})"
        if report.passed:
            print(f"{label}: PASS")
        else:
            all_passed = False
            print(f"{label}: FAIL ({report.failure_count} failures)")
            for witness in report.witnesses:
                print(f"  witness: {witness}")
    return 0 if all_passed else 1


def _cmd_search(args: argparse.Namespace) -> int:
    params = HammingParams(args.n, args.q)
    kind = bitrade_kind(params)
    op = min_perfect_volume if kind == PERFECT else find_spherical
    config = SearchConfig(
        params=params,
        mode=args.mode,
        volume_upper_bound=args.upper_bound,
        time_budget=args.budget,
        seed=args.seed,
    )
    result = op(config)
    print(f"search H({args.n}, {args.q}) {kind} mode={args.mode} seed={args.seed}")
    if result.best is not None:
        if result.proven_minimum:
            print(f"minimum volume {result.volume} (proven)")
        else:
            print(f"best volume {result.volume} (not proven minimal)")
    elif result.proven_minimum:
        bound = f" with volume <= {args.upper_bound}" if args.upper_bound is not None else ""
        print(f"no bitrade found{bound} (proven)")
    else:
        print("no bitrade found (budget exhausted)")
    print(f"nodes explored {result.nodes_explored}, wall time {result.wall_time:.2f} s")
    if args.out is not None and result.best is not None:
        save_bitrade(result.best, args.out, "json")
        print(f"wrote {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    b = load_bitrade(args.path)
    c0 = Code(b.params, b.t0)
    c1 = Code(b.params, b.t1)
    print(f"H({b.params.n}, {b.params.q}) {b.kind} bitrade")
    if len(b.t0) == len(b.t1):
        print(f"volume {b.volume}")
    else:
        print(f"part sizes {len(b.t0)} and {len(b.t1)} (not a bitrade)")
    print(f"min distance t0: {min_distance(c0)}")
    print(f"min distance t1: {min_distance(c1)}")
    print(f"d(t0, t1): {code_distance(c0, c1)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        code = stop.code
        return code if is_int(code) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
