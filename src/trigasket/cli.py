"""Command-line front end; every subcommand prints deterministic text.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from .acceptance import Limits, run_all
from .bench import run_bench
from .gasket import bfs_distance, build, export_dot, export_json
from .horofunction import (
    ALTERNATING,
    CORNER_R,
    CORNER_U,
    SYMMETRIC,
    VERDICT_BUSEMANN_R,
    VERDICT_BUSEMANN_U,
    VERDICT_DIVERGENT,
    VERDICT_SYMMETRIC,
    VERDICT_UNRESOLVED,
    VertexSequence,
    classify,
    evaluate_table,
    parse_sequence,
    table_to_csv,
    table_to_json,
)
from .isomorphism import decide_iso, degree_two_census
from .metric import corner_distances, distance
from .word import DomainError, orbit, parse_address

_FAMILY_FLAGS = {"U": CORNER_U, "R": CORNER_R, "c": SYMMETRIC, "alt": ALTERNATING}
_VERDICT_TOKENS = {
    VERDICT_BUSEMANN_U: "BUSEMANN_U",
    VERDICT_BUSEMANN_R: "BUSEMANN_R",
    VERDICT_SYMMETRIC: "SYMMETRIC",
    VERDICT_DIVERGENT: "DIVERGENT",
    VERDICT_UNRESOLVED: "UNRESOLVED",
}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _address_at_level(text: str, level: int) -> str:
    addr = parse_address(text)
    if len(addr) != level:
        raise DomainError(f"address {addr!r} is level {len(addr)}, expected {level}")
    return addr


def _cmd_build(args) -> int:
    g = build(args.word, args.level)
    text = export_dot(g) if args.format == "dot" else export_json(g)
    _emit(text, args.out)
    return 0


def _cmd_dist(args) -> int:
    x = _address_at_level(args.x, args.level)
    y = _address_at_level(args.y, args.level)
    parts = []
    closed = brute = None
    if args.method in ("closed", "both"):
        closed = distance(x, y)
        parts.append(f"closed={closed}")
    if args.method in ("bfs", "both"):
        brute = bfs_distance(build("(l)", args.level), x, y)
        parts.append(f"bfs={brute}")
    if args.method == "both":
        parts.append("MATCH" if closed == brute else "MISMATCH")
    print(" ".join(parts))
    return 0


def _cmd_corners(args) -> int:
    trip = corner_distances(parse_address(args.x))
    print(f"U={trip.du} L={trip.dl} R={trip.dr}")
    return 0


def _sequence_from(args) -> VertexSequence:
    if args.family:
        return VertexSequence.family(_FAMILY_FLAGS[args.family])
    with open(args.seq, encoding="utf-8") as fh:
        return parse_sequence(fh.read())


def _radius_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise DomainError(f"invalid radius {text!r}") from None
    if not values or any(r < 1 for r in values):
        raise DomainError(f"invalid radius {text!r}")
    return values


def _cmd_horo_eval(args) -> int:
    radii = _radius_list(args.radius)
    if len(radii) != 1:
        raise DomainError("eval takes a single radius")
    seq = _sequence_from(args)
    tables, report = evaluate_table(seq, radii[0], args.max_level, args.stable)
    if report.stabilized:
        status = f"stabilized stable_from={report.stable_from}"
    elif report.exhausted:
        status = "unresolved(sequence-exhausted)"
    else:
        status = "unstable"
    tab = tables[-1] if tables else None
    if args.format == "csv":
        head = (f"# status={status} window={report.window} radius={radii[0]}"
                f" evaluated={report.evaluated}\n")
        if report.stabilized:
            body = table_to_csv(tab)
        else:
            lines = ["address,index,value"]
            for addr in sorted(report.history):
                for i, v in enumerate(report.history[addr], 1):
                    lines.append(f"{addr},{i},{v}")
            body = "\n".join(lines) + "\n"
        _emit(head + body, args.out)
    else:
        import json

        payload = {
            "status": status,
            "window": report.window,
            "radius": radii[0],
            "evaluated": report.evaluated,
            "table": None,
            "history": {a: vs for a, vs in sorted(report.history.items())},
        }
        if report.stabilized:
            payload["table"] = json.loads(table_to_json(tab))
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_horo_classify(args) -> int:
    seq = _sequence_from(args)
    res = classify(seq, _radius_list(args.radius), args.max_level, args.stable)
    token = _VERDICT_TOKENS[res.verdict]
    if res.verdict == VERDICT_DIVERGENT:
        values = ",".join(str(v) for v in sorted(res.witness_values))
        print(f"{token} witness={res.witness} values={{{values}}}")
    elif res.verdict == VERDICT_UNRESOLVED:
        print(f"{token} reason={res.note!r}")
    else:
        print(f"{token} exact={'yes' if res.exact else 'no'} bound={res.bound}")
    return 0


def _cmd_iso(args) -> int:
    verdict = decide_iso(args.v, args.w)
    if verdict.isomorphic:
        names = ",".join(str(s) for s in verdict.witnesses)
        print(f"ISOMORPHIC witnesses={names}")
    else:
        cv, cw = verdict.census
        print(f"NOT_ISOMORPHIC degree2_census={cv},{cw}")
    return 0


def _cmd_orbit(args) -> int:
    members = sorted(str(m) for m in orbit(args.w))
    print(f"size={len(members)} members={','.join(members)}")
    return 0


def _cmd_census(args) -> int:
    count, vertex = degree_two_census(args.w)
    if count:
        print(f"degree2={count} vertex={vertex}")
    else:
        print("degree2=0")
    return 0


def _cmd_bench(args) -> int:
    r = run_bench(args.level, args.pairs, args.seed)
    parts = [f"level={r.level}", f"pairs={r.pairs}", f"seed={r.seed}",
             f"closed_s={r.closed_seconds:.6f}", f"kernel_s={r.kernel_seconds:.6f}"]
    if r.bfs_seconds is not None:
        parts.append(f"bfs_s={r.bfs_seconds:.6f}")
        parts.append(f"speedup={r.speedup:.1f}x")
        parts.append(f"match={'yes' if r.all_match else 'no'}")
    else:
        parts.append("bfs=skipped(level-above-oracle-cap)")
    print(" ".join(parts))
    return 0


def _cmd_selftest(args) -> int:
    results = run_all(Limits(level_cap=args.max_level))
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.key}: {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigasket",
        description="Triangle gasket graphs: construction, exact distances, "
                    "isomorphism, horofunction tables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a level graph and export it")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--word", default="(l)")
    p.add_argument("--format", choices=("dot", "json"), required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("dist", help="distance between two addresses")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--method", choices=("closed", "bfs", "both"), default="closed")
    p.set_defaults(handler=_cmd_dist)

    p = sub.add_parser("corners", help="corner-distance triple of an address")
    p.add_argument("x")
    p.set_defaults(handler=_cmd_corners)

    p = sub.add_parser("horo", help="horofunction tables and classification")
    hsub = p.add_subparsers(dest="horo_command", required=True)
    for name, handler in (("eval", _cmd_horo_eval), ("classify", _cmd_horo_classify)):
        hp = hsub.add_parser(name)
        group = hp.add_mutually_exclusive_group(required=True)
        group.add_argument("--family", choices=tuple(_FAMILY_FLAGS))
        group.add_argument("--seq", help="file with one address per line")
        hp.add_argument("--radius", required=True,
                        help="probe radius; classify accepts a comma list")
        hp.add_argument("--max-level", type=int, required=True)
        hp.add_argument("--stable", type=int, default=3)
        if name == "eval":
            hp.add_argument("--format", choices=("csv", "json"), default="csv")
            hp.add_argument("--out")
        hp.set_defaults(handler=handler)

    p = sub.add_parser("iso", help="decide isomorphism of two word graphs")
    p.add_argument("v")
    p.add_argument("w")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("orbit", help="relabelling orbit of a word")
    p.add_argument("w")
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("census", help="degree-2 vertex census of a word graph")
    p.add_argument("w")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("bench", help="time closed-form distance vs BFS")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--max-level", type=int, default=None)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
