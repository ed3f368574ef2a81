"""Command-line interface: check, oracle, convert, approx, game, bench."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from . import features as ft
from .bdd import BddManager
from .engine import brute_force_oracle, greatest_bisimulation, report_bytes
from .errors import CtsBisimError, ModelError
from .features import FeatureUniverse
from .game import GameInstance, interactive_play, self_play
from .modelio import convert_model, load_model, model_to_dict
from .models import Cts, Fts, Lats, fts_to_cts, lats_to_cts


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_pair(raw: str) -> tuple[str, str, str]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ModelError("--pair expects 'left-state,right-state,condition', got %r" % raw)
    return parts[0].strip(), parts[1].strip(), parts[2].strip()


def _var_order(raw: str | None):
    if raw is None:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


def cmd_check(args) -> int:
    left = load_model(args.left, close=args.close)
    right = load_model(args.right, close=args.close)
    result = greatest_bisimulation(
        left,
        right,
        precedence=args.precedence,
        backend=args.backend,
        var_order=_var_order(args.var_order),
        close=args.close,
    )
    _write_output(report_bytes(result.report()).decode(), args.out)
    if args.pair:
        x, y, cond = _parse_pair(args.pair)
        verdict = result.holds(x, y, cond)
        print(
            "%s ~ %s under %s: %s" % (x, y, cond, "bisimilar" if verdict else "not bisimilar"),
            file=sys.stderr,
        )
        return 0 if verdict else 1
    return 0


def cmd_oracle(args) -> int:
    left = load_model(args.left, close=args.close)
    right = load_model(args.right, close=args.close)
    relation = brute_force_oracle(left, right, precedence=args.precedence)
    _write_output(report_bytes(relation.report()).decode(), args.out)
    if args.pair:
        x, y, cond = _parse_pair(args.pair)
        verdict = relation.holds(x, y, cond)
        print(
            "%s ~ %s under %s: %s" % (x, y, cond, "bisimilar" if verdict else "not bisimilar"),
            file=sys.stderr,
        )
        return 0 if verdict else 1
    return 0


def cmd_convert(args) -> int:
    model = load_model(args.input, close=args.close)
    converted = convert_model(model, args.to, close=args.close)
    _write_output(json.dumps(model_to_dict(converted), indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_approx(args) -> int:
    path = Path(args.input)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelError("%s: %s" % (path, exc)) from exc
    for key in ("features", "upgrade", "expr"):
        if key not in raw:
            raise ModelError("%s: missing field %r" % (path, key))
    universe = FeatureUniverse(raw["features"], raw["upgrade"])
    manager = BddManager(universe, _var_order(args.var_order))
    b = manager.from_expr(ft.parse_expr(raw["expr"]))
    approx = manager.approx(b)
    report = {
        "input": {
            "inner_nodes": manager.node_counts(b)[0],
            "downward_closed": manager.is_downward_closed(b),
            "dot": manager.to_dot(b, "input"),
        },
        "output": {
            "inner_nodes": manager.node_counts(approx)[0],
            "downward_closed": manager.is_downward_closed(approx),
            "dot": manager.to_dot(approx, "approximation"),
        },
        "changed": approx != b,
    }
    _write_output(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    if args.out:
        # DOT siblings next to the report, for piping straight into graphviz
        stem = Path(args.out)
        stem.with_suffix(".input.dot").write_text(report["input"]["dot"])
        stem.with_suffix(".approx.dot").write_text(report["output"]["dot"])
    return 0


def cmd_game(args) -> int:
    left = load_model(args.left, close=args.close)
    right = load_model(args.right, close=args.close)
    x, y, cond = _parse_pair(args.start)
    if args.self_play:
        play = self_play(left, right, x, y, cond)
        transcript = "\n".join(play.transcript) + "\n"
        transcript += "winner: Player %d (%s)\n" % (play.winner, play.reason)
        _write_output(transcript, args.out)
        return 0
    transcript = interactive_play(
        left, right, GameInstance(x, y, cond), human_side=args.human, out=sys.stdout
    )
    if args.out:
        Path(args.out).write_text(transcript)
    return 0


def cmd_bench(args) -> int:
    report = bench_mod.run_benchmark(
        n_min=args.n_min,
        n_max=args.n_max,
        budget=args.budget,
        repeats=args.repeats,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    print(bench_mod.format_table(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctsbisim",
        description="Conditional bisimilarity for conditional/lattice/featured transition systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, models=True):
        p.add_argument("--out", help="write the report/output to this file")
        if models:
            p.add_argument("--close", action="store_true", help="take downward closures of offending guards instead of rejecting them")

    p = sub.add_parser("check", help="compute the greatest conditional bisimulation")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--backend", choices=("explicit", "bdd"), default="explicit")
    p.add_argument("--precedence", action="store_true", help="use the models' action precedence")
    p.add_argument("--var-order", help="comma-separated BDD variable order override")
    p.add_argument("--pair", help="query 'x,y,cond'; exit 0 iff bisimilar")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="per-condition brute-force bisimilarity (no lattices)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--precedence", action="store_true")
    p.add_argument("--pair")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("convert", help="translate a model between kinds")
    p.add_argument("input")
    p.add_argument("--to", choices=("cts", "lats", "fts"), required=True)
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("approx", help="approximate a feature expression's ROBDD in the upgrade lattice")
    p.add_argument("input", help="JSON file with features, upgrade, expr")
    p.add_argument("--var-order")
    common(p, models=False)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("game", help="play the conditional bisimulation game")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--start", required=True, help="initial instance 'x,y,cond'")
    p.add_argument("--human", type=int, choices=(1, 2), default=1, help="which player the human controls")
    p.add_argument("--self-play", action="store_true", help="engine vs engine, print the verdict")
    common(p)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("bench", help="time both backends on the scaling family")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--budget", type=float, default=60.0, help="per-n per-backend budget in seconds")
    p.add_argument("--repeats", type=int, default=3)
    common(p, models=False)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CtsBisimError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
