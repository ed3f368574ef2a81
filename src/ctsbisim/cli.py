"""Command-line interface: check, oracle, convert, approx, game, bench.

The oracle, convert, approx, game and bench handlers import their modules
(``referee``, ``convert``, ``game``, ``bench``) when called, so ``check``
loads none of them."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bdd import BddManager
from .engine import greatest_bisimulation, report_bytes
from .errors import CtsBisimError, ModelError
from .modelio import load_model


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_bytes(data: bytes, out: str | None) -> None:
    """Write ``data`` unchanged to ``out`` or to standard output, without a
    round trip through ``str``."""
    if out:
        Path(out).write_bytes(data)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream stands in for stdout
        sys.stdout.write(data.decode())
        return
    sys.stdout.flush()  # text written before goes first
    buffer.write(data)


def _parse_instance(option: str, raw: str) -> tuple[str, str, str]:
    # the condition comes last and may hold commas, as in ``{enc,ssl}``
    parts = raw.split(",", 2)
    if len(parts) != 3:
        raise ModelError("%s expects 'left-state,right-state,condition', got %r" % (option, raw))
    return parts[0].strip(), parts[1].strip(), parts[2].strip()


def _var_order(raw: str | None):
    if raw is None:
        return None
    return [name.strip() for name in raw.split(",") if name.strip()]


def _write_relation(relation, pair, out) -> int:
    """Answer a ``pair`` (x, y, cond) first, then write the report; exit 0 iff it is related."""
    verdict = relation.holds(*pair) if pair else None
    _write_bytes(report_bytes(relation.report()), out)
    if pair is None:
        return 0
    print("%s ~ %s under %s: %s" % (*pair, "bisimilar" if verdict else "not bisimilar"), file=sys.stderr)
    return 0 if verdict else 1


def _load_pair(args):
    """Both models, closed as they are loaded when ``--close`` is given."""
    return load_model(args.left, close=args.close), load_model(args.right, close=args.close)


def cmd_check(args) -> int:
    pair = None if args.pair is None else _parse_instance("--pair", args.pair)  # a malformed pair loads nothing
    left, right = _load_pair(args)
    result = greatest_bisimulation(
        left, right, precedence=args.precedence, backend=args.backend, var_order=_var_order(args.var_order)
    )
    return _write_relation(result, pair, args.out)


def cmd_oracle(args) -> int:
    from .referee import brute_force_oracle

    pair = None if args.pair is None else _parse_instance("--pair", args.pair)
    left, right = _load_pair(args)
    return _write_relation(brute_force_oracle(left, right, precedence=args.precedence), pair, args.out)


def cmd_convert(args) -> int:
    from .convert import convert_model, model_to_dict

    converted = convert_model(load_model(args.input, close=args.close), args.to)
    _write_output(json.dumps(model_to_dict(converted), indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_approx(args) -> int:
    from .convert import load_approx_input

    universe, expr = load_approx_input(args.input)
    manager = BddManager(universe, _var_order(args.var_order))
    b = manager.from_expr(expr)
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
    """Play on the pair's result, solved once on the explicit backend without precedence."""
    from .game import GameInstance, interactive_play, self_play

    x, y, cond = _parse_instance("--start", args.start)
    result = greatest_bisimulation(*_load_pair(args))
    if args.self_play:
        play = self_play(result, x, y, cond)
        transcript = "\n".join(play.transcript) + "\n"
        transcript += "winner: Player %d (%s)\n" % (play.winner, play.reason)
        _write_output(transcript, args.out)
        return 0
    transcript = interactive_play(result, GameInstance(x, y, cond), human_side=args.human, out=sys.stdout)
    if args.out:
        Path(args.out).write_text(transcript)
    return 0


def cmd_bench(args) -> int:
    from .bench import format_table, run_benchmark

    report = run_benchmark(
        n_min=args.n_min,
        n_max=args.n_max,
        budget=args.budget,
        repeats=args.repeats,
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    print(format_table(report))
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
            p.add_argument("--close", action="store_true", help="close offending guards downward as any model is loaded, instead of rejecting them")

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

    p = sub.add_parser("game", help="play the conditional bisimulation game",
                       description="Play the game on the pair, solved once on the explicit backend without precedence.")
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
    p.add_argument("--repeats", type=int, default=3, help="timed runs per cell after the warm-up, at least 1")
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
