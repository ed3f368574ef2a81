"""The conditional bisimulation game, played on a solved result.

The game's one input is a ``BisimResult`` of either backend, solved with or
without action precedence; the game solves nothing itself.

Player 1 may upgrade the current condition and then move on either board;
Player 2 must mirror the move on the other board under the same condition.
Player 2 wins infinite plays and positions where Player 1 is stuck.  The
fixpoint run yields separation indices: the last round at which a condition
survives in a pair's entry, as ``BisimResult.separation`` reads them off
the history that the result replays on first use.  Finite indices drive
Player 1's attack (every reply strictly decreases the index); membership
in the final relation (an infinite index) drives Player 2's defence
(replies keep the condition inside).  Both players move on the problem's
successor lists and upgrade within its ``down_of``, read through its
``entry_holds``, so the game plays the results of both backends.  Under
action precedence a move is unavailable at the conditions where its escape
holds, i.e. where a higher action is enabled at its source.

Legal moves come from one place: ``attacks(result, inst)`` yields the
attacker's moves in (condition, side, action, target) order and
``replies(result, inst, move)`` lists the answers to one; strategies,
validators and listings all read them.  A concession is a reply of None.
Interactive play asks both players through one prompt loop, reading lines
from one iterator (scripted lines or stdin).
"""

from __future__ import annotations

import math
import re
import sys
from typing import Iterator

from .engine import BisimResult
from .errors import IllegalMove, InvariantViolation, NotWinnable, UnknownElement
from .features import Record

INF = math.inf


class GameInstance(Record):
    __slots__ = ("x", "y", "condition")


class Move(Record):
    __slots__ = ("upgrade", "side", "action", "target")  # side: "left" | "right"

    @property
    def step(self) -> str:
        return "%s %s -> %s" % (self.side, self.action, self.target)

    def __str__(self) -> str:
        return "upgrade %s; %s" % (self.upgrade, self.step)


_OTHER = {"left": "right", "right": "left"}


def _require(holds: bool, what: str) -> None:
    if not holds:
        raise InvariantViolation("%s (engine bug)" % what)


def moves(result: BisimResult, side: str, state: str, cond: str) -> list[tuple[str, str]]:
    """The sorted (action, target) moves of ``state`` on ``side`` under
    ``cond``: those whose guard holds and whose escape does not (a move is
    disabled where a higher action is enabled)."""
    p = result.problem
    i = result.state_index(side, state)
    if side == "left":
        states, succ, esc = p.states_x, p.succ_x, p.esc_x
    else:
        states, succ, esc = p.states_y, p.succ_y, p.esc_y
    return sorted(
        (a, states[j])
        for a in p.alphabet
        if not p.entry_holds(esc[a][i], cond)
        for j, guard in succ[a][i]
        if p.entry_holds(guard, cond)
    )


def _state(inst: GameInstance, side: str) -> str:
    return inst.x if side == "left" else inst.y


def attacks(result: BisimResult, inst: GameInstance) -> Iterator[Move]:
    """Every legal attack, in (condition, side, action, target) order: each
    upgrade of the condition (staying included), then each move under it."""
    p = result.problem
    for cond in sorted(p.entry_names(p.down_of(inst.condition))):
        for side in ("left", "right"):
            for action, target in moves(result, side, _state(inst, side), cond):
                yield Move(cond, side, action, target)


def replies(result: BisimResult, inst: GameInstance, move: Move) -> list[str]:
    """The targets of the other side's moves with the attack's action, under
    its condition."""
    side = _OTHER[move.side]
    return [t for a, t in moves(result, side, _state(inst, side), move.upgrade) if a == move.action]


def _pair_after(move: Move, reply_target: str) -> tuple[str, str]:
    if move.side == "left":
        return move.target, reply_target
    return reply_target, move.target


def _reply(move: Move, target: str) -> Move:
    return Move(move.upgrade, _OTHER[move.side], move.action, target)


def player1_move(inst: GameInstance, result: BisimResult) -> Move:
    """Optimal attack: the first attack, in ``attacks`` order, minimizing the
    worst reply's separation index.  The minimum is strictly below the
    current index, so the attack terminates; an empty reply set wins on the
    spot."""
    current = result.separation(inst.x, inst.y, inst.condition)
    if current == INF:
        raise NotWinnable("instance (%s, %s, %s) is bisimilar" % (inst.x, inst.y, inst.condition))

    def worst(move: Move) -> float:
        targets = replies(result, inst, move)
        return max((result.separation(*_pair_after(move, t), move.upgrade) for t in targets), default=-1)

    best = min(attacks(result, inst), key=worst, default=None)
    if best is None:
        raise NotWinnable("no move available from (%s, %s, %s)" % (inst.x, inst.y, inst.condition))
    _require(worst(best) < current, "attack does not descend")
    return best


def engine_attack(inst: GameInstance, result: BisimResult) -> Move | None:
    """The engine's attack: the optimal one on a separated instance, else
    the first legal one; None when there is no move."""
    if result.separation(inst.x, inst.y, inst.condition) != INF:
        return player1_move(inst, result)
    return next(attacks(result, inst), None)


def _validate_attack(inst: GameInstance, move: Move, result: BisimResult) -> None:
    p = result.problem
    below = p.down_of(inst.condition)
    try:
        is_upgrade = p.entry_holds(below, move.upgrade)
    except UnknownElement:
        raise IllegalMove("unknown condition %r" % (move.upgrade,)) from None
    if not is_upgrade:
        raise IllegalMove(
            "%r is not an upgrade of the current condition %r" % (move.upgrade, inst.condition)
        )
    if move.side not in _OTHER:
        raise IllegalMove("side must be left or right, got %r" % (move.side,))
    state = _state(inst, move.side)
    if (move.action, move.target) not in moves(result, move.side, state, move.upgrade):
        raise IllegalMove(
            "no transition %s -[%s]-> %s on the %s side under %s"
            % (state, move.action, move.target, move.side, move.upgrade)
        )


def _validate_reply(inst: GameInstance, move: Move, reply: Move, result: BisimResult) -> None:
    side = _OTHER[move.side]
    if reply.upgrade != move.upgrade:
        raise IllegalMove("the defender keeps the condition %s" % move.upgrade)
    if reply.side != side:
        raise IllegalMove("the reply must be on the %s side" % side)
    if reply.action != move.action:
        raise IllegalMove("the reply must use action %s" % move.action)
    if reply.target not in replies(result, inst, move):
        raise IllegalMove(
            "no transition %s -[%s]-> %s under %s"
            % (_state(inst, side), move.action, reply.target, move.upgrade)
        )


def player2_reply(inst: GameInstance, move: Move, result: BisimResult) -> Move | None:
    """Defence from the greatest bisimulation: while the pair's entry still
    contains the played condition, answer with a move that keeps it inside
    (the transfer property guarantees one); otherwise answer arbitrarily, or
    concede (None) when no same-action move exists."""
    _validate_attack(inst, move, result)
    candidates = replies(result, inst, move)
    if not candidates:
        return None
    holds = result.holds
    if holds(inst.x, inst.y, move.upgrade):
        candidates = [t for t in candidates if holds(*_pair_after(move, t), move.upgrade)]
        _require(bool(candidates), "transfer property violated")
    return _reply(move, candidates[0])


class PlayResult(Record):
    __slots__ = ("winner", "rounds", "reason", "transcript")


def self_play(result: BisimResult, x: str, y: str, cond: str) -> PlayResult:
    """Engine vs engine from (x, y, cond) on ``result``, the greatest
    bisimulation of either backend, solved with or without precedence.

    Player 1's winning lines are bounded by the strict descent of the
    separation index; Player 2's wins surface either as a stuck attacker or
    as a repeated instance (both strategies are deterministic, so a repeat
    proves the play is infinite).  Descent and membership preservation are
    checked every round; a violation raises ``InvariantViolation``.
    """
    inst = GameInstance(x, y, cond)
    lines = []
    visited = set()
    rounds = 0
    limit = len(result.states_x) * len(result.states_y) * max(result.problem.cond_count, 1) + 2
    while True:
        if inst in visited:
            return PlayResult(2, rounds, "instance repeated: play is infinite", lines)
        visited.add(inst)
        m0 = result.separation(inst.x, inst.y, inst.condition)
        lines.append("instance: (%s | %s | %s)  M=%s" % (inst.x, inst.y, inst.condition, m0))
        move = engine_attack(inst, result)
        if move is None:
            return PlayResult(2, rounds, "attacker has no move", lines)
        lines.append("P1: %s" % (move,))
        reply = player2_reply(inst, move, result)
        if reply is None:
            _require(m0 != INF, "defender conceded a bisimilar instance")
            lines.append("P2: concede")
            return PlayResult(1, rounds + 1, "defender cannot answer", lines)
        lines.append("P2: %s" % reply.step)
        nxt = GameInstance(*_pair_after(move, reply.target), move.upgrade)
        if m0 == INF:
            _require(result.holds(nxt.x, nxt.y, nxt.condition), "membership lost")
        else:
            _require(result.separation(nxt.x, nxt.y, nxt.condition) < m0, "separation index did not descend")
        inst = nxt
        rounds += 1
        _require(rounds <= (limit if m0 == INF else limit + m0), "self-play did not terminate")


# --- interactive loop -----------------------------------------------------------------------

_MOVE_RE = re.compile(
    r"^\s*(?:upgrade\s+(?P<upgrade>\S+)\s*;\s*)?(?P<side>left|right)\s+(?P<action>\S+)\s*->\s*(?P<target>\S+)\s*$"
)


def _parse_move(line: str, default_upgrade: str) -> Move | None:
    match = _MOVE_RE.match(line)
    if not match:
        return None
    return Move(match.group("upgrade") or default_upgrade, *match.group("side", "action", "target"))


def interactive_play(
    result: BisimResult, start: GameInstance, human_side: int = 1, input_lines=None, out=None
) -> str:
    """Terminal loop around the game on ``result``, the greatest
    bisimulation of either backend, solved with or without precedence; the
    human plays Player 1 (attacker) or Player 2 (defender) against the
    engine strategies.

    Commands: ``moves`` lists the legal options (worked out only then),
    ``hint`` shows the engine-recommended move, ``quit`` ends the session,
    as does the end of the input.  Illegal input is rejected with a reason
    and prompted again.  Lines come from ``input_lines`` or, without them,
    from stdin.
    """
    lines = iter(sys.stdin.readline, "") if input_lines is None else iter(input_lines)
    transcript: list[str] = []

    def emit(text: str) -> None:
        transcript.append(text)
        if out is not None:
            out.write(text + "\n")

    def finish(text: str) -> str:
        emit(text)
        return "\n".join(transcript) + "\n"

    def ask(prompt: str, usage: str, condition: str, options, hint, validate) -> Move | None:
        """Read lines until one is a legal move; None when the human quits
        or the input runs out.  ``options()`` lists the moves for ``moves``."""
        while True:
            if out is not None:
                out.write(prompt)
                out.flush()
            line = next(lines, None)
            if line is None:
                return None
            line = line.strip()
            transcript.append(prompt + line)
            if line == "quit":
                return None
            if line == "moves":
                for option in options():
                    emit("  %s" % option)
            elif line == "hint":
                emit("hint: %s" % hint())
            elif not line:
                continue
            elif (candidate := _parse_move(line, condition)) is None:
                emit("cannot parse move; expected: " + usage)
            else:
                try:
                    validate(candidate)
                    return candidate
                except IllegalMove as exc:
                    emit("illegal move: %s" % exc)

    emit("you play Player %d; Player 2 wins iff the pair is bisimilar" % human_side)
    inst = start
    result.separation(inst.x, inst.y, inst.condition)  # validates names
    while True:
        emit("instance: (%s | %s | %s)" % (inst.x, inst.y, inst.condition))
        if human_side == 1:
            move = ask(
                "P1 move> ",
                "upgrade <cond>; <left|right> <action> -> <state>",
                inst.condition,
                lambda: attacks(result, inst),
                lambda: engine_attack(inst, result) or "no move available",
                lambda attack: _validate_attack(inst, attack, result),
            )
            if move is None:
                return finish("quit: transcript closed")
        else:
            move = engine_attack(inst, result)
            if move is None:
                return finish("Player 1 cannot make another step: Player 2 wins")
        emit("P1: %s" % (move,))

        if human_side == 2:
            targets = replies(result, inst, move)
            if not targets:
                return finish("Player 2 cannot simulate the step: Player 1 wins")
            reply = ask(
                "P2 reply> ",
                "<left|right> <action> -> <state>",
                move.upgrade,
                lambda: (_reply(move, t).step for t in targets),
                lambda: player2_reply(inst, move, result),
                lambda answer: _validate_reply(inst, move, answer, result),
            )
            if reply is None:
                return finish("quit: transcript closed")
        else:
            reply = player2_reply(inst, move, result)
            if reply is None:
                return finish("Player 2 concedes: Player 1 wins")
        emit("P2: %s" % reply.step)
        inst = GameInstance(*_pair_after(move, reply.target), move.upgrade)
