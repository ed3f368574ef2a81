"""The conditional bisimulation game.

Player 1 may upgrade the current condition and then move on either board;
Player 2 must mirror the move on the other board under the same condition.
Player 2 wins infinite plays and positions where Player 1 is stuck.  The
fixpoint run yields separation indices: the last round at which a condition
survives in a pair's entry, read from the rounds that changed the entry
(``BisimResult.history``).  Finite indices drive Player 1's attack (every
reply strictly decreases the index); membership in the final relation
(an infinite index) drives Player 2's defence (replies keep the condition
inside).  Both players move on the problem's successor lists.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .engine import BisimResult, Problem, greatest_bisimulation
from .errors import IllegalMove, InvariantViolation, NotWinnable, PreconditionViolation
from .poset import iter_bits

INF = math.inf


@dataclass(frozen=True)
class GameInstance:
    x: str
    y: str
    condition: str


@dataclass(frozen=True)
class Move:
    upgrade: str
    side: str  # "left" | "right"
    action: str
    target: str

    def __str__(self) -> str:
        return "upgrade %s; %s %s -> %s" % (self.upgrade, self.side, self.action, self.target)


class Concede:
    def __repr__(self) -> str:
        return "Concede"


CONCEDE = Concede()

_OTHER = {"left": "right", "right": "left"}


def _require(holds: bool, what: str) -> None:
    if not holds:
        raise InvariantViolation("%s (engine bug)" % what)


class GameBoard:
    """Move tables for both systems, per state and condition."""

    def __init__(self, problem: Problem):
        self.poset = problem.poset
        self._moves: dict[tuple[str, str, str], list[tuple[str, str]]] = {}
        for side, succ, states in (
            ("left", problem.succ_x, problem.states_x),
            ("right", problem.succ_y, problem.states_y),
        ):
            per_state: dict[tuple[str, int], list] = {}
            for a, per_source in succ.items():
                for i, moves in enumerate(per_source):
                    for j, bits in moves:
                        for ci in iter_bits(bits):
                            per_state.setdefault((states[i], ci), []).append((a, states[j]))
            for (x, ci), moves in per_state.items():
                self._moves[(side, x, self.poset.elements[ci])] = sorted(moves)

    def moves(self, side: str, state: str, cond: str) -> list[tuple[str, str]]:
        return self._moves.get((side, state, cond), [])

    def upgrades(self, cond: str) -> list[str]:
        """Conditions reachable by upgrading (including staying), by name."""
        down = self.poset.down[self.poset.element_index(cond)]
        return sorted(self.poset.names_of_bits(down))

    def state_of(self, inst: GameInstance, side: str) -> str:
        return inst.x if side == "left" else inst.y


class SeparationTable:
    """Per (pair, condition): the last fixpoint round keeping it alive, or
    INF when it is in the greatest bisimulation."""

    def __init__(self, result: BisimResult):
        problem = result.problem
        if problem.poset is None or result.history is None:
            raise PreconditionViolation(
                "the game needs an explicit-backend result computed with keep_trace=True"
            )
        self.result = result
        self.poset = problem.poset
        self.board = GameBoard(problem)
        self._ix = {x: i for i, x in enumerate(problem.states_x)}
        self._iy = {y: i for i, y in enumerate(problem.states_y)}

    def m(self, x: str, y: str, cond: str) -> float:
        if x not in self._ix:
            raise IllegalMove("unknown left state %r" % (x,))
        if y not in self._iy:
            raise IllegalMove("unknown right state %r" % (y,))
        xi, yi = self._ix[x], self._iy[y]
        bit = 1 << self.poset.element_index(cond)
        if self.result.matrix[xi][yi] & bit:
            return INF
        # entries only shrink from top, so the entry changed at least once
        # and the last recorded value holding the bit is the last round it
        # survived
        return max(rnd for rnd, old in self.result.history[(xi, yi)] if old & bit)

    def m_of(self, inst: GameInstance) -> float:
        return self.m(inst.x, inst.y, inst.condition)

    def holds(self, x: str, y: str, cond: str) -> bool:
        return self.m(x, y, cond) == INF


def separation_table(result: BisimResult) -> SeparationTable:
    return SeparationTable(result)


def _pair_after(inst: GameInstance, side: str, target: str, reply_target: str):
    if side == "left":
        return target, reply_target
    return reply_target, target


def player1_move(inst: GameInstance, table: SeparationTable) -> Move:
    """Optimal attack: pick the upgrade and move minimizing the worst reply's
    separation index.  The minimum is strictly below the current index, so
    the attack terminates; an empty reply set wins on the spot."""
    current = table.m_of(inst)
    if current == INF:
        raise NotWinnable("instance (%s, %s, %s) is bisimilar" % (inst.x, inst.y, inst.condition))
    board = table.board
    best = None  # (omega, cond, side_rank, action, target, side)
    for cond in board.upgrades(inst.condition):
        for rank, side in enumerate(("left", "right")):
            state = board.state_of(inst, side)
            other_state = board.state_of(inst, _OTHER[side])
            for action, target in board.moves(side, state, cond):
                replies = [
                    t for a, t in board.moves(_OTHER[side], other_state, cond) if a == action
                ]
                if replies:
                    worst = max(
                        table.m(*_pair_after(inst, side, target, t), cond) for t in replies
                    )
                else:
                    worst = -1  # unanswerable: immediate win
                key = (worst, cond, rank, action, target)
                if best is None or key < best:
                    best = key + (side,)
    if best is None:
        raise NotWinnable(
            "no move available from (%s, %s, %s)" % (inst.x, inst.y, inst.condition)
        )
    omega, cond, _rank, action, target, side = best
    _require(omega < current, "attack does not descend")
    return Move(upgrade=cond, side=side, action=action, target=target)


def _validate_attack(inst: GameInstance, move: Move, board: GameBoard) -> None:
    if move.upgrade not in board.poset.index:
        raise IllegalMove("unknown condition %r" % (move.upgrade,))
    if not board.poset.leq(move.upgrade, inst.condition):
        raise IllegalMove(
            "%r is not an upgrade of the current condition %r" % (move.upgrade, inst.condition)
        )
    if move.side not in _OTHER:
        raise IllegalMove("side must be left or right, got %r" % (move.side,))
    state = board.state_of(inst, move.side)
    if (move.action, move.target) not in board.moves(move.side, state, move.upgrade):
        raise IllegalMove(
            "no transition %s -[%s]-> %s on the %s side under %s"
            % (state, move.action, move.target, move.side, move.upgrade)
        )


def player2_reply(inst: GameInstance, move: Move, table: SeparationTable):
    """Defence from the greatest bisimulation: while the pair's entry still
    contains the played condition, answer with a move that keeps it inside
    (the transfer property guarantees one); otherwise answer arbitrarily or
    concede when no same-action move exists."""
    board = table.board
    _validate_attack(inst, move, board)
    reply_side = _OTHER[move.side]
    state = board.state_of(inst, reply_side)
    candidates = [
        t for a, t in board.moves(reply_side, state, move.upgrade) if a == move.action
    ]
    if not candidates:
        return CONCEDE
    if table.holds(inst.x, inst.y, move.upgrade):
        preserving = [
            t
            for t in candidates
            if table.holds(*_pair_after(inst, move.side, move.target, t), move.upgrade)
        ]
        _require(bool(preserving), "transfer property violated")
        return Move(upgrade=move.upgrade, side=reply_side, action=move.action, target=preserving[0])
    return Move(upgrade=move.upgrade, side=reply_side, action=move.action, target=candidates[0])


def _default_attack(inst: GameInstance, board: GameBoard) -> Move | None:
    """Deterministic fallback attack for hopeless instances: first legal
    move by (condition, side, action, target)."""
    for cond in board.upgrades(inst.condition):
        for side in ("left", "right"):
            state = board.state_of(inst, side)
            moves = board.moves(side, state, cond)
            if moves:
                action, target = moves[0]
                return Move(upgrade=cond, side=side, action=action, target=target)
    return None


def _advance(inst: GameInstance, move: Move, reply: Move) -> GameInstance:
    x, y = _pair_after(inst, move.side, move.target, reply.target)
    return GameInstance(x, y, move.upgrade)


@dataclass
class PlayResult:
    winner: int
    rounds: int
    reason: str
    transcript: list[str] = field(default_factory=list)


def self_play(l1, l2, x: str, y: str, cond: str, result: BisimResult | None = None) -> PlayResult:
    """Engine vs engine from (x, y, cond).

    Player 1's winning lines are bounded by the strict descent of the
    separation index; Player 2's wins surface either as a stuck attacker or
    as a repeated instance (both strategies are deterministic, so a repeat
    proves the play is infinite).  Descent and membership preservation are
    checked every round; a violation raises ``InvariantViolation``.
    """
    if result is None:
        result = greatest_bisimulation(l1, l2)
    table = separation_table(result)
    inst = GameInstance(x, y, cond)
    table.m_of(inst)  # validates names
    lines = []
    visited = set()
    rounds = 0
    problem = result.problem
    limit = len(problem.states_x) * len(problem.states_y) * max(len(table.poset), 1) + 2
    while True:
        if inst in visited:
            return PlayResult(2, rounds, "instance repeated: play is infinite", lines)
        visited.add(inst)
        m0 = table.m_of(inst)
        lines.append("instance: (%s | %s | %s)  M=%s" % (inst.x, inst.y, inst.condition, m0))
        if m0 == INF:
            move = _default_attack(inst, table.board)
            if move is None:
                return PlayResult(2, rounds, "attacker has no move", lines)
        else:
            move = player1_move(inst, table)
        lines.append("P1: %s" % (move,))
        reply = player2_reply(inst, move, table)
        if reply is CONCEDE:
            _require(m0 != INF, "defender conceded a bisimilar instance")
            lines.append("P2: concede")
            return PlayResult(1, rounds + 1, "defender cannot answer", lines)
        lines.append("P2: %s %s -> %s" % (reply.side, reply.action, reply.target))
        nxt = _advance(inst, move, reply)
        if m0 == INF:
            _require(table.holds(nxt.x, nxt.y, nxt.condition), "membership lost")
        else:
            _require(table.m_of(nxt) < m0, "separation index did not descend")
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
    return Move(
        upgrade=match.group("upgrade") or default_upgrade,
        side=match.group("side"),
        action=match.group("action"),
        target=match.group("target"),
    )


def interactive_play(l1, l2, start: GameInstance, human_side: int = 1, input_lines=None, out=None) -> str:
    """Terminal loop around the game; the human plays Player 1 (attacker)
    or Player 2 (defender) against the engine strategies.

    Commands: ``moves`` lists the legal options, ``hint`` shows the
    engine-recommended move, ``quit`` ends the session.  Illegal input is
    rejected with a reason and prompted again.
    """
    result = greatest_bisimulation(l1, l2)
    table = separation_table(result)
    board = table.board
    transcript: list[str] = []

    def emit(text: str) -> None:
        transcript.append(text)
        if out is not None:
            out.write(text + "\n")

    if input_lines is None:
        reader = None
    else:
        reader = iter(input_lines)

    def read(prompt: str) -> str:
        if out is not None:
            out.write(prompt)
            out.flush()
        if reader is None:
            try:
                return input()
            except EOFError:
                return "quit"
        try:
            line = next(reader)
        except StopIteration:
            return "quit"
        transcript.append(prompt + line.strip())
        return line

    def list_attacks(inst: GameInstance) -> None:
        for cond in board.upgrades(inst.condition):
            for side in ("left", "right"):
                for action, target in board.moves(side, board.state_of(inst, side), cond):
                    emit("  upgrade %s; %s %s -> %s" % (cond, side, action, target))

    def list_replies(inst: GameInstance, move: Move) -> None:
        side = _OTHER[move.side]
        state = board.state_of(inst, side)
        for action, target in board.moves(side, state, move.upgrade):
            if action == move.action:
                emit("  %s %s -> %s" % (side, action, target))

    emit("you play Player %d; Player 2 wins iff the pair is bisimilar" % human_side)
    inst = start
    table.m_of(inst)  # validates names
    while True:
        emit("instance: (%s | %s | %s)" % (inst.x, inst.y, inst.condition))

        # Player 1's move
        if human_side == 1:
            move = None
            while move is None:
                line = read("P1 move> ").strip()
                if line == "quit":
                    emit("quit: transcript closed")
                    return "\n".join(transcript) + "\n"
                if line == "moves":
                    list_attacks(inst)
                    continue
                if line == "hint":
                    if table.m_of(inst) != INF:
                        emit("hint: %s" % player1_move(inst, table))
                    else:
                        fallback = _default_attack(inst, board)
                        emit("hint: %s" % (fallback if fallback else "no move available"))
                    continue
                if not line:
                    continue
                candidate = _parse_move(line, inst.condition)
                if candidate is None:
                    emit("cannot parse move; expected: upgrade <cond>; <left|right> <action> -> <state>")
                    continue
                try:
                    _validate_attack(inst, candidate, board)
                except IllegalMove as exc:
                    emit("illegal move: %s" % exc)
                    continue
                move = candidate
        else:
            if table.m_of(inst) != INF:
                move = player1_move(inst, table)
            else:
                move = _default_attack(inst, board)
            if move is None:
                emit("Player 1 cannot make another step: Player 2 wins")
                return "\n".join(transcript) + "\n"
        emit("P1: %s" % (move,))

        # Player 2's reply
        reply_side = _OTHER[move.side]
        legal = [
            t
            for a, t in board.moves(reply_side, board.state_of(inst, reply_side), move.upgrade)
            if a == move.action
        ]
        if human_side == 2:
            if not legal:
                emit("Player 2 cannot simulate the step: Player 1 wins")
                return "\n".join(transcript) + "\n"
            reply = None
            while reply is None:
                line = read("P2 reply> ").strip()
                if line == "quit":
                    emit("quit: transcript closed")
                    return "\n".join(transcript) + "\n"
                if line == "moves":
                    list_replies(inst, move)
                    continue
                if line == "hint":
                    emit("hint: %s" % player2_reply(inst, move, table))
                    continue
                if not line:
                    continue
                candidate = _parse_move(line, move.upgrade)
                if candidate is None:
                    emit("cannot parse move; expected: <left|right> <action> -> <state>")
                    continue
                if candidate.upgrade != move.upgrade:
                    emit("illegal move: the defender keeps the condition %s" % move.upgrade)
                    continue
                if candidate.side != reply_side:
                    emit("illegal move: the reply must be on the %s side" % reply_side)
                    continue
                if candidate.action != move.action:
                    emit("illegal move: the reply must use action %s" % move.action)
                    continue
                if candidate.target not in legal:
                    emit(
                        "illegal move: no transition %s -[%s]-> %s under %s"
                        % (board.state_of(inst, reply_side), move.action, candidate.target, move.upgrade)
                    )
                    continue
                reply = candidate
        else:
            reply = player2_reply(inst, move, table)
            if reply is CONCEDE:
                emit("Player 2 concedes: Player 1 wins")
                return "\n".join(transcript) + "\n"
        emit("P2: %s %s -> %s" % (reply.side, reply.action, reply.target))
        inst = _advance(inst, move, reply)
