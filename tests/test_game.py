import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ctsbisim.engine import greatest_bisimulation
from ctsbisim.errors import IllegalMove, InvariantViolation, NotWinnable
from ctsbisim.game import (
    CONCEDE,
    GameInstance,
    INF,
    Move,
    interactive_play,
    player1_move,
    player2_reply,
    self_play,
    separation_table,
)
from ctsbisim.models import Lats
from ctsbisim.poset import ConditionPoset

from conftest import make_routing, random_lats_pair
from oracles import exhaustive_p1_wins


@pytest.fixture
def routing_game(routing_pair):
    basic, modified = routing_pair
    result = greatest_bisimulation(basic, modified)
    return basic, modified, result, separation_table(result.trace)


class TestSeparationTable:
    def test_bisimilar_entry_is_infinite(self, routing_game):
        _, _, _, table = routing_game
        assert table.m("ready", "ready", "a") == INF

    def test_separated_entry_is_finite(self, routing_game):
        _, _, _, table = routing_game
        assert table.m("ready", "ready", "b") < INF

    def test_self_comparison_diagonal_infinite(self, routing_pair):
        basic, _ = routing_pair
        res = greatest_bisimulation(basic, basic)
        table = separation_table(res.trace)
        for x in basic.states:
            for c in basic.poset.elements:
                assert table.m(x, x, c) == INF

    def test_unknown_names_rejected(self, routing_game):
        _, _, _, table = routing_game
        with pytest.raises(IllegalMove):
            table.m("nope", "ready", "a")


class TestPlayer1:
    def test_not_winnable_at_infinite_index(self, routing_game):
        _, _, _, table = routing_game
        with pytest.raises(NotWinnable):
            player1_move(GameInstance("ready", "ready", "a"), table)

    def test_immediate_win_at_index_zero(self, routing_game):
        # the left unsafe state can send encrypted under a; the right safe
        # state has no answer at all, so separation happens at step 0 and
        # the returned move is unanswerable
        _, _, _, table = routing_game
        inst = GameInstance("unsafe", "safe", "a")
        assert table.m_of(inst) == 0
        move = table and player1_move(inst, table)
        assert (move.side, move.action, move.upgrade) == ("left", "e", "a")
        replies = table.board.moves("right", "safe", "a")
        assert [t for a, t in replies if a == move.action] == []

    def test_deterministic(self, routing_game):
        _, _, _, table = routing_game
        inst = GameInstance("ready", "ready", "b")
        assert player1_move(inst, table) == player1_move(inst, table)

    def test_condition_tie_breaks_lexicographically(self):
        poset = ConditionPoset(["c0", "c1", "c2"], [("c1", "c0"), ("c2", "c0")])
        l1 = Lats(["x", "d"], ["m"], poset, {("x", "m", "d"): ("c1", "c2")})
        l2 = Lats(["y"], ["m"], poset, {})
        res = greatest_bisimulation(l1, l2)
        table = separation_table(res.trace)
        move = player1_move(GameInstance("x", "y", "c0"), table)
        # both upgrades win immediately; the smaller name is chosen
        assert move.upgrade == "c1"

    def test_descent_along_optimal_line(self, routing_game):
        basic, modified, result, table = routing_game
        inst = GameInstance("ready", "ready", "b")
        rstar = result.relation
        seen = [table.m_of(inst)]
        while True:
            move = player1_move(inst, table)
            reply = player2_reply(inst, move, rstar)
            if reply is CONCEDE:
                break
            if move.side == "left":
                inst = GameInstance(move.target, reply.target, move.upgrade)
            else:
                inst = GameInstance(reply.target, move.target, move.upgrade)
            seen.append(table.m_of(inst))
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_tampered_index_breaks_descent(self, routing_game):
        # every index equal: no attack from (ready, ready, b) can descend
        _, _, _, table = routing_game
        table._m = dict.fromkeys(table._m, 1)
        with pytest.raises(InvariantViolation):
            player1_move(GameInstance("ready", "ready", "b"), table)

    def test_descent_check_survives_python_O(self, models_dir):
        script = """
import sys
from ctsbisim.engine import greatest_bisimulation
from ctsbisim.errors import InvariantViolation
from ctsbisim.game import GameInstance, player1_move, separation_table
from ctsbisim.modelio import load_model

assert False, "assert statements must be stripped under -O"
table = separation_table(greatest_bisimulation(load_model(sys.argv[1]), load_model(sys.argv[2])).trace)
table._m = dict.fromkeys(table._m, 1)
try:
    player1_move(GameInstance("ready", "ready", "b"), table)
except InvariantViolation:
    sys.exit(3)
"""
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [
                sys.executable,
                "-O",
                "-c",
                script,
                str(models_dir / "routing_basic.json"),
                str(models_dir / "routing_modified.json"),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr


class TestPlayer2:
    def test_membership_preserving_reply(self, routing_game):
        basic, modified, result, table = routing_game
        rstar = result.relation
        inst = GameInstance("ready", "ready", "a")
        move = Move(upgrade="a", side="left", action="receive", target="received")
        reply = player2_reply(inst, move, rstar)
        assert reply is not CONCEDE
        assert reply.side == "right" and reply.action == "receive"
        assert rstar.holds(move.target, reply.target, "a")

    def test_illegal_upgrade_rejected(self, routing_game):
        _, _, result, table = routing_game
        inst = GameInstance("ready", "ready", "a")
        move = Move(upgrade="b", side="left", action="receive", target="received")
        with pytest.raises(IllegalMove):
            player2_reply(inst, move, result.relation)

    def test_unknown_transition_rejected(self, routing_game):
        _, _, result, _ = routing_game
        inst = GameInstance("ready", "ready", "b")
        move = Move(upgrade="b", side="left", action="e", target="ready")
        with pytest.raises(IllegalMove):
            player2_reply(inst, move, result.relation)

    def test_concede_when_no_reply_exists(self, routing_game):
        _, _, result, _ = routing_game
        inst = GameInstance("unsafe", "safe", "a")
        move = Move(upgrade="a", side="left", action="e", target="ready")
        assert player2_reply(inst, move, result.relation) is CONCEDE


class TestSelfPlay:
    def test_routing_verdicts(self, routing_pair):
        basic, modified = routing_pair
        assert self_play(basic, modified, "ready", "ready", "a").winner == 2
        assert self_play(basic, modified, "ready", "ready", "b").winner == 1

    def test_attacker_win_is_quick(self, routing_pair):
        basic, modified = routing_pair
        play = self_play(basic, modified, "ready", "ready", "b")
        assert play.rounds <= len(basic.states)

    def test_self_pair_defender_wins(self, routing_pair):
        basic, _ = routing_pair
        for x in basic.states:
            for c in basic.poset.elements:
                assert self_play(basic, basic, x, x, c).winner == 2

    def test_deadlocked_attacker_loses(self):
        poset = ConditionPoset(["a"], [])
        l1 = Lats(["x"], ["m"], poset, {})
        l2 = Lats(["y"], ["m"], poset, {})
        play = self_play(l1, l2, "x", "y", "a")
        assert play.winner == 2 and "no move" in play.reason

    def test_verdict_matches_fixpoint_on_random_models(self):
        rng = random.Random(200)
        for _ in range(15):
            l1, l2 = random_lats_pair(rng, max_states=4, max_conds=3)
            result = greatest_bisimulation(l1, l2)
            for x in l1.states:
                for y in l2.states:
                    for c in l1.poset.elements:
                        play = self_play(l1, l2, x, y, c, result=result)
                        assert (play.winner == 2) == result.holds(x, y, c)


class TestExhaustiveSolver:
    def test_agreement_with_fixpoint_and_self_play(self):
        rng = random.Random(201)
        for _ in range(12):
            l1, l2 = random_lats_pair(rng, max_states=4, max_conds=3)
            result = greatest_bisimulation(l1, l2)
            wins = exhaustive_p1_wins(l1, l2)
            for x in l1.states:
                for y in l2.states:
                    for c in l1.poset.elements:
                        p1_wins = (x, y, c) in wins
                        assert p1_wins == (not result.holds(x, y, c))
                        play = self_play(l1, l2, x, y, c, result=result)
                        assert p1_wins == (play.winner == 1)

    def test_routing(self, routing_pair):
        basic, modified = routing_pair
        wins = exhaustive_p1_wins(basic, modified)
        assert ("ready", "ready", "b") in wins
        assert ("ready", "ready", "a") not in wins


class TestInteractive:
    def test_defending_engine_never_concedes_on_bisimilar_pair(self, routing_pair):
        basic, modified = routing_pair
        script = [
            "moves",
            "hint",
            "upgrade a; left receive -> received",
            "left check -> safe",
            "upgrade a; left u -> ready",
            "quit",
        ]
        transcript = interactive_play(
            basic, modified, GameInstance("ready", "ready", "a"), 1, input_lines=script
        )
        assert "concede" not in transcript.lower()
        assert "quit: transcript closed" in transcript

    def test_illegal_input_is_rejected_with_reason(self, routing_pair):
        basic, modified = routing_pair
        script = [
            "upgrade zz; left receive -> received",
            "upgrade b; left e -> ready",
            "complete gibberish",
            "quit",
        ]
        transcript = interactive_play(
            basic, modified, GameInstance("ready", "ready", "b"), 1, input_lines=script
        )
        assert "illegal move: unknown condition 'zz'" in transcript
        assert "illegal move: no transition" in transcript
        assert "cannot parse move" in transcript
        assert transcript.rstrip().endswith("quit: transcript closed")

    def test_human_defender_loses_unanswerable_attack(self, routing_pair):
        basic, modified = routing_pair
        transcript = interactive_play(
            basic, modified, GameInstance("unsafe", "safe", "a"), 2, input_lines=[]
        )
        assert "Player 2 cannot simulate the step: Player 1 wins" in transcript

    def test_human_defender_plays_a_round(self, routing_pair):
        basic, _ = routing_pair
        script = ["moves", "hint", "right u -> ready", "quit"]
        transcript = interactive_play(
            basic, basic, GameInstance("safe", "safe", "b"), 2, input_lines=script
        )
        assert "P2: right u -> ready" in transcript
        assert "hint:" in transcript
        assert "quit: transcript closed" in transcript

    def test_attacker_engine_wins_from_separated_instance(self, routing_pair):
        basic, modified = routing_pair
        # human defends a lost position and answers with the only legal
        # replies until the engine plays the unanswerable encrypted send
        script = [
            "right receive -> received",
            "right check -> safe",
        ]
        transcript = interactive_play(
            basic, modified, GameInstance("ready", "ready", "b"), 2, input_lines=script
        )
        assert "Player 1 wins" in transcript
