import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ctsbisim.engine import greatest_bisimulation
from ctsbisim.errors import (
    IllegalMove,
    InvariantViolation,
    NotWinnable,
    UnknownState,
)
from ctsbisim.game import (
    CONCEDE,
    GameInstance,
    INF,
    Move,
    SeparationTable,
    interactive_play,
    player1_move,
    player2_reply,
    self_play,
)
from ctsbisim.modelio import load_model
from ctsbisim.models import Lats, fts_to_lats
from ctsbisim.poset import ConditionPoset

from conftest import GAME_SESSIONS, MODELS, make_routing, random_lats, random_lats_pair, random_poset
from oracles import exhaustive_p1_wins, separation_rounds

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def routing_game(routing_pair):
    basic, modified = routing_pair
    result = greatest_bisimulation(basic, modified)
    return basic, modified, result, SeparationTable(result)


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
        table = SeparationTable(res)
        for x in basic.states:
            for c in basic.poset.elements:
                assert table.m(x, x, c) == INF

    def test_unknown_names_rejected(self, routing_game):
        # the error of ``BisimResult.holds`` for the same name
        _, _, _, table = routing_game
        with pytest.raises(UnknownState, match="^unknown left state 'nope'$"):
            table.m("nope", "ready", "a")

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    def test_rounds_equal_the_stored_matrix_scan(self, routing_pair, backend):
        rng = random.Random(202)
        pairs = [routing_pair]
        pairs += [random_lats_pair(rng, max_states=5, max_conds=4) for _ in range(40)]
        for l1, l2 in pairs:
            rounds = SeparationTable(greatest_bisimulation(l1, l2, backend=backend)).m
            expected = separation_rounds(l1, l2)
            assert {key: rounds(*key) for key in expected} == expected

    @pytest.mark.parametrize(
        "options", [{"backend": "bdd"}, {"keep_trace": False}], ids=["bdd", "no-history"]
    )
    def test_every_result_plays(self, routing_pair, options):
        # the history a play reads is replayed from the result's problem
        basic, modified = routing_pair
        want = greatest_bisimulation(basic, modified)
        result = greatest_bisimulation(basic, modified, **options)
        for cond in ("a", "b"):
            play = self_play(basic, modified, "ready", "ready", cond, result=result)
            assert play == self_play(basic, modified, "ready", "ready", cond, result=want)


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
        replies = table.moves("right", "safe", "a")
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
        table = SeparationTable(res)
        move = player1_move(GameInstance("x", "y", "c0"), table)
        # both upgrades win immediately; the smaller name is chosen
        assert move.upgrade == "c1"

    def test_descent_along_optimal_line(self, routing_game):
        basic, modified, result, table = routing_game
        inst = GameInstance("ready", "ready", "b")
        seen = [table.m_of(inst)]
        while True:
            move = player1_move(inst, table)
            reply = player2_reply(inst, move, table)
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
        table.m = lambda x, y, cond: 1
        with pytest.raises(InvariantViolation):
            player1_move(GameInstance("ready", "ready", "b"), table)

    def test_descent_check_survives_python_O(self, models_dir):
        script = """
import sys
from ctsbisim.engine import greatest_bisimulation
from ctsbisim.errors import InvariantViolation
from ctsbisim.game import GameInstance, SeparationTable, player1_move
from ctsbisim.modelio import load_model

assert False, "assert statements must be stripped under -O"
table = SeparationTable(greatest_bisimulation(load_model(sys.argv[1]), load_model(sys.argv[2])))
table.m = lambda x, y, cond: 1
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
        inst = GameInstance("ready", "ready", "a")
        move = Move(upgrade="a", side="left", action="receive", target="received")
        reply = player2_reply(inst, move, table)
        assert reply is not CONCEDE
        assert reply.side == "right" and reply.action == "receive"
        assert result.holds(move.target, reply.target, "a")

    def test_illegal_upgrade_rejected(self, routing_game):
        _, _, _, table = routing_game
        inst = GameInstance("ready", "ready", "a")
        move = Move(upgrade="b", side="left", action="receive", target="received")
        with pytest.raises(IllegalMove):
            player2_reply(inst, move, table)

    def test_unknown_transition_rejected(self, routing_game):
        _, _, _, table = routing_game
        inst = GameInstance("ready", "ready", "b")
        move = Move(upgrade="b", side="left", action="e", target="ready")
        with pytest.raises(IllegalMove):
            player2_reply(inst, move, table)

    def test_concede_when_no_reply_exists(self, routing_game):
        _, _, _, table = routing_game
        inst = GameInstance("unsafe", "safe", "a")
        move = Move(upgrade="a", side="left", action="e", target="ready")
        assert player2_reply(inst, move, table) is CONCEDE


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

    def test_verdict_matches_fixpoint_on_raw_fts(self, models_dir):
        # the game moves on the problem's successor lists, so a raw FTS pair
        # is played without converting it first
        l1, l2 = (
            load_model(models_dir / name)
            for name in ("routing_fts_basic.json", "routing_fts_modified.json")
        )
        result = greatest_bisimulation(l1, l2)
        for x in l1.states:
            for y in l2.states:
                for c in result.problem.poset.elements:
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


class TestPrecedence:
    def test_self_play_and_referee_agree_with_the_fixpoint(self, routing_pair):
        # under action precedence a move is unavailable where a higher action
        # is enabled at its source; the referee plays on ``instantiate_prec``
        # systems.  Besides the routing pair, random systems with a third
        # action e above a and b, as in the precedence benchmark.
        rng = random.Random(5)
        alphabet, precedence = ("a", "b", "e"), (("e", "a"), ("e", "b"))
        pairs = [routing_pair]
        for _ in range(40):
            poset = random_poset(rng, 4)
            pairs.append(tuple(
                random_lats(rng, poset, tuple("%s%d" % (s, i) for i in range(rng.randint(2, 4))),
                            alphabet, precedence, density=0.4)
                for s in "xy"
            ))
        changed = 0
        for l1, l2 in pairs:
            result = greatest_bisimulation(l1, l2, precedence=True)
            changed += result.report() != greatest_bisimulation(l1, l2).report()
            wins = exhaustive_p1_wins(l1, l2, precedence=True)
            for x in l1.states:
                for y in l2.states:
                    for c in l1.poset.elements:
                        p1_wins = (x, y, c) in wins
                        assert p1_wins == (not result.holds(x, y, c))
                        play = self_play(l1, l2, x, y, c, result=result)
                        assert p1_wins == (play.winner == 1)
        assert changed >= 10


class TestBddResults:
    """Criterion 6's checks on results of the BDD backend: each self-play
    equals the one on the explicit result, transcript and all, and the
    unedited referee agrees with its winner."""

    @staticmethod
    def check_plays(l1, l2, explicit, symbolic, wins) -> int:
        conditions = explicit.problem.poset.elements
        for x, y, cond in itertools.product(l1.states, l2.states, conditions):
            play = self_play(l1, l2, x, y, cond, result=symbolic)
            assert play == self_play(l1, l2, x, y, cond, result=explicit)
            assert (play.winner == 1) == ((x, y, cond) in wins)
        return len(l1.states) * len(l2.states) * len(conditions)

    @pytest.mark.parametrize("precedence", [False, True], ids=["plain", "precedence"])
    def test_plays_equal_the_explicit_ones_and_the_referee(self, precedence):
        rng = random.Random(20_06)
        fts_pair = tuple(
            fts_to_lats(load_model(MODELS / name))
            for name in ("routing_fts_basic.json", "routing_fts_modified.json")
        )
        basic, modified = make_routing(), make_routing(check_unsafe_guard=("a",))
        pairs = [(basic, modified), (basic, basic), (modified, modified), fts_pair]
        pairs += [
            random_lats_pair(rng, max_states=4, max_conds=3, with_precedence=precedence)
            for _ in range(50)
        ]
        plays = 0
        for l1, l2 in pairs:
            explicit = greatest_bisimulation(l1, l2, precedence=precedence)
            symbolic = greatest_bisimulation(l1, l2, precedence=precedence, backend="bdd")
            plays += self.check_plays(l1, l2, explicit, symbolic, exhaustive_p1_wins(l1, l2, precedence))
        assert plays > 500

    @pytest.mark.parametrize("precedence", [False, True], ids=["plain", "precedence"])
    def test_raw_fts_solved_on_bdd(self, precedence):
        # conditions are the admissible configurations, named as the explicit build names them
        f1, f2 = (
            load_model(MODELS / name) for name in ("routing_fts_basic.json", "routing_fts_modified.json")
        )
        explicit = greatest_bisimulation(f1, f2, precedence=precedence)
        symbolic = greatest_bisimulation(f1, f2, precedence=precedence, backend="bdd")
        assert symbolic.report() == explicit.report()
        wins = exhaustive_p1_wins(fts_to_lats(f1), fts_to_lats(f2), precedence)
        assert self.check_plays(f1, f2, explicit, symbolic, wins) > 0


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

    def test_deadlocked_attacking_engine_loses(self):
        poset = ConditionPoset(["a"], [])
        l1 = Lats(["x"], ["m"], poset, {})
        l2 = Lats(["y"], ["m"], poset, {})
        transcript = interactive_play(l1, l2, GameInstance("x", "y", "a"), 2, input_lines=[])
        assert transcript.endswith("Player 1 cannot make another step: Player 2 wins\n")

    # tests/data holds these transcripts as the game wrote them before its
    # move generators and input loop were merged
    @pytest.mark.parametrize("name", sorted(GAME_SESSIONS))
    def test_session_is_the_recorded_transcript(self, models_dir, name):
        start, human_side, lines = GAME_SESSIONS[name]
        basic, modified = (
            load_model(models_dir / stem) for stem in ("routing_basic.json", "routing_modified.json")
        )
        transcript = interactive_play(
            basic, modified, GameInstance(*start), human_side, input_lines=lines
        )
        assert transcript.encode() == (DATA / ("game_%s.txt" % name)).read_bytes()
