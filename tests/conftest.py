import copy
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ctsbisim.models import Lats
from ctsbisim.poset import ConditionPoset

MODELS = Path(__file__).resolve().parent.parent / "models"

ROUTING_STATES = ("ready", "received", "safe", "unsafe")
ROUTING_ALPHABET = ("receive", "check", "u", "e")


@pytest.fixture
def models_dir() -> Path:
    return MODELS


@pytest.fixture
def fig1_poset() -> ConditionPoset:
    # irreducible poset of the motivating lattice: a < f, b < f, b < e
    return ConditionPoset(["a", "b", "e", "f"], [("a", "f"), ("b", "f"), ("b", "e")])


def make_routing(check_unsafe_guard=("a", "b"), precedence=(("e", "u"),)) -> Lats:
    poset = ConditionPoset(["a", "b"], [("a", "b")])
    alpha = {
        ("ready", "receive", "received"): ("a", "b"),
        ("received", "check", "safe"): ("a", "b"),
        ("received", "check", "unsafe"): tuple(check_unsafe_guard),
        ("safe", "u", "ready"): ("a", "b"),
        ("unsafe", "u", "ready"): ("a", "b"),
        ("unsafe", "e", "ready"): ("a",),
    }
    return Lats(ROUTING_STATES, ROUTING_ALPHABET, poset, alpha, precedence=precedence)


@pytest.fixture
def routing_pair():
    return make_routing(), make_routing(check_unsafe_guard=("a",))


def two_feature_fts_dicts():
    """Model files of an FTS pair over two upgrade features whose condition
    names hold a comma.  The diagram leaves out {f2}; the b move back needs
    both features on the left and f1 alone on the right, so (s, s) is
    bisimilar under {f1,f2} only."""
    left = {
        "kind": "fts",
        "states": ["s", "t"],
        "alphabet": ["a", "b"],
        "features": ["f1", "f2"],
        "upgrade": ["f1", "f2"],
        "diagram": "f1 | !f2",
        "transitions": [
            {"from": "s", "action": "a", "to": "t", "guard": "true"},
            {"from": "t", "action": "b", "to": "s", "guard": "f1 & f2"},
        ],
    }
    right = copy.deepcopy(left)
    right["transitions"][1]["guard"] = "f1"
    return left, right


# Scripted sessions of ``interactive_play`` on routing_basic vs
# routing_modified, by name: (start instance, human side, input lines).
# ``tests/data/game_<name>.txt`` holds each session's transcript.
GAME_SESSIONS = {
    # every command and every kind of rejected attack, then quit
    "attacker": (
        ("ready", "ready", "b"),
        1,
        [
            "moves",
            "hint",
            "",
            "junk",
            "upgrade zz; left receive -> received",
            "left e -> ready",
            "upgrade a; left receive -> received",
            "upgrade b; left check -> safe",
            "moves",
            "hint",
            "left check -> unsafe",
            "quit",
        ],
    ),
    # the winning line; the defending engine concedes
    "attacker_wins": (
        ("ready", "ready", "b"),
        1,
        ["upgrade b; left receive -> received", "left check -> unsafe", "hint", "upgrade a; left e -> ready"],
    ),
    # every kind of rejected reply; the input runs out
    "defender": (
        ("ready", "ready", "b"),
        2,
        [
            "moves",
            "hint",
            "",
            "junk",
            "upgrade a; right receive -> received",
            "left receive -> received",
            "right check -> safe",
            "right receive -> ready",
            "right receive -> received",
            "moves",
            "hint",
        ],
    ),
    # the only legal replies, until the attacking engine's unanswerable move
    "defender_loses": (
        ("ready", "ready", "b"),
        2,
        ["right receive -> received", "right check -> safe"],
    ),
}


# --- seeded random model generators ------------------------------------------------


def random_poset(rng: random.Random, max_n=5, min_n=1) -> ConditionPoset:
    n = rng.randint(min_n, max_n)
    names = ["c%d" % i for i in range(n)]
    pairs = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    return ConditionPoset(names, pairs)


def random_downset_bits(rng: random.Random, poset: ConditionPoset) -> int:
    bits = 0
    for i in range(len(poset)):
        if rng.random() < 0.5:
            bits |= 1 << i
    return poset.close_down_bits(bits)


def random_lats(rng, poset, states, alphabet, precedence=(), density=0.3) -> Lats:
    alpha = {}
    for x in states:
        for a in alphabet:
            for y in states:
                if rng.random() < density:
                    bits = random_downset_bits(rng, poset)
                    if bits:
                        alpha[(x, a, y)] = bits
    return Lats(states, alphabet, poset, alpha, precedence=precedence)


def random_precedence(rng, alphabet):
    pairs = []
    for i in range(len(alphabet)):
        for j in range(i + 1, len(alphabet)):
            if rng.random() < 0.4:
                pairs.append((alphabet[i], alphabet[j]))
    return tuple(pairs)


def random_lats_pair(
    rng: random.Random,
    max_states=6,
    max_actions=3,
    max_conds=5,
    with_precedence=False,
    density=0.3,
):
    poset = random_poset(rng, max_conds)
    alphabet = tuple("act%d" % i for i in range(rng.randint(1, max_actions)))
    precedence = random_precedence(rng, alphabet) if with_precedence else ()
    states1 = tuple("x%d" % i for i in range(rng.randint(1, max_states)))
    states2 = tuple("y%d" % i for i in range(rng.randint(1, max_states)))
    l1 = random_lats(rng, poset, states1, alphabet, precedence, density)
    l2 = random_lats(rng, poset, states2, alphabet, precedence, density)
    return l1, l2


def precedence_shaped_pair(rng: random.Random, n=16, conditions=6):
    """Two LaTS in the shape of the benchmark's ``precedence`` workload: per
    state two or three a- and b-successors and one e-successor, e ranked
    above a and b, over one non-discrete poset; the right side has the
    left's moves with every guard drawn again, each the down-closure of one
    to three conditions."""
    poset = random_poset(rng, conditions, min_n=conditions)
    while poset.is_discrete:
        poset = random_poset(rng, conditions, min_n=conditions)
    states = tuple("s%d" % i for i in range(n))
    fanout = {"a": (2, 3), "b": (2, 3), "e": (1, 1)}
    moves = [
        (x, act, y)
        for x in states
        for act, (lo, hi) in fanout.items()
        for y in rng.sample(states, rng.randint(lo, hi))
    ]

    def guard():
        bits = 0
        for _ in range(rng.randint(1, 3)):
            bits |= poset.down[rng.randrange(conditions)]
        return bits

    return tuple(
        Lats(states, tuple(fanout), poset, {m: guard() for m in moves}, precedence=(("e", "a"), ("e", "b")))
        for _ in "lr"
    )
