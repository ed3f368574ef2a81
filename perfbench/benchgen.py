"""Seeded inputs for the four benchmark workloads, as model JSON text.

Every generator takes its randomness from a ``random.Random`` passed in by
the caller, so one seed always yields the same byte-identical texts.  The
texts use the repository's JSON model format and nothing else of the
library: the program under test receives only these strings.

* ``features``   -- the paper's scaling family (FTS), n = 6, 7, 8.
* ``states``     -- sparse random lattice systems (LaTS), 32 states a side,
  one fresh pair per check; run by hand, not part of ``BENCHMARK.json``.
* ``depth``      -- two cyclic ``a``-chains (CTS) of 16, 18, ..., 24 states
  whose tails differ in one ``b`` guard, so separation walks back one state
  per round.
* ``precedence`` -- the ``states`` generator at 16 states with a third
  action ``e`` (one move per state) ranked above ``a`` and ``b``, checked
  with precedence on.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# Sizes each workload draws from, as one block.  A run cycles through seeded
# shuffles of the block, so every run holds the sizes in exactly these
# proportions and the median and the 90th percentile fall at the same place
# inside one size class in every run, never on a boundary between two (where
# they would jump from seed to seed).
SIZES = {
    "features": (6, 7, 8),
    "states": (32,),
    "depth": (16, 18, 20, 22, 24),
    "precedence": (16,),
}
WORKLOADS = tuple(SIZES)
STATES_CONDITIONS = 6
DEPTH_CONDITIONS = ("c0", "c1", "c2", "c3")


@dataclass(frozen=True)
class Case:
    """One input of a check: the two model texts and a ``holds`` query."""

    left: str
    right: str
    precedence: bool
    query: tuple[str, str, str]
    size: int


def _text(model: dict) -> str:
    return json.dumps(model, sort_keys=True, separators=(",", ":"))


# --- features: the paper's family ---------------------------------------------------


def features_texts(n: int) -> tuple[str, str]:
    """Per feature one disconnected three-state component; the two systems
    differ only in the guard of the 0 -> 2 move (``true`` against the
    feature itself).  Every feature is an upgrade feature."""
    names = ["f%d" % i for i in range(1, n + 1)]
    states = ["s%d_%d" % (i, k) for i in range(1, n + 1) for k in range(3)]
    sides = []
    for last_guard in (None, "atom"):
        transitions = []
        for i, f in enumerate(names, start=1):
            s0, s1, s2 = "s%d_0" % i, "s%d_1" % i, "s%d_2" % i
            transitions += [
                {"from": s0, "action": "b", "to": s1, "guard": f},
                {"from": s0, "action": "b", "to": s0, "guard": f},
                {"from": s2, "action": "c", "to": s0, "guard": f},
                {"from": s0, "action": "b", "to": s2, "guard": f if last_guard else "true"},
            ]
        sides.append(
            _text(
                {
                    "kind": "fts",
                    "states": states,
                    "alphabet": ["b", "c"],
                    "features": names,
                    "upgrade": names,
                    "diagram": "true",
                    "transitions": transitions,
                }
            )
        )
    return sides[0], sides[1]


def _features_case(rng: random.Random, n: int) -> Case:
    left, right = features_texts(n)
    states = ["s%d_%d" % (i, k) for i in range(1, n + 1) for k in range(3)]
    config = sorted(f for f in ("f%d" % i for i in range(1, n + 1)) if rng.random() < 0.5)
    query = (rng.choice(states), rng.choice(states), "{%s}" % ",".join(config))
    return Case(left, right, False, query, n)


# --- states / precedence: sparse random lattice systems ------------------------------


def random_order(rng: random.Random, k: int) -> list[int]:
    """Down-set masks of a random non-discrete partial order on k elements
    (element i sits below j only if i < j; redrawn while discrete)."""
    while True:
        down = [1 << i for i in range(k)]
        for j in range(k):
            for i in range(j):
                if rng.random() < 0.25:
                    down[j] |= down[i]
        if any(d != 1 << j for j, d in enumerate(down)):
            return down


def _poset_dict(names: list[str], down: list[int]) -> dict:
    k = len(names)
    leq = [[names[i], names[j]] for j in range(k) for i in range(k) if i != j and down[j] >> i & 1]
    return {"elements": names, "leq": leq}


def _guard(rng: random.Random, names: list[str], down: list[int]) -> list[str]:
    """A random non-empty downward-closed set: the down-closure of one to
    three random elements."""
    bits = 0
    for _ in range(rng.randint(1, 3)):
        bits |= down[rng.randrange(len(names))]
    return [names[i] for i in range(len(names)) if bits >> i & 1]


def _lats_moves(rng, n, actions, names, down, fanout):
    moves = {}
    for x in range(n):
        for a in actions:
            lo, hi = fanout[a]
            for y in rng.sample(range(n), rng.randint(lo, hi)):
                moves[(x, a, y)] = _guard(rng, names, down)
    return moves


def _lats_text(n, actions, names, down, moves, precedence) -> str:
    return _text(
        {
            "kind": "lats",
            "states": ["s%d" % i for i in range(n)],
            "alphabet": list(actions),
            "precedence": precedence,
            "poset": _poset_dict(names, down),
            "transitions": [
                {"from": "s%d" % x, "action": a, "to": "s%d" % y, "guard": guard}
                for (x, a, y), guard in sorted(moves.items())
            ],
        }
    )


def random_lats_texts(rng: random.Random, n: int, actions: dict, precedence: list):
    """Two random lattice systems with the same moves and independently
    drawn guards over one fresh non-discrete poset.  ``actions`` maps each
    action to its (min, max) successors per state.  At 32 states refinement
    takes four rounds in about two thirds of the pairs and five in most
    others, so the median falls among four-round and the 90th percentile
    among five-round checks."""
    names = ["c%d" % i for i in range(STATES_CONDITIONS)]
    down = random_order(rng, STATES_CONDITIONS)
    left = _lats_moves(rng, n, list(actions), names, down, actions)
    right = {key: _guard(rng, names, down) for key in left}
    return (
        _lats_text(n, actions, names, down, left, precedence),
        _lats_text(n, actions, names, down, right, precedence),
        names,
    )


def _lats_case(rng: random.Random, n: int, actions: dict, precedence: list) -> Case:
    left, right, names = random_lats_texts(rng, n, actions, precedence)
    query = ("s%d" % rng.randrange(n), "s%d" % rng.randrange(n), rng.choice(names))
    return Case(left, right, bool(precedence), query, n)


def _states_case(rng: random.Random, n: int) -> Case:
    return _lats_case(rng, n, {"a": (2, 3), "b": (2, 3)}, [])


def _precedence_case(rng: random.Random, n: int) -> Case:
    return _lats_case(
        rng, n, {"a": (2, 3), "b": (2, 3), "e": (1, 1)}, [["e", "a"], ["e", "b"]]
    )


# --- depth: two cyclic chains --------------------------------------------------------


def depth_texts(n: int) -> tuple[str, str]:
    """Cyclic ``a``-chains s0 -> ... -> s(n-1) -> s0 enabled under every
    condition of a four-element antichain.  The tail's ``b`` self-loop is
    enabled under every condition on the left and under ``c0`` only on the
    right."""
    sides = []
    for tail_guard in (list(DEPTH_CONDITIONS), [DEPTH_CONDITIONS[0]]):
        transitions = [
            {"from": "s%d" % i, "action": "a", "to": "s%d" % ((i + 1) % n), "guard": list(DEPTH_CONDITIONS)}
            for i in range(n)
        ]
        tail = "s%d" % (n - 1)
        transitions.append({"from": tail, "action": "b", "to": tail, "guard": tail_guard})
        sides.append(
            _text(
                {
                    "kind": "cts",
                    "states": ["s%d" % i for i in range(n)],
                    "alphabet": ["a", "b"],
                    "poset": {"elements": list(DEPTH_CONDITIONS), "leq": []},
                    "transitions": transitions,
                }
            )
        )
    return sides[0], sides[1]


def _depth_case(rng: random.Random, n: int) -> Case:
    left, right = depth_texts(n)
    query = ("s%d" % rng.randrange(n), "s%d" % rng.randrange(n), rng.choice(DEPTH_CONDITIONS))
    return Case(left, right, False, query, n)


_MAKERS = {
    "features": _features_case,
    "states": _states_case,
    "depth": _depth_case,
    "precedence": _precedence_case,
}


def cases(workload: str, seed: int):
    """The endless, deterministic sequence of check inputs of a workload."""
    make = _MAKERS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    while True:
        block = list(SIZES[workload])
        rng.shuffle(block)
        for n in block:
            yield make(rng, n)


def warmup_case(workload: str) -> Case:
    """The discarded first check of a run, at the workload's middle size.
    It is the same in every run, so set-up times compare across seeds."""
    sizes = SIZES[workload]
    return _MAKERS[workload](random.Random("%s:warmup" % workload), sizes[len(sizes) // 2])
