"""Benchmark instance generators: blocks-world planning and job-shop
scheduling, plus the packaged event-calculus example program.

Generators emit complete program text (parseable by `parse_theory`) and a
goal string, along with enough structured data for the validators in
`aclp.validators` to check answers independently of the engine.
`first_ground` and `reschedule_case` run the first-answer pipeline that
`aclp bench`, the acceptance tests and the golden record share.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from importlib import resources

from .engine import Solver, StepBudgetError  # the error is re-exported
from .parser import parse_goal, parse_theory
from .theory import compile_naf


def event_calculus_program() -> str:
    """Source text of the packaged event-calculus planning program."""
    return (resources.files("aclp") / "programs" / "eventcalculus.aclp").read_text()


# ---------------------------------------------------------------------------
# Blocks world
# ---------------------------------------------------------------------------

@dataclass
class BlocksInstance:
    n_blocks: int
    positions: list                  # table position names
    initial: dict                    # block -> support (block or position)
    goal: dict                       # block -> support
    max_time: int
    scramble: list = field(default_factory=list)  # the move sequence used
    program: str = ""
    goal_text: str = ""

    @property
    def blocks(self):
        return [f"b{i}" for i in range(1, self.n_blocks + 1)]

    @property
    def places(self):
        return self.blocks + self.positions


def _clear_set(state: dict, places) -> set:
    occupied = set(state.values())
    return {p for p in places if p not in occupied}


def _valid_moves(state: dict, blocks, places):
    clear = _clear_set(state, places)
    for x in blocks:
        if x not in clear:
            continue
        for to in places:
            if to in clear and to != x and state[x] != to:
                yield (x, state[x], to)


def _random_towers(rng: random.Random, blocks, positions) -> dict:
    state = {}
    tops = list(positions)           # current top of each tower
    for x in blocks:
        i = rng.randrange(len(tops))
        state[x] = tops[i]
        tops[i] = x
    return state


def _bottom_up(goal: dict, positions) -> list:
    """Goal pairs ordered so each block's support is already placed."""
    done = set(positions)
    pairs = []
    pending = dict(goal)
    while pending:
        progressed = False
        for x in list(pending):
            if pending[x] in done:
                pairs.append((x, pending[x]))
                done.add(x)
                del pending[x]
                progressed = True
        if not progressed:            # cannot happen for a well-formed state
            pairs.extend(sorted(pending.items()))
            break
    return pairs


_BLOCKS_CORE = """\
holds_at(P, E) :- initially(P), not(clipped(0, E, P)).
holds_at(P, E) :- initiates(P, A), time(T), T #< E, act(T, A), not(clipped(T, E, P)).

time(T) :- maximum_time(Max), T :: 1..Max.
between(A, B, C) :- A #< B, B #< C.
same(A, A).

abducible_predicate(act/2).
abducible_predicate(not_clipped/3).
abducible_predicate(not_preconditions/2).
abducible_predicate(not_same/2).

ic :- not_clipped(T, E, P), terminates(P, A1), act(C, A2), A1 ##= A2, between(T, C, E).
ic :- act(T, A), not_preconditions(A, T).
ic :- not_preconditions(A, T), preconditions(A, T).
ic :- act(T1, A1), act(T2, A2), T1 #= T2, not_same(A1, A2).
ic :- not_same(A1, A2), same(A1, A2).

preconditions(move(X, From, To), T) :-
    holds_at(on(X, From), T),
    block(X),
    holds_at(clear(X), T),
    place(To), different(X, To),
    holds_at(clear(To), T).
"""


def generate_blocks(n_blocks: int, seed: int) -> BlocksInstance:
    """A random blocks-world instance with ceil(n/3) table positions.

    The goal configuration is reached from the initial one by a random
    sequence of legal moves, two for up to 4 blocks and three above, so a
    plan of that length exists and max_time is set to exactly that length.
    """
    rng = random.Random(seed)
    moves = 2 if n_blocks <= 4 else 3
    # one table position per three blocks, but never fewer than two:
    # a lone position admits no legal move at all
    n_pos = max(2, math.ceil(n_blocks / 3))
    positions = [f"p{i}" for i in range(1, n_pos + 1)]
    blocks = [f"b{i}" for i in range(1, n_blocks + 1)]
    places = blocks + positions

    initial = _random_towers(rng, blocks, positions)
    for _ in range(50):              # rescramble until the goal differs
        state = dict(initial)
        scramble = []
        for _ in range(moves):
            options = [m for m in _valid_moves(state, blocks, places)
                       # avoid undoing the previous move
                       if not (scramble and m[0] == scramble[-1][0]
                               and m[2] == scramble[-1][1])]
            if not options:
                break
            x, frm, to = rng.choice(options)
            scramble.append((x, frm, to))
            state[x] = to
        if state != initial:
            break
    goal = state
    max_time = max(len(scramble), 1)

    lines = [_BLOCKS_CORE]
    # effect axioms; typing the action arguments with finite atom domains
    # lets the engine reason by exclusion about hypothetical actions
    bdom = "[" + ",".join(blocks) + "]"
    pdom = "[" + ",".join(places) + "]"
    typing = f"X :: {bdom}, From :: {pdom}, To :: {pdom}"
    lines.append(f"initiates(on(X, To), move(X, From, To)) :- {typing}.")
    lines.append(f"initiates(clear(From), move(X, From, To)) :- {typing}.")
    lines.append(f"terminates(on(X, From), move(X, From, To)) :- {typing}.")
    lines.append(f"terminates(clear(To), move(X, From, To)) :- {typing}.")
    lines.append(f"maximum_time({max_time}).")
    for b in blocks:
        lines.append(f"block({b}).")
    for p in places:
        lines.append(f"place({p}).")
    for x in blocks:
        for y in places:
            if x != y:
                lines.append(f"different({x}, {y}).")
    for x, s in sorted(initial.items()):
        lines.append(f"initially(on({x}, {s})).")
    for c in sorted(_clear_set(initial, places)):
        lines.append(f"initially(clear({c})).")
    program = "\n".join(lines) + "\n"

    horizon = max_time + 1
    goal_text = ", ".join(f"holds_at(on({x}, {s}), {horizon})"
                          for x, s in _bottom_up(goal, positions))
    return BlocksInstance(n_blocks, positions, initial, goal, max_time,
                          scramble, program, goal_text)


# ---------------------------------------------------------------------------
# Job shop
# ---------------------------------------------------------------------------

@dataclass
class Task:
    index: int
    resource: str
    duration: int


@dataclass
class JobshopInstance:
    tasks: list                      # [Task]
    horizon: int
    windows: dict = field(default_factory=dict)  # resource -> (lo, hi)
    program: str = ""
    goal_text: str = "plan"

    def task(self, index: int) -> Task:
        return self.tasks[index - 1]


def _jobshop_program(tasks, horizon, windows) -> str:
    lines = ["abducible_predicate(start/2).", ""]
    body = []
    for t in tasks:
        latest = horizon - t.duration
        lines.append(f"task_{t.index} :- S :: 0..{latest}, start(t{t.index}, S).")
        body.append(f"task_{t.index}")
    lines.append("")
    lines.append("plan :- " + ", ".join(body) + ".")
    lines.append("")
    by_resource = {}
    for t in tasks:
        by_resource.setdefault(t.resource, []).append(t)
    for r in sorted(by_resource):
        group = by_resource[r]
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                lines.append(
                    f"ic :- start(t{a.index}, S1), start(t{b.index}, S2), "
                    f"S1 #< S2 + {b.duration}, S2 #< S1 + {a.duration}.")
    for r, (lo, hi) in sorted(windows.items()):
        for t in by_resource.get(r, []):
            lines.append(
                f"ic :- start(t{t.index}, S), S #> {max(lo - t.duration, -1)}, S #< {hi}.")
    return "\n".join(lines) + "\n"


def generate_jobshop(n_tasks: int, seed: int) -> JobshopInstance:
    """Random independent tasks competing for shared resources, about
    four tasks per resource and never fewer than two resources."""
    rng = random.Random(seed)
    n_resources = max(2, round(n_tasks / 4))
    tasks = [Task(i, f"r{rng.randrange(n_resources) + 1}", rng.randint(1, 4))
             for i in range(1, n_tasks + 1)]
    load = {}
    for t in tasks:
        load[t.resource] = load.get(t.resource, 0) + t.duration
    horizon = max(load.values()) + max(t.duration for t in tasks) + 2
    inst = JobshopInstance(tasks, horizon)
    inst.program = _jobshop_program(tasks, horizon, {})
    return inst


def add_unavailability(inst: JobshopInstance, seed: int) -> JobshopInstance:
    """A copy of the instance with one resource unavailable for a window."""
    rng = random.Random(seed)
    resources_ = sorted({t.resource for t in inst.tasks})
    r = resources_[rng.randrange(len(resources_))]
    width = rng.randint(2, 4)
    lo = rng.randint(0, max(inst.horizon - width - 1, 0))
    windows = dict(inst.windows)
    windows[r] = (lo, lo + width)
    out = JobshopInstance(list(inst.tasks), inst.horizon, windows)
    out.program = _jobshop_program(out.tasks, out.horizon, windows)
    return out


# ---------------------------------------------------------------------------
# First answers
# ---------------------------------------------------------------------------

def first_ground(inst, config=None, rng=None):
    """Ground Δ of the first labelling of an instance's first answer, or
    None when it has no answer.  `rng` shuffles the labelling's value
    order.  The search runs in the calling thread; one that
    `Config.max_steps` cut before any answer raises StepBudgetError."""
    theory = compile_naf(parse_theory(inst.program), mode="validate")
    ans = next(Solver(theory, config).solve(parse_goal(inst.goal_text)), None)
    return ans and ans.ground_delta(next(ans.labellings(rng=rng)))


def reschedule_case(n_tasks: int, seed: int, config=None):
    """The rescheduling scenario: (instance, the instance with one resource
    window added, the old schedule).  The old schedule is the instance's
    first answer labelled in an order shuffled by `random.Random(seed)`,
    or None when it has no answer."""
    inst = generate_jobshop(n_tasks, seed)
    old = first_ground(inst, config, random.Random(seed))
    return inst, add_unavailability(inst, seed), old
