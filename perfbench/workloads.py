"""The four benchmark workloads: their fixed instance lists, the timed path
from theory text to the first ground answer, and the checks.

Every instance is solved with no wall-clock budget, so the work done and
the answers do not depend on how fast the machine is.  The `--seed` of a
run only shuffles the order of the fixed instance list: the answers, and
so `answer_cost`, are the same on every seed.

The checks never consult the solver's search.  Schedules and plans go
through `aclp.validators` plus arithmetic recomputed here; theory answers
go through the ground bottom-up evaluator of `tests/oracles.py`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from aclp import engine, optimize, parser, theory
from aclp.corpus import (add_unavailability, generate_blocks,
                         generate_jobshop)
from aclp.store import IntDomain
from aclp.terms import Atom, Int, UserLit
from aclp.validators import (extract_moves, extract_starts,
                             validate_blocks_plan, validate_jobshop_schedule)

import oracles

# Random theories bound every variable to 1..5 (see
# oracles.random_theory_text), so these are all the arguments an
# abducible can be assumed with.
_THEORY_INTS = range(1, 6)


@dataclass
class Instance:
    name: str
    program: str
    goal_text: str
    naf_mode: str = "validate"
    data: object = None               # what the check needs: corpus instance, bounds
    reference: tuple = ()             # the old schedule (reschedule only)


@dataclass
class Result:
    ground: tuple = None              # ground hypotheses of the first answer
    changes: int = None               # reschedule only: the reported change count
    domains: dict = None              # theories only: the answer's domains by name

    def key(self):
        return (self.ground, self.changes,
                None if self.domains is None else sorted(self.domains.items()))


def _first_ground_answer(inst: Instance, with_domains: bool = False) -> Result:
    """Text to first ground answer: parse, compile_naf, solve, label."""
    th = theory.compile_naf(parser.parse_theory(inst.program), mode=inst.naf_mode)
    goal = parser.parse_goal(inst.goal_text)
    stream = engine.solve(th, goal)
    try:
        ans = next(stream, None)
        if ans is None:
            return Result()
        domains = None
        if with_domains:
            # taken before labelling narrows the store
            domains = {v.name: ans.store.domains[v.id] for v in ans.store_vars()}
        sol = next(ans.labellings(), None)
        if sol is None:
            return Result()
        return Result(ans.ground_delta(sol), domains=domains)
    finally:
        stream.close()


# ---------------------------------------------------------------------------
# jobshop
# ---------------------------------------------------------------------------

class Jobshop:
    """First answers of generated job shops at 25, 50 and 100 tasks.

    Propagation and IC renaming grow about quadratically with the task
    count, so this is the workload of the store and of `standardize_ic`.
    """
    name = "jobshop"
    POOL = [(25, 1), (25, 2), (25, 3), (50, 1), (50, 2), (50, 3), (100, 1)]

    def instances(self):
        out = []
        for n, seed in self.POOL:
            inst = generate_jobshop(n, seed)
            out.append(Instance(f"jobshop-{n}-s{seed}", inst.program,
                                inst.goal_text, data=inst))
        return out

    def warm_up(self, instances):
        inst = generate_jobshop(10, 1)
        self.answer(Instance("warm-up", inst.program, inst.goal_text))

    def answer(self, inst):
        return _first_ground_answer(inst)

    def check(self, inst, res):
        if res.ground is None:
            return False, "no answer"
        ok, reason = validate_jobshop_schedule(inst.data, res.ground)
        if not ok:
            return False, reason
        if makespan(inst.data, res.ground) < max(resource_loads(inst.data).values()):
            return False, "makespan below the largest resource load"
        return True, ""

    def cost(self, inst, res):
        return makespan(inst.data, res.ground)


def makespan(inst, ground) -> int:
    starts = extract_starts(ground)
    return max(starts[t.index] + t.duration for t in inst.tasks)


def resource_loads(inst) -> dict:
    loads = {}
    for t in inst.tasks:
        loads[t.resource] = loads.get(t.resource, 0) + t.duration
    return loads


# ---------------------------------------------------------------------------
# blocksworld
# ---------------------------------------------------------------------------

class Blocksworld:
    """Event-calculus plans for 4 to 6 blocks, generator seeds 1 to 20.

    Goal reduction, NAF, denials and unification, with few arithmetic
    constraints.  From 7 blocks on many seeds find no plan at all.
    """
    name = "blocksworld"
    POOL = [(n, seed) for n in (4, 5, 6) for seed in range(1, 21)]

    def instances(self):
        out = []
        for n, seed in self.POOL:
            inst = generate_blocks(n, seed)
            out.append(Instance(f"blocks-{n}-s{seed}", inst.program,
                                inst.goal_text, data=inst))
        return out

    def warm_up(self, instances):
        inst = generate_blocks(3, 1)
        self.answer(Instance("warm-up", inst.program, inst.goal_text))

    def answer(self, inst):
        return _first_ground_answer(inst)

    def check(self, inst, res):
        if res.ground is None:
            return False, "no plan"
        ok, reason = validate_blocks_plan(inst.data, res.ground)
        if not ok:
            return False, reason
        n = len(extract_moves(res.ground))
        if n > inst.data.max_time:
            return False, f"{n} moves, more than max_time {inst.data.max_time}"
        return True, ""

    def cost(self, inst, res):
        return len(extract_moves(res.ground))


# ---------------------------------------------------------------------------
# reschedule
# ---------------------------------------------------------------------------

class Reschedule:
    """Minimal-change re-solves of 25-task job shops, generator seeds 0 to 9,
    after one resource becomes unavailable for a window.

    The old schedules are read from old_schedules.json and validated
    against their job shops during set-up, so the inputs stay the same
    whatever a later engine answers first.  The timed part parses the
    changed theory and calls `optimize.reschedule` with no time budget.
    """
    name = "reschedule"
    POOL = [(25, seed) for seed in range(10)]

    def instances(self):
        with open(OLD_SCHEDULES) as f:
            starts = json.load(f)
        return [self._instance(n, seed, starts[f"{n}-{seed}"])
                for n, seed in self.POOL]

    def _instance(self, n, seed, starts):
        inst = generate_jobshop(n, seed)
        old = _start_literals(starts)
        ok, reason = validate_jobshop_schedule(inst, old)
        if not ok:
            raise RuntimeError(f"reschedule-{n}-s{seed}: old schedule invalid: {reason}")
        changed = add_unavailability(inst, seed)
        return Instance(f"reschedule-{n}-s{seed}", changed.program,
                        changed.goal_text, data=changed, reference=old)

    def warm_up(self, instances):
        # the first pool entry, whatever the order of this run
        self.answer(instances[0])

    def answer(self, inst):
        th = theory.compile_naf(parser.parse_theory(inst.program))
        goal = parser.parse_goal(inst.goal_text)
        ga = optimize.reschedule(th, goal, inst.reference, config=engine.Config())
        return Result(tuple(ga.delta), changes=ga.changes)

    def check(self, inst, res):
        ok, reason = validate_jobshop_schedule(inst.data, res.ground)
        if not ok:
            return False, reason
        n = count_changes(res.ground, inst.reference)
        if n != res.changes:
            return False, f"reported {res.changes} changes, recounted {n}"
        return True, ""

    def cost(self, inst, res):
        return res.changes


OLD_SCHEDULES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "old_schedules.json")


def _start_literals(starts):
    return tuple(UserLit("start", (Atom(f"t{i}"), Int(s)))
                 for i, s in enumerate(starts, 1))


def engine_old_schedule(n, seed) -> list:
    """The engine's first answer to job shop (n, seed), labelled with
    random.Random(seed), as start times by task index."""
    inst = generate_jobshop(n, seed)
    th = parser.parse_theory(inst.program)
    stream = engine.solve(th, parser.parse_goal(inst.goal_text))
    try:
        ans = next(stream)
        ground = ans.ground_delta(next(ans.labellings(rng=random.Random(seed))))
    finally:
        stream.close()
    starts = extract_starts(ground)
    return [starts[t.index] for t in inst.tasks]


def count_changes(new, old) -> int:
    """Literals in one ground hypothesis list and not matched in the other."""
    unmatched = list(old)
    added = 0
    for lit in new:
        if lit in unmatched:
            unmatched.remove(lit)
        else:
            added += 1
    return added + len(unmatched)


# ---------------------------------------------------------------------------
# theories
# ---------------------------------------------------------------------------

# Variables bounded on one side only: labelling enumerates the whole
# default domain (10^7 values) before taking its first value.
ONE_SIDED = [
    ("abducible_predicate(a/1).\ng :- a(X), X #> 3.\n", "g", (4, None)),
    ("abducible_predicate(a/1).\ng :- a(X), X #< -3.\n", "g", (None, -4)),
]


class Theories:
    """Thousands of small programs: the random theories and propositional
    NAF programs of tests/oracles.py, seeds 0 to 1999 each, plus programs
    whose variable is bounded on one side only.

    The first measures the fixed cost of each solve (solver set-up, its
    worker thread, parse and compile); the second the labelling probe on
    wide domains.  A program may have no answer; the check then proves
    with the ground evaluator that none exists.
    """
    name = "theories"
    SEEDS = range(2000)

    def instances(self):
        out = []
        for seed in self.SEEDS:
            text, goal = oracles.random_theory_text(random.Random(seed))
            out.append(Instance(f"theory-s{seed}", text, goal))
        for seed in self.SEEDS:
            text, goal = oracles.random_naf_program_text(random.Random(seed))
            if goal is not None:
                out.append(Instance(f"naf-s{seed}", text, goal,
                                    naf_mode="autogenerate"))
        for i, (text, goal, bounds) in enumerate(ONE_SIDED):
            out.append(Instance(f"one-sided-{i}", text, goal, data=bounds))
        return out

    def warm_up(self, instances):
        for make in (oracles.random_theory_text, oracles.random_naf_program_text):
            text, goal = make(random.Random(0))
            self.answer(Instance("warm-up", text, goal, naf_mode="autogenerate"))

    def answer(self, inst):
        return _first_ground_answer(inst, with_domains=inst.data is not None)

    def check(self, inst, res):
        th = theory.compile_naf(parser.parse_theory(inst.program), mode=inst.naf_mode)
        goal = parser.parse_goal(inst.goal_text)
        if res.ground is None:
            return _check_no_answer(th, goal)
        extra = list(_THEORY_INTS) + [a.value for lit in res.ground
                                     for a in lit.args if isinstance(a, Int)]
        if not oracles.goal_derivable(th, res.ground, goal, extra_ints=extra):
            return False, "goal not derivable from the answer"
        if oracles.violated_ics(th, res.ground, extra_ints=extra):
            return False, "an integrity constraint fires on the answer"
        facts, _ = oracles.ground_facts(th, res.ground, extra_ints=extra)
        for lit in res.ground:
            comp = th.naf_complements.get(lit.indicator)
            if comp is None:
                continue
            args = tuple(a.value if isinstance(a, Int) else a.name for a in lit.args)
            if (comp[0], args) in facts:
                return False, f"{lit!r} holds with its complement derivable"
        if inst.data is not None:
            return _check_one_sided(inst.data, res)
        return True, ""

    def cost(self, inst, res):
        return 0 if res.ground is None else len(res.ground)


def _check_one_sided(bounds, res):
    """The answer's domain is the declared bound closed off by the
    solver's default range on the open side."""
    cfg = engine.Config()
    lo, hi = bounds
    want = IntDomain.range(cfg.default_lo if lo is None else lo,
                           cfg.default_hi if hi is None else hi)
    doms = list(res.domains.values())
    if doms != [want]:
        return False, f"domains {doms}, expected [{want}]"
    return True, ""


def _ground_abducibles(th):
    out = []
    for name, arity in sorted(th.abducibles):
        if arity == 0:
            out.append(UserLit(name, ()))
        else:
            out.extend(UserLit(name, (Int(k),)) for k in _THEORY_INTS)
    return out


def _check_no_answer(th, goal):
    """No hypothesis set derives the goal without firing an IC.

    Derivability and IC violation both grow with the hypothesis set, so
    it suffices to try the IC-safe sets; they are enumerated by extending
    safe sets one abducible at a time.
    """
    def ics_hold(delta):
        return not oracles.violated_ics(th, delta, extra_ints=_THEORY_INTS)

    candidates = [a for a in _ground_abducibles(th) if ics_hold((a,))]
    if not oracles.goal_derivable(th, tuple(candidates), goal,
                                  extra_ints=_THEORY_INTS):
        return True, ""

    def search(delta, start):
        if oracles.goal_derivable(th, delta, goal, extra_ints=_THEORY_INTS):
            return delta
        for i in range(start, len(candidates)):
            grown = delta + (candidates[i],)
            if ics_hold(grown):
                found = search(grown, i + 1)
                if found is not None:
                    return found
        return None

    found = search((), 0)
    if found is not None:
        return False, f"no answer, but {found!r} is one"
    return True, ""


WORKLOADS = {w.name: w for w in (Jobshop(), Blocksworld(), Reschedule(), Theories())}


if __name__ == "__main__":
    # Regenerate old_schedules.json: python3 perfbench/workloads.py
    # (with src/ and tests/ of the checkout on PYTHONPATH)
    table = {f"{n}-{seed}": engine_old_schedule(n, seed)
             for n, seed in Reschedule.POOL}
    with open(OLD_SCHEDULES, "w") as f:
        f.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                   for k, v in table.items()) + "\n}\n")
