"""Post-answer optimization: branch-and-bound labelling and minimal-change
selection against a reference hypothesis set."""

from __future__ import annotations

from collections import Counter
from contextlib import closing
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Optional

from .engine import (Answer, Config, InitialHypothesisInconsistentError,
                     StepBudgetError, _Index, solve)
from .store import AtomDomain, Lt
from .terms import (AclpError, Atom, Int, Struct, UserLit, Var, as_written,
                    is_ground)


# search steps per re-solve of `reschedule` when its config sets none: every
# re-solve that succeeds on the job shops of 10 and 25 tasks, seeds 0-4,
# takes a few hundred steps, while one over a kept set that cannot be
# satisfied can run for hundreds of thousands
RESCHEDULE_MAX_STEPS = 10_000
# answers of each re-solve that `reschedule` scores, and groundings of each
RESCHEDULE_MAX_ANSWERS = 8
RESCHEDULE_MAX_LABELLINGS = 64


class UnknownVariableError(AclpError):
    def __init__(self, name):
        super().__init__(f"UNKNOWN_VARIABLE: {name}")
        self.name = name


class EmptyStreamError(AclpError):
    def __init__(self):
        super().__init__("EMPTY_STREAM: no candidate answers")


@dataclass
class GroundAnswer:
    delta: tuple              # ground hypothesis literals
    valuation: dict           # var id -> ground term
    objective: Optional[int] = None
    changes: Optional[int] = None


def find_cost_var(answer: Answer, name: str) -> Var:
    for v in answer.store_vars():
        if v.name == name:
            return v
    raise UnknownVariableError(name)


def minimize(answer: Answer, cost: Var, strategy: str = "first_fail"):
    """Branch and bound: label, then repeatedly demand a strictly better
    cost until the store is exhausted.  Returns GroundAnswer or None."""
    store = answer.store.clone()
    vars_ = answer.store_vars()
    if not any(v.id == cost.id for v in vars_):
        raise UnknownVariableError(cost.name)
    if isinstance(store.domains[cost.id], AtomDomain):
        raise AclpError(f"cannot minimize {cost.name}: its domain holds atoms")
    best = None
    while True:
        sol = next(store.label(vars_, strategy), None)
        if sol is None:
            break
        value = sol[cost.id].value
        best = GroundAnswer(answer.ground_delta(sol), sol, objective=value)
        if not store.post(Lt(cost, Int(value))):
            break
    return best


def change_count(delta: tuple, reference: tuple) -> int:
    """Size of the symmetric difference, as multisets of ground literals."""
    a, b = Counter(delta), Counter(reference)
    return sum(((a - b) + (b - a)).values())


def _collect_preferences(new, ref, out) -> bool:
    """Record preferred values for variables of `new` from the ground `ref`;
    False when the ground parts of the two terms already disagree."""
    pairs = [(new, ref)]
    while pairs:
        new, ref = pairs.pop()
        if isinstance(new, Var):
            if isinstance(ref, Int):
                out[new.id] = ref.value
            elif isinstance(ref, Atom):
                out[new.id] = ref.name
        elif isinstance(new, Struct) and isinstance(ref, Struct):
            if new.functor != ref.functor or new.arity != ref.arity:
                return False
            # left to right, so a repeated variable keeps its last value
            pairs.extend(zip(reversed(new.args), reversed(ref.args)))
        elif new != ref:
            return False
    return True


def _binding(args, ref_args):
    """The (var id, value) pairs under which the argument tuple `args`
    equals the ground `ref_args`, or None when no valuation makes them
    equal: two rigid subterms differ, or a repeated variable would need
    two different values."""
    out = {}
    pairs = list(zip(args, ref_args))
    while pairs:
        t, r = pairs.pop()
        if isinstance(t, Var):
            if out.setdefault(t.id, r) != r:
                return None
        elif isinstance(t, Struct):
            if (not isinstance(r, Struct) or t.functor != r.functor
                    or len(t.args) != len(r.args)):
                return None
            pairs.extend(zip(t.args, r.args))
        elif t != r:
            return None
    return tuple(out.items())


class _Reference:
    """A reference hypothesis set, indexed once for a whole minimal-change
    call: each hypothesis literal filed, in reference order, in the
    engine's first-argument index, and each distinct literal given a slot
    that holds its multiplicity.

    Raises AclpError naming the first hypothesis literal that is not
    ground: a change counted against a variable means nothing.  An entry
    that is no hypothesis literal (a constraint, say) counts towards the
    size and matches nothing."""

    def __init__(self, reference):
        self.size = len(reference)
        self.slot = {}     # distinct literal -> its slot
        self.counts = []   # per slot: the literal's multiplicity
        # (position, literal, slot) per hypothesis literal; a lookup drops
        # only those that `_binding` and `_collect_preferences` reject
        self.index = _Index(lambda t: t)
        for pos, lit in enumerate(reference):
            if not isinstance(lit, UserLit):
                continue
            if not all(map(is_ground, lit.args)):
                raise AclpError(f"reference hypothesis "
                                f"{as_written(lit)} is not ground")
            slot = self.slot.setdefault(lit, len(self.counts))
            if slot == len(self.counts):    # a literal not met before
                self.counts.append(0)
            self.counts[slot] += 1
            self.index.add(lit, (pos, lit, slot))

    def preferences(self, delta) -> dict:
        """Variable id -> value to try first: each hypothesis of `delta`
        takes its values from the first unused reference literal, in
        reference order, whose ground parts agree with it."""
        prefs, used = {}, set()
        for lit in delta:
            for pos, ref, _ in self.index.lookup(lit):
                if pos in used:
                    continue
                trial = {}
                if all(_collect_preferences(a, b, trial)
                       for a, b in zip(lit.args, ref.args)):
                    prefs.update(trial)
                    used.add(pos)
                    break
        return prefs

    def scorer(self, delta):
        """`delta` compiled against the reference: a function from a
        valuation to `change_count` of `delta` grounded by it.

        A ground hypothesis equal to a reference literal matches it
        whatever the valuation.  Each other hypothesis keeps the distinct
        reference literals it can ground to, each with the values its
        variables must take.  Its grounding equals one of them at most,
        so the first whose values a valuation gives is the one it
        matches.  A valuation then costs a few lookups and equality tests
        per open hypothesis.  A variable the valuation does not name
        stays a variable, as `Answer.ground_delta` leaves it, and so
        matches no reference literal."""
        fixed = {}         # slot -> ground hypotheses equal to its literal
        open_ = []         # per open hypothesis: its (slot, pairs) options
        for lit in delta:
            slot = self.slot.get(lit)
            if slot is not None:
                fixed[slot] = fixed.get(slot, 0) + 1
                continue
            options, seen = [], set()
            for _, ref, slot in self.index.lookup(lit):
                if slot not in seen:
                    seen.add(slot)
                    pairs = _binding(lit.args, ref.args)
                    if pairs is not None:
                        options.append((slot, pairs))
            if options:
                open_.append(options)
        counts = self.counts
        base = sum(min(n, counts[s]) for s, n in fixed.items())
        total = len(delta) + self.size

        def changes(sol) -> int:
            # |Δ| + |R| - 2 * Σ min(hits, multiplicity) over reference slots
            matched, hits = base, dict(fixed)
            for options in open_:
                for slot, pairs in options:
                    if all(sol.get(v) == x for v, x in pairs):
                        n = hits.get(slot, 0)
                        if n < counts[slot]:
                            matched += 1
                        hits[slot] = n + 1
                        break
            return total - 2 * matched
        return changes


def label_preferences(answer: Answer, reference) -> dict:
    """Variable id -> value to try first, so labelling an answer stays as
    close as the store allows to a reference hypothesis set (a tuple of
    literals, or one already indexed)."""
    if not isinstance(reference, _Reference):
        reference = _Reference(reference)
    return reference.preferences(answer.delta)


def reschedule(theory, goal, reference: tuple, config=None,
               strategy: str = "first_fail") -> GroundAnswer:
    """Minimal-change recomputation: re-solve with the old solution installed
    as initial hypotheses, minimizing the change count against it.

    Old hypotheses that no longer pass their consistency check (for
    example a start time that now falls inside an unavailability window)
    are dropped up front.  A kept set can also be jointly infeasible even
    though each member passes on its own.  Each re-solve has a step
    budget, `RESCHEDULE_MAX_STEPS` unless `config.max_steps` is set.
    When a re-solve produces no answer, or its budget cuts it before any
    (StepBudgetError), the most recently added hypothesis is dropped and
    the solve retried, down to a fresh solve in the worst case.  The
    fresh solve's EmptyStreamError or StepBudgetError is raised.
    `min_changes` scores the first `RESCHEDULE_MAX_ANSWERS` answers of a
    re-solve and `RESCHEDULE_MAX_LABELLINGS` groundings of each.  Raises
    AclpError when a reference literal is not ground.
    """
    config = config or Config()
    if config.max_steps is None:
        config = replace(config, max_steps=RESCHEDULE_MAX_STEPS)
    kept = list(reference)
    while True:
        try:
            # a stream left open keeps its search thread parked until the
            # cyclic collector finds it
            with closing(solve(theory, goal, initial=kept,
                               config=config)) as stream:
                return min_changes(stream, tuple(reference),
                                   RESCHEDULE_MAX_ANSWERS,
                                   RESCHEDULE_MAX_LABELLINGS, strategy)
        except InitialHypothesisInconsistentError as e:
            kept = [h for h in kept if h != e.hyp]
        except (EmptyStreamError, StepBudgetError):
            if not kept:
                raise
            kept.pop()


def min_changes(answers: Iterable[Answer], reference: tuple,
                max_answers: int = 64, max_labellings: int = 256,
                strategy: str = "first_fail") -> GroundAnswer:
    """Ground answer minimizing the change count against `reference`.

    Scans up to max_answers answers and max_labellings groundings of each;
    ties broken by first found, so the result is deterministic.

    The reference is indexed once per call, and each answer's Δ compiled
    against it once (`_Reference.scorer`).  A labelling is then scored by
    a few lookups per open hypothesis, with nothing grounded or hashed;
    the score equals `change_count` of the grounded Δ, so the same
    labellings are read in the same order and the same one wins.  Only a
    labelling that beats the best so far is grounded.  Raises AclpError
    when a reference literal is not ground.
    """
    ref = _Reference(reference)
    best = None
    for answer in islice(answers, max_answers):
        prefs = label_preferences(answer, ref)
        changes = ref.scorer(answer.delta)
        for sol in islice(answer.labellings(strategy, prefer=prefs),
                          max_labellings):
            n = changes(sol)
            if best is None or n < best.changes:
                best = GroundAnswer(answer.ground_delta(sol), sol, changes=n)
                if n == 0:
                    return best
    if best is None:
        raise EmptyStreamError()
    return best
