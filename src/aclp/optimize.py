"""Post-answer optimization: branch-and-bound labelling and minimal-change
selection against a reference hypothesis set."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from .engine import Answer, Config, InitialHypothesisInconsistentError, solve
from .store import AtomDomain, Lt
from .terms import AclpError, Atom, Int, Struct, UserLit, Var


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


def label_preferences(answer: Answer, reference: tuple) -> dict:
    """Variable id -> value to try first, so labelling an answer stays as
    close as the store allows to a reference hypothesis set."""
    prefs = {}
    unused = list(reference)
    for lit in answer.delta:
        for ref in unused:
            if not (isinstance(ref, UserLit) and ref.indicator == lit.indicator):
                continue
            trial = {}
            if all(_collect_preferences(a, b, trial)
                   for a, b in zip(lit.args, ref.args)):
                prefs.update(trial)
                unused.remove(ref)
                break
    return prefs


def reschedule(theory, goal, reference: tuple, config=None,
               max_answers: int = 8, max_labellings: int = 64,
               strategy: str = "first_fail") -> GroundAnswer:
    """Minimal-change recomputation: re-solve with the old solution installed
    as initial hypotheses, minimizing the change count against it.

    Old hypotheses that no longer pass their consistency check (for
    example a start time that now falls inside an unavailability window)
    are dropped up front.  A kept set can also be jointly infeasible even
    though each member passes on its own; when the solve produces no
    answer (or exhausts its time budget), the most recently added
    hypothesis is dropped and the solve retried, down to a fresh solve in
    the worst case.
    """
    if config is None:
        config = Config(time_budget=10.0)
    kept = list(reference)
    while True:
        try:
            stream = solve(theory, goal, initial=kept, config=config)
            try:
                return min_changes(stream, tuple(reference),
                                   max_answers=max_answers,
                                   max_labellings=max_labellings,
                                   strategy=strategy)
            finally:
                # a stream left open keeps its search thread parked
                # until the cyclic collector finds it
                stream.close()
        except InitialHypothesisInconsistentError as e:
            kept = [h for h in kept if h != e.hyp]
        except EmptyStreamError:
            if not kept:
                raise
            kept.pop()


def min_changes(answers: Iterable[Answer], reference: tuple,
                max_answers: int = 64, max_labellings: int = 256,
                strategy: str = "first_fail") -> GroundAnswer:
    """Ground answer minimizing the change count against `reference`.

    Scans up to max_answers answers and max_labellings groundings of each;
    ties broken by first found, so the result is deterministic.
    """
    best = None
    for i, answer in enumerate(answers):
        if i >= max_answers:
            break
        prefs = label_preferences(answer, tuple(reference))
        for j, sol in enumerate(answer.labellings(strategy, prefer=prefs)):
            if j >= max_labellings:
                break
            ground = answer.ground_delta(sol)
            n = change_count(ground, tuple(reference))
            if best is None or n < best.changes:
                best = GroundAnswer(ground, sol, changes=n)
            if n == 0:
                return best
        if best is not None and best.changes == 0:
            break
    if best is None:
        raise EmptyStreamError()
    return best
