"""Branch-and-bound minimization and minimal-change selection."""

import gc
import itertools
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from aclp import (AclpError, Config, EmptyStreamError, StepBudgetError,
                  UnknownVariableError, change_count, compile_naf,
                  find_cost_var, min_changes, minimize, optimize, parse_goal,
                  parse_theory, reschedule, solve)
from aclp.corpus import reschedule_case
from aclp.engine import Answer
from aclp.optimize import _Reference, label_preferences
from aclp.terms import Atom, Int, Struct, UserLit, Var, is_ground

from oracles import slow_label_preferences, slow_min_changes


def first_answer(text, goal):
    theory = compile_naf(parse_theory(text), mode="autogenerate")
    return next(solve(theory, parse_goal(goal)))


# -- minimize ---------------------------------------------------------------

def test_minimize_with_ordering_constraint():
    ans = first_answer("abducible_predicate(a/2).\n"
                       "g(X, Y) :- X :: 1..5, Y :: 1..5, X #< Y, a(X, Y).",
                       "g(X, Y)")
    cost = find_cost_var(ans, "X")
    best = minimize(ans, cost)
    assert best.objective == 1
    assert best.valuation[cost.id] == Int(1)


def test_minimize_singleton():
    ans = first_answer("abducible_predicate(a/1).\ng(X) :- X :: 4..4, a(X).",
                       "g(X)")
    best = minimize(ans, find_cost_var(ans, "X"))
    assert best.objective == 4


def test_minimize_unconstrained_returns_domain_minimum():
    ans = first_answer("abducible_predicate(a/1).\ng(X) :- X :: 2..9, a(X).",
                       "g(X)")
    best = minimize(ans, find_cost_var(ans, "X"))
    assert best.objective == 2


def test_minimize_matches_brute_force():
    # X + Y minimal subject to X*?: encode cost C #= X + Y via C #= X + Y
    text = """
        abducible_predicate(a/3).
        g(X, Y, C) :- X :: 1..6, Y :: 1..6, C :: 2..12,
                      X + 2 #<= Y, C #= X + 3, a(X, Y, C).
    """
    ans = first_answer(text, "g(X, Y, C)")
    best = minimize(ans, find_cost_var(ans, "C"))
    feasible = [(x, y, c)
                for x in range(1, 7) for y in range(1, 7) for c in range(2, 13)
                if x + 2 <= y and c == x + 3]
    assert best.objective == min(c for _, _, c in feasible)


BETTER_LATER = """
    abducible_predicate(a/2).
    g :- X :: 1..2, C :: 0..9,
         (X #= 1 #/\\ C #= 5) #\\/ (X #= 2 #/\\ C #= 3), a(X, C).
"""


def test_minimize_finds_a_cheaper_labelling_after_the_first():
    # the first labelling costs 5; the bound C #< 5 must be posted on the
    # unlabelled store, which still allows the cost-3 labelling
    ans = first_answer(BETTER_LATER, "g")
    best = minimize(ans, find_cost_var(ans, "C"))
    assert best.objective == 3
    assert best.delta == (UserLit("a", (Int(2), Int(3))),)


def test_labellings_twice_on_one_answer_give_the_same_list():
    ans = first_answer(BETTER_LATER, "g")
    first = list(ans.labellings())
    assert len(first) == 2
    assert next(ans.labellings()) == first[0]   # abandoned after one
    assert list(ans.labellings()) == first


def test_minimize_unknown_variable():
    ans = first_answer("abducible_predicate(a/1).\ng(X) :- X :: 1..3, a(X).",
                       "g(X)")
    with pytest.raises(UnknownVariableError):
        find_cost_var(ans, "Z")


def test_minimize_an_atom_variable_is_an_error():
    ans = first_answer("abducible_predicate(a/1).\n"
                       "g(X) :- X :: [red, blue], a(X).", "g(X)")
    with pytest.raises(AclpError, match="cannot minimize X"):
        minimize(ans, find_cost_var(ans, "X"))


# -- change counting --------------------------------------------------------

def lits(*specs):
    return tuple(UserLit(name, tuple(Int(a) if isinstance(a, int) else Atom(a)
                                     for a in args)) for name, args in specs)


def test_change_count_symmetric_difference():
    a = lits(("s", (1, 2)), ("s", (2, 5)))
    b = lits(("s", (1, 2)), ("s", (2, 7)))
    assert change_count(a, b) == 2
    assert change_count(a, a) == 0
    assert change_count(a, ()) == 2


def test_change_count_is_multiset_based():
    a = lits(("s", (1,)), ("s", (1,)))
    b = lits(("s", (1,)),)
    assert change_count(a, b) == 1


# -- min_changes ------------------------------------------------------------

def test_min_changes_prefers_exact_match():
    text = """
        abducible_predicate(a/0).
        abducible_predicate(b/0).
        abducible_predicate(c/0).
        g :- a, b.
        g :- a, c.
    """
    theory = parse_theory(text)
    reference = lits(("a", ()), ("b", ()))
    best = min_changes(solve(theory, parse_goal("g")), reference)
    assert best.changes == 0
    assert sorted(l.name for l in best.delta) == ["a", "b"]


def test_min_changes_forced_candidate():
    text = """
        abducible_predicate(b/0).
        abducible_predicate(c/0).
        g :- b, c.
    """
    theory = parse_theory(text)
    best = min_changes(solve(theory, parse_goal("g")), lits(("a", ())))
    assert best.changes == 3


def test_min_changes_zero_when_reference_is_feasible():
    # monotonicity: re-solving against one's own answer costs nothing
    text = """
        abducible_predicate(s/2).
        g :- s(1, T1), T1 :: 0..9, s(2, T2), T2 :: 0..9, T1 + 2 #<= T2.
    """
    theory = parse_theory(text)
    first = next(solve(theory, parse_goal("g")))
    ground = first.ground_delta(next(first.labellings()))
    best = min_changes(solve(theory, parse_goal("g")), ground)
    assert best.changes == 0
    assert sorted(map(repr, best.delta)) == sorted(map(repr, ground))


def test_min_changes_empty_stream():
    theory = parse_theory("abducible_predicate(a/0).\ng :- a.\nic :- a.")
    with pytest.raises(EmptyStreamError):
        min_changes(solve(theory, parse_goal("g")), ())


def test_min_changes_is_deterministic():
    text = """
        abducible_predicate(s/2).
        g :- s(1, T1), T1 :: 0..5, s(2, T2), T2 :: 0..5.
    """
    theory = parse_theory(text)
    reference = lits(("s", (1, 4)), ("s", (2, 1)))
    runs = [min_changes(solve(theory, parse_goal("g")), reference)
            for _ in range(2)]
    assert runs[0].delta == runs[1].delta
    assert runs[0].changes == runs[1].changes == 0


def test_min_changes_grounds_only_the_labellings_that_improve(monkeypatch):
    theory = parse_theory("abducible_predicate(s/2).\n"
                          "g :- T :: 0..5, s(1, T), s(2, T).")
    # T is preferred at 1, which leaves 3 changes; T = 4 leaves 1
    reference = lits(("s", (2, 1)), ("s", (1, 4)), ("s", (2, 4)))
    grounded = []
    ground_delta = Answer.ground_delta

    def counted(answer, sol):
        ground = ground_delta(answer, sol)
        grounded.append(change_count(ground, reference))
        return ground

    def refused(*args):
        raise AssertionError("change_count called while scoring")

    monkeypatch.setattr(Answer, "ground_delta", counted)
    monkeypatch.setattr(optimize, "change_count", refused)
    best = min_changes(solve(theory, parse_goal("g")), reference)
    # all six labellings are read, but only two are grounded
    assert grounded == [3, 1]
    assert best.changes == 1
    assert best.delta == lits(("s", (1, 4)), ("s", (2, 4)))


def test_a_non_ground_reference_is_an_error():
    theory = parse_theory("abducible_predicate(start/2).\n"
                          "g :- S :: 0..5, start(a, S).")
    reference = (UserLit("start", (Atom("a"), Int(1))),
                 UserLit("start", (Atom("a"), Var("X", 0))))
    message = r"reference hypothesis start\(a,X\) is not ground"
    with pytest.raises(AclpError, match=message):
        min_changes(solve(theory, parse_goal("g")), reference)
    with pytest.raises(AclpError, match=message):
        reschedule(theory, parse_goal("g"), reference)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5])
def test_min_changes_matches_the_slow_reference_on_rescheduling(
        seed, monkeypatch):
    _, changed, old = reschedule_case(10, seed)
    theory = parse_theory(changed.program)
    goal = parse_goal(changed.goal_text)

    def calls(select):
        # every min_changes call of one reschedule, with its result
        out = []

        def recorded(*args, **kwargs):
            try:
                ga = select(*args, **kwargs)
            except EmptyStreamError:
                out.append(None)
                raise
            out.append((ga.delta, ga.valuation, ga.changes))
            return ga
        monkeypatch.setattr(optimize, "min_changes", recorded)
        reschedule(theory, goal, old, config=Config())
        return out

    fast = calls(min_changes)
    assert fast and fast == calls(slow_min_changes)


# -- scoring against the reference -----------------------------------------

_VALUES = st.one_of(st.integers(0, 1).map(Int), st.just(Atom("a")))
_VARS = st.integers(0, 3).map(lambda i: Var(f"V{i}", i))


def _terms(leaves):
    return st.recursive(leaves, lambda args: st.builds(
        lambda f, xs: Struct(f, tuple(xs)), st.sampled_from("fg"),
        st.lists(args, min_size=1, max_size=2)), max_leaves=4)


def _literals(terms):
    return st.sampled_from([("p", 1), ("p", 2), ("q", 2), ("r", 0)]).flatmap(
        lambda pa: st.tuples(*[terms] * pa[1]).map(
            lambda args: UserLit(pa[0], args)))


@st.composite
def _scoring_cases(draw):
    """(Δ, a partial valuation, a ground reference): Δ literals may repeat,
    be ground or repeat a variable; the reference holds ground instances
    of Δ under that valuation and under another, repeated or not, and
    other ground literals."""
    delta = tuple(draw(st.lists(_literals(_terms(_VALUES | _VARS)),
                                max_size=5)))
    sol, other_sol = (draw(st.dictionaries(st.integers(0, 3), _VALUES,
                                           min_size=2)) for _ in range(2))
    instances = [lit for v in (sol, other_sol)
                 for lit in Answer(delta, (), None).ground_delta(v)
                 if all(map(is_ground, lit.args))]
    picked = draw(st.lists(st.sampled_from(instances), max_size=4)) \
        if instances else []
    other = draw(st.lists(_literals(_terms(_VALUES)), max_size=3))
    return delta, sol, tuple(draw(st.permutations(picked + other)))


_T = Var("T", 0)


@given(_scoring_cases())
@example((  # T would need two values to ground to the first literal
    (UserLit("p", (_T, Struct("f", (_T,)))),), {0: Int(1)},
    (UserLit("p", (Int(1), Struct("f", (Int(2),)))),
     UserLit("p", (Int(2), Struct("f", (Int(2),)))))))
@settings(max_examples=400, deadline=None)
def test_the_compiled_score_is_the_change_count(case):
    delta, sol, reference = case
    ground = Answer(delta, (), None).ground_delta(sol)
    assert (_Reference(reference).scorer(delta)(sol)
            == change_count(ground, reference))


@given(_scoring_cases())
@settings(max_examples=200, deadline=None)
def test_indexed_preferences_match_the_linear_scan(case):
    delta, _, reference = case
    assert (label_preferences(Answer(delta, (), None), reference)
            == slow_label_preferences(delta, reference))


# -- label preferences ------------------------------------------------------

def test_label_preferences_extracts_old_values():
    text = """
        abducible_predicate(s/2).
        g :- s(1, T1), T1 :: 0..9, s(2, T2), T2 :: 0..9.
    """
    theory = parse_theory(text)
    ans = next(solve(theory, parse_goal("g")))
    reference = lits(("s", (1, 7)), ("s", (2, 3)))
    prefs = label_preferences(ans, reference)
    t1 = ans.delta[0].args[1]
    t2 = ans.delta[1].args[1]
    assert prefs[t1.id] == 7 and prefs[t2.id] == 3


# -- reschedule -------------------------------------------------------------

def test_reschedule_drops_hypotheses_broken_by_theory_change():
    text_old = """
        abducible_predicate(s/2).
        g :- s(1, T1), T1 :: 0..9, s(2, T2), T2 :: 0..9.
        ic :- s(N, T), T #> 9.
    """
    text_new = text_old + "ic :- s(1, T), T #<= 4.\n"
    goal = parse_goal("g")
    # reference: task 1 at 2 (now forbidden), task 2 at 3 (still fine)
    reference = lits(("s", (1, 2)), ("s", (2, 3)))
    best = reschedule(parse_theory(text_new), goal, reference,
                      config=Config(max_steps=1_000))
    assert best.changes == 2  # only the broken hypothesis moves
    kept = [l for l in best.delta if l.args[0] == Int(2)]
    assert kept == [UserLit("s", (Int(2), Int(3)))]


def test_reschedule_leaves_no_search_thread_running(monkeypatch):
    # s(1, 2) is dropped when its install fails: the error re-raised from
    # that stream sits in a reference cycle holding reschedule's frame, so
    # only closing the last stream ends its search thread without the
    # cyclic collector
    text = """
        abducible_predicate(s/2).
        g :- s(1, T1), T1 :: 0..9, s(2, T2), T2 :: 0..9.
        ic :- s(1, T), T #<= 4.
    """
    reference = lits(("s", (1, 2)), ("s", (2, 3)))
    # one answer of two is read, so the last stream stays open
    monkeypatch.setattr(optimize, "RESCHEDULE_MAX_ANSWERS", 1)
    gc.disable()
    try:
        before = set(threading.enumerate())
        best = reschedule(parse_theory(text), parse_goal("g"), reference)
        for t in set(threading.enumerate()) - before:
            t.join(timeout=10)
        assert threading.active_count() == len(before)
    finally:
        gc.enable()
    assert best.changes == 2


def test_reschedule_drops_the_newest_hypothesis_when_a_re_solve_is_cut(
        monkeypatch):
    # job shop 10, seed 4: four kept sets are cut by RESCHEDULE_MAX_STEPS
    # before the fifth answers
    cuts, stream = [], optimize.solve

    def counting(*args, **kwargs):
        try:
            yield from stream(*args, **kwargs)
        except StepBudgetError as e:
            cuts.append(e.limit)
            raise

    monkeypatch.setattr(optimize, "solve", counting)
    _, changed, old = reschedule_case(10, 4)
    best = reschedule(parse_theory(changed.program),
                      parse_goal(changed.goal_text), old)
    assert cuts == [optimize.RESCHEDULE_MAX_STEPS] * 4
    assert best.changes == 8


def test_reschedule_raises_the_cut_of_its_fresh_solve():
    # one step finds no answer: every kept set is cut, and so is the
    # fresh solve left when all are dropped
    text = """
        abducible_predicate(s/2).
        g :- s(1, T1), T1 :: 0..9, s(2, T2), T2 :: 0..9.
    """
    reference = lits(("s", (1, 2)), ("s", (2, 3)))
    with pytest.raises(StepBudgetError) as cut:
        reschedule(parse_theory(text), parse_goal("g"), reference,
                   config=Config(max_steps=1))
    assert cut.value.limit == 1


def test_reschedule_with_feasible_reference_changes_nothing():
    text = """
        abducible_predicate(s/2).
        g :- s(1, T1), T1 :: 0..9, s(2, T2), T2 :: 0..9, T1 #< T2.
    """
    theory = parse_theory(text)
    reference = lits(("s", (1, 3)), ("s", (2, 8)))
    best = reschedule(theory, parse_goal("g"), reference,
                      config=Config(max_steps=1_000))
    assert best.changes == 0


def test_reschedule_reference_nested_deeper_than_the_recursion_limit():
    term = Atom("z")
    for _ in range(2 * sys.getrecursionlimit()):
        term = Struct("s", (term,))
    theory = parse_theory("abducible_predicate(h/1). g :- h(X).")
    best = reschedule(theory, parse_goal("g"), (UserLit("h", (term,)),))
    assert best.changes == 0
