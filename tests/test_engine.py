"""The abductive proof procedure: goal reduction, hypothesis reuse,
consistency checking and answer extraction."""

import gc
import itertools
import random
import sys
import threading
import weakref
from collections import Counter

import pytest

from aclp import Config, compile_naf, engine, parse_goal, parse_theory, solve
from aclp.corpus import (event_calculus_program, generate_blocks,
                         generate_jobshop)
from aclp.engine import (DepthLimitExceededError,
                         InitialHypothesisInconsistentError, Solver,
                         StepBudgetError)
from aclp.parser import format_literal
from aclp.store import ConstraintStore, IntDomain, Neq, StoreTypeError
from aclp.terms import (AclpError, Atom, Int, Struct, UnknownPredicateError,
                        UserLit, Var, rewind)

from oracles import (canonical_ids, goal_derivable, random_naf_program_text,
                     random_theory_text, violated_ics)


def answers(text, goal, initial=(), config=None, limit=10):
    theory = compile_naf(parse_theory(text), mode="autogenerate")
    out = []
    for i, ans in enumerate(solve(theory, parse_goal(goal), initial, config)):
        out.append(ans)
        if i + 1 >= limit:
            break
    return out


def delta_names(ans):
    return sorted(l.name for l in ans.delta)


# -- basic abduction --------------------------------------------------------

def test_single_abductive_step():
    out = answers("abducible_predicate(a/0).\ng :- a.", "g")
    assert [delta_names(a) for a in out] == [["a"]]


def test_ic_refutes_the_only_hypothesis():
    out = answers("abducible_predicate(a/0).\ng :- a.\nic :- a.", "g")
    assert out == []


def test_two_clauses_give_choice_points_in_source_order():
    text = """
        abducible_predicate(a/1).
        q(1) :- a(one).
        q(2) :- a(two).
        g(X) :- q(X).
    """
    out = answers(text, "g(X)")
    assert [delta_names(a) for a in out] == [["a"], ["a"]]
    assert [a.delta[0].args[0] for a in out] == [Atom("one"), Atom("two")]


def test_constraint_posted_before_reduction_prunes():
    text = """
        abducible_predicate(a/1).
        p(X) :- X :: 1..5, a(X).
    """
    out = answers(text, "X #< 3, p(X)")
    assert len(out) == 1
    sols = [s[out[0].delta[0].args[0].id].value
            for s in out[0].labellings()]
    assert sols == [1, 2]


def test_unknown_predicate_raises():
    theory = parse_theory("p(1).")
    with pytest.raises(UnknownPredicateError):
        list(solve(theory, parse_goal("r")))


def test_fact_needs_no_hypothesis():
    out = answers("p(1).", "p(1)")
    assert len(out) == 1 and out[0].delta == ()


# -- reuse-first ------------------------------------------------------------

def test_reuse_constrains_against_existing_hypothesis():
    text = "abducible_predicate(act/2).\ng(T, A) :- act(T, A)."
    initial = (UserLit("act", (Int(3), Struct("move", (Atom("a"), Atom("b"))))),)
    out = answers(text, "g(T, A)", initial=initial)
    assert out[0].delta == initial          # reuse: no new hypothesis
    assert len(out[1].delta) == 2           # fresh hypothesis comes second


def test_first_answer_has_minimal_delta():
    text = """
        abducible_predicate(a/1).
        g :- a(X), X :: 1..5.
        h :- a(Y), Y :: 1..5.
        both :- g, h.
    """
    out = answers(text, "both")
    sizes = [len(a.delta) for a in out]
    assert sizes and sizes[0] == min(sizes)


# -- consistency checking ---------------------------------------------------

def test_vacuous_consistency_check():
    text = """
        abducible_predicate(a/0).
        abducible_predicate(b/0).
        g :- a.
        ic :- b.
    """
    out = answers(text, "g")
    assert [delta_names(a) for a in out] == [["a"]]


def test_negated_constraint_narrows_goal_variable():
    # only X >= 3 avoids the integrity violation
    text = """
        abducible_predicate(a/1).
        g(X) :- X :: 1..5, a(X).
        ic :- a(Y), Y #< 3.
    """
    out = answers(text, "g(X)")
    assert len(out) == 1
    x = out[0].delta[0].args[0]
    assert sorted(s[x.id].value for s in out[0].labellings()) == [3, 4, 5]


def test_operand_made_scalar_by_a_binding_solves():
    # `S + D` and `1 + D` are not scalar as written but are once dur/2
    # binds D, in a clause body as in an integrity constraint
    text = """
        abducible_predicate(start/2).
        dur(t1, 3).
        ic :- start(T, S), dur(T, D), S + D #> 6.
        g(S, E) :- S :: 0..5, start(t1, S), dur(t1, D), E #= S + D,
                   E #> 1 + D.
    """
    (ans,) = answers(text, "g(S, E)")
    s = ans.delta[0].args[1]
    assert sorted(sol[s.id].value for sol in ans.labellings()) == [2, 3]
    # left unbound, the store rejects it
    with pytest.raises(StoreTypeError, match="non-scalar operand"):
        answers("g :- X :: 0..3, Y :: 0..3, X + Y #= 2.", "g")


def test_range_bounds_written_with_plus_and_minus_are_evaluated():
    n = 2 * sys.getrecursionlimit()
    text = f"""
        abducible_predicate(a/1).
        n(4).
        g :- X :: 1 + 1..5, a(X).
        h :- n(N), X :: 0..N - 1, a(X).
        k :- X :: 0{" + 1" * n}..{n} - 0 + 2, a(X).
    """
    for goal, dom in (("g", IntDomain.range(2, 5)),
                      ("h", IntDomain.range(0, 3)),
                      ("k", IntDomain.range(n, n + 2))):
        (ans,) = answers(text, goal)
        (x,) = ans.delta[0].args
        assert ans.store.domains[x.id] == dom


def test_non_ground_range_bounds_are_an_error():
    with pytest.raises(AclpError) as e:
        answers("g :- X :: Y..5.", "g")
    assert str(e.value) == "non-ground domain bounds in X :: Y..5"


@pytest.mark.parametrize("decl, bound", [("X :: f(1)..5", "f(1)"),
                                         ("X :: 1..a + 1", "a + 1")],
                         ids=["X :: f(1)..5", "X :: 1..a + 1"])
def test_range_bounds_that_are_no_integers_are_an_error(decl, bound):
    with pytest.raises(AclpError) as e:
        answers(f"g :- {decl}.", "g")
    assert str(e.value) == f"domain bound {bound} is not an integer in {decl}"


def test_a_goal_term_equality_unifies():
    text = """
        abducible_predicate(a/1).
        p(f(1)).
        g :- X ##= f(Y), p(X), a(Y).
        h :- X ##= f(Y), X ##= g(Y).
    """
    assert [a.delta for a in answers(text, "g")] == \
        [(UserLit("a", (Int(1),)),)]
    assert answers(text, "h") == []


def test_a_failed_domain_declaration_refutes_an_ic_body():
    text = "abducible_predicate(a/1).\nic :- a(X), X :: 5..9."
    assert [a.delta for a in answers(text, "a(1)")] == \
        [(UserLit("a", (Int(1),)),)]
    assert answers(text, "a(6)") == []


def test_ground_ic_body_cannot_be_refuted():
    # between(1,3,5) is ground-true, so the second hypothesis must fail
    text = """
        abducible_predicate(act/2).
        abducible_predicate(not_clipped/3).
        terminates(p, m).
        between(T, C, E) :- T #< C, C #< E.
        ic :- not_clipped(T, E, P), terminates(P, A1), act(C, A2),
              A1 ##= A2, between(T, C, E).
        g :- act(3, m), not_clipped(1, 5, p).
    """
    assert answers(text, "g") == []


def test_refutable_ic_body_lets_hypothesis_through():
    # same program, but the action at time 6 falls outside (1,5)
    text = """
        abducible_predicate(act/2).
        abducible_predicate(not_clipped/3).
        terminates(p, m).
        between(T, C, E) :- T #< C, C #< E.
        ic :- not_clipped(T, E, P), terminates(P, A1), act(C, A2),
              A1 ##= A2, between(T, C, E).
        g :- act(6, m), not_clipped(1, 5, p).
    """
    out = answers(text, "g")
    assert len(out) >= 1
    assert delta_names(out[0]) == ["act", "not_clipped"]


def test_later_hypothesis_cannot_revive_refuted_ic():
    # p0 is derivable only through a0(5); abducing a0(5) after a0(3)
    # must not slip past the constraint ic :- a0(3), p0
    text = """
        abducible_predicate(a0/1).
        p0 :- a0(5).
        g :- a0(3), a0(5).
        ic :- a0(3), p0.
    """
    assert answers(text, "g") == []


def test_rollback_after_failed_branch_is_exact():
    theory = parse_theory("abducible_predicate(a/0).\ng :- a.\nic :- a.")
    solver = Solver(theory)
    assert list(solver.solve(parse_goal("g"))) == []
    assert list(solver.delta) == [] and list(solver.denials) == []
    assert solver.store.consistent
    assert solver.store.domains == {} and solver.store.constraints == []


_THREE_IN_A_ROW = """
    abducible_predicate(a/1).
    ic :- a(X), a(Y), a(Z), X #< Y, Y #< Z.
    h(X, Y, Z) :- a(X), b(Y, Z).
    b(Y, Z) :- a(Y), a(Z).
"""


@pytest.mark.parametrize("form", ["a({}), a({}), a({})", "h({}, {}, {})"])
@pytest.mark.parametrize("order", list(itertools.permutations((1, 2, 3))))
def test_a_hypothesis_completes_an_ic_from_any_body_position(form, order):
    # whichever of a(1), a(2), a(3) is assumed last completes the instance
    # X=1, Y=2, Z=3, and resolving the IC at its own body position must
    # refute it: no denial is left behind to do so
    assert answers(_THREE_IN_A_ROW, form.format(*order)) == []
    assert answers(_THREE_IN_A_ROW, form.format(2, 1, 2)) != []


@pytest.mark.parametrize("order", list(itertools.permutations((1, 2, 3))))
def test_an_ic_body_unfolded_through_a_clause_is_refuted_by_its_denials(
        order):
    # a(Y) and a(Z) sit under b/2, so no IC resolution reaches them: the
    # denials recorded when b's clause was failed must do it
    text = _THREE_IN_A_ROW.replace("a(Y), a(Z), X", "b(Y, Z), X")
    assert answers(text, "a({}), a({}), a({})".format(*order)) == []
    assert answers(text, "a(2), a(1), a(2)") != []


def test_each_job_shop_ic_instance_is_refuted_once(monkeypatch):
    # the first answer of a 10-task job shop completes each of its 21
    # resource-pair ICs once; re-checking the older task's denial as well
    # would refute every one of them twice
    inst = generate_jobshop(10, 1)
    theory = parse_theory(inst.program)
    calls = Counter()
    fail_constraint = Solver._fail_constraint

    def counting(self, *args):
        calls["fail_constraint"] += 1
        return fail_constraint(self, *args)

    monkeypatch.setattr(Solver, "_fail_constraint", counting)
    stream = Solver(theory).solve(parse_goal(inst.goal_text))
    next(stream)
    stream.close()
    assert len(theory.ics) == 21
    assert calls["fail_constraint"] == 21


def test_each_job_shop_residual_is_posted_once():
    inst = generate_jobshop(10, 1)
    stream = Solver(parse_theory(inst.program)).solve(
        parse_goal(inst.goal_text))
    ans = next(stream)
    stream.close()
    residuals = [repr(c) for c in ans.store.active_constraints()]
    assert len(residuals) == len(set(residuals)) == 17


@pytest.mark.parametrize("body", [
    "p(Z), W ## a, s(W)",
    "p(Z), s(W), W ## a",
    "p(Z), W ##= b, s(W)",
    "p(Z), s(W), W ##= b",
])
def test_an_ic_on_an_untyped_local_answers_in_either_order(body):
    # W has no domain, so `W ## a` waits in the store; binding W by
    # resolving s(W) re-enters it as `a ## a`, which refutes the IC body
    # whichever literal comes first
    from oracles import goal_derivable, violated_ics
    text = f"""
        abducible_predicate(p/1).
        s(a).
        g :- p(1).
        ic :- {body}.
    """
    theory = compile_naf(parse_theory(text), mode="autogenerate")
    goal = parse_goal("g")
    out = answers(text, "g")
    assert [repr(a.delta) for a in out] == ["(p(1),)"]
    for ans in out:
        ground = ans.ground_delta(next(ans.labellings()))
        assert goal_derivable(theory, ground, goal)
        assert not violated_ics(theory, ground)


@pytest.mark.parametrize("body", ["p(Z), W ## a, s(W)",
                                  "p(Z), s(W), W ## a"])
def test_each_clause_refutes_its_own_copy_of_an_untyped_local(body):
    # refuting s(c) binds its copy of W to c; s(b) meets a W of its own,
    # with `W ## a` copied onto it, and b ## a holds: the IC rules p(1) out
    from oracles import violated_ics
    text = f"""
        abducible_predicate(p/1).
        s(c) :- fail.
        s(b).
        g :- p(1).
        ic :- {body}.
    """
    assert answers(text, "g") == []
    theory = compile_naf(parse_theory(text), mode="autogenerate")
    assert violated_ics(theory, (UserLit("p", (Int(1),)),))


def test_a_disjunction_over_an_untyped_variable_is_decided_by_its_binding():
    # X ## a is undecided until q(X) binds X, and then false, so the
    # disjunction leaves Y #= 1
    text = """
        abducible_predicate(p/1).
        q(a).
        g :- Y :: 0..1, X ## a #\\/ Y #= 1, q(X), p(Y).
    """
    (ans,) = answers(text, "g")
    assert [format_literal(l) for l in ans.delta] == ["p(Y)"]
    assert ans.store.render().splitlines()[0] == "Y ∈ {1}"
    assert ans.store.active_constraints() == []


# -- negation as failure ----------------------------------------------------

def test_naf_goal_abduces_the_complement():
    text = """
        abducible_predicate(not_q/0).
        p :- not(q).
        ic :- not_q, q.
    """
    theory = compile_naf(parse_theory(text), mode="validate")
    out = list(solve(theory, parse_goal("p")))
    assert [delta_names(a) for a in out] == [["not_q"]]


def test_naf_fails_when_complement_is_provable():
    text = """
        abducible_predicate(not_q/0).
        p :- not(q).
        q.
        ic :- not_q, q.
    """
    theory = compile_naf(parse_theory(text), mode="validate")
    assert list(solve(theory, parse_goal("p"))) == []


def test_naf_forces_preconditions():
    # proving not_clipped's complement establishes q via abduction
    text = """
        abducible_predicate(b/0).
        p :- not(q).
        q :- b.
    """
    theory = compile_naf(parse_theory(text), mode="autogenerate")
    out = list(solve(theory, parse_goal("p")))
    # not_q survives only while b is not abduced
    assert [delta_names(a) for a in out] == [["not_q"]]


# -- initial hypotheses -----------------------------------------------------

def test_initial_hypotheses_are_checked():
    text = "abducible_predicate(a/0).\ng :- a.\nic :- a."
    theory = parse_theory(text)
    with pytest.raises(InitialHypothesisInconsistentError):
        list(solve(theory, parse_goal("g"), initial=(UserLit("a", ()),)))


def test_non_abducible_initial_hypothesis_rejected():
    theory = parse_theory("p(1).")
    with pytest.raises(InitialHypothesisInconsistentError):
        list(solve(theory, parse_goal("p(1)"), initial=(UserLit("b", ()),)))


def test_a_caught_install_error_frees_the_callers_locals():
    # with the cyclic collector off, a caller that catches the error of an
    # inconsistent initial hypothesis keeps none of its locals alive once
    # it has returned: the error it caught is in no reference cycle
    theory = parse_theory("abducible_predicate(s/1). g :- s(X). ic :- s(1).")

    class Local:
        pass

    def catch():
        local = Local()
        try:
            list(solve(theory, parse_goal("g"),
                       initial=(UserLit("s", (Int(1),)),)))
        except InitialHypothesisInconsistentError:
            pass
        return weakref.ref(local)

    gc.collect()
    gc.disable()
    try:
        assert catch()() is None
    finally:
        gc.enable()


# -- limits -----------------------------------------------------------------

def test_depth_limit_signals_incompleteness():
    theory = parse_theory("p :- p.")
    with pytest.raises(DepthLimitExceededError):
        list(solve(theory, parse_goal("p"), config=Config(max_depth=50)))


def test_depth_limit_inside_the_consistency_derivation():
    theory = parse_theory("abducible_predicate(a/0).\nic :- a, loop.\n"
                          "loop :- loop.\ng :- a.")
    with pytest.raises(DepthLimitExceededError):
        list(solve(theory, parse_goal("g"), config=Config(max_depth=50)))


def test_depth_limit_not_raised_when_answers_exist():
    theory = parse_theory("p :- p.\np.")
    out = list(solve(theory, parse_goal("p"), config=Config(max_depth=50)))
    assert len(out) >= 1


def test_deep_derivation_needs_no_deep_stack(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    limit = sys.getrecursionlimit()
    n = 20_000
    text = "\n".join(f"p{i} :- p{i + 1}." for i in range(n)) + f"\np{n}.\n"
    theory, goal = parse_theory(text), parse_goal("p0")
    config = Config(max_depth=50_000)
    # the search loop itself runs in the calling thread
    out = list(Solver(theory, config).solve(goal))
    assert [a.delta for a in out] == [()]
    assert started == []
    out = list(solve(theory, goal, config=config))
    assert [a.delta for a in out] == [()]
    assert sys.getrecursionlimit() == limit


def nested(n, t):
    for _ in range(n):
        t = Struct("s", (t,))
    return t


def test_deeply_nested_terms_need_no_recursion():
    # q_i(X) :- q_{i+1}(s(X)) builds s^n(z), nested deeper than the
    # recursion limit allows frames: unification, the occurs check,
    # resolution, renaming, equality and printing all walk it
    limit = sys.getrecursionlimit()
    n = limit
    chain = "\n".join(f"q{i}(X) :- q{i + 1}(s(X))." for i in range(n))
    out = answers(f"{chain}\nq{n}(X).", "q0(z)")
    assert [a.delta for a in out] == [()]
    text = ("abducible_predicate(h/1).\nic :- h(s(z)).\nic :- h(a).\n"
            f"{chain}\nq{n}(X) :- h(X), h(X).")
    out = answers(text, "q0(z)")
    deep = nested(n, Atom("z"))
    assert [a.delta for a in out] == [(UserLit("h", (deep,)),)]
    text = "h(" + "s(" * n + "z" + ")" * (n + 1)
    assert repr(out[0].delta[0]) == format_literal(out[0].delta[0]) == text
    assert out[0].store.render() == ""
    assert sys.getrecursionlimit() == limit


def test_answers_with_more_variables_than_the_recursion_limit():
    # the answer's emptiness probe and the first labelling each assign
    # every variable on one search path
    n = 2 * sys.getrecursionlimit()
    xs = ", ".join(f"X{i}" for i in range(n))
    theory = parse_theory(f"abducible_predicate(a/{n}).\ng({xs}) :- a({xs}).")
    goal = parse_goal(f"g({xs}), " + ", ".join(f"X{i} :: 0..1"
                                              for i in range(n)))
    ans = next(solve(theory, goal))
    sol = next(ans.labellings())
    assert [sol[v.id] for v in ans.delta[0].args] == [Int(0)] * n


def test_step_budget_stops_search():
    import time
    # a shallow but astronomically wide search (6^12 leaves, all failing)
    facts = "\n".join(f"c({i})." for i in range(1, 7))
    body = ", ".join(f"c(X{i})" for i in range(12))
    theory = parse_theory(f"{facts}\ng :- {body}, fail.")
    t0 = time.monotonic()
    with pytest.raises(StepBudgetError) as cut:
        list(solve(theory, parse_goal("g"), config=Config(max_steps=10_000)))
    assert cut.value.limit == 10_000
    assert time.monotonic() - t0 < 10.0


def test_a_step_budget_of_k_runs_exactly_k_steps():
    inst = generate_jobshop(4, 1)
    theory, goal = parse_theory(inst.program), parse_goal(inst.goal_text)

    def run(max_steps):
        solver = Solver(theory, Config(max_steps=max_steps))
        stream = [(repr(a.delta), a.store.render())
                  for a in solver.solve(goal)]
        return stream, solver.steps

    full, n = run(None)
    assert len(full) > 2
    # a budget the search does not reach is no budget
    assert run(n) == (full, n)
    k = n // 2
    stream, steps = run(k)
    assert steps == k
    assert 0 < len(stream) < len(full) and stream == full[:len(stream)]
    assert run(k) == (stream, k)
    short, steps = run(n - 1)
    assert steps == n - 1 and short == full[:len(short)]


@pytest.mark.parametrize("stream", [
    lambda theory, goal, config: Solver(theory, config).solve(goal),
    lambda theory, goal, config: solve(theory, goal, config=config),
], ids=["Solver.solve", "engine.solve"])
def test_a_stream_its_budget_cut_before_any_answer_raises(stream):
    # six c/1 goals over three facts, then fail: 3^6 leaves, none an answer
    text = "c(1). c(2). c(3).\ng :- c(A), c(B), c(C), c(D), c(E), c(F), fail."
    with pytest.raises(StepBudgetError, match="no answer in 100 steps") as cut:
        list(stream(parse_theory(text), parse_goal("g"),
                    Config(max_steps=100)))
    assert cut.value.limit == 100
    # the depth limit, met on the first clause of h, takes precedence
    # over the budget that then cuts the second
    with pytest.raises(DepthLimitExceededError):
        list(stream(parse_theory(text + "\np :- p.\nh :- p.\nh :- g."),
                    parse_goal("h"), Config(max_depth=20, max_steps=100)))


def test_first_labelling_of_a_one_sided_bound_draws_few_values(monkeypatch):
    # X #> 3 leaves X over 4..10^7: the answer's emptiness probe and the
    # first labelling must each try 4 without listing the whole domain
    drawn = []
    values = IntDomain.values

    def counting(dom):
        for v in values(dom):
            drawn.append(v)
            yield v

    monkeypatch.setattr(IntDomain, "values", counting)
    theory = parse_theory("abducible_predicate(a/1).\ng :- a(X), X #> 3.")
    ans = next(solve(theory, parse_goal("g")))
    sol = next(ans.labellings())
    assert sol[ans.delta[0].args[0].id] == Int(4)
    assert len(drawn) <= 4


# -- the shipped event-calculus program -------------------------------------

def test_event_calculus_projection_answer():
    theory = compile_naf(parse_theory(event_calculus_program()),
                         mode="autogenerate")
    goal = parse_goal("holds_at(in(package1, truck1), 4)")
    ans = next(solve(theory, goal))
    names = sorted(l.name for l in ans.delta)
    assert names == ["act", "not_clipped", "not_clipped", "not_clipped"]
    (act,) = [l for l in ans.delta if l.name == "act"]
    t, action = act.args
    assert action == Struct("load_truck",
                            (Atom("package1"), Atom("truck1"), Atom("city1_1")))
    # the action time stays non-ground, constrained to 1..3
    values = sorted(s[t.id].value for s in ans.labellings())
    assert values == [1, 2, 3]


# -- pre-unification filter ---------------------------------------------------

def _first_answers(theory, goal):
    """Δ with its variable ids, the rendered store and the first labelling
    of the first three answers, then the type of any error raised."""
    out = []
    stream = solve(theory, goal)
    try:
        for ans in stream:
            sol = next(ans.labellings(), None)
            out.append({"delta": repr(list(ans.delta)),
                        "store": ans.store.render(),
                        "labelling": None if sol is None else
                        [[vid, repr(t)] for vid, t in sol.items()]})
            if len(out) == 3:
                break
    except Exception as exc:          # the error type is part of the record
        out.append(type(exc).__name__)
    finally:
        stream.close()
    return out


def _every_entry(index, lit):
    """The values of every entry that `index` files under `lit`'s
    indicator, in insertion order."""
    at = index._at.get(lit.indicator)
    return [value for _, _, value in at[index._ALL]] if at else []


def _index_is_exact(theory, goal):
    """Whether the answers equal, up to a renumbering of variable ids, those
    of the same program with `_may_unify` accepting every candidate and
    `_Index.lookup` returning every entry of the indicator, which skips
    nothing."""
    filtered = _first_answers(theory, goal)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_may_unify", lambda *args, **kwargs: True)
        mp.setattr(engine._Index, "lookup", _every_entry)
        unfiltered = _first_answers(theory, goal)
    return canonical_ids(filtered) == canonical_ids(unfiltered)


def _exactness_cases():
    """(name, theory, goal) for the golden record's random theories, NAF
    programs, job shops and small blocks worlds."""
    for seed in range(200):
        text, goal = random_theory_text(random.Random(seed))
        yield f"theory-{seed}", parse_theory(text), parse_goal(goal)
    for seed in range(50):
        text, goal = random_naf_program_text(random.Random(seed))
        if goal is not None:
            yield (f"naf-{seed}",
                   compile_naf(parse_theory(text), mode="autogenerate"),
                   parse_goal(goal))
    for n in (3, 4):
        inst = generate_blocks(n, 1)
        yield (f"blocks-{n}",
               compile_naf(parse_theory(inst.program), mode="validate"),
               parse_goal(inst.goal_text))
    for n in (10, 25):
        inst = generate_jobshop(n, 1)
        yield (f"jobshop-{n}", parse_theory(inst.program),
               parse_goal(inst.goal_text))


def test_first_argument_index_is_exact():
    # skipping a clause, IC pairing, denial or Δ reuse that cannot unify
    # must change nothing but the numbers of fresh variable ids: the same
    # programs with every candidate accepted skip nothing
    mismatches = [name for name, theory, goal in _exactness_cases()
                  if not _index_is_exact(theory, goal)]
    assert mismatches == []


def _count_renamings(monkeypatch):
    """Counts of IC renamings ("ic") and of renamings of a conjunction's
    locals ("locals": denials, closed-world matches, clause resolutions)."""
    counts = Counter()
    rename_ic, fresh_locals = engine.standardize_ic, Solver._fresh_locals

    def counting_ic(ic, counter):
        counts["ic"] += 1
        return rename_ic(ic, counter)

    def counting_locals(self, items):
        counts["locals"] += 1
        return fresh_locals(self, items)

    monkeypatch.setattr(engine, "standardize_ic", counting_ic)
    monkeypatch.setattr(Solver, "_fresh_locals", counting_locals)
    return counts


def test_ic_with_a_clashing_constant_is_not_renamed(monkeypatch):
    # a(1, Y) clashes with a(one, X) (an atom is not an integer)
    text = """
        abducible_predicate(a/2).
        ic :- a(one, X), X #> 0.
        ic :- a(1, X), X #> 5.
        g(Y) :- a(1, Y).
    """
    theory, goal = parse_theory(text), parse_goal("g(Y)")
    counts = _count_renamings(monkeypatch)
    (ans,) = answers(text, "g(Y)")
    assert counts["ic"] == 1
    assert ans.store.domain(ans.delta[0].args[1]).max == 5
    assert _index_is_exact(theory, goal)


def test_ic_with_a_clashing_compound_is_not_renamed(monkeypatch):
    # f(Z) clashes with f(X, Y) (arity) and with g(X) (functor)
    text = """
        abducible_predicate(a/1).
        ic :- a(f(X, Y)).
        ic :- a(g(X)).
        ic :- a(f(X)), X #< 3.
        g(Z) :- a(f(Z)).
    """
    theory, goal = parse_theory(text), parse_goal("g(Z)")
    counts = _count_renamings(monkeypatch)
    (ans,) = answers(text, "g(Z)")
    assert counts["ic"] == 1
    (z,) = ans.delta[0].args[0].args
    assert ans.store.domain(z).min == 3
    assert _index_is_exact(theory, goal)


def test_domain_variable_first_argument_matches_every_key(monkeypatch):
    # X is a variable with a domain: it unifies with 2 and (failing in the
    # store) with one, so no IC may be skipped
    text = """
        abducible_predicate(a/1).
        ic :- a(2).
        ic :- a(one).
        g(X) :- X :: 1..3, a(X).
    """
    theory, goal = parse_theory(text), parse_goal("g(X)")
    counts = _count_renamings(monkeypatch)
    (ans,) = answers(text, "g(X)")
    assert counts["ic"] == 2
    assert ans.store.domain(ans.delta[0].args[0]) == IntDomain.of([1, 3])
    assert _index_is_exact(theory, goal)


def test_denial_first_argument_bound_after_it_was_recorded(monkeypatch):
    # refuting c(Y) records the denial a(Y) while Y is unbound; same/2
    # then binds Y to one, so a(two) clashes with the denial and a(one)
    # is refuted by it
    text = """
        abducible_predicate(a/1).
        abducible_predicate(b/1).
        c(X) :- a(X).
        ic :- b(X), c(X).
        same(X, X).
        g(Y, Z) :- b(Y), same(Y, one), a(Z).
    """
    counts = _count_renamings(monkeypatch)
    (ans,) = answers(text, "g(Y, two)")
    assert repr(ans.delta) == "(b(one), a(two))"
    assert counts["locals"] == 1      # the resolution with c's clause only
    assert answers(text, "g(Y, one)") == []
    for goal in ("g(Y, two)", "g(Y, one)"):
        assert _index_is_exact(parse_theory(text), parse_goal(goal))


def _record_reuses(monkeypatch):
    """The first arguments of the hypotheses that Δ reuse tries to unify,
    in order, and the number of reuse choice points pushed.  The programs
    using it have one 2-ary abducible and 1-ary clauses only, so every
    2-argument `_unify_args` is a reuse."""
    tried, choices = [], Counter()
    unify_args, choice = Solver._unify_args, Solver._choice

    def recording_unify(self, args1, args2):
        if len(args1) == 2:
            tried.append(args1[0])
        return unify_args(self, args1, args2)

    def counting_choice(self, step, mark=None):
        if ".reuse." in step.__qualname__:
            choices["reuse"] += 1
        return choice(self, step, mark)

    monkeypatch.setattr(Solver, "_unify_args", recording_unify)
    monkeypatch.setattr(Solver, "_choice", counting_choice)
    return tried, choices


def test_hypotheses_with_a_clashing_first_argument_are_not_reused(
        monkeypatch):
    text = """
        abducible_predicate(a/2).
        g(X) :- a(2, Y), a(3, Z), a(1, X).
    """
    tried, choices = _record_reuses(monkeypatch)
    (ans,) = answers(text, "g(X)")
    assert [l.args[0] for l in ans.delta] == [Int(2), Int(3), Int(1)]
    assert tried == [] and choices["reuse"] == 0
    monkeypatch.undo()
    assert _index_is_exact(parse_theory(text), parse_goal("g(X)"))


@pytest.mark.parametrize("decl, reused", [("true", 3), ("X :: 1..3", 2)])
def test_variable_first_argument_tries_every_hypothesis(monkeypatch, decl,
                                                        reused):
    # a(X, W) may reuse each hypothesis in turn, in insertion order; a
    # domain variable fails against one in the store, not by its key
    text = f"""
        abducible_predicate(a/2).
        g(X) :- a(2, p), a(one, q), a(3, r), {decl}, a(X, W).
    """
    tried, choices = _record_reuses(monkeypatch)
    out = answers(text, "g(X)")
    assert tried == [Int(2), Atom("one"), Int(3)]
    assert choices["reuse"] == 3
    assert [len(ans.delta) for ans in out] == [3] * reused + [4]
    monkeypatch.undo()
    assert _index_is_exact(parse_theory(text), parse_goal("g(X)"))


def test_a_variable_first_argument_hypothesis_matches_every_key(
        monkeypatch):
    # a(V, q) is filed under no key: a lookup by 2 tries it between the
    # two hypotheses keyed 2, in insertion order
    text = """
        abducible_predicate(a/2).
        g(W) :- a(2, p), a(V, q), a(2, r), a(2, W).
    """
    tried, choices = _record_reuses(monkeypatch)
    out = answers(text, "g(W)")
    assert [type(t) for t in tried] == [Int, Var, Int]
    assert choices["reuse"] == 3
    assert [len(ans.delta) for ans in out] == [3, 3, 3, 4]
    monkeypatch.undo()
    assert _index_is_exact(parse_theory(text), parse_goal("g(W)"))


def test_the_index_keeps_insertion_order_and_truncates_exactly():
    # a variable first argument, filed or bound later, matches every key;
    # a lookup tests the other arguments too
    # an index with a trail pushes each entry's undo on it, as the
    # store pushes each binding's
    store = ConstraintStore()
    index = engine._Index(store.walk, store.trail)
    v, w = Var("V", 1), Var("W", 2)

    def a(first, second=Atom("p")):
        return UserLit("a", (first, second))

    for i, first in enumerate((Int(2), v, Int(3), Int(2))):
        index.add(a(first), i)
    assert store.bind(v, Int(3))   # keyless: found by key 2, then rejected
    assert list(index) == [0, 1, 2, 3]
    assert index.lookup(a(Int(2))) == [0, 3]
    assert index.lookup(a(Int(3))) == [1, 2]
    assert index.lookup(a(Int(4))) == []
    assert index.lookup(a(w)) == [0, 1, 2, 3]
    assert index.lookup(a(w, Atom("q"))) == []
    assert index.lookup(UserLit("a", (Int(2),))) == []
    rewind(store.trail, 4)
    assert index.lookup(a(Int(2))) == [0, 1, 3]
    assert index.lookup(a(Int(4))) == [1]
    rewind(store.trail, 2)
    assert list(index) == [0, 1]
    assert index.lookup(a(Int(2))) == [0, 1]
    assert index.lookup(a(Int(3))) == [1]
    index.add(a(Int(3)), 4)
    assert index.lookup(a(Int(3))) == [1, 4]
    assert index.lookup(a(w)) == [0, 1, 4]


def test_a_template_index_files_and_tests_literals_as_written():
    # a clause head's parser ids may equal ids bound in the solver, so a
    # template is neither keyed nor tested through the bindings
    store = ConstraintStore()
    x = Var("X", 0)
    assert store.bind(x, Atom("b"))
    index = engine._Index(store.walk)
    index.add(UserLit("q", (x,)), "head")
    assert index.lookup(UserLit("q", (Atom("a"),))) == ["head"]
    assert index.lookup(UserLit("q", (x,))) == ["head"]


def _count_clause_tries(monkeypatch):
    """Counts of clause renamings ("renamed") and of `_unify_args` calls
    ("unified")."""
    counts = Counter()
    rename, unify_args = engine.standardize_apart, Solver._unify_args

    def counting_rename(clause, counter):
        counts["renamed"] += 1
        return rename(clause, counter)

    def counting_unify(self, args1, args2):
        counts["unified"] += 1
        return unify_args(self, args1, args2)

    monkeypatch.setattr(engine, "standardize_apart", counting_rename)
    monkeypatch.setattr(Solver, "_unify_args", counting_unify)
    return counts


_SECOND_ARGUMENT = """
    abducible_predicate(a/1).
    q(1, one).
    q(1, two).
    q(1, three).
"""


def test_goal_reduction_skips_a_head_clashing_in_its_second_argument(
        monkeypatch):
    # every head has the first argument 1: only the second tells them apart
    counts = _count_clause_tries(monkeypatch)
    assert [ans.delta for ans in answers(_SECOND_ARGUMENT, "q(1, three)")] \
        == [()]
    assert counts == {"renamed": 1, "unified": 1}
    counts.clear()
    assert answers(_SECOND_ARGUMENT, "q(1, four)") == []
    assert counts == {}
    monkeypatch.undo()
    for goal in ("q(1, three)", "q(1, four)", "q(1, X)"):
        assert _index_is_exact(parse_theory(_SECOND_ARGUMENT),
                               parse_goal(goal))


@pytest.mark.parametrize("ic, renamed, delta", [
    ("ic :- a(X), q(X, four).", 0, ["a(1)"]),   # refuted, nothing renamed
    ("ic :- a(X), q(X, two).", 1, None),         # q(1, two) proves the IC
])
def test_failure_derivation_skips_a_head_clashing_in_its_second_argument(
        monkeypatch, ic, renamed, delta):
    text = _SECOND_ARGUMENT + ic
    counts = _count_renamings(monkeypatch)
    tries = _count_clause_tries(monkeypatch)
    out = answers(text, "a(1)")
    assert [list(map(repr, ans.delta)) for ans in out] == (
        [] if delta is None else [delta])
    assert tries["renamed"] == renamed
    assert counts["locals"] == renamed
    monkeypatch.undo()
    assert _index_is_exact(parse_theory(text), parse_goal("a(1)"))


def test_hypotheses_clashing_inside_a_compound_are_not_reused(monkeypatch):
    # a(T, on(b1)) has a variable first argument, but on/1 never unifies
    # with clear/1
    text = """
        abducible_predicate(a/2).
        g(T) :- a(1, clear(b2)), a(T, on(b1)).
    """
    tried, choices = _record_reuses(monkeypatch)
    (ans,) = answers(text, "g(T)")
    assert len(ans.delta) == 2
    assert tried == [] and choices["reuse"] == 0
    monkeypatch.undo()
    assert _index_is_exact(parse_theory(text), parse_goal("g(T)"))


def test_domain_variable_still_tries_every_clause(monkeypatch):
    # X has a domain: it unifies with 2 and fails against one in the store,
    # not in the filter
    text = """
        q(one, a).
        q(2, b).
        g(X, Y) :- X :: 1..3, q(X, Y).
    """
    counts = _count_clause_tries(monkeypatch)
    (ans,) = answers(text, "g(X, Y)")
    assert ans.delta == ()
    # g's clause, then both clauses of q
    assert counts == {"renamed": 3, "unified": 3}
    monkeypatch.undo()
    assert _index_is_exact(parse_theory(text), parse_goal("g(X, Y)"))


def test_may_unify_walks_no_template_variable():
    # a clause head's parser ids may equal ids bound in the solver, so a
    # template's variables match anything, bound or not; a solver-side
    # term is walked
    store = ConstraintStore()
    x = Var("X", 0)
    assert store.bind(x, Atom("a"))
    walk, b = store.walk, (Atom("b"),)
    assert engine._may_unify((x,), b, walk, template=True)
    assert not engine._may_unify((x,), b, walk)
    assert not engine._may_unify(b, (x,), walk, template=True)
    nested = (Struct("f", (x, Int(1))),)
    assert engine._may_unify(nested, (Struct("f", (Atom("b"), Int(1))),),
                             walk, template=True)
    assert not engine._may_unify(nested, (Struct("f", (Atom("b"), Int(2))),),
                                 walk, template=True)
    assert not engine._may_unify(nested, (Struct("f", (Atom("b"),)),),
                                 walk, template=True)


# -- solver state: fixed, trailed, or set when a solve starts --------------

def _lengths(solver):
    """Length of every container attribute of `solver` and its store."""
    return {(part, name): len(value)
            for part, obj in (("solver", solver), ("store", solver.store))
            for name, value in vars(obj).items()
            if hasattr(value, "__len__") and not isinstance(value, str)}


def test_a_solver_holds_nothing_that_grows_with_its_search():
    # 7 blocks, seed 10 has no plan the search finds: the longer it runs,
    # the more refutation-local variables it renames apart
    inst = generate_blocks(7, 10)
    theory = compile_naf(parse_theory(inst.program), mode="validate")
    goal = parse_goal(inst.goal_text)
    before = _lengths(Solver(theory))
    for max_steps in (5_000, 10_000):
        solver = Solver(theory, Config(max_steps=max_steps))
        with pytest.raises(StepBudgetError):
            list(solver.solve(goal))
        assert solver.steps == max_steps
        assert _lengths(solver) == before


def _records(stream):
    try:
        return [(repr(a.delta), a.store.render()) for a in stream]
    except AclpError as e:
        return str(e)


@pytest.mark.parametrize("text, config, goals", [
    # the first solve spends the step budget that the second would need
    ("abducible_predicate(a/1).\ng(X) :- X :: 1..3, a(X).",
     Config(max_steps=6), ["g(X)", "g(X)"]),
    # the first solve hits the depth limit, the second does not
    ("p :- p.", Config(max_depth=3), ["p", "fail"]),
])
def test_a_reused_solver_streams_what_fresh_solvers_stream(text, config,
                                                          goals):
    theory = compile_naf(parse_theory(text), mode="autogenerate")
    solver = Solver(theory, config)
    reused = [_records(solver.solve(parse_goal(g))) for g in goals]
    fresh = [_records(Solver(theory, config).solve(parse_goal(g)))
             for g in goals]
    assert fresh[0] != []    # an answer, or the depth limit's error
    assert list(map(canonical_ids, reused)) == list(map(canonical_ids, fresh))


# -- locality rules of the refutation ---------------------------------------

def test_a_local_domain_variable_stays_shared_across_a_refutation():
    # the resolution with q(Z) copies the rest of the IC body: L, renamed
    # there without its domain, would escape 1..3, L #> 5 could hold, and
    # the IC would reject a(1)
    text = """
        abducible_predicate(a/1).
        q(Z).
        ic :- a(X), L :: 1..3, q(L), L #> 5.
        g :- a(1).
    """
    assert [repr(a.delta) for a in answers(text, "g")] == ["(a(1),)"]


def test_naf_with_a_local_argument_is_not_refuted_by_proving_it():
    # the second IC is violated at L = 1, where p(1) fails; proving p(2)
    # shows only that not_p(2) fails, not not_p(L) for every L
    text = """
        abducible_predicate(a/1).
        abducible_predicate(not_p/1).
        p(2).
        ic :- not_p(Y), p(Y).
        ic :- a(X), not_p(L), L #> 0.
        g :- a(1).
    """
    assert answers(text, "g") == []


def _oracle_accepts(theory, ans, goal):
    """Whether the ground oracle accepts the first labelling of `ans`."""
    ground = ans.ground_delta(next(ans.labellings()))
    return (goal_derivable(theory, ground, goal)
            and not violated_ics(theory, ground))


@pytest.mark.xfail(strict=True, reason="a local with a domain stays shared "
                   "across the clauses of a refutation: refuting s(c) binds "
                   "W to c, and the check of s(b) is vacuous")
def test_each_clause_refutes_its_own_copy_of_a_local_with_a_domain():
    text = """
        abducible_predicate(p/1).
        s(c) :- fail.
        s(b).
        ic :- p(Z), W :: [a, b, c], s(W).
        g :- p(1).
    """
    theory = compile_naf(parse_theory(text), mode="autogenerate")
    goal = parse_goal("g")
    # s(b) holds, so the IC rules p(1), the only Δ of g, out
    assert violated_ics(theory, (UserLit("p", (Int(1),)),))
    assert all(_oracle_accepts(theory, a, goal) for a in answers(text, "g"))


def test_an_ic_local_in_two_captured_equalities_is_refuted_by_negation():
    # r(L, L) captures A = L and B = L; L's domain covers A's, so the
    # match is impossible exactly when A ## B, in either order
    text = """
        abducible_predicate(p/1).
        abducible_predicate(r/2).
        ic :- p(X), L :: 0..3, r(L, L).
        g :- A :: 0..3, B :: 0..3, r(A, B), p(1).
        h :- A :: 0..3, B :: 0..3, p(1), r(A, B).
    """
    theory = compile_naf(parse_theory(text), mode="autogenerate")
    delta = (UserLit("r", (Int(0), Int(1))), UserLit("p", (Int(1),)))
    assert not violated_ics(theory, delta)
    (ans,) = answers(text, "h")
    assert _oracle_accepts(theory, ans, parse_goal("h"))
    (ans,) = answers(text, "g")
    assert _oracle_accepts(theory, ans, parse_goal("g"))
    assert set(ans.store.active_constraints()) == {Neq(*ans.delta[0].args)}


def test_an_answer_whose_store_has_no_ground_valuation_is_not_emitted():
    # three pairwise different variables over two values: propagation
    # sees no conflict, and only the answer's labelling probe rejects it
    text = """
        abducible_predicate(a/1).
        g :- X :: 0..1, Y :: 0..1, Z :: 0..1, X ## Y, Y ## Z, X ## Z, a(X).
    """
    assert answers(text, "g") == []


def test_interleaved_labellings_of_one_answer_enumerate_the_same():
    text = """
        abducible_predicate(a/2).
        g :- X :: 1..2, Y :: 1..2, a(X, Y).
    """
    (ans,) = answers(text, "g")
    first = ans.labellings()
    one = [next(first)]
    other = list(ans.labellings())
    one += list(first)
    assert len(one) == 4 and one == other
