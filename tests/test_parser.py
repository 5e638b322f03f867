"""Surface syntax: parsing, error reporting and pretty-print round-trips."""

import sys

import pytest

from aclp.corpus import generate_blocks, generate_jobshop
from aclp.engine import solve
from aclp.parser import (ParseFailure, format_theory, parse_facts, parse_goal,
                         parse_theory)
from aclp.store import And, Eq, Le, Lt, Neq, Or, TermEq
from aclp.terms import (ConstraintLit, DomainDecl, Int, NafLit, Struct,
                        UserLit, Var)
from aclp.theory import AbductiveTheory

import importlib.resources


def ec_text() -> str:
    return (importlib.resources.files("aclp") / "programs"
            / "eventcalculus.aclp").read_text()


# -- structure --------------------------------------------------------------

def test_parse_facts_rules_abducibles_and_ics():
    theory = parse_theory("""
        abducible_predicate(a/1).
        p(1).
        p(X) :- X :: 1..5, a(X), X #< 4.
        ic :- a(X), X #> 3.
    """)
    assert theory.abducibles == {("a", 1)}
    assert len(theory.clauses_for("p", 1)) == 2
    assert len(theory.ics) == 1
    fact = theory.clauses_for("p", 1)[0]
    assert fact.head == UserLit("p", (Int(1),)) and fact.body == ()
    rule = theory.clauses_for("p", 1)[1]
    decl, call, cmp = rule.body
    assert isinstance(decl, DomainDecl) and decl.lo == Int(1)
    assert isinstance(call, UserLit) and call.name == "a"
    assert isinstance(cmp, ConstraintLit) and isinstance(cmp.constraint, Lt)


def test_parse_operator_forms():
    goal = parse_goal("X :: 1..9, X #<= 5, X ## 3, X #>= 1 #/\\ X #< 9, "
                      "X #= 2 #\\/ X #= 4, f(X) ##= f(Y)")
    kinds = [type(l.constraint) for l in goal[1:]]
    assert kinds == [Le, Neq, And, Or, TermEq]


def test_parse_atom_domain_and_naf():
    goal = parse_goal("X :: [a,b,c], not(q(X))")
    decl, naf = goal
    assert isinstance(decl, DomainDecl)
    assert [a.name for a in decl.atoms] == ["a", "b", "c"]
    assert isinstance(naf, NafLit) and naf.inner.name == "q"


def test_operators_bind_by_strength():
    X, Y, Z = Var("X", 0), Var("Y", 1), Var("Z", 2)
    (lit,) = parse_goal("X #= 1 #\\/ Y #= 2 #/\\ Z #= 3")
    assert lit.constraint == Or(Eq(X, Int(1)),
                                And(Eq(Y, Int(2)), Eq(Z, Int(3))))
    (lit,) = parse_goal("X - 1 #<= Y + 2")
    assert lit.constraint == Le(Struct("-", (X, Int(1))), Struct("+", (Y, Int(2))))
    (lit,) = parse_goal("X - 1 + 2 ##= Y")
    assert lit.constraint == TermEq(
        Struct("+", (Struct("-", (X, Int(1))), Int(2))), Y)


def test_parse_arith_offsets():
    (lit,) = parse_goal("S1 + 3 #<= S2")
    c = lit.constraint
    assert isinstance(c, Le)
    assert isinstance(c.a, Struct) and c.a.functor == "+"


def test_vars_share_identity_within_a_clause():
    theory = parse_theory("p(X) :- q(X, Y), r(Y).")
    # p is defined via q and r which are unknown, but parsing still works
    (clause,) = theory.clauses_for("p", 1)
    head_x = clause.head.args[0]
    q_x, q_y = clause.body[0].args
    (r_y,) = clause.body[1].args
    assert head_x.id == q_x.id
    assert q_y.id == r_y.id
    assert head_x.id != q_y.id


def test_ic_source_order_is_preserved():
    theory = parse_theory("""
        abducible_predicate(a/0).
        abducible_predicate(b/0).
        ic :- b, a.
        ic :- a.
    """)
    assert [len(ic.body) for ic in theory.ics] == [2, 1]
    assert theory.ics[0].body[0].name == "b"


# -- errors -----------------------------------------------------------------

def test_syntax_error_carries_position():
    with pytest.raises(ParseFailure) as e:
        parse_goal("p(")
    err = e.value.errors[0]
    assert err.category == "syntax"
    assert err.line == 1 and err.column >= 2


def test_multiple_errors_are_collected():
    with pytest.raises(ParseFailure) as e:
        parse_theory("p :- .\nq :- .\n")
    assert len(e.value.errors) >= 2


def test_errors_name_variables_by_source_name():
    with pytest.raises(ParseFailure) as e:
        parse_theory("abducible_predicate(X).\np :- X.\n")
    assert [err.message for err in e.value.errors] == [
        "malformed abducible declaration X", "expected a goal, found X"]


def test_errors_print_an_anonymous_variable_as_written():
    with pytest.raises(ParseFailure) as e:
        parse_theory("abducible_predicate(_).\np :- _.\n"
                     "abducible_predicate(f(_, _)).\n")
    assert [err.message for err in e.value.errors] == [
        "malformed abducible declaration _", "expected a goal, found _",
        "malformed abducible declaration f(_,_)"]


def test_ic_without_abducible_is_a_validation_error():
    with pytest.raises(ParseFailure) as e:
        parse_theory("p(1).\nic :- p(X).")
    assert any("IC_WITHOUT_ABDUCIBLE" in err.message for err in e.value.errors)


def test_abducible_with_clauses_is_a_validation_error():
    with pytest.raises(ParseFailure) as e:
        parse_theory("abducible_predicate(a/0).\na.")
    assert any("ABDUCIBLE_HAS_CLAUSES" in err.message for err in e.value.errors)


def test_empty_ic_body_rejected():
    with pytest.raises(ParseFailure):
        parse_theory("abducible_predicate(a/0).\nic.")


def test_empty_input_is_an_empty_theory():
    theory = parse_theory("")
    assert isinstance(theory, AbductiveTheory)
    assert not theory.abducibles and not theory.ics
    assert not list(theory.all_clauses())


def test_comments_are_ignored():
    theory = parse_theory("% a comment\np(1). % trailing\n")
    assert len(theory.clauses_for("p", 1)) == 1


def test_illegal_character_reported():
    with pytest.raises(ParseFailure):
        parse_theory("p :- q & r.")


# (parser, input, [(line, column, category, message)]) for every kind of
# parse error, a multi-error resync and a facts file
ERROR_TABLE = [
    (parse_theory, "p(a) :- q.\np(b) :- q @ r.\n",
     [(2, 11, "syntax", "illegal character '@'")]),
    (parse_theory, "p(,).",
     [(1, 3, "syntax", "expected a term, found ','")]),
    (parse_theory, "p(-a).",
     [(1, 4, "syntax", "expected integer after '-'")]),
    (parse_theory, "abducible_predicate(a/b).",
     [(1, 23, "syntax", "expected arity after '/'")]),
    (parse_theory, "p(a b).",
     [(1, 5, "syntax", "expected ')', found 'b'")]),
    (parse_theory, "p(a) q.",
     [(1, 6, "syntax", "expected '.', found 'q'")]),
    (parse_theory, "p :- q",
     [(1, 7, "syntax", "expected '.', found 'end of input'")]),
    (parse_theory, "g :- X :: 1 5.",
     [(1, 13, "syntax", "expected '..', found '5'")]),
    (parse_theory, "g :- X :: [a b].",
     [(1, 14, "syntax", "expected ']', found 'b'")]),
    (parse_theory, "g :- (X + 1).",
     [(1, 12, "syntax", "expected a constraint operator")]),
    (parse_theory, "g :- X :: [a, 1].",
     [(1, 15, "syntax", "expected an atom in domain list")]),
    (parse_theory, "g :- X + 1.",
     [(1, 11, "syntax", "arithmetic term is not a valid goal")]),
    (parse_theory, "g :- 3.",
     [(1, 7, "syntax", "expected a goal, found 3")]),
    (parse_theory, "abducible_predicate(a/0).\nic.",
     [(2, 1, "validation", "integrity constraint with empty body")]),
    (parse_theory, "abducible_predicate(a).",
     [(1, 1, "validation", "malformed abducible declaration a")]),
    (parse_theory, "p(,).\nq(a).\n  r(a b) :- s.\nt :- X #< .\nu :- not(v.\n",
     [(1, 3, "syntax", "expected a term, found ','"),
      (3, 7, "syntax", "expected ')', found 'b'"),
      (4, 11, "syntax", "expected a term, found '.'"),
      (5, 11, "syntax", "expected ')', found '.'")]),
    (parse_goal, "p(X) q(X)",
     [(1, 6, "syntax", "unexpected input after goal: 'q'")]),
    (parse_goal, "p(X), X #/\\ Y",
     [(1, 9, "syntax", "expected a constraint operator")]),
    (parse_goal, "",
     [(1, 1, "syntax", "expected a term, found 'end of input'")]),
    (parse_facts, "a(1).\nb(2) c(3).\n",
     [(2, 6, "syntax", "expected '.', found 'c'")]),
    (parse_facts, "a(1).\nb(X,\n",
     [(3, 1, "syntax", "expected a term, found 'end of input'")]),
    (parse_theory, "p(1).\nq(2).\n  abducible_predicate(f(X)).\n",
     [(3, 3, "validation", "malformed abducible declaration f(X)")]),
    (parse_theory, "g :- X #< Y #< Z.",
     [(1, 13, "syntax", "expected '.', found '#<'")]),
    (parse_theory, "g :- X #< (Y).",
     [(1, 11, "syntax", "expected a term, found '('")]),
    (parse_theory, "g :- (X #= 1) + 2.",
     [(1, 15, "syntax", "expected '.', found '+'")]),
    (parse_theory, "g :- a #/\\ b.",
     [(1, 8, "syntax", "expected a constraint operator")]),
    (parse_theory, "p(X + 1).",
     [(1, 5, "syntax", "expected ')', found '+'")]),
    (parse_theory, "g :- X :: 1 #< 2..5.",
     [(1, 13, "syntax", "expected '..', found '#<'")]),
    (parse_theory, "p(1).\nabducible_predicate(a/0).\n\na :- p(1).\n",
     [(4, 1, "validation", "ABDUCIBLE_HAS_CLAUSES: a/0 is declared "
       "abducible but has defining clauses")]),
    (parse_theory, "abducible_predicate(b/0).\nabducible_predicate(a/0).\n"
                   "a.\nb :- a.\n",
     [(3, 1, "validation", "ABDUCIBLE_HAS_CLAUSES: a/0 is declared "
       "abducible but has defining clauses"),
      (4, 1, "validation", "ABDUCIBLE_HAS_CLAUSES: b/0 is declared "
       "abducible but has defining clauses")]),
    (parse_theory, "abducible_predicate(a/0).\np(1).\n  ic :- p(1).\n",
     [(3, 3, "validation",
       "IC_WITHOUT_ABDUCIBLE: no abducible body literal in ic :- p(1).")]),
    (parse_theory, "g :- X #= Y + a.",
     [(1, 8, "syntax", "non-scalar operand Y + a of #=")]),
    (parse_theory, "g :- X - 1 + 2 #<= Y.",
     [(1, 16, "syntax", "non-scalar operand X - 1 + 2 of #<=")]),
    (parse_theory, "g :- Y #> 2 #\\/ X ## f(Y).",
     [(1, 19, "syntax", "non-scalar operand f(Y) of ##")]),
    (parse_goal, "X #< a + 1",
     [(1, 3, "syntax", "non-scalar operand a + 1 of #<")]),
]


@pytest.mark.parametrize("parse, text, expected", ERROR_TABLE)
def test_error_table(parse, text, expected):
    with pytest.raises(ParseFailure) as e:
        parse(text)
    assert [(err.line, err.column, err.category, err.message)
            for err in e.value.errors] == expected


# -- round-trips ------------------------------------------------------------

def corpus_texts():
    texts = [ec_text()]
    for n in (3, 5, 8):
        texts.append(generate_blocks(n, seed=1).program)
    for n in (5, 10, 25):
        texts.append(generate_jobshop(n, seed=1).program)
    return texts


@pytest.mark.parametrize("idx", range(7))
def test_round_trip_on_corpus(idx):
    text = corpus_texts()[idx]
    theory = parse_theory(text)
    printed = format_theory(theory)
    reparsed = parse_theory(printed)
    assert format_theory(reparsed) == printed
    assert reparsed.abducibles == theory.abducibles
    assert len(reparsed.ics) == len(theory.ics)
    assert sorted(reparsed.clauses) == sorted(theory.clauses)


def test_round_trip_preserves_goal_rendering():
    from aclp.parser import format_literal
    text = "X :: 1..5, p(f(X, a)), X + 1 #<= 4, not(q(X))"
    goal = parse_goal(text)
    printed = ", ".join(format_literal(l) for l in goal)
    goal2 = parse_goal(printed)
    assert ", ".join(format_literal(l) for l in goal2) == printed


def test_nesting_deeper_than_the_recursion_limit():
    n = 2 * sys.getrecursionlimit()
    deep = "s(" * n + "z" + ")" * n
    theory = parse_theory(f"p({deep}).")
    printed = format_theory(theory)
    assert printed == f"p({deep}).\n"
    assert parse_theory(printed).clauses == theory.clauses
    assert next(solve(theory, parse_goal(f"p({deep})")), None) is not None


def test_constraint_brackets_deeper_than_the_recursion_limit():
    n = 2 * sys.getrecursionlimit()
    nested = "(" * n + "X #= 1" + ")" * n
    right = "X #= 1 #\\/ (" * n + "X #= 1 #\\/ X #= 2" + ")" * n
    theory = parse_theory(f"p(X) :- X :: 0..5, {nested}, {right}.")
    printed = format_theory(theory)
    assert printed == f"p(X) :- X :: 0..5, X #= 1, {right}.\n"
    assert format_theory(parse_theory(printed)) == printed
    assert next(solve(theory, parse_goal("p(X)")), None) is not None
