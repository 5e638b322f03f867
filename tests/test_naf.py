"""Negation-as-failure compilation: rewriting, validation, synthesis."""

import pytest

from aclp.parser import parse_theory
from aclp.terms import NafLit, UserLit
from aclp.theory import TheoryError, compile_naf


def test_rewrites_naf_body_literal():
    theory = parse_theory("""
        abducible_predicate(not_q/0).
        p :- not(q).
        ic :- not_q, q.
    """)
    out = compile_naf(theory, mode="validate")
    (clause,) = out.clauses_for("p", 0)
    assert clause.body == (UserLit("not_q", ()),)
    assert not any(isinstance(l, NafLit)
                   for c in out.all_clauses() for l in c.body)
    assert out.naf_complements[("not_q", 0)] == ("q", 0)


def test_theory_without_naf_is_unchanged():
    theory = parse_theory("abducible_predicate(a/1).\np(X) :- a(X).")
    out = compile_naf(theory, mode="validate")
    assert out.abducibles == theory.abducibles
    assert list(out.all_clauses()) == list(theory.all_clauses())
    assert out.ics == theory.ics


def test_naf_free_clauses_and_ics_are_kept_as_they_are():
    theory = parse_theory("""
        abducible_predicate(a/1).
        abducible_predicate(not_q/0).
        p(X) :- a(X).
        r :- not(q).
        ic :- a(X), b(X).
        ic :- not_q, q.
    """)
    out = compile_naf(theory, mode="validate")
    assert out.clauses_for("p", 1)[0] is theory.clauses_for("p", 1)[0]
    assert out.clauses_for("r", 0)[0] is not theory.clauses_for("r", 0)[0]
    assert [a is b for a, b in zip(out.ics, theory.ics)] == [True, True]


def test_validate_mode_requires_declaration():
    theory = parse_theory("p :- not(q).")
    with pytest.raises(TheoryError) as e:
        compile_naf(theory, mode="validate")
    assert e.value.code == "MISSING_NAF_DECLARATION"
    assert "not_q/0" in e.value.detail


def test_validate_mode_requires_canonical_ic():
    theory = parse_theory("abducible_predicate(not_q/0).\np :- not(q).")
    with pytest.raises(TheoryError) as e:
        compile_naf(theory, mode="validate")
    assert e.value.code == "MISSING_CANONICAL_IC"


def test_autogenerate_synthesizes_declaration_and_ic():
    theory = parse_theory("p :- not(q).\nq :- r.\nr.")
    out = compile_naf(theory, mode="autogenerate")
    assert ("not_q", 0) in out.abducibles
    guards = [ic for ic in out.ics
              if any(isinstance(l, UserLit) and l.name == "not_q"
                     for l in ic.body)]
    assert len(guards) == 1
    names = [l.name for l in guards[0].body]
    assert sorted(names) == ["not_q", "q"]


def test_autogenerate_preserves_arity():
    theory = parse_theory("p(X) :- not(q(X)).\nq(1).")
    out = compile_naf(theory, mode="autogenerate")
    assert ("not_q", 1) in out.abducibles
    guard = next(ic for ic in out.ics
                 if any(isinstance(l, UserLit) and l.name == "not_q"
                        for l in ic.body))
    not_q, q = guard.body
    assert not_q.args == q.args  # same variable links the pair


def test_compile_is_idempotent():
    theory = parse_theory("p :- not(q).\nq :- r.\nr.")
    once = compile_naf(theory, mode="autogenerate")
    twice = compile_naf(once, mode="autogenerate")
    assert twice.abducibles == once.abducibles
    assert len(twice.ics) == len(once.ics)
    assert list(twice.all_clauses()) == list(once.all_clauses())


def test_user_written_not_p_is_recognized_as_complement():
    theory = parse_theory("""
        abducible_predicate(not_q/0).
        p :- not_q.
        q :- r.
        r.
        ic :- not_q, q.
    """)
    out = compile_naf(theory, mode="validate")
    assert out.naf_complements[("not_q", 0)] == ("q", 0)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        compile_naf(parse_theory(""), mode="strict")
