"""Unification, substitution trailing and clause renaming."""

import pytest

from aclp.store import ConstraintStore, IntDomain, Neq, Or
from aclp.terms import (Atom, Clause, Int, Struct, Substitution, UserLit, Var,
                        VarCounter, is_ground, rewind, standardize_apart,
                        term_vars, unify, unify_terms)


def test_unify_binds_var_inside_struct():
    x = Var("X", 0)
    store = ConstraintStore()
    result = unify(Struct("f", (x,)), Struct("f", (Atom("a"),)), store)
    assert result is not None
    subst, _ = result
    assert subst.resolve(x) == Atom("a")


def test_unify_var_with_itself_binds_nothing():
    x = Var("X", 0)
    result = unify(x, x, ConstraintStore())
    assert result is not None
    subst, _ = result
    assert subst.resolve(x) == x


def test_unify_domain_var_with_excluded_int_fails():
    t = Var("T", 0)
    store = ConstraintStore()
    assert store.declare(t, IntDomain.range(1, 2))
    assert unify(t, Int(3), store) is None


def test_unify_domain_var_with_member_int_narrows():
    t = Var("T", 0)
    store = ConstraintStore()
    assert store.declare(t, IntDomain.range(1, 4))
    assert unify(t, Int(3), store) is not None
    assert list(store.domains[t.id].values()) == [3]


def test_unify_functor_mismatch_fails():
    store = ConstraintStore()
    assert unify(Struct("f", (Int(1),)), Struct("g", (Int(1),)), store) is None
    assert unify(Struct("f", (Int(1),)), Struct("f", (Int(1), Int(2))),
                 store) is None


def test_unify_occurs_check():
    x = Var("X", 0)
    assert unify(x, Struct("f", (x,)), ConstraintStore()) is None


def test_substitution_trail_is_lifo():
    s = Substitution()
    x, y = Var("X", 0), Var("Y", 1)
    m0 = len(s.trail)
    s.bind(x, Int(1))
    m1 = len(s.trail)
    s.bind(y, Atom("a"))
    assert s.resolve(y) == Atom("a")
    assert s.bound_since(m0) == [x, y] and s.bound_since(m1) == [y]
    rewind(s.trail, m1)
    assert s.resolve(y) == y
    assert s.resolve(x) == Int(1)
    rewind(s.trail, m0)
    assert s.resolve(x) == x
    assert s.trail == [] and s.bindings == {}


def test_unify_terms_is_undone_by_trail():
    # one trail undoes the bindings and the store's domain writes alike
    store = ConstraintStore()
    s = Substitution(store.trail)
    x, d = Var("X", 0), Var("D", 1)
    assert store.declare(d, IntDomain.range(1, 5))
    m = len(store.trail)
    assert unify_terms(Struct("f", (x, d)), Struct("f", (Int(1), Int(2))),
                       s, store)
    assert s.resolve(x) == Int(1)
    assert store.domains[d.id] == IntDomain.range(2, 2)
    assert s.bound_since(m) == [x]
    rewind(store.trail, m)
    assert s.resolve(x) == x
    assert store.domains[d.id] == IntDomain.range(1, 5)
    assert store.render() == "D ∈ {1..5}"


def test_a_binding_re_enters_the_constraints_that_name_its_variable():
    # X, Y and Z have no domain: `X ## a` waits, and the disjunction has
    # two satisfiable sides until Z is bound
    store = ConstraintStore()
    s = Substitution(store.trail)
    x, y, z, d = Var("X", 0), Var("Y", 1), Var("Z", 2), Var("D", 3)
    assert store.declare(d, IntDomain.range(0, 1))
    assert store.post(Neq(x, Atom("a")))
    assert store.post(Or(Neq(z, Atom("a")), Neq(d, Int(0))))
    m = store.snapshot()
    assert unify_terms(x, y, s, store)
    assert store.render() == ("D ∈ {0..1}\n(_Z#2 ## a #\\/ _D#3 ## 0)\n"
                              "_Y#1 ## a")
    assert not unify_terms(y, Atom("a"), s, store)
    store.restore(m)
    assert unify_terms(z, Atom("a"), s, store)
    assert store.render() == "D ∈ {1}\n_X#0 ## a"
    store.restore(m)
    assert store.render() == ("D ∈ {0..1}\n_X#0 ## a\n"
                              "(_Z#2 ## a #\\/ _D#3 ## 0)")
    assert s.bindings == {}


def test_standardize_apart_renames_all_vars_consistently():
    x = Var("X", 0)
    clause = Clause(UserLit("p", (x,)), (UserLit("q", (x, Var("Y", 1))),))
    counter = VarCounter(start=100)
    renamed, newvars = standardize_apart(clause, counter)
    hx = renamed.head.args[0]
    bx, by = renamed.body[0].args
    assert hx.id == bx.id and hx.id != x.id
    assert by.id != bx.id
    assert {v.id for v in newvars} == {hx.id, by.id}
    # a second renaming never collides with the first
    renamed2, _ = standardize_apart(clause, counter)
    assert renamed2.head.args[0].id != hx.id


def test_term_vars_and_is_ground():
    x = Var("X", 0)
    t = Struct("f", (Int(1), Struct("g", (x, x)), Atom("a")))
    assert [v.id for v in term_vars(t)] == [0, 0]
    assert not is_ground(t)
    assert is_ground(Struct("f", (Int(1), Atom("a"))))


def test_literal_indicator():
    assert UserLit("p", (Int(1), Int(2))).indicator == ("p", 2)
    assert UserLit("q", ()).indicator == ("q", 0)


def test_equal_terms_nested_deeper_than_the_recursion_limit_hash_equal():
    a = b = Atom("z")
    for _ in range(5000):
        a, b = Struct("s", (a,)), Struct("s", (b,))
    assert a is not b and a == b and hash(a) == hash(b)
