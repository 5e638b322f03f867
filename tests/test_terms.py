"""Unification, the store's trailed bindings and clause renaming."""

import pytest

from aclp.store import ConstraintStore, IntDomain, Neq, Or
from aclp.terms import (Atom, Clause, Int, Struct, UserLit, Var, VarCounter,
                        is_ground, rewind, standardize_apart, term_vars,
                        unify_terms)


def unify(t1, t2, store):
    """Whether `t1` and `t2` unify in `store`; a failed unification leaves
    the store as it found it."""
    mark = store.snapshot()
    if unify_terms(t1, t2, store):
        return True
    store.restore(mark)
    return False


def test_unify_binds_var_inside_struct():
    x = Var("X", 0)
    store = ConstraintStore()
    assert unify(Struct("f", (x,)), Struct("f", (Atom("a"),)), store)
    assert store.resolve(x) == Atom("a")
    assert store.bound_since(0) == [x]


def test_unify_var_with_itself_binds_nothing():
    x = Var("X", 0)
    store = ConstraintStore()
    assert unify(x, x, store)
    assert store.resolve(x) == x
    assert store.trail == [] and store.bindings == {}


def test_unify_domain_var_with_excluded_int_fails():
    t = Var("T", 0)
    store = ConstraintStore()
    assert store.declare(t, IntDomain.range(1, 2))
    mark = store.snapshot()
    assert not unify(t, Int(3), store)
    # a domain value is a scalar, never a compound
    assert not unify(Struct("f", (Int(1),)), t, store)
    assert store.snapshot() == mark and store.consistent
    assert store.render() == "T ∈ {1..2}"


def test_unify_domain_var_with_member_int_narrows():
    t = Var("T", 0)
    store = ConstraintStore()
    assert store.declare(t, IntDomain.range(1, 4))
    assert unify(t, Int(3), store)
    assert list(store.domains[t.id].values()) == [3]
    assert store.bindings == {}


def test_unify_functor_mismatch_fails():
    store = ConstraintStore()
    assert not unify(Struct("f", (Int(1),)), Struct("g", (Int(1),)), store)
    assert not unify(Struct("f", (Int(1),)), Struct("f", (Int(1), Int(2))),
                     store)
    assert not unify(Struct("f", (Int(1),)), Int(1), store)
    assert not unify(Int(1), Atom("a"), store)


def test_unify_occurs_check():
    x, y = Var("X", 0), Var("Y", 1)
    store = ConstraintStore()
    assert not unify(x, Struct("f", (x,)), store)
    assert store.trail == []
    # the check walks the bindings: Y is X once bound
    assert unify(y, x, store)
    assert store.walk(y) == x and store.occurs(x, Struct("g", (y,)))
    assert not unify(x, Struct("g", (Atom("a"), y)), store)
    assert store.bound_since(0) == [y]


def test_substitution_trail_is_lifo():
    s = ConstraintStore()
    x, y = Var("X", 0), Var("Y", 1)
    m0 = len(s.trail)
    assert s.bind(x, Int(1))
    m1 = len(s.trail)
    assert s.bind(y, Atom("a"))
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
    x, d = Var("X", 0), Var("D", 1)
    assert store.declare(d, IntDomain.range(1, 5))
    m = len(store.trail)
    assert unify_terms(Struct("f", (x, d)), Struct("f", (Int(1), Int(2))),
                       store)
    assert store.resolve(x) == Int(1)
    assert store.domains[d.id] == IntDomain.range(2, 2)
    assert store.bound_since(m) == [x]
    rewind(store.trail, m)
    assert store.resolve(x) == x
    assert store.domains[d.id] == IntDomain.range(1, 5)
    assert store.render() == "D ∈ {1..5}"


def test_a_binding_re_enters_the_constraints_that_name_its_variable():
    # X, Y and Z have no domain: `X ## a` waits, and the disjunction has
    # two satisfiable sides until Z is bound
    store = ConstraintStore()
    x, y, z, d = Var("X", 0), Var("Y", 1), Var("Z", 2), Var("D", 3)
    assert store.declare(d, IntDomain.range(0, 1))
    assert store.post(Neq(x, Atom("a")))
    assert store.post(Or(Neq(z, Atom("a")), Neq(d, Int(0))))
    m = store.snapshot()
    assert unify_terms(x, y, store)
    assert store.render() == ("D ∈ {0..1}\n(_Z#2 ## a #\\/ _D#3 ## 0)\n"
                              "_Y#1 ## a")
    assert not unify_terms(y, Atom("a"), store)
    store.restore(m)
    assert unify_terms(z, Atom("a"), store)
    assert store.render() == "D ∈ {1}\n_X#0 ## a"
    store.restore(m)
    assert store.render() == ("D ∈ {0..1}\n_X#0 ## a\n"
                              "(_Z#2 ## a #\\/ _D#3 ## 0)")
    assert store.bindings == {}


def test_equations_are_captured_not_posted_when_asked():
    # an equation between domain variables, or one and a constant, is
    # collected; a variable without a domain is still bound
    store = ConstraintStore()
    x, d, e = Var("X", 0), Var("D", 1), Var("E", 2)
    assert store.declare(d, IntDomain.range(0, 3))
    assert store.declare(e, IntDomain.range(0, 3))
    caps = []
    assert unify_terms(Struct("f", (d, x, e)), Struct("f", (e, d, Int(5))),
                       store, caps)
    assert [repr(c) for c in caps] == ["_D#1 #= _E#2", "_E#2 #= 5"]
    assert store.walk(x) == d
    assert store.render() == "D ∈ {0..3}\nE ∈ {0..3}"


def test_standardize_apart_renames_all_vars_consistently():
    x = Var("X", 0)
    clause = Clause(UserLit("p", (x,)), (UserLit("q", (x, Var("Y", 1))),))
    counter = VarCounter(start=100)
    renamed = standardize_apart(clause, counter)
    hx = renamed.head.args[0]
    bx, by = renamed.body[0].args
    assert hx.id == bx.id and hx.id != x.id
    assert by.id != bx.id
    fresh = {v.id for lit in (renamed.head,) + renamed.body
             for a in lit.args for v in term_vars(a)}
    assert fresh == {hx.id, by.id} and fresh.isdisjoint({0, 1})
    # a second renaming never collides with the first
    renamed2 = standardize_apart(clause, counter)
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
