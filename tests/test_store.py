"""Finite-domain store: domains, propagation, negation, entailment,
labelling and snapshots.  Expected values here were computed by hand or by
the brute-force oracle in oracles.py."""

import random
import sys

import pytest

from aclp.store import (ACTIVE, And, AtomDomain, ConstraintStore, Eq, Ge, Gt,
                        IntDomain, Le, Lt, Neq, Or, StoreTypeError, TermEq,
                        TermNeq, _watched, constraint_vars, map_constraint,
                        negate, split_offset)
from aclp.terms import Atom, Int, Struct, Var

from oracles import brute_force_solutions, build_store, store_solutions


def make(*domains):
    """Store with X0..Xn-1 declared over the given value lists."""
    store = ConstraintStore()
    vars_ = []
    for i, values in enumerate(domains):
        v = Var(f"X{i}", i)
        vars_.append(v)
        dom = IntDomain.of(values) if isinstance(values[0], int) \
            else AtomDomain.of(values)
        assert store.declare(v, dom)
    return store, vars_


# -- domains ----------------------------------------------------------------

def test_int_domain_basics():
    d = IntDomain.range(1, 5)
    assert (d.min, d.max, d.size) == (1, 5, 5)
    assert d.contains(3) and not d.contains(0)
    assert list(IntDomain.of([4, 1, 1, 3]).values()) == [1, 3, 4]
    assert IntDomain.of([7]).singleton
    assert IntDomain.of([]).empty


def test_int_domain_operations():
    d = IntDomain.of([1, 2, 3, 7, 8])
    assert list(d.remove(2).values()) == [1, 3, 7, 8]
    assert list(d.shift(10).values()) == [11, 12, 13, 17, 18]
    assert list(d.intersect(IntDomain.range(3, 7)).values()) == [3, 7]
    assert list(d.clamp(2, None).values()) == [2, 3, 7, 8]
    assert list(d.clamp(None, 7).values()) == [1, 2, 3, 7]


def test_atom_domain_basics():
    d = AtomDomain.of(["b", "a", "b"])
    assert list(d.values()) == ["b", "a"]  # insertion order, deduplicated
    assert d.contains("a") and not d.contains("c")
    assert AtomDomain.of(["x"]).singleton
    assert list(d.remove("b").values()) == ["a"]
    assert list(d.intersect(AtomDomain.of(["c", "a"])).values()) == ["a"]


def test_intersections_match_set_intersection():
    rng = random.Random(0)
    for _ in range(300):
        d1, d2 = (IntDomain.of(rng.sample(range(-20, 40), rng.randint(0, 30)))
                  for _ in range(2))
        assert d1.intersect(d2) == IntDomain.of(
            set(d1.values()) & set(d2.values()))
        names = [f"a{i}" for i in range(12)]
        a1 = AtomDomain.of(rng.sample(names, rng.randint(0, 12)))
        a2 = AtomDomain.of(rng.sample(names, rng.randint(0, 12)))
        assert list(a1.intersect(a2).values()) == \
            [x for x in a1.values() if a2.contains(x)]


# -- declaration ------------------------------------------------------------

def test_redeclare_intersects():
    store, (x,) = make([1, 2, 3, 4, 5])
    assert store.declare(x, IntDomain.range(3, 9))
    assert list(store.domains[x.id].values()) == [3, 4, 5]


def test_redeclare_disjoint_is_unsat():
    store, (x,) = make([1, 2])
    assert not store.declare(x, IntDomain.range(5, 6))
    assert not store.consistent


# -- propagation (frozen expected values) -----------------------------------

def test_lt_prunes_both_bounds():
    store, (x, y) = make([1, 2, 3, 4, 5], [1, 2, 3])
    assert store.post(Lt(x, y))
    assert list(store.domains[x.id].values()) == [1, 2]
    assert list(store.domains[y.id].values()) == [2, 3]


def test_le_with_offset():
    # X <= Y - 2 with X,Y in 1..5 forces X in 1..3, Y in 3..5
    store, (x, y) = make([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    assert store.post(Le(x, Struct("-", (y, Int(2)))))
    assert list(store.domains[x.id].values()) == [1, 2, 3]
    assert list(store.domains[y.id].values()) == [3, 4, 5]


def test_eq_reflexive_entailed():
    store, (x,) = make([1, 2, 3])
    assert store.post(Eq(x, x))
    assert list(store.domains[x.id].values()) == [1, 2, 3]


def test_neq_reflexive_unsat():
    store, (x,) = make([1, 2, 3])
    assert not store.post(Neq(x, x))
    assert not store.consistent


def test_eq_unifies_domains():
    store, (x, y) = make([1, 2, 3], [2, 3, 4])
    assert store.post(Eq(x, y))
    assert list(store.domains[x.id].values()) == [2, 3]
    assert list(store.domains[y.id].values()) == [2, 3]


def test_neq_singleton_prunes():
    store, (x, y) = make([2], [1, 2, 3])
    assert store.post(Neq(y, x))
    assert list(store.domains[y.id].values()) == [1, 3]


def test_term_eq_decomposes_one_level():
    store, (x, y) = make([1, 2, 3], [5, 6])
    a = Struct("f", (x, Int(7)))
    b = Struct("f", (y, Int(7)))
    assert not store.post(TermEq(a, b))  # domains disjoint -> no solution
    store2, (x2, y2) = make([1, 2, 3], [2, 9])
    assert store2.post(TermEq(Struct("f", (x2,)), Struct("f", (y2,))))
    assert list(store2.domains[x2.id].values()) == [2]


def test_term_eq_functor_mismatch_fails():
    store, (x,) = make([1, 2])
    assert not store.post(TermEq(Struct("f", (x,)), Struct("g", (x,))))


def test_term_eq_rejects_deep_nesting():
    store, (x,) = make([1, 2])
    deep = Struct("f", (Struct("g", (Struct("h", (x,)),)),))
    with pytest.raises(StoreTypeError):
        store.post(TermEq(deep, deep))


def test_disjunction_commits_when_one_side_fails():
    store, (x,) = make([1, 2, 3, 4, 5])
    assert store.post(Or(Lt(x, Int(2)), Gt(x, Int(9))))
    assert list(store.domains[x.id].values()) == [1]


def test_conjunction_posts_both_sides():
    store, (x,) = make([1, 2, 3, 4, 5])
    assert store.post(And(Gt(x, Int(1)), Lt(x, Int(4))))
    assert list(store.domains[x.id].values()) == [2, 3]


def test_undeclared_arith_var_gets_default_domain():
    store = ConstraintStore()
    x = Var("X", 0)
    assert store.post(Ge(x, Int(3)))
    assert store.post(Le(x, Int(4)))
    assert list(store.domains[x.id].values()) == [3, 4]


X0, X1 = Var("X0", 0), Var("X1", 1)


@pytest.mark.parametrize("domains, c, result, rendered", [
    # an atom with an offset equals nothing, even on an undeclared variable
    ((), Neq(Struct("+", (X0, Int(1))), Atom("a")), True, ""),
    # disjoint bounds entail a disequality, disjoint domains do not
    (([1, 5], [2, 3]), Neq(X0, X1), True,
     "X0 ∈ {1,5}\nX1 ∈ {2..3}\n_X0#0 ## _X1#1"),
    ((["a", "b"], ["a", "b"]), Eq(Struct("+", (X0, Int(1))), X1), False,
     "X0 ∈ {a,b}\nX1 ∈ {a,b}\n+(_X0#0,1) #= _X1#1"),
    (([1, 2],), Eq(X0, Atom("a")), False, "X0 ∈ {1..2}\n_X0#0 #= a"),
    (([1, 2],), Neq(X0, Atom("a")), True, "X0 ∈ {1..2}"),
    (([1, 2],), Lt(Atom("a"), X0), StoreTypeError,
     "X0 ∈ {1..2}\na #< _X0#0"),
    # each side keeps its own atom order
    ((["a", "b", "c"], ["c", "b"]), Eq(X0, X1), True,
     "X0 ∈ {b,c}\nX1 ∈ {c,b}\n_X0#0 #= _X1#1"),
    # a fixed side of a disjunction is decided by its pruner: an atom
    # takes no offset, and ordering an atom is a type error
    ((["a"], range(6)), Or(Eq(Struct("+", (X0, Int(1))), Atom("a")),
                           Eq(X1, Int(9))), False,
     "X0 ∈ {a}\nX1 ∈ {0..5}\n(+(_X0#0,1) #= a #\\/ _X1#1 #= 9)"),
    ((["a"], range(6)), Or(Lt(Atom("a"), Atom("b")), Eq(X1, Int(9))),
     StoreTypeError, "X0 ∈ {a}\nX1 ∈ {0..5}\n(a #< b #\\/ _X1#1 #= 9)"),
    ((["a"], range(6)), Or(Lt(X0, Atom("b")), Eq(X1, Int(9))),
     StoreTypeError, "X0 ∈ {a}\nX1 ∈ {0..5}\n(_X0#0 #< b #\\/ _X1#1 #= 9)"),
    ((["a"], range(6)), Or(Neq(Struct("+", (X0, Int(1))), Atom("a")),
                           Eq(X1, Int(9))), True, "X0 ∈ {a}\nX1 ∈ {0..5}"),
    # so does an atom-typed variable on both sides
    ((["a"],), Eq(Struct("+", (X0, Int(1))), Struct("+", (X0, Int(1)))),
     False, "X0 ∈ {a}\n+(_X0#0,1) #= +(_X0#0,1)"),
    ((["a"],), Neq(Struct("+", (X0, Int(1))), Struct("+", (X0, Int(1)))),
     True, "X0 ∈ {a}"),
    ((["a"],), Lt(X0, Struct("+", (X0, Int(1)))), StoreTypeError,
     "X0 ∈ {a}\n_X0#0 #< +(_X0#0,1)"),
])
def test_scalar_pruner_corner_cases(domains, c, result, rendered):
    store, _ = make(*domains)
    if result is StoreTypeError:
        with pytest.raises(StoreTypeError):
            store.post(c)
    else:
        assert store.post(c) is result
    assert store.render() == rendered


_FIXED = [Int(0), Int(1), Atom("a"), Atom("b"), X0, X1,
          Struct("+", (X0, Int(1))), Struct("+", (X1, Int(1)))]


@pytest.mark.parametrize("op", [Eq, Neq, Lt, Le, Gt, Ge])
def test_ground_truth_of_a_fixed_comparison_is_the_verdict_of_posting_it(op):
    # X0 in {0} and X1 in {a}: every operand is fixed
    for a in _FIXED:
        for b in _FIXED:
            c = op(a, b)
            try:
                truth = make([0], ["a"])[0]._try_ground(c)
            except StoreTypeError:
                truth = StoreTypeError
            try:
                posted = make([0], ["a"])[0].post(c)
            except StoreTypeError:
                posted = StoreTypeError
            assert truth is posted, c


@pytest.mark.parametrize("atoms", [["a", "b"], ["a"]])
def test_ordering_an_atom_variable_is_a_type_error(atoms):
    store, (x,) = make(atoms)
    with pytest.raises(StoreTypeError, match="order constraint over atoms"):
        store.post(Lt(x, Int(3)))


def test_an_ill_typed_constraint_stays_active_and_woken():
    # the second post, which is well typed, meets the first one again
    store, (x, y) = make(["a", "b"], range(6))
    for c in (Lt(x, Int(3)), Le(y, Int(3))):
        with pytest.raises(StoreTypeError, match="order constraint over atoms"):
            store.post(c)
    assert store.render() == \
        "X0 ∈ {a,b}\nX1 ∈ {0..5}\n_X0#0 #< 3\n_X1#1 #<= 3"


def test_connectives_nested_deeper_than_the_recursion_limit():
    n = 2 * sys.getrecursionlimit()
    store, (x,) = make(list(range(n + 5)))
    conj = Ge(x, Int(0))
    for i in range(1, n):
        conj = And(conj, Ge(x, Int(i)))
    assert store.post(conj)
    assert store.domains[x.id] == IntDomain.range(n - 1, n + 4)
    text = repr(conj)
    assert text.startswith("(" * (n - 1) + "_X0#0 #>= 0 #/\\ _X0#0 #>= 1)")
    assert repr(negate(conj)) == \
        text.replace("#/\\", "#\\/").replace("#>=", "#<")
    assert list(constraint_vars(conj)) == [x] * n
    y = Var("Y", 1)
    assert repr(map_constraint(conj, lambda t: y if t == x else t)) == \
        text.replace("_X0#0", "_Y#1")
    assert store._try_ground(conj) is None
    assert store.post(Eq(x, Int(n)))
    assert store._try_ground(conj) is True
    assert store._try_ground(negate(conj)) is False
    # equality and hashing walk the connectives too, and compare classes
    twin = negate(negate(conj))
    assert twin is not conj and twin == conj and hash(twin) == hash(conj)
    assert negate(conj) != conj and conj != And(conj, Ge(x, Int(0)))
    assert Or(conj.a, conj.b) != conj
    assert conj != Ge(x, Int(0)) and Ge(x, Int(0)) != conj


def test_disjunctions_decided_one_after_another_deeper_than_the_recursion_limit():
    # each decided disjunction leaves the next one as its surviving side:
    # X #= 7 fails at every level down to X #= 1
    n = 2 * sys.getrecursionlimit()
    store, (x,) = make(list(range(6)))
    disj = Eq(x, Int(1))
    for _ in range(n - 1):
        disj = Or(disj, Eq(x, Int(7)))
    assert store.post(disj)
    assert store.domains[x.id] == IntDomain.of([1])
    assert store.active_constraints() == []


# -- the propagation agenda -------------------------------------------------

def test_a_disjunction_probe_reads_the_whole_store():
    # posting Y ## Z, which does not name X, prunes X's disjunction again:
    # with X in {1, 2} and Y = Z = X, the probe of X #= 1 fails under
    # Y ## Z, and so does that of X #= 2
    store, (x, y, z) = make(*[range(6)] * 3)
    assert store.post(Or(Eq(x, Int(1)), Eq(x, Int(2))))
    assert store.post(Eq(y, x))
    assert store.post(Eq(z, x))
    assert store.post(Neq(y, z)) is False


def test_a_pass_that_writes_reprobes_every_disjunction_in_the_next():
    # the write to A leaves the first disjunction undecided and decides the
    # second, which posts X #< Z; that writes nothing, but it refutes the
    # first disjunction's left side, so the loop, which starts over after
    # a post, must probe the first disjunction again
    store, (a, x, z, w) = make(range(10), range(6), range(1, 7), [0, 1])
    b = Var("B", 4)
    assert store.post(Le(a, b))
    assert store.post(Or(And(Ge(x, Int(3)), Le(z, Int(3))), Eq(w, Int(1))))
    assert store.post(Or(Lt(x, z), Ge(b, Int(7))))
    assert store.declare(b, IntDomain.range(0, 5))
    assert store.domains[w.id] == IntDomain.of([1])


def test_a_nested_propagation_hands_the_disjunctions_back_to_its_caller():
    # declaring Q types the pending Q ##= V, whose pruner posts Q #= V into
    # the running loop; V's new bounds decide the last disjunction, B #<= 5,
    # which decides the second, X #< Z: the first, probed before either,
    # must be probed again after each post
    store, (b, v, x, z, w) = make(range(101), range(101), range(6),
                                  range(1, 7), [0, 1])
    q = Var("Q", 5)
    assert store.post(TermEq(q, v))
    assert store.post(Or(And(Ge(x, Int(3)), Le(z, Int(3))), Eq(w, Int(1))))
    assert store.post(Or(Lt(x, z), Ge(b, Int(7))))
    assert store.post(Or(Le(b, Int(5)), Ge(v, Int(9))))
    assert store.declare(q, IntDomain.range(0, 5))
    assert store.domains[w.id] == IntDomain.of([1])


def test_a_post_prunes_only_the_constraints_it_wakes():
    n = 200
    store, vars_ = make(*[range(10)] * (2 * n))
    for i in range(n):
        assert store.post(Le(vars_[i], vars_[n + i]))
    pruned = []
    prune = store._prune
    store._prune = lambda idx, c: pruned.append(idx) or prune(idx, c)
    assert store.post(Le(vars_[0], Int(3)))
    assert 1 <= len(pruned) <= 3 and set(pruned) <= {0, n}


def test_a_ripple_down_a_chain_probes_a_disjunction_once():
    # the last post narrows X200, and the chain X0 #< X1 #< ... #< X200
    # carries it down one link at a time; the disjunction, which names none
    # of them, is probed once the comparisons are at their fixpoint
    n = 200
    store, xs = make(*[range(1000)] * (n + 1), range(6))
    y = xs.pop()
    for i in range(n):
        assert store.post(Lt(xs[i], xs[i + 1]))
    assert store.post(Or(Eq(y, Int(1)), Eq(y, Int(2))))
    probes = []
    test_sat = store._test_sat
    store._test_sat = lambda c: probes.append(c) or test_sat(c)
    assert store.post(Le(xs[n], Int(500)))
    assert len(probes) <= 4
    assert store.domains[xs[0].id].max == 300


def test_the_order_of_the_posts_does_not_change_the_result():
    # propagation reaches the same fixpoint whatever order the constraints
    # come in, which is what lets the loop prune them in any order
    from oracles import random_store_case
    for seed in range(4000):
        _, domains, constraints = random_store_case(random.Random(seed))
        for cs in (constraints, [negate(c) for c in constraints]):
            try:
                results = [build_store(domains, order, ConstraintStore)
                           for order in (cs, cs[::-1])]
            except StoreTypeError:
                continue
            (drawn, ok), (reversed_, ok_reversed) = results
            assert ok == ok_reversed, seed
            if ok:
                assert drawn.domains == reversed_.domains, seed


def _assert_at_fixpoint(store):
    mark = store.snapshot()
    for idx, c in enumerate(store.constraints):
        if store.states[idx] == ACTIVE:
            assert store._prune(idx, c) == "none", c
            assert store.snapshot() == mark, c


def _assert_watch_lists_rebuilt(store):
    # every constraint but a disjunction is on the watch list of each
    # variable it names, and the disjunctions are listed apart; each bind
    # watch list names constraints that name its variable
    watch, ors = {}, []
    for idx, c in enumerate(store.constraints):
        if isinstance(c, Or):
            ors.append(idx)
        else:
            for vid in _watched(c):
                watch.setdefault(vid, []).append(idx)
    assert (store.watch, store._ors) == (watch, ors)
    for vid, ixs in store.bind_watch.items():
        assert ixs and ixs == sorted(set(ixs))
        assert all(vid in _watched(store.constraints[i]) for i in ixs)


def test_propagation_reaches_a_fixpoint_and_restore_trims_the_watch_lists():
    # after every successful post no active constraint can prune further;
    # an undone post leaves the watch lists of the constraints that stay
    from oracles import random_store_case
    for seed in range(1000):
        _, domains, constraints = random_store_case(random.Random(seed))
        for cs in (constraints, [negate(c) for c in constraints]):
            store, ok = build_store(domains, [], ConstraintStore)
            assert ok
            for c in cs:
                if not store.post(c):
                    break
                _assert_at_fixpoint(store)
                mark, text = store.snapshot(), store.render()
                store.post(negate(c))
                store.restore(mark)
                assert store.render() == text
                _assert_watch_lists_rebuilt(store)


# -- negation ---------------------------------------------------------------

def test_negate_table():
    x, y = Var("X", 0), Var("Y", 1)
    assert negate(Eq(x, y)) == Neq(x, y)
    assert negate(Lt(x, y)) == Ge(x, y)
    assert negate(Le(x, y)) == Gt(x, y)
    assert negate(TermEq(x, y)) == TermNeq(x, y)
    assert negate(And(Eq(x, y), Lt(x, y))) == Or(Neq(x, y), Ge(x, y))
    assert negate(Or(Eq(x, y), Lt(x, y))) == And(Neq(x, y), Ge(x, y))


def test_negate_is_involution_on_random_constraints():
    rng = random.Random(7)
    from oracles import random_store_case
    for _ in range(200):
        _, _, constraints = random_store_case(rng)
        for c in constraints:
            assert negate(negate(c)) == c


# -- labelling --------------------------------------------------------------

def test_label_input_order_is_lexicographic():
    store, vars_ = make([1, 2], [1, 2])
    sols = [tuple(sorted((k, t.value) for k, t in sol.items()))
            for sol in store.label(vars_)]
    assert sols == [((0, 1), (1, 1)), ((0, 1), (1, 2)),
                    ((0, 2), (1, 1)), ((0, 2), (1, 2))]


def test_label_respects_constraints():
    store, vars_ = make([1, 2, 3], [1, 2, 3])
    x, y = vars_
    assert store.post(Lt(x, y))
    sols = {tuple(sorted((k, t.value) for k, t in sol.items()))
            for sol in store.label(vars_)}
    assert sols == {((0, 1), (1, 2)), ((0, 1), (1, 3)), ((0, 2), (1, 3))}


def test_label_prefer_moves_value_first():
    store, vars_ = make([1, 2, 3])
    first = next(store.label(vars_, prefer={0: 2}))
    assert first[0] == Int(2)


def test_label_seeded_rng_is_deterministic():
    store, vars_ = make([1, 2, 3, 4], [1, 2])
    runs = []
    for _ in range(2):
        s = store.clone()
        runs.append([tuple(sorted((k, t.value) for k, t in sol.items()))
                     for sol in s.label(vars_, "first_fail",
                                        rng=random.Random(3))])
    assert runs[0] == runs[1]
    assert sorted(runs[0]) == sorted(
        tuple(sorted((k, t.value) for k, t in sol.items()))
        for sol in store.clone().label(vars_))


def test_label_first_fail_takes_the_smallest_domain_then_the_least_id():
    store, vars_ = make([1, 2, 3], [1, 2], [1, 2, 3], [5])
    assert store.post(Eq(vars_[2], vars_[0]))
    # X3 is fixed; X1 has two values; X0 and X2 tie at three, so X0 goes
    # first, and labelling it fixes X2
    first = next(store.label(vars_, "first_fail"))
    assert list(first) == [3, 1, 0, 2]
    assert list(next(store.label(vars_))) == [0, 1, 2, 3]


def test_label_more_variables_than_the_recursion_limit():
    n = 2 * sys.getrecursionlimit()
    store, vars_ = make(*[[0, 1]] * n)
    sols = store.label(vars_)
    assert next(sols) == {v.id: Int(0) for v in vars_}
    assert next(sols) == {v.id: Int(v.id == n - 1) for v in vars_}


# -- snapshots --------------------------------------------------------------

def test_snapshot_restore_is_exact():
    store, (x, y) = make([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    snap = store.snapshot()
    assert store.post(Lt(x, Int(3)))
    assert store.post(Neq(y, Int(2)))
    store.restore(snap)
    assert list(store.domains[x.id].values()) == [1, 2, 3, 4, 5]
    assert list(store.domains[y.id].values()) == [1, 2, 3, 4, 5]
    assert store.active_constraints() == []


def test_snapshot_restore_after_failure():
    store, (x,) = make([1, 2])
    snap = store.snapshot()
    assert not store.post(Gt(x, Int(9)))
    assert not store.consistent
    store.restore(snap)
    assert store.consistent
    assert list(store.domains[x.id].values()) == [1, 2]


def test_nested_snapshots_restore_in_lifo_order():
    store, (x,) = make([1, 2, 3, 4, 5])
    s0 = store.snapshot()
    assert store.post(Gt(x, Int(1)))
    s1 = store.snapshot()
    assert store.post(Gt(x, Int(3)))
    assert list(store.domains[x.id].values()) == [4, 5]
    store.restore(s1)
    assert list(store.domains[x.id].values()) == [2, 3, 4, 5]
    store.restore(s0)
    assert list(store.domains[x.id].values()) == [1, 2, 3, 4, 5]


# -- split_offset -----------------------------------------------------------

def test_split_offset_normalizes_sums():
    x = Var("X", 0)
    assert split_offset(Struct("+", (x, Int(3)))) == (x, 3)
    assert split_offset(Struct("-", (x, Int(1)))) == (x, -1)
    assert split_offset(x) == (x, 0)
    assert split_offset(Int(4)) == (Int(4), 0)
    # the grammar allows one offset on a variable, not a sum of them
    y = Var("Y", 1)
    assert split_offset(Struct("+", (Struct("+", (y, Int(1))), Int(1)))) is None


# -- oracle agreement on a quick fixed sample -------------------------------

def test_store_matches_brute_force_on_fixed_seeds():
    from oracles import random_store_case
    for seed in range(60):
        rng = random.Random(seed)
        vars_, domains, constraints = random_store_case(rng)
        store, ok = build_store(domains, constraints, ConstraintStore)
        expect = brute_force_solutions(domains, constraints)
        got = store_solutions(store, vars_) if ok else set()
        assert got == expect, f"seed {seed}"


def test_equal_disjunction_chains_hash_equal():
    x = Var("X", 0)
    a = b = Eq(x, Int(0))
    for i in range(1, 5000):
        a, b = Or(a, Eq(x, Int(i))), Or(b, Eq(x, Int(i)))
    assert a is not b and a == b and hash(a) == hash(b)
