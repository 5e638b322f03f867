"""Independent oracles for the test suite.

Nothing here calls into the solver's search: constraints are evaluated by
direct substitution, stores by brute-force enumeration and programs by a
naive ground bottom-up evaluator.  The one exception is
`slow_min_changes`, which reads the labellings of the answers it is
handed.  Disagreement between these oracles and
the engine is always an engine bug (or an oracle bug), never both.
"""

from __future__ import annotations

import itertools
import random
import re

from aclp.optimize import (EmptyStreamError, GroundAnswer,
                           _collect_preferences, change_count)
from aclp.store import (And, AtomDomain, Eq, Ge, Gt, IntDomain, Le, Lt, Neq,
                        Or, TermEq, TermNeq, split_offset)
from aclp.terms import (Atom, ConstraintLit, DomainDecl, Int, Struct, UserLit,
                        Var, term_vars)

# ---------------------------------------------------------------------------
# Constraint evaluation by substitution
# ---------------------------------------------------------------------------


def subst_term(t, val):
    """Ground term under a valuation mapping var id -> int | atom name."""
    if isinstance(t, Var):
        v = val[t.id]
        return Int(v) if isinstance(v, int) else Atom(v)
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(subst_term(a, val) for a in t.args))
    return t


def scalar_value(t, val):
    base, off = split_offset(t)
    if isinstance(base, Var):
        v = val[base.id]
        return v + off if isinstance(v, int) else v
    if isinstance(base, Int):
        return base.value + off
    return base.name


def holds(c, val) -> bool:
    """Truth of a constraint under a total valuation."""
    if isinstance(c, And):
        return holds(c.a, val) and holds(c.b, val)
    if isinstance(c, Or):
        return holds(c.a, val) or holds(c.b, val)
    if isinstance(c, (TermEq, TermNeq)):
        eq = subst_term(c.a, val) == subst_term(c.b, val)
        return eq if isinstance(c, TermEq) else not eq
    va, vb = scalar_value(c.a, val), scalar_value(c.b, val)
    if type(va) is not type(vb):
        return isinstance(c, Neq)
    if isinstance(c, Eq):
        return va == vb
    if isinstance(c, Neq):
        return va != vb
    if isinstance(c, Lt):
        return va < vb
    if isinstance(c, Le):
        return va <= vb
    if isinstance(c, Gt):
        return va > vb
    return va >= vb


def brute_force_solutions(domains, constraints):
    """All valuations of `domains` (Var -> value list) satisfying every
    constraint, as a set of sorted (var id, value) tuples."""
    items = sorted(domains.items(), key=lambda kv: kv[0].id)
    out = set()
    for combo in itertools.product(*(vals for _, vals in items)):
        val = {v.id: combo[i] for i, (v, _) in enumerate(items)}
        if all(holds(c, val) for c in constraints):
            out.add(tuple(sorted(val.items())))
    return out


def store_solutions(store, vars_):
    """The store's own enumeration, in the same shape as the brute force."""
    out = set()
    for sol in store.label(vars_):
        out.add(tuple(sorted(
            (vid, t.value if isinstance(t, Int) else t.name)
            for vid, t in sol.items())))
    return out


# ---------------------------------------------------------------------------
# Random store instances (criteria 2 and 3)
# ---------------------------------------------------------------------------

_ATOMS = ["a", "b", "c", "d"]


def random_store_case(rng: random.Random):
    """(vars, domains dict, constraints list) over ≤4 vars, domains ≤9."""
    n = rng.randint(1, 4)
    vars_, domains = [], {}
    for i in range(n):
        v = Var(f"X{i}", i)
        vars_.append(v)
        if rng.random() < 0.75:
            lo = rng.randint(0, 5)
            values = sorted(rng.sample(range(lo, lo + 9),
                                       rng.randint(1, 9)))
            domains[v] = values
        else:
            k = rng.randint(1, len(_ATOMS))
            domains[v] = rng.sample(_ATOMS, k)

    int_vars = [v for v in vars_ if isinstance(domains[v][0], int)]
    atom_vars = [v for v in vars_ if not isinstance(domains[v][0], int)]

    def int_operand():
        if int_vars and rng.random() < 0.7:
            v = rng.choice(int_vars)
            if rng.random() < 0.3:
                k = rng.randint(1, 3)
                f = rng.choice(["+", "-"])
                return Struct(f, (v, Int(k)))
            return v
        return Int(rng.randint(0, 9))

    def atom_operand():
        if atom_vars and rng.random() < 0.7:
            return rng.choice(atom_vars)
        return Atom(rng.choice(_ATOMS))

    def scalar_constraint():
        if atom_vars and rng.random() < 0.3:
            op = rng.choice([Eq, Neq])
            return op(atom_operand(), atom_operand())
        op = rng.choice([Eq, Neq, Lt, Le, Gt, Ge])
        return op(int_operand(), int_operand())

    def term_operand():
        args = []
        for _ in range(2):
            pick = rng.random()
            if pick < 0.4 and int_vars:
                args.append(rng.choice(int_vars))
            elif pick < 0.6 and atom_vars:
                args.append(rng.choice(atom_vars))
            elif pick < 0.8:
                args.append(Int(rng.randint(0, 9)))
            else:
                args.append(Atom(rng.choice(_ATOMS)))
        return Struct(rng.choice(["f", "g"]), tuple(args))

    constraints = []
    for _ in range(rng.randint(0, 6)):
        pick = rng.random()
        if pick < 0.6:
            constraints.append(scalar_constraint())
        elif pick < 0.75:
            op = rng.choice([TermEq, TermNeq])
            constraints.append(op(term_operand(), term_operand()))
        elif pick < 0.9:
            constraints.append(Or(scalar_constraint(), scalar_constraint()))
        else:
            constraints.append(And(scalar_constraint(), scalar_constraint()))
    return vars_, domains, constraints


def build_store(domains, constraints, store_cls):
    """Post a random case into a fresh store; returns (store, ok)."""
    store = store_cls()
    for v, values in sorted(domains.items(), key=lambda kv: kv[0].id):
        if isinstance(values[0], int):
            dom = IntDomain.of(values)
        else:
            dom = AtomDomain.of(values)
        if not store.declare(v, dom):
            return store, False
    for c in constraints:
        if not store.post(c):
            return store, False
    return store, True


# ---------------------------------------------------------------------------
# Ground bottom-up program evaluation (criteria 1 and 4)
# ---------------------------------------------------------------------------


def _term_key(t):
    """Hashable ground form: Int -> int, Atom -> str, Struct -> tuple."""
    if isinstance(t, Int):
        return t.value
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Struct):
        return (t.functor,) + tuple(_term_key(a) for a in t.args)
    raise ValueError(f"non-ground term {t!r}")


def _lit_key(lit, val=None):
    args = tuple(_term_key(subst_term(a, val) if val else a)
                 for a in lit.args)
    return (lit.name, args)


def _universe(theory, delta, extra_ints=()):
    """Constants mentioned anywhere, for grounding clause variables."""
    consts = set(extra_ints)

    def walk(t):
        if isinstance(t, Int):
            consts.add(t.value)
        elif isinstance(t, Atom):
            consts.add(t.name)
        elif isinstance(t, Struct):
            for a in t.args:
                walk(a)

    def walk_body(body):
        for lit in body:
            if isinstance(lit, UserLit):
                for a in lit.args:
                    walk(a)
            elif isinstance(lit, DomainDecl):
                if lit.atoms is not None:
                    consts.update(a.name for a in lit.atoms)
                elif isinstance(lit.lo, Int) and isinstance(lit.hi, Int):
                    consts.update(range(lit.lo.value, lit.hi.value + 1))

    for clause in theory.all_clauses():
        walk_body((clause.head,))
        walk_body(clause.body)
    for ic in theory.ics:
        walk_body(ic.body)
    for lit in delta:
        for a in lit.args:
            walk(a)
    return sorted(consts, key=lambda x: (isinstance(x, str), str(x)))


def _body_vars(lits):
    seen, out = set(), []
    for lit in lits:
        if isinstance(lit, UserLit):
            sources = lit.args
        elif isinstance(lit, DomainDecl):
            sources = (lit.var,)
        elif isinstance(lit, ConstraintLit):
            from aclp.store import constraint_vars
            sources = ()
            for v in constraint_vars(lit.constraint):
                if v.id not in seen:
                    seen.add(v.id)
                    out.append(v)
        else:
            sources = ()
        for a in sources:
            for v in term_vars(a):
                if v.id not in seen:
                    seen.add(v.id)
                    out.append(v)
    return out


def _lit_holds(lit, val, facts) -> bool:
    if isinstance(lit, UserLit):
        return _lit_key(lit, val) in facts
    if isinstance(lit, ConstraintLit):
        return holds(lit.constraint, val)
    if isinstance(lit, DomainDecl):
        v = lit.var
        value = val[v.id] if isinstance(v, Var) else _term_key(v)
        if lit.atoms is not None:
            return value in {a.name for a in lit.atoms}
        lo = val[lit.lo.id] if isinstance(lit.lo, Var) else lit.lo.value
        hi = val[lit.hi.id] if isinstance(lit.hi, Var) else lit.hi.value
        return isinstance(value, int) and lo <= value <= hi
    raise ValueError(f"unexpected literal {lit!r}")


def _groundings(vars_, universe):
    ids = [v.id for v in vars_]
    for combo in itertools.product(universe, repeat=len(ids)):
        yield dict(zip(ids, combo))


def ground_facts(theory, delta, extra_ints=(), max_rounds=50):
    """Least fixpoint of P ∪ Δ over the Herbrand universe of constants."""
    universe = _universe(theory, delta, extra_ints) or [0]
    facts = {_lit_key(l) for l in delta}
    for _ in range(max_rounds):
        added = False
        for clause in theory.all_clauses():
            vars_ = _body_vars((clause.head,) + clause.body)
            for val in _groundings(vars_, universe):
                try:
                    if not all(_lit_holds(l, val, facts) for l in clause.body):
                        continue
                except KeyError:
                    continue
                key = _lit_key(clause.head, val)
                if key not in facts:
                    facts.add(key)
                    added = True
        if not added:
            return facts, universe
    return facts, universe


def goal_derivable(theory, delta, goal, extra_ints=()) -> bool:
    """Is some ground instance of the goal conjunction derivable?"""
    facts, universe = ground_facts(theory, delta, extra_ints)
    vars_ = _body_vars(goal)
    for val in _groundings(vars_, universe):
        try:
            if all(_lit_holds(l, val, facts) for l in goal):
                return True
        except KeyError:
            continue
    return False


def violated_ics(theory, delta, extra_ints=()):
    """Integrity constraints whose body is fully satisfied by P ∪ Δ."""
    facts, universe = ground_facts(theory, delta, extra_ints)
    bad = []
    for ic in theory.ics:
        vars_ = _body_vars(ic.body)
        for val in _groundings(vars_, universe):
            try:
                if all(_lit_holds(l, val, facts) for l in ic.body):
                    bad.append((ic, dict(val)))
                    break
            except KeyError:
                continue
    return bad


# ---------------------------------------------------------------------------
# Random theories (criterion 1) and propositional NAF programs (criterion 4)
# ---------------------------------------------------------------------------


def random_theory_text(rng: random.Random):
    """Source text of a small random abductive theory plus its goal.

    Defined predicates p0..p2 only call strictly lower-numbered ones, so
    every program terminates; abducibles a0..a2; integer domains ≤5.
    """
    n_pred = rng.randint(1, 3)
    n_abd = rng.randint(1, 3)
    arities = {f"p{i}": rng.randint(0, 1) for i in range(n_pred)}
    arities.update({f"a{i}": rng.randint(0, 1) for i in range(n_abd)})
    lines = [f"abducible_predicate(a{i}/{arities[f'a{i}']})."
             for i in range(n_abd)]

    def literal(name, var):
        if arities[name] == 0:
            return name
        if rng.random() < 0.4:
            return f"{name}({rng.randint(1, 5)})"
        return f"{name}({var})"

    def body_parts(max_pred_index):
        parts, used_var = [], False
        callees = [f"p{i}" for i in range(max_pred_index)] + \
                  [f"a{i}" for i in range(n_abd)]
        for _ in range(rng.randint(1, 3)):
            pick = rng.random()
            if pick < 0.6 and callees:
                name = rng.choice(callees)
                part = literal(name, "X")
                used_var = used_var or "(X)" in part
                parts.append(part)
            else:
                op = rng.choice(["#<", "#<=", "#>", "#>=", "#=", "##"])
                parts.append(f"X {op} {rng.randint(1, 5)}")
                used_var = True
        if used_var:
            parts.insert(0, "X :: 1..5")
        return parts

    n_clauses = rng.randint(n_pred, 6)
    heads_done = set()
    for j in range(n_clauses):
        i = j % n_pred if j < n_pred else rng.randrange(n_pred)
        name = f"p{i}"
        heads_done.add(name)
        head = name if arities[name] == 0 else \
            (f"{name}(X)" if rng.random() < 0.7 else f"{name}({rng.randint(1, 5)})")
        parts = body_parts(i)
        if "(X)" in head and "X :: 1..5" not in parts:
            parts.insert(0, "X :: 1..5")
        lines.append(f"{head} :- {', '.join(parts)}.")

    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(n_abd)
        parts = [literal(f"a{i}", "Y")]
        if rng.random() < 0.6:
            if arities[f"a{i}"] == 1 and "(Y)" in parts[0]:
                parts.insert(0, "Y :: 1..5")
                parts.append(f"Y {rng.choice(['#<', '#>', '##', '#='])} "
                             f"{rng.randint(1, 5)}")
            elif rng.random() < 0.5 and heads_done:
                parts.append(rng.choice(sorted(heads_done))
                             if arities[sorted(heads_done)[0]] == 0 else
                             f"{sorted(heads_done)[0]}({rng.randint(1, 5)})")
        lines.append(f"ic :- {', '.join(parts)}.")

    goal_name = "p0"
    goal = goal_name if arities[goal_name] == 0 else f"{goal_name}(G), G :: 1..5"
    return "\n".join(lines) + "\n", goal


def random_naf_program_text(rng: random.Random):
    """Propositional program with not/1 bodies, for NAF coherence checks."""
    n = rng.randint(2, 5)
    preds = [f"q{i}" for i in range(n)]
    lines = []
    defined = []
    for i in range(n):
        body = []
        for p in defined:
            if rng.random() < 0.4:
                body.append(f"not({p})" if rng.random() < 0.5 else p)
        if body or rng.random() < 0.7:
            defined.append(preds[i])
            lines.append(f"{preds[i]}." if not body else
                         f"{preds[i]} :- {', '.join(body)}.")
    goal = rng.choice(defined) if defined else None
    return "\n".join(lines) + "\n", goal


# ---------------------------------------------------------------------------
# Answer records up to a renaming of variable ids
# ---------------------------------------------------------------------------

_VAR_ID = re.compile(r"#(\d+)")


def canonical_ids(record):
    """`record` with its variable ids renumbered 0, 1, ... in order of first
    appearance: each `#<digits>` in a string (a Δ repr or a store render)
    and the id of each `[id, value]` pair of a "labelling" list.

    Fresh variable ids are not part of an answer, so answer records are
    compared through this: two records are equal under it exactly when a
    one-to-one renaming of ids maps one onto the other.  Renumber a whole
    case at once, so that the variables its answers share stay pinned.
    Tuples come back as lists."""
    ids: dict[int, int] = {}

    def num(vid):
        return ids.setdefault(vid, len(ids))

    def walk(x, key=None):
        if isinstance(x, str):
            return _VAR_ID.sub(lambda m: f"#{num(int(m.group(1)))}", x)
        if isinstance(x, dict):
            return {k: walk(v, k) for k, v in x.items()}
        if key == "labelling" and x is not None:
            return [[num(vid), walk(value)] for vid, value in x]
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        return x

    return walk(record)


# ---------------------------------------------------------------------------
# Minimal-change selection, the slow way
# ---------------------------------------------------------------------------

def slow_label_preferences(delta, reference) -> dict:
    """Preferred values by a linear scan of the unused reference literals
    for each hypothesis, taking the first whose ground parts agree."""
    prefs = {}
    unused = list(reference)
    for lit in delta:
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


def slow_min_changes(answers, reference, max_answers=64, max_labellings=256,
                     strategy="first_fail"):
    """`optimize.min_changes` by its definition: every labelling read is
    grounded and counted with `change_count`; the first with the fewest
    changes wins."""
    best = None
    for i, answer in enumerate(answers):
        if i >= max_answers:
            break
        prefs = slow_label_preferences(answer.delta, reference)
        for j, sol in enumerate(answer.labellings(strategy, prefer=prefs)):
            if j >= max_labellings:
                break
            ground = answer.ground_delta(sol)
            n = change_count(ground, tuple(reference))
            if best is None or n < best.changes:
                best = GroundAnswer(ground, sol, changes=n)
            if n == 0:
                return best
    if best is None:
        raise EmptyStreamError()
    return best
