"""The abductive proof procedure.

Two interleaved derivations share one constraint store, which holds the
bindings too, one hypothesis list and one list of denials:

* goal reduction (`_prove`): leftmost literal, depth-first, clause source
  order; constraints are posted to the store, abducibles are satisfied by
  reusing a hypothesis first and only then by assuming a new one;

* consistency checking (`_fail_conj`): triggered by every new hypothesis,
  it refutes each integrity constraint resolving with it by driving the
  residual body to finite failure.  A residual constraint can be refuted by
  posting its negation (only when that constrains no IC-local variable) or
  assumed and the remainder failed; defined literals must fail under every
  clause; plain abducibles are closed-world against the current hypothesis
  set.  A later hypothesis is resolved with every IC body literal it may
  unify with, which refutes each IC instance once, when the last of its
  hypotheses joins; so only an abducible reached past a defined literal,
  a denial re-check or a NAF literal is recorded as a denial, for every
  later addition to re-check.  An abducible standing for negation-as-
  failure of a defined predicate is refuted by abductively proving the
  complement -- this is what forces action preconditions to be
  established in planning programs.

Every choice of candidates for a unification is one `_Index` lookup: the
clauses tried for a goal, the IC body literals a new hypothesis is
resolved with, the hypotheses of Δ that a goal may reuse or a
closed-world literal is matched against, and the denials that a new
hypothesis re-checks.  The index files each entry by its literal's
indicator and first-argument key (WAM clause indexing), and tests each
candidate by `_may_unify` before returning it.  A variable first
argument matches every key, since it unifies with anything.  A lookup
keeps insertion order, so indexing changes no answer and no answer
order.  Clause heads and IC body literals are filed as written; Δ and
the denials are filed through the bindings, and each entry is undone on
backtracking.

Both derivations are driven by one loop in
`Solver.solve` over an explicit stack of choice points (the state-based
reading of ACLP in the A-System, with WAM-style choice points).  A step
does a bounded amount of work and returns the step that continues the
derivation, or None when it fails.  The continuation `k` handed to a step
is what to do once its goal has been proved, or its conjunction failed.
Every alternative left for later is a choice point: a `_mark()` of the
shared state plus the step that tries it.  The store (its bindings,
domains and constraints), Δ and the denials push the undo of every change
onto the store's trail, so a mark is the trail's length.  On failure the
loop pops the newest choice point, rewinds the trail to its mark and runs
its step.  The Python stack stays flat however deep a derivation goes;
`Config.max_depth` and memory bound its depth.

Each attribute of a `Solver` is of one of three kinds.  Fixed for the
solver's life: the theory, the config, the id counters, and the clause
and IC indexes.  Undone through the trail, and so back where it was when
a solve ends: the store with its bindings, Δ, the denials, and the trail
and the choice stack themselves.  Per solve, written when a solve ends:
`steps`, the number of steps it ran.  How a stream ended is no
attribute: one that emitted nothing raises `DepthLimitExceededError` if
a derivation met `Config.max_depth`, else `StepBudgetError` if
`Config.max_steps` cut it.  Nothing else grows with the search: the
variables that a refutation renames apart are minted local
(`Var.local`), so locality is read off the variable itself.
"""

from __future__ import annotations

import queue
import threading
from collections import Counter
from dataclasses import dataclass

from .store import (DEFAULT_HI, DEFAULT_LO, And, AtomDomain, ConstraintStore,
                    Eq, IntDomain, TermEq, constraint_vars, map_constraint,
                    negate)
from .terms import (AclpError, Atom, ConstraintLit, DomainDecl, Int, NafLit,
                    Struct, UserLit, Var, VarCounter, UnknownPredicateError,
                    _renamer, as_written, is_ground, map_literal,
                    rename_conjunction, rewind, standardize_apart,
                    standardize_ic, term_vars, unify_terms)
from .theory import AbductiveTheory


class InitialHypothesisInconsistentError(AclpError):
    def __init__(self, hyp):
        super().__init__(f"INITIAL_HYPOTHESIS_INCONSISTENT: {as_written(hyp)}")
        self.hyp = hyp


class DepthLimitExceededError(AclpError):
    def __init__(self, limit):
        super().__init__(f"DEPTH_LIMIT_EXCEEDED: {limit} reduction steps")
        self.limit = limit


class StepBudgetError(AclpError):
    """A search that its step budget cut before any answer."""

    def __init__(self, limit):
        super().__init__(f"no answer in {limit} steps")
        self.limit = limit


@dataclass
class Config:
    max_depth: int = 10000
    max_steps: int = None             # search steps per solve, or None
    # the store's implementation-wide default range, read by perfbench's
    # checks: class constants, not fields, so no solve sets its own
    default_lo = DEFAULT_LO
    default_hi = DEFAULT_HI


@dataclass(frozen=True)
class Hypothesis:
    lit: UserLit
    provenance: str = "goal"          # goal | initial


@dataclass
class Answer:
    delta: tuple                      # resolved hypothesis literals
    provenance: tuple
    store: ConstraintStore

    def store_vars(self):
        out = []
        for vid in sorted(self.store.domains):
            out.append(Var(self.store.var_names.get(vid, f"V{vid}"), vid))
        return out

    def labellings(self, strategy: str = "input_order", rng=None,
                   prefer: dict = None):
        """Ground valuations of every store variable, as id->term dicts.
        Each call labels a clone of the answer's store and never touches
        the store itself, so every call enumerates the same valuations,
        even while another is still running."""
        yield from self.store.clone().label(self.store_vars(), strategy,
                                            rng, prefer)

    def ground_delta(self, valuation: dict):
        def g(t):
            return valuation.get(t.id, t) if isinstance(t, Var) else t
        return tuple(map_literal(l, g) for l in self.delta)


@dataclass(frozen=True)
class _Match:
    """Pending head/hypothesis argument match inside a failure derivation."""
    a: tuple
    b: tuple


def _value(t):
    """The value of `t` when it is an integer or a `+`/`-` tree over
    integers, else None; a stack, not recursion, reads the tree."""
    total, stack = 0, [(t, 1)]            # (subterm, its sign in the sum)
    while stack:
        t, sign = stack.pop()
        if isinstance(t, Int):
            total += sign * t.value
        elif isinstance(t, Struct) and t.functor in ("+", "-") and t.arity == 2:
            a, b = t.args
            stack += [(a, sign), (b, sign if t.functor == "+" else -sign)]
        else:
            return None
    return total


def _key(t):
    """First-argument index key of a term (WAM clause indexing): a constant
    is its own key, a compound is keyed by functor and arity, and a
    variable has no key (None), because it unifies with anything."""
    if isinstance(t, Var):
        return None
    if isinstance(t, Struct):
        return (t.functor, len(t.args))
    return t


def _may_unify(pattern, args, walk, template=False) -> bool:
    """Whether the argument tuples `pattern` and `args` may unify: False
    only when two rigid subterms differ in functor, arity or constant
    (the WAM's pre-unification test, on every argument).  A variable
    matches anything, a domain variable included, whose equality the
    store may still refuse.  `args` is walked through the bindings, and
    so is `pattern` unless it is a `template`: a clause head or an IC
    body literal not yet renamed, whose parser ids may collide with ids
    bound here."""
    lists = []   # nested argument lists left to compare
    while True:
        for p, t in zip(pattern, args):
            if type(p) is Var:
                if template:
                    continue
                p = walk(p)
                if type(p) is Var:
                    continue
            if type(t) is Var:
                t = walk(t)
                if type(t) is Var:
                    continue
            if type(p) is Struct:
                if (type(t) is not Struct or p.functor != t.functor
                        or len(p.args) != len(t.args)):
                    return False
                lists.append((p.args, t.args))
            elif type(p) is not type(t) or p != t:
                return False
        if not lists:
            return True
        pattern, args = lists.pop()


class _Index:
    """Entries filed by indicator and first-argument key, each beside the
    literal it is filed under (WAM clause indexing).

    An entry whose literal's first argument is a variable matches every
    key, since the variable unifies with anything.  A lookup lists the
    entries in insertion order, the order in which goal reduction tries
    clauses and reuses hypotheses and the consistency derivation resolves
    ICs and re-checks denials, so indexing changes no answer and no order.
    An index without a `trail` is a template: it files literals as
    written, clause heads and IC body literals, whose parser ids may
    collide with ids bound here.  An index with one files them walked
    through the bindings and pushes the undo of each entry on the
    trail, so Δ and the denials follow backtracking."""

    _ALL = object()   # the bucket that every entry of an indicator joins

    def __init__(self, walk, trail=None):
        self._walk, self._trail = walk, trail
        self._at = {}      # indicator -> key -> (position, literal, value)s
        self._filed = []   # the entries, in insertion order

    def __iter__(self):
        return (value for _, _, value in self._filed)

    def add(self, lit, value):
        key = None
        if lit.args:
            first = lit.args[0]
            key = _key(first if self._trail is None else self._walk(first))
        at = self._at.setdefault(lit.indicator, {})
        entry = (len(self._filed), lit, value)
        every, keyed = at.setdefault(self._ALL, []), at.setdefault(key, [])
        every.append(entry)
        keyed.append(entry)
        self._filed.append(entry)
        if self._trail is not None:
            self._trail.append((self._unfile, every, keyed))

    def _unfile(self, every, keyed):
        self._filed.pop()
        every.pop()
        keyed.pop()

    def lookup(self, lit):
        """The values, in insertion order, whose literal may unify with
        `lit`: looked up by first-argument key, then tested by
        `_may_unify`."""
        at = self._at.get(lit.indicator)
        if at is None:
            return []
        walk, args, template = self._walk, lit.args, self._trail is None
        key = _key(walk(args[0])) if args else None
        if key is None:
            hits = at[self._ALL]
        else:
            hits, free = at.get(key, ()), at.get(None)
            if free:
                hits = sorted(hits + free) if hits else free
        return [value for _, filed, value in hits
                if _may_unify(filed.args, args, walk, template)]


_BUILTINS = {("true", 0), ("fail", 0)}
_ANSWER = object()   # the continuation of a finished derivation
_DEPTH = object()    # a failure at `Config.max_depth`


class Solver:
    def __init__(self, theory: AbductiveTheory, config: Config = None):
        self.theory = theory
        self.config = config or Config()
        self.counter = VarCounter(start=1_000_000)
        self.locals = self.counter.locals()   # mints refutation locals
        self.store = ConstraintStore()
        # the indexes push onto the store's trail
        walk, trail = self.store.walk, self.store.trail
        self.delta = _Index(walk, trail)      # Hypothesis values
        # (abducible lit, *residual conjunction) values
        self.denials = _Index(walk, trail)
        self._clauses = _Index(walk)
        for clause in theory.all_clauses():
            self._clauses.add(clause.head, clause)
        self._ic_literals = _Index(walk)   # (ic, pos) values
        for ic in theory.ics:
            for pos, lit in enumerate(ic.body):
                if isinstance(lit, UserLit):
                    self._ic_literals.add(lit, (ic, pos))
        self.choices: list = []        # (mark, step) alternatives left to try
        self.steps = 0                 # steps the last solve ran

    # -- bookkeeping ---------------------------------------------------------

    def _mark(self) -> int:
        return len(self.store.trail)

    def _restore(self, mark: int) -> None:
        rewind(self.store.trail, mark)

    def _choice(self, step, mark=None):
        """Leave `step` to be tried on backtracking, from `mark` (default:
        the state now)."""
        self.choices.append((self._mark() if mark is None else mark, step))

    def _fresh_locals(self, items):
        """Copies of the literals `items` under the bindings, with
        unbound local variables renamed apart; a local with a domain is
        kept, since a renaming would drop its domain.  The constraints
        that wait in the store on a renamed local, which has no domain
        (`ConstraintStore.waiting`), are copied under the same renaming and
        follow the copied literals.

        Each alternative of a refutation (clause resolution, hypothesis
        match) quantifies the conjunction's local existentials on its own;
        sharing the variables would let the bindings made while refuting
        one alternative leak into the next and make its check vacuous.

        `items` holds no `_Match`: one is only ever the first item of a
        conjunction, and `_fail_conj` consumes it before any copy of the
        rest is made.
        """
        has_domain = self.store.has_domain
        rename, renamed = _renamer(self.locals, self.store.walk,
                                   lambda v: not v.local or has_domain(v))
        out = [map_literal(i, rename) for i in items]
        constraints = self.store.constraints
        return out + [ConstraintLit(map_constraint(constraints[i], rename))
                      for i in self.store.waiting(renamed)]

    # -- top level -----------------------------------------------------------

    def solve(self, goal, initial=()):
        """Enumerate answers for a goal conjunction on backtracking.

        `initial` hypotheses are installed through the same consistency
        check as fresh abductions before reduction starts.  The solver's
        state is restored when the stream ends, fails or is closed.  The
        stream also ends once the loop has run `Config.max_steps` steps.
        A stream that emits nothing raises DepthLimitExceededError when a
        step met `Config.max_depth`, else StepBudgetError when the budget
        cut it.
        """
        max_steps = self.config.max_steps
        steps, emitted, depth_hit = 0, 0, False
        goal = rename_conjunction(goal, self.counter)
        base = self._mark()
        step = lambda: self._install(list(initial), 0, goal, _ANSWER)
        try:
            while True:
                if step is None:
                    if not self.choices:
                        break
                    mark, step = self.choices.pop()
                    self._restore(mark)
                elif step is _ANSWER:
                    step = None
                    answer = self._make_answer()
                    if answer is not None:
                        emitted += 1
                        yield answer
                elif step is _DEPTH:
                    depth_hit, step = True, None
                elif steps == max_steps:
                    if not (emitted or depth_hit):
                        raise StepBudgetError(max_steps)
                    break
                else:
                    steps += 1
                    step = step()
        finally:
            self.steps = steps
            self.choices.clear()
            self._restore(base)
        if depth_hit and not emitted:
            raise DepthLimitExceededError(self.config.max_depth)

    def _install(self, initial, i, goal, k):
        if i == len(initial):
            return self._prove(goal, 0, k)
        lit = initial[i]
        if not isinstance(lit, UserLit):
            raise AclpError(
                f"initial hypothesis {as_written(lit)} is not an atom")
        if not self.theory.is_abducible(lit.name, lit.arity):
            raise InitialHypothesisInconsistentError(lit)
        produced = False

        def installed():
            nonlocal produced
            produced = True
            return self._install(initial, i + 1, goal, k)

        def exhausted():
            if not produced:
                raise InitialHypothesisInconsistentError(lit)

        self._choice(exhausted)
        self.delta.add(lit, Hypothesis(lit, "initial"))
        return self._consistency(lit, 0, installed)

    def _make_answer(self):
        delta = tuple(self.store.resolve_literal(h.lit) for h in self.delta)
        prov = tuple(h.provenance for h in self.delta)
        # no active constraint names a bound variable
        # (`ConstraintStore.bind`), so the copy leaves the bindings behind
        st = self.store.clone()
        # project onto variables the answer can mention: those in the
        # hypotheses and those constrained by a residual constraint
        keep = set()
        for lit in delta:
            for a in lit.args:
                keep.update(v.id for v in term_vars(a))
        for c in st.active_constraints():
            keep.update(v.id for v in constraint_vars(c))
        for vid in [v for v in st.domains if v not in keep]:
            del st.domains[vid]
        answer = Answer(delta, prov, st)
        # emit only stores with at least one ground valuation; `label`
        # leaves the store as it found it
        if next(st.label(answer.store_vars(), "first_fail"), None) is None:
            return None
        return answer

    # -- goal reduction ------------------------------------------------------

    def _prove(self, goals, depth, k):
        if not self.store.consistent:
            return None
        if not goals:
            return k
        if depth >= self.config.max_depth:
            return _DEPTH
        lit = goals[0]
        rest = goals[1:]
        proceed = lambda: self._prove(rest, depth + 1, k)

        if isinstance(lit, ConstraintLit):
            return proceed if self._post(lit.constraint) else None

        if isinstance(lit, DomainDecl):
            return proceed if self._declare(lit) else None

        if isinstance(lit, NafLit):
            raise AclpError(f"uncompiled NAF literal {as_written(lit)}; "
                            "run compile_naf first")

        key = lit.indicator
        if key in _BUILTINS:
            return proceed if lit.name == "true" else None

        if self.theory.is_abducible(*key):
            return self._assume(lit, depth, proceed)

        if self.theory.is_defined(*key):
            clauses = self._clauses.lookup(lit)
            if not clauses:
                return None
            return self._try_clause(clauses, 0, lit, rest, depth, k)

        raise UnknownPredicateError(*key)

    def _try_clause(self, clauses, i, lit, rest, depth, k):
        """Resolve `lit` with clause i, leaving the later ones as a choice.
        `clauses` holds only those that the index let through: a clause
        whose head cannot unify is neither renamed nor left as a choice."""
        if i + 1 < len(clauses):
            self._choice(lambda: self._try_clause(clauses, i + 1, lit, rest,
                                                  depth, k))
        renamed = standardize_apart(clauses[i], self.counter)
        if not self._unify_args(renamed.head.args, lit.args):
            return None
        return lambda: self._prove(list(renamed.body) + rest, depth + 1, k)

    def _unify_args(self, args1, args2) -> bool:
        return all(unify_terms(a, b, self.store)
                   for a, b in zip(args1, args2))

    def _post(self, c) -> bool:
        c = map_constraint(c, self.store.walk)
        if isinstance(c, TermEq):
            # term equality is unification, not scalar decomposition
            return unify_terms(c.a, c.b, self.store)
        return self.store.post(c)

    def _declare(self, decl: DomainDecl) -> bool:
        resolve = self.store.resolve
        var = resolve(decl.var)
        if decl.atoms is not None:
            dom = AtomDomain.of([a.name for a in decl.atoms])
            if isinstance(var, Atom):
                return dom.contains(var.name)
        else:
            lo, hi = _value(resolve(decl.lo)), _value(resolve(decl.hi))
            if lo is None or hi is None:
                bound = resolve(decl.lo if lo is None else decl.hi)
                if is_ground(bound):
                    raise AclpError(f"domain bound {as_written(bound)} is not "
                                    f"an integer in {as_written(decl)}")
                raise AclpError(f"non-ground domain bounds in {as_written(decl)}")
            dom = IntDomain.range(lo, hi)
            if isinstance(var, Int):
                return dom.contains(var.value)
        if not isinstance(var, Var):
            return False
        return self.store.declare(var, dom)

    # -- abduction -----------------------------------------------------------

    def _assume(self, lit: UserLit, depth, proceed):
        # a hypothesis that the Δ lookup rejects could only fail to unify,
        # so it gets no choice point; an exact duplicate always passes
        reusable = self.delta.lookup(lit)
        resolve = self.store.resolve_literal

        # reuse existing hypotheses first, in insertion order
        def reuse(j):
            if j == len(reusable):
                return assume()
            self._choice(lambda: reuse(j + 1))
            if self._unify_args(resolve(reusable[j].lit).args, lit.args):
                return proceed
            return None

        # then assume a fresh one (skip exact duplicates: reuse covered them)
        def assume():
            resolved = resolve(lit)
            if any(resolve(h.lit) == resolved for h in reusable):
                return None
            self.delta.add(resolved, Hypothesis(resolved, "goal"))
            return self._consistency(resolved, depth, proceed)

        return reuse(0)

    # -- consistency derivation ----------------------------------------------

    def _consistency(self, hyp: UserLit, depth, k):
        """Continue with `k` once per way of refuting every IC resolving with
        `hyp` and re-establishing every denial it threatens.

        `hyp` is resolved with every IC body literal it may unify with, and
        each residual is an IC body, failed with `ic_body` set: its other
        abducible literals are matched against the whole of Δ, `hyp`
        included.  So every IC instance is refuted once, when the last of
        its hypotheses joins Δ, and such a residual records no denial.
        Denials come only from conjunctions that are no longer an IC body
        (see `_fail_abducible`), and their re-checks are not one either.

        A pairing that `_may_unify` rejects cannot match, so its residual
        would fail at once: it is skipped before any renaming.  A skipped
        pairing draws no fresh ids and never reaches `_fail_conj`, so it
        never meets the depth limit."""
        residuals = []
        for ic, pos in self._ic_literals.lookup(hyp):
            renamed = standardize_ic(ic, self.locals)
            residual = [_Match(renamed.body[pos].args, hyp.args)]
            residual.extend(l for j, l in enumerate(renamed.body) if j != pos)
            residuals.append(residual)
        # denials were justified by "no hypothesis matches this literal";
        # the new hypothesis must leave each of them finitely failed
        conjs = []
        for denial in self.denials.lookup(hyp):
            fresh = self._fresh_locals(denial)
            conjs.append([_Match(fresh[0].args, hyp.args)] + fresh[1:])
        rechecks = lambda: self._refute_all(conjs, 0, depth, False, k)
        return self._refute_all(residuals, 0, depth, True,
                                rechecks if conjs else k)

    def _refute_all(self, conjs, i, depth, ic_body, k):
        if i == len(conjs):
            return k
        return self._fail_conj(
            conjs[i], depth, ic_body,
            lambda: self._refute_all(conjs, i + 1, depth, ic_body, k))

    def _fail_conj(self, goals, depth, ic_body, k):
        """Establish that the conjunction has no solution.

        Continues with `k` once per way of doing so; may post constraints
        on non-local variables as a side effect (undone on backtracking).
        `ic_body` says that the conjunction is still what is left of one
        IC body after `_consistency` resolved it with a new hypothesis: no
        defined literal unfolded, no denial re-checked and no NAF literal
        passed on the way.
        """
        if not self.store.consistent:
            return k
        if not goals:
            return None  # conjunction succeeded: failure cannot be established
        if depth >= self.config.max_depth:
            return _DEPTH
        lit = goals[0]
        rest = goals[1:]
        fail_rest = lambda: self._fail_conj(rest, depth + 1, ic_body, k)

        if isinstance(lit, _Match):
            return self._fail_match(lit, fail_rest, k)

        if isinstance(lit, ConstraintLit):
            return self._fail_constraint(lit.constraint, fail_rest, k)

        if isinstance(lit, DomainDecl):
            # a domain declaration narrows; it fails only by emptying
            mark = self._mark()
            if self._declare(lit):
                return fail_rest
            self._restore(mark)
            return k

        if isinstance(lit, NafLit):
            raise AclpError(f"uncompiled NAF literal {as_written(lit)} "
                            "in integrity constraint")

        key = lit.indicator
        if key in _BUILTINS:
            return k if lit.name == "fail" else fail_rest

        if self.theory.is_abducible(*key):
            comp = self.theory.naf_complements.get(key)
            if comp is not None and self.theory.is_defined(*comp):
                return self._fail_naf(lit, comp, rest, depth, k)
            return self._fail_abducible(lit, rest, depth, ic_body, k)

        if self.theory.is_defined(*key):
            # a clause whose head `_may_unify` rejects would fail its match
            # at once: it is neither renamed nor copied, and never reaches
            # `_fail_conj`, as in `_consistency`
            resolutions = []
            for clause in self._clauses.lookup(lit):
                renamed = standardize_apart(clause, self.locals)
                fresh = self._fresh_locals([lit] + list(rest))
                resolutions.append([_Match(renamed.head.args, fresh[0].args)]
                                   + list(renamed.body) + fresh[1:])
            return self._refute_all(resolutions, 0, depth + 1, False, k)

        # unknown, non-abducible: no way to succeed, so the conjunction fails
        return k

    def _fail_match(self, item: _Match, fail_rest, k):
        mark = self._mark()
        caps = []
        if all(unify_terms(a, b, self.store, caps)
               for a, b in zip(item.a, item.b)):
            gcaps = None
            if caps and all(v.local for v in self.store.bound_since(mark)):
                # every variable the match bound is local
                gcaps = self._project_caps(caps)
            if all(self.store.post(c) for c in caps):
                if gcaps:
                    # rejection branch, tried from before the match: the
                    # match is impossible exactly when some all-global
                    # captured equality is violated
                    folded = gcaps[0]
                    for c in gcaps[1:]:
                        folded = And(folded, c)
                    self._choice(lambda: k if self.store.post(negate(folded))
                                 else None, mark)
                return fail_rest
        # the match is impossible, structurally or in the current store
        self._restore(mark)
        return k

    def _project_caps(self, caps):
        """Project captured equalities onto the global variables.

        The caps of a free local domain variable x, each with a global or
        constant partner, hold for some value of x exactly when the
        partners are equal and x's domain holds their value.  When x's
        domain covers the first partner's, they project to the equalities
        between the partners; a cap between two locals that occur nowhere
        else drops out when their domains meet.  So the match is
        impossible exactly when some projected cap is violated.  Returns
        the projected caps, or None when the projection is not exact.
        """
        occurrences = Counter(v.id for c in caps for v in constraint_vars(c)
                              if v.local)
        first = {}          # local id -> its first global or constant partner
        gcaps = []
        for c in caps:
            # a cap relates domain variables and constants; read each side
            # through the store, a constant as its singleton domain
            (x, _, dx), (y, _, dy) = map(self.store._operand, (c.a, c.b))
            partner = c.b
            if x is None or not x.local:
                (x, dx), (y, dy), partner = (y, dy), (x, dx), c.a
            if x is None or not x.local:
                gcaps.append(c)
            elif type(dx) is not type(dy):
                return None
            elif y is not None and y.local:
                if occurrences[x.id] > 1 or occurrences[y.id] > 1 \
                        or dx.intersect(dy).empty:
                    return None
            elif x.id in first:
                gcaps.append(Eq(first[x.id], partner))
            elif dx.intersect(dy).size != dy.size:
                return None  # x's domain does not cover every value of y
            else:
                first[x.id] = partner
        return gcaps or None

    def _fail_constraint(self, c, fail_rest, k):
        c = map_constraint(c, self.store.walk)
        if isinstance(c, TermEq):
            # failing a term equality is failing a unification problem
            return self._fail_match(_Match((c.a,), (c.b,)), fail_rest, k)
        truth = self.store._try_ground(c)
        if truth is True:
            return fail_rest
        if truth is False:
            return k

        def assume_it():
            mark = self._mark()
            if self._post(c):
                return fail_rest
            # constraint unsatisfiable here: the conjunction can never hold
            self._restore(mark)
            return k

        if any(v.local for v in constraint_vars(c)):
            return assume_it()
        # refute it by its negation first, then assume it
        self._choice(assume_it)
        return k if self.store.post(negate(c)) else None

    def _fail_naf(self, lit: UserLit, comp, rest, depth, k):
        """not_p with a defined complement: refute by proving p, or fail the
        remainder of the conjunction (not_p may hold), which is then no
        longer taken for an IC body."""
        fail_rest = lambda: self._fail_conj(rest, depth + 1, False, k)
        args = tuple(self.store.resolve(a) for a in lit.args)
        if any(v.local for a in args for v in term_vars(a)):
            return fail_rest
        self._choice(fail_rest)
        return self._prove([UserLit(comp[0], args)], depth + 1, k)

    def _fail_abducible(self, lit: UserLit, rest, depth, ic_body, k):
        """Closed world at check time: every current hypothesis match must
        fail together with the rest.

        Unless the conjunction is still an IC body (`ic_body`), the
        assumption is recorded as a denial, so that later additions to the
        hypothesis set re-establish it (through `_consistency`) until
        backtracking removes it; without that, an abducible buried under a
        defined predicate could revive a refuted constraint.  In an IC
        body there is nothing to record: a later hypothesis that matches
        `lit` is resolved with this very body literal by `_consistency`,
        whose closed-world matches of the body's other abducibles refute
        every instance that the denial's re-check would, so the re-check
        would refute each of them a second time.

        The candidates are looked up in Δ by first argument and tested by
        `_may_unify`, as in `_assume`: a rejected one gets no renaming and
        no `_fail_conj`."""
        items = [lit] + list(rest)
        conjs = []
        for h in self.delta.lookup(lit):
            fresh = self._fresh_locals(items)
            conjs.append([_Match(fresh[0].args,
                                 self.store.resolve_literal(h.lit).args)]
                         + fresh[1:])
        if not ic_body:
            d_lit = self.store.resolve_literal(lit)
            self.denials.add(d_lit, (d_lit,) + tuple(rest))
        return self._refute_all(conjs, 0, depth + 1, ic_body, k)


def solve(theory: AbductiveTheory, goal, initial=(), config: Config = None):
    """Convenience wrapper: fresh solver, lazy and closable answer stream.

    Each solve runs its search in a worker thread of its own, started on
    the first request, which computes one answer per request, so the
    stream stays lazy and closing it closes the search.  `perfbench`
    attributes a solve's work through that thread and joins it after each
    instance.  The search loop is flat, so the thread has the default
    stack size and the recursion limit is left alone.
    """
    requests, replies = queue.SimpleQueue(), queue.SimpleQueue()

    def worker():
        try:
            answers = Solver(theory, config).solve(goal, initial)
            while requests.get() == "next":
                replies.put(("item", next(answers)))
            answers.close()
        except StopIteration:
            replies.put(("stop", None))
        except BaseException as exc:
            replies.put(("raise", exc))

    threading.Thread(target=worker, daemon=True).start()
    finished = False
    try:
        while True:
            requests.put("next")
            kind, value = replies.get()
            if kind == "item":
                yield value
                continue
            finished = True
            if kind == "raise":
                try:
                    raise value
                finally:
                    # the traceback holds this frame: keeping the exception
                    # here would tie it, and every caller frame it passed
                    # through, into a cycle that only the collector frees
                    value = None
            return
    finally:
        if not finished:
            # the worker closes the search when it reads this; waiting for
            # it here would deadlock at interpreter shutdown, when daemon
            # threads no longer run
            requests.put("close")
