"""Finite-domain constraint store.

Domains are finite sets of integers (kept as sorted ranges) or of atoms.
Constraints are immutable values; the store holds the mutable state:
variable domains and the set of active constraints.  Each change to them
pushes its undo on a trail, the store's own or one that a solver shares
with its substitution, so a restore to any snapshot is exact.
Propagation runs to fixpoint after every post:
bounds consistency for the order constraints, arc consistency for equality
and disequality.  A disjunction is pruned once nothing else is woken: a
side whose comparisons are all fixed is decided by their truth, and each
other side is probed by posting it under a snapshot, except inside such a
probe; the disjunction is entailed by a true side and replaced by its one
satisfiable side.

Propagation is driven by an agenda of woken constraint indices.  Every
constraint but a disjunction sits on the watch list of each variable it
names: a domain write wakes the watchers of its variable, and adding a
constraint wakes it.  A constraint, a disjunction too, also sits on the
bind watch of each variable it names that has no domain when it enters:
binding such a variable, which unification does only to a variable
without a domain, re-enters the constraint resolved (`bound`), so the
store never holds a bound variable and reads no bindings.  One loop
prunes the woken constraints, lowest index
first, until none is left; then it prunes each active disjunction once,
in index order, and starts over as soon as one wakes a constraint or
posts its surviving side.  A disjunction's probe reads the whole store,
so probes run only once the cheap pruners are at their fixpoint.  A
propagation called while the loop runs (a pruner posting or declaring)
only adds and wakes its constraints, and leaves the pruning to the loop; a
probe runs a loop of its own.

Scalar constraint arguments may carry an integer offset (``X + 3``), which
is what scheduling programs need to relate start times and durations.  The
pruners read each operand as (variable, offset, domain), a constant as its
singleton domain, so a variable and a constant are pruned alike, and the
truth of a comparison whose operands are fixed is its pruner's verdict.
Atoms are compared only for (dis)equality and take no offset: ordering an
atom is a type error, inside a disjunction too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain
from typing import Iterator, Optional, Sequence, Union

from .terms import (AclpError, Atom, Int, Struct, Term, Var, as_written,
                    is_ground, map_term, rewind, term_vars)


class StoreTypeError(AclpError):
    """Integer/atomic domain mix-up on one variable."""


class StaleMarkError(AclpError):
    """Restore to a mark that is no longer on the trail."""


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntDomain:
    """Sorted, disjoint, nonempty-gap inclusive ranges."""

    ranges: tuple  # tuple[(lo, hi)]

    @staticmethod
    def range(lo: int, hi: int) -> "IntDomain":
        return IntDomain(((lo, hi),) if lo <= hi else ())

    @staticmethod
    def of(values) -> "IntDomain":
        vs = sorted(set(values))
        ranges = []
        for v in vs:
            if ranges and v == ranges[-1][1] + 1:
                ranges[-1][1] = v
            else:
                ranges.append([v, v])
        return IntDomain(tuple((a, b) for a, b in ranges))

    @property
    def empty(self) -> bool:
        return not self.ranges

    @property
    def min(self) -> int:
        return self.ranges[0][0]

    @property
    def max(self) -> int:
        return self.ranges[-1][1]

    @cached_property
    def size(self) -> int:
        # cached: the first_fail pick reads it for every unlabelled variable
        # at every node, and a domain is immutable
        return sum(hi - lo + 1 for lo, hi in self.ranges)

    def contains(self, v: int) -> bool:
        return any(lo <= v <= hi for lo, hi in self.ranges)

    def values(self) -> Iterator[int]:
        for lo, hi in self.ranges:
            yield from range(lo, hi + 1)

    @property
    def singleton(self) -> Optional[int]:
        if len(self.ranges) == 1 and self.ranges[0][0] == self.ranges[0][1]:
            return self.ranges[0][0]
        return None

    def shift(self, k: int) -> "IntDomain":
        if k == 0:
            return self
        return IntDomain(tuple((lo + k, hi + k) for lo, hi in self.ranges))

    def intersect(self, other: "IntDomain") -> "IntDomain":
        xs, ys = self.ranges, other.ranges
        out, i, j = [], 0, 0
        while i < len(xs) and j < len(ys):
            (lo, hi), (lo2, hi2) = xs[i], ys[j]
            a, b = max(lo, lo2), min(hi, hi2)
            if a <= b:
                out.append((a, b))
            # the range that ends first meets nothing further on the other side
            if hi < hi2:
                i += 1
            else:
                j += 1
        return IntDomain(tuple(out))

    def clamp(self, lo: Optional[int], hi: Optional[int]) -> "IntDomain":
        out = []
        for a, b in self.ranges:
            if lo is not None:
                a = max(a, lo)
            if hi is not None:
                b = min(b, hi)
            if a <= b:
                out.append((a, b))
        return IntDomain(tuple(out))

    def remove(self, v: int) -> "IntDomain":
        out = []
        for lo, hi in self.ranges:
            if lo <= v <= hi:
                if lo <= v - 1:
                    out.append((lo, v - 1))
                if v + 1 <= hi:
                    out.append((v + 1, hi))
            else:
                out.append((lo, hi))
        return IntDomain(tuple(out))

    def __repr__(self):
        return "{" + ",".join(f"{lo}..{hi}" if lo != hi else str(lo)
                              for lo, hi in self.ranges) + "}"


@dataclass(frozen=True)
class AtomDomain:
    """Finite atom set; declaration order is the labelling order."""

    atoms: tuple  # tuple[str]

    @staticmethod
    def of(names) -> "AtomDomain":
        seen, out = set(), []
        for n in names:
            if n not in seen:
                seen.add(n)
                out.append(n)
        return AtomDomain(tuple(out))

    @property
    def empty(self) -> bool:
        return not self.atoms

    @property
    def size(self) -> int:
        return len(self.atoms)

    def contains(self, name: str) -> bool:
        return name in self.atoms

    @property
    def singleton(self) -> Optional[str]:
        return self.atoms[0] if len(self.atoms) == 1 else None

    def shift(self, k: int) -> "AtomDomain":
        """Identity: an atom takes no offset, and the pruners settle a
        nonzero offset on an atom before they shift."""
        return self

    def intersect(self, other: "AtomDomain") -> "AtomDomain":
        keep = set(other.atoms)
        return AtomDomain(tuple(a for a in self.atoms if a in keep))

    def remove(self, name: str) -> "AtomDomain":
        return AtomDomain(tuple(a for a in self.atoms if a != name))

    def values(self) -> Iterator[str]:
        yield from self.atoms

    def __repr__(self):
        return "{" + ",".join(self.atoms) + "}"


Domain = Union[IntDomain, AtomDomain]


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constraint:
    """`a op b`; each subclass names one operator of the constraint language.

    Subclasses keep the dataclass equality, which compares classes too, so
    `Eq(x, y) != Neq(x, y)`; the connectives compare the same way with a
    stack (`_Junction`)."""

    a: Term
    b: Term
    op = ""

    def __repr__(self):
        return f"{self.a!r} {self.op} {self.b!r}"


class Eq(Constraint):
    op = "#="


class Neq(Constraint):
    op = "##"


class Lt(Constraint):
    op = "#<"


class Le(Constraint):
    op = "#<="


class Gt(Constraint):
    op = "#>"


class Ge(Constraint):
    op = "#>="


class TermEq(Constraint):   # variables at most one level inside a functor
    op = "##="


class TermNeq(Constraint):  # negates TermEq; internal only, no surface syntax
    op = "##\\="


class _Junction(Constraint):
    """A connective over two constraints, printed in brackets.

    Equality and hashing walk the connectives with a stack, like the
    walkers below; equality compares classes, as the dataclass one does."""

    def __eq__(self, other):
        pairs = [(self, other)]
        while pairs:
            x, y = pairs.pop()
            if type(x) is not type(y):
                return False
            if isinstance(x, _Junction):
                pairs += [(x.b, y.b), (x.a, y.a)]
            elif x != y:
                return False
        return True

    def __hash__(self):
        parts, stack = [], [self]
        while stack:
            x = stack.pop()
            if isinstance(x, _Junction):
                parts.append(type(x))
                stack += [x.b, x.a]
            else:
                parts.append(x)
        return hash(tuple(parts))

    def __repr__(self):
        return spell_constraint(self, Constraint.__repr__)


class And(_Junction):
    op = "#/\\"


class Or(_Junction):
    op = "#\\/"


_SCALAR = (Eq, Neq, Lt, Le, Gt, Ge)
_ARITH = (Lt, Le, Gt, Ge)
_NEGATION = {Eq: Neq, Neq: Eq, Lt: Ge, Ge: Lt, Le: Gt, Gt: Le,
             TermEq: TermNeq, TermNeq: TermEq, And: Or, Or: And}
# truth of a comparison from its two operand values: the offsets of one
# variable on both sides, or two ground terms
_TRUTH = {Eq: operator.eq, Neq: operator.ne, Lt: operator.lt, Le: operator.le,
          Gt: operator.gt, Ge: operator.ge, TermEq: operator.eq,
          TermNeq: operator.ne}
_VERDICT = {"entail": True, "fail": False}   # a pruner's verdict as a truth


# The walkers below keep an explicit stack rather than recursing, so
# connectives may nest as deep as memory allows, and visit the comparisons
# of a constraint left to right.  Most constraints are a single comparison,
# which `_fold` and `map_constraint` handle without building a stack.

def _fold(c: Constraint, leaf, join):
    """leaf(x) of each comparison x in `c`, combined bottom-up by
    join(connective, value of its left side, value of its right side)."""
    if not isinstance(c, _Junction):
        return leaf(c)
    done, stack = [], [(c, False)]    # (node, sides already folded)
    while stack:
        x, joined = stack.pop()
        if joined:
            b = done.pop()
            done.append(join(x, done.pop(), b))
        elif isinstance(x, _Junction):
            stack += [(x, True), (x.b, False), (x.a, False)]
        else:
            done.append(leaf(x))
    return done[0]


def _parts(c: Constraint, kind=_Junction) -> Iterator[Constraint]:
    """The largest subconstraints of `c` that are not `kind` connectives."""
    stack = [c]
    while stack:
        x = stack.pop()
        if isinstance(x, kind):
            stack += [x.b, x.a]
        else:
            yield x


def negate(c: Constraint) -> Constraint:
    """Mathematical negation; an involution on the constraint language."""
    return _fold(c, lambda x: _NEGATION[type(x)](x.a, x.b),
                 lambda x, a, b: _NEGATION[type(x)](a, b))   # De Morgan


def _join_truth(c: Constraint, a, b):
    """Truth of a connective from the truth of its sides (None: unknown)."""
    decisive = isinstance(c, Or)      # the value that decides it on its own
    if decisive in (a, b):
        return decisive
    return None if None in (a, b) else not decisive


def constraint_terms(c: Constraint) -> list:
    """The operands of the comparisons in `c`, left to right."""
    if not isinstance(c, _Junction):   # the common case, without a walk
        return [c.a, c.b]
    return [t for x in _parts(c) for t in (x.a, x.b)]


def constraint_vars(c: Constraint) -> Iterator[Var]:
    for t in constraint_terms(c):
        yield from term_vars(t)


def map_constraint(c: Constraint, f) -> Constraint:
    """Copy of `c` with each operand term mapped by `map_term(., f)`, left
    to right."""
    if not isinstance(c, _Junction):   # the common case, without closures
        return type(c)(map_term(c.a, f), map_term(c.b, f))
    return _fold(c, lambda x: map_constraint(x, f),
                 lambda x, a, b: type(x)(a, b))


def _watched(c: Constraint):
    """The ids of the variables that `c` names, each once."""
    if isinstance(c, _Junction):
        return {v.id: None for v in constraint_vars(c)}
    ids = {}
    for t in (c.a, c.b):
        if isinstance(t, Var):
            ids[t.id] = None
        elif isinstance(t, Struct):
            ids.update((v.id, None) for v in term_vars(t))
    return ids


def spell_constraint(c: Constraint, leaf) -> str:
    """Text of `c`: leaf(x) for each comparison x, and `(a op b)` for each
    connective."""
    return _fold(c, leaf, lambda x, a, b: f"({a} {x.op} {b})")


# ---------------------------------------------------------------------------
# Scalar operands: base term plus integer offset
# ---------------------------------------------------------------------------

def split_offset(t: Term):
    """Normalize `X + 3` / `X - 1` / plain terms to (base, offset).

    Returns None for terms that are not scalar operands (nested arithmetic
    over compounds and the like).
    """
    if isinstance(t, Struct) and t.functor in ("+", "-") and t.arity == 2:
        base, off = t.args
        if isinstance(base, Int) and isinstance(off, Int):
            v = base.value + off.value if t.functor == "+" else base.value - off.value
            return Int(v), 0
        if isinstance(off, Int) and isinstance(base, Var):
            return base, off.value if t.functor == "+" else -off.value
        return None
    if isinstance(t, (Var, Int, Atom)):
        return t, 0
    return None


def never_scalar(t: Term) -> bool:
    """True when no binding of its variables makes `t` a scalar operand
    (`split_offset`): a compound other than `+`/`-` over two variables or
    integers.  `S + D` is scalar once D is bound to an integer."""
    return isinstance(t, Struct) and not (
        t.functor in ("+", "-") and t.arity == 2
        and all(isinstance(a, (Var, Int)) for a in t.args))


def _arg_pairs(a: Term, b: Term) -> Optional[list]:
    """The scalar pairs, one level deep and left to right, that are equal
    exactly when terms `a` and `b` are, leaving out pairs of equal ground
    terms; None when `a` and `b` can never be equal."""
    if isinstance(a, Struct) and isinstance(b, Struct):
        if a.functor != b.functor or a.arity != b.arity:
            return None
        args = zip(a.args, b.args)
    elif isinstance(a, Struct) or isinstance(b, Struct):
        return None  # a compound never equals a scalar
    else:
        args = ((a, b),)
    pairs = []
    for x, y in args:
        if is_ground(x) and is_ground(y):
            if x != y:
                return None
        elif isinstance(x, Struct) or isinstance(y, Struct):
            raise StoreTypeError("##= argument nested too deep: "
                                 f"{as_written(x)} / {as_written(y)}")
        else:
            pairs.append((x, y))
    return pairs


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

ACTIVE = 0
ENTAILED = 1   # also: replaced by the sub-constraints it posted

DEFAULT_LO = -10_000_000      # the domain of an undeclared arithmetic
DEFAULT_HI = 10_000_000       # variable, implementation-wide


class ConstraintStore:
    def __init__(self, trail: list = None):
        self.domains: dict[int, Domain] = {}
        self.var_names: dict[int, str] = {}
        self.constraints: list[Constraint] = []
        self.states: list[int] = []
        self.consistent = True
        self.trail = [] if trail is None else trail   # (undo, a, b) entries
        self._probing = 0             # nesting depth of satisfiability probes
        # watch lists, variable id -> indices of the constraints naming it,
        # in increasing order: `watch` for domain writes, which leaves the
        # disjunctions to `_ors`, and `bind_watch` for bindings, which holds
        # each constraint under the variables without a domain when it
        # entered
        self.watch: dict[int, list[int]] = {}
        self.bind_watch: dict[int, list[int]] = {}
        self._ors: list[int] = []
        # the agenda: a heap of the woken indices, each waiting once
        self._agenda: list[int] = []
        self._queued: set[int] = set()
        self._running = False   # the propagation loop is pruning

    # -- trail ---------------------------------------------------------------

    def snapshot(self) -> int:
        return len(self.trail)

    def restore(self, mark: int) -> None:
        if mark > len(self.trail):
            raise StaleMarkError(f"stale mark {mark}")
        rewind(self.trail, mark)

    def _set_domain(self, v: Var, dom: Domain) -> None:
        old = self.domains.get(v.id)
        if old is None:
            self.var_names[v.id] = v.name
            self.trail.append((self._undeclare, v.id, None))
        else:
            self.trail.append((self.domains.__setitem__, v.id, old))
        self.domains[v.id] = dom
        for idx in self.watch.get(v.id, ()):
            if self.states[idx] == ACTIVE:
                self._wake(idx)

    def _undeclare(self, vid: int, _) -> None:
        del self.domains[vid]
        self.var_names.pop(vid, None)

    def _unenter(self, woken_by, untyped) -> None:
        """Undo `_enter` of the newest constraint, which `woken_by` and
        `untyped` watch."""
        if isinstance(self.constraints.pop(), Or):
            self._ors.pop()
        self.states.pop()
        for watch, vids in ((self.watch, woken_by),
                            (self.bind_watch, untyped)):
            for vid in vids:
                watchers = watch[vid]
                watchers.pop()
                if not watchers:
                    del watch[vid]
        self._agenda.clear()     # what a propagation that raised left woken
        self._queued.clear()

    def _wake(self, idx: int) -> None:
        if idx not in self._queued:
            self._queued.add(idx)
            heappush(self._agenda, idx)

    def _set_state(self, idx: int, state: int) -> None:
        self.trail.append((self.states.__setitem__, idx, self.states[idx]))
        self.states[idx] = state

    def _fail(self) -> bool:
        if self.consistent:
            self.trail.append((self.__setattr__, "consistent", True))
            self.consistent = False
            self._agenda.clear()     # what the failed propagation left woken
            self._queued.clear()
        return False

    # -- declarations --------------------------------------------------------

    def has_domain(self, v: Var) -> bool:
        return v.id in self.domains

    def domain(self, v: Var) -> Optional[Domain]:
        return self.domains.get(v.id)

    def declare(self, v: Var, dom: Domain) -> bool:
        """Set or intersect a variable's domain; False when it empties."""
        cur = self.domains.get(v.id)
        if cur is not None:
            if type(cur) is not type(dom):
                raise StoreTypeError(
                    f"variable {v.name} redeclared with a different domain kind")
            dom = cur.intersect(dom)
        self._set_domain(v, dom)
        if dom.empty:
            return self._fail()
        return self._propagate()

    # -- posting and propagation ---------------------------------------------

    def post(self, c: Constraint) -> bool:
        """Add a constraint and propagate to fixpoint; False means UNSAT."""
        if not self.consistent:
            return False
        if isinstance(c, And):
            return all(self.post(x) for x in _parts(c, And))
        if isinstance(c, (TermEq, TermNeq)):
            return self._post_term(c)
        if isinstance(c, _SCALAR):
            if not self._prepare_scalar(c):
                return False
        self._enter(c)
        return self._propagate()

    def _enter(self, c: Constraint) -> None:
        """Append `c` as active and watched, and wake it unless it is a
        disjunction, which no domain write wakes: the loop prunes it once
        the rest is at fixpoint."""
        idx = len(self.constraints)
        self.constraints.append(c)
        self.states.append(ACTIVE)
        named = _watched(c)
        untyped = [vid for vid in named if vid not in self.domains]
        if isinstance(c, Or):
            self._ors.append(idx)
            woken_by = ()
        else:
            woken_by = named
            self._wake(idx)
        for watch, vids in ((self.watch, woken_by),
                            (self.bind_watch, untyped)):
            for vid in vids:
                watch.setdefault(vid, []).append(idx)
        self.trail.append((self._unenter, woken_by, untyped))

    def bound(self, v: Var, walk) -> bool:
        """Take in the binding of `v`, a variable without a domain: each
        active constraint naming it is marked entailed and posted again,
        resolved through `walk`.  False when that fails."""
        woken = self.waiting((v.id,))
        for idx in woken:
            self._set_state(idx, ENTAILED)
        return all(self.post(map_constraint(self.constraints[idx], walk))
                   for idx in woken)

    def waiting(self, vids) -> list:
        """The indices of the active constraints on the bind watch of the
        variables with ids `vids`, each once."""
        return list({idx: None for vid in vids
                     for idx in self.bind_watch.get(vid, ())
                     if self.states[idx] == ACTIVE})

    def _prepare_scalar(self, c) -> bool:
        """Give default integer domains to undeclared arithmetic variables."""
        a, b = self._operand(c.a), self._operand(c.b)
        if a is None or b is None:
            raise StoreTypeError(f"non-scalar operand in {as_written(c)}")
        for (x, _, _), (y, _, dy) in ((a, b), (b, a)):
            if x is not None and not self.has_domain(x):
                if isinstance(c, _ARITH) or not isinstance(dy, AtomDomain):
                    if not self.declare(x, IntDomain.range(DEFAULT_LO,
                                                           DEFAULT_HI)):
                        return False
                elif isinstance(c, Eq) and y is None:    # X #= atom
                    if not self.declare(x, dy):
                        return False
                # Neq against an atom with an undeclared variable stays
                # pending until the variable gets a domain.
        return True

    def _post_term(self, c) -> bool:
        """`##=` as `#=` on each argument pair (`_arg_pairs`), its negation
        as the `#\\/` of `##` over them.  A side that is a variable without
        a domain leaves `c` pending, with that variable on the left of a
        `##=`, until `_prune_pending_term` sees it typed."""
        a, b = c.a, c.b
        if self._untyped(a) or self._untyped(b):
            if isinstance(c, TermEq) and not self._untyped(a):
                c = TermEq(b, a)
            self._enter(c)
            return self._propagate()
        pairs = _arg_pairs(a, b)
        if pairs is None:  # never equal
            return self._fail() if isinstance(c, TermEq) else True
        if isinstance(c, TermEq):
            return all(self.post(Eq(*p)) for p in pairs)
        if not pairs:
            return self._fail()  # terms forced identical
        d = Neq(*pairs[0])
        for p in pairs[1:]:
            d = Or(d, Neq(*p))
        return self.post(d)

    def _untyped(self, t: Term) -> bool:
        return isinstance(t, Var) and not self.has_domain(t)

    def _propagate(self) -> bool:
        """Prune the woken constraints until none is left, then each active
        disjunction once, starting over when one of them wakes a constraint
        or posts its surviving side; False when a pruner fails.  Called
        while the loop runs, it leaves what its caller added and woke to
        that loop."""
        if not self.consistent:
            return False
        if self._running:
            return True
        self._running = True
        try:
            i = 0                       # the next disjunction, in self._ors
            while True:
                if self._agenda:
                    idx = heappop(self._agenda)
                    self._queued.discard(idx)
                elif i < len(self._ors):
                    idx = self._ors[i]
                    i += 1
                else:
                    return True
                if self.states[idx] != ACTIVE:
                    continue
                size = len(self.constraints)
                res = self._prune(idx, self.constraints[idx])
                if res == "fail":
                    return self._fail()
                if res == "entail":
                    self._set_state(idx, ENTAILED)
                if self._agenda or len(self.constraints) > size:
                    i = 0               # woke or added: start over
        except StoreTypeError:
            # the constraint stays active and woken: the next propagation
            # meets it again
            self._wake(idx)
            raise
        finally:
            self._running = False

    # -- individual propagators ----------------------------------------------

    def _operand(self, t: Term):
        """A scalar operand as (variable or None, offset, domain): a constant
        reads as its singleton domain, an undeclared variable with domain
        None.  None when `t` is not a scalar operand."""
        s = split_offset(t)
        if s is None:
            return None
        base, k = s
        if isinstance(base, Var):
            return base, k, self.domains.get(base.id)
        if isinstance(base, Int):
            return None, k, IntDomain(((base.value, base.value),))
        return None, k, AtomDomain((base.name,))

    def _narrow(self, v, old: Domain, new: Domain) -> bool:
        """Give v the domain `new`, a subset of its domain `old`; False when
        `new` is empty.  A constant (v None) is never written."""
        if new.empty:
            return False
        if v is not None and new != old:
            self._set_domain(v, new)
        return True

    def _prune(self, idx: int, c: Constraint) -> str:
        if isinstance(c, (TermEq, TermNeq)):
            return self._prune_pending_term(idx, c)
        if isinstance(c, Or):
            return self._prune_or(idx, c)
        a, b = self._operand(c.a), self._operand(c.b)
        if a is None or b is None:
            raise StoreTypeError(f"non-scalar operand in {as_written(c)}")
        return self._prune_scalar(c, a, b)

    def _prune_scalar(self, c: Constraint, a, b) -> str:
        """Prune the comparison `c` over its operands read as `_operand`
        triples.  With both operands fixed it writes nothing, and its
        verdict is the truth of `c` (`_ground_truth`).  One variable on both
        sides is decided by its offsets, unless it is atom-typed with an
        offset, which the pruners below settle."""
        if a[0] is not None and b[0] is not None and a[0].id == b[0].id \
                and not (isinstance(a[2], AtomDomain) and (a[1] or b[1])):
            return "entail" if _TRUTH[type(c)](a[1], b[1]) else "fail"
        if isinstance(c, Eq):
            return self._prune_eq(a, b)
        if isinstance(c, Neq):
            return self._prune_neq(a, b)
        if isinstance(c, (Gt, Ge)):
            a, b = b, a
        if isinstance(c, (Lt, Gt)):
            b = (b[0], b[1] - 1, b[2])       # a < b is a <= b - 1
        return self._prune_le(a, b)

    def _prune_eq(self, a, b) -> str:
        (x, kx, dx), (y, ky, dy) = a, b
        if dx is None or dy is None:
            return "none"  # untyped; wait
        if type(dx) is not type(dy) or (type(dx) is AtomDomain and (kx or ky)):
            return "fail"  # an atom equals no integer and takes no offset
        common = dx.shift(kx).intersect(dy.shift(ky))
        ny = dy.shift(ky).intersect(common).shift(-ky)  # in y's atom order
        if not (self._narrow(x, dx, common.shift(-kx))
                and self._narrow(y, dy, ny)):
            return "fail"
        return "entail" if common.singleton is not None else "none"

    def _prune_neq(self, a, b) -> str:
        """Decided once a side is fixed; before that, only disjoint integer
        bounds entail it (disjoint domains do not)."""
        if b[2] is None or b[2].singleton is None:
            a, b = b, a                       # b is the fixed side, if any
        (x, kx, dx), (_, ky, dy) = a, b
        fixed = None if dy is None else dy.singleton
        if fixed is None:
            if type(dx) is type(dy) is IntDomain and (
                    dx.max + kx < dy.min + ky or dy.max + ky < dx.min + kx):
                return "entail"
            return "none"
        if AtomDomain in (type(dx), type(dy)) and (kx or ky):
            return "entail"  # an atom with an offset equals nothing
        if dx is None:
            return "none"
        if type(dx) is not type(dy):
            return "entail"
        if isinstance(dx, IntDomain):
            fixed += ky - kx
        return "entail" if self._narrow(x, dx, dx.remove(fixed)) else "fail"

    def _prune_le(self, a, b) -> str:
        """a <= b, each with its offset, with bounds consistency."""
        (x, kx, dx), (y, ky, dy) = a, b
        if AtomDomain in (type(dx), type(dy)):
            raise StoreTypeError("order constraint over atoms")
        if dx is None or dy is None:
            return "none"
        if dx.max + kx <= dy.min + ky:
            return "entail"
        nx = dx.clamp(None, dy.max + ky - kx)
        if not self._narrow(x, dx, nx):
            return "fail"
        ny = dy.clamp(dx.min + kx - ky, None)
        if not self._narrow(y, dy, ny):
            return "fail"
        return "entail" if nx.max + kx <= ny.min + ky else "none"

    def _prune_pending_term(self, idx: int, c) -> str:
        # woken when a previously untyped variable has acquired a domain
        if self._untyped(c.a) or self._untyped(c.b):
            return "none"
        self._set_state(idx, ENTAILED)
        return "none" if self.post(c) else "fail"

    def _prune_or(self, idx: int, c: Or) -> str:
        # a decided disjunction posts its surviving side into the running
        # loop, so a chain of disjunctions decided one after another does
        # not nest calls
        ga, gb = self._try_ground(c.a), self._try_ground(c.b)
        if ga is True or gb is True:
            return "entail"
        if self._probing:
            # a satisfiability probe is already running; probing again from
            # inside it would re-enter this disjunction without end, so only
            # the ground checks above decide a side
            sat_a, sat_b = ga is None, gb is None
        else:
            sat_a = ga is None and self._test_sat(c.a)
            sat_b = gb is None and self._test_sat(c.b)
        if not (sat_a or sat_b):
            return "fail"
        if sat_a and sat_b:
            return "none"
        self._set_state(idx, ENTAILED)
        return "none" if self.post(c.a if sat_a else c.b) else "fail"

    def _try_ground(self, c: Constraint):
        """Truth value of a constraint whose operands are all fixed, else None."""
        return _fold(c, self._ground_truth, _join_truth)

    def _ground_truth(self, c: Constraint):
        if isinstance(c, (TermEq, TermNeq)):
            if not (is_ground(c.a) and is_ground(c.b)):
                return None
            return _TRUTH[type(c)](c.a, c.b)
        a, b = self._operand(c.a), self._operand(c.b)
        if a is None or b is None or a[2] is None or b[2] is None \
                or a[2].singleton is None or b[2].singleton is None:
            return None  # not a scalar comparison, or an operand not fixed
        return _VERDICT.get(self._prune_scalar(c, a, b))

    def _test_sat(self, c: Constraint) -> bool:
        # the probe runs a propagation loop of its own, from an empty
        # agenda: the loop prunes a disjunction only with nothing woken.
        # It is fully undone, and so are the wakes of its writes
        mark = self.snapshot()
        running, self._running = self._running, False
        self._probing += 1
        try:
            return self.post(c)
        finally:
            self._probing -= 1
            self._running = running
            self.restore(mark)

    # -- labelling -----------------------------------------------------------

    def label(self, vars: Sequence = (), strategy: str = "input_order",
              rng=None, prefer: dict = None) -> Iterator[dict]:
        """Depth-first enumeration of ground valuations of `vars`.

        Yields dicts mapping each variable's id to an Int or Atom term.  The
        search propagates after every assignment; value order is ascending
        for integers and declaration order for atoms, optionally shuffled by
        `rng` for randomized harness runs.  `prefer` maps variable ids to
        values to try first (used by minimal-change rescheduling).

        The store is left as it was found, whether the enumeration runs
        to its end or is abandoned (closed, or dropped) after any
        valuation.
        """
        if not self.consistent:
            return
        # one entry per variable id, so the labelled ones are always a
        # prefix of vs under input_order
        vs = list({v.id: v for v in vars if self.has_domain(v)}.values())
        prefer = prefer or {}
        acc = {}                      # variable id -> its value on this path
        # (variable, its values not yet tried, mark before its value on this
        # path) per labelled variable: the search keeps its own stack, so it
        # does not recurse however many variables there are
        path = []
        entry = self.snapshot()
        try:
            while True:
                if len(acc) < len(vs):
                    v = vs[len(acc)]
                    if strategy == "first_fail":    # least (size, id) left
                        least = None
                        for u in vs:
                            if u.id not in acc:
                                key = (self.domains[u.id].size, u.id)
                                if least is None or key < least:
                                    least, v = key, u
                    path.append((v, self._value_order(v, rng, prefer), None))
                else:
                    yield dict(acc)
                # move the deepest variable with a value left to that value
                while path:
                    v, values, mark = path.pop()
                    if mark is not None:
                        del acc[v.id]
                        self.restore(mark)
                    step = self._post_next(v, values)
                    if step is not None:
                        mark, acc[v.id] = step
                        path.append((v, values, mark))
                        break
                else:
                    return
        finally:
            self.restore(entry)

    def _post_next(self, v, values):
        """Post `v = x` for the next value x that propagates: (mark before
        it, x as a term), or None when no value is left."""
        for val in values:
            term = Int(val) if isinstance(val, int) else Atom(val)
            mark = self.snapshot()
            if self.post(Eq(v, term)):
                return mark, term
            self.restore(mark)
        return None

    def _value_order(self, v, rng, prefer) -> Iterator:
        dom = self.domains[v.id]
        values = dom.values()          # lazy: a domain may hold 10^7 values
        if rng is not None:
            values = list(values)
            rng.shuffle(values)
        first = prefer.get(v.id)
        if isinstance(first, int if isinstance(dom, IntDomain) else str) \
                and dom.contains(first):
            values = chain((first,), (x for x in values if x != first))
        return iter(values)

    # -- misc ----------------------------------------------------------------

    def clone(self) -> "ConstraintStore":
        """A copy with a trail of its own, an empty one."""
        out = ConstraintStore()
        out.domains = dict(self.domains)
        out.var_names = dict(self.var_names)
        out.constraints = list(self.constraints)
        out.states = list(self.states)
        out.consistent = self.consistent
        out.watch = {vid: list(ixs) for vid, ixs in self.watch.items()}
        out.bind_watch = {vid: list(ixs)
                          for vid, ixs in self.bind_watch.items()}
        out._ors = list(self._ors)
        return out

    def active_constraints(self) -> list:
        return [c for c, s in zip(self.constraints, self.states) if s == ACTIVE]

    def render(self) -> str:
        """Stable text form: domains by variable id, then residual constraints."""
        lines = []
        for vid in sorted(self.domains):
            name = self.var_names.get(vid, f"V{vid}")
            lines.append(f"{name} ∈ {self.domains[vid]!r}")
        for c in self.active_constraints():
            lines.append(repr(c))
        return "\n".join(lines)
