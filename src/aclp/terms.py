"""Terms, literals, clauses, unification, renaming apart, and printing in
source syntax.

Terms are immutable.  The bindings of a derivation live in its constraint
store, which pushes each binding on its trail so that backtracking can
undo it.  Unification (`unify_terms`) only walks terms through those
bindings and decomposes structures: the store decides how a variable is
equated (`ConstraintStore.equate`), so that a variable with a finite
domain is never bound and propagation sees every equation.

The `format_*` printers give a term, constraint, literal or clause in
source syntax, and every error message prints through them, by
`as_written`, so it names terms as the user wrote them.  The `repr` of a
term, a user literal or a constraint names each variable by its id; it
serves the Δ records and `ConstraintStore.render`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union


class AclpError(Exception):
    """Base class for errors raised by the engine and its front ends."""


class UnknownPredicateError(AclpError):
    def __init__(self, name: str, arity: int):
        super().__init__(f"unknown predicate {name}/{arity}")
        self.name = name
        self.arity = arity


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Var:
    name: str
    id: int
    # minted by a refutation for its own local existentials (see
    # `VarCounter.locals`); equality, hashing and printing ignore it
    local: bool = field(default=False, compare=False)

    def __repr__(self):
        return f"_{self.name}#{self.id}"


@dataclass(frozen=True, slots=True)
class Int:
    value: int

    def __repr__(self):
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Atom:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Struct:
    functor: str
    args: tuple

    def __post_init__(self):
        if not self.functor:
            raise ValueError("empty functor")

    @property
    def arity(self) -> int:
        return len(self.args)

    # equality, hashing and printing walk the term with a stack, like the
    # walkers below
    def __eq__(self, other):
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if isinstance(a, Struct) and isinstance(b, Struct):
                if a.functor != b.functor or len(a.args) != len(b.args):
                    return False
                pairs.extend(zip(a.args, b.args))
            elif isinstance(a, Struct) or isinstance(b, Struct) or a != b:
                return False
        return True

    def __hash__(self):
        # the prefix form with arities spells one term only
        parts, stack = [], [self]
        while stack:
            t = stack.pop()
            if isinstance(t, Struct):
                parts.append((t.functor, len(t.args)))
                stack.extend(t.args)
            else:
                parts.append(t)
        return hash(tuple(parts))

    def __repr__(self):
        return spell(self, repr)


Term = Union[Var, Int, Atom, Struct]


# The walkers below keep an explicit stack rather than recursing, so a term
# may nest as deep as memory allows whatever the interpreter's recursion
# limit.  They visit subterms left to right, depth first.

def term_vars(t: Term) -> Iterator[Var]:
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            yield t
        elif isinstance(t, Struct):
            stack.extend(reversed(t.args))


def map_term(t: Term, f) -> Term:
    """Copy of `t` with every subterm s replaced by f(s), outermost first;
    the arguments of a Struct that f returns are mapped in turn."""
    t = f(t)
    if not isinstance(t, Struct):
        return t
    stack = [(t, [], iter(t.args))]   # (struct, mapped args, args left)
    while True:
        s, done, rest = stack[-1]
        for a in rest:
            a = f(a)
            if isinstance(a, Struct):
                stack.append((a, [], iter(a.args)))
                break
            done.append(a)
        else:
            stack.pop()
            s = Struct(s.functor, tuple(done))
            if not stack:
                return s
            stack[-1][1].append(s)


def is_ground(t: Term) -> bool:
    return next(term_vars(t), None) is None


class VarCounter:
    """Source of globally fresh variable ids for one derivation."""

    def __init__(self, start: int = 0):
        self._ids = itertools.count(start)
        self._local = False

    def fresh(self, name: str = "_G") -> Var:
        return Var(name, next(self._ids), self._local)

    def locals(self) -> "VarCounter":
        """A twin that draws from the same ids and mints local variables."""
        twin = VarCounter()
        twin._ids, twin._local = self._ids, True
        return twin


# ---------------------------------------------------------------------------
# Literals, clauses, integrity constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class UserLit:
    name: str
    args: tuple

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> tuple:
        return (self.name, len(self.args))

    def __repr__(self):
        if not self.args:
            return self.name
        return f"{self.name}({','.join(map(repr, self.args))})"


@dataclass(frozen=True, slots=True)
class ConstraintLit:
    constraint: "object"  # store.Constraint; kept loose to avoid a cycle


@dataclass(frozen=True, slots=True)
class NafLit:
    """Surface syntax only: compiled away before execution."""

    inner: UserLit


Literal = Union[UserLit, ConstraintLit, NafLit]


@dataclass(frozen=True, slots=True)
class DomainDecl:
    """A `Var :: Domain` goal; behaves like a body literal."""

    var: Term
    lo: Term
    hi: Term
    atoms: Optional[tuple] = None  # set when declared over an atom list


@dataclass(frozen=True, slots=True)
class Clause:
    head: UserLit
    body: tuple


@dataclass(frozen=True, slots=True)
class IntegrityConstraint:
    body: tuple


def map_literal(lit: Literal, f) -> Literal:
    """Copy of `lit` with each argument term mapped by `map_term(., f)`,
    left to right."""
    if isinstance(lit, UserLit):
        return UserLit(lit.name, tuple(map_term(a, f) for a in lit.args))
    if isinstance(lit, ConstraintLit):
        return ConstraintLit(_store.map_constraint(lit.constraint, f))
    if isinstance(lit, NafLit):
        return NafLit(map_literal(lit.inner, f))
    if isinstance(lit, DomainDecl):
        return DomainDecl(map_term(lit.var, f), map_term(lit.lo, f),
                          map_term(lit.hi, f), lit.atoms)
    raise TypeError(lit)


# ---------------------------------------------------------------------------
# Printing: source syntax, which round-trips through parser.parse_theory
# ---------------------------------------------------------------------------

def spell(t: Term, leaf, infix=()) -> str:
    """Text of `t`: leaf(s) for each non-Struct subterm s, `f(a,b)` for a
    struct, and `a f b` for a binary struct whose functor is in `infix`."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif not isinstance(t, Struct):
            out.append(leaf(t))
        elif t.functor in infix and len(t.args) == 2:
            stack += [t.args[1], f" {t.functor} ", t.args[0]]
        else:
            out.append(t.functor + "(")
            stack.append(")")
            for i in range(len(t.args) - 1, -1, -1):
                stack.append(t.args[i])
                if i:
                    stack.append(",")
    return "".join(out)


def _format_leaf(t) -> str:
    if isinstance(t, Var):
        return t.name if t.name != "_" else f"_A{t.id}"
    if isinstance(t, Int):
        return str(t.value)
    if isinstance(t, Atom):
        return t.name
    raise TypeError(t)


def _written_leaf(t) -> str:
    # an anonymous variable as written, where `_format_leaf` names it by id
    # to keep it apart from the others
    return "_" if isinstance(t, Var) and t.name == "_" else _format_leaf(t)


def format_term(t, leaf=_format_leaf) -> str:
    return spell(t, leaf, ("+", "-"))


def _format_comparison(c, leaf) -> str:
    if isinstance(c, _store.TermNeq):
        raise ValueError(f"constraint {c!r} has no surface syntax")
    return f"{format_term(c.a, leaf)} {c.op} {format_term(c.b, leaf)}"


def format_constraint(c, leaf=_format_leaf) -> str:
    """Source text of a constraint; nested connectives are bracketed."""
    text = _store.spell_constraint(c, lambda x: _format_comparison(x, leaf))
    return text[1:-1] if isinstance(c, (_store.And, _store.Or)) else text


def format_literal(lit, leaf=_format_leaf) -> str:
    """Source text of a literal; a term prints as `format_term` prints it."""
    if isinstance(lit, NafLit):
        return f"not({format_literal(lit.inner, leaf)})"
    if isinstance(lit, ConstraintLit):
        return format_constraint(lit.constraint, leaf)
    if isinstance(lit, DomainDecl):
        var = format_term(lit.var, leaf)
        if lit.atoms is not None:
            return f"{var} :: [{','.join(a.name for a in lit.atoms)}]"
        return f"{var} :: {format_term(lit.lo, leaf)}..{format_term(lit.hi, leaf)}"
    if isinstance(lit, UserLit):
        lit = Struct(lit.name, lit.args) if lit.args else Atom(lit.name)
    return format_term(lit, leaf)


def format_clause(clause, leaf=_format_leaf) -> str:
    """Source text of a clause or an integrity constraint."""
    body = ", ".join(format_literal(b, leaf) for b in clause.body)
    if isinstance(clause, IntegrityConstraint):
        return f"ic :- {body}."
    head = format_literal(clause.head, leaf)
    return f"{head} :- {body}." if body else f"{head}."


def as_written(x) -> str:
    """`x`, a term, constraint, literal, clause or IC, in source syntax for
    an error message: as `format_*` prints it, but with an anonymous
    variable as `_`."""
    if isinstance(x, (Clause, IntegrityConstraint)):
        return format_clause(x, _written_leaf)
    if isinstance(x, _store.Constraint):
        return format_constraint(x, _written_leaf)
    return format_literal(x, _written_leaf)


# ---------------------------------------------------------------------------
# The trail and unification
# ---------------------------------------------------------------------------

def rewind(trail: list, mark: int) -> None:
    """Undo the entries pushed on `trail` since its length was `mark`,
    newest first.

    Each entry is (undo, a, b), undone by the call undo(a, b).  A solver's
    store and indexes push onto one trail, so one mark and one loop undo
    them all."""
    while len(trail) > mark:
        undo, a, b = trail.pop()
        undo(a, b)


def unify_terms(t1: Term, t2: Term, store, caps: list = None) -> bool:
    """Unify two terms in place, under the bindings of `store`.

    Walks both terms and decomposes structures; each pair with a variable
    is handed to `store.equate`, which binds it or posts an equality,
    collected in `caps` instead when given.  Returns False on a
    structural mismatch, an occurs-check violation or when the store
    fails.  The caller is responsible for rewinding the trail on failure.
    """
    walk = store.walk
    pairs = [(t1, t2)]
    while pairs:
        t1, t2 = pairs.pop()
        t1, t2 = walk(t1), walk(t2)
        if isinstance(t1, Var) or isinstance(t2, Var):
            if not store.equate(t1, t2, caps):
                return False
        elif isinstance(t1, Struct) and isinstance(t2, Struct):
            if t1.functor != t2.functor or len(t1.args) != len(t2.args):
                return False
            pairs.extend(zip(reversed(t1.args), reversed(t2.args)))
        elif t1 != t2:
            return False
    return True


# ---------------------------------------------------------------------------
# Standardize apart
# ---------------------------------------------------------------------------

def _renamer(counter: VarCounter, walk=None, keeps=None):
    """(rename, mapping) for one renaming: rename maps each variable, first
    walked by `walk` when one is given, to a fresh one, the same one every
    time, recorded in mapping, unless keeps(variable) holds; it leaves
    every other subterm alone."""
    mapping: dict[int, Var] = {}

    def rename(t):
        if walk is not None:
            t = walk(t)
        if not isinstance(t, Var) or keeps is not None and keeps(t):
            return t
        if t.id not in mapping:
            mapping[t.id] = counter.fresh(t.name)
        return mapping[t.id]
    return rename, mapping


def standardize_apart(clause: Clause, counter: VarCounter) -> Clause:
    """Fresh copy of a clause."""
    rename, _ = _renamer(counter)
    return Clause(map_literal(clause.head, rename),
                  tuple(map_literal(b, rename) for b in clause.body))


def standardize_ic(ic: IntegrityConstraint,
                   counter: VarCounter) -> IntegrityConstraint:
    rename, _ = _renamer(counter)
    return IntegrityConstraint(tuple(map_literal(b, rename) for b in ic.body))


def rename_conjunction(lits, counter: VarCounter) -> list:
    """Rename a goal conjunction apart with one shared variable mapping."""
    rename, _ = _renamer(counter)
    return [map_literal(l, rename) for l in lits]


# bound last: store imports the names above from this module
from . import store as _store
