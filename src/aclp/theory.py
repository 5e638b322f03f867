"""Abductive theories: the program / abducibles / integrity constraint triple.

`compile_naf` rewrites negation-as-failure literals `not(p(...))` into
abducible `not_p(...)` literals.  In validate mode the user must have
declared the abducible and written a guarding integrity constraint
mentioning it; autogenerate mode synthesizes both.  The compiler records
which abducibles are NAF complements of program predicates: the engine
refutes those by proving the complement rather than by closed-world
matching against the hypothesis set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .terms import (AclpError, Clause, IntegrityConstraint, Literal, NafLit,
                    UserLit, VarCounter, as_written)


class TheoryError(AclpError):
    def __init__(self, code: str, detail: str, item=None):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.item = item              # the clause or IC it concerns, if one


@dataclass
class AbductiveTheory:
    clauses: dict = field(default_factory=dict)       # (name, arity) -> [Clause]
    abducibles: set = field(default_factory=set)      # {(name, arity)}
    ics: list = field(default_factory=list)           # source order matters
    naf_complements: dict = field(default_factory=dict)  # (not_p, k) -> (p, k)

    def clauses_for(self, name: str, arity: int) -> list:
        return self.clauses.get((name, arity), [])

    def is_abducible(self, name: str, arity: int) -> bool:
        return (name, arity) in self.abducibles

    def is_defined(self, name: str, arity: int) -> bool:
        return (name, arity) in self.clauses

    def add_clause(self, clause: Clause) -> None:
        key = clause.head.indicator
        self.clauses.setdefault(key, []).append(clause)

    def all_clauses(self):
        for group in self.clauses.values():
            yield from group

    def validate(self) -> list:
        """Load-time checks; returns a list of TheoryError."""
        errors = []
        for key in self.abducibles:
            if key in self.clauses:
                errors.append(TheoryError(
                    "ABDUCIBLE_HAS_CLAUSES",
                    f"{key[0]}/{key[1]} is declared abducible but has defining clauses",
                    self.clauses[key][0]))
        for ic in self.ics:
            if not any(self._counts_as_abducible(lit) for lit in ic.body):
                errors.append(TheoryError(
                    "IC_WITHOUT_ABDUCIBLE",
                    f"no abducible body literal in {as_written(ic)}", ic))
        return errors

    def _counts_as_abducible(self, lit: Literal) -> bool:
        if isinstance(lit, UserLit):
            return lit.indicator in self.abducibles
        # a NAF literal compiles to an abducible in either mode
        return isinstance(lit, NafLit)


# ---------------------------------------------------------------------------
# NAF compilation
# ---------------------------------------------------------------------------

def _rewrite_body(body, found: dict):
    """`body` with each not(p(...)) as not_p(...); `body` itself when it
    has none."""
    if not any(isinstance(lit, NafLit) for lit in body):
        return body
    out = []
    for lit in body:
        if isinstance(lit, NafLit):
            inner = lit.inner
            key = ("not_" + inner.name, inner.arity)
            found[key] = inner.indicator
            out.append(UserLit("not_" + inner.name, inner.args))
        else:
            out.append(lit)
    return tuple(out)


def _has_guard_ic(theory: AbductiveTheory, key) -> bool:
    for ic in theory.ics:
        for lit in ic.body:
            if isinstance(lit, UserLit) and lit.indicator == key:
                return True
            if isinstance(lit, NafLit) and \
                    ("not_" + lit.inner.name, lit.inner.arity) == key:
                return True
    return False


def compile_naf(theory: AbductiveTheory, mode: str = "validate") -> AbductiveTheory:
    """Rewrite every not(p(...)) into the abducible not_p(...).

    validate mode raises TheoryError when the user did not both declare
    abducible_predicate(not_p/arity) and include an integrity constraint
    guarding not_p; autogenerate synthesizes the missing pieces.
    Idempotent: a theory with no NAF literals is returned unchanged.
    """
    if mode not in ("validate", "autogenerate"):
        raise ValueError(f"bad mode {mode!r}")
    found: dict = {}
    out = AbductiveTheory(abducibles=set(theory.abducibles),
                          naf_complements=dict(theory.naf_complements))
    for clause in theory.all_clauses():
        body = _rewrite_body(clause.body, found)
        out.add_clause(clause if body is clause.body else Clause(clause.head, body))
    for ic in theory.ics:
        body = _rewrite_body(ic.body, found)
        out.ics.append(ic if body is ic.body else IntegrityConstraint(body))

    for key, complement in sorted(found.items()):
        out.naf_complements[key] = complement
        if key not in out.abducibles:
            if mode == "validate":
                raise TheoryError(
                    "MISSING_NAF_DECLARATION",
                    f"abducible_predicate({key[0]}/{key[1]}) not declared")
            out.abducibles.add(key)
        if not _has_guard_ic(out, key):
            if mode == "validate":
                raise TheoryError(
                    "MISSING_CANONICAL_IC",
                    f"no integrity constraint guards {key[0]}/{key[1]}")
            counter = VarCounter()
            args = tuple(counter.fresh(f"X{i}") for i in range(key[1]))
            out.ics.append(IntegrityConstraint(
                (UserLit(key[0], args), UserLit(complement[0], args))))

    # Abducibles named not_p whose complement p exists in the program are
    # NAF complements even when the user wrote not_p directly.
    for name, arity in out.abducibles:
        if name.startswith("not_"):
            comp = (name[4:], arity)
            k = (name, arity)
            if k not in out.naf_complements:
                out.naf_complements[k] = comp
    return out
