"""Parser and pretty-printer for ACLP source text.

Prolog-like clause syntax with the finite-domain constraint operators
(`##`, `#=`, `#<`, `#<=`, `#>`, `#>=`, `##=`, `#/\\`, `#\\/`), `::` domain
declarations, `not` for negation as failure and `%` line comments.  See
docs/syntax.md for the grammar.

Facts of the form abducible_predicate(name/arity) populate the abducible
set; rules with head `ic` become integrity constraints in source order.

`tokenize` turns the text into `(key, text, offset)` tuples in one regex
pass.  An operator's key is its own text and any other token's is its
kind (`int`, `var`, `name`), so one comparison of the key tests both.
The parser holds one cursor, an index into that list, which only `take`
moves: `peek` gives the next key, `take` its text, and `expect` takes a
token of the given key or fails with a message at the token's offset.
Nested terms and constraint brackets are parsed with explicit stacks, so
nesting depth is not bounded by recursion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .store import (And, Constraint, Eq, Ge, Gt, Le, Lt, Neq, Or, TermEq,
                    TermNeq, spell_constraint)
from .terms import (AclpError, Atom, Clause, ConstraintLit, DomainDecl, Int,
                    IntegrityConstraint, NafLit, Struct, UserLit, Var,
                    spell)
from .theory import AbductiveTheory


@dataclass
class ParseError:
    offset: int
    line: int
    column: int
    message: str
    category: str = "syntax"

    def __str__(self):
        return f"{self.line}:{self.column}: {self.category} error: {self.message}"


class ParseFailure(AclpError):
    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<op>:-|::|\.\.|\#\#=|\#<=|\#>=|\#/\\|\#\\/|\#\#|\#=|\#<|\#>|[(),.\[\]/+\-|])
  | (?P<int>\d+)
  | (?P<var>[A-Z_]\w*)
  | (?P<name>[a-z]\w*)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# comparison operator -> constraint class; TermNeq has no surface syntax
_COMPARISONS = {cls.op: cls for cls in (Neq, Eq, Lt, Le, Gt, Ge, TermEq)}


def tokenize(text: str) -> list:
    """`(key, text, offset)` tuples, ending with `("eof", "", len(text))`.
    An operator's key is its text; any other token's is its kind: `int`,
    `var` or `name`."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseFailure([_error(text, m.start(),
                                       f"illegal character {m.group()!r}")])
        tokens.append((m.group() if kind == "op" else kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


def _error(text: str, offset: int, message: str, category: str = "syntax"):
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return ParseError(offset, line, column, message, category)


class _Parser:
    """Parses a token list, read through the cursor `i` (module docstring)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.varmap: dict[str, Var] = {}
        self.var_ix = 0

    # -- token cursor --------------------------------------------------------

    def peek(self) -> str:
        """The key of the next token."""
        return self.tokens[self.i][0]

    def take(self) -> str:
        """The text of the next token, consumed unless it is the end."""
        key, text, _ = self.tokens[self.i]
        if key != "eof":
            self.i += 1
        return text

    def expect(self, key: str, message: str = None) -> str:
        """`take` a token keyed `key`, or fail with `message` (by default
        naming the key expected and the token found)."""
        if self.tokens[self.i][0] != key:
            self.fail(message or f"expected {key!r}, found {self.found()}")
        return self.take()

    def found(self) -> str:
        """The next token's text, quoted, for an error message."""
        return repr(self.tokens[self.i][1] or "end of input")

    def fail(self, message: str):
        raise ParseFailure([_error(self.text, self.tokens[self.i][2], message)])

    def reset_vars(self):
        # per-clause scope: deterministic ids make round-trips structural
        self.varmap = {}
        self.var_ix = 0

    def getvar(self, name: str) -> Var:
        if name == "_":
            v = Var("_", self.var_ix)
            self.var_ix += 1
            return v
        if name not in self.varmap:
            self.varmap[name] = Var(name, self.var_ix)
            self.var_ix += 1
        return self.varmap[name]

    # -- terms ---------------------------------------------------------------

    def parse_term(self):
        """One term.  Nested arguments are parsed with a stack of the
        structs still open, so nesting is not bounded by recursion."""
        stack = []                      # (functor, arguments so far)
        while True:
            key = self.peek()
            if key == "var":
                term = self.getvar(self.take())
            elif key == "name":
                name = self.take()
                if self.peek() == "(":
                    self.take()
                    stack.append((name, []))
                    continue
                term = Atom(name)
            elif key == "int":
                term = Int(int(self.take()))
            elif key == "-":
                self.take()
                term = Int(-int(self.expect("int", "expected integer after '-'")))
            else:
                self.fail(f"expected a term, found {self.found()}")
            # the term is an argument of the innermost open struct;
            # close each struct that ends after it
            while stack:
                if self.peek() == "/":  # name/arity inside declarations
                    self.take()
                    arity = self.expect("int", "expected arity after '/'")
                    term = Struct("/", (term, Int(int(arity))))
                functor, args = stack[-1]
                args.append(term)
                if self.peek() == ",":
                    self.take()
                    break
                self.expect(")")
                stack.pop()
                term = Struct(functor, tuple(args))
            else:
                return term

    def parse_arith_term(self):
        term = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            term = Struct(op, (term, self.parse_term()))
        return term

    # -- literals ------------------------------------------------------------

    def parse_literal(self):
        key = self.peek()
        if key == "(":
            # parenthesized constraint expression
            return ConstraintLit(self.parse_cexpr())
        if key == "name" and self.tokens[self.i][1] == "not":
            self.take()
            if self.peek() != "(":
                return NafLit(self.parse_plain_userlit())
            self.take()
            lit = NafLit(self.parse_plain_userlit())
            self.expect(")")
            return lit
        term = self.parse_arith_term()
        key = self.peek()
        if key == "::":
            self.take()
            return self.parse_domain_decl(term)
        if key in _COMPARISONS or key in (And.op, Or.op):
            return ConstraintLit(self.parse_cexpr(self.parse_comparison(term)))
        return self.term_to_userlit(term)

    def parse_plain_userlit(self) -> UserLit:
        return self.term_to_userlit(self.parse_term())

    def term_to_userlit(self, term) -> UserLit:
        if isinstance(term, Atom):
            return UserLit(term.name, ())
        if isinstance(term, Struct):
            if term.functor in ("+", "-"):
                self.fail("arithmetic term is not a valid goal")
            return UserLit(term.functor, term.args)
        self.fail(f"expected a goal, found {_message_term(term)}")

    def parse_domain_decl(self, var):
        if self.peek() == "[":
            self.take()
            atoms = []
            if self.peek() != "]":
                while True:
                    atoms.append(Atom(self.expect(
                        "name", "expected an atom in domain list")))
                    if self.peek() != ",":
                        break
                    self.take()
            self.expect("]")
            return DomainDecl(var, Int(0), Int(0), tuple(atoms))
        lo = self.parse_arith_term()
        self.expect("..")
        hi = self.parse_arith_term()
        return DomainDecl(var, lo, hi)

    # -- constraint expressions ----------------------------------------------

    def parse_cexpr(self, first: Constraint = None) -> Constraint:
        """A constraint expression, the `constraint` rule of docs/syntax.md:
        `#/\\` binds tighter than `#\\/`, and both group to the left.
        `first` is a primitive already parsed.  Each open bracket keeps its
        disjunction and conjunction so far on a stack, so brackets nest
        without recursion."""
        stack = []
        disj = conj = None
        c = first
        while True:
            if c is None:
                if self.peek() == "(":
                    self.take()
                    stack.append((disj, conj))
                    disj = conj = None
                    continue
                c = self.parse_comparison(self.parse_arith_term())
            conj = c if conj is None else And(conj, c)
            c = None
            key = self.peek()
            if key == And.op:
                self.take()
                continue
            disj = conj if disj is None else Or(disj, conj)
            conj = None
            if key == Or.op:
                self.take()
                continue
            if not stack:
                return disj
            self.expect(")")
            c = disj
            disj, conj = stack.pop()

    def parse_comparison(self, lhs) -> Constraint:
        if self.peek() not in _COMPARISONS:
            self.fail("expected a constraint operator")
        return _COMPARISONS[self.take()](lhs, self.parse_arith_term())

    # -- clauses and programs ------------------------------------------------

    def parse_body(self):
        body = [self.parse_literal()]
        while self.peek() == ",":
            self.take()
            body.append(self.parse_literal())
        return tuple(body)

    def parse_item(self):
        self.reset_vars()
        head = self.parse_plain_userlit()
        body = ()
        if self.peek() == ":-":
            self.take()
            body = self.parse_body()
        self.expect(".")
        return Clause(head, body)


def parse_theory(text: str) -> AbductiveTheory:
    """Parse source text into a validated theory; raises ParseFailure."""
    p = _Parser(text)
    theory = AbductiveTheory()
    errors: list[ParseError] = []
    while p.peek() != "eof":
        try:
            item = p.parse_item()
        except ParseFailure as e:
            errors.extend(e.errors)
            # resync past the next clause terminator
            while p.peek() != "eof" and p.take() != ".":
                pass
            continue
        if item.head.name == "ic" and not item.head.args:
            if not item.body:
                errors.append(_error(text, 0, "integrity constraint with empty body",
                                     "validation"))
            else:
                theory.ics.append(IntegrityConstraint(item.body))
        elif item.head.indicator == ("abducible_predicate", 1) and not item.body:
            spec = item.head.args[0]
            if (isinstance(spec, Struct) and spec.functor == "/"
                    and isinstance(spec.args[0], Atom)
                    and isinstance(spec.args[1], Int)):
                theory.abducibles.add((spec.args[0].name, spec.args[1].value))
            else:
                errors.append(_error(text, 0,
                                     f"malformed abducible declaration {_message_term(spec)}",
                                     "validation"))
        else:
            theory.add_clause(item)
    for terr in theory.validate():
        errors.append(ParseError(0, 1, 1, str(terr), "validation"))
    if errors:
        raise ParseFailure(errors)
    return theory


def parse_goal(text: str):
    """Parse a conjunction into a literal list; raises ParseFailure."""
    p = _Parser(text)
    body = list(p.parse_body())
    if p.peek() == ".":
        p.take()
    if p.peek() != "eof":
        p.fail(f"unexpected input after goal: {p.found()}")
    return body


def parse_facts(text: str):
    """Parse a file of facts, each ended by a period (the last may omit
    it) and holding one or more comma-separated literals, into one literal
    list; raises ParseFailure with positions in `text`."""
    p = _Parser(text)
    lits = []
    while p.peek() != "eof":
        p.reset_vars()
        lits.extend(p.parse_body())
        if p.peek() != "eof":
            p.expect(".")
    return lits


# ---------------------------------------------------------------------------
# Pretty-printing (round-trips through parse_theory)
# ---------------------------------------------------------------------------

def _format_leaf(t) -> str:
    if isinstance(t, Var):
        return t.name if t.name != "_" else f"_A{t.id}"
    if isinstance(t, Int):
        return str(t.value)
    if isinstance(t, Atom):
        return t.name
    raise TypeError(t)


def format_term(t) -> str:
    return spell(t, _format_leaf, ("+", "-"))


def _message_term(t) -> str:
    """`t` as written in the source, for an error message: an anonymous
    variable is `_`, where `format_term` names it by id to keep it apart
    from the others."""
    return spell(t, lambda u: "_" if isinstance(u, Var) and u.name == "_"
                 else _format_leaf(u), ("+", "-"))


def _format_comparison(c) -> str:
    if isinstance(c, TermNeq):
        raise ValueError(f"constraint {c!r} has no surface syntax")
    return f"{format_term(c.a)} {c.op} {format_term(c.b)}"


def format_constraint(c) -> str:
    """Source text of a constraint; nested connectives are bracketed."""
    text = spell_constraint(c, _format_comparison)
    return text[1:-1] if isinstance(c, (And, Or)) else text


def format_literal(lit) -> str:
    if isinstance(lit, UserLit):
        return format_term(Struct(lit.name, lit.args)) if lit.args else lit.name
    if isinstance(lit, NafLit):
        return f"not({format_literal(lit.inner)})"
    if isinstance(lit, ConstraintLit):
        return format_constraint(lit.constraint)
    if isinstance(lit, DomainDecl):
        if lit.atoms is not None:
            return (f"{format_term(lit.var)} :: "
                    f"[{','.join(a.name for a in lit.atoms)}]")
        return f"{format_term(lit.var)} :: {format_term(lit.lo)}..{format_term(lit.hi)}"
    raise TypeError(lit)


def format_clause(clause: Clause) -> str:
    head = format_literal(clause.head)
    if not clause.body:
        return f"{head}."
    return f"{head} :- {', '.join(format_literal(b) for b in clause.body)}."


def format_theory(theory: AbductiveTheory) -> str:
    lines = []
    for name, arity in sorted(theory.abducibles):
        lines.append(f"abducible_predicate({name}/{arity}).")
    for clause in theory.all_clauses():
        lines.append(format_clause(clause))
    for ic in theory.ics:
        lines.append(f"ic :- {', '.join(format_literal(b) for b in ic.body)}.")
    return "\n".join(lines) + "\n"
