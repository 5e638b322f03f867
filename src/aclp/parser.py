"""Parser for ACLP source text, and `format_theory`, its inverse.

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
Terms, arithmetic and constraint expressions are parsed by one routine,
`parse_expr`, driven by the operator table `_STRENGTH` and one explicit
stack, so nesting depth is not bounded by recursion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .store import (And, Constraint, Eq, Ge, Gt, Le, Lt, Neq, Or, TermEq,
                    never_scalar)
# the printers live in terms.py; format_constraint, format_literal and
# format_term are imported so that aclp.parser names them too
from .terms import (AclpError, Atom, Clause, ConstraintLit, DomainDecl, Int,
                    IntegrityConstraint, NafLit, Struct, UserLit, Var,
                    as_written, format_clause, format_constraint,
                    format_literal, format_term)
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
# floors of `_Parser.parse_expr`: `_ANY` admits every operator, `_ARITH`
# only `+`/`-` and `_TERM` none.  `_COMPARE` is the comparisons' strength;
# a constraint may start where the floor is at most that
_ANY, _COMPARE, _ARITH, _TERM = 1, 3, 4, 5
# infix operator -> binding strength, loosest first (docs/syntax.md): a
# connective joins constraints, a comparison or `+`/`-` joins terms
_STRENGTH = {Or.op: 1, And.op: 2, **dict.fromkeys(_COMPARISONS, _COMPARE),
             "+": _ARITH, "-": _ARITH}


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

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, floor: int):
        """An expression whose operators bind at least as tightly as `floor`
        (`_STRENGTH`); at `_TERM` it is one term.  Leaves are read in a
        loop, and each operator waits on one stack until a looser operator
        or the end of its frame folds it.  The stack also holds each open
        argument list and bracket with the floor it interrupts, so nesting
        is not bounded by recursion.  A bracket opens only where a
        constraint may start and holds a constraint; a connective joins only
        constraints, and a comparison or `+`/`-` after a constraint ends
        the frame."""
        # (0, outer floor, functor, args) opens an argument list, or a
        # bracket when args is None; (strength, i, left) is the operator
        # of token i waiting for its right operand
        stack = []
        at = floor                      # the floor of the leaf read next
        while True:
            key = self.peek()
            if key == "var":
                t = self.getvar(self.take())
            elif key == "name":
                name = self.take()
                if self.peek() == "(":
                    self.take()
                    stack.append((0, floor, name, []))
                    floor = at = _TERM
                    continue
                t = Atom(name)
            elif key == "int":
                t = Int(int(self.take()))
            elif key == "-":
                self.take()
                t = Int(-int(self.expect("int", "expected integer after '-'")))
            elif key == "(" and at <= _COMPARE:
                self.take()
                stack.append((0, floor, None, None))
                floor = at = _ANY
                continue
            else:
                self.fail(f"expected a term, found {self.found()}")
            while True:
                # t is complete.  It is the left operand of the next token
                # if that is an operator its frame admits and t is of the
                # kind it joins; a term before a connective is an error,
                # and a constraint before any other operator ends the frame
                s = _STRENGTH.get(self.peek(), 0)
                if s >= floor:
                    while stack and stack[-1][0] >= s:
                        t = self.fold(stack.pop(), t)
                    if (s < _COMPARE) == isinstance(t, Constraint):
                        stack.append((s, self.i, t))
                        self.take()
                        at = s + 1
                        break
                    if s < _COMPARE:
                        self.fail("expected a constraint operator")
                while stack and stack[-1][0]:
                    t = self.fold(stack.pop(), t)
                if not stack:
                    return t
                _, outer, functor, args = stack[-1]
                if args is not None:
                    if self.peek() == "/":  # name/arity inside declarations
                        self.take()
                        arity = self.expect("int", "expected arity after '/'")
                        t = Struct("/", (t, Int(int(arity))))
                    args.append(t)
                    if self.peek() == ",":
                        self.take()
                        break
                    t = Struct(functor, tuple(args))
                elif not isinstance(t, Constraint):
                    self.fail("expected a constraint operator")
                self.expect(")")
                stack.pop()
                floor = outer

    def fold(self, waiting, right):
        """The operator `waiting` applied to its left operand and `right`."""
        s, i, left = waiting
        _, op, offset = self.tokens[i]
        if s > _COMPARE:
            return Struct(op, (left, right))
        if s == _COMPARE:
            # an operand no binding makes scalar, except in `##=`, which
            # compares terms; the store checks the rest once they are bound
            for t in (left, right):
                if op != TermEq.op and never_scalar(t):
                    raise ParseFailure([_error(
                        self.text, offset,
                        f"non-scalar operand {as_written(t)} of {op}")])
            return _COMPARISONS[op](left, right)
        if not isinstance(right, Constraint):
            self.fail("expected a constraint operator")
        return (Or if op == Or.op else And)(left, right)

    # -- literals ------------------------------------------------------------

    def parse_literal(self):
        if self.peek() == "name" and self.tokens[self.i][1] == "not":
            self.take()
            if self.peek() != "(":
                return NafLit(self.parse_plain_userlit())
            self.take()
            lit = NafLit(self.parse_plain_userlit())
            self.expect(")")
            return lit
        expr = self.parse_expr(_ANY)
        if isinstance(expr, Constraint):
            return ConstraintLit(expr)
        if self.peek() == "::":
            self.take()
            return self.parse_domain_decl(expr)
        return self.term_to_userlit(expr)

    def parse_plain_userlit(self) -> UserLit:
        return self.term_to_userlit(self.parse_expr(_TERM))

    def term_to_userlit(self, term) -> UserLit:
        if isinstance(term, Atom):
            return UserLit(term.name, ())
        if isinstance(term, Struct):
            if term.functor in ("+", "-"):
                self.fail("arithmetic term is not a valid goal")
            return UserLit(term.functor, term.args)
        self.fail(f"expected a goal, found {as_written(term)}")

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
        lo = self.parse_expr(_ARITH)
        self.expect("..")
        hi = self.parse_expr(_ARITH)
        return DomainDecl(var, lo, hi)

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
    starts = {}                         # id of a clause or IC -> its offset
    while p.peek() != "eof":
        start = p.tokens[p.i][2]        # where clause-level errors point
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
                errors.append(_error(text, start, "integrity constraint with empty body",
                                     "validation"))
            else:
                item = IntegrityConstraint(item.body)
                starts[id(item)] = start
                theory.ics.append(item)
        elif item.head.indicator == ("abducible_predicate", 1) and not item.body:
            spec = item.head.args[0]
            if (isinstance(spec, Struct) and spec.functor == "/"
                    and isinstance(spec.args[0], Atom)
                    and isinstance(spec.args[1], Int)):
                theory.abducibles.add((spec.args[0].name, spec.args[1].value))
            else:
                errors.append(_error(text, start,
                                     f"malformed abducible declaration {as_written(spec)}",
                                     "validation"))
        else:
            starts[id(item)] = start
            theory.add_clause(item)
    # in source order, which the set of abducibles does not keep
    errors.extend(sorted((_error(text, starts[id(terr.item)], str(terr),
                                 "validation") for terr in theory.validate()),
                         key=lambda e: e.offset))
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
        # a variable's scope is its fact; ids run on, so that variables
        # of different facts stay apart
        p.varmap = {}
        lits.extend(p.parse_body())
        if p.peek() != "eof":
            p.expect(".")
    return lits


# ---------------------------------------------------------------------------
# Printing a theory (the printers of its parts are in terms.py)
# ---------------------------------------------------------------------------

def format_theory(theory: AbductiveTheory) -> str:
    lines = [f"abducible_predicate({name}/{arity})."
             for name, arity in sorted(theory.abducibles)]
    lines += map(format_clause, theory.all_clauses())
    lines += map(format_clause, theory.ics)
    return "\n".join(lines) + "\n"
