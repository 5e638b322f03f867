"""Abductive constraint logic programming: goal-directed abduction with
integrity constraints over a finite-domain constraint store."""

from .engine import (Answer, Config, DepthLimitExceededError, Hypothesis,
                     InitialHypothesisInconsistentError, Solver,
                     StepBudgetError, solve)
from .optimize import (EmptyStreamError, GroundAnswer, UnknownVariableError,
                       change_count, find_cost_var, min_changes, minimize,
                       reschedule)
from .parser import (ParseError, ParseFailure, format_theory, parse_goal,
                     parse_theory)
from .store import ConstraintStore, negate
from .terms import (AclpError, Atom, Clause, ConstraintLit, Int,
                    IntegrityConstraint, NafLit, Struct, UserLit, Var,
                    VarCounter, standardize_apart)
from .theory import AbductiveTheory, TheoryError, compile_naf

__all__ = [
    "AbductiveTheory", "AclpError", "Answer", "Atom", "Clause", "Config",
    "ConstraintLit", "ConstraintStore", "DepthLimitExceededError",
    "EmptyStreamError", "GroundAnswer", "Hypothesis",
    "InitialHypothesisInconsistentError", "Int", "IntegrityConstraint",
    "NafLit", "ParseError", "ParseFailure", "Solver", "StepBudgetError",
    "Struct", "TheoryError", "UnknownVariableError",
    "UserLit", "Var", "VarCounter", "change_count", "compile_naf",
    "find_cost_var", "format_theory", "min_changes", "minimize", "negate",
    "parse_goal", "parse_theory", "reschedule", "solve", "standardize_apart",
]

__version__ = "0.1.0"
