"""From-scratch Datalog: ER-pi's deductive storage for interleavings
(standing in for the paper's Souffle programs)."""

from repro.datalog.export import export_program, export_to_file
from repro.datalog.engine import Database, DatalogError, Program, query
from repro.datalog.parser import DatalogSyntaxError, evaluate_text, parse_program
from repro.datalog.store import InterleavingStore
from repro.datalog.terms import Atom, Comparison, Literal, Rule, Variable, vars_

__all__ = [
    "Atom",
    "Comparison",
    "Database",
    "DatalogError",
    "DatalogSyntaxError",
    "InterleavingStore",
    "Literal",
    "Program",
    "Rule",
    "Variable",
    "evaluate_text",
    "export_program",
    "export_to_file",
    "parse_program",
    "query",
    "vars_",
]
