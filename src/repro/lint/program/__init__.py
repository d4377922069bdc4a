"""Whole-program analysis engine for :mod:`repro.lint`.

Where the per-file rules see one AST at a time, this package parses
the full project once, builds a module/import graph, per-module symbol
tables, and an approximate call graph (:mod:`~repro.lint.program.index`),
and runs declarative passes over that structure
(:mod:`~repro.lint.program.passes`): determinism taint into the
bit-reproducible boundary, concurrency-safety for shared module state,
and cross-module contract checks.  Per-file summaries are cached by
content SHA-256 (:mod:`~repro.lint.program.cache`), so warm runs
re-parse only changed files while producing byte-identical reports.

Run it as ``repro lint --program <paths>``.
"""

from .engine import ProgramAnalyzer
from .index import ProgramIndex
from .passes import create_passes, get_pass_class, pass_names
from .summary import module_name_for, summarize_source

__all__ = [
    "ProgramAnalyzer",
    "ProgramIndex",
    "create_passes",
    "get_pass_class",
    "module_name_for",
    "pass_names",
    "summarize_source",
]
