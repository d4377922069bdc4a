"""Whole-program analysis for :mod:`repro.lint`.

Where a per-file rule sees one AST at a time, the program passes see
the whole project: every parsed file is reduced to a summary
(:mod:`~repro.lint.program.summary`), the summaries build a
module/import graph, per-module symbol tables and an approximate call
graph (:mod:`~repro.lint.program.index`), and the passes
(:mod:`~repro.lint.program.passes`) walk that structure: determinism
taint into the bit-reproducible boundary, concurrency safety for
shared module state, and cross-module contract checks.
"""

from .index import ProgramIndex
from .summary import module_name_for, summarize_tree

__all__ = ["ProgramIndex", "module_name_for", "summarize_tree"]
