"""Whole-program passes over a :class:`ProgramIndex`.

A pass is a :class:`~repro.lint.registry.Rule` that overrides
``check_program(index)`` instead of ``check(ctx)``; it shares the one
registry with the per-file rules and runs on every lint.  Passes
consume summaries only (never ASTs), and every iteration is sorted so
reports are deterministic.

Built-in passes:

* ``determinism-taint`` (P101) — wall-clock and global/unseeded RNG
  primitives taint the functions that call them (a default argument
  or decorator taints the scope that defines it), taint propagates up
  the call graph, and a tainted function inside the deterministic
  boundary is reported with the full chain down to the primitive.
* ``concurrent-mutation`` (P102) — module-level mutable state mutated
  by functions reachable from a concurrency entry point (a
  ``threading``/``multiprocessing``/executor spawn target, or the
  public API of ``repro.distributed``).
* ``signature-mismatch`` (P103) — keyword args unknown to the resolved
  callee, excess positional args, and missing required args.
* ``unresolved-import`` (P104) — ``from M import name`` where the
  project module ``M`` never binds ``name``.
* ``unused-export`` (P105) — a package ``__all__`` entry no other
  analyzed module imports or references.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..registry import Rule, register
from ..violations import Violation
from .index import KIND_CLASS, KIND_FUNCTION, KIND_MODULE, ProgramIndex
from .summary import MODULE_BODY, FunctionInfo, ModuleSummary

#: Module prefixes forming the deterministic boundary: anything inside
#: must stay bit-reproducible for the serving/eval contracts to hold.
DETERMINISTIC_BOUNDARY = (
    "repro.core",
    "repro.index",
    "repro.kg",
    "repro.obs",
    "repro.reliability",
    "repro.scenarios",
    "repro.serving",
    "repro.store",
    "repro.stream",
)

#: Module prefixes whose public functions are treated as concurrent
#: entry points even without an explicit spawn site.
CONCURRENT_ROOTS = ("repro.distributed",)


def _under(module: str, prefixes: Tuple[str, ...]) -> bool:
    """Whether ``module`` is one of ``prefixes`` or inside one."""
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


def _chain_to_primitive(
    index: ProgramIndex,
    origin: str,
    via: Dict[str, Tuple[str, object]],
) -> str:
    """Render ``origin -> ... -> primitive()`` from taint back-pointers."""
    hops = [index.display(origin)]
    node = origin
    while True:
        kind, payload = via[node]
        if kind == "source":
            path, _ = index.location(node)
            hops.append(f"{payload.primitive} [{path}:{payload.line}]")
            return " -> ".join(hops)
        node = kind
        hops.append(index.display(node))


@register
class DeterminismTaintPass(Rule):
    """Call-chain taint from nondeterminism primitives into the boundary."""

    name = "determinism-taint"
    code = "P101"
    description = (
        "wall-clock/global-RNG reachable through the call graph from a "
        "deterministic-boundary function"
    )

    def check_program(self, index: ProgramIndex) -> Iterator[Violation]:
        # Seed: functions calling a primitive directly.  ``via`` maps a
        # tainted node to ("source", NondetSite) or (tainted_callee, line).
        via: Dict[str, Tuple[str, object]] = {}
        frontier: List[str] = []
        for node in sorted(index.functions):
            module, qualname = index.functions[node]
            info = index.modules[module].functions[qualname]
            if info.nondet:
                site = min(info.nondet, key=lambda s: (s.line, s.primitive))
                via[node] = ("source", site)
                frontier.append(node)
        reverse = index.reverse_call_graph()
        while frontier:
            next_frontier: Set[str] = set()
            for node in frontier:  # sorted: first taint claims the caller
                for caller, line in reverse.get(node, ()):
                    if caller not in via:
                        via[caller] = (node, line)
                        next_frontier.add(caller)
            frontier = sorted(next_frontier)
        for node in sorted(via):
            module, qualname = index.functions[node]
            if not _under(module, DETERMINISTIC_BOUNDARY):
                continue
            path, line = index.location(node)
            chain = _chain_to_primitive(index, node, via)
            what = (
                "module import" if qualname == MODULE_BODY else f"{qualname!r}"
            )
            yield self.violation(
                path,
                line,
                f"deterministic-boundary {what} transitively reaches a "
                f"nondeterminism primitive: {chain}",
            )


@register
class ConcurrentMutationPass(Rule):
    """Module-level mutable state mutated from concurrent call paths."""

    name = "concurrent-mutation"
    code = "P102"
    description = (
        "module-level dict/list/set mutated by a function reachable from "
        "a thread/process spawn target or repro.distributed"
    )

    def _entries(self, index: ProgramIndex) -> Dict[str, str]:
        """Entry node -> human-readable reason, deterministically."""
        entries: Dict[str, str] = {}
        for fqn in sorted(index.modules):
            summary = index.modules[fqn]
            if _under(fqn, CONCURRENT_ROOTS):
                for qualname, info in sorted(summary.functions.items()):
                    if qualname == MODULE_BODY:
                        continue
                    leaf = qualname.split(".")[-1]
                    if leaf.startswith("_") and leaf != "__init__":
                        continue
                    entries.setdefault(
                        index.node(fqn, qualname),
                        f"public API of concurrent package {fqn!r}",
                    )
            for qualname, info in sorted(summary.functions.items()):
                for spawn in info.spawns:
                    resolved = index.resolve_dotted(summary, info, spawn.target)
                    if resolved is None or resolved[0] != KIND_FUNCTION:
                        continue
                    entries.setdefault(
                        resolved[1],
                        f"{spawn.api} target at {summary.path}:{spawn.line}",
                    )
        return entries

    def check_program(self, index: ProgramIndex) -> Iterator[Violation]:
        entries = self._entries(index)
        # Forward BFS with deterministic parent pointers for chains.
        parent: Dict[str, Optional[str]] = {n: None for n in sorted(entries)}
        frontier = sorted(entries)
        while frontier:
            next_frontier: Set[str] = set()
            for node in frontier:
                for callee in sorted(index.call_graph.get(node, ())):
                    if callee not in parent:
                        parent[callee] = node
                        next_frontier.add(callee)
            frontier = sorted(next_frontier)
        for node in sorted(parent):
            module, qualname = index.functions[node]
            summary = index.modules[module]
            info = summary.functions[qualname]
            for mutation in info.mutations:
                owner = self._owning_module(index, summary, info, mutation.target)
                if owner is None:
                    continue
                owner_summary, global_name, def_line = owner
                chain = self._chain(index, node, parent)
                entry = chain[0]
                yield self.violation(
                    summary.path,
                    mutation.line,
                    f"module-level mutable {global_name!r} "
                    f"({owner_summary.path}:{def_line}) mutated "
                    f"({mutation.op}) on a concurrent path: "
                    f"{' -> '.join(index.display(n) for n in chain)} "
                    f"[entry: {entries[entry]}]",
                )

    @staticmethod
    def _chain(
        index: ProgramIndex, node: str, parent: Dict[str, Optional[str]]
    ) -> List[str]:
        chain = [node]
        current = node
        while parent[current] is not None:
            current = parent[current]
            chain.append(current)
        chain.reverse()
        return chain

    @staticmethod
    def _owning_module(
        index: ProgramIndex,
        summary: ModuleSummary,
        info: FunctionInfo,
        target: str,
    ) -> Optional[Tuple[ModuleSummary, str, int]]:
        """Resolve a mutation target to (owning summary, name, def line)."""
        parts = target.split(".")
        if len(parts) == 1:
            name = parts[0]
            if name in summary.mutable_globals:
                return summary, name, summary.mutable_globals[name]
            if name in summary.top_assigns:
                # Rebinds through ``global`` race even on immutables.
                return summary, name, summary.top_assigns[name]
            return None
        resolved = index.resolve_dotted(summary, info, ".".join(parts[:-1]))
        if resolved is None or resolved[0] != KIND_MODULE:
            return None
        owner = index.modules.get(resolved[1])
        if owner is None:
            return None
        name = parts[-1]
        if name in owner.mutable_globals:
            return owner, name, owner.mutable_globals[name]
        return None


@register
class SignatureMismatchPass(Rule):
    """Call sites whose arguments cannot bind the resolved signature."""

    name = "signature-mismatch"
    code = "P103"
    description = (
        "keyword/positional arguments that do not match the resolved "
        "project callee's signature"
    )

    #: Decorators we still understand; anything else skips the check.
    _BINDING_DECORATORS = {"staticmethod", "classmethod"}

    def check_program(self, index: ProgramIndex) -> Iterator[Violation]:
        for fqn in sorted(index.modules):
            summary = index.modules[fqn]
            for qualname, info in sorted(summary.functions.items()):
                for site in info.calls:
                    for message in self._check_site(index, summary, info, site):
                        yield self.violation(summary.path, site.line, message)

    def _check_site(
        self,
        index: ProgramIndex,
        summary: ModuleSummary,
        info: FunctionInfo,
        site,
    ) -> Iterator[str]:
        resolved = index.resolve_dotted(summary, info, site.callee)
        if resolved is None:
            return
        kind, fq = resolved
        implicit_self = False
        if kind == KIND_CLASS:
            init = index.find_method(fq, "__init__")
            if init is None:
                return
            node, implicit_self = init, True
        elif kind == KIND_FUNCTION:
            node = fq
            root = site.callee.split(".")[0]
            module, qualname = index.functions[node]
            is_method = "." in qualname
            if is_method and root in ("self", "cls"):
                implicit_self = True
        else:
            return
        sig = index.method_signature(node)
        if sig is None:
            return
        decorators = [d.split(".")[-1] for d in sig.decorators if d]
        if any(d not in self._BINDING_DECORATORS for d in decorators):
            return  # wrapped: the visible signature may not be the real one
        if "staticmethod" in decorators:
            implicit_self = False
        elif "classmethod" in decorators:
            _, qualname = index.functions[node]
            implicit_self = "." in qualname  # cls always bound via attribute
        display = index.display(node)
        pos_args = sig.pos_args[1:] if implicit_self and sig.pos_args else sig.pos_args
        num_defaults = min(sig.num_defaults, len(pos_args))
        if not sig.kwarg:
            valid_kw = set(pos_args[sig.posonly_count - (1 if implicit_self else 0):]
                           if sig.posonly_count else pos_args)
            valid_kw |= set(sig.kwonly)
            for kw in site.kwargs:
                if kw not in valid_kw:
                    yield (
                        f"call to {display}() passes unknown keyword "
                        f"argument {kw!r}"
                    )
        if not sig.vararg and not site.star_args and site.num_pos > len(pos_args):
            yield (
                f"call to {display}() passes {site.num_pos} positional "
                f"argument(s) but the signature takes at most {len(pos_args)}"
            )
        if not site.star_args and not site.star_kwargs:
            required = pos_args[: len(pos_args) - num_defaults]
            missing = [
                name
                for position, name in enumerate(required)
                if position >= site.num_pos and name not in site.kwargs
            ]
            missing += [
                name
                for name in sig.kwonly
                if name not in sig.kwonly_defaults and name not in site.kwargs
            ]
            if missing:
                yield (
                    f"call to {display}() is missing required "
                    f"argument(s): {', '.join(sorted(missing))}"
                )


@register
class UnresolvedImportPass(Rule):
    """``from M import name`` where project module M never binds name."""

    name = "unresolved-import"
    code = "P104"
    description = (
        "from-import of a name the resolved project module never binds"
    )

    def check_program(self, index: ProgramIndex) -> Iterator[Violation]:
        for fqn in sorted(index.modules):
            summary = index.modules[fqn]
            for imp in summary.from_imports:
                if imp.guarded or imp.name == "*":
                    continue
                target = index.modules.get(imp.module)
                if target is None:
                    continue  # external module: out of scope
                if "__getattr__" in target.functions:
                    continue  # PEP 562 dynamic attributes
                if index.resolve_symbol(imp.module, imp.name) is not None:
                    continue
                yield self.violation(
                    summary.path,
                    imp.line,
                    f"cannot resolve 'from {imp.module} import {imp.name}': "
                    f"{imp.module} ({target.path}) never binds {imp.name!r}",
                )


@register
class UnusedExportPass(Rule):
    """Package ``__all__`` entries nothing in the program references."""

    name = "unused-export"
    code = "P105"
    description = (
        "package __all__ entry no analyzed module imports or references"
    )

    def check_program(self, index: ProgramIndex) -> Iterator[Violation]:
        used: Dict[str, Set[str]] = {}  # package fqn -> used export names
        star_imported: Set[str] = set()
        for fqn in sorted(index.modules):
            summary = index.modules[fqn]
            for imp in summary.from_imports:
                if imp.module == fqn:
                    continue
                if imp.name == "*":
                    star_imported.add(imp.module)
                else:
                    used.setdefault(imp.module, set()).add(imp.name)
            for qualname, info in sorted(summary.functions.items()):
                reads = set(info.attr_reads)
                reads.update(site.callee for site in info.calls)
                for dotted in sorted(reads):
                    self._mark_attr_usage(index, summary, info, dotted, used)
        for fqn in sorted(index.modules):
            summary = index.modules[fqn]
            if not summary.is_package or not summary.dunder_all:
                continue
            if fqn in star_imported:
                continue
            used_names = used.get(fqn, set())
            for name in summary.dunder_all:
                if name in used_names:
                    continue
                yield self.violation(
                    summary.path,
                    summary.top_assigns.get(name, 1),
                    f"__all__ export {name!r} of package {fqn} is never "
                    "imported or referenced by any analyzed module",
                )

    @staticmethod
    def _mark_attr_usage(
        index: ProgramIndex,
        summary: ModuleSummary,
        info: FunctionInfo,
        dotted: str,
        used: Dict[str, Set[str]],
    ) -> None:
        """Credit ``alias.attr...`` reads to the packages they traverse."""
        parts = dotted.split(".")
        if len(parts) < 2:
            return
        resolved = index.resolve_symbol(summary.module, parts[0])
        if resolved is None or resolved[0] != KIND_MODULE:
            return
        current = resolved[1]
        for segment in parts[1:]:
            if current in index.modules:
                used.setdefault(current, set()).add(segment)
            extended = f"{current}.{segment}"
            if extended in index.modules:
                current = extended
            else:
                break
