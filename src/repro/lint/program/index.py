"""The project index: modules, symbols, imports, and the call graph.

Built once per run from the :class:`~repro.lint.program.summary.ModuleSummary`
of every parsed file, the index answers the cross-module questions the program passes ask:

* which module does a dotted expression in file X refer to, after
  following import aliases and package re-export chains;
* which project function does a call site resolve to (approximate:
  module functions, class constructors, ``self.``/``cls.`` methods,
  and ``Class.method`` references, with base-class lookup);
* the import graph and an approximate call graph over fully-qualified
  function names.

Everything is deterministic: modules, functions, and edges iterate in
sorted order so two runs over the same summaries produce identical
reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .summary import MODULE_BODY, FunctionInfo, ModuleSummary, SignatureInfo

#: Resolution result kinds.
KIND_FUNCTION = "function"
KIND_CLASS = "class"
KIND_MODULE = "module"
KIND_VALUE = "value"

Resolved = Tuple[str, str]  # (kind, fully-qualified name)


class ProgramIndex:
    """Cross-module symbol tables and graphs over one set of summaries."""

    def __init__(self, summaries: List[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in sorted(summaries, key=lambda s: (s.module, s.path)):
            # First path wins on module-name collisions (deterministic).
            self.modules.setdefault(summary.module, summary)
        #: module -> sorted imported project modules (the import graph).
        self.import_graph: Dict[str, List[str]] = {}
        #: caller fq function -> {callee fq function: first call line}.
        self.call_graph: Dict[str, Dict[str, int]] = {}
        #: fq function node -> (module, qualname).
        self.functions: Dict[str, Tuple[str, str]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for fqn, summary in self.modules.items():
            for qualname in summary.functions:
                self.functions[self.node(fqn, qualname)] = (fqn, qualname)
        for fqn, summary in sorted(self.modules.items()):
            imported: Set[str] = set()
            for imp in summary.module_imports:
                target = self._known_module_prefix(imp.module)
                if target is not None:
                    imported.add(target)
            for imp in summary.from_imports:
                target = self._known_module_prefix(imp.module)
                if target is not None:
                    imported.add(target)
                submodule = f"{imp.module}.{imp.name}"
                if submodule in self.modules:
                    imported.add(submodule)
            imported.discard(fqn)
            self.import_graph[fqn] = sorted(imported)
            for qualname, info in sorted(summary.functions.items()):
                caller = self.node(fqn, qualname)
                edges = self.call_graph.setdefault(caller, {})
                for site in info.calls:
                    resolved = self.resolve_call(summary, info, site.callee)
                    if resolved is None:
                        continue
                    if resolved not in edges or site.line < edges[resolved]:
                        edges[resolved] = site.line

    def _known_module_prefix(self, dotted: str) -> Optional[str]:
        """Longest prefix of ``dotted`` that names an indexed module."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                return candidate
        return None

    # ------------------------------------------------------------------
    # Node naming
    # ------------------------------------------------------------------
    @staticmethod
    def node(module: str, qualname: str) -> str:
        """Fully-qualified node name for a function in a module."""
        return f"{module}.{qualname}"

    def display(self, node: str) -> str:
        """Human-readable name (module body nodes read as imports)."""
        module, qualname = self.functions[node]
        if qualname == MODULE_BODY:
            return f"{module} (module body)"
        return f"{module}.{qualname}"

    def location(self, node: str) -> Tuple[str, int]:
        """(display path, definition line) of a function node."""
        module, qualname = self.functions[node]
        summary = self.modules[module]
        info = summary.functions[qualname]
        return summary.path, info.line

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------
    def resolve_symbol(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Resolved]:
        """What ``name`` means inside ``module``, following re-exports."""
        summary = self.modules.get(module)
        if summary is None:
            return None
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return None
        seen.add((module, name))
        if name in summary.classes:
            return KIND_CLASS, f"{module}.{name}"
        if name in summary.functions and name != MODULE_BODY:
            return KIND_FUNCTION, self.node(module, name)
        for imp in summary.from_imports:
            if imp.bound != name:
                continue
            if imp.module in self.modules:
                resolved = self.resolve_symbol(imp.module, imp.name, seen)
                if resolved is not None:
                    return resolved
            submodule = f"{imp.module}.{imp.name}"
            if submodule in self.modules:
                return KIND_MODULE, submodule
            return None  # external or unresolvable
        for imp in summary.module_imports:
            if imp.bound == name:
                target = imp.module if imp.asname_bound() else imp.module.split(".")[0]
                return KIND_MODULE, target
        if f"{module}.{name}" in self.modules:
            return KIND_MODULE, f"{module}.{name}"
        if name in summary.top_assigns:
            return KIND_VALUE, f"{module}.{name}"
        return None

    def find_method(
        self, class_fq: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Fq node of ``method`` on a class, climbing resolvable bases."""
        seen = _seen if _seen is not None else set()
        if class_fq in seen:
            return None
        seen.add(class_fq)
        module, _, cls_name = class_fq.rpartition(".")
        summary = self.modules.get(module)
        if summary is None or cls_name not in summary.classes:
            return None
        info = summary.classes[cls_name]
        if method in info.methods:
            return self.node(module, f"{cls_name}.{method}")
        for base in info.bases:
            resolved = self.resolve_dotted(summary, None, base)
            if resolved is not None and resolved[0] == KIND_CLASS:
                found = self.find_method(resolved[1], method, seen)
                if found is not None:
                    return found
        return None

    def method_signature(self, node: str) -> Optional[SignatureInfo]:
        """Signature of a function node, if the summary recorded one."""
        entry = self.functions.get(node)
        if entry is None:
            return None
        module, qualname = entry
        info = self.modules[module].functions.get(qualname)
        return info.sig if info is not None else None

    def resolve_dotted(
        self,
        summary: ModuleSummary,
        func: Optional[FunctionInfo],
        dotted: str,
    ) -> Optional[Resolved]:
        """Resolve a dotted expression appearing in ``summary``/``func``."""
        parts = dotted.split(".")
        root = parts[0]
        # self/cls are formal parameters (hence in local_names) but name
        # the enclosing class, so they resolve before the shadow guard.
        if root in ("self", "cls") and func is not None and "." in func.qualname:
            cls_name = func.qualname.split(".")[0]
            class_fq = f"{summary.module}.{cls_name}"
            if len(parts) == 1:
                return KIND_CLASS, class_fq
            if len(parts) == 2:
                method = self.find_method(class_fq, parts[1])
                if method is not None:
                    return KIND_FUNCTION, method
            return None
        if func is not None and root in func.local_names:
            return None
        base = self.resolve_symbol(summary.module, root)
        if base is None:
            return None
        rest = parts[1:]
        return self._descend(base, rest)

    def _descend(self, base: Resolved, rest: List[str]) -> Optional[Resolved]:
        kind, fq = base
        while rest:
            segment = rest[0]
            if kind == KIND_MODULE:
                extended = f"{fq}.{segment}"
                if extended in self.modules:
                    fq = extended
                    rest = rest[1:]
                    continue
                if fq not in self.modules:
                    return None  # external module: nothing to say
                resolved = self.resolve_symbol(fq, segment)
                if resolved is None:
                    return None
                kind, fq = resolved
                rest = rest[1:]
            elif kind == KIND_CLASS:
                method = self.find_method(fq, segment)
                if method is None:
                    return None
                kind, fq = KIND_FUNCTION, method
                rest = rest[1:]
            else:
                return None  # attribute of a function/value: opaque
        return kind, fq

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self, summary: ModuleSummary, func: FunctionInfo, callee: str
    ) -> Optional[str]:
        """Fq function node a call targets, or ``None`` if unresolvable.

        Class targets resolve to their ``__init__`` (possibly inherited);
        classes without a reachable ``__init__`` yield ``None``.
        """
        resolved = self.resolve_dotted(summary, func, callee)
        if resolved is None:
            return None
        kind, fq = resolved
        if kind == KIND_FUNCTION:
            return fq
        if kind == KIND_CLASS:
            return self.find_method(fq, "__init__")
        return None

    # ------------------------------------------------------------------
    # Graph utilities
    # ------------------------------------------------------------------
    def reverse_call_graph(self) -> Dict[str, List[Tuple[str, int]]]:
        """callee -> sorted [(caller, line)] over the call graph."""
        reverse: Dict[str, List[Tuple[str, int]]] = {}
        for caller, edges in sorted(self.call_graph.items()):
            for callee, line in sorted(edges.items()):
                reverse.setdefault(callee, []).append((caller, line))
        for callers in reverse.values():
            callers.sort()
        return reverse
