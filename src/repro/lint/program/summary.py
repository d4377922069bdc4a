"""Per-file analysis summaries for the whole-program passes.

The tree the engine parsed once for the per-file rules is reduced to a
:class:`ModuleSummary`: its imports (aliases resolved to absolute
module names), top-level symbol table, function bodies reduced to the
facts the program passes need (call sites, module-global mutations,
nondeterminism primitives, concurrency spawns), and ``__all__``.
Every program pass works on summaries only, never on live ASTs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

#: Qualified name used for statements executed at import time.
MODULE_BODY = "<module>"

#: ``time``-module attributes that read or consume real time.
WALL_CLOCK = frozenset(
    {
        "sleep",
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
    }
)

#: ``numpy.random`` attributes that construct explicit, seedable state
#: (``default_rng`` is special-cased: calling it *without* a seed is
#: itself a nondeterminism source).
SEEDABLE_NUMPY = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: stdlib ``random`` attributes that are explicit-instance constructors.
SEEDABLE_STDLIB = frozenset({"Random", "SystemRandom"})

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Callables whose result is module-level *mutable* state when assigned
#: at top level (beyond the literal display forms).
MUTABLE_CONSTRUCTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "defaultdict",
        "deque",
        "OrderedDict",
        "Counter",
        "ChainMap",
    }
)

#: Executor/pool methods whose first argument is run concurrently.
SPAWN_METHODS = frozenset(
    {"submit", "apply_async", "map_async", "starmap", "starmap_async"}
)


@dataclass
class SignatureInfo:
    """Callable signature facts needed for keyword/arity checking."""

    line: int
    pos_args: List[str] = field(default_factory=list)
    posonly_count: int = 0
    num_defaults: int = 0
    kwonly: List[str] = field(default_factory=list)
    kwonly_defaults: List[str] = field(default_factory=list)
    vararg: bool = False
    kwarg: bool = False
    decorators: List[str] = field(default_factory=list)


@dataclass
class CallSite:
    """One call expression, reduced to resolution + checking facts."""

    callee: str
    line: int
    num_pos: int = 0
    kwargs: List[str] = field(default_factory=list)
    star_args: bool = False
    star_kwargs: bool = False


@dataclass
class MutationSite:
    """A statement mutating (or rebinding) a module-level name."""

    target: str
    line: int
    op: str


@dataclass
class NondetSite:
    """A direct call into a nondeterminism primitive."""

    primitive: str
    line: int


@dataclass
class SpawnSite:
    """A callable handed to a concurrency API (thread/process/executor)."""

    target: str
    api: str
    line: int


@dataclass
class FunctionInfo:
    """Summary of one top-level function, method, or the module body."""

    qualname: str
    line: int = 1
    sig: Optional[SignatureInfo] = None
    calls: List[CallSite] = field(default_factory=list)
    attr_reads: List[str] = field(default_factory=list)
    mutations: List[MutationSite] = field(default_factory=list)
    nondet: List[NondetSite] = field(default_factory=list)
    spawns: List[SpawnSite] = field(default_factory=list)
    local_names: List[str] = field(default_factory=list)


@dataclass
class ClassInfo:
    """Summary of one top-level class."""

    name: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, SignatureInfo] = field(default_factory=dict)


@dataclass
class ModuleImport:
    """``import x.y [as z]`` — ``bound`` is the local name created."""

    module: str
    bound: str
    line: int

    def asname_bound(self) -> bool:
        """True when an ``as`` alias rebinds the full dotted module."""
        return self.bound != self.module.split(".")[0]


@dataclass
class FromImport:
    """``from M import name [as asname]`` with ``M`` made absolute."""

    module: str
    name: str
    bound: str
    line: int
    guarded: bool = False


@dataclass
class ModuleSummary:
    """Everything the program passes know about one module."""

    module: str
    path: str
    is_package: bool = False
    module_imports: List[ModuleImport] = field(default_factory=list)
    from_imports: List[FromImport] = field(default_factory=list)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    top_assigns: Dict[str, int] = field(default_factory=dict)
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    dunder_all: Optional[List[str]] = None


def module_name_for(path: Path) -> Tuple[str, bool]:
    """Derive a dotted module name by walking ``__init__.py`` parents.

    ``src/repro/core/pkgm.py`` maps to ``repro.core.pkgm`` because
    ``repro`` and ``repro.core`` are packages while ``src`` is not; a
    stray script with no package parents maps to its stem.
    """
    resolved = path.resolve()
    is_package = resolved.name == "__init__.py"
    parts: List[str] = [] if is_package else [resolved.stem]
    current = resolved.parent
    while (current / "__init__.py").exists() and current != current.parent:
        parts.insert(0, current.name)
        current = current.parent
    return ".".join(parts) if parts else resolved.stem, is_package


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve_relative(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """Absolute target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".") if is_package else module.split(".")[:-1]
    ascend = node.level - 1
    if ascend:
        parts = parts[: max(len(parts) - ascend, 0)]
    if node.module:
        parts = parts + node.module.split(".")
    return ".".join(parts)


def _signature(node: ast.AST) -> SignatureInfo:
    args = node.args
    return SignatureInfo(
        line=node.lineno,
        pos_args=[a.arg for a in args.posonlyargs] + [a.arg for a in args.args],
        posonly_count=len(args.posonlyargs),
        num_defaults=len(args.defaults),
        kwonly=[a.arg for a in args.kwonlyargs],
        kwonly_defaults=[
            a.arg
            for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ],
        vararg=args.vararg is not None,
        kwarg=args.kwarg is not None,
        decorators=[
            dotted_name(d.func) if isinstance(d, ast.Call) else dotted_name(d) or ""
            for d in node.decorator_list
        ],
    )


def _literal_all(tree: ast.Module) -> Optional[List[str]]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return [
                el.value
                for el in node.value.elts
                if isinstance(el, ast.Constant) and isinstance(el.value, str)
            ]
    return None


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in MUTABLE_CONSTRUCTORS:
            return True
    return False


class _Extractor(ast.NodeVisitor):
    """Single-pass structural walk filling a :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary) -> None:
        self.s = summary
        module_body = FunctionInfo(qualname=MODULE_BODY, line=1)
        self.s.functions[MODULE_BODY] = module_body
        self.fn = module_body
        self.cls: Optional[ClassInfo] = None
        self.depth = 0  # nesting depth of function defs
        self.try_depth = 0
        self._locals: Set[str] = set()
        self._globals_declared: Set[str] = set()

    # -- imports ---------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            self.s.module_imports.append(
                ModuleImport(module=alias.name, bound=bound, line=node.lineno)
            )
            if self.depth == 0 and self.cls is None:
                self.s.top_assigns.setdefault(bound, node.lineno)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = _resolve_relative(self.s.module, self.s.is_package, node)
        for alias in node.names:
            self.s.from_imports.append(
                FromImport(
                    module=target,
                    name=alias.name,
                    bound=alias.asname or alias.name,
                    line=node.lineno,
                    guarded=self.try_depth > 0,
                )
            )
            if self.depth == 0 and self.cls is None and alias.name != "*":
                self.s.top_assigns.setdefault(
                    alias.asname or alias.name, node.lineno
                )
        self.generic_visit(node)

    def visit_Try(self, node: ast.Try) -> None:
        self.try_depth += 1
        self.generic_visit(node)
        self.try_depth -= 1

    # -- definitions -----------------------------------------------------
    def _visit_definition_time(self, node) -> None:
        """Visit what a ``def``/``class``/``lambda`` evaluates when it runs.

        Decorators and default values execute once, in the enclosing
        scope (the module body for top-level and class-level defs, the
        outer function for nested ones), not in the defined body.
        """
        args = getattr(node, "args", None)
        defaults = args.defaults + args.kw_defaults if args is not None else []
        for expr in getattr(node, "decorator_list", []) + defaults:
            if expr is not None:
                self.visit(expr)

    def _visit_function_def(self, node) -> None:
        self._visit_definition_time(node)
        sig = _signature(node)
        if self.depth == 0 and self.cls is None:
            qualname = node.name
        elif self.depth == 0 and self.cls is not None:
            qualname = f"{self.cls.name}.{node.name}"
            self.cls.methods[node.name] = sig
        else:
            # Nested function: fold its body into the enclosing scope,
            # shielding its params from looking like global mutations.
            self.fn.local_names = sorted(
                set(self.fn.local_names)
                | set(sig.pos_args)
                | set(sig.kwonly)
                | {node.name}
            )
            self._locals |= set(sig.pos_args) | set(sig.kwonly) | {node.name}
            self.depth += 1
            for child in node.body:
                self.visit(child)
            self.depth -= 1
            return
        info = FunctionInfo(qualname=qualname, line=node.lineno, sig=sig)
        info.local_names = sorted(set(sig.pos_args) | set(sig.kwonly))
        if node.args.vararg is not None:
            info.local_names.append(node.args.vararg.arg)
        if node.args.kwarg is not None:
            info.local_names.append(node.args.kwarg.arg)
        self.s.functions[qualname] = info
        if self.depth == 0 and self.cls is None:
            self.s.top_assigns.setdefault(node.name, node.lineno)
        outer_fn, outer_locals, outer_globals = self.fn, self._locals, self._globals_declared
        self.fn = info
        self._locals = set(info.local_names)
        self._globals_declared = set()
        self.depth += 1
        for child in node.body:
            self.visit(child)
        self.depth -= 1
        info.local_names = sorted(self._locals)
        self.fn, self._locals, self._globals_declared = outer_fn, outer_locals, outer_globals

    visit_FunctionDef = _visit_function_def
    visit_AsyncFunctionDef = _visit_function_def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_definition_time(node)
        if self.depth > 0 or self.cls is not None:
            self._locals.add(node.name)
            for child in node.body:
                self.visit(child)
            return
        info = ClassInfo(
            name=node.name,
            line=node.lineno,
            bases=[b for b in (dotted_name(base) for base in node.bases) if b],
        )
        self.s.classes[node.name] = info
        self.s.top_assigns.setdefault(node.name, node.lineno)
        self.cls = info
        # Non-method statements in a class body run at import time.
        for child in node.body:
            self.visit(child)
        self.cls = None

    def visit_Global(self, node: ast.Global) -> None:
        self._globals_declared |= set(node.names)
        self._locals -= set(node.names)

    # -- bindings and mutations ------------------------------------------
    def _bind(self, name: str, line: int) -> None:
        if self.depth == 0 and self.cls is None:
            self.s.top_assigns.setdefault(name, line)
        else:
            self._locals.add(name)

    def _mutation(self, target: str, line: int, op: str) -> None:
        root = target.split(".")[0]
        if root in self._locals:
            return
        self.fn.mutations.append(MutationSite(target=target, line=line, op=op))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_bind_target(target, node)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_bind_target(node.target, node)
            self.visit(node.value)

    def _handle_bind_target(self, target: ast.expr, node: ast.stmt) -> None:
        value = getattr(node, "value", None)
        if isinstance(target, ast.Name):
            if self.depth == 0 and self.cls is None:
                self.s.top_assigns.setdefault(target.id, node.lineno)
                if value is not None and _is_mutable_value(value):
                    self.s.mutable_globals.setdefault(target.id, node.lineno)
            elif target.id in self._globals_declared:
                self._mutation(target.id, node.lineno, "rebind")
            else:
                self._locals.add(target.id)
        elif isinstance(target, ast.Subscript):
            base = dotted_name(target.value)
            if base is not None and self.depth + (self.cls is not None) > 0:
                self._mutation(base, node.lineno, "subscript-assign")
            self.visit(target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_bind_target(element, node)
        elif isinstance(target, ast.Starred):
            self._handle_bind_target(target.value, node)
        elif isinstance(target, ast.Attribute):
            self.visit(target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            if self.depth == 0 and self.cls is None:
                self.s.top_assigns.setdefault(target.id, node.lineno)
            elif target.id in self._globals_declared or target.id not in self._locals:
                self._mutation(target.id, node.lineno, "augassign")
        elif isinstance(target, ast.Subscript):
            base = dotted_name(target.value)
            if base is not None and self.depth + (self.cls is not None) > 0:
                self._mutation(base, node.lineno, "subscript-augassign")
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                base = dotted_name(target.value)
                if base is not None and self.depth + (self.cls is not None) > 0:
                    self._mutation(base, node.lineno, "del")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._handle_bind_target(node.target, node)
        self.visit(node.iter)
        for child in node.body + node.orelse:
            self.visit(child)

    visit_AsyncFor = visit_For

    def visit_withitem(self, node: ast.withitem) -> None:
        if node.optional_vars is not None:
            self._handle_bind_target(node.optional_vars, node.context_expr)
        self.visit(node.context_expr)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self._locals.add(node.name)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._handle_bind_target(node.target, node.iter)
        self.visit(node.iter)
        for cond in node.ifs:
            self.visit(cond)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_definition_time(node)
        shielded = set(a.arg for a in node.args.args + node.args.kwonlyargs)
        previously_local = shielded & self._locals
        self._locals |= shielded
        self.visit(node.body)
        self._locals -= shielded - previously_local

    # -- calls, reads, nondeterminism, spawns ----------------------------
    def visit_Call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        if callee is not None:
            site = CallSite(
                callee=callee,
                line=node.lineno,
                num_pos=sum(1 for a in node.args if not isinstance(a, ast.Starred)),
                kwargs=[kw.arg for kw in node.keywords if kw.arg is not None],
                star_args=any(isinstance(a, ast.Starred) for a in node.args),
                star_kwargs=any(kw.arg is None for kw in node.keywords),
            )
            self.fn.calls.append(site)
            self._classify_nondet(site)
            self._classify_spawn(node, callee)
            # In-place mutation through a method call on a module global.
            parts = callee.split(".")
            if len(parts) >= 2 and parts[-1] in MUTATING_METHODS:
                self._maybe_method_mutation(".".join(parts[:-1]), node.lineno, parts[-1])
        else:
            self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def _maybe_method_mutation(self, base: str, line: int, method: str) -> None:
        if self.depth + (self.cls is not None) == 0:
            return
        root = base.split(".")[0]
        if root in self._locals or root in ("self", "cls"):
            return
        self.fn.mutations.append(
            MutationSite(target=base, line=line, op=f"call:{method}")
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = dotted_name(node)
        if dotted is not None:
            self.fn.attr_reads.append(dotted)
            return
        self.generic_visit(node)

    def _absolute(self, dotted: str) -> Optional[str]:
        """``dotted`` with its root import alias expanded, or ``None``.

        Only this file's imports are consulted, and a local name shadows
        them; the cross-module resolution lives in
        :mod:`repro.lint.program.index`.
        """
        root, _, rest = dotted.partition(".")
        if root in self._locals:
            return None
        for imp in self.s.from_imports:  # from M import name [as root]
            if imp.bound == root:
                return ".".join(filter(None, [imp.module, imp.name, rest]))
        for imp in self.s.module_imports:  # import M [as root]
            if imp.bound == root:
                # Plain `import a.b` binds `a`, so the name is already absolute.
                base = imp.module if imp.asname_bound() else root
                return ".".join(filter(None, [base, rest]))
        return None

    def _classify_nondet(self, site: CallSite) -> None:
        full = self._absolute(site.callee)
        if full is None:
            return
        mod, _, attr = full.rpartition(".")
        if mod == "time" and attr in WALL_CLOCK:
            primitive = f"time.{attr}()"
        elif mod == "random" and attr not in SEEDABLE_STDLIB:
            primitive = f"random.{attr}()"
        elif mod in ("numpy.random", "np.random") and attr == "default_rng":
            seeded = site.num_pos or site.kwargs or site.star_args or site.star_kwargs
            if seeded:
                return
            primitive = "np.random.default_rng() [unseeded]"
        elif mod in ("numpy.random", "np.random") and attr not in SEEDABLE_NUMPY:
            primitive = f"np.random.{attr}()"
        else:
            return
        self.fn.nondet.append(NondetSite(primitive=primitive, line=site.line))

    def _classify_spawn(self, node: ast.Call, callee: str) -> None:
        resolved = self._absolute(callee)
        if resolved in ("threading.Thread", "multiprocessing.Process"):
            for kw in node.keywords:
                if kw.arg == "target":
                    target = dotted_name(kw.value)
                    if target is not None:
                        self.fn.spawns.append(
                            SpawnSite(target=target, api=resolved, line=node.lineno)
                        )
            return
        method = callee.rpartition(".")[2]
        if "." in callee and method in SPAWN_METHODS and node.args:
            target = dotted_name(node.args[0])
            if target is not None:
                self.fn.spawns.append(
                    SpawnSite(target=target, api=method, line=node.lineno)
                )


def summarize_tree(
    module: str, display_path: str, tree: ast.Module, is_package: bool = False
) -> ModuleSummary:
    """Reduce one parsed module to its :class:`ModuleSummary`."""
    summary = ModuleSummary(module=module, path=display_path, is_package=is_package)
    summary.dunder_all = _literal_all(tree)
    extractor = _Extractor(summary)
    for node in tree.body:
        extractor.visit(node)
    for info in summary.functions.values():
        info.attr_reads = sorted(set(info.attr_reads))
    return summary
