"""Public precompiler interface (the CCIFT analogue, paper Section 5.1).

Usage::

    def helper(ctx, x):
        ctx.potential_checkpoint()
        return x * 2

    def main(ctx):
        total = 0
        for i in range(100):
            total += helper(ctx, i)
        return total

    unit = Precompiler([main, helper]).compile()
    app = PrecompiledApp(unit, entry="main")
    outcome = run_with_recovery(app, RunConfig(nprocs=4))

``Precompiler`` reads the functions' sources ("almost unmodified" — the only
requirement, as in the paper, is inserting ``potential_checkpoint()`` calls),
computes the checkpoint-reaching set, desugars and flattens every reaching
function, and compiles the transformed module.  ``PrecompiledApp`` glues a
unit into the recovery driver: it activates a per-rank stack runtime, wires
the protocol layer's state provider to live-frame capture, and arms the
stack rebuild on restart.

Supported subset (violations raise :class:`UnsupportedConstructError`): any
straight-line/``if``/``while``/``for`` code may contain checkpointable
calls; ``try``/``with``/nested scopes/short-circuit positions may not (they
can still appear anywhere as *atomic* statements).  Checkpointable calls
must target unit functions by plain name; arguments of such calls should be
side-effect-free (they are re-evaluated on restart — the paper's statement
decomposition makes the same assumption).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Any, Callable, Optional

from repro.errors import CheckError, PrecompilerError, UnsupportedConstructError
from repro.precompiler.analysis import (
    UnitAnalysis,
    Violation,
    validate_supported,
)
from repro.precompiler.codegen import (
    CO_PREFIX,
    build_co_function,
    build_function,
    compile_module,
)
from repro.precompiler.desugar import Desugarer
from repro.precompiler.flatten import Flattener
from repro.precompiler.iterators import c3_iter
from repro.precompiler.runtime import C3StackRuntime, c3_enter

DEFAULT_EXCLUDED_LOCALS = frozenset({"ctx", "_c3fr"})


class PrecompiledUnit:
    """A compiled set of transformed functions sharing one namespace."""

    def __init__(
        self,
        functions: dict[str, Callable],
        code_map: dict[Any, str],
        exclude_locals: frozenset[str],
        transformed_names: set[str],
        sources: dict[str, str],
        co_functions: Optional[dict[str, Callable]] = None,
    ) -> None:
        self.functions = functions
        self.code_map = code_map
        self.exclude_locals = exclude_locals
        self.transformed_names = transformed_names
        #: Generated source text per transformed function (debugging aid).
        self.sources = sources
        #: Cooperative (generator) twin per transformed function.  Shares
        #: the synchronous form's func_id in ``code_map``, so captured
        #: frames restore interchangeably across cores.
        self.co_functions: dict[str, Callable] = co_functions or {}
        #: Static-check findings (:class:`repro.check.Diagnostic` tuple)
        #: attached by :meth:`Precompiler.compile`; empty for a clean unit.
        self.diagnostics: tuple = ()

    def entry(self, name: str) -> Callable:
        try:
            return self.functions[name]
        except KeyError:
            raise PrecompilerError(f"no function {name!r} in unit") from None


class Precompiler:
    """Source-to-source transformer over a set of module-level functions."""

    def __init__(
        self,
        functions: list[Callable],
        exclude_locals: tuple[str, ...] = (),
        unit_name: str = "unit",
    ) -> None:
        if not functions:
            raise PrecompilerError("empty compilation unit")
        self.functions = functions
        self.exclude_locals = DEFAULT_EXCLUDED_LOCALS | frozenset(exclude_locals)
        self.unit_name = unit_name

    # ------------------------------------------------------------------ #

    def compile(self, strict: bool = False) -> PrecompiledUnit:
        """Transform the unit.

        Subset violations raise :class:`UnsupportedConstructError` carrying
        *every* violation in the unit (``exc.violations``), not just the
        first.  The full :mod:`repro.check` battery also runs over the
        unit; its findings are attached to the returned unit as
        ``unit.diagnostics``.  With ``strict=True``, error-severity
        findings from the other analyses (conditional collectives,
        unlogged nondeterminism, VDS escape) abort compilation with
        :class:`~repro.errors.CheckError` — the same diagnostics the
        ``repro-check`` CLI prints.
        """
        trees: dict[str, ast.FunctionDef] = {}
        files: dict[str, str] = {}
        globals_ns: dict[str, Any] = {}
        for fn in self.functions:
            tree, src_file = _parse_function(fn)
            if tree.name in trees:
                raise PrecompilerError(f"duplicate function name {tree.name!r}")
            trees[tree.name] = tree
            files[tree.name] = src_file
            # Later functions may shadow earlier globals; same-module units
            # share one namespace anyway.
            globals_ns.update(fn.__globals__)

        violations: list[Violation] = []
        analysis = UnitAnalysis(trees, collect=violations)
        reaching = analysis.reaching
        for name in sorted(reaching):
            validate_supported(
                trees[name],
                reaching,
                analysis.infos[name].comm_names,
                collect=violations,
            )
        if violations:
            first = violations[0]
            raise UnsupportedConstructError(
                first.construct,
                first.lineno,
                first.hint,
                col_offset=first.col_offset,
                function=first.function,
                violations=tuple(violations),
            )

        # Static verification over the validated unit.  Imported lazily:
        # repro.check sits above the precompiler in the layering.
        from repro.check.driver import run_unit_checks

        check_result = run_unit_checks(
            dict(trees), dict(files), target=self.unit_name
        )
        if strict and not check_result.ok:
            raise CheckError(
                check_result.render(), diagnostics=check_result.errors
            )

        transformed_defs: list[ast.FunctionDef] = []
        sources: dict[str, str] = {}
        for name, tree in trees.items():
            if name not in reaching:
                continue
            comm_names = analysis.infos[name].comm_names
            func_id = f"{self.unit_name}.{name}"
            body = _strip_docstring(tree.body)
            desugarer = Desugarer(reaching, comm_names)
            body = desugarer.desugar_body(body)
            flattener = Flattener(reaching, comm_names)
            blocks = flattener.flatten_function_body(body)
            local_names = list(analysis.infos[name].local_names)
            local_names += [n for n in desugarer.new_locals if n not in local_names]
            new_fn = build_function(tree, func_id, blocks, local_names)
            transformed_defs.append(new_fn)
            sources[name] = ast.unparse(new_fn)
            co_fn = build_co_function(new_fn, reaching, comm_names)
            transformed_defs.append(co_fn)
            sources[co_fn.name] = ast.unparse(co_fn)

        module = compile_module(transformed_defs, self.unit_name)
        namespace = dict(globals_ns)
        namespace["_c3_enter"] = c3_enter
        namespace["_c3_iter"] = c3_iter
        code = compile(module, filename=f"<c3-precompiled:{self.unit_name}>", mode="exec")
        exec(code, namespace)

        functions: dict[str, Callable] = {}
        co_functions: dict[str, Callable] = {}
        code_map: dict[Any, str] = {}
        for name in trees:
            if name in reaching:
                fn = namespace[name]
                functions[name] = fn
                code_map[fn.__code__] = f"{self.unit_name}.{name}"
                # The cooperative twin maps to the *same* func_id: frames
                # captured from either form restore into either form.
                co = namespace[CO_PREFIX + name]
                co_functions[name] = co
                code_map[co.__code__] = f"{self.unit_name}.{name}"
            else:
                functions[name] = next(
                    f for f in self.functions if f.__name__ == name
                )
        # Transformed functions must see each other (calls by plain name).
        for name, fn in functions.items():
            namespace[name] = fn
        unit = PrecompiledUnit(
            functions=functions,
            code_map=code_map,
            exclude_locals=self.exclude_locals,
            transformed_names=set(reaching),
            sources=sources,
            co_functions=co_functions,
        )
        unit.diagnostics = check_result.diagnostics
        return unit


def _parse_function(fn: Callable) -> tuple[ast.FunctionDef, str]:
    """Parse ``fn``'s source; returns the tree (line numbers shifted to
    absolute file coordinates, so diagnostics and violation spans point
    into the real file) and the source path."""
    # Follow ``__wrapped__`` chains first: a ``functools.wraps`` wrapper
    # (or a stack of them) reports the original's source but the
    # *wrapper's* co_firstlineno, and mixing the two drifts every span.
    fn = inspect.unwrap(fn)
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        src_file = inspect.getsourcefile(fn) or "<unknown>"
        first_line = fn.__code__.co_firstlineno
    except (OSError, TypeError) as exc:
        raise PrecompilerError(
            f"cannot read source of {fn!r}: {exc}"
        ) from exc
    module = ast.parse(source)
    defs = [n for n in module.body if isinstance(n, ast.FunctionDef)]
    if len(defs) != 1:
        raise PrecompilerError(
            f"expected exactly one function def in source of {fn!r}"
        )
    tree = defs[0]
    anchor = (
        tree.decorator_list[0].lineno if tree.decorator_list else tree.lineno
    )
    ast.increment_lineno(tree, first_line - anchor)
    return tree, src_file


def _strip_docstring(body: list[ast.stmt]) -> list[ast.stmt]:
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[1:]
    return list(body)


class PrecompiledApp:
    """Adapter from a precompiled unit to the recovery driver's app_main.

    Captures the automated application state at every checkpoint:
    ``{"frames": <stack records>, "extra": <optional user blob>}``.  On a
    restarted attempt, the saved frames are armed before re-entering the
    entry function, which rebuilds the activation stack.
    """

    def __init__(
        self,
        unit: PrecompiledUnit,
        entry: str = "main",
        extra_state: Optional[Callable[[], Any]] = None,
        params: Any = None,
    ) -> None:
        self.unit = unit
        self.entry_name = entry
        self.entry_fn = unit.entry(entry)
        self.extra_state = extra_state
        #: Opaque run parameters, exposed to the app as ``ctx.params``.
        self.params = params
        if entry not in unit.transformed_names:
            raise PrecompilerError(
                f"entry {entry!r} is not checkpoint-reaching; "
                "it would never take a checkpoint"
            )

    def _arm(self, ctx, rt: C3StackRuntime) -> None:
        """Wire the state provider and (on a restart) the frame restore."""

        def provider() -> Any:
            # The rank's RNG stream is application memory; checkpoint
            # it alongside the captured frames so draws resume
            # mid-stream after a restart.
            state = {"frames": rt.capture(), "rng": ctx.rng}
            if self.extra_state is not None:
                state["extra"] = self.extra_state()
            return state

        ctx.mpi.state_provider = provider
        if ctx.restored and ctx._restored_app_state is not None:
            blob = ctx._restored_app_state
            if "rng" in blob:
                ctx._rank_ctx.rng = blob["rng"]
            # Precompiled code resumes past pre-checkpoint object
            # creations; it must not consume the creation-replay cursor.
            ctx.mpi.skip_creation_replay()
            rt.begin_restore(blob["frames"])

    def __call__(self, ctx) -> Any:
        ctx.params = self.params
        rt = C3StackRuntime(self.unit).activate()
        try:
            self._arm(ctx, rt)
            return self.entry_fn(ctx)
        finally:
            rt.deactivate()

    def co_call(self, ctx):
        """Cooperative entry: the application as a resumable generator.

        The simulator's rank body ``yield from``-s this; every suspending
        MPI call inside the transformed code yields through its generator
        form, so the whole rank suspends cooperatively.  Frames captured
        here are interchangeable with the synchronous form's (same
        func_ids), so checkpoints restore across the two forms.
        """
        ctx.params = self.params
        co_entry = self.unit.co_functions[self.entry_name]
        rt = C3StackRuntime(self.unit).activate()
        try:
            self._arm(ctx, rt)
            return (yield from co_entry(ctx))
        finally:
            rt.deactivate()
