"""Simulator-specific lint rules (SV001-SV005, SV007-SV012).

These encode the invariants the trace-driven model's numbers rest on —
unit-suffix discipline, deterministic randomness, exhaustive command
dispatch — as machine-checked rules instead of docstring conventions.
SV007-SV012 extend the catalog to the concurrency layers: event-loop
blocking, un-awaited coroutines, fork-unsafe shared state, unbounded
awaits, order-nondeterministic set iteration, and unsanctioned
wall-clock reads.  SV006 and SV013 are retired (they policed
compatibility shims that no longer exist); their IDs are not reused.
See ``docs/CORRECTNESS.md`` for the full catalog with rationale and
suppression syntax.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .engine import FileSource, Finding, Rule

# --------------------------------------------------------------------------
# SV001 — unit-suffix discipline
# --------------------------------------------------------------------------

#: Suffixes that mark an identifier as carrying a physical unit.  Every
#: distinct suffix is its own unit: ``_ns`` + ``_us`` is as much an error
#: as ``_ns`` + ``_nj`` (same dimension, thousandfold scale bug).
UNIT_SUFFIXES: Set[str] = {
    "ps", "ns", "us", "ms", "s",          # time
    "pj", "nj", "uj", "mj", "j",          # energy
    "mw", "w", "kw",                      # power
    "khz", "mhz", "ghz",                  # frequency
}

#: Dimension of each suffix, used only to sharpen messages.
_DIMENSION: Dict[str, str] = {}
for _suffixes, _dim in (
    (("ps", "ns", "us", "ms", "s"), "time"),
    (("pj", "nj", "uj", "mj", "j"), "energy"),
    (("mw", "w", "kw"), "power"),
    (("khz", "mhz", "ghz"), "frequency"),
):
    for _sfx in _suffixes:
        _DIMENSION[_sfx] = _dim


def unit_of_identifier(name: str) -> Optional[str]:
    """The unit suffix of ``name`` (``"serial_time_ns"`` -> ``"ns"``)."""
    if "_" not in name:
        return None
    suffix = name.rsplit("_", 1)[1].lower()
    return suffix if suffix in UNIT_SUFFIXES else None


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(
            node.value, bool
        )
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_number(node.operand)
    return False


def infer_unit(node: ast.AST) -> Optional[str]:
    """Best-effort unit of an expression, from identifier suffixes.

    Inference is deliberately conservative — ``None`` means "unknown",
    and unknown never produces a finding:

    * names/attributes/calls carry the unit of their (function) name,
    * ``+``/``-`` propagate the known operand's unit,
    * ``*``/``/`` by a plain name (a count) keep the unit; by a numeric
      literal they erase it (that is how unit *conversions* are written,
      e.g. ``time_s = total_ns / 1e9``); between two united operands
      they erase it (a derived quantity or a ratio).
    """
    if isinstance(node, ast.Name):
        return unit_of_identifier(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of_identifier(node.attr)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return unit_of_identifier(func.id)
        if isinstance(func, ast.Attribute):
            return unit_of_identifier(func.attr)
        return None
    if isinstance(node, ast.Subscript):
        return infer_unit(node.value)
    if isinstance(node, ast.UnaryOp):
        return infer_unit(node.operand)
    if isinstance(node, ast.IfExp):
        body = infer_unit(node.body)
        orelse = infer_unit(node.orelse)
        return body if body == orelse else None
    if isinstance(node, ast.BinOp):
        left = infer_unit(node.left)
        right = infer_unit(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return left or right
        if isinstance(node.op, ast.Mult):
            if left and right:
                return None  # derived quantity (e.g. ns * ns)
            if _is_number(node.left) or _is_number(node.right):
                return None  # literal factor: a unit conversion
            return left or right  # scaled by a count
        if isinstance(node.op, ast.Div):
            if left and right:
                return None  # ratio
            if left and not _is_number(node.right):
                return left  # per-count average keeps the unit
            return None
        return None
    return None


class _UnitVisitor(ast.NodeVisitor):
    def __init__(self, rule: "UnitSuffixRule", source: FileSource) -> None:
        self.rule = rule
        self.source = source
        self.findings: List[Finding] = []
        self._function_units: List[Optional[str]] = []

    def _clash(self, node: ast.AST, left: str, right: str, context: str) -> None:
        left_dim = _DIMENSION[left]
        right_dim = _DIMENSION[right]
        if left_dim == right_dim:
            detail = f"same dimension ({left_dim}), different scales"
        else:
            detail = f"{left_dim} vs {right_dim}"
        self.findings.append(
            self.rule.finding(
                self.source,
                node,
                f"{context} mixes `_{left}` and `_{right}` quantities ({detail})",
            )
        )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = infer_unit(node.left)
            right = infer_unit(node.right)
            if left and right and left != right:
                self._clash(node, left, right, "arithmetic")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for first, second in zip(operands, operands[1:]):
            left = infer_unit(first)
            right = infer_unit(second)
            if left and right and left != right:
                self._clash(node, left, right, "comparison")
        self.generic_visit(node)

    def _check_assignment(
        self, node: ast.AST, target: ast.AST, value: ast.AST
    ) -> None:
        target_unit = (
            infer_unit(target)
            if isinstance(target, (ast.Name, ast.Attribute, ast.Subscript))
            else None
        )
        if not target_unit:
            return
        value_unit = infer_unit(value)
        if value_unit and value_unit != target_unit:
            self._clash(node, target_unit, value_unit, "assignment")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_assignment(node, target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_assignment(node, node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_assignment(node, node.target, node.value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            target_unit = unit_of_identifier(keyword.arg)
            if not target_unit:
                continue
            value_unit = infer_unit(keyword.value)
            if value_unit and value_unit != target_unit:
                self._clash(keyword.value, target_unit, value_unit, "argument")
        self.generic_visit(node)

    def _visit_function(self, node: ast.AST, name: str) -> None:
        self._function_units.append(unit_of_identifier(name))
        self.generic_visit(node)
        self._function_units.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self._function_units:
            target_unit = self._function_units[-1]
            if target_unit:
                value_unit = infer_unit(node.value)
                if value_unit and value_unit != target_unit:
                    self._clash(node, target_unit, value_unit, "return value")
        self.generic_visit(node)


class UnitSuffixRule(Rule):
    rule_id = "SV001"
    title = "unit-suffix discipline"
    rationale = (
        "Quantities are in nanoseconds/nanojoules by suffix convention "
        "(`_ns`, `_nj`, ...). Adding, comparing, assigning, or passing a "
        "quantity across a suffix boundary is a silent unit bug — the "
        "class of error that corrupts speedup/energy claims."
    )

    def check(self, source: FileSource) -> Iterator[Finding]:
        visitor = _UnitVisitor(self, source)
        visitor.visit(source.tree)
        yield from visitor.findings


# --------------------------------------------------------------------------
# SV002 — float equality
# --------------------------------------------------------------------------


def _is_float_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_constant(node.operand)
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_int_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_int_constant(node.operand)
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    )


def _isinstance_float_names(test: ast.AST) -> Set[str]:
    """Names a guard asserts to be float: ``isinstance(x, float)``,
    including ``and``-conjunctions of such calls."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        names: Set[str] = set()
        for value in test.values:
            names |= _isinstance_float_names(value)
        return names
    if (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
        and len(test.args) == 2
        and isinstance(test.args[0], ast.Name)
        and isinstance(test.args[1], ast.Name)
        and test.args[1].id == "float"
    ):
        return {test.args[0].id}
    return set()


def _is_float_annotation(annotation: Optional[ast.AST]) -> bool:
    return isinstance(annotation, ast.Name) and annotation.id == "float"


class FloatEqualityRule(Rule):
    rule_id = "SV002"
    title = "float equality"
    rationale = (
        "`==`/`!=` against a float literal in control flow silently "
        "misfires under rounding; write the guard you mean (`<= 0.0`, "
        "`math.isclose`). The same applies to integer literals compared "
        "against values the code knows are floats (an `isinstance(x, "
        "float)` guard or a `: float` annotation): `x == 0` on a float "
        "is still a rounding-sensitive equality. `assert` statements "
        "are exempt: exact-value assertions on deterministic arithmetic "
        "fail loudly by design."
    )

    def check(self, source: FileSource) -> Iterator[Finding]:
        exempt: Set[int] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Assert):
                for child in ast.walk(node):
                    exempt.add(id(child))
        float_names = self._float_typed_names(source.tree)
        for node in ast.walk(source.tree):
            if id(node) in exempt or not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, first, second in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                if _is_float_constant(first) or _is_float_constant(second):
                    yield self.finding(
                        source,
                        node,
                        f"`{symbol}` against a float literal; use an "
                        "inequality guard or `math.isclose`",
                    )
                    break
                if self._float_name_vs_int(first, second, float_names.get(id(node))):
                    yield self.finding(
                        source,
                        node,
                        f"`{symbol}` against an integer literal on a "
                        "float-typed value; use an exact-integer check "
                        "(`x.is_integer()`) or an inequality guard",
                    )
                    break

    @staticmethod
    def _float_name_vs_int(
        first: ast.AST, second: ast.AST, names: Optional[Set[str]]
    ) -> bool:
        if not names:
            return False
        for name, other in ((first, second), (second, first)):
            if (
                isinstance(name, ast.Name)
                and name.id in names
                and _is_int_constant(other)
            ):
                return True
        return False

    @staticmethod
    def _float_typed_names(tree: ast.AST) -> Dict[int, Set[str]]:
        """Map Compare-node id -> names known float-typed at that compare.

        Two sources of type knowledge, both purely syntactic: the body of
        an ``if isinstance(x, float):`` guard, and ``: float``
        annotations on arguments / assignments within the enclosing
        function (valid for the whole function body — close enough for a
        lint heuristic, since re-binding a ``: float`` name to an int is
        its own kind of bug).
        """
        scopes: Dict[int, Set[str]] = {}

        def visit(node: ast.AST, known: Set[str]) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                known = set()  # new scope: annotations do not leak in
                if not isinstance(node, ast.Lambda):
                    args = node.args
                    for arg in (
                        list(args.posonlyargs)
                        + list(args.args)
                        + list(args.kwonlyargs)
                    ):
                        if _is_float_annotation(arg.annotation):
                            known.add(arg.arg)
                    for stmt in ast.walk(node):
                        if (
                            isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)
                            and _is_float_annotation(stmt.annotation)
                        ):
                            known.add(stmt.target.id)
            if isinstance(node, ast.If):
                guarded = known | _isinstance_float_names(node.test)
                visit(node.test, known)
                for stmt in node.body:
                    visit(stmt, guarded)
                for stmt in node.orelse:
                    visit(stmt, known)
                return
            if isinstance(node, ast.Compare):
                scopes[id(node)] = set(known)
            for child in ast.iter_child_nodes(node):
                visit(child, known)

        visit(tree, set())
        return scopes


# --------------------------------------------------------------------------
# SV003 — Command-enum exhaustiveness
# --------------------------------------------------------------------------


def _command_variant(node: ast.AST) -> Optional[str]:
    """``Command.ACTIVATE`` / ``commands.Command.ACTIVATE`` -> ``"ACTIVATE"``."""
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    if isinstance(base, ast.Name) and base.id == "Command":
        return node.attr
    if isinstance(base, ast.Attribute) and base.attr == "Command":
        return node.attr
    return None


def _condition_variants(node: ast.AST) -> Optional[Set[str]]:
    """Variants covered by one dispatch condition, or None if not one.

    Recognizes ``x is Command.A``, ``x == Command.A``, ``x in (Command.A,
    Command.B)``, and ``or`` combinations of those.
    """
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        covered: Set[str] = set()
        for value in node.values:
            sub = _condition_variants(value)
            if sub is None:
                return None
            covered |= sub
        return covered
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return None
    op = node.ops[0]
    left, right = node.left, node.comparators[0]
    if isinstance(op, (ast.Is, ast.Eq)):
        for candidate in (left, right):
            variant = _command_variant(candidate)
            if variant is not None:
                return {variant}
        return None
    if isinstance(op, ast.In) and isinstance(right, (ast.Tuple, ast.List, ast.Set)):
        variants = [_command_variant(element) for element in right.elts]
        if variants and all(v is not None for v in variants):
            return {v for v in variants if v is not None}
    return None


class CommandExhaustivenessRule(Rule):
    rule_id = "SV003"
    title = "Command-enum exhaustiveness"
    rationale = (
        "Every dispatch over `repro.dram.commands.Command` (dict literal, "
        "if/elif chain, match) must cover all variants or carry an "
        "explicit default — a missing arm silently drops that command's "
        "latency/energy from the model."
    )

    def _variants(self) -> Set[str]:
        from repro.dram.commands import Command

        return {member.name for member in Command}

    def _report_missing(
        self, source: FileSource, node: ast.AST, kind: str, covered: Set[str]
    ) -> Iterator[Finding]:
        missing = sorted(self._variants() - covered)
        if missing:
            yield self.finding(
                source,
                node,
                f"{kind} over Command misses {', '.join(missing)} "
                "and has no default arm",
            )

    def _check_dict(self, source: FileSource, node: ast.Dict) -> Iterator[Finding]:
        if not node.keys or any(key is None for key in node.keys):
            return  # empty, or contains ** unpacking (merged defaults)
        variants = [_command_variant(key) for key in node.keys]
        if not all(v is not None for v in variants):
            return
        covered = {v for v in variants if v is not None}
        yield from self._report_missing(source, node, "dict dispatch", covered)

    def _check_if_chain(
        self, source: FileSource, node: ast.If, inner: Set[int]
    ) -> Iterator[Finding]:
        covered: Set[str] = set()
        length = 0
        current: ast.stmt = node
        while isinstance(current, ast.If):
            inner.add(id(current))
            branch = _condition_variants(current.test)
            if branch is None:
                return  # not (purely) a Command dispatch
            covered |= branch
            length += 1
            if len(current.orelse) == 1 and isinstance(current.orelse[0], ast.If):
                current = current.orelse[0]
            elif current.orelse:
                return  # explicit else arm: fine
            else:
                break
        if length >= 2:
            yield from self._report_missing(
                source, node, "if/elif dispatch", covered
            )

    def _check_match(self, source: FileSource, node: ast.AST) -> Iterator[Finding]:
        covered: Set[str] = set()
        for case in node.cases:  # type: ignore[attr-defined]
            patterns = [case.pattern]
            if isinstance(case.pattern, ast.MatchOr):
                patterns = list(case.pattern.patterns)
            for pattern in patterns:
                if isinstance(pattern, ast.MatchAs) and pattern.pattern is None:
                    return  # wildcard `case _`: explicit default
                if isinstance(pattern, ast.MatchValue):
                    variant = _command_variant(pattern.value)
                    if variant is None:
                        return
                    covered.add(variant)
                else:
                    return
        if covered:
            yield from self._report_missing(source, node, "match dispatch", covered)

    def check(self, source: FileSource) -> Iterator[Finding]:
        chain_inner: Set[int] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Dict):
                yield from self._check_dict(source, node)
            elif isinstance(node, ast.If) and id(node) not in chain_inner:
                yield from self._check_if_chain(source, node, chain_inner)
            elif hasattr(ast, "Match") and isinstance(node, ast.Match):
                yield from self._check_match(source, node)


# --------------------------------------------------------------------------
# SV004 — nondeterministic randomness
# --------------------------------------------------------------------------

#: Constructors of seedable generator objects — allowed.
_RANDOM_ALLOWED = {"Random", "SystemRandom"}
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "RandomState",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


class NondeterminismRule(Rule):
    rule_id = "SV004"
    title = "nondeterministic randomness"
    rationale = (
        "Simulations must be replayable: the regenerated tables/figures "
        "are diffed across runs. Global-state RNG calls (`random.random`, "
        "legacy `np.random.rand`) hide the seed; thread a seeded "
        "`random.Random` / `np.random.default_rng` instance instead."
    )

    def check(self, source: FileSource) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id == "random"
                    and func.attr not in _RANDOM_ALLOWED
                ):
                    yield self.finding(
                        source,
                        node,
                        f"global-state `random.{func.attr}()`; use a seeded "
                        "`random.Random` instance",
                    )
                elif (
                    isinstance(base, ast.Attribute)
                    and base.attr == "random"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in ("np", "numpy")
                    and func.attr not in _NP_RANDOM_ALLOWED
                ):
                    yield self.finding(
                        source,
                        node,
                        f"legacy global-state `{base.value.id}.random."
                        f"{func.attr}()`; use `np.random.default_rng(seed)`",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module in (
                "random",
                "numpy.random",
            ):
                allowed = (
                    _RANDOM_ALLOWED
                    if node.module == "random"
                    else _NP_RANDOM_ALLOWED
                )
                for alias in node.names:
                    if alias.name not in allowed:
                        yield self.finding(
                            source,
                            node,
                            f"`from {node.module} import {alias.name}` pulls "
                            "in global-state RNG; import a seedable "
                            "generator class instead",
                        )


# --------------------------------------------------------------------------
# SV005 — mutable default arguments
# --------------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "defaultdict", "deque"}


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                         ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CONSTRUCTORS
    return False


class MutableDefaultRule(Rule):
    rule_id = "SV005"
    title = "mutable default argument"
    rationale = (
        "A mutable default is created once and shared across calls — "
        "ledgers/stats accumulated into it leak between simulations. "
        "Default to `None` and construct inside the function."
    )

    def check(self, source: FileSource) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        source,
                        default,
                        f"mutable default argument in `{name}`; use None "
                        "and construct per call",
                    )


# --------------------------------------------------------------------------
# Shared helpers for the concurrency rules (SV007-SV012)
# --------------------------------------------------------------------------


def _walk_async_context(tree: ast.AST) -> Iterator[Tuple[ast.AST, bool]]:
    """Yield every node with whether it executes in async context.

    "In async context" means the innermost enclosing function is an
    ``async def``; a nested synchronous ``def`` (or ``lambda``) resets
    the flag because its body runs wherever it is *called*, which the
    intra-module analysis cannot see.
    """

    def visit(node: ast.AST, in_async: bool) -> Iterator[Tuple[ast.AST, bool]]:
        yield node, in_async
        if isinstance(node, ast.AsyncFunctionDef):
            inner = True
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            inner = False
        else:
            inner = in_async
        for child in ast.iter_child_nodes(node):
            yield from visit(child, inner)

    yield from visit(tree, False)


def _call_dotted_name(node: ast.Call) -> Optional[str]:
    """``time.sleep(...)`` -> ``"time.sleep"``; ``open(...)`` -> ``"open"``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _call_method_name(node: ast.Call) -> Optional[str]:
    """The attribute name of a method call, whatever the receiver."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _module_async_def_names(tree: ast.Module) -> Set[str]:
    """Names of every ``async def`` in the module (incl. methods)."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.AsyncFunctionDef)
    }


def _parent_map(tree: ast.AST) -> Dict[int, ast.AST]:
    """``id(child) -> parent`` for consumer checks (SV011)."""
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _str_option(source: FileSource, rule_id: str, key: str) -> List[str]:
    value = source.options(rule_id).get(key, [])
    if isinstance(value, str):
        return [value]
    return [str(item) for item in value]


def _path_in_scope(source: FileSource, rule_id: str, key: str) -> Optional[bool]:
    """Config-scoped path check; ``None`` when the option is unset."""
    from .config import path_matches

    patterns = _str_option(source, rule_id, key)
    if not patterns:
        return None
    return path_matches(source.path, patterns)


# --------------------------------------------------------------------------
# SV007 — blocking calls inside async def
# --------------------------------------------------------------------------

#: Dotted call names that block the event loop outright.
BLOCKING_CALLS: Set[str] = {
    "time.sleep",
    "os.system",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "socket.create_connection",
}

#: Method names that are CPU-heavy or do sync file I/O in this codebase.
#: ``query``/``classify`` are the QueryBackend surface — in async code
#: they must go through the dispatcher's executor seam
#: (``ShardWorker._launch``), never be called inline on the loop.
BLOCKING_METHODS: Set[str] = {
    "query",
    "classify",
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
}


class AsyncBlockingCallRule(Rule):
    rule_id = "SV007"
    title = "blocking call inside async def"
    rationale = (
        "A blocking call inside `async def` stalls the entire event "
        "loop: every shard queue, deadline timer, and failover path "
        "freezes behind it. Sleep with `asyncio.sleep`, do file I/O "
        "outside the coroutine, and route CPU-heavy backend calls "
        "(`query`/`classify`) through the dispatcher's executor seam."
    )

    def check(self, source: FileSource) -> Iterator[Finding]:
        extra_calls = set(_str_option(source, self.rule_id, "blocking_calls"))
        extra_methods = set(
            _str_option(source, self.rule_id, "blocking_methods")
        )
        blocking_calls = BLOCKING_CALLS | extra_calls
        blocking_methods = BLOCKING_METHODS | extra_methods
        async_names = _module_async_def_names(source.tree)
        awaited: Set[int] = {
            id(node.value)
            for node in ast.walk(source.tree)
            if isinstance(node, ast.Await)
        }
        for node, in_async in _walk_async_context(source.tree):
            if not in_async or not isinstance(node, ast.Call):
                continue
            dotted = _call_dotted_name(node)
            if dotted in blocking_calls:
                yield self.finding(
                    source,
                    node,
                    f"blocking `{dotted}(...)` inside async def; it "
                    "stalls the event loop (use the asyncio equivalent "
                    "or move it off the coroutine)",
                )
                continue
            if dotted == "open":
                yield self.finding(
                    source,
                    node,
                    "sync file I/O (`open`) inside async def; read/write "
                    "before entering or after leaving the coroutine",
                )
                continue
            method = _call_method_name(node)
            if (
                method == "result"
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Call)
                and _call_method_name(node.func.value) == "submit"
            ):
                yield self.finding(
                    source,
                    node,
                    "`.submit(...).result()` blocks the event loop until "
                    "the executor finishes; await "
                    "`loop.run_in_executor(...)` instead",
                )
                continue
            if (
                method in blocking_methods
                and id(node) not in awaited
                and method not in async_names
            ):
                yield self.finding(
                    source,
                    node,
                    f"CPU-heavy/blocking `.{method}(...)` on the event "
                    "loop; route it through the dispatcher executor seam "
                    "(`run_in_executor`) or a sync helper",
                )


# --------------------------------------------------------------------------
# SV008 — un-awaited coroutines / fire-and-forget tasks
# --------------------------------------------------------------------------

#: Task-spawning call names whose return value must be kept: a discarded
#: task can be garbage-collected mid-flight and swallows exceptions.
TASK_SPAWNERS: Set[str] = {"create_task", "ensure_future"}


class UnawaitedCoroutineRule(Rule):
    rule_id = "SV008"
    title = "un-awaited coroutine / fire-and-forget task"
    rationale = (
        "Calling an `async def` without awaiting it silently does "
        "nothing (the coroutine object is discarded), and a bare "
        "`create_task(...)` whose handle is dropped can be "
        "garbage-collected mid-flight with its exception swallowed. "
        "Await the coroutine, or keep the task handle and await / "
        "`add_done_callback` it."
    )

    def check(self, source: FileSource) -> Iterator[Finding]:
        async_names = _module_async_def_names(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Expr) or not isinstance(
                node.value, ast.Call
            ):
                continue
            call = node.value
            name = _call_method_name(call) or (
                call.func.id if isinstance(call.func, ast.Name) else None
            )
            if name in TASK_SPAWNERS:
                yield self.finding(
                    source,
                    call,
                    f"fire-and-forget `{name}(...)`: the task handle is "
                    "discarded, so exceptions vanish and the task may be "
                    "garbage-collected; keep a reference and await it or "
                    "attach `add_done_callback`",
                )
            elif name in async_names:
                yield self.finding(
                    source,
                    call,
                    f"`{name}(...)` is an async def in this module but "
                    "the coroutine is never awaited; it will not run",
                )


# --------------------------------------------------------------------------
# SV009 — fork-unsafe shared state
# --------------------------------------------------------------------------

#: Constructors whose result is safely immutable at class/module scope.
_FROZEN_WRAPPERS: Set[str] = {"MappingProxyType", "frozenset", "tuple"}

#: numpy array constructors (module-level arrays must be frozen).
_NUMPY_CONSTRUCTORS: Set[str] = {
    "array", "zeros", "ones", "empty", "full", "arange",
    "asarray", "frombuffer", "linspace",
}

#: Mutating method names that mark a module-level container as shared
#: mutable state when called from function bodies.
_MUTATOR_METHODS: Set[str] = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "appendleft",
}

_FORK_SAFE_RE = re.compile(r"#\s*fork-safe\b")


def _is_mutable_container_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_dotted_name(node)
        if name is None:
            return False
        bare = name.rsplit(".", 1)[-1]
        if bare in _FROZEN_WRAPPERS:
            return False
        return bare in _MUTABLE_CONSTRUCTORS
    return False


def _numpy_array_expr(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
        and func.attr in _NUMPY_CONSTRUCTORS
    )


def _assign_targets(node: ast.AST) -> List[ast.Name]:
    if isinstance(node, ast.Assign):
        return [t for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target] if node.value is not None else []
    return []


def _line_has_fork_safe_annotation(source: FileSource, lineno: int) -> bool:
    lines = source.text.splitlines()
    if 1 <= lineno <= len(lines):
        return bool(_FORK_SAFE_RE.search(lines[lineno - 1]))
    return False


class ForkUnsafeStateRule(Rule):
    rule_id = "SV009"
    title = "fork-unsafe shared state"
    rationale = (
        "The fleet forks workers, so module/class-level mutable state "
        "is silently copied per process: mutations diverge between "
        "parent and children, and shared numpy arrays invite "
        "copy-on-write surprises. Freeze class-level mappings "
        "(`MappingProxyType`/`frozenset`/tuple), keep registries "
        "instance-level, and mark module-level arrays read-only with "
        "`setflags(write=False)` or a `# fork-safe:` annotation."
    )

    def check(self, source: FileSource) -> Iterator[Finding]:
        yield from self._class_level(source)
        yield from self._module_level(source)

    def _class_level(self, source: FileSource) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                for target in _assign_targets(stmt):
                    value = getattr(stmt, "value", None)
                    if value is None:
                        continue
                    if _line_has_fork_safe_annotation(source, stmt.lineno):
                        continue
                    if _is_mutable_container_expr(value):
                        yield self.finding(
                            source,
                            stmt,
                            f"class-level mutable container "
                            f"`{node.name}.{target.id}` is shared across "
                            "instances and fork boundaries; freeze it "
                            "(`MappingProxyType`/`frozenset`/tuple) or "
                            "move it to __init__",
                        )
                    elif _numpy_array_expr(value) and not self._frozen_in(
                        node.body, target.id
                    ):
                        yield self.finding(
                            source,
                            stmt,
                            f"class-level numpy array "
                            f"`{node.name}.{target.id}` without "
                            "`setflags(write=False)`; forked workers may "
                            "mutate a silently-shared buffer",
                        )

    def _module_level(self, source: FileSource) -> Iterator[Finding]:
        module_mutables: Dict[str, ast.stmt] = {}
        module_arrays: Dict[str, ast.stmt] = {}
        for stmt in source.tree.body:
            for target in _assign_targets(stmt):
                value = getattr(stmt, "value", None)
                if value is None:
                    continue
                if _line_has_fork_safe_annotation(source, stmt.lineno):
                    continue
                if _is_mutable_container_expr(value):
                    module_mutables[target.id] = stmt
                elif _numpy_array_expr(value):
                    module_arrays[target.id] = stmt
        for name, stmt in module_arrays.items():
            if not self._frozen_in(source.tree.body, name):
                yield self.finding(
                    source,
                    stmt,
                    f"module-level numpy array `{name}` without "
                    "`setflags(write=False)`; freeze it so forked fleet "
                    "workers cannot mutate a shared buffer",
                )
        if not module_mutables:
            return
        mutated = self._names_mutated_in_functions(
            source.tree, set(module_mutables)
        )
        for name in sorted(mutated):
            yield self.finding(
                source,
                module_mutables[name],
                f"module-level mutable `{name}` is mutated from function "
                "bodies; under fork each worker mutates its own copy "
                "and the parent never sees it — pass state explicitly "
                "or return it from the job",
            )

    @staticmethod
    def _frozen_in(body: Sequence[ast.stmt], name: str) -> bool:
        """Whether ``name.setflags(write=False)`` appears in ``body``."""
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and _call_method_name(node) == "setflags"
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                ):
                    return True
        return False

    @staticmethod
    def _names_mutated_in_functions(
        tree: ast.Module, names: Set[str]
    ) -> Set[str]:
        mutated: Set[str] = set()
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local: Set[str] = {
                arg.arg
                for arg in (
                    func.args.args
                    + func.args.kwonlyargs
                    + func.args.posonlyargs
                )
            }
            for node in ast.walk(func):
                for target in _assign_targets(node):
                    local.add(target.id)
            for node in ast.walk(func):
                receiver: Optional[str] = None
                if (
                    isinstance(node, ast.Call)
                    and _call_method_name(node) in _MUTATOR_METHODS
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                ):
                    receiver = node.func.value.id
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for tgt in targets:
                        if isinstance(tgt, ast.Subscript) and isinstance(
                            tgt.value, ast.Name
                        ):
                            receiver = tgt.value.id
                if receiver in names and receiver not in local:
                    mutated.add(receiver)
        return mutated


# --------------------------------------------------------------------------
# SV010 — unbounded await on queues/futures
# --------------------------------------------------------------------------

#: Queue/synchronization methods whose await can hang forever.
_UNBOUNDED_AWAIT_METHODS: Set[str] = {"get", "join", "wait", "put"}

#: Substrings marking a name as a future-like handle.
_FUTURE_NAME_HINTS: Tuple[str, ...] = ("future", "fut")


class UnboundedAwaitRule(Rule):
    rule_id = "SV010"
    title = "unbounded await on queue/future"
    rationale = (
        "An `await queue.get()` / `await future` with no timeout or "
        "deadline guard hangs forever when the producer crashes — the "
        "request is neither answered nor failed, and drain() never "
        "returns. Wrap in `asyncio.wait_for(...)`, or justify why the "
        "wait is bounded by construction (e.g. failover resolves the "
        "future on every path)."
    )

    def check(self, source: FileSource) -> Iterator[Finding]:
        in_scope = _path_in_scope(source, self.rule_id, "paths")
        if in_scope is False:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Await):
                continue
            yield from self._check_awaited(source, node.value)

    def _check_awaited(
        self, source: FileSource, value: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(value, ast.Call):
            method = _call_method_name(value)
            dotted = _call_dotted_name(value)
            bare = (dotted or "").rsplit(".", 1)[-1]
            if method in _UNBOUNDED_AWAIT_METHODS:
                yield self.finding(
                    source,
                    value,
                    f"unbounded `await ....{method}()`; wrap in "
                    "`asyncio.wait_for(...)` or justify the wait as "
                    "bounded by construction",
                )
            elif bare == "gather":
                # Unbounded waits hidden inside gather(...) args.
                for arg in value.args:
                    for sub in ast.walk(arg):
                        if (
                            isinstance(sub, ast.Call)
                            and _call_method_name(sub)
                            in _UNBOUNDED_AWAIT_METHODS
                        ):
                            yield self.finding(
                                source,
                                sub,
                                f"unbounded `.{_call_method_name(sub)}()` "
                                "awaited via gather(...); wrap in "
                                "`asyncio.wait_for(...)` or justify",
                            )
        elif isinstance(value, (ast.Name, ast.Attribute)):
            name = value.id if isinstance(value, ast.Name) else value.attr
            lowered = name.lower()
            if any(hint in lowered for hint in _FUTURE_NAME_HINTS):
                yield self.finding(
                    source,
                    value,
                    f"bare `await {name}` with no timeout; if the "
                    "resolver dies this hangs forever — wrap in "
                    "`asyncio.wait_for(...)` or justify",
                )


# --------------------------------------------------------------------------
# SV011 — order-nondeterministic set iteration flowing into output
# --------------------------------------------------------------------------

#: Reducers whose result does not depend on iteration order.
_ORDER_INSENSITIVE_CONSUMERS: Set[str] = {
    "sum", "min", "max", "len", "any", "all", "set", "frozenset", "sorted",
}

#: Materializers that preserve (and therefore expose) iteration order.
_ORDERING_MATERIALIZERS: Set[str] = {"list", "tuple", "enumerate"}

#: Method calls inside a loop body that write order-sensitive output.
_ORDERED_SINK_METHODS: Set[str] = {
    "append", "extend", "insert", "write", "writelines",
}


class SetIterationOrderRule(Rule):
    rule_id = "SV011"
    title = "set iteration order flows into output"
    rationale = (
        "`set` iteration order depends on insertion history and hash "
        "seeding, so a set-driven loop that appends/writes/prints "
        "produces run-to-run diffs in golden files, benches, and "
        "reports. Sort first (`sorted(...)`), or keep set iteration to "
        "order-insensitive reductions (sum/min/max/len/any/all)."
    )

    def check(self, source: FileSource) -> Iterator[Finding]:
        parents = _parent_map(source.tree)
        for scope_body in self._iter_scopes(source.tree):
            set_names = self._set_typed_names(scope_body)
            yield from self._check_scope(source, scope_body, set_names, parents)

    def _check_scope(
        self,
        source: FileSource,
        scope_body: Sequence[ast.stmt],
        set_names: Set[str],
        parents: Dict[int, ast.AST],
    ) -> Iterator[Finding]:
        for node in self._scope_walk(scope_body):
            if isinstance(node, ast.For) and self._is_set_expr(
                node.iter, set_names
            ):
                if self._has_ordered_sink(node.body):
                    yield self.finding(
                        source,
                        node.iter,
                        "loop over an unordered set feeds an ordered "
                        "sink (append/write/print/yield); iterate "
                        "`sorted(...)` instead",
                    )
            elif isinstance(node, ast.ListComp) and self._comp_over_set(
                node, set_names
            ):
                yield self.finding(
                    source,
                    node,
                    "list comprehension over an unordered set produces "
                    "a nondeterministically-ordered list; wrap the "
                    "iterable in `sorted(...)`",
                )
            elif isinstance(node, ast.GeneratorExp) and self._comp_over_set(
                node, set_names
            ):
                consumer = self._consumer_name(node, parents)
                if consumer not in _ORDER_INSENSITIVE_CONSUMERS:
                    yield self.finding(
                        source,
                        node,
                        "generator over an unordered set feeds an "
                        "order-sensitive consumer "
                        f"(`{consumer or 'unknown'}`); sort first or "
                        "reduce order-insensitively",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_materializer(source, node, set_names)

    # -- set-typed expression tracking ------------------------------------

    @staticmethod
    def _iter_scopes(tree: ast.Module) -> Iterator[Sequence[ast.stmt]]:
        """Each name-tracking scope: the module body plus every def body."""
        yield tree.body
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node.body

    @staticmethod
    def _scope_walk(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
        """Walk a scope body without descending into nested functions.

        Function nodes are yielded (so a scope "sees" that a def
        exists) but never expanded — their bodies belong to the nested
        scope yielded separately by :meth:`_iter_scopes`.
        """
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            for child in ast.iter_child_nodes(node):
                stack.append(child)

    @staticmethod
    def _set_typed_names(scope_body: Sequence[ast.stmt]) -> Set[str]:
        """Names assigned a set-typed expression within one scope.

        Tracking is per-scope and flow-insensitive: a name bound to a
        set anywhere in the scope is treated as a set at every use in
        that scope.  That is the right bias for a determinism lint —
        false negatives hide run-to-run diffs, false positives get a
        `sorted(...)` — while per-scope tracking keeps an unrelated
        `delays = [...]` in one test from inheriting set-ness from a
        `delays = {...}` in another.
        """
        names: Set[str] = set()
        for node in SetIterationOrderRule._scope_walk(scope_body):
            if isinstance(node, ast.Assign):
                if SetIterationOrderRule._is_set_expr(node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names

    @staticmethod
    def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name) and node.id in set_names:
            return True
        if isinstance(node, ast.Call):
            dotted = _call_dotted_name(node)
            if dotted in ("set", "frozenset"):
                return True
            # dict.keys() views are insertion-ordered in CPython; set
            # operations on them are not.
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return SetIterationOrderRule._is_set_expr(
                node.left, set_names
            ) or SetIterationOrderRule._is_set_expr(node.right, set_names)
        return False

    @classmethod
    def _comp_over_set(
        cls, node: ast.AST, set_names: Set[str]
    ) -> bool:
        generators = getattr(node, "generators", [])
        return any(
            cls._is_set_expr(gen.iter, set_names) for gen in generators
        )

    # -- sink / consumer classification -----------------------------------

    @staticmethod
    def _has_ordered_sink(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if isinstance(node, ast.Call):
                    if _call_method_name(node) in _ORDERED_SINK_METHODS:
                        return True
                    if (
                        isinstance(node.func, ast.Name)
                        and node.func.id == "print"
                    ):
                        return True
        return False

    @staticmethod
    def _consumer_name(
        node: ast.AST, parents: Dict[int, ast.AST]
    ) -> Optional[str]:
        parent = parents.get(id(node))
        if isinstance(parent, ast.Call):
            dotted = _call_dotted_name(parent)
            if dotted is not None:
                return dotted.rsplit(".", 1)[-1]
            return _call_method_name(parent)
        return None

    def _check_materializer(
        self, source: FileSource, node: ast.Call, set_names: Set[str]
    ) -> Iterator[Finding]:
        dotted = _call_dotted_name(node)
        method = _call_method_name(node)
        if not node.args or not self._is_set_expr(node.args[0], set_names):
            return
        if dotted in _ORDERING_MATERIALIZERS:
            yield self.finding(
                source,
                node,
                f"`{dotted}(...)` over an unordered set freezes a "
                "nondeterministic order; wrap the set in `sorted(...)`",
            )
        elif method == "join":
            yield self.finding(
                source,
                node,
                "string join over an unordered set produces "
                "run-to-run diffs; join `sorted(...)` instead",
            )


# --------------------------------------------------------------------------
# SV012 — wall-clock reads outside sanctioned seams
# --------------------------------------------------------------------------

#: Wall/monotonic clock reads that make runs non-replayable.
_WALL_CLOCK_CALLS: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
}


class WallClockRule(Rule):
    rule_id = "SV012"
    title = "wall-clock read outside sanctioned seams"
    rationale = (
        "Simulated results must be a pure function of inputs; a "
        "`time.time()`/`perf_counter()`/`datetime.now()` sprinkled "
        "into model or report code leaks host timing into outputs and "
        "breaks bit-exact replay. Wall-clock reads belong in the bench "
        "harness and the service metrics seam (configured via "
        "`[tool.sieve-lint.SV012] allow`)."
    )

    def check(self, source: FileSource) -> Iterator[Finding]:
        in_allowed = _path_in_scope(source, self.rule_id, "allow")
        if in_allowed is True:
            return
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_dotted_name(node)
            if dotted in _WALL_CLOCK_CALLS:
                yield self.finding(
                    source,
                    node,
                    f"wall-clock read `{dotted}()` outside the "
                    "sanctioned bench/metrics seams; thread time in "
                    "explicitly or move the read into the harness",
                )
                continue
            # datetime.datetime.now(...) — attribute-of-attribute form.
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("now", "utcnow", "today")
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "datetime"
            ):
                yield self.finding(
                    source,
                    node,
                    f"wall-clock read `datetime.datetime.{func.attr}()` "
                    "outside the sanctioned bench/metrics seams",
                )


ALL_RULES: Tuple[Rule, ...] = (
    UnitSuffixRule(),
    FloatEqualityRule(),
    CommandExhaustivenessRule(),
    NondeterminismRule(),
    MutableDefaultRule(),
    AsyncBlockingCallRule(),
    UnawaitedCoroutineRule(),
    ForkUnsafeStateRule(),
    UnboundedAwaitRule(),
    SetIterationOrderRule(),
    WallClockRule(),
)


def rules_by_id(ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """Resolve rule IDs (``None`` = all) to rule instances."""
    if ids is None:
        return list(ALL_RULES)
    known = {rule.rule_id: rule for rule in ALL_RULES}
    missing = [rule_id for rule_id in ids if rule_id not in known]
    if missing:
        raise KeyError(f"unknown rule id(s): {', '.join(missing)}")
    return [known[rule_id] for rule_id in ids]
