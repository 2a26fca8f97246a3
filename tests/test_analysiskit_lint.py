"""Tests for the simulator-aware lint pass (rules SV001-SV012).

Each rule is exercised three ways: a seeded violation fixture (must be
detected), the same fixture with a suppression comment (must be clean),
and an idiomatically-correct fixture (must be clean).
"""

import json
import textwrap

from repro.analysiskit import LintConfig, lint_file, rules_by_id
from repro.analysiskit.cli import main as lint_main
from repro.analysiskit.config import load_config, path_matches
from repro.analysiskit.reporting import render_sarif
from repro.analysiskit.rules import (
    ALL_RULES,
    infer_unit,
    unit_of_identifier,
)


def run_rule(rule_id, code, path="fixture.py", config=None):
    """Lint a code string with one rule; returns the findings.

    ``config`` defaults to :meth:`LintConfig.empty` so fixtures are
    hermetic — the repo's own ``pyproject.toml`` scoping never leaks
    into rule tests.  Pass an explicit :class:`LintConfig` (and a
    ``path``) to exercise config-driven scoping.
    """
    if config is None:
        config = LintConfig.empty()
    return lint_file(
        path, rules_by_id([rule_id]), text=textwrap.dedent(code),
        config=config,
    )


def run_all(code):
    return lint_file(
        "fixture.py", list(ALL_RULES), text=textwrap.dedent(code),
        config=LintConfig.empty(),
    )


# --------------------------------------------------------------------------
# SV001 — unit-suffix discipline
# --------------------------------------------------------------------------


class TestUnitSuffixRule:
    def test_identifier_suffix_extraction(self):
        assert unit_of_identifier("serial_time_ns") == "ns"
        assert unit_of_identifier("energy_nj") == "nj"
        assert unit_of_identifier("budget_w") == "w"
        assert unit_of_identifier("s") is None  # bare name, no suffix
        assert unit_of_identifier("num_reads") is None
        assert unit_of_identifier("queries_per_group") is None

    def test_addition_across_dimensions_detected(self):
        findings = run_rule("SV001", "total = serial_time_ns + energy_nj\n")
        assert len(findings) == 1
        assert "`_ns` and `_nj`" in findings[0].message

    def test_same_dimension_scale_mix_detected(self):
        findings = run_rule("SV001", "total = wait_ns + wait_us\n")
        assert len(findings) == 1
        assert "different scales" in findings[0].message

    def test_assignment_across_units_detected(self):
        findings = run_rule("SV001", "lookup_ns = transfer.total_s\n")
        assert len(findings) == 1
        assert "assignment" in findings[0].message

    def test_augmented_assignment_detected(self):
        findings = run_rule("SV001", "energy_nj += stall_ns\n")
        assert len(findings) == 1

    def test_comparison_across_units_detected(self):
        findings = run_rule("SV001", "ok = busy_ns < energy_nj\n")
        assert len(findings) == 1
        assert "comparison" in findings[0].message

    def test_keyword_argument_detected(self):
        findings = run_rule("SV001", "ledger = make(hop_ns=relay_nj)\n")
        assert len(findings) == 1
        assert "argument" in findings[0].message

    def test_return_value_detected(self):
        code = """
        def total_ns(self):
            return self.energy_nj
        """
        findings = run_rule("SV001", code)
        assert len(findings) == 1
        assert "return value" in findings[0].message

    def test_conversion_by_literal_is_clean(self):
        assert run_rule("SV001", "time_s = total_ns / 1e9\n") == []
        assert run_rule("SV001", "energy_j = total_nj * 1e-9\n") == []

    def test_count_scaling_is_clean(self):
        code = "serial_time_ns = serial_time_ns + count * hop_ns\n"
        assert run_rule("SV001", code) == []

    def test_ratio_and_derived_are_clean(self):
        assert run_rule("SV001", "speedup = cpu_ns / sieve_ns\n") == []
        assert run_rule("SV001", "host_j = host_power_w * time_s\n") == []
        assert run_rule("SV001", "power_w = act_nj / cycle_ns\n") == []

    def test_per_count_average_keeps_unit(self):
        findings = run_rule("SV001", "mean_nj = total_ns / accesses\n")
        assert len(findings) == 1


# --------------------------------------------------------------------------
# SV002 — float equality
# --------------------------------------------------------------------------


class TestFloatEqualityRule:
    def test_equality_against_float_literal_detected(self):
        findings = run_rule("SV002", "if rate == 0.0:\n    pass\n")
        assert len(findings) == 1
        assert "float literal" in findings[0].message

    def test_inequality_against_float_literal_detected(self):
        findings = run_rule("SV002", "flag = 1.0 != scale\n")
        assert len(findings) == 1

    def test_negative_literal_detected(self):
        findings = run_rule("SV002", "if x == -1.0:\n    pass\n")
        assert len(findings) == 1

    def test_integer_equality_is_clean(self):
        assert run_rule("SV002", "if n == 0:\n    pass\n") == []

    def test_inequality_guards_are_clean(self):
        assert run_rule("SV002", "if rate <= 0.0:\n    pass\n") == []
        assert run_rule("SV002", "ok = 0.0 <= rate <= 1.0\n") == []

    def test_assert_statements_are_exempt(self):
        assert run_rule("SV002", "assert ledger.time_ns == 100.0\n") == []

    def test_int_literal_inside_isinstance_float_guard_detected(self):
        # The FigureResult.format bug shape: `cell` is established float
        # by the guard, then compared `== 0` with an int literal.
        findings = run_rule(
            "SV002",
            """\
            if isinstance(cell, float):
                if cell == 0:
                    pass
            """,
        )
        assert len(findings) == 1
        assert "float-typed value" in findings[0].message

    def test_int_literal_against_float_annotated_arg_detected(self):
        findings = run_rule(
            "SV002",
            """\
            def fmt(cell: float) -> str:
                if cell == 0:
                    return "0"
                return str(cell)
            """,
        )
        assert len(findings) == 1
        assert "float-typed value" in findings[0].message

    def test_int_literal_against_float_ann_assign_detected(self):
        findings = run_rule(
            "SV002",
            """\
            def f():
                total: float = compute()
                return total != 0
            """,
        )
        assert len(findings) == 1

    def test_exact_integer_rewrite_is_clean(self):
        # The fixed shape: is_integer() + int() round-trip.
        assert (
            run_rule(
                "SV002",
                """\
                if isinstance(cell, float):
                    if cell.is_integer() and int(cell) == 0:
                        pass
                """,
            )
            == []
        )

    def test_isinstance_guard_does_not_leak_to_else_or_siblings(self):
        assert (
            run_rule(
                "SV002",
                """\
                if isinstance(cell, float):
                    pass
                else:
                    ok = cell == 0
                later = cell == 0
                """,
            )
            == []
        )

    def test_float_annotation_does_not_leak_across_functions(self):
        assert (
            run_rule(
                "SV002",
                """\
                def g(cell: float) -> float:
                    return cell * 2.0

                def h(cell):
                    return cell == 0
                """,
            )
            == []
        )

    def test_isinstance_guard_in_conjunction_detected(self):
        findings = run_rule(
            "SV002",
            """\
            if isinstance(x, float) and enabled:
                flag = x != 1
            """,
        )
        assert len(findings) == 1

    def test_guarded_int_equality_in_assert_is_exempt(self):
        assert (
            run_rule(
                "SV002",
                """\
                if isinstance(x, float):
                    assert x == 0
                """,
            )
            == []
        )


# --------------------------------------------------------------------------
# SV003 — Command-enum exhaustiveness
# --------------------------------------------------------------------------

ALL_VARIANTS = (
    "ACTIVATE", "MULTI_ACTIVATE", "READ_BURST", "WRITE_BURST",
    "HOP", "LOGIC_CYCLE", "ROW_CLONE",
)


class TestCommandExhaustivenessRule:
    def test_partial_dict_dispatch_detected(self):
        findings = run_rule(
            "SV003", "COSTS = {Command.ACTIVATE: 1, Command.HOP: 2}\n"
        )
        assert len(findings) == 1
        assert "READ_BURST" in findings[0].message

    def test_complete_dict_dispatch_is_clean(self):
        entries = ", ".join(f"Command.{v}: 0" for v in ALL_VARIANTS)
        assert run_rule("SV003", f"COSTS = {{{entries}}}\n") == []

    def test_dict_with_unpacked_defaults_is_clean(self):
        code = "COSTS = {Command.ACTIVATE: 1, **DEFAULT_COSTS}\n"
        assert run_rule("SV003", code) == []

    def test_partial_if_chain_detected(self):
        code = """
        if cmd is Command.ACTIVATE:
            t = 1
        elif cmd is Command.READ_BURST:
            t = 2
        """
        findings = run_rule("SV003", code)
        assert len(findings) == 1
        assert "no default arm" in findings[0].message

    def test_if_chain_with_else_is_clean(self):
        code = """
        if cmd is Command.ACTIVATE:
            t = 1
        elif cmd is Command.READ_BURST:
            t = 2
        else:
            raise ValueError(cmd)
        """
        assert run_rule("SV003", code) == []

    def test_complete_if_chain_is_clean(self):
        branches = "\n".join(
            ("if" if i == 0 else "elif")
            + f" cmd is Command.{v}:\n    t = {i}"
            for i, v in enumerate(ALL_VARIANTS)
        )
        assert run_rule("SV003", branches + "\n") == []

    def test_membership_dispatch_counts_coverage(self):
        code = """
        if cmd in (Command.ACTIVATE, Command.MULTI_ACTIVATE, Command.ROW_CLONE):
            t = 1
        elif cmd in (Command.READ_BURST, Command.WRITE_BURST):
            t = 2
        """
        findings = run_rule("SV003", code)
        assert len(findings) == 1
        assert "HOP" in findings[0].message
        assert "LOGIC_CYCLE" in findings[0].message

    def test_single_if_is_not_a_dispatch(self):
        code = """
        if cmd is Command.ACTIVATE:
            t = 1
        """
        assert run_rule("SV003", code) == []

    def test_non_command_dict_is_ignored(self):
        assert run_rule("SV003", "D = {'a': 1, 'b': 2}\n") == []


# --------------------------------------------------------------------------
# SV004 — nondeterministic randomness
# --------------------------------------------------------------------------


class TestNondeterminismRule:
    def test_global_random_call_detected(self):
        findings = run_rule("SV004", "x = random.random()\n")
        assert len(findings) == 1
        assert "random.random()" in findings[0].message

    def test_legacy_numpy_global_detected(self):
        findings = run_rule("SV004", "x = np.random.rand(3)\n")
        assert len(findings) == 1
        assert "default_rng" in findings[0].message

    def test_numpy_seed_call_detected(self):
        findings = run_rule("SV004", "np.random.seed(0)\n")
        assert len(findings) == 1

    def test_global_import_detected(self):
        findings = run_rule("SV004", "from random import choice\n")
        assert len(findings) == 1

    def test_seeded_generators_are_clean(self):
        assert run_rule("SV004", "rng = np.random.default_rng(42)\n") == []
        assert run_rule("SV004", "rng = random.Random(7)\n") == []
        assert run_rule("SV004", "x = rng.random()\n") == []


# --------------------------------------------------------------------------
# SV005 — mutable default arguments
# --------------------------------------------------------------------------


class TestMutableDefaultRule:
    def test_list_default_detected(self):
        findings = run_rule("SV005", "def f(counts=[]):\n    return counts\n")
        assert len(findings) == 1
        assert "`f`" in findings[0].message

    def test_dict_call_default_detected(self):
        findings = run_rule("SV005", "def f(opts=dict()):\n    return opts\n")
        assert len(findings) == 1

    def test_kwonly_default_detected(self):
        findings = run_rule("SV005", "def f(*, tags={'a'}):\n    return tags\n")
        assert len(findings) == 1

    def test_none_default_is_clean(self):
        assert run_rule("SV005", "def f(counts=None):\n    return counts\n") == []

    def test_immutable_defaults_are_clean(self):
        assert run_rule("SV005", "def f(k=31, name='x', dims=()):\n    pass\n") == []


# --------------------------------------------------------------------------
# Suppression directives
# --------------------------------------------------------------------------


class TestSuppression:
    def test_file_level_disable(self):
        code = """
        # lint: disable=SV001
        total = serial_time_ns + energy_nj
        other = busy_ns + spent_nj
        """
        assert run_rule("SV001", code) == []

    def test_line_level_disable_is_scoped(self):
        code = (
            "a = busy_ns + spent_nj  # lint: disable=SV001\n"
            "b = busy_ns + spent_nj\n"
        )
        findings = run_rule("SV001", code)
        assert len(findings) == 1
        assert findings[0].line == 2

    def test_disable_only_names_that_rule(self):
        code = """
        # lint: disable=SV005
        total = serial_time_ns + energy_nj
        """
        assert len(run_rule("SV001", code)) == 1

    def test_multiple_ids_in_one_directive(self):
        code = """
        # lint: disable=SV001, SV002
        total = serial_time_ns + energy_nj
        flag = x == 0.5
        """
        assert run_all(code) == []


# --------------------------------------------------------------------------
# CLI (python -m repro.lint)
# --------------------------------------------------------------------------


class TestLintCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x_ns = 1.5\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_with_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("total_ns = a_ns + b_nj\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SV001" in out and "bad.py" in out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "SV005"
        assert payload["findings"][0]["line"] == 1

    def test_select_restricts_rules(self, tmp_path):
        (tmp_path / "bad.py").write_text("total_ns = a_ns + b_nj\n")
        assert lint_main([str(tmp_path), "--select", "SV002"]) == 0

    def test_unknown_rule_id_is_usage_error(self, tmp_path):
        assert lint_main([str(tmp_path), "--select", "SV999"]) == 2

    def test_list_rules_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_module_entry_point(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=repo,
            env=env,
        )
        assert proc.returncode == 0
        assert "SV001" in proc.stdout


# --------------------------------------------------------------------------
# Unit inference internals
# --------------------------------------------------------------------------


class TestInferUnit:
    def parse_expr(self, code):
        import ast

        return ast.parse(code, mode="eval").body

    def test_name_and_attribute(self):
        assert infer_unit(self.parse_expr("serial_time_ns")) == "ns"
        assert infer_unit(self.parse_expr("self.stats.energy_nj")) == "nj"

    def test_call_carries_function_suffix(self):
        node = self.parse_expr("energy.activation_energy_nj(timing)")
        assert infer_unit(node) == "nj"

    def test_subscript_and_unary(self):
        assert infer_unit(self.parse_expr("latencies_ns[0]")) == "ns"
        assert infer_unit(self.parse_expr("-delay_ns")) == "ns"

    def test_literal_factor_erases(self):
        assert infer_unit(self.parse_expr("total_ns / 1e9")) is None
        assert infer_unit(self.parse_expr("total_ns * 2.5")) is None

    def test_count_scaling_keeps(self):
        assert infer_unit(self.parse_expr("count * hop_ns")) == "ns"
        assert infer_unit(self.parse_expr("total_ns / accesses")) == "ns"

    def test_united_pair_erases(self):
        assert infer_unit(self.parse_expr("a_ns / b_ns")) is None
        assert infer_unit(self.parse_expr("power_w * time_s")) is None


# --------------------------------------------------------------------------
# SV007 — blocking calls inside async def
# --------------------------------------------------------------------------


class TestAsyncBlockingCallRule:
    def test_time_sleep_in_async_def_detected(self):
        code = """
        async def worker():
            time.sleep(0.1)
        """
        findings = run_rule("SV007", code)
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_open_in_async_def_detected(self):
        code = """
        async def dump(path):
            with open(path) as fh:
                return fh.read()
        """
        findings = run_rule("SV007", code)
        assert len(findings) == 1
        assert "open" in findings[0].message

    def test_submit_result_chain_detected(self):
        code = """
        async def offload(pool, work):
            return pool.submit(work).result()
        """
        findings = run_rule("SV007", code)
        assert len(findings) == 1
        assert "run_in_executor" in findings[0].message

    def test_backend_query_on_loop_detected(self):
        code = """
        async def dispatch(self, batch):
            return self.backend.query(batch)
        """
        findings = run_rule("SV007", code)
        assert len(findings) == 1
        assert "executor seam" in findings[0].message

    def test_sync_def_is_out_of_scope(self):
        code = """
        def warmup():
            time.sleep(0.1)
            return open("x").read()
        """
        assert run_rule("SV007", code) == []

    def test_nested_sync_def_resets_context(self):
        code = """
        async def outer():
            def blocking_helper():
                time.sleep(0.1)
            return blocking_helper
        """
        assert run_rule("SV007", code) == []

    def test_asyncio_sleep_is_clean(self):
        code = """
        async def pause():
            await asyncio.sleep(0.1)
        """
        assert run_rule("SV007", code) == []

    def test_awaiting_module_async_method_is_clean(self):
        # `query` here is an async def in the same module, so calling
        # (and awaiting) it is not a blocking backend call.
        code = """
        async def query(self, batch):
            return await self.pool.fetch(batch)

        async def caller(self, batch):
            return await self.query(batch)
        """
        assert run_rule("SV007", code) == []

    def test_config_extends_blocking_methods(self):
        config = LintConfig(
            rule_options={"SV007": {"blocking_methods": ["crunch"]}}
        )
        code = """
        async def work(self):
            return self.engine.crunch()
        """
        findings = run_rule("SV007", code, config=config)
        assert len(findings) == 1
        assert run_rule("SV007", code) == []


# --------------------------------------------------------------------------
# SV008 — un-awaited coroutines / fire-and-forget tasks
# --------------------------------------------------------------------------


class TestUnawaitedCoroutineRule:
    def test_fire_and_forget_create_task_detected(self):
        code = """
        async def start(self):
            asyncio.create_task(self.run())
        """
        findings = run_rule("SV008", code)
        assert len(findings) == 1
        assert "fire-and-forget" in findings[0].message

    def test_kept_task_handle_is_clean(self):
        code = """
        async def start(self):
            self.task = asyncio.create_task(self.run())
        """
        assert run_rule("SV008", code) == []

    def test_unawaited_module_coroutine_detected(self):
        code = """
        async def flush():
            pass

        def shutdown():
            flush()
        """
        findings = run_rule("SV008", code)
        assert len(findings) == 1
        assert "never awaited" in findings[0].message

    def test_awaited_coroutine_is_clean(self):
        code = """
        async def flush():
            pass

        async def shutdown():
            await flush()
        """
        assert run_rule("SV008", code) == []


# --------------------------------------------------------------------------
# SV009 — fork-unsafe shared state
# --------------------------------------------------------------------------


class TestForkUnsafeStateRule:
    def test_class_level_mutable_dict_detected(self):
        code = """
        class Registry:
            entries = {}
        """
        findings = run_rule("SV009", code)
        assert len(findings) == 1
        assert "Registry.entries" in findings[0].message

    def test_frozen_class_level_mapping_is_clean(self):
        code = """
        class Registry:
            entries = MappingProxyType({"a": 1})
            tags = frozenset({"x"})
            dims = tuple([1, 2])
        """
        assert run_rule("SV009", code) == []

    def test_fork_safe_annotation_is_clean(self):
        code = """
        class Registry:
            entries = {}  # fork-safe: populated once at import, then read-only
        """
        assert run_rule("SV009", code) == []

    def test_unfrozen_module_numpy_array_detected(self):
        code = """
        TABLE = np.zeros(256, dtype=np.uint8)
        """
        findings = run_rule("SV009", code)
        assert len(findings) == 1
        assert "setflags" in findings[0].message

    def test_frozen_module_numpy_array_is_clean(self):
        code = """
        TABLE = np.zeros(256, dtype=np.uint8)
        TABLE.setflags(write=False)
        """
        assert run_rule("SV009", code) == []

    def test_module_container_mutated_from_function_detected(self):
        code = """
        RESULTS = []

        def record(item):
            RESULTS.append(item)
        """
        findings = run_rule("SV009", code)
        assert len(findings) == 1
        assert "RESULTS" in findings[0].message

    def test_unmutated_module_container_is_clean(self):
        code = """
        DEFAULTS = {"k": 31}

        def lookup(name):
            return DEFAULTS.get(name)
        """
        assert run_rule("SV009", code) == []

    def test_local_shadow_is_clean(self):
        code = """
        ITEMS = []

        def build(ITEMS):
            ITEMS.append(1)

        def local():
            ITEMS = []
            ITEMS.append(2)
        """
        assert run_rule("SV009", code) == []


# --------------------------------------------------------------------------
# SV010 — unbounded awaits on queues/futures
# --------------------------------------------------------------------------

#: Config mirroring the repo's: SV010 applies to the service layer only.
SV010_CONFIG = LintConfig(
    rule_options={"SV010": {"paths": ["src/repro/service"]}}
)
SERVICE_PATH = "src/repro/service/fixture.py"


class TestUnboundedAwaitRule:
    def test_bare_queue_get_detected(self):
        code = """
        async def worker(queue):
            item = await queue.get()
        """
        findings = run_rule(
            "SV010", code, path=SERVICE_PATH, config=SV010_CONFIG
        )
        assert len(findings) == 1
        assert "wait_for" in findings[0].message

    def test_wait_for_wrapped_get_is_clean(self):
        code = """
        async def worker(queue):
            item = await asyncio.wait_for(queue.get(), timeout=1.0)
        """
        assert (
            run_rule("SV010", code, path=SERVICE_PATH, config=SV010_CONFIG)
            == []
        )

    def test_unbounded_join_inside_gather_detected(self):
        code = """
        async def drain(shards):
            await asyncio.gather(*(s.queue.join() for s in shards))
        """
        findings = run_rule(
            "SV010", code, path=SERVICE_PATH, config=SV010_CONFIG
        )
        assert len(findings) == 1
        assert "gather" in findings[0].message

    def test_bare_await_future_detected(self):
        code = """
        async def fetch(future):
            return await future
        """
        findings = run_rule(
            "SV010", code, path=SERVICE_PATH, config=SV010_CONFIG
        )
        assert len(findings) == 1
        assert "hangs forever" in findings[0].message

    def test_out_of_scope_path_is_skipped(self):
        code = """
        async def worker(queue):
            item = await queue.get()
        """
        assert (
            run_rule(
                "SV010",
                code,
                path="src/repro/bench/fixture.py",
                config=SV010_CONFIG,
            )
            == []
        )

    def test_unconfigured_rule_applies_everywhere(self):
        code = """
        async def worker(queue):
            item = await queue.get()
        """
        assert len(run_rule("SV010", code)) == 1


# --------------------------------------------------------------------------
# SV011 — set iteration order flowing into output
# --------------------------------------------------------------------------


class TestSetIterationOrderRule:
    def test_set_loop_with_append_sink_detected(self):
        code = """
        def render(taxa):
            seen = {t for t in taxa}
            lines = []
            for t in seen:
                lines.append(str(t))
            return lines
        """
        findings = run_rule("SV011", code)
        assert len(findings) == 1
        assert "ordered" in findings[0].message

    def test_set_loop_without_sink_is_clean(self):
        code = """
        def total(taxa):
            seen = set(taxa)
            acc = 0
            for t in seen:
                acc += t
            return acc
        """
        assert run_rule("SV011", code) == []

    def test_list_comprehension_over_set_detected(self):
        code = """
        def order(ids):
            pending = {i for i in ids}
            return [i for i in pending]
        """
        findings = run_rule("SV011", code)
        assert len(findings) == 1

    def test_order_insensitive_generator_is_clean(self):
        code = """
        def total(ids):
            pending = set(ids)
            return sum(i for i in pending)
        """
        assert run_rule("SV011", code) == []

    def test_join_over_set_detected(self):
        code = """
        def label(tags):
            names = {t.name for t in tags}
            return ",".join(names)
        """
        findings = run_rule("SV011", code)
        assert len(findings) == 1
        assert "join" in findings[0].message

    def test_sorted_set_is_clean(self):
        code = """
        def label(tags):
            names = {t.name for t in tags}
            return ",".join(sorted(names))
        """
        assert run_rule("SV011", code) == []

    def test_set_operator_expression_detected(self):
        code = """
        def diff(a, b):
            out = []
            for x in a - b:
                out.append(x)
            return out
        """
        findings = run_rule("SV011", code, config=LintConfig.empty())
        # `a - b` only counts once one side is known set-typed.
        assert findings == []
        code_typed = """
        def diff(a, b):
            a = set(a)
            out = []
            for x in a - b:
                out.append(x)
            return out
        """
        assert len(run_rule("SV011", code_typed)) == 1

    def test_set_name_does_not_leak_across_functions(self):
        code = """
        def one():
            delays = {1, 2}
            return sum(delays)

        def two():
            delays = [3, 4]
            out = []
            for d in delays:
                out.append(d)
            return out
        """
        assert run_rule("SV011", code) == []


# --------------------------------------------------------------------------
# SV012 — wall-clock reads outside sanctioned seams
# --------------------------------------------------------------------------

SV012_CONFIG = LintConfig(
    rule_options={"SV012": {"allow": ["src/repro/bench"]}}
)


class TestWallClockRule:
    def test_time_time_detected(self):
        findings = run_rule("SV012", "stamp = time.time()\n")
        assert len(findings) == 1
        assert "time.time" in findings[0].message

    def test_perf_counter_detected(self):
        assert len(run_rule("SV012", "t0 = time.perf_counter()\n")) == 1

    def test_datetime_now_detected(self):
        assert len(run_rule("SV012", "now = datetime.now()\n")) == 1
        findings = run_rule("SV012", "now = datetime.datetime.now()\n")
        assert len(findings) == 1
        assert "datetime.datetime.now" in findings[0].message

    def test_allowed_path_is_skipped(self):
        code = "t0 = time.perf_counter()\n"
        assert (
            run_rule(
                "SV012",
                code,
                path="src/repro/bench/harness.py",
                config=SV012_CONFIG,
            )
            == []
        )
        assert (
            len(
                run_rule(
                    "SV012",
                    code,
                    path="src/repro/sieve/device.py",
                    config=SV012_CONFIG,
                )
            )
            == 1
        )

    def test_explicit_time_argument_is_clean(self):
        assert run_rule("SV012", "def f(now_s):\n    return now_s + 1\n") == []


# --------------------------------------------------------------------------
# Per-rule configuration loading
# --------------------------------------------------------------------------


class TestLintConfig:
    def test_path_matches_prefix_and_suffix(self):
        patterns = ["src/repro/bench", "src/repro/service/metrics.py"]
        assert path_matches("src/repro/bench/harness.py", patterns)
        assert path_matches("/root/repo/src/repro/bench/h.py", patterns)
        assert path_matches("src/repro/service/metrics.py", patterns)
        assert not path_matches("src/repro/service/server.py", patterns)

    def test_load_config_reads_sieve_lint_table(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.sieve-lint.SV012]\nallow = ["src/repro/bench"]\n'
        )
        nested = tmp_path / "pkg"
        nested.mkdir()
        config = load_config(nested)
        assert config.options("SV012")["allow"] == ["src/repro/bench"]
        assert config.options("SV010") == {}

    def test_missing_pyproject_degrades_to_empty(self, tmp_path):
        config = load_config(tmp_path)
        # tmp_path has no pyproject; any ancestor hit would still parse,
        # so just assert the SV-rule options interface stays total.
        assert config.options("SV012") is not None

    def test_suppression_with_justification_still_parses(self):
        code = (
            "stamp = time.time()"
            "  # lint: disable=SV012 (bench-only fixture)\n"
        )
        assert run_rule("SV012", code) == []


# --------------------------------------------------------------------------
# SARIF reporter
# --------------------------------------------------------------------------


class TestSarifReporter:
    def test_sarif_document_shape(self):
        findings = run_rule("SV012", "stamp = time.time()\n")
        log = json.loads(render_sarif(findings))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "sieve-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == [f"SV{n:03d}" for n in range(1, 13) if n != 6]
        result = run["results"][0]
        assert result["ruleId"] == "SV012"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "fixture.py"
        assert location["region"]["startLine"] == 1

    def test_empty_findings_yield_empty_results(self):
        log = json.loads(render_sarif([]))
        assert log["runs"][0]["results"] == []


# --------------------------------------------------------------------------
# Findings baseline (--write-baseline / --baseline)
# --------------------------------------------------------------------------


class TestBaseline:
    def test_round_trip_suppresses_known_findings(self, tmp_path):
        from repro.analysiskit import (
            load_baseline,
            new_findings,
            write_baseline,
        )

        findings = run_rule("SV012", "a = time.time()\nb = time.time()\n")
        assert len(findings) == 2
        baseline_path = tmp_path / "baseline.json"
        write_baseline(findings, str(baseline_path))
        baseline = load_baseline(str(baseline_path))
        assert new_findings(findings, baseline) == []

    def test_extra_instance_exceeds_budget(self, tmp_path):
        from repro.analysiskit import (
            load_baseline,
            new_findings,
            write_baseline,
        )

        old = run_rule("SV012", "a = time.time()\n")
        path = tmp_path / "baseline.json"
        write_baseline(old, str(path))
        baseline = load_baseline(str(path))
        new = run_rule(
            "SV012", "a = time.time()\nb = time.time()\n"
        )
        fresh = new_findings(new, baseline)
        assert len(fresh) == 1

    def test_unknown_version_rejected(self, tmp_path):
        import pytest

        from repro.analysiskit import load_baseline

        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "findings": []}')
        with pytest.raises(ValueError, match="version"):
            load_baseline(str(path))

    def test_cli_baseline_gate(self, tmp_path, capsys):
        target = tmp_path / "code"
        target.mkdir()
        (target / "old.py").write_text("def f(xs=[]):\n    return xs\n")
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(
                [str(target), "--write-baseline", str(baseline)]
            )
            == 0
        )
        # Baselined findings no longer fail the gate...
        assert lint_main([str(target), "--baseline", str(baseline)]) == 0
        assert "suppressed" in capsys.readouterr().out
        # ...but a new finding does.
        (target / "new.py").write_text("def g(ys=[]):\n    return ys\n")
        assert lint_main([str(target), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "new.py" in out and "old.py" not in out

    def test_cli_missing_baseline_is_usage_error(self, tmp_path):
        assert (
            lint_main(
                [str(tmp_path), "--baseline", str(tmp_path / "nope.json")]
            )
            == 2
        )


class TestCliFormatsAndOutput:
    def test_sarif_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
        assert lint_main([str(tmp_path), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"][0]["ruleId"] == "SV005"

    def test_output_writes_file(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
        report_path = tmp_path / "report.sarif"
        code = lint_main(
            [
                str(tmp_path / "bad.py"),
                "--format",
                "sarif",
                "--output",
                str(report_path),
            ]
        )
        assert code == 1
        assert "wrote sarif report" in capsys.readouterr().out
        log = json.loads(report_path.read_text())
        assert log["runs"][0]["results"]
