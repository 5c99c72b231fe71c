"""The whole-program analysis layer: symbol tables, the call graph, and
the interprocedural rules RPR008–RPR011.

Fixture packages under ``tests/fixtures/lint/cases``:

* ``racepkg``   — fork entry + a parent-side global write (RPR008)
* ``contractpkg`` — decoders with/without typed-error contracts (RPR009)
* ``core/rpr010_*`` — leaked vs settled resources (RPR010)
* ``rpr011_*``  — helper-laundered wall clock into a sink (RPR011)

Plus a live spawn-vs-fork divergence reproduction for the exact hazard
RPR008 exists to catch.
"""

import ast
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import multiprocessing
import pytest

from repro.quality import Analyzer, LintConfig, LintContext, LintError, default_config
from repro.quality.symbols import nondet_source, summarize_module

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint" / "cases"


def fixture_config(**overrides) -> LintConfig:
    options = dict(
        src_root=FIXTURES,
        package="",
        fork_entry="forkpkg.pool:_run_chunk",
    )
    options.update(overrides)
    return LintConfig(**options)


def run_rule(rule_id, *relative_paths, **config_overrides):
    config = fixture_config(select=(rule_id,), **config_overrides)
    paths = [FIXTURES / rel for rel in relative_paths]
    return Analyzer(config).analyze(paths)


def summarize(source, module="m"):
    return summarize_module(module, ast.parse(textwrap.dedent(source)))


# ----------------------------------------------------------------------
# symbol extraction


class TestModuleSummaries:
    def test_qualnames_cover_methods_and_nested(self):
        summary = summarize(
            """
            def top():
                def inner():
                    return 1
                return inner()

            class Box:
                def get(self):
                    return 1
            """
        )
        assert {"top", "top.inner", "Box.get"} <= set(summary.functions)

    def test_call_guards_track_try_blocks(self):
        summary = summarize(
            """
            def f():
                try:
                    g()
                except ValueError:
                    pass
                h()
            """
        )
        guards = {c.name: c.guards for c in summary.functions["f"].calls}
        assert guards["g"] == ("ValueError",)
        assert guards["h"] == ()

    def test_bare_reraise_binds_handler_types(self):
        summary = summarize(
            """
            def f():
                try:
                    g()
                except KeyError:
                    raise
            """
        )
        raises = summary.functions["f"].raises
        assert any(site.reraise_of == ("KeyError",) for site in raises)

    def test_global_reads_and_writes(self):
        summary = summarize(
            """
            LIMIT = 1

            def writer(value):
                global LIMIT
                LIMIT = value

            def reader():
                return LIMIT
            """
        )
        writes = summary.functions["writer"].global_writes
        reads = summary.functions["reader"].global_reads
        assert [w.name for w in writes] == ["LIMIT"]
        assert [r.name for r in reads] == ["LIMIT"]

    def test_local_shadow_is_not_a_global_access(self):
        summary = summarize(
            """
            LIMIT = 1

            def local_only():
                LIMIT = 5
                return LIMIT
            """
        )
        info = summary.functions["local_only"]
        assert info.global_writes == []
        assert info.global_reads == []

    def test_nested_local_does_not_hide_outer_global_read(self):
        summary = summarize(
            """
            LIMIT = 1

            def outer():
                def inner():
                    LIMIT = 2
                    return LIMIT
                return LIMIT
            """
        )
        assert [r.name for r in summary.functions["outer"].global_reads] == ["LIMIT"]
        assert summary.functions["outer.inner"].global_reads == []

    def test_functions_in_with_for_while_bodies_are_summarized(self):
        summary = summarize(
            """
            with lock:
                def in_with():
                    pass

            def setup(items):
                for item in items:
                    def in_for():
                        pass
                while items:
                    def in_while():
                        pass
            """
        )
        assert {"in_with", "setup.in_for", "setup.in_while"} <= set(summary.functions)

    def test_nondet_source_sees_through_aliases(self):
        imports = {"t": "time", "perf": "time:perf_counter"}
        assert nondet_source("t.time", imports)
        assert nondet_source("perf", imports)
        assert nondet_source("t.strftime", imports) == ""

    def test_summary_roundtrips_through_dict(self):
        summary = summarize(
            """
            import time

            LIMIT = 3

            def stamp():
                return time.time()

            class E(ValueError):
                pass
            """
        )
        clone = type(summary).from_dict(summary.to_dict())
        assert clone.to_dict() == summary.to_dict()
        assert clone.functions["stamp"].nondet_return


class TestProjectFacts:
    @pytest.fixture(scope="class")
    def facts(self):
        return LintContext(fixture_config()).facts()

    def test_resolves_cross_module_call(self, facts):
        assert facts.resolve_call("contractpkg.bad", "unchecked_lookup") == (
            "contractpkg.helpers",
            "unchecked_lookup",
        )

    def test_resolves_module_attribute_call(self, facts):
        assert facts.resolve_call("racepkg.pool", "config.current_limit") == (
            "racepkg.config",
            "current_limit",
        )

    def test_exception_subclass_through_project_and_builtins(self, facts):
        bad_frame = ("contractpkg.errors", "BadFrame")
        assert facts.is_exception_subclass(
            bad_frame, ("contractpkg.errors", "DecodeError")
        )
        assert facts.is_exception_subclass(bad_frame, ("builtins", "ValueError"))
        assert not facts.is_exception_subclass(
            bad_frame, ("builtins", "RuntimeError")
        )

    def test_reachability_from_fork_entry(self, facts):
        entry = facts.entry_function("racepkg.pool:_run_chunk")
        reach = facts.reachable([entry])
        assert ("racepkg.config", "current_limit") in reach
        assert ("racepkg.config", "configure") not in reach

    def test_escape_sets_subtract_guards(self, facts):
        escaped = facts.escapes(("contractpkg.good", "parse_good"))
        names = {cid[1] for cid in escaped}
        # RuntimeError is caught-and-wrapped; only the family escapes.
        assert "RuntimeError" not in names
        assert {"BadFrame", "DecodeError"} <= names

    def test_escape_sets_propagate_interprocedurally(self, facts):
        escaped = facts.escapes(("contractpkg.bad", "parse_bad"))
        names = {cid[1] for cid in escaped}
        assert "RuntimeError" in names  # from helpers.unchecked_lookup
        assert "ValueError" in names  # raised directly

    def test_nondet_fixpoint_includes_helper_chain(self, facts):
        nondet = facts.nondet_functions()
        assert ("rpr011_helpers", "stamp") in nondet
        assert ("rpr011_helpers", "observation_time") in nondet
        assert ("rpr011_helpers", "fixed_epoch") not in nondet


# ----------------------------------------------------------------------
# RPR008 — cross-process races


class TestRpr008CrossProcessRace:
    def test_parent_side_write_flagged(self):
        findings = run_rule(
            "RPR008", "racepkg/config.py", fork_entry="racepkg.pool:_run_chunk"
        )
        assert [f.line for f in findings] == [13]
        message = findings[0].message
        assert "_LIMIT" in message and "configure" in message
        assert "current_limit" in message  # names the worker-side reader

    def test_worker_and_import_time_writes_pass(self):
        # warm_cache (worker-side) and _select_mode (import-time) write
        # globals too; only configure() is flagged — asserted above by
        # the exact line list.  The driver module itself is clean.
        findings = run_rule(
            "RPR008", "racepkg/pool.py", fork_entry="racepkg.pool:_run_chunk"
        )
        assert findings == []

    def test_module_function_call_is_not_a_write(self):
        # `_SEEN.append(day)` mutates a container; `np.append(days, day)`
        # calls a function of a module bound by `import` and writes nothing.
        findings = run_rule(
            "RPR008", "racepkg/history.py", fork_entry="racepkg.history:_run_chunk"
        )
        assert [f.line for f in findings] == [12]
        assert "_SEEN" in findings[0].message and "remember" in findings[0].message

    RACY_POOL = textwrap.dedent(
        """
        LIMIT = 10
        SEEN = {}


        def remember(key):
            SEEN[key] = True
            return key


        class Registry:
            first = remember("boot")

            def names(self):
                return sorted(SEEN)


        def driver():
            def set_limit():
                global LIMIT
                LIMIT = 5

            set_limit()


        def _run_chunk(task):
            return LIMIT + len(SEEN)
        """
    )

    def racy_findings(self, tmp_path):
        package = tmp_path / "racy"
        package.mkdir()
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "pool.py").write_text(self.RACY_POOL, encoding="utf-8")
        config = LintConfig(
            src_root=tmp_path,
            package="racy",
            fork_entry="racy.pool:_run_chunk",
            select=("RPR008",),
        )
        return Analyzer(config).analyze()

    def test_nested_write_is_blamed_once_on_the_nested_function(self, tmp_path):
        limit_line = self.RACY_POOL.splitlines().index("        LIMIT = 5") + 1
        findings = [f for f in self.racy_findings(tmp_path) if f.line == limit_line]
        assert len(findings) == 1
        assert "parent-side `driver.set_limit()`" in findings[0].message

    def test_class_body_call_runs_at_import_time(self, tmp_path):
        # remember() is called only by the class body, which runs while
        # the module imports: its write to SEEN is import-time state.
        findings = self.racy_findings(tmp_path)
        assert not [f for f in findings if "remember()" in f.message]

    def test_requires_justified_suppression(self):
        from repro.quality.rules.race import CrossProcessRaceRule

        assert CrossProcessRaceRule.requires_justification

    def test_spawn_fork_divergence_repro(self, tmp_path):
        """The hazard is real: the same program yields different worker
        reads under fork vs spawn once the parent mutates a module
        global after import."""
        methods = multiprocessing.get_all_start_methods()
        if not {"fork", "spawn"} <= set(methods):
            pytest.skip("needs both fork and spawn start methods")
        (tmp_path / "shared_config.py").write_text(
            "LIMIT = 1\n", encoding="utf-8"
        )
        script = tmp_path / "main.py"
        script.write_text(
            textwrap.dedent(
                """
                import multiprocessing

                import shared_config


                def read_limit(queue):
                    import shared_config
                    queue.put(shared_config.LIMIT)


                if __name__ == "__main__":
                    shared_config.LIMIT = 99  # parent-side write
                    for method in ("fork", "spawn"):
                        ctx = multiprocessing.get_context(method)
                        queue = ctx.Queue()
                        process = ctx.Process(target=read_limit, args=(queue,))
                        process.start()
                        print(method, queue.get())
                        process.join()
                """
            ),
            encoding="utf-8",
        )
        result = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        lines = dict(
            line.split() for line in result.stdout.strip().splitlines()
        )
        assert lines["fork"] == "99"  # fork workers inherit the mutation
        assert lines["spawn"] == "1"  # spawn workers keep import-time state


# ----------------------------------------------------------------------
# RPR009 — typed-error contracts


CONTRACTS = (
    ("contractpkg.good:parse_good", ("contractpkg.errors:DecodeError",)),
    ("contractpkg.bad:parse_bad", ("contractpkg.errors:DecodeError",)),
)


class TestRpr009ErrorContracts:
    def test_untyped_escapes_flagged_with_origin(self):
        findings = run_rule(
            "RPR009", "contractpkg/bad.py", error_contracts=CONTRACTS
        )
        assert len(findings) == 2
        assert all(f.line == 8 for f in findings)  # the def line
        messages = "\n".join(f.message for f in findings)
        assert "RuntimeError" in messages
        assert "contractpkg.helpers:14" in messages  # interprocedural origin
        assert "ValueError" in messages
        assert "contractpkg.bad:10" in messages

    def test_family_and_wrapped_raises_pass(self):
        findings = run_rule(
            "RPR009", "contractpkg/good.py", error_contracts=CONTRACTS
        )
        assert findings == []

    def test_contract_on_missing_function_is_config_error(self):
        with pytest.raises(LintError, match="no_such_function"):
            run_rule(
                "RPR009",
                "contractpkg/bad.py",
                error_contracts=(
                    (
                        "contractpkg.bad:no_such_function",
                        ("contractpkg.errors:DecodeError",),
                    ),
                ),
            )

    def test_contract_on_missing_module_is_inert(self):
        findings = run_rule(
            "RPR009",
            "contractpkg/bad.py",
            error_contracts=(
                ("not.a.module:anything", ("builtins:ValueError",)),
            ),
        )
        assert findings == []


# ----------------------------------------------------------------------
# RPR010 — resource leaks


class TestRpr010ResourceLeaks:
    def test_violations(self):
        findings = run_rule("RPR010", "core/rpr010_violation.py")
        by_line = {f.line: f.message for f in findings}
        assert sorted(by_line) == [5, 11, 19]
        assert "never closed on any path" in by_line[5]
        assert "exception edge" in by_line[11]
        assert "parent_conn" in by_line[11]
        assert "exception edge" in by_line[19]

    def test_clean_patterns(self):
        # with-management, finally, except-cleanup-and-reraise, hand-off,
        # immediate close, attribute storage — all settled.
        assert run_rule("RPR010", "core/rpr010_clean.py") == []

    def test_pool_spawn_worker_shape_is_clean(self):
        # The exact post-fix shape of SupervisedPool._spawn_worker.
        config = default_config()
        findings = Analyzer(
            LintConfig(src_root=config.src_root, select=("RPR010",))
        ).analyze([config.src_root / "repro" / "core" / "pool.py"])
        assert findings == []


# ----------------------------------------------------------------------
# RPR011 — interprocedural determinism taint


class TestRpr011InterproceduralTaint:
    def test_helper_chain_taint_flagged(self):
        findings = run_rule("RPR011", "rpr011_violation.py")
        lines = sorted(f.line for f in findings)
        assert lines == [9, 13]
        messages = "\n".join(f.message for f in findings)
        # The diagnosis names the laundering helper and the root source.
        assert "observation_time" in messages
        assert "time.time" in messages

    def test_clean_flows_pass(self):
        # Config-supplied timestamps, deterministic helpers, and tainted
        # values that never reach a sink are all fine.
        assert run_rule("RPR011", "rpr011_clean.py") == []


# ----------------------------------------------------------------------
# one read per file


class TestReadOnce:
    def test_each_file_is_parsed_once(self, monkeypatch):
        parsed = Counter()
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed[str(filename)] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        config = fixture_config(
            select=("RPR008", "RPR011"), fork_entry="racepkg.pool:_run_chunk"
        )
        Analyzer(config).analyze([FIXTURES])
        assert parsed == {str(path): 1 for path in FIXTURES.rglob("*.py")}


    def test_unparseable_module_is_a_finding_not_a_crash(self, tmp_path):
        (tmp_path / "pool.py").write_text("def _run_chunk(task):\n    return task\n")
        (tmp_path / "broken.py").write_text("def broken(:\n")
        config = LintConfig(
            src_root=tmp_path, package="", fork_entry="pool:_run_chunk"
        )
        findings = Analyzer(config).analyze()
        assert [(f.rule_id, Path(f.path).name) for f in findings] == [
            ("RPR000", "broken.py")
        ]


# ----------------------------------------------------------------------
# the repo's own tree


class TestSourceTreeInterprocClean:
    def test_interprocedural_rules_find_nothing_in_tree(self, src_lint):
        interprocedural = ("RPR008", "RPR009", "RPR010", "RPR011")
        findings = [f for f in src_lint.findings if f.rule_id in interprocedural]
        assert findings == []
