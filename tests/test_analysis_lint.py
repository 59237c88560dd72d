"""Tier-2 determinism/concurrency linter tests."""

import textwrap

from repro.analysis import Severity, lint_paths, lint_source
from repro.analysis.lint import is_rng_module, is_seed_critical


def lint(code, path="src/repro/simulator/example.py"):
    return lint_source(textwrap.dedent(code), path)


def codes(report):
    return [d.code for d in report]


# -- RPR101: unseeded RNG ------------------------------------------------------


def test_unseeded_default_rng_flagged():
    report = lint(
        """
        import numpy as np

        def draw():
            rng = np.random.default_rng()
            return rng.random()
        """
    )
    assert codes(report) == ["RPR101"]
    assert report.diagnostics[0].line == 5


def test_explicit_none_seed_flagged():
    report = lint(
        """
        import numpy as np

        rng = np.random.default_rng(None)
        """
    )
    assert codes(report) == ["RPR101"]


def test_legacy_global_api_flagged():
    report = lint(
        """
        import numpy as np

        def noisy():
            np.random.seed(3)
            return np.random.rand(4)
        """
    )
    assert codes(report) == ["RPR101", "RPR101"]


def test_numpy_import_alias_tracked():
    report = lint(
        """
        import numpy

        x = numpy.random.normal(0, 1)
        """
    )
    assert codes(report) == ["RPR101"]


def test_from_import_default_rng_tracked():
    report = lint(
        """
        from numpy.random import default_rng

        rng = default_rng()
        """
    )
    assert codes(report) == ["RPR101"]


def test_generator_annotations_not_flagged():
    report = lint(
        """
        import numpy as np

        def use(rng: np.random.Generator) -> np.random.Generator:
            return rng
        """
    )
    assert len(report) == 0


# -- RPR102: seed not threaded through ensure_rng ------------------------------


def test_seeded_default_rng_outside_rng_module_flagged():
    report = lint(
        """
        import numpy as np

        def build(seed):
            return np.random.default_rng(seed)
        """
    )
    assert codes(report) == ["RPR102"]


def test_rng_module_exempt_from_threading_rule():
    report = lint(
        """
        import numpy as np

        def ensure(seed):
            return np.random.default_rng(seed)
        """,
        path="src/repro/utils/rng.py",
    )
    assert len(report) == 0


def test_ensure_rng_usage_clean():
    report = lint(
        """
        from repro.utils.rng import ensure_rng

        def build(seed):
            return ensure_rng(seed)
        """
    )
    assert len(report) == 0


# -- RPR103: set iteration in seed-critical modules ----------------------------


def test_set_iteration_flagged_in_seed_critical_module():
    report = lint(
        """
        def walk(items):
            for item in set(items):
                yield item
        """
    )
    assert codes(report) == ["RPR103"]


def test_set_literal_and_comprehension_iteration_flagged():
    report = lint(
        """
        def walk():
            total = 0
            for item in {1, 2, 3}:
                total += item
            return [x for x in {i for i in range(4)}]
        """
    )
    assert codes(report) == ["RPR103", "RPR103"]


def test_local_set_variable_iteration_flagged():
    report = lint(
        """
        def walk(items):
            seen = set(items)
            for item in seen:
                yield item
        """
    )
    assert codes(report) == ["RPR103"]


def test_sorted_set_iteration_clean():
    report = lint(
        """
        def walk(items):
            seen = set(items)
            for item in sorted(seen):
                yield item
        """
    )
    assert len(report) == 0


def test_set_iteration_ignored_outside_seed_critical_modules():
    report = lint(
        """
        def walk(items):
            for item in set(items):
                yield item
        """,
        path="src/repro/chemistry/example.py",
    )
    assert len(report) == 0


def test_membership_tests_not_flagged():
    report = lint(
        """
        def check(items, probe):
            seen = set(items)
            return probe in seen
        """
    )
    assert len(report) == 0


# -- RPR104: module-level caches mutated without a lock ------------------------


def test_unlocked_cache_mutation_flagged():
    report = lint(
        """
        _PLAN_CACHE = {}

        def remember(key, value):
            _PLAN_CACHE[key] = value
        """,
        path="src/repro/fleet/example.py",
    )
    assert codes(report) == ["RPR104"]


def test_cache_mutation_under_lock_clean():
    report = lint(
        """
        import threading

        _PLAN_CACHE = {}
        _LOCK = threading.Lock()

        def remember(key, value):
            with _LOCK:
                _PLAN_CACHE[key] = value
        """,
        path="src/repro/fleet/example.py",
    )
    assert len(report) == 0


def test_cache_method_mutation_flagged():
    report = lint(
        """
        _result_cache = []

        def remember(value):
            _result_cache.append(value)
        """,
        path="src/repro/fleet/example.py",
    )
    assert codes(report) == ["RPR104"]


def test_module_level_cache_init_clean():
    report = lint(
        """
        _cache = {}
        _cache["seed"] = 1
        """,
        path="src/repro/fleet/example.py",
    )
    assert len(report) == 0


def test_non_cache_named_dict_not_flagged():
    report = lint(
        """
        settings = {}

        def set_option(key, value):
            settings[key] = value
        """,
        path="src/repro/fleet/example.py",
    )
    assert len(report) == 0


# -- RPR105: result dumps bypassing the experiment store -----------------------


def test_direct_save_json_result_dump_flagged():
    report = lint(
        """
        from repro.utils import save_json

        def persist(result):
            save_json("out.json", result.to_dict())
        """,
        path="src/repro/experiments/example.py",
    )
    assert codes(report) == ["RPR105"]


def test_attribute_save_json_flagged():
    report = lint(
        """
        import repro.utils.serialization as ser

        def persist(result):
            ser.save_json("out.json", result.to_dict())
        """,
        path="src/repro/experiments/example.py",
    )
    assert codes(report) == ["RPR105"]


def test_store_package_exempt_from_result_dump_rule():
    code = """
        from repro.utils import save_json

        def persist(result):
            save_json("out.json", result.to_dict())
        """
    assert len(lint(code, path="src/repro/store/export.py")) == 0
    assert len(lint(code, path="src/repro/utils/serialization.py")) == 0
    # fleet/store.py is a *file* named store, not the store package: it
    # must delegate payloads, so the rule still applies there.
    assert codes(lint(code, path="src/repro/fleet/store.py")) == ["RPR105"]


def test_result_dump_suppression():
    report = lint(
        """
        from repro.utils import save_json

        def persist(result):
            save_json("out.json", result.to_dict())  # repro: allow-direct-result-dump
        """,
        path="src/repro/experiments/example.py",
    )
    assert len(report) == 0
    assert report.suppressed == 1


# -- suppression comments ------------------------------------------------------


def test_same_line_suppression():
    report = lint(
        """
        import numpy as np

        rng = np.random.default_rng()  # repro: allow-unseeded-rng
        """
    )
    assert len(report) == 0
    assert report.suppressed == 1


def test_line_above_suppression():
    report = lint(
        """
        import numpy as np

        # repro: allow-unseeded-rng
        rng = np.random.default_rng()
        """
    )
    assert len(report) == 0
    assert report.suppressed == 1


def test_suppression_is_rule_specific():
    report = lint(
        """
        import numpy as np

        rng = np.random.default_rng()  # repro: allow-set-iteration
        """
    )
    assert codes(report) == ["RPR101"]
    assert report.suppressed == 0


# -- RPR106: direct timing -----------------------------------------------------


def test_direct_time_calls_flagged():
    report = lint(
        """
        import time

        started = time.time()

        def wait():
            return time.monotonic() - time.perf_counter()
        """,
        path="src/repro/runtime/example.py",
    )
    assert codes(report) == ["RPR106", "RPR106", "RPR106"]
    assert "repro.obs" in report.diagnostics[0].hint


def test_from_import_timing_flagged_but_sleep_ignored():
    report = lint(
        """
        from time import perf_counter as pc, sleep

        def wait():
            sleep(0.1)
            return pc()
        """,
        path="src/repro/fleet/example.py",
    )
    assert codes(report) == ["RPR106"]


def test_time_ns_variants_flagged():
    report = lint(
        """
        import time as t

        stamp = t.perf_counter_ns()
        """,
        path="src/repro/runtime/example.py",
    )
    assert codes(report) == ["RPR106"]


def test_obs_package_is_exempt_from_timing_rule():
    code = """
    import time

    def perf_counter():
        return time.perf_counter()
    """
    assert codes(lint(code, path="src/repro/obs/clock.py")) == []
    assert codes(lint(code, path="src/repro/runtime/x.py")) == ["RPR106"]


def test_timing_suppression_comment():
    report = lint(
        """
        import time

        stamp = time.time()  # repro: allow-direct-timing
        """,
        path="src/repro/runtime/example.py",
    )
    assert codes(report) == []
    assert report.suppressed == 1


def test_unrelated_time_attributes_not_flagged():
    report = lint(
        """
        import time

        stamp = time.strftime("%Y")
        time.sleep(0.5)
        """,
        path="src/repro/runtime/example.py",
    )
    assert codes(report) == []


# -- RPR107: swallowed exceptions ----------------------------------------------


def test_broad_except_pass_flagged():
    report = lint(
        """
        def load():
            try:
                return open("x").read()
            except Exception:
                pass
        """
    )
    assert codes(report) == ["RPR107"]


def test_bare_except_flagged():
    report = lint(
        """
        def load():
            try:
                return 1
            except:
                return None
        """
    )
    assert codes(report) == ["RPR107"]


def test_broad_tuple_except_flagged():
    report = lint(
        """
        def load():
            try:
                return 1
            except (ValueError, Exception):
                return None
        """
    )
    assert codes(report) == ["RPR107"]


def test_narrow_except_not_flagged():
    report = lint(
        """
        def load():
            try:
                return 1
            except (ValueError, KeyError):
                return None
        """
    )
    assert codes(report) == []


def test_reraise_not_flagged():
    report = lint(
        """
        def load():
            try:
                return 1
            except Exception as exc:
                raise RuntimeError("wrapped") from exc
        """
    )
    assert codes(report) == []


def test_failure_sink_call_not_flagged():
    report = lint(
        """
        def run(store, job, tick):
            try:
                return job()
            except Exception as exc:
                store.mark_failed(job.run_id, str(exc), tick)
        """
    )
    assert codes(report) == []


def test_record_retry_sink_not_flagged():
    report = lint(
        """
        def run(store, job, tick):
            try:
                return job()
            except Exception as exc:
                store.record_retry(job.run_id, str(exc), tick)
        """
    )
    assert codes(report) == []


def test_swallow_suppression_with_reason():
    report = lint(
        """
        def warm():
            try:
                compile_it()
            # repro: allow-swallow — warm-up is best effort
            except Exception:
                pass
        """
    )
    assert codes(report) == []
    assert report.suppressed == 1


# -- path classification and whole-tree runs -----------------------------------


def test_path_classification():
    from pathlib import Path

    assert is_seed_critical(Path("src/repro/simulator/batched.py"))
    assert is_seed_critical(Path("src/repro/fleet/workers.py"))
    assert not is_seed_critical(Path("src/repro/chemistry/h2.py"))
    assert is_rng_module(Path("src/repro/utils/rng.py"))
    assert not is_rng_module(Path("src/repro/utils/stats.py"))
    from repro.analysis.lint import is_obs_module

    assert is_obs_module(Path("src/repro/obs/trace.py"))
    assert not is_obs_module(Path("src/repro/runtime/execute.py"))


def test_parse_error_reported_not_raised():
    report = lint_source("def broken(:\n", "bad.py")
    assert codes(report) == ["RPR100"]
    assert not report.has_errors  # warning severity


def test_src_tree_lints_clean():
    """The acceptance gate: zero errors over src/, with exactly the
    sanctioned suppressions — one in utils/rng.py and the two deliberate
    swallows in fleet/service.py (best-effort plan-cache warm-up;
    mark_failed on an already-down store)."""
    report = lint_paths(["src"])
    errors = [d for d in report if d.severity >= Severity.ERROR]
    assert errors == [], "\n".join(d.render() for d in errors)
    assert report.suppressed == 3
