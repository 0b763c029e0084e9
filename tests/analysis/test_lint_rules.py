"""reprolint rules: one true-positive and one true-negative per rule.

Fixtures drive :func:`repro.analysis.check_source` directly with
synthetic paths — scoping is purely path-based, so a fixture placed at
``src/repro/sim/mod.py`` exercises exactly what the real tree would.
"""

from __future__ import annotations

import textwrap

from repro.analysis import check_source

#: Synthetic paths: inside a result-producing package module / outside
#: the package entirely.
SIM = "src/repro/sim/mod.py"
TESTS = "tests/sim/test_mod.py"


def lint(source: str, path: str = SIM):
    return check_source(textwrap.dedent(source), path)


def codes(source: str, path: str = SIM):
    return [finding.code for finding in lint(source, path)]


class TestRL001UnseededRandom:
    def test_global_draw_flagged(self):
        assert codes("import random\nx = random.random()\n") == ["RL001"]

    def test_global_seed_flagged(self):
        assert codes("import random\nrandom.seed(3)\n") == ["RL001"]

    def test_unseeded_random_instance_flagged(self):
        assert codes("import random\nr = random.Random()\n") == ["RL001"]

    def test_unseeded_imported_random_flagged(self):
        source = "from random import Random\nr = Random()\n"
        assert codes(source) == ["RL001"]

    def test_seeded_random_clean(self):
        assert codes("import random\nr = random.Random(0)\n") == []

    def test_instance_draw_clean(self):
        source = "import random\nr = random.Random(7)\nx = r.random()\n"
        assert codes(source) == []

    def test_rng_module_exempt(self):
        source = "import random\nx = random.random()\n"
        assert codes(source, "src/repro/common/rng.py") == []


class TestRL002WallClock:
    SOURCE = "import time\n\ndef f():\n    return time.time()\n"

    def test_clock_in_result_module_flagged(self):
        assert codes(self.SOURCE) == ["RL002"]

    def test_monotonic_flagged(self):
        source = "import time\nx = time.monotonic()\n"
        assert codes(source, "src/repro/trace/mod.py") == ["RL002"]

    def test_datetime_now_flagged(self):
        source = ("from datetime import datetime\n"
                  "stamp = datetime.now()\n")
        assert codes(source, "src/repro/scenarios/mod.py") == ["RL002"]

    def test_outside_result_modules_clean(self):
        assert codes(self.SOURCE, TESTS) == []
        assert codes(self.SOURCE, "src/repro/experiments/mod.py") == []

    def test_store_scratch_sweep_allowlisted(self):
        source = ("import time\n\n"
                  "class TraceStore:\n"
                  "    def _sweep_scratch(self):\n"
                  "        return time.time() - 3600.0\n")
        assert codes(source, "src/repro/trace/store.py") == []
        # The same function anywhere else is not allowlisted.
        assert codes(source, "src/repro/trace/other.py") == ["RL002"]


class TestRL003UnorderedIteration:
    def test_for_over_set_flagged(self):
        assert codes("for x in {1, 2, 3}:\n    print(x)\n") == ["RL003"]

    def test_for_over_set_call_flagged(self):
        source = "def f(items):\n    for x in set(items):\n        x\n"
        assert codes(source, TESTS) == ["RL003"]

    def test_set_valued_name_flagged(self):
        source = ("def f(items):\n"
                  "    seen = set(items)\n"
                  "    return [x + 1 for x in seen]\n")
        assert codes(source) == ["RL003"]

    def test_list_conversion_flagged(self):
        assert codes("rows = list({1, 2})\n") == ["RL003"]

    def test_join_flagged(self):
        source = "def f(names):\n    return ','.join(set(names))\n"
        assert codes(source) == ["RL003"]

    def test_sorted_clean(self):
        source = ("def f(items):\n"
                  "    seen = set(items)\n"
                  "    return [x for x in sorted(seen)]\n")
        assert codes(source) == []

    def test_order_insensitive_aggregation_clean(self):
        source = ("def f(hashes, current):\n"
                  "    done = {h for h in hashes}\n"
                  "    return sum(1 for d in done if d in current)\n")
        assert codes(source) == []

    def test_membership_clean(self):
        source = ("def f(items, x):\n"
                  "    seen = set(items)\n"
                  "    return x in seen\n")
        assert codes(source) == []

    def test_bare_keys_flagged_in_result_module(self):
        source = "def f(d):\n    return [k for k in d.keys()]\n"
        assert codes(source) == ["RL003"]

    def test_bare_keys_outside_package_clean(self):
        source = "def f(d):\n    return [k for k in d.keys()]\n"
        assert codes(source, TESTS) == []

    def test_plain_dict_iteration_clean(self):
        source = "def f(d):\n    return [k for k in d]\n"
        assert codes(source) == []


class TestRL004EnvRead:
    def test_environ_get_flagged(self):
        source = "import os\nvalue = os.environ.get('REPRO_X')\n"
        assert codes(source, "src/repro/experiments/mod.py") == ["RL004"]

    def test_getenv_flagged(self):
        source = "import os\nvalue = os.getenv('REPRO_X')\n"
        assert codes(source) == ["RL004"]

    def test_sanctioned_modules_exempt(self):
        """Only the trace store resolves its root from the environment;
        the serializer and the config dataclasses read none."""
        source = "import os\nvalue = os.environ.get('REPRO_X')\n"
        assert codes(source, "src/repro/trace/store.py") == []
        assert codes(source, "src/repro/trace/serialize.py") == ["RL004"]
        assert codes(source, "src/repro/common/config.py") == ["RL004"]

    def test_outside_package_clean(self):
        source = "import os\nvalue = os.environ.get('REPRO_X')\n"
        assert codes(source, TESTS) == []
        assert codes(source, "benchmarks/bench_mod.py") == []


class TestRL005MutableDefault:
    def test_list_default_flagged(self):
        assert codes("def f(x=[]):\n    return x\n", TESTS) == ["RL005"]

    def test_dict_call_default_flagged(self):
        assert codes("def f(x=dict()):\n    return x\n") == ["RL005"]

    def test_keyword_only_default_flagged(self):
        assert codes("def f(*, x=set()):\n    return x\n") == ["RL005"]

    def test_none_default_clean(self):
        assert codes("def f(x=None, y=(), z=1):\n    return x\n") == []


HOT_LOOP = """\
# reprolint: hot
def walk(items):
    total = 0
    for item in items:
        pair = [item, item + 1]
        total += pair[0]
    return total
"""


class TestRL006HotLoopAllocation:
    def test_allocation_in_hot_loop_flagged(self):
        assert codes(HOT_LOOP, TESTS) == ["RL006"]

    def test_unmarked_function_clean(self):
        unmarked = HOT_LOOP.replace("# reprolint: hot\n", "")
        assert codes(unmarked, TESTS) == []

    def test_comprehension_in_hot_loop_flagged(self):
        source = ("# reprolint: hot\n"
                  "def walk(groups):\n"
                  "    out = []\n"
                  "    for group in groups:\n"
                  "        out.extend([g + 1 for g in group])\n"
                  "    return out\n")
        assert codes(source, TESTS) == ["RL006"]

    def test_allocation_outside_loop_clean(self):
        source = ("# reprolint: hot\n"
                  "def walk(items):\n"
                  "    scratch = []\n"
                  "    for item in items:\n"
                  "        scratch.append(item)\n"
                  "    return scratch\n")
        assert codes(source, TESTS) == []

    def test_loop_header_allocation_clean(self):
        # The iterable is evaluated once per loop entry, not per
        # iteration.
        source = ("# reprolint: hot\n"
                  "def walk(items):\n"
                  "    total = 0\n"
                  "    for item in list(items):\n"
                  "        total += item\n"
                  "    return total\n")
        assert codes(source, TESTS) == []

    def test_inline_marker_attaches(self):
        source = ("def walk(items):  # reprolint: hot\n"
                  "    for item in items:\n"
                  "        x = {item: 1}\n")
        assert codes(source, TESTS) == ["RL006"]


class TestRL007SwallowedContractError:
    def test_swallowed_flagged(self):
        source = ("def f(path):\n"
                  "    try:\n"
                  "        return load(path)\n"
                  "    except TraceFormatError:\n"
                  "        return None\n")
        assert codes(source, TESTS) == ["RL007"]

    def test_tuple_catch_flagged(self):
        source = ("def f(path):\n"
                  "    try:\n"
                  "        return load(path)\n"
                  "    except (ValueError, SpecError):\n"
                  "        pass\n")
        assert codes(source, TESTS) == ["RL007"]

    def test_reraise_clean(self):
        source = ("def f(path):\n"
                  "    try:\n"
                  "        return load(path)\n"
                  "    except SpecError as error:\n"
                  "        raise RuntimeError('bad spec') from error\n")
        assert codes(source, TESTS) == []

    def test_self_heal_clean(self):
        source = ("def f(path):\n"
                  "    try:\n"
                  "        return load(path)\n"
                  "    except TraceFormatError:\n"
                  "        path.unlink(missing_ok=True)\n"
                  "        return None\n")
        assert codes(source, TESTS) == []

    def test_other_exceptions_clean(self):
        source = ("def f(path):\n"
                  "    try:\n"
                  "        return load(path)\n"
                  "    except FileNotFoundError:\n"
                  "        return None\n")
        assert codes(source, TESTS) == []


class TestRL008FloatCounter:
    def test_float_increment_on_counter_flagged(self):
        source = ("class Stats:\n"
                  "    def record(self):\n"
                  "        self.misses += 1.0\n")
        assert codes(source) == ["RL008"]

    def test_scaled_float_flagged(self):
        source = "def f(prefetches_issued, w):\n"
        source += "    prefetches_issued += w * 2.0\n"
        assert codes(source) == ["RL008"]

    def test_int_increment_clean(self):
        source = ("class Stats:\n"
                  "    def record(self):\n"
                  "        self.misses += 1\n")
        assert codes(source) == []

    def test_non_counter_float_clean(self):
        # timing.py's issue_at is elapsed cycles, not an event count.
        source = "def f(issue_at):\n    issue_at += 1.0\n"
        assert codes(source) == []

    def test_outside_stats_modules_clean(self):
        source = ("class Stats:\n"
                  "    def record(self):\n"
                  "        self.misses += 1.0\n")
        assert codes(source, "src/repro/experiments/mod.py") == []


class TestRL009BroadExceptRetryPath:
    SERVICE = "src/repro/service/mod.py"
    SOURCE = ("def f():\n"
              "    try:\n"
              "        work()\n"
              "    except Exception:\n"
              "        pass\n")

    def test_broad_except_in_retry_path_flagged(self):
        assert codes(self.SOURCE, self.SERVICE) == ["RL009"]

    def test_bare_except_flagged(self):
        source = ("def f():\n"
                  "    try:\n"
                  "        work()\n"
                  "    except:\n"
                  "        pass\n")
        assert codes(source, "src/repro/faults/mod.py") == ["RL009"]

    def test_base_exception_in_tuple_flagged(self):
        source = ("def f():\n"
                  "    try:\n"
                  "        work()\n"
                  "    except (ValueError, BaseException):\n"
                  "        pass\n")
        assert codes(source, "src/repro/scenarios/runner.py") == ["RL009"]

    def test_reraise_clean(self):
        source = ("def f(strict):\n"
                  "    try:\n"
                  "        work()\n"
                  "    except Exception:\n"
                  "        if strict:\n"
                  "            raise\n"
                  "        log()\n")
        assert codes(source, self.SERVICE) == []

    def test_narrow_except_clean(self):
        source = ("def f():\n"
                  "    try:\n"
                  "        work()\n"
                  "    except OSError:\n"
                  "        pass\n")
        assert codes(source, self.SERVICE) == []

    def test_outside_failure_model_paths_clean(self):
        # Broad excepts elsewhere (e.g. the sim package) are RL009-free.
        assert codes(self.SOURCE) == []
        assert codes(self.SOURCE, TESTS) == []

    def test_suppression_with_rationale_applies(self):
        source = ("def f():\n"
                  "    try:\n"
                  "        work()\n"
                  "    except Exception:  "
                  "# reprolint: disable=RL009 - last-resort boundary\n"
                  "        pass\n")
        assert codes(source, self.SERVICE) == []


class TestDirectivesAndMeta:
    def test_inline_suppression_applies(self):
        source = ("import random\n"
                  "x = random.random()  "
                  "# reprolint: disable=RL001 - fixture\n")
        assert codes(source) == []

    def test_standalone_suppression_covers_next_line(self):
        source = ("import random\n"
                  "# reprolint: disable=RL001 - fixture\n"
                  "x = random.random()\n")
        assert codes(source) == []

    def test_suppression_is_code_specific(self):
        source = ("import random\n"
                  "# reprolint: disable=RL002 - wrong code\n"
                  "x = random.random()\n")
        found = codes(source)
        assert "RL001" in found      # not suppressed
        assert "RL000" in found      # RL002 suppression never fires

    def test_unused_suppression_reported(self):
        source = "x = 1  # reprolint: disable=RL005 - stale\n"
        assert codes(source, TESTS) == ["RL000"]

    def test_unknown_code_reported(self):
        source = "x = 1  # reprolint: disable=RL999 - no such rule\n"
        assert codes(source, TESTS) == ["RL000"]

    def test_unattached_hot_marker_reported(self):
        source = "# reprolint: hot\nx = 1\n"
        assert codes(source, TESTS) == ["RL000"]

    def test_malformed_directive_reported(self):
        source = "x = 1  # reprolint: disalbe=RL001\n"
        assert codes(source, TESTS) == ["RL000"]

    def test_directive_in_string_ignored(self):
        source = 'text = "# reprolint: disalbe=RL001"\n'
        assert codes(source, TESTS) == []

    def test_parse_error_reported(self):
        assert codes("def broken(:\n", TESTS) == ["RL900"]
