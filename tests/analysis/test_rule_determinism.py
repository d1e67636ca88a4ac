"""Determinism rule: wall-clock, global RNG, unordered-set iteration."""

import textwrap


def _src(body):
    return {"src/repro/sim/mod.py": textwrap.dedent(body)}


class TestWallClock:
    def test_time_time_flagged(self, finding_index):
        index = finding_index(_src("""
            import time

            def now():
                return time.time()
        """), only=["determinism"])
        assert index["no-wallclock"] == [("src/repro/sim/mod.py", 5)]

    def test_datetime_now_flagged(self, finding_index):
        index = finding_index(_src("""
            import datetime

            def stamp():
                return datetime.datetime.now()
        """), only=["determinism"])
        assert "no-wallclock" in index

    def test_from_import_smuggling_flagged(self, finding_index):
        index = finding_index(_src("""
            from time import monotonic

            def now():
                return monotonic()
        """), only=["determinism"])
        assert index["no-wallclock"] == [("src/repro/sim/mod.py", 5)]

    def test_outside_subsystems_allowed(self, finding_index):
        index = finding_index({"src/repro/bench/harness.py": textwrap.dedent("""
            import time

            def wall():
                return time.perf_counter()
        """)}, only=["determinism"])
        assert index == {}


class TestGlobalRandom:
    def test_module_level_random_flagged(self, finding_index):
        index = finding_index(_src("""
            import random

            def pick(xs):
                return random.choice(xs)
        """), only=["determinism"])
        assert index["no-global-random"] == [("src/repro/sim/mod.py", 5)]

    def test_private_random_instance_allowed(self, finding_index):
        index = finding_index(_src("""
            import random

            def make_rng(seed):
                return random.Random(seed)
        """), only=["determinism"])
        assert index == {}


class TestSetIteration:
    def test_set_literal_for_loop_flagged(self, finding_index):
        index = finding_index(_src("""
            def fanout():
                for t in {1, 2, 3}:
                    yield t
        """), only=["determinism"])
        assert index["no-set-iteration"] == [("src/repro/sim/mod.py", 3)]

    def test_set_local_flagged(self, finding_index):
        index = finding_index(_src("""
            def fanout(items):
                targets = set(items)
                return [t for t in targets]
        """), only=["determinism"])
        assert "no-set-iteration" in index

    def test_sorted_set_allowed(self, finding_index):
        index = finding_index(_src("""
            def fanout(items):
                targets = set(items)
                return [t for t in sorted(targets)]
        """), only=["determinism"])
        assert index == {}

    def test_rebound_local_not_flagged(self, finding_index):
        # A name that was a set but is rebound to a list is exempt.
        index = finding_index(_src("""
            def fanout(items):
                targets = set(items)
                targets = sorted(targets)
                for t in targets:
                    yield t
        """), only=["determinism"])
        assert index == {}
