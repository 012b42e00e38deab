"""Self-tests for the reproasync asyncio/concurrency analyzer.

Mirrors the reproflow test layout: every C-rule gets known-bad
fixtures (must fire) and known-good fixtures (must stay silent), the
MacArbiter zero-draw proof gets a mutation test, plus pragma
suppression, ``select``, and the repo-wide self-check that
``src/repro`` analyzes clean with the determinism obligation proved.
The CLI contract shared by all four analyzers is written once in
``cli_contract.py``; ``TestCli`` binds it to reproasync.
"""

import pathlib
import textwrap

from tools.reproasync import analyze_paths, build_report
from tools.reproasync.taskgraph import build_async_graph
from tools.reproflow.project import ProjectIndex

from tests.tools import cli_contract

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def _write(tmp_path: pathlib.Path, source: str, name: str = "mod.py") -> pathlib.Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _codes(tmp_path: pathlib.Path, source: str, **kwargs) -> list[str]:
    _write(tmp_path, source)
    result = analyze_paths([str(tmp_path)], **kwargs)
    return [f.code for f in result.findings]


# ----------------------------------------------------------------------
# C001: blocking calls reachable inside async functions
# ----------------------------------------------------------------------
class TestC001:
    def test_direct_time_sleep_fires(self, tmp_path):
        src = """\
            import time

            async def f():
                time.sleep(1.0)
        """
        assert _codes(tmp_path, src) == ["C001"]

    def test_from_import_sleep_fires(self, tmp_path):
        src = """\
            from time import sleep

            async def f():
                sleep(1.0)
        """
        assert _codes(tmp_path, src) == ["C001"]

    def test_transitive_through_sync_helper_fires_with_path(self, tmp_path):
        src = """\
            import subprocess

            def helper():
                subprocess.run(["ls"])

            def middle():
                helper()

            async def f():
                middle()
        """
        _write(tmp_path, src)
        result = analyze_paths([str(tmp_path)])
        assert [f.code for f in result.findings] == ["C001"]
        assert "via mod.middle -> mod.helper" in result.findings[0].message

    def test_heavy_kernel_on_unresolved_receiver_fires(self, tmp_path):
        src = """\
            async def f(session):
                return session.pipeline.decode_many([1, 2])
        """
        assert _codes(tmp_path, src) == ["C001"]

    def test_to_thread_handoff_ok(self, tmp_path):
        src = """\
            import asyncio
            import time

            async def f():
                await asyncio.to_thread(time.sleep, 1.0)
        """
        assert _codes(tmp_path, src) == []

    def test_run_in_executor_handoff_ok(self, tmp_path):
        src = """\
            import asyncio
            import time

            async def f():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, time.sleep, 1.0)
        """
        assert _codes(tmp_path, src) == []

    def test_blocking_in_plain_sync_function_ok(self, tmp_path):
        src = """\
            import time

            def f():
                time.sleep(1.0)
        """
        assert _codes(tmp_path, src) == []

    def test_asyncio_sleep_ok(self, tmp_path):
        src = """\
            import asyncio

            async def f():
                await asyncio.sleep(1.0)
        """
        assert _codes(tmp_path, src) == []


# ----------------------------------------------------------------------
# C002: orphaned tasks / swallowed gather exceptions
# ----------------------------------------------------------------------
class TestC002:
    def test_dropped_create_task_fires(self, tmp_path):
        src = """\
            import asyncio

            async def w():
                pass

            async def f():
                asyncio.create_task(w())
        """
        assert _codes(tmp_path, src) == ["C002"]

    def test_underscore_assigned_ensure_future_fires(self, tmp_path):
        src = """\
            import asyncio

            async def w():
                pass

            async def f():
                _ = asyncio.ensure_future(w())
        """
        assert _codes(tmp_path, src) == ["C002"]

    def test_retained_reference_ok(self, tmp_path):
        src = """\
            import asyncio

            async def w():
                pass

            async def f():
                task = asyncio.create_task(w())
                await task
        """
        assert _codes(tmp_path, src) == []

    def test_taskgroup_spawn_ok(self, tmp_path):
        src = """\
            import asyncio

            async def w():
                pass

            async def f():
                async with asyncio.TaskGroup() as tg:
                    tg.create_task(w())
        """
        assert _codes(tmp_path, src) == []

    def test_discarded_swallowing_gather_fires(self, tmp_path):
        src = """\
            import asyncio

            async def f(tasks):
                await asyncio.gather(*tasks, return_exceptions=True)
        """
        assert _codes(tmp_path, src) == ["C002"]

    def test_inspected_gather_result_ok(self, tmp_path):
        src = """\
            import asyncio

            async def f(tasks):
                results = await asyncio.gather(*tasks, return_exceptions=True)
                return [r for r in results if isinstance(r, Exception)]
        """
        assert _codes(tmp_path, src) == []

    def test_propagating_gather_ok(self, tmp_path):
        src = """\
            import asyncio

            async def f(tasks):
                await asyncio.gather(*tasks)
        """
        assert _codes(tmp_path, src) == []


# ----------------------------------------------------------------------
# C003: cancellation-unsafe acquire/release spans
# ----------------------------------------------------------------------
class TestC003:
    def test_await_between_acquire_release_fires(self, tmp_path):
        src = """\
            import asyncio

            async def f(lk):
                lk.acquire()
                await asyncio.sleep(0)
                lk.release()
        """
        assert _codes(tmp_path, src) == ["C003"]

    def test_subscribe_unsubscribe_span_fires(self, tmp_path):
        src = """\
            import asyncio

            async def f(hub):
                sub = hub.subscribe("s")
                await asyncio.sleep(0)
                hub.unsubscribe("s")
        """
        assert _codes(tmp_path, src) == ["C003"]

    def test_try_finally_protected_ok(self, tmp_path):
        src = """\
            import asyncio

            async def f(lk):
                lk.acquire()
                try:
                    await asyncio.sleep(0)
                finally:
                    lk.release()
        """
        assert _codes(tmp_path, src) == []

    def test_no_await_in_span_ok(self, tmp_path):
        src = """\
            import asyncio

            async def f(lk):
                lk.acquire()
                lk.release()
                await asyncio.sleep(0)
        """
        assert _codes(tmp_path, src) == []

    def test_different_receivers_do_not_pair(self, tmp_path):
        src = """\
            import asyncio

            async def f(a, b):
                a.acquire()
                await asyncio.sleep(0)
                b.release()
                a.release()
        """
        # b.release() is the nearest release only if receivers are
        # ignored; chains "a" vs "b" must not pair, so a.release()
        # pairs with the await in between and the span still fires.
        assert _codes(tmp_path, src) == ["C003"]


# ----------------------------------------------------------------------
# C004: await-spanning races on shared state
# ----------------------------------------------------------------------
_RACE_PREAMBLE = textwrap.dedent(
    """\
    import asyncio

    class Counter:
        def __init__(self):
            self.total = 0

    counter = Counter()
    """
)


def _race_src(body: str) -> str:
    return _RACE_PREAMBLE + textwrap.dedent(body)


class TestC004:
    def test_read_await_write_from_two_tasks_fires(self, tmp_path):
        src = _race_src("""\

            async def worker():
                value = counter.total
                await asyncio.sleep(0)
                counter.total = value + 1

            async def main():
                await asyncio.gather(worker(), worker())
        """)
        assert _codes(tmp_path, src) == ["C004"]

    def test_single_task_instance_ok(self, tmp_path):
        src = _race_src("""\

            async def worker():
                value = counter.total
                await asyncio.sleep(0)
                counter.total = value + 1

            async def main():
                await asyncio.gather(worker())
        """)
        assert _codes(tmp_path, src) == []

    def test_lock_held_ok(self, tmp_path):
        src = _race_src("""\

            lock = asyncio.Lock()

            async def worker():
                async with lock:
                    value = counter.total
                    await asyncio.sleep(0)
                    counter.total = value + 1

            async def main():
                await asyncio.gather(worker(), worker())
        """)
        assert _codes(tmp_path, src) == []

    def test_no_await_between_read_and_write_ok(self, tmp_path):
        src = _race_src("""\

            async def worker():
                counter.total += 1
                await asyncio.sleep(0)

            async def main():
                await asyncio.gather(worker(), worker())
        """)
        assert _codes(tmp_path, src) == []

    def test_task_local_state_ok(self, tmp_path):
        src = _race_src("""\

            async def worker():
                own = Counter()
                value = own.total
                await asyncio.sleep(0)
                own.total = value + 1

            async def main():
                await asyncio.gather(worker(), worker())
        """)
        assert _codes(tmp_path, src) == []

    def test_spawn_in_loop_counts_as_two_instances(self, tmp_path):
        src = _race_src("""\

            async def worker():
                value = counter.total
                await asyncio.sleep(0)
                counter.total = value + 1

            async def main():
                tasks = [asyncio.create_task(worker()) for _ in range(8)]
                results = await asyncio.gather(*tasks)
                return results
        """)
        assert _codes(tmp_path, src) == ["C004"]


# ----------------------------------------------------------------------
# C005: determinism-replay violations
# ----------------------------------------------------------------------
class TestC005SharedRng:
    def test_shared_generator_drawn_from_two_tasks_fires(self, tmp_path):
        src = """\
            import asyncio
            import numpy as np

            class Sensor:
                def __init__(self):
                    self.rng = np.random.default_rng(0)

            sensor = Sensor()

            async def sample():
                return sensor.rng.normal()

            async def main():
                await asyncio.gather(sample(), sample())
        """
        assert _codes(tmp_path, src) == ["C005"]

    def test_single_instance_draw_ok(self, tmp_path):
        src = """\
            import asyncio
            import numpy as np

            class Sensor:
                def __init__(self):
                    self.rng = np.random.default_rng(0)

            sensor = Sensor()

            async def sample():
                return sensor.rng.normal()

            async def main():
                await asyncio.gather(sample())
        """
        assert _codes(tmp_path, src) == []

    def test_generator_drawn_across_executor_hop_fires(self, tmp_path):
        # A pool-worker entry point counts as a concurrent root on its
        # own: one run_in_executor dispatch of a worker that draws a
        # shared seeded generator already makes replay depend on pool
        # scheduling, no second asyncio task required.
        src = """\
            import asyncio
            import numpy as np

            class Sensor:
                def __init__(self):
                    self.rng = np.random.default_rng(0)

            sensor = Sensor()

            def worker(n):
                return sensor.rng.normal()

            async def main(pool):
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(pool, worker, 1)
        """
        assert _codes(tmp_path, src) == ["C005"]

    def test_rng_free_executor_worker_ok(self, tmp_path):
        # The gateway's decode hop: the shipped worker is RNG-free, so
        # the executor dispatch alone must not fire.
        src = """\
            import asyncio

            def worker(xs):
                return [x + 1 for x in xs]

            async def main(pool):
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(pool, worker, [1])
        """
        assert _codes(tmp_path, src) == []


_MAC_GUARDED = """\
    import numpy as np

    class MacArbiter:
        def __init__(self):
            self.rng = np.random.default_rng(0)

        def arbitrate(self, contenders):
            ids = tuple(contenders)
            if not ids:
                return None
            if len(ids) == 1:
                return ids[0]
            return ids[int(self.rng.integers(len(ids)))]
"""

_MAC_MUTATED = """\
    import numpy as np

    class MacArbiter:
        def __init__(self):
            self.rng = np.random.default_rng(0)

        def arbitrate(self, contenders):
            ids = tuple(contenders)
            if not ids:
                return None
            return ids[int(self.rng.integers(len(ids)))]
"""


class TestC005MacProof:
    def test_guarded_arbitrate_proves_clean(self, tmp_path):
        _write(tmp_path, _MAC_GUARDED)
        result = analyze_paths([str(tmp_path)])
        assert [f.code for f in result.findings] == []
        assert result.proofs == [
            {
                "obligation": "mac-zero-draw-when-uncontended",
                "symbol": "mod.MacArbiter.arbitrate",
                "status": "proved",
            }
        ]

    def test_dropped_single_contender_guard_caught(self, tmp_path):
        # The mutation: arbitrate still short-circuits 0 contenders but
        # draws for a single (uncontended) one -- exactly the regression
        # that would silently break bit-identical replay.
        _write(tmp_path, _MAC_MUTATED)
        result = analyze_paths([str(tmp_path)])
        assert [f.code for f in result.findings] == ["C005"]
        assert "zero-draw" in result.findings[0].message
        assert result.proofs[0]["status"] == "violated"

    def test_le_guard_accepted(self, tmp_path):
        src = """\
            import numpy as np

            class MacArbiter:
                def __init__(self):
                    self.rng = np.random.default_rng(0)

                def arbitrate(self, contenders):
                    ids = sorted(contenders)
                    if len(ids) <= 1:
                        return ids[0] if ids else None
                    return ids[int(self.rng.integers(len(ids)))]
        """
        _write(tmp_path, src)
        result = analyze_paths([str(tmp_path)])
        assert [f.code for f in result.findings] == []
        assert result.proofs[0]["status"] == "proved"


# ----------------------------------------------------------------------
# C006: unbounded queues in strict dirs
# ----------------------------------------------------------------------
class TestC006:
    def test_unbounded_queue_fires_in_strict_dir(self, tmp_path):
        src = """\
            import asyncio

            def make():
                return asyncio.Queue()
        """
        codes = _codes(tmp_path, src, strict_dirs=(str(tmp_path),))
        assert codes == ["C006"]

    def test_zero_maxsize_fires(self, tmp_path):
        src = """\
            import asyncio

            def make():
                return asyncio.Queue(maxsize=0)
        """
        codes = _codes(tmp_path, src, strict_dirs=(str(tmp_path),))
        assert codes == ["C006"]

    def test_bounded_queue_ok(self, tmp_path):
        src = """\
            import asyncio

            def make():
                return asyncio.Queue(maxsize=64)
        """
        assert _codes(tmp_path, src, strict_dirs=(str(tmp_path),)) == []

    def test_variable_maxsize_gets_benefit_of_doubt(self, tmp_path):
        src = """\
            import asyncio

            def make(n):
                return asyncio.Queue(maxsize=n)
        """
        assert _codes(tmp_path, src, strict_dirs=(str(tmp_path),)) == []

    def test_outside_strict_dirs_ok(self, tmp_path):
        src = """\
            import asyncio

            def make():
                return asyncio.Queue()
        """
        assert _codes(tmp_path, src, strict_dirs=("no/such/dir",)) == []


# ----------------------------------------------------------------------
# the async task graph
# ----------------------------------------------------------------------
class TestTaskGraph:
    def test_spawn_roots_and_multiplicity(self, tmp_path):
        src = """\
            import asyncio

            async def once():
                pass

            async def fanned():
                pass

            async def main():
                t = asyncio.create_task(once())
                many = [asyncio.create_task(fanned()) for _ in range(4)]
                await asyncio.gather(t, *many)
        """
        _write(tmp_path, src)
        index = ProjectIndex.build([str(tmp_path)])
        graph = build_async_graph(index)
        assert graph.task_roots["mod.once"] == 1
        assert graph.task_roots["mod.fanned"] == 2  # loop-spawned, capped

    def test_spawn_argument_call_not_an_execution_edge(self, tmp_path):
        # create_task(worker()) builds the coroutine in main's frame
        # but runs it in a new task: worker must not appear in main's
        # execution closure (otherwise single tasks double-count).
        src = """\
            import asyncio

            async def worker():
                pass

            async def main():
                t = asyncio.create_task(worker())
                await t
        """
        _write(tmp_path, src)
        index = ProjectIndex.build([str(tmp_path)])
        graph = build_async_graph(index)
        assert "mod.worker" not in graph.closure("mod.main")
        assert graph.weights.get("mod.worker", 0) == 1


# ----------------------------------------------------------------------
# suppression and select
# ----------------------------------------------------------------------
class TestSuppression:
    def test_line_pragma_silences(self, tmp_path):
        src = """\
            import time

            async def f():
                time.sleep(1.0)  # reproasync: disable=C001
        """
        assert _codes(tmp_path, src) == []

    def test_file_pragma_silences(self, tmp_path):
        src = """\
            # reproasync: disable-file=C002
            import asyncio

            async def w():
                pass

            async def f():
                asyncio.create_task(w())
        """
        assert _codes(tmp_path, src) == []

    def test_pragma_is_code_specific(self, tmp_path):
        src = """\
            import time

            async def f():
                time.sleep(1.0)  # reproasync: disable=C002
        """
        assert _codes(tmp_path, src) == ["C001"]

    def test_select_filters_rules(self, tmp_path):
        src = """\
            import asyncio
            import time

            async def w():
                pass

            async def f():
                time.sleep(1.0)
                asyncio.create_task(w())
        """
        assert _codes(tmp_path, src, select=("C002",)) == ["C002"]


# ----------------------------------------------------------------------
# CLI: exit codes and the JSON report
# ----------------------------------------------------------------------
class TestCli:
    tool = cli_contract.TOOLS["reproasync"]

    def test_findings_exit_1(self, tmp_path):
        cli_contract.check_findings_exit_one(self.tool, tmp_path)

    def test_clean_exit_0(self, tmp_path):
        cli_contract.check_clean_exits_zero(self.tool, tmp_path)

    def test_json_report_shape(self, tmp_path):
        cli_contract.check_json_report(self.tool, tmp_path)

    def test_list_rules(self):
        cli_contract.check_list_rules(self.tool)

    def test_not_utf8_exits_two(self, tmp_path):
        cli_contract.check_not_utf8_exits_two(self.tool, tmp_path)

    def test_parse_error_exit_2(self, tmp_path):
        cli_contract.check_parse_error_exits_two(self.tool, tmp_path)


# ----------------------------------------------------------------------
# the repo itself
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_repro_analyzes_clean_with_proof(self):
        result = analyze_paths([str(_REPO_ROOT / "src" / "repro")])
        assert [f.render() for f in result.findings] == []
        mac = [
            p
            for p in result.proofs
            if p["obligation"] == "mac-zero-draw-when-uncontended"
        ]
        assert len(mac) == 1
        assert mac[0]["symbol"].endswith("repro.gateway.mac.MacArbiter.arbitrate")
        assert mac[0]["status"] == "proved"

    def test_report_counts_gateway_structure(self):
        result = analyze_paths([str(_REPO_ROOT / "src" / "repro")])
        report = build_report(result)
        assert report["summary"]["async_functions"] > 10
        assert report["summary"]["spawn_sites"] > 0
        assert report["summary"]["proofs_proved"] >= 1
        sweep = [fq for fq in report["task_roots"] if fq.endswith("Gateway._sweep")]
        assert sweep, "the control-plane sweep task must be a task root"
