"""The BLAS thread budget of in-process fold fleets.

While ``n`` fold threads are alive every loaded OpenBLAS is capped at
``max(1, usable_cores // n)`` threads: only ever lowered, ref-counted,
restored at the outermost exit -- also when the run raised.  The unit
tests drive a fake library through the budget's injectable discovery;
the last class drives the real one when this interpreter has it.
"""

import sys
import threading
import types

import numpy as np
import pytest

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.bursting.session import BurstingSession
from repro.data.dataset import write_dataset
from repro.data.formats import tokens_format
from repro.runtime import blas_budget, make_engine
from repro.runtime.blas_budget import BLAS_BUDGET, BlasBudget, find_openblas
from repro.runtime.engine import ClusterConfig
from repro.service import BurstingService
from repro.storage.local import MemoryStore


class FakeBlas:
    """A thread-count control that remembers every ``set``."""

    def __init__(self, threads, obeys=True):
        self.threads = threads
        self.obeys = obeys
        self.sets = []

    def get(self):
        return self.threads

    def set(self, n):
        self.sets.append(n)
        if self.obeys:
            self.threads = n

    @property
    def control(self):
        return (self.get, self.set)


@pytest.fixture
def cores8(monkeypatch):
    monkeypatch.setattr(blas_budget, "usable_cores", lambda: 8)


class TestBudget:
    def test_cap_is_cores_over_fold_threads(self, cores8):
        lib = FakeBlas(8)
        budget = BlasBudget(lambda: [lib.control])
        with budget.threads(2):
            assert lib.get() == 4
        assert lib.get() == 8

    def test_nested_holders_restore_only_at_the_outermost_exit(self, cores8):
        lib = FakeBlas(8)
        budget = BlasBudget(lambda: [lib.control])
        with budget.threads(2):
            with budget.threads(4):
                assert lib.get() == 2
            assert lib.get() == 2  # still held: never raised while anyone folds
            with budget.threads(1):
                assert lib.get() == 2  # a wider cap does not raise it either
        assert lib.get() == 8

    def test_a_raise_inside_still_restores(self, cores8):
        lib = FakeBlas(8)
        budget = BlasBudget(lambda: [lib.control])
        with pytest.raises(ZeroDivisionError):
            with budget.threads(8):
                assert lib.get() == 1
                1 / 0
        assert lib.get() == 8

    def test_at_least_as_many_folders_as_cores_gives_one(self, cores8):
        lib = FakeBlas(8)
        budget = BlasBudget(lambda: [lib.control])
        for n in (8, 9, 64):
            with budget.threads(n):
                assert lib.get() == 1
            assert lib.get() == 8

    def test_only_ever_lowers(self, cores8):
        lib = FakeBlas(2)  # the user already asked for fewer, e.g. by environment
        budget = BlasBudget(lambda: [lib.control])
        with budget.threads(2):
            assert lib.get() == 2
        assert lib.get() == 2 and all(n <= 2 for n in lib.sets)

    def test_every_loaded_library_is_capped_and_restored(self, cores8):
        numpys, scipys = FakeBlas(8), FakeBlas(6)
        budget = BlasBudget(lambda: [numpys.control, scipys.control])
        with budget.threads(4):
            assert (numpys.get(), scipys.get()) == (2, 2)
        assert (numpys.get(), scipys.get()) == (8, 6)

    def test_a_library_that_ignores_the_cap_is_left_as_it_was(self, cores8):
        lib = FakeBlas(8, obeys=False)
        budget = BlasBudget(lambda: [lib.control])
        with budget.threads(2):
            assert lib.get() == 8
        assert lib.sets[:2] == [4, 8]

    def test_no_controllable_blas_is_a_silent_noop(self, cores8):
        budget = BlasBudget(lambda: [])
        with budget.threads(2):
            with budget.threads(4):
                pass
        assert budget._holders == 0

    def test_concurrent_holders_always_leave_it_restored(self, cores8):
        """More holders than cores, a shortened switch interval: a lost
        update on the ref-count would leave the cap in place (or restore
        it under a holder's feet)."""
        lib = FakeBlas(8)
        budget = BlasBudget(lambda: [lib.control])
        seen_uncapped = []

        def holder():
            for _ in range(300):
                with budget.threads(4):
                    if lib.get() != 2:
                        seen_uncapped.append(lib.get())

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=holder) for _ in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert not seen_uncapped
        assert lib.get() == 8 and budget._holders == 0


class TestDiscovery:
    def test_no_proc_maps_means_no_controls(self, monkeypatch):
        def no_proc(*_args, **_kwargs):
            raise FileNotFoundError("/proc/self/maps")

        monkeypatch.setattr("builtins.open", no_proc)
        assert find_openblas() == []

    def test_only_the_c_entry_points_are_probed(self):
        """``scipy_openblas_set_num_threads_64_`` (the Fortran binding,
        argument by reference) segfaults when called with an int."""
        sets = [name.format("set") for name in blas_budget._SYMBOLS]
        assert sets == [
            "openblas_set_num_threads", "openblas_set_num_threads64_",
            "openblas_set_num_threads_64", "scipy_openblas_set_num_threads",
            "scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads_64",
        ]
        assert not any(name.endswith("_64_") for name in sets)

    def test_an_unloadable_mapping_is_skipped(self, monkeypatch, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text(
            "7f00-7f01 r-xp 00000000 08:01 42   /gone/libopenblas.so (deleted)\n"
            "7f02-7f03 r-xp 00000000 08:01 43   /usr/lib/libc.so.6\n"
        )
        real_open = open
        monkeypatch.setattr(
            "builtins.open",
            lambda path, *a, **k: real_open(maps if path == "/proc/self/maps" else path, *a, **k),
        )
        assert find_openblas() == []


class TestScanIsKept:
    """One pass of an in-process engine is one acquire/release: the scan
    (0.5-3 ms) is repeated only when something was imported since."""

    def test_a_second_acquire_does_not_reopen_proc_maps(self, monkeypatch):
        opened = []
        real_open = open

        def counting_open(path, *args, **kwargs):
            if path == "/proc/self/maps":
                opened.append(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        budget = BlasBudget()
        for _ in range(3):
            with budget.threads(2):
                pass
        assert len(opened) == 1

    def test_a_library_that_arrives_with_an_import_is_picked_up(self, cores8, monkeypatch):
        libs = [FakeBlas(8)]
        scans = []

        def find():
            scans.append(len(libs))
            return [lib.control for lib in libs]

        budget = BlasBudget(find)
        for _ in range(2):
            with budget.threads(2):
                assert libs[0].get() == 4
        assert scans == [1]
        libs.append(FakeBlas(8))  # what importing scipy.linalg does to the process
        monkeypatch.setitem(sys.modules, "a_late_blas", types.ModuleType("a_late_blas"))
        with budget.threads(2):
            assert [lib.get() for lib in libs] == [4, 4]
        assert scans == [1, 2]
        assert [lib.get() for lib in libs] == [8, 8]


# -- the fleets that hold the budget -------------------------------------------


class RecordingSpec(WordCountSpec):
    """Wordcount that notes the BLAS thread count it folds under."""

    def __init__(self, lib, fail=False):
        super().__init__()
        self.lib, self.fail, self.seen = lib, fail, []

    def local_reduction_batch(self, robj, units):
        self.seen.append(self.lib.get())
        if self.fail:
            raise ValueError("fold blew up")
        super().local_reduction_batch(robj, units)


@pytest.fixture
def held(monkeypatch):
    """The process-wide budget driving a fake 4-thread BLAS on 4 cores."""
    lib = FakeBlas(4)
    monkeypatch.setattr(blas_budget, "usable_cores", lambda: 4)
    monkeypatch.setattr(BLAS_BUDGET, "_find", lambda: [lib.control])
    monkeypatch.setattr(BLAS_BUDGET, "_scan", None)  # and back to the real scan after
    return lib


@pytest.fixture
def dataset():
    tokens = np.random.default_rng(3).integers(0, 50, 6000)
    store = MemoryStore("local")
    index = write_dataset(tokens, tokens_format(), store, n_files=4, chunk_units=500)
    return {"local": store}, index, wordcount_exact(tokens)


CLUSTERS = [ClusterConfig("local", "local", n_workers=2)]


class TestFleetsHoldTheBudget:
    def test_engine_run_caps_then_restores(self, held, dataset):
        stores, index, expected = dataset
        spec = RecordingSpec(held)
        rr = make_engine("threaded", CLUSTERS, stores).run(spec, index)
        assert rr.result == expected
        assert spec.seen and set(spec.seen) == {2}  # 4 cores // 2 fold threads
        assert held.get() == 4

    def test_engine_run_that_raises_restores(self, held, dataset):
        stores, index, _ = dataset
        with pytest.raises(ValueError, match="fold blew up"):
            make_engine("threaded", CLUSTERS, stores).run(RecordingSpec(held, fail=True), index)
        assert held.get() == 4 and BLAS_BUDGET._holders == 0

    def test_session_caps_from_first_pass_until_close(self, held, dataset):
        """A session's passes share one fleet, which holds the cap as a
        service's does; closing the session, or dropping it, gives it back."""
        stores, index, expected = dataset
        session = BurstingSession(index, stores, local_workers=4, cloud_workers=0)
        try:
            assert held.get() == 4  # no fleet before the first pass
            spec = RecordingSpec(held)
            assert session.run(spec).result == expected
            assert set(spec.seen) == {1} and held.get() == 1
            with pytest.raises(ValueError, match="fold blew up"):
                session.run(RecordingSpec(held, fail=True))
            assert held.get() == 1  # a failed pass is not a dead fleet
        finally:
            session.close()
        assert held.get() == 4 and BLAS_BUDGET._holders == 0
        dropped = BurstingSession(index, stores, local_workers=4, cloud_workers=0)
        dropped.run(RecordingSpec(held))
        assert held.get() == 1
        del dropped
        assert held.get() == 4 and BLAS_BUDGET._holders == 0

    def test_service_holds_from_fleet_start_to_shutdown(self, held, dataset):
        stores, index, expected = dataset
        service = BurstingService(CLUSTERS, stores)
        try:
            assert held.get() == 4  # no fleet yet
            spec = RecordingSpec(held)
            assert service.submit(spec, index).result(timeout=30).result == expected
            assert set(spec.seen) == {2}
            assert held.get() == 2  # the fleet outlives the job
            failed = service.submit(RecordingSpec(held, fail=True), index)
            with pytest.raises(ValueError, match="fold blew up"):
                failed.result(timeout=30)
            assert held.get() == 2  # a failed job is not a dead fleet
        finally:
            service.shutdown()
        assert held.get() == 4
        service.shutdown()  # idempotent: no second release
        assert held.get() == 4 and BLAS_BUDGET._holders == 0

    def test_a_service_that_never_started_a_fleet_releases_nothing(self, held, dataset):
        stores, _, _ = dataset
        BurstingService(CLUSTERS, stores).shutdown()
        assert held.sets == [] and BLAS_BUDGET._holders == 0


class TestRealOpenBlas:
    def test_this_interpreters_blas_is_capped_and_restored(self, dataset):
        controls = find_openblas()
        if not controls:
            pytest.skip("no controllable OpenBLAS mapped into this interpreter")
        before = [get() for get, _ in controls]
        cap = max(1, blas_budget.usable_cores() // 2)
        with BLAS_BUDGET.threads(2):
            assert [get() for get, _ in controls] == [min(b, cap) for b in before]
        assert [get() for get, _ in controls] == before
        stores, index, expected = dataset
        assert make_engine("threaded", CLUSTERS, stores).run(
            WordCountSpec(), index).result == expected
        assert [get() for get, _ in controls] == before
