"""Unit tests for shared-memory segment lifecycle."""

import numpy as np
import pytest

from repro.storage.shm import (
    SharedSegment,
    SharedSegmentPool,
    attach_segment,
    close_quietly,
)


def shm_exists(name: str) -> bool:
    try:
        seg = attach_segment(name)
    except FileNotFoundError:
        return False
    close_quietly(seg)
    return True


class TestSharedSegment:
    def test_write_and_read_back(self):
        seg = SharedSegment(64)
        try:
            seg.write(b"hello")
            assert bytes(seg.buf[:5]) == b"hello"
        finally:
            seg.release()

    def test_buf_is_exactly_requested_size(self):
        seg = SharedSegment(100)  # kernel rounds the mapping to a page
        try:
            assert seg.buf.nbytes == 100
        finally:
            seg.release()

    def test_release_removes_name(self):
        seg = SharedSegment(16)
        name = seg.name
        assert shm_exists(name)
        seg.release()
        assert not shm_exists(name)

    def test_release_is_idempotent(self):
        seg = SharedSegment(16)
        seg.release()
        seg.release()

    def test_release_with_live_numpy_view_still_unlinks(self):
        seg = SharedSegment(80)
        name = seg.name
        arr = np.frombuffer(seg.buf, dtype=np.float64)
        arr[:] = 3.0
        seg.release()  # view still alive: must not raise, must unlink
        assert not shm_exists(name)
        assert arr[0] == 3.0  # pages survive until the view dies
        del arr

    def test_close_quietly_with_live_view_is_silent(self):
        """A still-aliased mapping closes without BufferError noise, and
        the neutralized object tolerates a later close/unlink cycle."""
        seg = SharedSegment(64)
        name = seg.name
        view = memoryview(seg.shm.buf)  # keeps the buffer exported
        close_quietly(seg.shm)  # must not raise despite the live view
        assert view[0] == 0  # pages stay mapped for the surviving view
        del view
        seg.release()  # second close is a no-op; unlink still happens
        assert not shm_exists(name)

    def test_close_quietly_tolerates_missing_privates(self):
        """The CPython-private ``_buf``/``_mmap``/``_fd`` attributes are
        only touched when present, so a renamed implementation degrades
        gracefully instead of raising AttributeError mid-cleanup."""

        class _OddShm:
            def close(self):
                raise BufferError("views still exported")

        close_quietly(_OddShm())  # no _buf/_mmap/_fd at all: no raise

    def test_oversized_write_rejected(self):
        seg = SharedSegment(4)
        try:
            with pytest.raises(ValueError):
                seg.write(b"toolong")
        finally:
            seg.release()

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            SharedSegment(0)

    def test_attach_sees_parent_writes(self):
        seg = SharedSegment(8)
        try:
            seg.write(b"abcdefgh")
            other = attach_segment(seg.name)
            try:
                assert bytes(other.buf[:8]) == b"abcdefgh"
            finally:
                close_quietly(other)
        finally:
            seg.release()


class TestSharedSegmentPool:
    def test_tracks_active_segments(self):
        pool = SharedSegmentPool()
        a = pool.create(16)
        b = pool.create(32)
        assert pool.active_count == 2
        assert pool.created == 2
        assert pool.bytes_through == 48
        pool.release(a)
        assert pool.active_count == 1
        assert pool.active_names == [b.name]
        pool.release(b)
        assert pool.active_count == 0

    def test_close_all_releases_everything(self):
        pool = SharedSegmentPool()
        names = [pool.create(16).name for _ in range(3)]
        pool.close_all()
        assert pool.active_count == 0
        assert not any(shm_exists(n) for n in names)

    def test_release_unknown_segment_is_safe(self):
        pool = SharedSegmentPool()
        seg = SharedSegment(16)
        pool.release(seg)  # not created through this pool: still released
        assert not shm_exists(seg.name)


class TestRecycling:
    """A run reuses its segments; the pool still owns every name."""

    def test_n_leases_at_most_k_at_once_create_k_segments(self):
        pool = SharedSegmentPool()
        try:
            k, held, names = 3, [], set()
            for i in range(40):
                if len(held) == k:
                    pool.release(held.pop(i % k))
                held.append(pool.create(4096))
                names.add(held[-1].name)
            assert pool.created == k == len(names)
            assert pool.active_count == k
            assert pool.bytes_through == 40 * 4096
            assert sum(seg.leases for seg in held) == 40
        finally:
            pool.close_all()

    def test_smaller_request_reuses_a_larger_segment_cut_to_size(self):
        pool = SharedSegmentPool()
        try:
            big = pool.create(1000)
            big.buf[:] = b"\xff" * 1000
            pool.release(big)
            small = pool.create(10)
            assert small is big and small.leases == 2
            assert len(small.buf) == small.buf.nbytes == 10
            assert small.nbytes == 10 and small.capacity == 1000
            with pytest.raises(ValueError):
                small.write(b"x" * 11)  # the stale tail is out of reach
            assert pool.created == 1
        finally:
            pool.close_all()

    def test_leases_the_smallest_segment_that_fits(self):
        pool = SharedSegmentPool()
        try:
            segs = {n: pool.create(n) for n in (300, 100, 200)}
            for seg in segs.values():
                pool.release(seg)
            assert pool.create(150) is segs[200]
            assert pool.create(150) is segs[300]
            assert pool.create(50) is segs[100]
        finally:
            pool.close_all()

    def test_growing_requests_replace_segments_instead_of_piling_up(self):
        pool = SharedSegmentPool()
        try:
            names = []
            for nbytes in range(100, 2100, 100):
                seg = pool.create(nbytes)
                names.append(seg.name)
                pool.release(seg)
                assert len(pool.parked_names) == 1
            assert pool.created == 20
            assert [shm_exists(n) for n in names] == [False] * 19 + [True]
        finally:
            pool.close_all()

    def test_parked_segments_are_not_active(self):
        pool = SharedSegmentPool()
        seg = pool.create(64)
        pool.release(seg)
        assert pool.active_count == 0 and pool.active_names == []
        assert pool.parked_names == [seg.name]
        assert shm_exists(seg.name)  # parked, not unlinked
        pool.close_all()

    def test_close_all_unlinks_leased_and_parked_alike(self):
        pool = SharedSegmentPool()
        leased = [pool.create(64) for _ in range(2)]
        parked = [pool.create(64) for _ in range(2)]
        for seg in parked:
            pool.release(seg)
        names = [seg.name for seg in leased + parked]
        assert all(shm_exists(n) for n in names)
        pool.close_all()
        assert pool.active_count == 0 and pool.parked_names == []
        assert not any(shm_exists(n) for n in names)

    def test_release_after_close_all_unlinks_at_once(self):
        pool = SharedSegmentPool()
        early = pool.create(64)
        pool.close_all()
        pool.release(early)  # already unlinked by close_all: a no-op
        late = pool.create(64)  # a straggler leasing after the close
        assert shm_exists(late.name)
        pool.release(late)
        assert not shm_exists(late.name)
        assert pool.parked_names == [] and pool.active_count == 0

    def test_releasing_twice_keeps_the_segment_parked_once(self):
        pool = SharedSegmentPool()
        try:
            seg = pool.create(64)
            pool.release(seg)
            pool.release(seg)
            assert pool.parked_names == [seg.name] and shm_exists(seg.name)
            assert pool.create(64) is seg
            assert pool.create(64) is not seg
        finally:
            pool.close_all()

    def test_concurrent_lessees_never_share_a_segment(self):
        """More lessees than cores, switching every 10 us: a segment
        handed to two of them at once would show the other's bytes."""
        import sys
        import threading

        pool = SharedSegmentPool()
        clashes, start = [], threading.Barrier(6)

        def lessee(tag: int) -> None:
            start.wait(10)
            for _ in range(300):
                seg = pool.create(256)
                seg.buf[:] = bytes([tag]) * 256
                if bytes(seg.buf) != bytes([tag]) * 256:
                    clashes.append(tag)
                pool.release(seg)

        threads = [threading.Thread(target=lessee, args=(t,)) for t in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(30)
            assert not any(th.is_alive() for th in threads)
            assert clashes == []
            assert pool.created <= 6 and pool.active_count == 0
        finally:
            sys.setswitchinterval(interval)
            pool.close_all()
