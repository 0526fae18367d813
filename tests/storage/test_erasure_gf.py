"""GF(256) by table: same code, different arithmetic.

The product table and ``bytes.translate`` replaced the log/exp gathers,
and ``reassemble`` rebuilds only the fragments that were lost.  Neither
may change a single byte of what is stored or recovered: datasets
striped before the change must still decode, so ``stripe_frame`` is held
to digests taken from the previous implementation, and decode is checked
over *every* loss pattern of one and two fragments rather than a sample.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from repro.storage import erasure
from repro.storage.erasure import reassemble, stripe_frame


def random_frame(seed: int, nbytes: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, nbytes, dtype=np.uint8).tobytes()


class TestProductTable:
    def test_equals_scalar_multiply_on_every_pair(self):
        expected = np.array(
            [[erasure._gf_mul(a, b) for b in range(256)] for a in range(256)],
            dtype=np.uint8,
        )
        np.testing.assert_array_equal(erasure._MUL, expected)

    def test_vector_multiply_equals_scalar_for_every_constant(self):
        every_byte = np.arange(256, dtype=np.uint8)
        for c in range(256):
            got = erasure._gf_mul_vec(c, every_byte)
            assert got.dtype == np.uint8
            assert got.tolist() == [erasure._gf_mul(c, b) for b in range(256)]
        np.testing.assert_array_equal(every_byte, np.arange(256))  # input untouched

    def test_dot_is_the_xor_of_scaled_rows(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 256, (5, 64), dtype=np.uint8)
        coeffs = [0, 1, 2, 87, 255]
        expected = np.zeros(64, dtype=np.uint8)
        for c, row in zip(coeffs, rows):
            expected ^= np.array([erasure._gf_mul(c, int(b)) for b in row], dtype=np.uint8)
        np.testing.assert_array_equal(erasure._gf_dot(coeffs, rows), expected)


#: sha256 over every fragment (length-prefixed, in index order) as the
#: log/exp implementation this one replaced produced them:
#: (seed, frame bytes, k, m) -> digest.  10 007 and 1 do not divide by k.
GOLDEN = {
    (0, 4096, 4, 1): "956c8073deafc26bbc140e1e9104c6b464edb4b0a464ebf42e6849f1d4211dfd",
    (0, 4096, 4, 2): "30c885e4750cc3bb1886bc03ca363236a1c3eee9e9e5528d0026198e9a3ee6ad",
    (0, 4096, 6, 3): "394a3909b427381054ee4afcda8a9027d99e1af66c524132c7bca14b74623cb6",
    (1, 10007, 4, 1): "8df4bfa8c62a68399199ef8a3f7f05de50e76d2496829fbe0e2e46b0d20c27b8",
    (1, 10007, 4, 2): "d9ae68e41308d2c6b496a4fd030ebc512b0f3e700e62561ae76a8bbd7d16e4c0",
    (1, 10007, 6, 3): "7cf7d3befe6938d6a5f5f63fd0822f60e2c06f6c42f273128f46e4c5a255178a",
    (2, 1, 4, 1): "b092e67572b87388a21e82ffa026479597fb447a560883c10bfe112f41b1927d",
    (2, 1, 4, 2): "271ba81730666ea4e5231c1e558dd7b07bf1d7c1a05c563d124cb6f3377a13ea",
    (2, 1, 6, 3): "33f632c6d381e5104cef33d6a818103642cfb5b0032dabeda2acba3417d5220d",
}


@pytest.mark.parametrize("seed,nbytes,k,m", GOLDEN, ids=str)
def test_fragments_are_bit_identical_to_the_previous_implementation(seed, nbytes, k, m):
    digest = hashlib.sha256()
    for fragment in stripe_frame(random_frame(seed, nbytes), k, m):
        digest.update(len(fragment).to_bytes(4, "big"))
        digest.update(fragment)
    assert digest.hexdigest() == GOLDEN[seed, nbytes, k, m]


GEOMETRIES = [(k, m) for k in range(1, 9) for m in range(1, 4)]


@pytest.mark.parametrize("nbytes", [240, 251, 5], ids=lambda n: f"{n}B")
@pytest.mark.parametrize("k,m", GEOMETRIES, ids=str)
def test_every_one_and_two_fragment_loss_decodes(k, m, nbytes):
    """251 is prime and 5 < k for most k: ragged tails and all-padding fragments."""
    frame = random_frame(k * 31 + m, nbytes)
    fragments = stripe_frame(frame, k, m)
    for n_lost in range(1, min(m, 2) + 1):
        for lost in itertools.combinations(range(k + m), n_lost):
            survivors = {i: f for i, f in enumerate(fragments) if i not in lost}
            buf, used_parity = reassemble(survivors, k, m, nbytes)
            assert bytes(buf) == frame, f"lost {lost}"
            assert used_parity == any(i < k for i in lost)


class TestReassembleInPlace:
    FRAME = 667_003  # the striped workload's frame size, made ragged

    @pytest.mark.parametrize("k,m,lost", [
        (4, 2, ()), (4, 2, (1,)), (4, 2, (0, 3)), (4, 1, (2,)), (6, 3, (0, 5)),
    ], ids=str)
    def test_writes_exactly_the_frame_and_nothing_around_it(self, k, m, lost):
        frame = random_frame(7, self.FRAME)
        fragments = stripe_frame(frame, k, m)
        survivors = {i: f for i, f in enumerate(fragments) if i not in lost}
        guard = 4096
        arena = bytearray(b"\xa5" * (self.FRAME + 2 * guard))
        out = memoryview(arena)[guard : guard + self.FRAME]
        buf, used_parity = reassemble(survivors, k, m, self.FRAME, out=out)
        assert buf is out and used_parity == bool(lost)
        assert bytes(out) == frame
        assert arena[:guard] == b"\xa5" * guard and arena[-guard:] == b"\xa5" * guard

    @pytest.mark.parametrize("k,m,lost", [
        (4, 2, (1,)), (4, 2, (0, 3)), (4, 1, (2,)), (6, 3, (0, 2, 5)),
    ], ids=str)
    def test_decode_temporaries_stay_under_two_frames(self, k, m, lost):
        frame = random_frame(8, self.FRAME)
        fragments = stripe_frame(frame, k, m)
        survivors = {i: f for i, f in enumerate(fragments) if i not in lost}
        out = bytearray(self.FRAME)
        reassemble(survivors, k, m, self.FRAME, out=out)  # generator cached
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            reassemble(survivors, k, m, self.FRAME, out=out)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert bytes(out) == frame
        assert peak < 2 * self.FRAME
        # In fact a few fragments: accumulator, one product, its bytes copy.
        assert peak < 4 * -(-self.FRAME // k)


#: Wide stripes too: decoding must not depend on how many parity rows exist.
WIDE = [(k, m) for k in (1, 2, 3, 5, 8, 13) for m in (2, 4, 16, 64)]


class TestDecodeFromHeldRows:
    """``reassemble`` inverts only the ``k`` held Vandermonde rows:
    ``V[:k] @ inv(V[held])`` is ``inv(G[held])`` for the full generator
    ``G`` that ``stripe_frame`` encodes with."""

    @pytest.mark.parametrize("k,m", WIDE, ids=str)
    def test_held_rows_decode_what_the_generator_encoded(self, k, m):
        generator = erasure._generator_matrix(k, m)
        data_rows = erasure._vandermonde(range(k), k)
        frame = random_frame(k * 97 + m, 6 * k + 1)
        fragments = stripe_frame(frame, k, m)
        rng = np.random.default_rng(k * 1000 + m)
        for _ in range(12):
            held = sorted(rng.choice(k + m, k, replace=False).tolist())
            decode = erasure._gf_matmul(
                data_rows,
                np.ascontiguousarray(erasure._gf_inv_matrix(erasure._vandermonde(held, k))),
            )
            np.testing.assert_array_equal(
                decode, erasure._gf_inv_matrix(generator[held]), err_msg=f"held {held}"
            )
            buf, used_parity = reassemble(
                {i: fragments[i] for i in held}, k, m, len(frame)
            )
            assert bytes(buf) == frame, f"held {held}"
            assert used_parity == (held != list(range(k)))

    @pytest.mark.parametrize("k,m", [(7, 237), (4, 200), (16, 64)], ids=str)
    def test_decoding_leaves_the_generator_cache_alone(self, k, m, monkeypatch):
        """Index-supplied geometries must not fill the encoder's cache."""
        frame = random_frame(k + m, 3 * k)
        fragments = stripe_frame(frame, k, m)
        monkeypatch.setattr(erasure, "_GEN_CACHE", {})
        held = {i: f for i, f in enumerate(fragments) if i >= min(m, k)}
        buf, used_parity = reassemble(held, k, m, len(frame))
        assert bytes(buf) == frame and used_parity
        assert erasure._GEN_CACHE == {}

    @pytest.mark.parametrize("m", [8, 32, 128, 237])
    def test_cold_decode_allocation_does_not_grow_with_m(self, m, monkeypatch):
        """k x k work whatever m is: a cold 7-of-244 decode allocates about
        what a cold 7-of-9 one does, not the whole 244 x 7 generator."""

        def cold_peak(m):
            k, nbytes = 7, 14
            frame = random_frame(m, nbytes)
            fragments = stripe_frame(frame, k, m)
            held = {i: f for i, f in enumerate(fragments) if i >= min(m, k)}
            monkeypatch.setattr(erasure, "_GEN_CACHE", {})
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                buf, used_parity = reassemble(held, k, m, nbytes)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert bytes(buf) == frame and used_parity
            return peak

        cold_peak(2)  # numpy's own first-use state
        assert cold_peak(m) - cold_peak(2) < 4 << 10
