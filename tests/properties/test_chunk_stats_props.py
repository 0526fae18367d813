"""Property tests for the chunk-stats kernel.

``compute_chunk_stats`` reduces a field-major copy of the whole chunk in
a fixed number of NumPy calls.  It must give exactly what the
per-column loop it replaced gave: the same Python type and the same
float bits (sign of zero included) in every field, for any dtype the
formats use, NaN/±inf/±0 anywhere, empty and non-contiguous inputs and
int64 sums that wrap.  It must not write its input, and its scratch
memory is one copy of the chunk plus a mask -- no per-field temporaries.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.chunks import ChunkStats, compute_chunk_stats

DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8]
#: Fixed allocations of one call, whatever the chunk size: NumPy's cast
#: buffers for the integer sums (8192 elements) and the result tuples.
SLACK = 192 << 10


def _exact_int_sum(col: np.ndarray) -> int:
    """Exact big-int sum of an integer column (Python ints don't wrap)."""
    return sum(int(v) for v in col.tolist())


def oracle_chunk_stats(units: np.ndarray, *, sample_units: int = 8) -> ChunkStats:
    """The per-column loop the vectorized kernel replaced, kept verbatim."""
    arr = np.asarray(units)
    n = int(arr.shape[0]) if arr.ndim else 0
    n_fields = int(np.prod(arr.shape[1:])) if arr.ndim > 1 else 1
    flat = arr.reshape(n, n_fields)
    is_float = np.issubdtype(flat.dtype, np.floating)

    counts: list[int] = []
    mins: list[int | float | None] = []
    maxs: list[int | float | None] = []
    sums: list[int | float] = []
    for f in range(n_fields):
        col = flat[:, f]
        if is_float:
            nan_mask = np.isnan(col)
            cnt = int(n - nan_mask.sum())
            counts.append(cnt)
            if cnt == 0:
                mins.append(None)
                maxs.append(None)
                sums.append(0.0)
            else:
                with np.errstate(invalid="ignore"):
                    mins.append(float(np.nanmin(col)))
                    maxs.append(float(np.nanmax(col)))
                    sums.append(float(np.nansum(col)))
        else:
            counts.append(n)
            if n == 0:
                mins.append(None)
                maxs.append(None)
                sums.append(0)
            else:
                mins.append(int(col.min()))
                maxs.append(int(col.max()))
                fast = int(col.sum(dtype=np.int64))
                check = float(col.sum(dtype=np.float64))
                if abs(float(fast) - check) > max(1.0, abs(check)) * 1e-6:
                    fast = _exact_int_sum(col)
                sums.append(fast)

    sample: tuple[tuple[int | float, ...], ...] = ()
    if n > 0 and sample_units > 0:
        idx = np.unique(
            np.linspace(0, n - 1, num=min(sample_units, n)).astype(np.int64)
        )
        cast = float if is_float else int
        sample = tuple(
            tuple(cast(v) for v in flat[i]) for i in idx.tolist()
        )

    return ChunkStats(
        n_units=n,
        counts=tuple(counts),
        mins=tuple(mins),
        maxs=tuple(maxs),
        sums=tuple(sums),
        sample=sample,
    )


def identical(a, b) -> bool:
    """Same Python type and value; floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        if math.isnan(a):
            return math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def assert_identical(got: ChunkStats, want: ChunkStats) -> None:
    for name in ("n_units", "counts", "mins", "maxs", "sums", "sample"):
        g, w = getattr(got, name), getattr(want, name)
        assert identical(g, w), f"{name}: {g!r:.200} != {w!r:.200}"


@st.composite
def chunks(draw, max_units=4096, max_fields=48):
    """A unit array as a format decodes it -- or as a caller hands it in:
    any listed dtype, scalar or vector records, specials sprinkled or
    filling whole fields, possibly a strided view."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    n = draw(st.integers(0, max_units))
    n_fields = draw(st.integers(1, max_fields))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row_step = draw(st.sampled_from([1, 1, 2, 3]))
    col_step = draw(st.sampled_from([1, 1, 2]))
    shape = (n * row_step, n_fields * col_step)
    if dtype.kind == "f":
        arr = (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
        for special in (np.nan, np.inf, -np.inf, 0.0, -0.0):
            if draw(st.booleans()):
                rate = draw(st.sampled_from([0.001, 0.05, 1.0]))
                arr[rng.random(shape) < rate] = special
        if draw(st.booleans()) and shape[1]:
            arr[:, rng.integers(0, shape[1])] = np.nan  # an all-NaN field
    else:
        info = np.iinfo(dtype)
        arr = rng.integers(info.min, int(info.max) + 1, shape, dtype=dtype)
        if dtype == np.int64 and draw(st.booleans()):
            arr[:, : max(1, shape[1] // 2)] = 2**62  # sums past int64
    arr = arr[::row_step, ::col_step]
    if n_fields == 1 and draw(st.booleans()):
        arr = arr[:, 0]  # scalar records
    return arr


class TestKernelMatchesOracle:
    @given(units=chunks())
    @settings(max_examples=250, deadline=None)
    def test_every_field_bit_identical(self, units):
        assert_identical(compute_chunk_stats(units), oracle_chunk_stats(units))

    @given(units=chunks(max_units=64), sample_units=st.integers(0, 80))
    @settings(max_examples=150, deadline=None)
    def test_any_sample_size(self, units, sample_units):
        assert_identical(
            compute_chunk_stats(units, sample_units=sample_units),
            oracle_chunk_stats(units, sample_units=sample_units),
        )

    @given(units=chunks())
    @settings(max_examples=150, deadline=None)
    def test_input_is_never_written(self, units):
        before = units.tobytes()
        flags = units.flags.writeable
        compute_chunk_stats(units)
        assert units.tobytes() == before
        assert units.flags.writeable == flags


class TestKernelMemory:
    @given(units=chunks())
    @settings(max_examples=150, deadline=None)
    def test_scratch_is_one_copy_plus_a_mask(self, units):
        compute_chunk_stats(units)  # NumPy sets up a cast loop on first use
        tracemalloc.start()
        try:
            compute_chunk_stats(units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= SLACK + 1.25 * units.nbytes, (peak, units.shape, units.dtype)
