"""Fuzz for the fragment maps handed to :func:`repro.storage.erasure.reassemble`.

A striped fetch hands ``reassemble`` what the stores returned, keyed by
fragment index, with the stripe geometry and frame length the index
records.  Whatever that map holds -- indices missing, extra, out of range
or carrying another index's bytes; fragments cut or padded; a frame
length, ``k`` or ``m`` that disagrees with them, up to and past
``MAX_FRAGMENTS``; an ``out`` buffer of the wrong size -- the call returns
``frame_nbytes`` bytes or raises :class:`ErasureError`, never another
exception, and allocates no more than a small multiple of the bytes it
was handed.  Fragments carry no checksum of their own (``data/integrity``
checks the chunk), so bytes that add up but lie come back as wrong bytes,
not as an error.
"""

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage.erasure import MAX_FRAGMENTS, ErasureError, reassemble, stripe_frame

#: What one call may allocate beyond a small multiple of its inputs: the
#: ``k x k`` GF(256) decode matrix and its inverse, numpy's own state.
SLACK = 64 << 10

OUT_OF_RANGE = st.one_of(
    st.sampled_from([-1, MAX_FRAGMENTS, -(2**63), 2**64]),
    st.integers(-(2**63), -1),
    st.integers(MAX_FRAGMENTS, 2**63),
)


@st.composite
def stripes(draw):
    """``(frame, k, m, fragments)``: an honest stripe of a drawn frame."""
    k = draw(st.integers(1, 8))
    m = draw(st.integers(0, 3))
    frame = draw(st.binary(min_size=1, max_size=300))
    return frame, k, m, dict(enumerate(stripe_frame(frame, k, m)))


@st.composite
def mangled(draw):
    """``reassemble``'s arguments: an honest stripe, then any mix of damage."""
    frame, k, m, frags = draw(stripes())
    n = k + m
    for i in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
        del frags[i]
    for i in draw(st.lists(st.one_of(st.integers(0, n + 2), OUT_OF_RANGE), max_size=3)):
        frags[i] = draw(st.binary(max_size=2 * len(frame) + 2))
    if frags and draw(st.booleans()):  # one index's bytes under another
        frags[draw(st.integers(0, n - 1))] = frags[draw(st.sampled_from(sorted(frags)))]
    if frags and draw(st.booleans()):  # cut or padded
        i = draw(st.sampled_from(sorted(frags)))
        delta = draw(st.integers(-4, 4))
        frags[i] = frags[i][:delta] if delta < 0 else frags[i] + bytes(delta)
    frame_nbytes = draw(st.one_of(
        st.just(len(frame)),
        st.integers(-2, 2 * len(frame) + 2),
        st.sampled_from([2**31, 2**63 - 1, 2**64]),
    ))
    k_m = draw(st.one_of(
        st.just((k, m)),
        st.tuples(st.integers(-1, MAX_FRAGMENTS + 1), st.integers(-1, MAX_FRAGMENTS + 1)),
        st.sampled_from([(MAX_FRAGMENTS - m, m), (MAX_FRAGMENTS + 1 - m, m)]),
    ))
    out = draw(st.one_of(st.none(), st.integers(0, 2 * len(frame) + 2).map(bytearray)))
    return frags, *k_m, frame_nbytes, out


def reassemble_traced(frags, k, m, frame_nbytes, out):
    """``(buffer or the ErasureError, tracemalloc peak)``; any other
    exception propagates and fails the test."""
    tracemalloc.start()
    try:
        try:
            got = reassemble(frags, k, m, frame_nbytes, out)[0]
        except ErasureError as exc:
            got = exc
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@given(args=mangled())
# A cold wide stripe: decoding from 7 held rows must not build the whole
# 244 x 7 generator.
@example(args=(
    {0: b"\x01n", 1: b"\x9d\x06", 2: b"\xde\xde", 3: b"\xfdQ", 4: b"\x00\x00",
     5: b"\x00\x00", 7: b"\xbf\xe7", -1: b""},
    7, 237, 8, None,
))
@settings(max_examples=600, deadline=None)
def test_any_fragment_map_gives_the_frame_length_or_erasure_error(args):
    frags, k, m, frame_nbytes, out = args
    handed = sum(len(f) for f in frags.values()) + (0 if out is None else len(out))
    got, peak = reassemble_traced(frags, k, m, frame_nbytes, out)
    if not isinstance(got, ErasureError):
        assert len(got) == frame_nbytes
        assert out is None or got is out
    assert peak <= SLACK + 4 * handed


@given(
    stripe=stripes(),
    junk=st.dictionaries(OUT_OF_RANGE, st.binary(max_size=64), max_size=4),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_indices_outside_the_stripe_are_ignored(stripe, junk, data):
    frame, k, m, frags = stripe
    keep = data.draw(st.lists(st.sampled_from(sorted(frags)), min_size=k, unique=True))
    buf, _ = reassemble({i: frags[i] for i in keep} | junk, k, m, len(frame))
    assert bytes(buf) == frame


@pytest.mark.parametrize("k,m", [(MAX_FRAGMENTS - 2, 2), (MAX_FRAGMENTS - 1, 1), (MAX_FRAGMENTS, 0)])
def test_the_widest_stripe_recovers_from_m_lost_data_fragments(k, m):
    frame = bytes(range(256)) * 3
    frags = dict(enumerate(stripe_frame(frame, k, m)))
    for i in range(m):
        del frags[i]
    buf, used_parity = reassemble(frags, k, m, len(frame))
    assert bytes(buf) == frame
    assert used_parity == (m > 0)


@pytest.mark.parametrize(
    "k,m", [(MAX_FRAGMENTS - 1, 2), (MAX_FRAGMENTS, 1), (MAX_FRAGMENTS + 1, 0), (0, 2), (2, -1)]
)
def test_a_stripe_wider_than_the_field_is_refused(k, m):
    frags = {i: b"x" for i in range(max(k + m, 0))}
    with pytest.raises(ErasureError):
        reassemble(frags, k, m, max(k, 1))
