"""Any partition x any merge tree of a token stream counts like the reference.

The counter object decides per chunk whether to count densely or to
sort, so *where the stream is cut* changes which ids land in the array
and which in the dict -- and the merge tree changes in what order arrays
of different lengths and dicts with shared keys meet.  None of it may
show in the answer: for every stream (small ids, negatives, ids far
beyond any chunk, mixed), every set of cut points and every tree shape,
``finalize`` equals ``wordcount_exact`` key for key.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.wordcount import WordCountSpec, wordcount_exact
from repro.core.api import tree_global_reduction

small = st.integers(0, 12)
anywhere = st.one_of(
    small,
    st.integers(-5, -1),
    st.integers(2**40, 2**40 + 3),
    st.sampled_from([-(2**63), 2**63 - 1]),
)
streams = st.one_of(
    st.lists(small, max_size=120),
    st.lists(anywhere, max_size=120),
    # runs of one flavour, so whole chunks fall on one side of the choice
    st.lists(
        st.one_of(st.lists(small, min_size=8, max_size=30), st.lists(anywhere, max_size=10)),
        max_size=6,
    ).map(lambda runs: [t for run in runs for t in run]),
)


def partition(tokens: np.ndarray, cuts: list[int]) -> list[np.ndarray]:
    cuts = sorted(c % (len(tokens) + 1) for c in cuts)
    return np.split(tokens, cuts)


def merge_tree(objs: list, data) -> object:
    """Merge in an arbitrary drawn order; inputs are only ever read."""
    objs = list(objs)
    while len(objs) > 1:
        i = data.draw(st.integers(0, len(objs) - 1))
        a = objs.pop(i)
        j = data.draw(st.integers(0, len(objs) - 1))
        b = objs.pop(j)
        fresh = a.copy_empty()
        fresh.merge(a)
        fresh.merge(b)
        objs.append(fresh)
    return objs[0]


@settings(max_examples=200, deadline=None)
@given(
    tokens=streams,
    cuts=st.lists(st.integers(0, 10**6), max_size=8),
    n_workers=st.integers(1, 5),
    data=st.data(),
)
def test_any_partition_any_tree_equals_reference(tokens, cuts, n_workers, data):
    tokens = np.array(tokens, dtype=np.int64)
    spec = WordCountSpec()
    workers = [spec.create_reduction_object() for _ in range(n_workers)]
    for i, chunk in enumerate(partition(tokens, cuts)):
        spec.local_reduction_batch(workers[i % n_workers], chunk)
    before = [pickle.dumps(w) for w in workers]
    expected = wordcount_exact(tokens)

    assert spec.finalize(merge_tree(workers, data)) == expected
    assert spec.finalize(spec.global_reduction(workers)) == expected
    assert spec.finalize(tree_global_reduction(spec, workers, 3)) == expected
    assert [pickle.dumps(w) for w in workers] == before


@settings(max_examples=100, deadline=None)
@given(tokens=streams, cuts=st.lists(st.integers(0, 10**6), max_size=8))
def test_pickle_round_trip_anywhere_in_the_stream(tokens, cuts):
    """A worker's object shipped mid-stream and folded on from its copy."""
    tokens = np.array(tokens, dtype=np.int64)
    spec = WordCountSpec()
    robj = spec.create_reduction_object()
    for chunk in partition(tokens, cuts):
        spec.local_reduction_batch(robj, chunk)
        robj = pickle.loads(pickle.dumps(robj))
    assert spec.finalize(robj) == wordcount_exact(tokens)
