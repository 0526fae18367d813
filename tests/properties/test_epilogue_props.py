"""Merge-tree shape independence, through the real epilogue.

``reduction_object.py`` states the invariant: the merged value is
independent of the shape of the merge tree.  The epilogue now picks a
different tree per run shape -- a one-worker cluster contributes its
object unmerged, a wider one a pairwise tree whose upper rounds merge in
place, the head one more merge over the uploads -- so for every
(clusters x workers) shape up to 3 x 4, with either combine hook (the
spec's own left fold, the process engine's tree), the result must equal
the flat left fold over all worker objects, and no worker object may
change.  Values are integers held in floats, so "equal" is bit-equal.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import tree_global_reduction

from tests.runtime.test_epilogue import KINDS, epilogue

shapes = st.lists(st.integers(0, 4), min_size=1, max_size=3)


def flat_fold(spec, workers):
    flat = spec.create_reduction_object()
    for robj in workers:
        flat.merge(robj)
    return flat


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    shape=shapes,
    tree=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_epilogue_equals_flat_left_fold(kind, shape, tree, seed):
    spec, make = KINDS[kind]
    seeds = iter(range(seed, seed + 100))
    cluster_robjs = {
        f"c{i}": [make(next(seeds)) for _ in range(n)] for i, n in enumerate(shape)
    }
    workers = [r for robjs in cluster_robjs.values() for r in robjs]
    before = [pickle.dumps(r) for r in workers]
    combine = (lambda robjs: tree_global_reduction(spec, robjs, 3)) if tree else None
    rr = epilogue(spec, cluster_robjs, combine=combine)
    expected = flat_fold(spec, workers)
    assert pickle.dumps(rr.robj.value()) == pickle.dumps(expected.value())
    assert [pickle.dumps(r) for r in workers] == before
    assert all(rr.robj is not w for w in workers)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    n=st.integers(0, 13),
    max_workers=st.integers(1, 4),
    seed=st.integers(0, 10**6),
)
def test_tree_merge_equals_flat_left_fold(kind, n, max_workers, seed):
    spec, make = KINDS[kind]
    workers = [make(seed + i) for i in range(n)]
    before = [pickle.dumps(r) for r in workers]
    merged = tree_global_reduction(spec, workers, max_workers)
    assert pickle.dumps(merged.value()) == pickle.dumps(flat_fold(spec, workers).value())
    assert [pickle.dumps(r) for r in workers] == before
    assert all(merged is not w for w in workers)
