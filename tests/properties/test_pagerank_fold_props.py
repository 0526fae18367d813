"""Property-based tests for the PageRank fold kernel.

``PageRankSpec.local_reduction`` scatters each edge's share straight
into the reduction object (``np.add.at``).  One object folding the
groups of an edge list in order therefore adds every page's shares in
edge order -- the order of ``pagerank_step``'s single ``bincount`` --
so the answer is bit-identical to the reference however the list is
cut.  Several objects merged in any tree sum the same shares in another
order and agree to ``rtol=1e-12``.  ``TopKPageRankSpec`` is the same
rule on a page-id window.

Hypothesis draws the graph size, the cuts and a seed; duplicate edges,
self-loops, pages without in-edges and single-edge groups all occur.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.filtered import TopKPageRankSpec, topk_pagerank_window_exact
from repro.apps.pagerank import PageRankSpec, out_degrees, pagerank_step
from repro.core.api import run_local_pass

RTOL = 1e-12


@st.composite
def graphs(draw, max_pages=60, max_edges=400):
    """``(edges, ranks, outdeg)``: a random multigraph and a rank vector."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_pages))
    m = draw(st.integers(1, max_edges))
    edges = rng.integers(0, n, (m, 2))
    ranks = rng.random(n)
    return edges, ranks / ranks.sum(), out_degrees(edges, n)


@st.composite
def partitions(draw, n):
    """Consecutive ``(lo, hi)`` ranges covering ``range(n)``, empty ones included."""
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=10)))
    bounds = [0, *cuts, n]
    return list(zip(bounds[:-1], bounds[1:]))


def readonly(edges):
    """What ``RecordFormat.decode`` yields: read-only, not owning its data."""
    return np.frombuffer(edges.astype(np.int64).tobytes(), dtype=np.int64).reshape(-1, 2)


class TestFoldMatchesPagerankStep:
    @given(data=st.data(), frozen=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_any_partition_in_order_is_bit_identical(self, data, frozen):
        edges, ranks, outdeg = data.draw(graphs())
        ranges = data.draw(partitions(len(edges)))
        units = readonly(edges) if frozen else edges
        spec = PageRankSpec(ranks, outdeg)
        robj = run_local_pass(spec, (units[lo:hi] for lo, hi in ranges))
        np.testing.assert_array_equal(
            spec.finalize(robj), pagerank_step(edges, ranks, outdeg)
        )

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_merge_tree_within_tolerance(self, data):
        edges, ranks, outdeg = data.draw(graphs())
        ranges = data.draw(partitions(len(edges)))
        n_objs = data.draw(st.integers(1, 5))
        owner = data.draw(
            st.lists(st.integers(0, n_objs - 1), min_size=len(ranges), max_size=len(ranges))
        )
        spec = PageRankSpec(ranks, outdeg)
        objs = [
            run_local_pass(spec, (edges[lo:hi] for (lo, hi), o in zip(ranges, owner) if o == k))
            for k in range(n_objs)
        ]
        # Merge adjacent pairs in a drawn order until one object is left.
        while len(objs) > 1:
            i = data.draw(st.integers(0, len(objs) - 2))
            objs[i:i + 2] = [spec.global_reduction(objs[i:i + 2])]
        np.testing.assert_allclose(
            spec.finalize(objs[0]), pagerank_step(edges, ranks, outdeg), rtol=RTOL
        )

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_window_spec_is_bit_identical_to_its_reference(self, data):
        edges, ranks, outdeg = data.draw(graphs())
        ranges = data.draw(partitions(len(edges)))
        n = len(ranks)
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo, n - 1))
        spec = TopKPageRankSpec(ranks, outdeg, lo, hi)
        robj = run_local_pass(spec, (readonly(edges)[a:b] for a, b in ranges))
        np.testing.assert_array_equal(
            spec.finalize(robj), topk_pagerank_window_exact(edges, ranks, outdeg, lo, hi)
        )
