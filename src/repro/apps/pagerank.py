"""PageRank.

The paper's pagerank: "low to medium computation leading to high I/O,
and a very large reduction object" (~30 MB, the per-page rank vector).
One run of the spec performs one power-iteration step over the edge
list: local reduction scatter-adds each edge's rank contribution into a
dense vector; finalize applies damping and redistributes dangling mass.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Sequence

import numpy as np

from repro.apps.base import Application, register_application
from repro.core.api import GeneralizedReductionSpec
from repro.core.mapreduce_api import MapReduceSpec
from repro.core.reduction_object import ArrayReductionObject, ReductionObject
from repro.data.formats import edges_format
from repro.data.generator import generate_edges

__all__ = [
    "PageRankSpec",
    "PageRankMapReduceSpec",
    "out_degrees",
    "pagerank_step",
    "pagerank_reference",
    "PAGERANK_APP",
]


def out_degrees(edges: np.ndarray, n_pages: int) -> np.ndarray:
    """Out-degree of every page, from an ``(m, 2)`` edge array."""
    return np.bincount(edges[:, 0], minlength=n_pages).astype(np.float64)


class PageRankSpec(GeneralizedReductionSpec):
    """One damped power-iteration step in the generalized-reduction API.

    ``ranks`` and ``outdeg`` are broadcast read-only state (shipped to
    every worker once per iteration); the reduction object is the dense
    incoming-contribution vector, whose size is what makes pagerank's
    global reduction expensive.
    """

    def __init__(self, ranks: np.ndarray, outdeg: np.ndarray, damping: float = 0.85) -> None:
        ranks = np.asarray(ranks, dtype=np.float64)
        outdeg = np.asarray(outdeg, dtype=np.float64)
        if ranks.shape != outdeg.shape or ranks.ndim != 1 or len(ranks) == 0:
            raise ValueError("ranks and outdeg must be matching non-empty 1-D arrays")
        if not 0.0 <= damping <= 1.0:
            raise ValueError("damping must be in [0, 1]")
        self.ranks = ranks
        self.outdeg = outdeg
        self.damping = damping
        self.n_pages = len(ranks)
        self.fmt = edges_format()
        # Precompute per-source share once; avoids a divide per edge.
        safe = np.where(outdeg > 0, outdeg, 1.0)
        self._share = ranks / safe

    def create_reduction_object(self) -> ArrayReductionObject:
        return ArrayReductionObject((self.n_pages,), np.float64, "add")

    def local_reduction(self, robj: ReductionObject, unit_group: np.ndarray) -> None:
        assert isinstance(robj, ArrayReductionObject)
        # Scatter each edge's share straight into the object: the cost is
        # per edge, not per page (a dense n_pages temporary per group
        # would be zeroed, faulted in and added for a few edges), and
        # one object folding groups in order sums exactly as
        # ``pagerank_step``'s single bincount does.
        np.add.at(robj.data, unit_group[:, 1], self._share[unit_group[:, 0]])

    def local_reduction_batch(self, robj: ReductionObject, units: np.ndarray) -> None:
        self.local_reduction(robj, units)

    def finalize(self, robj: ReductionObject) -> np.ndarray:
        dangling = float(self.ranks[self.outdeg == 0].sum())
        n = self.n_pages
        # One output buffer, updated in place (``robj`` is not touched):
        # the object is n_pages floats, and each temporary of that size
        # is a fresh block of pages to fault in.
        out = robj.value() + dangling / n
        out *= self.damping
        out += (1.0 - self.damping) / n
        return out

    compute_s_per_unit = 8.0e-8  # low-to-medium computation per edge


class PageRankMapReduceSpec(MapReduceSpec):
    """Baseline MapReduce pagerank step: one pair per edge (dst, contrib)."""

    def __init__(self, ranks: np.ndarray, outdeg: np.ndarray, damping: float = 0.85,
                 with_combiner: bool = True) -> None:
        self.ranks = np.asarray(ranks, dtype=np.float64)
        self.outdeg = np.asarray(outdeg, dtype=np.float64)
        self.damping = damping
        self.n_pages = len(self.ranks)
        self.fmt = edges_format()
        safe = np.where(self.outdeg > 0, self.outdeg, 1.0)
        self._share = self.ranks / safe
        self._with_combiner = with_combiner

    def map(self, unit_group: np.ndarray) -> Iterator[tuple[Hashable, Any]]:
        contrib = self._share[unit_group[:, 0]]
        for dst, c in zip(unit_group[:, 1].tolist(), contrib.tolist()):
            yield dst, c

    @property
    def has_combiner(self) -> bool:
        return self._with_combiner

    def combine(self, key: Hashable, values: Sequence[Any]) -> Any:
        return sum(values)

    def reduce(self, key: Hashable, values: Sequence[Any]) -> Any:
        return sum(values)

    def finalize(self, output: dict) -> np.ndarray:
        incoming = np.zeros(self.n_pages)
        for dst, total in output.items():
            incoming[dst] = total
        dangling = float(self.ranks[self.outdeg == 0].sum())
        n = self.n_pages
        return (1.0 - self.damping) / n + self.damping * (incoming + dangling / n)


def pagerank_step(edges: np.ndarray, ranks: np.ndarray, outdeg: np.ndarray,
                  damping: float = 0.85) -> np.ndarray:
    """Reference single-machine power-iteration step (for tests)."""
    n = len(ranks)
    safe = np.where(outdeg > 0, outdeg, 1.0)
    contrib = (ranks / safe)[edges[:, 0]]
    incoming = np.bincount(edges[:, 1], weights=contrib, minlength=n)
    dangling = float(ranks[outdeg == 0].sum())
    return (1.0 - damping) / n + damping * (incoming + dangling / n)


def pagerank_reference(edges: np.ndarray, n_pages: int, damping: float = 0.85,
                       tol: float = 1e-10, max_iter: int = 200) -> np.ndarray:
    """Iterate to convergence on one machine (for validation)."""
    outdeg = out_degrees(edges, n_pages)
    ranks = np.full(n_pages, 1.0 / n_pages)
    for _ in range(max_iter):
        new = pagerank_step(edges, ranks, outdeg, damping)
        if np.abs(new - ranks).sum() < tol:
            return new
        ranks = new
    return ranks


def _make_gr_spec(state: tuple[np.ndarray, np.ndarray], *, damping: float = 0.85, **_ignored):
    ranks, outdeg = state
    return PageRankSpec(ranks, outdeg, damping)


def _make_mr_spec(state: tuple[np.ndarray, np.ndarray], *, damping: float = 0.85,
                  with_combiner: bool = True, **_ignored):
    ranks, outdeg = state
    return PageRankMapReduceSpec(ranks, outdeg, damping, with_combiner)


PAGERANK_APP = register_application(
    Application(
        name="pagerank",
        make_format=lambda **_: edges_format(),
        generate=lambda n_units, seed=0, n_pages=1000, **kw: generate_edges(
            n_pages, n_units, seed=seed, **{k: v for k, v in kw.items() if k == "zipf_a"}
        ),
        make_gr_spec=_make_gr_spec,
        make_mr_spec=_make_mr_spec,
        default_params={"n_pages": 1000, "damping": 0.85},
        profile="balanced",
    )
)
