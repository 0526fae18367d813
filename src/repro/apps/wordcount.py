"""Wordcount over token-id streams.

Not one of the paper's three evaluation applications, but the canonical
MapReduce workload and the clearest demonstration of the API ablation:
plain MapReduce materializes one (token, 1) pair per input token, while
generalized reduction folds each group into a sparse counter directly.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, Sequence

import numpy as np

from repro.apps.base import Application, register_application
from repro.core.api import GeneralizedReductionSpec
from repro.core.mapreduce_api import MapReduceSpec
from repro.core.reduction_object import CounterReductionObject, ReductionObject
from repro.data.formats import tokens_format
from repro.data.generator import generate_tokens

__all__ = ["WordCountSpec", "WordCountMapReduceSpec", "wordcount_exact", "WORDCOUNT_APP"]


class WordCountSpec(GeneralizedReductionSpec):
    """Generalized-reduction wordcount: robj is a token counter.

    The fold counts, it does not sort: see
    :class:`~repro.core.reduction_object.CounterReductionObject` for when
    a chunk is counted densely and when it falls back to the sort.
    """

    def __init__(self) -> None:
        self.fmt = tokens_format()

    def create_reduction_object(self) -> CounterReductionObject:
        return CounterReductionObject()

    def local_reduction(self, robj: ReductionObject, unit_group: np.ndarray) -> None:
        assert isinstance(robj, CounterReductionObject)
        robj.count(unit_group)

    def local_reduction_batch(self, robj: ReductionObject, units: np.ndarray) -> None:
        # Whole-chunk counting: one bincount per chunk instead of per group.
        self.local_reduction(robj, units)

    def finalize(self, robj: ReductionObject) -> dict[int, int]:
        return robj.value()

    compute_s_per_unit = 1.5e-8


class WordCountMapReduceSpec(MapReduceSpec):
    """Baseline MapReduce wordcount: one (token, 1) pair per token."""

    def __init__(self, with_combiner: bool = True) -> None:
        self.fmt = tokens_format()
        self._with_combiner = with_combiner

    def map(self, unit_group: np.ndarray) -> Iterator[tuple[Hashable, Any]]:
        for tok in unit_group.tolist():
            yield tok, 1

    @property
    def has_combiner(self) -> bool:
        return self._with_combiner

    def combine(self, key: Hashable, values: Sequence[Any]) -> Any:
        return sum(values)

    def reduce(self, key: Hashable, values: Sequence[Any]) -> Any:
        return sum(values)

    def finalize(self, output: dict) -> dict[int, int]:
        return {int(k): int(v) for k, v in output.items()}


def wordcount_exact(tokens: np.ndarray) -> dict[int, int]:
    """Reference counts (for tests)."""
    uniq, counts = np.unique(tokens, return_counts=True)
    return {int(t): int(c) for t, c in zip(uniq, counts)}


WORDCOUNT_APP = register_application(
    Application(
        name="wordcount",
        make_format=lambda **_: tokens_format(),
        generate=lambda n_units, seed=0, vocab_size=1000, **kw: generate_tokens(
            n_units, vocab_size, seed=seed, **{k: v for k, v in kw.items() if k == "zipf_a"}
        ),
        make_gr_spec=lambda *_state, **_ignored: WordCountSpec(),
        make_mr_spec=lambda *_state, with_combiner=True, **_ignored: WordCountMapReduceSpec(with_combiner),
        default_params={"vocab_size": 1000},
        profile="io-bound",
    )
)
