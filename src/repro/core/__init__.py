"""Core processing APIs: generalized reduction and MapReduce specs."""

from repro.core.api import (
    GeneralizedReductionSpec,
    run_local_pass,
    supports_batch_fold,
    supports_pushdown,
    tree_global_reduction,
    uses_default_global_reduction,
)
from repro.core.combiners import COMBINERS, get_combiner, register_combiner
from repro.core.mapreduce_api import MapReduceSpec
from repro.core.reduction_object import (
    ArrayReductionObject,
    CounterReductionObject,
    DictReductionObject,
    ReductionObject,
    TopKReductionObject,
)
from repro.core.stats_objects import HistogramReductionObject, MomentsReductionObject
from repro.core.serialization import (
    deserialize_robj,
    deserialize_robj_oob,
    serialize_robj,
    serialize_robj_oob,
    serialized_nbytes,
)

__all__ = [
    "GeneralizedReductionSpec",
    "run_local_pass",
    "supports_batch_fold",
    "supports_pushdown",
    "tree_global_reduction",
    "uses_default_global_reduction",
    "COMBINERS",
    "get_combiner",
    "register_combiner",
    "MapReduceSpec",
    "ArrayReductionObject",
    "CounterReductionObject",
    "DictReductionObject",
    "ReductionObject",
    "TopKReductionObject",
    "HistogramReductionObject",
    "MomentsReductionObject",
    "deserialize_robj",
    "deserialize_robj_oob",
    "serialize_robj",
    "serialize_robj_oob",
    "serialized_nbytes",
]
