"""Writing your own application against the Generalized Reduction API.

Implements per-dimension summary statistics (min / max / mean /
variance) over a points dataset as a new :class:`GeneralizedReductionSpec`
-- the three pieces the paper asks an application developer for:

* a **reduction object** (here: a dense array of moment accumulators);
* a **local reduction** that folds a whole unit group in, vectorized;
* the default **global reduction** (elementwise merge) plus a custom
  ``finalize`` turning accumulated moments into statistics.

Order independence (required by the runtime, which may process chunks
in any order and steal across sites) comes free from using sums.

Run:  python examples/custom_application.py
"""

import numpy as np

from repro import (
    ArrayReductionObject,
    GeneralizedReductionSpec,
    MemoryStore,
    SimulatedS3Store,
    generate_points,
    points_format,
    run_threaded_bursting,
)


class ColumnStatsSpec(GeneralizedReductionSpec):
    """Per-dimension count/sum/sum-of-squares/min/max in one pass."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.fmt = points_format(dim)

    def create_reduction_object(self) -> ArrayReductionObject:
        # Rows: [count, sum, sumsq, max(-x), max(x)] per dimension.  The
        # first three blocks merge by addition, the extremes by maximum
        # (storing -min as a running max), so global_reduction below
        # overrides the default single-op merge to handle both blocks.
        return ArrayReductionObject((5, self.dim), np.float64, "add", data=self._identity())

    def _identity(self) -> np.ndarray:
        ident = np.zeros((5, self.dim))
        ident[3] = -np.inf  # running max of -x  (tracks min)
        ident[4] = -np.inf  # running max of  x
        return ident

    def local_reduction(self, robj, unit_group: np.ndarray) -> None:
        data = robj.data
        data[0] += unit_group.shape[0]
        data[1] += unit_group.sum(axis=0)
        data[2] += np.einsum("ij,ij->j", unit_group, unit_group)
        np.maximum(data[3], -unit_group.min(axis=0), out=data[3])
        np.maximum(data[4], unit_group.max(axis=0), out=data[4])

    def global_reduction(self, robjs):
        # Moments merge by addition, extremes by maximum: do both blocks
        # explicitly instead of relying on one elementwise op.
        # Into a fresh object: the inputs are the workers' own and are
        # read again after this call.
        result = self.create_reduction_object()
        for other in robjs:
            result.data[:3] += other.data[:3]
            np.maximum(result.data[3:], other.data[3:], out=result.data[3:])
        return result

    def finalize(self, robj):
        count, total, sumsq, neg_min, mx = robj.value()
        mean = total / count
        var = sumsq / count - mean**2
        return {
            "count": int(count[0]),
            "mean": mean,
            "std": np.sqrt(np.maximum(var, 0.0)),
            "min": -neg_min,
            "max": mx,
        }


def main() -> None:
    dim = 5
    points = generate_points(50_000, dim, seed=31)
    stores = {"local": MemoryStore("local"), "cloud": SimulatedS3Store()}
    rr = run_threaded_bursting(
        ColumnStatsSpec(dim), points, stores,
        local_fraction=0.25, local_workers=2, cloud_workers=2,
    )
    stats = rr.result
    print(f"rows: {stats['count']}")
    for name in ("mean", "std", "min", "max"):
        print(f"{name:>5}: {np.round(stats[name], 4).tolist()}")

    # Validate against numpy on the raw array.
    assert stats["count"] == len(points)
    np.testing.assert_allclose(stats["mean"], points.mean(axis=0))
    np.testing.assert_allclose(stats["std"], points.std(axis=0), rtol=1e-9)
    np.testing.assert_allclose(stats["min"], points.min(axis=0))
    np.testing.assert_allclose(stats["max"], points.max(axis=0))
    print("\nAll statistics match numpy. Custom spec works end to end.")


if __name__ == "__main__":
    main()
