"""Unit tests for reduction objects."""

import numpy as np
import pytest

from repro.core.reduction_object import (
    ArrayReductionObject,
    DictReductionObject,
    TopKReductionObject,
)


class TestArrayReductionObject:
    def test_add_identity(self):
        robj = ArrayReductionObject((3,), np.float64, "add")
        assert np.array_equal(robj.value(), np.zeros(3))

    def test_min_max_identities(self):
        assert np.all(np.isinf(ArrayReductionObject((2,), np.float64, "minimum").value()))
        assert np.all(np.isneginf(ArrayReductionObject((2,), np.float64, "maximum").value()))

    def test_merge_add(self):
        a = ArrayReductionObject((2,), np.float64, "add", data=np.array([1.0, 2.0]))
        b = ArrayReductionObject((2,), np.float64, "add", data=np.array([10.0, 20.0]))
        a.merge(b)
        assert np.array_equal(a.value(), [11.0, 22.0])

    def test_merge_minimum(self):
        a = ArrayReductionObject((2,), np.float64, "minimum", data=np.array([1.0, 9.0]))
        b = ArrayReductionObject((2,), np.float64, "minimum", data=np.array([5.0, 2.0]))
        a.merge(b)
        assert np.array_equal(a.value(), [1.0, 2.0])

    def test_merge_in_place(self):
        a = ArrayReductionObject((2,))
        buf = a.data
        a.merge(ArrayReductionObject((2,), data=np.ones(2)))
        assert a.data is buf

    def test_merge_wrong_op_rejected(self):
        a = ArrayReductionObject((2,), op="add")
        b = ArrayReductionObject((2,), op="minimum")
        with pytest.raises(TypeError):
            a.merge(b)

    def test_merge_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            ArrayReductionObject((2,)).merge(DictReductionObject(lambda x, y: x + y))

    def test_copy_empty_is_identity(self):
        a = ArrayReductionObject((2, 3), np.float32, "add", data=np.ones((2, 3), np.float32))
        e = a.copy_empty()
        assert np.array_equal(e.value(), np.zeros((2, 3)))
        assert e.dtype == np.float32

    def test_nbytes(self):
        assert ArrayReductionObject((4, 2), np.float64).nbytes == 64

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            ArrayReductionObject((2,), op="multiply")

    def test_integer_min_rejected(self):
        with pytest.raises(ValueError):
            ArrayReductionObject((2,), np.int64, "minimum")

    def test_data_shape_mismatch(self):
        with pytest.raises(ValueError):
            ArrayReductionObject((2,), data=np.zeros(3))


class TestDictReductionObject:
    def make(self):
        return DictReductionObject(combiner=lambda a, b: a + b, value_nbytes=10)

    def test_update_new_and_existing(self):
        d = self.make()
        d.update("a", 1)
        d.update("a", 2)
        d.update("b", 5)
        assert d.value() == {"a": 3, "b": 5}

    def test_merge(self):
        a, b = self.make(), self.make()
        a.update("x", 1)
        b.update("x", 2)
        b.update("y", 7)
        a.merge(b)
        assert a.value() == {"x": 3, "y": 7}

    def test_nbytes_scales_with_keys(self):
        d = self.make()
        d.update("a", 1)
        d.update("b", 1)
        assert d.nbytes == 20

    def test_copy_empty(self):
        d = self.make()
        d.update("a", 1)
        assert d.copy_empty().value() == {}

    def test_custom_combiner(self):
        d = DictReductionObject(combiner=max)
        d.update("k", 3)
        d.update("k", 9)
        d.update("k", 5)
        assert d.value() == {"k": 9}

    def test_merge_wrong_type(self):
        with pytest.raises(TypeError):
            self.make().merge(ArrayReductionObject((1,)))


class TestTopKReductionObject:
    def test_keeps_k_smallest(self):
        t = TopKReductionObject(3)
        t.update_batch(np.array([5.0, 1.0, 9.0, 3.0, 7.0]), list("abcde"))
        assert [(s, p) for s, p in t.value()] == [(1.0, "b"), (3.0, "d"), (5.0, "a")]

    def test_keeps_k_largest(self):
        t = TopKReductionObject(2, largest=True)
        t.update_batch(np.array([5.0, 1.0, 9.0]), list("abc"))
        assert t.value() == [(9.0, "c"), (5.0, "a")]

    def test_incremental_batches_equal_single_batch(self):
        scores = np.arange(20.0)[::-1]
        t1 = TopKReductionObject(5)
        t1.update_batch(scores, list(range(20)))
        t2 = TopKReductionObject(5)
        t2.update_batch(scores[:7], list(range(7)))
        t2.update_batch(scores[7:], list(range(7, 20)))
        assert t1.value() == t2.value()

    def test_fewer_than_k(self):
        t = TopKReductionObject(10)
        t.update_batch(np.array([2.0, 1.0]), ["x", "y"])
        assert t.value() == [(1.0, "y"), (2.0, "x")]

    def test_merge(self):
        a = TopKReductionObject(2)
        b = TopKReductionObject(2)
        a.update_batch(np.array([4.0, 8.0]), ["a4", "a8"])
        b.update_batch(np.array([1.0, 6.0]), ["b1", "b6"])
        a.merge(b)
        assert a.value() == [(1.0, "b1"), (4.0, "a4")]

    def test_merge_k_mismatch(self):
        with pytest.raises(ValueError):
            TopKReductionObject(2).merge(TopKReductionObject(3))

    def test_merge_direction_mismatch(self):
        with pytest.raises(TypeError):
            TopKReductionObject(2).merge(TopKReductionObject(2, largest=True))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            TopKReductionObject(2).update_batch(np.array([1.0]), ["a", "b"])

    def test_nbytes(self):
        t = TopKReductionObject(5, entry_nbytes=24)
        t.update_batch(np.array([1.0, 2.0]), ["a", "b"])
        assert t.nbytes == 48

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKReductionObject(0)
