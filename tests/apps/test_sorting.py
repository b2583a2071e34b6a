"""Tests for project 2: parallel quicksort three ways."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sorting import COST_PER_ELEMENT, VARIANTS, quicksort, quicksort_chunks, random_array
from repro.executor import InlineExecutor, SimExecutor
from repro.machine import MachineSpec


class TestCorrectness:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sorts(self, executor, variant):
        data = random_array(500, seed=1)
        assert quicksort(executor, data, variant=variant) == sorted(data)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_empty_and_single(self, executor, variant):
        assert quicksort(executor, [], variant=variant) == []
        assert quicksort(executor, [7], variant=variant) == [7]

    def test_duplicates(self, executor):
        data = [3, 1, 3, 1, 3] * 40
        assert quicksort(executor, data, variant="ptask", cutoff=8) == sorted(data)

    def test_already_sorted(self, executor):
        data = list(range(300))
        assert quicksort(executor, data, variant="ptask") == data

    def test_reverse_sorted(self, executor):
        data = list(range(300, 0, -1))
        assert quicksort(executor, data, variant="threads") == sorted(data)

    def test_unknown_variant(self, executor):
        with pytest.raises(ValueError):
            quicksort(executor, [1], variant="bogo")

    def test_cutoff_validation(self, executor):
        with pytest.raises(ValueError):
            quicksort(executor, [1], cutoff=0)

    def test_input_not_mutated(self, executor):
        data = [3, 1, 2]
        quicksort(executor, data, variant="ptask")
        assert data == [3, 1, 2]

    @given(st.lists(st.integers(-10**6, 10**6), max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_property_matches_sorted(self, xs):
        ex = InlineExecutor()
        for variant in VARIANTS:
            assert quicksort(ex, xs, variant=variant, cutoff=16) == sorted(xs)


def mask_bucket_sizes(data: np.ndarray, parts: int) -> list[int]:
    """Reference split: the samplesort's pivots, then one mask per bucket."""
    sample = np.sort(data[:: max(1, len(data) // (parts * 32))])
    pivots = sample[np.linspace(0, len(sample) - 1, parts + 1).astype(int)[1:-1]]
    which = np.searchsorted(pivots, data, side="right")
    return [int(np.count_nonzero(which == i)) for i in range(parts)]


@st.composite
def samplesort_inputs(draw):
    """Ints or floats from a small pool, so duplicates are common, floats
    with NaN and infinities, and chunk counts that outnumber the distinct
    values (empty buckets) or the elements (no split at all)."""
    if draw(st.booleans()):
        data = np.array(draw(st.lists(st.integers(-4, 4), max_size=400)), dtype=np.int64)
    else:
        pool = st.sampled_from([np.nan, -np.inf, np.inf, -0.5, 0.0, 0.25, 1e300])
        values = draw(st.lists(st.one_of(pool, st.floats(-1, 1)), max_size=400))
        data = np.array(values, dtype=np.float64)
    return data, draw(st.integers(1, len(data) + 3))


class TestSamplesortSplit:
    """``quicksort_chunks`` splits in one pass and moves no element or cost."""

    @given(samplesort_inputs())
    @settings(max_examples=150, deadline=None)
    def test_sorted_output_and_declared_costs(self, case):
        data, chunks = case
        out = quicksort_chunks(InlineExecutor(), data, chunks=chunks)
        assert out.dtype == data.dtype
        assert np.array_equal(out, np.sort(data), equal_nan=True)

        sim = SimExecutor(MachineSpec(name="m", cores=4, dispatch_overhead=0.0))
        quicksort_chunks(sim, data, chunks=chunks)
        sizes = mask_bucket_sizes(data, chunks) if 1 < chunks < len(data) else []
        declared = {seg.name: seg.cost for seg in sim.graph if seg.name.startswith("bucket[")}
        assert declared == {f"bucket[{i}]": COST_PER_ELEMENT * max(1, n) for i, n in enumerate(sizes)}


class TestSpeedupShapes:
    """Virtual-time checks of the project's performance findings."""

    @staticmethod
    def elapsed(variant, cores, n=4000, cutoff=64):
        ex = SimExecutor(MachineSpec(name="m", cores=cores, dispatch_overhead=0.0))
        data = random_array(n, seed=5)
        quicksort(ex, data, variant=variant, cutoff=cutoff)
        return ex.elapsed()

    @pytest.mark.parametrize("variant", ["ptask", "pyjama", "threads"])
    def test_parallel_beats_sequential(self, variant):
        t_seq = self.elapsed("sequential", 8)
        t_par = self.elapsed(variant, 8)
        assert t_par < t_seq

    def test_speedup_grows_with_cores_then_flattens(self):
        t1 = self.elapsed("ptask", 1)
        t4 = self.elapsed("ptask", 4)
        t16 = self.elapsed("ptask", 16)
        t64 = self.elapsed("ptask", 64)
        assert t4 < t1
        assert t16 < t4
        # sublinear: the sequential partition prefix (Amdahl) bites
        assert t1 / t64 < 64 * 0.6

    def test_tiny_cutoff_hurts_with_overhead(self):
        """Task-per-two-elements drowns in dispatch overhead."""

        def with_overhead(cutoff):
            ex = SimExecutor(MachineSpec(name="m", cores=8, dispatch_overhead=5e-5))
            quicksort(ex, random_array(2000, seed=6), variant="ptask", cutoff=cutoff)
            return ex.elapsed()

        assert with_overhead(2) > with_overhead(64)
