"""Unit tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.data.dataset import canonical_profile


class TestConstruction:
    def test_from_profiles_basic(self):
        ds = Dataset.from_profiles([[1, 2], [0], [2, 3, 4]], n_items=5)
        assert ds.n_users == 3
        assert ds.n_items == 5
        assert ds.n_ratings == 6
        assert list(ds.profile(0)) == [1, 2]
        assert list(ds.profile(2)) == [2, 3, 4]

    def test_from_profiles_dedupes_and_sorts(self):
        ds = Dataset.from_profiles([[3, 1, 3, 2, 1]])
        assert list(ds.profile(0)) == [1, 2, 3]

    def test_from_profiles_infers_n_items(self):
        ds = Dataset.from_profiles([[0, 7], [2]])
        assert ds.n_items == 8

    def test_from_profiles_empty_profile(self):
        ds = Dataset.from_profiles([[], [1]], n_items=3)
        assert ds.profile(0).size == 0
        assert ds.profile_sizes[0] == 0

    def test_from_profiles_no_users(self):
        ds = Dataset.from_profiles([], n_items=4)
        assert ds.n_users == 0
        assert ds.n_ratings == 0

    def test_from_ratings_basic(self):
        ds = Dataset.from_ratings(
            users=np.array([0, 0, 1, 2, 2, 2]),
            items=np.array([1, 2, 0, 4, 3, 2]),
        )
        assert ds.n_users == 3
        assert list(ds.profile(2)) == [2, 3, 4]

    def test_from_ratings_dedupes_pairs(self):
        ds = Dataset.from_ratings(
            users=np.array([0, 0, 0]), items=np.array([1, 1, 2])
        )
        assert ds.n_ratings == 2

    def test_from_ratings_user_gap(self):
        ds = Dataset.from_ratings(
            users=np.array([0, 3]), items=np.array([1, 1]), n_users=5
        )
        assert ds.n_users == 5
        assert ds.profile(1).size == 0
        assert list(ds.profile(3)) == [1]

    def test_from_ratings_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            Dataset.from_ratings(np.array([0]), np.array([1, 2]))

    def test_malformed_indptr_rejected(self):
        with pytest.raises(ValueError, match="indptr"):
            Dataset(
                indptr=np.array([1, 2]),
                indices=np.array([0, 1], dtype=np.int32),
                n_items=2,
            )

    def test_decreasing_indptr_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Dataset(
                indptr=np.array([0, 2, 1, 2]),
                indices=np.array([0, 1], dtype=np.int32),
                n_items=2,
            )

    def test_item_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="item ids"):
            Dataset.from_profiles([[5]], n_items=3)


class TestAccessors:
    def test_profile_sizes(self, tiny_dataset):
        assert list(tiny_dataset.profile_sizes) == [4, 4, 4, 3, 5, 2]

    def test_profile_set(self, tiny_dataset):
        assert tiny_dataset.profile_set(3) == {5, 6, 7}

    def test_iter_profiles(self, tiny_dataset):
        pairs = list(tiny_dataset.iter_profiles())
        assert len(pairs) == 6
        assert pairs[0][0] == 0
        assert list(pairs[5][1]) == [0, 3]

    def test_density(self):
        ds = Dataset.from_profiles([[0, 1], [2, 3]], n_items=4)
        assert ds.density == pytest.approx(4 / 8)

    def test_density_empty(self):
        ds = Dataset.from_profiles([], n_items=0)
        assert ds.density == 0.0

    def test_to_csr_matrix(self, tiny_dataset):
        m = tiny_dataset.to_csr_matrix()
        assert m.shape == (6, 9)
        assert m.sum() == tiny_dataset.n_ratings
        assert m[0, 3] == 1
        assert m[3, 0] == 0


class TestSubset:
    def test_subset_reindexes(self, tiny_dataset):
        sub = tiny_dataset.subset(np.array([2, 4]))
        assert sub.n_users == 2
        assert list(sub.profile(0)) == list(tiny_dataset.profile(2))
        assert list(sub.profile(1)) == list(tiny_dataset.profile(4))

    def test_subset_keeps_item_universe(self, tiny_dataset):
        sub = tiny_dataset.subset(np.array([0]))
        assert sub.n_items == tiny_dataset.n_items

    def test_subset_empty(self, tiny_dataset):
        sub = tiny_dataset.subset(np.array([], dtype=np.int64))
        assert sub.n_users == 0


class TestCanonicalProfile:
    @pytest.mark.parametrize(
        "raw",
        [[], [7], [5, 1, 5, 3], (2, 2, 2), np.array([9, 0, 4], dtype=np.int32),
         np.array([[3, 1], [1, 2]])],
    )
    def test_equals_np_unique_on_raw_input(self, raw):
        got = canonical_profile(raw)
        want = np.unique(np.asarray(raw, dtype=np.int64))
        assert got.dtype == np.int64 and got.ndim == 1
        assert np.array_equal(got, want)

    def test_canonical_input_returned_as_is(self):
        canon = np.array([1, 4, 9], dtype=np.int64)
        assert canonical_profile(canon) is canon
        # Sorted but with a repeat is not canonical: deduplicated.
        assert np.array_equal(canonical_profile(np.array([1, 4, 4])), [1, 4])
