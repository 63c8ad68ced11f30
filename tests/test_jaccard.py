"""Unit tests for repro.similarity.jaccard and cosine."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.similarity import (
    cosine_matrix,
    cosine_one_to_many,
    cosine_pair,
    intersection_size,
    jaccard_matrix,
    jaccard_one_to_many,
    jaccard_pair,
)
from repro.similarity.jaccard import jaccard_block


def arr(*xs):
    return np.array(xs, dtype=np.int64)


class TestPairwise:
    def test_jaccard_known_value(self):
        assert jaccard_pair(arr(0, 1, 2, 3), arr(0, 1, 2, 4)) == pytest.approx(3 / 5)

    def test_jaccard_identical(self):
        assert jaccard_pair(arr(1, 2), arr(1, 2)) == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard_pair(arr(0, 1), arr(2, 3)) == 0.0

    def test_jaccard_empty(self):
        assert jaccard_pair(arr(), arr()) == 0.0

    def test_intersection_size(self):
        assert intersection_size(arr(1, 3, 5), arr(3, 5, 7)) == 2

    def test_cosine_known_value(self):
        # |inter|=2, sizes 4 and 1 -> 2/sqrt(4) with b size 1: pick clean case
        assert cosine_pair(arr(0, 1), arr(0, 1)) == pytest.approx(1.0)
        assert cosine_pair(arr(0, 1, 2, 3), arr(0, 1)) == pytest.approx(2 / np.sqrt(8))

    def test_cosine_empty(self):
        assert cosine_pair(arr(), arr(1)) == 0.0


class TestOneToMany:
    def test_matches_pairwise(self, tiny_dataset):
        others = np.array([1, 2, 3, 4, 5])
        got = jaccard_one_to_many(tiny_dataset, 0, others)
        want = [
            jaccard_pair(tiny_dataset.profile(0), tiny_dataset.profile(int(v)))
            for v in others
        ]
        np.testing.assert_allclose(got, want)

    def test_empty_others(self, tiny_dataset):
        assert jaccard_one_to_many(tiny_dataset, 0, np.array([])).size == 0

    def test_empty_profiles_anywhere_in_others(self):
        """An empty profile last in ``others`` must score 0, not index
        past the end of the gathered items."""
        ds = Dataset.from_profiles([[1, 2, 3], [2], [], [3]], n_items=5)
        for others in (arr(1, 2), arr(2, 1, 2), arr(2), arr(3, 2, 2)):
            want = [jaccard_pair(ds.profile(0), ds.profile(int(v))) for v in others]
            np.testing.assert_allclose(jaccard_one_to_many(ds, 0, others), want)

    def test_cosine_matches_pairwise(self, tiny_dataset):
        others = np.array([1, 3, 4])
        got = cosine_one_to_many(tiny_dataset, 0, others)
        want = [
            cosine_pair(tiny_dataset.profile(0), tiny_dataset.profile(int(v)))
            for v in others
        ]
        np.testing.assert_allclose(got, want)


class TestMatrixAndBlock:
    def test_matrix_symmetric_unit_diagonal(self, tiny_dataset):
        m = jaccard_matrix(tiny_dataset)
        np.testing.assert_allclose(m, m.T)
        np.testing.assert_allclose(np.diag(m), 1.0)

    def test_matrix_matches_pairwise(self, tiny_dataset):
        m = jaccard_matrix(tiny_dataset)
        assert m[0, 1] == pytest.approx(3 / 5)
        assert m[0, 2] == pytest.approx(1.0)
        assert m[0, 3] == pytest.approx(0.0)

    def test_matrix_subset(self, tiny_dataset):
        m = jaccard_matrix(tiny_dataset, users=np.array([0, 3]))
        assert m.shape == (2, 2)
        assert m[0, 1] == pytest.approx(0.0)

    def test_block_matches_matrix(self, tiny_dataset):
        full = jaccard_matrix(tiny_dataset)
        blk = jaccard_block(tiny_dataset, np.array([0, 2]), np.array([1, 3, 4]))
        np.testing.assert_allclose(blk, full[np.ix_([0, 2], [1, 3, 4])])

    def test_cosine_matrix_diagonal(self, tiny_dataset):
        m = cosine_matrix(tiny_dataset)
        np.testing.assert_allclose(np.diag(m), 1.0)

    def test_jaccard_le_cosine(self, small_dataset):
        """For binary sets J <= cosine everywhere (AM-GM inequality)."""
        j = jaccard_matrix(small_dataset, users=np.arange(50))
        c = cosine_matrix(small_dataset, users=np.arange(50))
        assert np.all(j <= c + 1e-12)
