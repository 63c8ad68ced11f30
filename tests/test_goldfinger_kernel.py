"""The GoldFinger block kernel against a popcount reference, and pinned builds.

The library scores blocks with a float32 GEMM of unpacked bits and takes
unions from cached fingerprint sizes. The reference below is the direct
definition, ``popcount(a & b) / popcount(a | b)`` in broadcast
temporaries; it lives only here. Every kernel must equal it bit for bit.

The pinned builds hold fixed-seed GoldFinger KNN graphs (C², brute
force, NN-Descent, LSH) to their recorded edge digests, per-row
id→score maps and comparison counts, so a kernel or scheduling change
that moves any score or tie shows up here.
"""

import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro import C2Params, cluster_and_conquer
from repro.baselines import brute_force_knn, lsh_knn, nndescent_knn
from repro.data import Dataset, SyntheticSpec, generate
from repro.graph.heap import edge_digest
from repro.similarity import GoldFinger, make_engine
from repro.similarity import goldfinger as goldfinger_module


def reference_block(gf, us, vs):
    a, b = gf.fingerprints[us], gf.fingerprints[vs]
    inter = np.bitwise_count(a[:, None, :] & b[None, :, :]).sum(axis=2).astype(np.float64)
    union = np.bitwise_count(a[:, None, :] | b[None, :, :]).sum(axis=2).astype(np.float64)
    out = np.zeros_like(inter)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out


def reference_pair(gf, u, v):
    a, b = gf.fingerprints[u], gf.fingerprints[v]
    inter = int(np.bitwise_count(a & b).sum())
    union = int(np.bitwise_count(a | b).sum())
    return inter / union if union else 0.0


def _profiles_dataset(seed=5, n_users=90, n_items=3000):
    """Random profiles of 0..80 items; every fifth user is empty."""
    rng = np.random.default_rng(seed)
    profiles = [
        [] if u % 5 == 0 else rng.choice(n_items, size=int(rng.integers(1, 80)), replace=False)
        for u in range(n_users)
    ]
    return Dataset.from_profiles(profiles, n_items=n_items)


@pytest.fixture(scope="module")
def profiles():
    return _profiles_dataset()


WIDTHS = [64, 1024, 8192]


@pytest.mark.parametrize("n_bits", WIDTHS)
class TestKernelMatchesPopcount:
    def test_distinct_sides(self, profiles, n_bits):
        gf = GoldFinger(profiles, n_bits=n_bits)
        us, vs = np.arange(3, 40), np.arange(25, 90)
        assert np.array_equal(gf.estimate_block(us, vs), reference_block(gf, us, vs))

    def test_same_sides(self, profiles, n_bits):
        gf = GoldFinger(profiles, n_bits=n_bits)
        us = np.arange(profiles.n_users)
        want = reference_block(gf, us, us)
        assert np.array_equal(gf.estimate_block(us, us), want)
        assert np.array_equal(gf.estimate_block(us, us.copy()), want)
        assert np.array_equal(gf.estimate_matrix(us), want)

    def test_duplicate_ids(self, profiles, n_bits):
        gf = GoldFinger(profiles, n_bits=n_bits)
        us = np.array([7, 7, 3, 0, 7, 12, 3])
        vs = np.array([3, 3, 5, 0, 0])
        assert np.array_equal(gf.estimate_block(us, vs), reference_block(gf, us, vs))
        assert np.array_equal(gf.estimate_matrix(us), reference_block(gf, us, us))

    def test_stack_matches_per_group(self, profiles, n_bits):
        gf = GoldFinger(profiles, n_bits=n_bits)
        groups = np.random.default_rng(1).permutation(84).reshape(7, 12)
        got = gf.estimate_stack(groups)
        for pos, users in enumerate(groups):
            assert np.array_equal(got[pos], reference_block(gf, users, users))

    def test_empty_fingerprints_score_zero(self, profiles, n_bits):
        gf = GoldFinger(profiles, n_bits=n_bits)
        empty = np.arange(0, profiles.n_users, 5)
        assert (gf._sizes[empty] == 0).all()
        us = np.concatenate([empty, np.arange(1, 5)])
        block = gf.estimate_block(us, us)
        assert not np.isnan(block).any()
        assert (block[: empty.size] == 0.0).all()
        assert (gf.estimate_stack(empty[None, :]) == 0.0).all()
        assert gf.estimate_pair(0, 5) == 0.0

    def test_pair_and_one_to_many(self, profiles, n_bits):
        gf = GoldFinger(profiles, n_bits=n_bits)
        others = np.arange(profiles.n_users)
        for u in (0, 1, 2, 44):
            want = np.array([reference_pair(gf, u, int(v)) for v in others])
            assert np.array_equal(gf.estimate_one_to_many(u, others), want)
            assert [gf.estimate_pair(u, int(v)) for v in others] == want.tolist()
        query = gf.fingerprint_profile(np.array([1, 5, 9, 2999, 5000]))
        got = gf.estimate_fp_one_to_many(query, others)
        inter = np.bitwise_count(query & gf.fingerprints).sum(axis=1)
        union = np.bitwise_count(query | gf.fingerprints).sum(axis=1)
        assert np.array_equal(got, np.where(union > 0, inter / np.maximum(union, 1), 0.0))


class TestTiling:
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 7, 9])
    def test_block_sizes_around_a_small_tile(self, profiles, monkeypatch, rows):
        gf = GoldFinger(profiles, n_bits=256)
        monkeypatch.setattr(goldfinger_module, "_TILE_CELLS", 3 * gf.n_bits)  # 3 rows per tile
        us = np.arange(10, 10 + rows)
        vs = np.arange(40, 40 + (12 - rows))
        assert np.array_equal(gf.estimate_block(us, vs), reference_block(gf, us, vs))
        assert np.array_equal(gf.estimate_block(vs, us), reference_block(gf, vs, us))
        assert np.array_equal(gf.estimate_matrix(us), reference_block(gf, us, us))
        groups = np.arange(rows * 4).reshape(4, rows)
        got = gf.estimate_stack(groups)
        for pos, users in enumerate(groups):
            assert np.array_equal(got[pos], reference_block(gf, users, users))

    @pytest.mark.parametrize("rows", [511, 513])
    def test_block_sizes_around_the_real_tile(self, rows):
        dataset = _profiles_dataset(seed=9, n_users=520)
        gf = GoldFinger(dataset, n_bits=8192)
        assert goldfinger_module._TILE_CELLS // gf.n_bits == 512
        us, vs = np.arange(rows), np.arange(dataset.n_users)[::-1][:7]
        assert np.array_equal(gf.estimate_block(us, vs), reference_block(gf, us, vs))
        assert np.array_equal(gf.estimate_block(vs, us), reference_block(gf, vs, us))
        assert np.array_equal(gf.estimate_matrix(us), reference_block(gf, us, us))


# ----------------------------------------------------------------------
# Builds pinned to values recorded before the GEMM kernel replaced the
# popcount one.
# ----------------------------------------------------------------------


def row_maps_digest(graph) -> int:
    """crc32 of every row's (id, score) pairs, ordered by id."""
    ids = graph.heaps.ids[: graph.n_users]
    scores = graph.heaps.scores[: graph.n_users]
    order = np.argsort(ids, axis=1, kind="stable")
    return zlib.crc32(
        np.take_along_axis(ids, order, axis=1).tobytes()
        + np.take_along_axis(scores, order, axis=1).tobytes()
    )


def _pin(result):
    return edge_digest(result.graph.heaps), row_maps_digest(result.graph), result.comparisons


@pytest.fixture(scope="module")
def wide_dataset():
    """1200 users in few communities: unsplit clusters exceed 512 users."""
    spec = SyntheticSpec(
        name="wide",
        n_users=1200,
        n_items=900,
        mean_profile_size=30.0,
        n_communities=3,
        community_pool_size=150,
        min_profile_size=8,
    )
    return generate(spec, seed=11)


C2_SMALL = C2Params(k=10, n_buckets=32, n_hashes=4, split_threshold=100, seed=3)
# k=20 puts the brute-force/Hyrec switch at 2000 users, so clusters of
# more than 512 take the row-blocked path.
C2_WIDE = C2Params(k=20, n_buckets=2, n_hashes=2, split_threshold=None, seed=4)

# (edge_digest, row_maps_digest, comparisons)
PINS = {
    "c2_small": (649125011, 1329991824, 80519),
    "c2_wide": (3567692980, 3763249775, 1438800),
    "brute_force": (3596515029, 2556995388, 319600),
    "nndescent": (2730503452, 2586249376, 92471),
    "lsh": (3385881354, 3460598107, 118232),
}


class TestPinnedBuilds:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_c2_small_clusters(self, medium_dataset, n_workers):
        engine = make_engine(medium_dataset, backend="goldfinger", n_bits=1024)
        params = replace(C2_SMALL, n_workers=n_workers)
        assert _pin(cluster_and_conquer(engine, params)) == PINS["c2_small"]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_c2_wide_clusters(self, wide_dataset, n_workers):
        engine = make_engine(wide_dataset, backend="goldfinger", n_bits=1024)
        params = replace(C2_WIDE, n_workers=n_workers)
        result = cluster_and_conquer(engine, params)
        assert result.extra["max_cluster_size"] > 512
        assert _pin(result) == PINS["c2_wide"]

    def test_brute_force(self, medium_dataset):
        engine = make_engine(medium_dataset, backend="goldfinger", n_bits=1024)
        assert _pin(brute_force_knn(engine, k=10)) == PINS["brute_force"]

    def test_nndescent(self, small_dataset):
        engine = make_engine(small_dataset, backend="goldfinger", n_bits=1024)
        assert _pin(nndescent_knn(engine, k=10, seed=5)) == PINS["nndescent"]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_lsh(self, medium_dataset, n_workers):
        engine = make_engine(medium_dataset, backend="goldfinger", n_bits=1024)
        result = lsh_knn(engine, k=10, n_hashes=4, n_workers=n_workers, seed=6)
        assert _pin(result) == PINS["lsh"]
