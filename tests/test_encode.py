"""Fisher encoding, normalization, embedding, and distance tests."""

import collections.abc
import tracemalloc

import numpy as np
import pytest
from oracles import fisher_fd_oracle, kernel_row_kpca, write_model_file

from patreid.encode import (
    TrainingParams,
    cosine_distance,
    embed_image,
    fisher_encode,
    power_l2_normalize,
    train_vocabulary,
)
from patreid.ingest import ImageFeatures, load_entry_features, load_manifest
from patreid.synth import SynthConfig, generate_benchmark
from patreid.vocab import Gmm, ModelFile, PcaModel, VocabError, fit_gmm, save_vocabulary


def identity_pca(dim):
    return PcaModel(mean=np.zeros(dim), basis=np.eye(dim), eigenvalues=np.ones(dim))


def features_with(descriptors, image_id="img"):
    descriptors = np.atleast_2d(np.asarray(descriptors, dtype=np.float64))
    m = descriptors.shape[0]
    frames = np.zeros((m, 6))
    frames[:, 2] = 1.0
    frames[:, 5] = 1.0
    frames[:, 0] = np.arange(m, dtype=np.float64)
    return ImageFeatures(image_id=image_id, frames=frames, descriptors=descriptors)


def model_bytes(vocabulary, path):
    write_model_file(vocabulary, path)
    return path.read_bytes()


def random_features(rng, m=20, dim=8, image_id="img"):
    desc = rng.standard_normal((m, dim))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    f = features_with(desc, image_id)
    f.frames[:, :2] = rng.random((m, 2))
    return f


def random_gmm(rng, k, dim):
    weights = rng.uniform(0.5, 1.5, k)
    return Gmm(
        weights=weights / weights.sum(),
        means=rng.standard_normal((k, dim)),
        variances=rng.uniform(0.5, 2.0, (k, dim)),
    )


class TestFisherEncode:
    def test_dimension(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 4))
        gmm = fit_gmm(X, k=3, seed=0)
        fv = fisher_encode(features_with(X), identity_pca(4), gmm)
        assert fv.shape == (2 * 3 * 4,)

    def test_matches_finite_difference_oracle(self):
        # The GMM must be independent of the encoded data: a GMM fit to the
        # same sample sits at a stationary point where the gradient (and so
        # the whole Fisher vector) collapses toward zero.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((20, 4))
            gmm = random_gmm(rng, k=3, dim=4)
            fv = fisher_encode(features_with(X), identity_pca(4), gmm)
            fd = fisher_fd_oracle(X, gmm)
            np.testing.assert_allclose(fv, fd, rtol=1e-5, atol=1e-7)

    def test_k1_all_descriptors_at_mean(self):
        mu = np.array([0.3, -0.7, 1.1])
        gmm = Gmm(
            weights=np.ones(1),
            means=mu[None, :],
            variances=np.full((1, 3), 0.8),
        )
        X = np.tile(mu, (7, 1))
        fv = fisher_encode(features_with(X), identity_pca(3), gmm)
        np.testing.assert_allclose(fv[:3], np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(fv[3:], np.full(3, -1.0 / np.sqrt(2.0)), atol=1e-12)

    def test_block_layout_interleaved_per_component(self):
        # Data far into component 0 only: component-1 blocks stay near zero,
        # pinning the [mu_1, sigma_1, mu_2, sigma_2] ordering.
        gmm = Gmm(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [100.0, 100.0]]),
            variances=np.ones((2, 2)),
        )
        X = np.array([[1.0, -1.0], [0.5, 0.5]])
        fv = fisher_encode(features_with(X), identity_pca(2), gmm)
        assert fv.shape == (8,)
        assert np.any(fv[:4] != 0.0)
        np.testing.assert_allclose(fv[4:], 0.0, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((15, 4))
        gmm = fit_gmm(X, k=2, seed=0)
        fv = fisher_encode(features_with(X), identity_pca(4), gmm)
        perm = rng.permutation(15)
        fv_perm = fisher_encode(features_with(X[perm]), identity_pca(4), gmm)
        np.testing.assert_allclose(fv, fv_perm, atol=1e-12)

    def test_empty_features_zero_vector(self):
        gmm = Gmm(weights=np.ones(1), means=np.zeros((1, 4)), variances=np.ones((1, 4)))
        empty = ImageFeatures("e", np.zeros((0, 6)), np.zeros((0, 4)))
        fv = fisher_encode(empty, identity_pca(4), gmm)
        np.testing.assert_array_equal(fv, np.zeros(8))

    def test_pca_applied_before_encoding(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((25, 6))
        pca = PcaModel(
            mean=np.full(6, 0.2),
            basis=np.eye(3, 6),
            eigenvalues=np.ones(3),
        )
        gmm = fit_gmm((X - 0.2)[:, :3], k=2, seed=0)
        fv_raw = fisher_encode(features_with(X), pca, gmm)
        fv_pre = fisher_encode(features_with((X - 0.2)[:, :3]), identity_pca(3), gmm)
        np.testing.assert_allclose(fv_raw, fv_pre, atol=1e-12)


class TestPowerL2Normalize:
    def test_forced_example(self):
        out = power_l2_normalize(np.array([4.0, -4.0]))
        np.testing.assert_allclose(
            out, [0.7071067811865476, -0.7071067811865476], atol=1e-12
        )

    def test_alpha_one_unit_vector_unchanged(self):
        v = np.array([0.6, 0.8])
        np.testing.assert_allclose(power_l2_normalize(v, alpha=1.0), v, atol=1e-12)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            v = rng.standard_normal(16) * rng.uniform(0.01, 100)
            out = power_l2_normalize(v)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_zero_vector_passes_through(self):
        np.testing.assert_array_equal(power_l2_normalize(np.zeros(5)), np.zeros(5))

    def test_sign_preserved(self):
        v = np.array([-9.0, 0.25, -0.01, 4.0])
        out = power_l2_normalize(v)
        np.testing.assert_array_equal(np.sign(out), np.sign(v))


class TestCosineDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(8)
        a = v / np.linalg.norm(v)
        assert abs(cosine_distance(a, a)) < 1e-12

    def test_orthogonal_is_one(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert cosine_distance(a, b) == 1.0

    def test_opposite_is_two(self):
        a = np.array([1.0, 0.0])
        b = np.array([-1.0, 0.0])
        assert cosine_distance(a, b) == 2.0

    def test_degenerate_maximal(self):
        a = np.zeros(4)
        b = np.array([1.0, 0.0, 0.0, 0.0])
        assert cosine_distance(a, b) == 2.0
        assert cosine_distance(b, a) == 2.0
        assert cosine_distance(a, a) == 2.0

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.standard_normal(6)
            b = rng.standard_normal(6)
            assert 0.0 <= cosine_distance(a, b) <= 2.0


class TestTrainVocabularyAndEmbed:
    def _feature_sets(self, seed=0, n_images=6, m=40, dim=10):
        rng = np.random.default_rng(seed)
        return [
            random_features(rng, m=m, dim=dim, image_id=f"img{i}")
            for i in range(n_images)
        ]

    def test_defaults_and_dims(self):
        sets = self._feature_sets()
        vocab = train_vocabulary(sets, TrainingParams(gmm_k=2, pca_dim=4))
        assert vocab.pca.out_dim == 4
        assert vocab.gmm.n_components == 2
        assert vocab.kpca.out_dim == min(len(sets) - 1, 512)
        assert vocab.descriptor_dim == 10

    def test_training_holds_one_centered_copy(self):
        # At its peak, training holds the features, one stack of the pooled
        # descriptors (which fit_pca centers in place), and their projections.  A second
        # pooled copy beside them would put the peak near 1.4 times that.
        n_images, m, dim = 40, 150, 128
        params = TrainingParams()
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sets = self._feature_sets(n_images=n_images, m=m, dim=dim)
            train_vocabulary(sets, params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        features = sum(f.frames.nbytes + f.descriptors.nbytes for f in sets)
        rows = n_images * m
        assert peak < 1.15 * (features + rows * dim * 8 + rows * params.pca_dim * 8)

    def test_model_file_rows_train_as_memory_does(self, tmp_path):
        # build-vocab trains on the rows of the model file it is writing,
        # read back by row: the same model file as from the features in
        # memory, here with an empty image of another width among them.
        sets = self._feature_sets()
        sets.insert(2, ImageFeatures("empty", np.zeros((0, 6)), np.zeros((0, 3))))
        params = TrainingParams(gmm_k=2, pca_dim=4)
        with ModelFile(tmp_path / "rows.bin") as model:
            for f in sets:
                model.append(f)
            save_vocabulary(train_vocabulary(model, params), model)
        expected = model_bytes(train_vocabulary(sets, params), tmp_path / "memory.bin")
        assert (tmp_path / "rows.bin").read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["memory.bin", "rows.bin"]

    def test_three_passes_over_the_rows(self):
        # Training reads every row for its id and sizes, then the non-empty
        # rows into the stack, then every row to Fisher-encode it; a fourth
        # read is a pass too many, since build-vocab's rows come from disk.
        sets = self._feature_sets()
        sets.insert(2, ImageFeatures("empty", np.zeros((0, 6)), np.zeros((0, 3))))
        everything = list(range(len(sets)))
        expected = everything + [k for k in everything if sets[k].count] + everything
        reads = []

        class CountedRows(collections.abc.Sequence):
            def __len__(self):
                return len(sets)

            def __getitem__(self, k):
                features = sets[k]
                reads.append(k)
                assert len(reads) <= len(expected), f"a fourth pass read row {k}"
                return features

        train_vocabulary(CountedRows(), TrainingParams(gmm_k=2, pca_dim=4))
        assert reads == expected

    def test_embedding_unit_norm_and_deterministic(self):
        sets = self._feature_sets()
        vocab = train_vocabulary(sets, TrainingParams(gmm_k=2, pca_dim=4))
        a = embed_image(sets[0], vocab)
        b = embed_image(sets[0], vocab)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        np.testing.assert_array_equal(a, b)

    def test_empty_image_degenerate(self):
        sets = self._feature_sets()
        vocab = train_vocabulary(sets, TrainingParams(gmm_k=2, pca_dim=4))
        empty = ImageFeatures("e", np.zeros((0, 6)), np.zeros((0, 10)))
        embedding = embed_image(empty, vocab)
        np.testing.assert_array_equal(embedding, np.zeros(vocab.kpca.out_dim))

    def test_kpca_map_matches_kernel_row_formula(self, tmp_path):
        # On the database Fisher vectors of a vocabulary trained as build-vocab
        # trains one, at the default kernel-PCA dimension N_db - 1.
        generate_benchmark(SynthConfig(seed=3, n_individuals=12, views_per_individual=2), tmp_path)
        manifest = load_manifest(tmp_path / "manifest.csv")
        sets = [load_entry_features(manifest, e) for e in manifest.with_role("database")]
        vocab = train_vocabulary(sets, TrainingParams(gmm_k=4, pca_dim=16))
        fvs = np.stack(
            [power_l2_normalize(fisher_encode(f, vocab.pca, vocab.gmm), vocab.alpha) for f in sets]
        )
        for f, v in zip(sets, fvs):
            np.testing.assert_allclose(
                embed_image(f, vocab), kernel_row_kpca(fvs, vocab.kpca, v), rtol=0, atol=1e-12
            )

    def test_index_of_training_images(self):
        # One row per training image, in order, read from memory; each
        # embedding is bit-equal to embed_image's, and an empty image's is zero.
        empty = ImageFeatures("e", np.zeros((0, 6)), np.zeros((0, 10)))
        sets = self._feature_sets() + [empty]
        vocab = train_vocabulary(sets, TrainingParams(gmm_k=2, pca_dim=4))
        assert vocab.index.image_ids == [f.image_id for f in sets]
        assert vocab.index.feature_counts.tolist() == [f.count for f in sets]
        for k, f in enumerate(sets):
            assert vocab.read_row(k) is f
            assert vocab.index.embeddings[k].tobytes() == embed_image(f, vocab).tobytes()
        assert not vocab.index.embeddings[-1].any()

    def test_repeated_image_id(self):
        sets = self._feature_sets()
        sets[4] = random_features(np.random.default_rng(1), m=40, dim=10, image_id="img2")
        with pytest.raises(VocabError, match="database image id 'img2' given twice"):
            train_vocabulary(sets, TrainingParams(gmm_k=2, pca_dim=4))

    def test_too_few_images(self):
        sets = self._feature_sets(n_images=1)
        with pytest.raises(VocabError, match="at least 2"):
            train_vocabulary(sets, TrainingParams(gmm_k=2, pca_dim=4))

    def test_all_empty_images(self):
        empties = [
            ImageFeatures(f"e{i}", np.zeros((0, 6)), np.zeros((0, 10)))
            for i in range(3)
        ]
        with pytest.raises(VocabError, match="empty"):
            train_vocabulary(empties, TrainingParams(gmm_k=2, pca_dim=4))

    def test_insufficient_descriptors_for_gmm(self):
        sets = self._feature_sets(n_images=2, m=3, dim=10)
        with pytest.raises(VocabError):
            train_vocabulary(sets, TrainingParams(gmm_k=16, pca_dim=2))

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"alpha": float("nan")}, "alpha must be finite and > 0"),
            ({"alpha": float("inf")}, "alpha must be finite and > 0"),
            ({"alpha": 0.0}, "alpha must be finite and > 0"),
            ({"alpha": -1.0}, "alpha must be finite and > 0"),
            ({"kpca_dim": -3}, "kpca_dim must be >= 0"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"gmm_k": 0}, "gmm_k must be >= 1"),
            ({"pca_dim": 0}, "pca_dim must be >= 1"),
        ],
    )
    def test_invalid_training_options(self, options, message):
        with pytest.raises(VocabError, match=message):
            train_vocabulary(
                self._feature_sets(), TrainingParams(**{"gmm_k": 2, "pca_dim": 4, **options})
            )

    def test_kpca_dim_zero_is_the_default(self, tmp_path):
        sets = self._feature_sets()
        default = train_vocabulary(sets, TrainingParams(gmm_k=2, pca_dim=4))
        zero = train_vocabulary(sets, TrainingParams(gmm_k=2, pca_dim=4, kpca_dim=0))
        assert model_bytes(zero, tmp_path / "zero") == model_bytes(default, tmp_path / "default")

    @pytest.mark.parametrize(
        "m, options, message",
        [
            (40, {"pca_dim": 11}, r"^pca_dim must be in \[1, 10\], the descriptor width, got 11$"),
            (1, {"pca_dim": 6}, "^pca_dim is too large: need at least 7 descriptors, got 6$"),
            (40, {"gmm_k": 241}, "^gmm_k is too large: need at least 241 descriptors, got 240$"),
            (40, {"kpca_dim": 6}, r"^kpca_dim must be in \[0, 5\], below the image count, got 6$"),
        ],
    )
    def test_data_bounds_name_the_field(self, m, options, message):
        sets = self._feature_sets(m=m)
        with pytest.raises(VocabError, match=message):
            train_vocabulary(sets, TrainingParams(**{"gmm_k": 1, "pca_dim": 4, **options}))
