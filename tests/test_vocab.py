"""PCA, GMM/EM, kernel PCA, and vocabulary persistence tests."""

import numpy as np
import pytest
from oracles import dense_kpca_oracle

from patreid.vocab import (
    Embedding,
    Gmm,
    KpcaModel,
    PcaModel,
    VocabError,
    Vocabulary,
    apply_kpca,
    apply_pca,
    average_log_likelihood,
    fit_gmm,
    fit_kpca,
    fit_pca,
    gmm_posteriors,
    load_vocabulary,
    save_vocabulary,
)


class TestFitPca:
    def test_line_data(self):
        X = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]])
        model = fit_pca(X, out_dim=2)
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(model.basis[0]), direction, atol=1e-12)
        assert model.basis[0] @ direction > 0  # sign convention
        np.testing.assert_allclose(model.eigenvalues[1], 0.0, atol=1e-12)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 6)) @ rng.standard_normal((6, 6))
        model = fit_pca(X, out_dim=6)
        Xc = X - X.mean(axis=0)
        cov = Xc.T @ Xc / X.shape[0]  # biased, matches the model's convention
        eigvals = np.linalg.eigvalsh(cov)[::-1]
        np.testing.assert_allclose(model.eigenvalues, eigvals, atol=1e-9)
        # Projected data is decorrelated with variances = eigenvalues.
        Y = apply_pca(model, X)
        proj_cov = (Y - Y.mean(axis=0)).T @ (Y - Y.mean(axis=0)) / Y.shape[0]
        np.testing.assert_allclose(proj_cov, np.diag(eigvals), atol=1e-9)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 5))
        model = fit_pca(X, out_dim=5)
        Y = apply_pca(model, X)
        back = Y @ model.basis + model.mean
        np.testing.assert_allclose(back, X, atol=1e-9)

    def test_whitening_unit_variance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((300, 4)) * np.array([5.0, 2.0, 1.0, 0.3])
        model = fit_pca(X, out_dim=4, whiten=True)
        Y = apply_pca(model, X)
        np.testing.assert_allclose(Y.var(axis=0), 1.0, atol=1e-9)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 5))
        model = fit_pca(X, out_dim=5)
        for row in model.basis:
            assert row[np.argmax(np.abs(row))] > 0

    def test_too_few_points(self):
        with pytest.raises(VocabError, match="at least"):
            fit_pca(np.zeros((4, 8)), out_dim=4)

    def test_out_dim_bounds(self):
        with pytest.raises(VocabError, match="out_dim"):
            fit_pca(np.zeros((10, 4)), out_dim=5)


class TestApplyPca:
    def test_mean_maps_to_zero(self):
        model = PcaModel(
            mean=np.array([1.0, 2.0]),
            basis=np.eye(2),
            eigenvalues=np.ones(2),
        )
        np.testing.assert_array_equal(apply_pca(model, np.array([1.0, 2.0])), [0.0, 0.0])

    def test_identity_basis_truncates(self):
        model = PcaModel(
            mean=np.zeros(4),
            basis=np.eye(2, 4),
            eigenvalues=np.ones(2),
        )
        x = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(apply_pca(model, x), [1.0, 2.0])

    def test_dim_mismatch(self):
        model = PcaModel(mean=np.zeros(4), basis=np.eye(2, 4), eigenvalues=np.ones(2))
        with pytest.raises(VocabError, match="dim"):
            apply_pca(model, np.zeros(3))


class TestFitGmm:
    def test_k1_closed_form(self):
        gmm = fit_gmm(np.array([[0.0], [2.0]]), k=1)
        np.testing.assert_allclose(gmm.means, [[1.0]], atol=1e-10)
        np.testing.assert_allclose(gmm.variances, [[1.0]], atol=1e-10)
        np.testing.assert_array_equal(gmm.weights, [1.0])

    def test_k1_matches_sample_moments(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((400, 3)) * 2.0 + 1.5
        gmm = fit_gmm(X, k=1)
        np.testing.assert_allclose(gmm.means[0], X.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(gmm.variances[0], X.var(axis=0), atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 4))
        a = fit_gmm(X, k=3, seed=9)
        b = fit_gmm(X, k=3, seed=9)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_monotonic_log_likelihood(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            centers = rng.uniform(-4, 4, (3, 5))
            X = np.vstack([
                rng.normal(c, 0.7, (120, 5)) for c in centers
            ])
            gmm = fit_gmm(X, k=3, seed=seed)
            diffs = np.diff(gmm.log_likelihoods)
            assert np.all(diffs >= -1e-9)

    def test_weights_normalized_and_variances_floored(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((150, 3))
        X[:, 2] = 0.0  # zero-variance axis exercises the floor
        gmm = fit_gmm(X, k=4, seed=0)
        np.testing.assert_allclose(gmm.weights.sum(), 1.0, atol=1e-12)
        assert np.all(gmm.variances >= 1e-6)

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(3)
        X = np.vstack([
            rng.normal(-10.0, 0.5, (200, 2)),
            rng.normal(10.0, 0.5, (200, 2)),
        ])
        gmm = fit_gmm(X, k=2, seed=0)
        means = sorted(gmm.means[:, 0])
        assert abs(means[0] + 10.0) < 0.5
        assert abs(means[1] - 10.0) < 0.5
        np.testing.assert_allclose(gmm.weights, [0.5, 0.5], atol=0.05)

    def test_too_few_vectors(self):
        with pytest.raises(VocabError, match="at least"):
            fit_gmm(np.zeros((2, 3)), k=3)


class TestGmmPosteriors:
    def test_k1_is_one(self):
        gmm = Gmm(weights=np.ones(1), means=np.zeros((1, 2)), variances=np.ones((1, 2)))
        np.testing.assert_array_equal(gmm_posteriors(gmm, np.array([3.0, -1.0])), [1.0])

    def test_symmetric_components_split_evenly(self):
        gmm = Gmm(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.0], [1.0]]),
            variances=np.ones((2, 1)),
        )
        np.testing.assert_allclose(
            gmm_posteriors(gmm, np.array([0.0])), [0.5, 0.5], atol=1e-12
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 4))
        gmm = fit_gmm(X, k=5, seed=1)
        gamma = gmm_posteriors(gmm, X)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_direct_density_oracle(self):
        rng = np.random.default_rng(1)
        gmm = Gmm(
            weights=np.array([0.3, 0.7]),
            means=rng.standard_normal((2, 3)),
            variances=rng.uniform(0.5, 2.0, (2, 3)),
        )
        X = rng.standard_normal((20, 3))
        # Direct (non-log-space) evaluation is safe at this scale.
        dens = np.zeros((20, 2))
        for k in range(2):
            norm = np.prod(2 * np.pi * gmm.variances[k]) ** -0.5
            quad = np.sum((X - gmm.means[k]) ** 2 / gmm.variances[k], axis=1)
            dens[:, k] = gmm.weights[k] * norm * np.exp(-0.5 * quad)
        oracle = dens / dens.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(gmm_posteriors(gmm, X), oracle, atol=1e-12)

    def test_average_log_likelihood_matches_oracle(self):
        rng = np.random.default_rng(2)
        gmm = Gmm(
            weights=np.array([0.4, 0.6]),
            means=rng.standard_normal((2, 2)),
            variances=rng.uniform(0.5, 1.5, (2, 2)),
        )
        X = rng.standard_normal((15, 2))
        dens = np.zeros((15, 2))
        for k in range(2):
            norm = np.prod(2 * np.pi * gmm.variances[k]) ** -0.5
            quad = np.sum((X - gmm.means[k]) ** 2 / gmm.variances[k], axis=1)
            dens[:, k] = gmm.weights[k] * norm * np.exp(-0.5 * quad)
        oracle = float(np.mean(np.log(dens.sum(axis=1))))
        assert abs(average_log_likelihood(gmm, X) - oracle) < 1e-12


class TestFitKpca:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 12))
        model = fit_kpca(X, out_dim=6)
        lam, projections = dense_kpca_oracle(X, 6)
        np.testing.assert_allclose(model.eigenvalues, lam, atol=1e-8)
        # Eigenvector sign is fixed per axis; compare up to per-axis sign.
        for j in range(6):
            col = model.training_projections[:, j]
            ref = projections[:, j]
            assert min(
                np.max(np.abs(col - ref)), np.max(np.abs(col + ref))
            ) < 1e-8

    def test_training_projections_self_consistent(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 8))
        model = fit_kpca(X, out_dim=5)
        for i in range(X.shape[0]):
            embedding = apply_kpca(model, X[i])
            stored = model.training_projections[i]
            norm = np.linalg.norm(stored)
            np.testing.assert_allclose(embedding.values, stored / norm, atol=1e-9)

    def test_equals_linear_pca_up_to_sign(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 10))
        out_dim = 4
        kpca = fit_kpca(X, out_dim)
        pca = fit_pca(X, out_dim)
        Y = apply_pca(pca, X)
        for j in range(out_dim):
            col = kpca.training_projections[:, j]
            ref = Y[:, j]
            assert min(
                np.max(np.abs(col - ref)), np.max(np.abs(col + ref))
            ) < 1e-8

    def test_rank_deficiency_warns_and_reduces(self):
        # 5 samples spanning only 2 directions: centered Gram has rank 2.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 10))
        with pytest.warns(UserWarning, match="rank"):
            model = fit_kpca(X, out_dim=4)
        assert model.out_dim == 2

    def test_out_dim_bounds(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((10, 5))
        with pytest.raises(VocabError, match="out_dim"):
            fit_kpca(X, out_dim=10)
        with pytest.raises(VocabError, match="at least 2"):
            fit_kpca(X[:1], out_dim=1)


class TestApplyKpca:
    def test_repeated_call_identical(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 4))
        model = fit_kpca(X, out_dim=3)
        query = rng.standard_normal(4)
        a = apply_kpca(model, query)
        b = apply_kpca(model, query)
        np.testing.assert_array_equal(a.values, b.values)
        assert not a.degenerate
        np.testing.assert_allclose(np.linalg.norm(a.values), 1.0, atol=1e-12)

    def test_orthogonal_query_still_unit_normalized(self):
        # Training vectors live on the first axes; an orthogonal query has a
        # zero kernel row but the centering still gives a nonzero projection.
        X = np.zeros((4, 6))
        X[:, :2] = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.5, -1.0]])
        model = fit_kpca(X, out_dim=2)
        query = np.zeros(6)
        query[5] = 1.0
        embedding = apply_kpca(model, query)
        assert not embedding.degenerate
        np.testing.assert_allclose(np.linalg.norm(embedding.values), 1.0, atol=1e-12)

    def test_exactly_zero_projection_degenerate(self):
        # Symmetric training set: a query equidistant from all training
        # vectors has a constant kernel row, which centering zeroes out.
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = fit_kpca(X, out_dim=2)
        embedding = apply_kpca(model, np.zeros(2))
        assert embedding.degenerate
        np.testing.assert_array_equal(embedding.values, np.zeros(2))

    def test_dim_mismatch(self):
        X = np.random.default_rng(1).standard_normal((5, 4))
        model = fit_kpca(X, out_dim=2)
        with pytest.raises(VocabError, match="dim"):
            apply_kpca(model, np.zeros(7))


class TestVocabularyPersistence:
    def _make_vocabulary(self, seed=0):
        rng = np.random.default_rng(seed)
        descriptors = rng.standard_normal((120, 10))
        descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
        pca = fit_pca(descriptors, out_dim=6, whiten=True)
        gmm = fit_gmm(apply_pca(pca, descriptors), k=3, seed=seed)
        fvs = rng.standard_normal((9, 2 * 3 * 6))
        kpca = fit_kpca(fvs, out_dim=4)
        return Vocabulary(pca=pca, gmm=gmm, kpca=kpca, descriptor_dim=10, alpha=0.5)

    def test_round_trip_value_identical(self, tmp_path):
        vocab = self._make_vocabulary()
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        np.testing.assert_array_equal(loaded.pca.mean, vocab.pca.mean)
        np.testing.assert_array_equal(loaded.pca.basis, vocab.pca.basis)
        np.testing.assert_array_equal(loaded.pca.eigenvalues, vocab.pca.eigenvalues)
        assert loaded.pca.whiten == vocab.pca.whiten
        np.testing.assert_array_equal(loaded.gmm.weights, vocab.gmm.weights)
        np.testing.assert_array_equal(loaded.gmm.means, vocab.gmm.means)
        np.testing.assert_array_equal(loaded.gmm.variances, vocab.gmm.variances)
        np.testing.assert_array_equal(
            loaded.gmm.log_likelihoods, vocab.gmm.log_likelihoods
        )
        np.testing.assert_array_equal(
            loaded.kpca.training_vectors, vocab.kpca.training_vectors
        )
        np.testing.assert_array_equal(loaded.kpca.alphas, vocab.kpca.alphas)
        np.testing.assert_array_equal(
            loaded.kpca.eigenvalues, vocab.kpca.eigenvalues
        )
        np.testing.assert_array_equal(loaded.kpca.row_means, vocab.kpca.row_means)
        assert loaded.kpca.total_mean == vocab.kpca.total_mean
        np.testing.assert_array_equal(
            loaded.kpca.training_projections, vocab.kpca.training_projections
        )
        assert loaded.descriptor_dim == vocab.descriptor_dim
        assert loaded.alpha == vocab.alpha

    def test_rewrite_byte_identical(self, tmp_path):
        vocab = self._make_vocabulary()
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_vocabulary(vocab, a)
        save_vocabulary(load_vocabulary(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("NOTAVOCAB 1\n", encoding="utf-8")
        with pytest.raises(VocabError, match="header"):
            load_vocabulary(path)

    def test_truncated_file(self, tmp_path):
        vocab = self._make_vocabulary()
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:5]) + "\n", encoding="utf-8")
        with pytest.raises(VocabError):
            load_vocabulary(path)

    def test_corrupt_number(self, tmp_path):
        vocab = self._make_vocabulary()
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        text = path.read_text(encoding="utf-8")
        first_value = text.splitlines()[4].split()[0]
        path.write_text(text.replace(first_value, "bogus", 1), encoding="utf-8")
        with pytest.raises(VocabError):
            load_vocabulary(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda v: setattr(v, "alpha", float("nan")), "non-finite value in alpha"),
            (lambda v: np.put(v.pca.basis, 0, np.inf), "non-finite value in PCA"),
            (lambda v: np.put(v.gmm.means, 8, np.nan), "non-finite value in GMM"),
            (lambda v: np.put(v.kpca.alphas, 9, -np.inf), "non-finite value in KPCA"),
            (lambda v: setattr(v.kpca, "total_mean", float("nan")), "non-finite value in KPCA"),
            (lambda v: setattr(v, "alpha", 0.0), "alpha must be positive"),
            (lambda v: setattr(v, "alpha", -0.5), "alpha must be positive"),
            (lambda v: np.put(v.gmm.variances, 3, -0.25), "variances must be positive"),
            (lambda v: np.put(v.gmm.variances, 12, 0.0), "variances must be positive"),
            (lambda v: setattr(v.gmm, "weights", np.array([1.2, -0.1, -0.1])), "weights"),
            (lambda v: setattr(v.gmm, "weights", v.gmm.weights * 0.99), "weights"),
        ],
    )
    def test_invalid_values_rejected(self, tmp_path, corrupt, message):
        vocab = self._make_vocabulary()
        corrupt(vocab)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        with pytest.raises(VocabError, match=message):
            load_vocabulary(path)

    @staticmethod
    def _widen_kpca_output(v, m):
        n = v.kpca.training_vectors.shape[0]
        v.kpca.alphas = np.ones((n, m))
        v.kpca.training_projections = np.ones((n, m))
        v.kpca.eigenvalues = np.ones(m)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda v: setattr(v, "descriptor_dim", 11),
             "PCA section input dimension 10 != descriptor_dim 11"),
            (lambda v: (setattr(v.gmm, "means", v.gmm.means[:, :5]),
                        setattr(v.gmm, "variances", v.gmm.variances[:, :5])),
             r"GMM section dim 5 != PCA output dimension 6"),
            (lambda v: setattr(v.kpca, "training_vectors",
                               np.hstack([v.kpca.training_vectors] * 2)),
             r"KPCA section feature dimension 72 != 2\*K\*dim = 36"),
            (lambda v: TestVocabularyPersistence._widen_kpca_output(v, 10),
             "KPCA section output dimension 10 > 9 training vectors"),
        ],
        ids=["descriptor_dim", "gmm_dim", "kpca_features", "kpca_out_dim"],
    )
    def test_section_shapes_rejected(self, tmp_path, corrupt, message):
        vocab = self._make_vocabulary()
        corrupt(vocab)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        with pytest.raises(VocabError, match=message):
            load_vocabulary(path)

    def test_kpca_output_dimension_up_to_n_accepted(self, tmp_path):
        vocab = self._make_vocabulary()
        self._widen_kpca_output(vocab, 9)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        assert load_vocabulary(path).kpca.out_dim == 9

    def test_weights_sum_tolerance(self, tmp_path):
        vocab = self._make_vocabulary()
        vocab.gmm.weights = vocab.gmm.weights * (1.0 + 5e-7)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        np.testing.assert_array_equal(load_vocabulary(path).gmm.weights, vocab.gmm.weights)
