"""PCA, GMM/EM, kernel PCA, and vocabulary persistence tests."""

import inspect
import io
import zipfile

import numpy as np
import pytest
from oracles import dense_kpca_oracle, em_reference, kernel_row_kpca

import patreid.vocab as vocab_module
from patreid.ingest import ImageFeatures
from patreid.vocab import (
    DatabaseIndex,
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
            gmm = fit_gmm(X, k=3, seed=seed, tol=1e-6)
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

    @pytest.mark.parametrize("max_iters, tol", [(5, 1e-6), (200, 1e-6)], ids=["cap", "tol"])
    def test_bit_equal_to_reference_loop(self, max_iters, tol):
        # X * X is computed once per fit; the loop that recomputed it gives the same bits.
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(c, 0.8, (90, 6)) for c in rng.uniform(-3, 3, (4, 6))])
        gmm = fit_gmm(X, k=4, seed=2, max_iters=max_iters, tol=tol)
        reference = em_reference(X, 4, seed=2, max_iters=max_iters, tol=tol)
        fitted = (gmm.weights, gmm.means, gmm.variances, gmm.log_likelihoods)
        for got, want in zip(fitted, reference):
            assert got.tobytes() == want.tobytes()

    def test_reference_shares_default_stopping_rule(self):
        defaults = inspect.signature(fit_gmm).parameters
        assert inspect.signature(em_reference).parameters["tol"].default == defaults["tol"].default
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(c, 0.8, (90, 6)) for c in rng.uniform(-3, 3, (4, 6))])
        trace = fit_gmm(X, k=4, seed=2).log_likelihoods
        assert trace.tobytes() == em_reference(X, 4, seed=2)[3].tobytes()
        assert trace[-1] - trace[-2] < defaults["tol"].default


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
            np.testing.assert_allclose(embedding, stored / norm, atol=1e-9)

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
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a), 1.0, atol=1e-12)

    def test_orthogonal_query_still_unit_normalized(self):
        # Training vectors live on the first axes; an orthogonal query has a
        # zero kernel row but the centering still gives a nonzero projection.
        X = np.zeros((4, 6))
        X[:, :2] = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.5, -1.0]])
        model = fit_kpca(X, out_dim=2)
        query = np.zeros(6)
        query[5] = 1.0
        embedding = apply_kpca(model, query)
        np.testing.assert_allclose(np.linalg.norm(embedding), 1.0, atol=1e-12)

    def test_exactly_zero_projection_degenerate(self):
        # Symmetric training set: a query equidistant from all training
        # vectors has a constant kernel row, which centering zeroes out.
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = fit_kpca(X, out_dim=2)
        embedding = apply_kpca(model, np.zeros(2))
        np.testing.assert_array_equal(embedding, np.zeros(2))

    def test_matches_kernel_row_formula(self):
        # The stored affine map against the kernel row it replaces, on the
        # training vectors and on fresh ones.
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 12))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        model = fit_kpca(X, out_dim=6)
        for v in np.vstack([X, rng.standard_normal((10, 12))]):
            np.testing.assert_allclose(
                apply_kpca(model, v), kernel_row_kpca(X, model, v), rtol=0, atol=1e-12
            )

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
        index = DatabaseIndex([], np.zeros((0, kpca.out_dim)), np.zeros(0, dtype=np.int64))
        return Vocabulary(pca=pca, gmm=gmm, kpca=kpca, index=index, read_row=[].__getitem__,
                          descriptor_dim=10, alpha=0.5)

    def test_round_trip_value_identical(self, tmp_path):
        vocab = self._make_vocabulary()
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        loaded, _ = _read_all(path)
        np.testing.assert_array_equal(loaded.pca.mean, vocab.pca.mean)
        np.testing.assert_array_equal(loaded.pca.basis, vocab.pca.basis)
        np.testing.assert_array_equal(loaded.pca.eigenvalues, vocab.pca.eigenvalues)
        assert loaded.pca.whiten == vocab.pca.whiten
        np.testing.assert_array_equal(loaded.gmm.weights, vocab.gmm.weights)
        np.testing.assert_array_equal(loaded.gmm.means, vocab.gmm.means)
        np.testing.assert_array_equal(loaded.gmm.variances, vocab.gmm.variances)
        np.testing.assert_array_equal(loaded.kpca.matrix, vocab.kpca.matrix)
        np.testing.assert_array_equal(loaded.kpca.offset, vocab.kpca.offset)
        assert loaded.descriptor_dim == vocab.descriptor_dim
        assert loaded.alpha == vocab.alpha

    def test_fitted_arrays_in_c_order(self):
        # A model file loads its arrays in C order; fitted ones in the same
        # order make build-time embeddings bit-equal to query-time ones.
        vocab = self._make_vocabulary()
        for part in (vocab.pca, vocab.gmm, vocab.kpca):
            for name, value in vars(part).items():
                if isinstance(value, np.ndarray):
                    assert value.flags.c_contiguous, f"{type(part).__name__}.{name}"

    def test_rewrite_byte_identical(self, tmp_path):
        vocab = self._make_vocabulary()
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_vocabulary(vocab, a)
        with load_vocabulary(a) as loaded:
            save_vocabulary(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    def test_text_vocabulary_rejected(self, tmp_path):
        # The text format of earlier versions, which began "PATVOCAB 1".
        path = tmp_path / "vocab.txt"
        path.write_text("PATVOCAB 1\nalpha 0.5\ndescriptor_dim 10\n", encoding="utf-8")
        with pytest.raises(VocabError, match="not a model file"):
            load_vocabulary(path)

    def test_truncated_file(self, tmp_path):
        vocab = self._make_vocabulary()
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        data = path.read_bytes()
        for size in (4, 100, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:size])
            with pytest.raises(VocabError):
                load_vocabulary(path)

    def test_corrupt_number(self, tmp_path):
        # One flipped byte inside an array's data fails the member's CRC.
        vocab = self._make_vocabulary()
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        data = bytearray(path.read_bytes())
        at = data.index(vocab.pca.basis.tobytes()[:16])
        data[at + 3] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(VocabError, match="unreadable"):
            load_vocabulary(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda v: setattr(v, "alpha", float("nan")), "non-finite value in alpha"),
            (lambda v: np.put(v.pca.basis, 0, np.inf), "non-finite value in PCA"),
            (lambda v: np.put(v.gmm.means, 8, np.nan), "non-finite value in GMM"),
            (lambda v: np.put(v.kpca.matrix, 9, -np.inf), "non-finite value in KPCA"),
            (lambda v: np.put(v.kpca.offset, 2, np.nan), "non-finite value in KPCA"),
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

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda v: setattr(v, "descriptor_dim", 11),
             "PCA section input dimension 10 != descriptor_dim 11"),
            (lambda v: (setattr(v.gmm, "means", v.gmm.means[:, :5]),
                        setattr(v.gmm, "variances", v.gmm.variances[:, :5])),
             r"GMM section dim 5 != PCA output dimension 6"),
            (lambda v: setattr(v.kpca, "matrix", np.hstack([v.kpca.matrix] * 2)),
             r"KPCA section feature dimension 72 != 2\*K\*dim = 36"),
        ],
        ids=["descriptor_dim", "gmm_dim", "kpca_features"],
    )
    def test_section_shapes_rejected(self, tmp_path, corrupt, message):
        vocab = self._make_vocabulary()
        corrupt(vocab)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        with pytest.raises(VocabError, match=message):
            load_vocabulary(path)

    def test_weights_sum_tolerance(self, tmp_path):
        vocab = self._make_vocabulary()
        vocab.gmm.weights = vocab.gmm.weights * (1.0 + 5e-7)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        np.testing.assert_array_equal(_read_all(path)[0].gmm.weights, vocab.gmm.weights)


def _features(image_id, count, rng, dim=10):
    frames = np.zeros((count, 6))
    frames[:, :2] = rng.uniform(0, 100, (count, 2))
    frames[:, 2:6] = [2.0, 0.5, -0.25, 1.5]
    descriptors = rng.standard_normal((count, dim))
    descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
    return ImageFeatures(image_id=image_id, frames=frames, descriptors=descriptors)


def _indexed_vocabulary():
    """A small vocabulary whose index holds three rows of 3, 2 and 0 features,
    the empty one degenerate (a zero embedding)."""
    vocab = TestVocabularyPersistence()._make_vocabulary()
    rng = np.random.default_rng(5)
    m = vocab.kpca.out_dim
    rows, embeddings = [], []
    for i in range(2):
        v = rng.standard_normal(m)
        rows.append(_features(f"img{i}", 3 - i, rng))
        embeddings.append(v / np.linalg.norm(v))
    rows.append(_features("empty", 0, rng, dim=4))
    embeddings.append(np.zeros(m))
    vocab.index = DatabaseIndex(
        [f.image_id for f in rows], np.stack(embeddings), np.array([f.count for f in rows])
    )
    vocab.read_row = rows.__getitem__
    return vocab


def _read_all(path):
    """A model file's vocabulary, closed, and each index row's features by image id."""
    with load_vocabulary(path) as vocab:
        return vocab, {i: vocab.read_row(k) for k, i in enumerate(vocab.index.image_ids)}


def _members(path):
    """A model file's members: arrays by name for the .npy members, and
    (frames, descriptors) by member name for the index rows."""
    with np.load(path, allow_pickle=False) as archive:
        members = {name: archive[name] for name in archive.files}
    dim = int(members["descriptor_dim"])
    for k, count in enumerate(members["index_feature_counts"]):
        values = np.frombuffer(members[f"index_rows/{k}"], dtype="<f8")
        members[f"index_rows/{k}"] = (
            values[: 6 * count].reshape(count, 6), values[6 * count :].reshape(count, dim)
        )
    return members


def _rewrite(path, changes):
    """Rewrite a model file's members: an array replaces an .npy member, a
    (frames, descriptors) pair or bytes an index row, and None drops one."""
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: archive.read(info) for info in archive.infolist()}
    for name, value in changes.items():
        member = name if name.startswith("index_rows/") else f"{name}.npy"
        if isinstance(value, np.ndarray):
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, value, allow_pickle=True)
            value = buffer.getvalue()
        elif isinstance(value, tuple):
            value = b"".join(np.ascontiguousarray(a, "<f8").tobytes() for a in value)
        members.pop(member, None)
        if value is not None:
            members[member] = value
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def _row_change(k, frames=lambda f: f, descriptors=lambda d: d):
    """A change of index row k's frames and descriptors."""
    return lambda a: {f"index_rows/{k}": (frames(a[f"index_rows/{k}"][0]),
                                          descriptors(a[f"index_rows/{k}"][1]))}


class TestModelFile:
    def test_index_round_trip(self, tmp_path):
        vocab = _indexed_vocabulary()
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        loaded, read = _read_all(path)
        assert loaded.index.image_ids == vocab.index.image_ids == ["img0", "img1", "empty"]
        assert loaded.index.feature_counts.tolist() == [3, 2, 0]
        for k, image_id in enumerate(vocab.index.image_ids):
            restored = loaded.index.embeddings[k]
            assert restored.tobytes() == vocab.index.embeddings[k].tobytes()
            features, parsed = vocab.read_row(k), read[image_id]
            assert parsed.image_id == image_id
            assert parsed.frames.tobytes() == features.frames.tobytes()
            # An empty image's descriptors come back descriptor_dim wide.
            assert parsed.descriptors.shape == (features.count, vocab.descriptor_dim)
            assert parsed.descriptors.tobytes() == features.descriptors.tobytes()

    def test_plain_npz_at_the_given_path(self, tmp_path):
        # np.savez would write vocab-0.txt.npz; timestamps would vary by build.
        path = tmp_path / "vocab-0.txt"
        save_vocabulary(_indexed_vocabulary(), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab-0.txt"]
        with zipfile.ZipFile(path) as archive:
            for member in archive.infolist():
                assert member.date_time == (1980, 1, 1, 0, 0, 0)
                assert member.compress_type == zipfile.ZIP_STORED
            # One raw member per index row: 8 bytes per frame field and
            # descriptor value of each of its features.
            rows = [n for n in archive.namelist() if n.startswith("index_rows/")]
            assert rows == ["index_rows/0", "index_rows/1", "index_rows/2"]
            # Beside them, exactly the arrays a search reads.
            assert sorted(set(archive.namelist()) - set(rows)) == sorted(
                f"{name}.npy" for name in vocab_module._LAYOUT
            )
            assert [archive.getinfo(n).file_size for n in rows] == [8 * 3 * 16, 8 * 2 * 16, 0]
        with np.load(path, allow_pickle=False) as archive:
            assert archive["index_image_ids"].dtype.kind == "U"
            assert archive["index_image_ids"].tolist() == ["img0", "img1", "empty"]

    def test_empty_index_is_data(self, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocabulary(TestVocabularyPersistence()._make_vocabulary(), path)
        with np.load(path, allow_pickle=False) as archive:
            assert archive["index_embeddings"].shape == (0, 4)
        assert _read_all(path)[0].index.image_ids == []

    def test_rows_read_on_demand(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        save_vocabulary(_indexed_vocabulary(), path)
        reads = []
        read_index_row = vocab_module.read_index_row
        monkeypatch.setattr(
            vocab_module, "read_index_row",
            lambda *args: reads.append(args[3]) or read_index_row(*args),
        )
        with load_vocabulary(path) as vocab:
            assert reads == []
            vocab.read_row(1)
            vocab.read_row(1)
            assert reads == ["img1", "img1"]  # checked again on every read
        with pytest.raises(VocabError, match="unreadable index row of 'img0'"):
            vocab.read_row(0)  # the file is closed

    def test_damaged_row_fails_its_crc(self, tmp_path):
        # One flipped byte inside a row's data fails only that row's read.
        path = tmp_path / "vocab.txt"
        save_vocabulary(_indexed_vocabulary(), path)
        with zipfile.ZipFile(path) as archive:
            row = archive.read("index_rows/1")
        data = bytearray(path.read_bytes())
        data[data.index(row) + 5] ^= 0x40
        path.write_bytes(bytes(data))
        with load_vocabulary(path) as vocab:
            vocab.read_row(0)
            with pytest.raises(VocabError, match="unreadable index row of 'img1'.*CRC"):
                vocab.read_row(1)

    @pytest.mark.parametrize(
        "change, row, message",
        [
            (lambda a: {"gmm_weights": None}, None, "missing array 'gmm_weights'"),
            (lambda a: {"pca_mean": a["pca_mean"].astype(np.float32)}, None,
             "'pca_mean' is not of dtype f8"),
            (lambda a: {"pca_whiten": np.array(1)}, None, "'pca_whiten' is not of dtype"),
            (lambda a: {"pca_basis": a["pca_basis"][:, :-1]}, None,
             r"'pca_basis' has shape \(6, 9\), expected \(6, 10\)"),
            (lambda a: {"alpha": np.array([0.5])}, None, r"'alpha' has shape \(1,\)"),
            (lambda a: {"index_feature_counts": a["index_feature_counts"][:-1]}, None,
             r"'index_feature_counts' has shape \(2,\), expected \(3,\)"),
            (lambda a: {"index_embeddings": a["index_embeddings"][:, :-1]}, None,
             r"'index_embeddings' has shape \(3, 3\), expected \(3, 4\)"),
            (lambda a: {"index_embeddings": np.where(a["index_embeddings"] > 0.1, np.nan, 0.0)},
             None, "non-finite value in index"),
            (lambda a: {"index_embeddings": 2.0 * a["index_embeddings"]}, None,
             "index embedding of 'img0' has norm"),
            (lambda a: {"index_embeddings": 0.5 * a["index_embeddings"]}, None,
             r"index embedding of 'img0' has norm 0\.5, expected 1 \(or 0"),
            (lambda a: {"index_embeddings": 1e-7 * a["index_embeddings"]}, None,
             r"index embedding of 'img0' has norm 1e-07, expected 1 \(or 0"),
            (lambda a: {"index_image_ids": np.array(["img0", "img0", "empty"])}, None,
             "image id twice"),
            (lambda a: {"index_image_ids": a["index_image_ids"].astype(object)}, None,
             "unreadable model file"),
            (lambda a: {"version": np.array(1)}, None, "version 1, expected 6"),
            (lambda a: {"version": np.array(3), "index_degenerate": np.zeros(3, dtype=bool)},
             None, r"version 3, expected 6 \(rebuild it with build-vocab\)"),
            (lambda a: {"version": np.array(2), "index_feature_counts": None,
                        **{f"index_rows/{k}": None for k in range(3)}},
             None, r"version 2, expected 6 \(rebuild it with build-vocab\)"),
            (lambda a: {"version": np.array(4), "index_frames": np.zeros((5, 6)),
                        "index_descriptors": np.zeros((5, 10)),
                        **{f"index_rows/{k}": None for k in range(3)}},
             None, r"version 4, expected 6 \(rebuild it with build-vocab\)"),
            (lambda a: {"version": np.array(5), "kpca_matrix": None, "kpca_offset": None,
                        "kpca_alphas": np.zeros((9, 4)),
                        "index_sha256": np.array(["0" * 64] * 3)},
             None, r"model file version 5, expected 6 \(rebuild it with build-vocab\)"),
            (lambda a: {"index_feature_counts": np.array([-1, 6, 0])}, None, "feature counts"),
            (lambda a: {"index_feature_counts": np.array([3, 1, 0])}, "img1",
             "index row of 'img1' has 256 bytes, expected 128 for 1 features"),
            (_row_change(0, frames=lambda f: f[:, :-1]), "img0",
             "index row of 'img0' has 360 bytes, expected 384"),
            (_row_change(0, descriptors=lambda d: d[:-1]), "img0",
             "index row of 'img0' has 304 bytes, expected 384"),
            (_row_change(1, descriptors=lambda d: d[:, :-1]), "img1",
             "index row of 'img1' has 240 bytes, expected 256"),
            (_row_change(0, frames=lambda f: np.where(f > 99, np.inf, f)), "img0",
             "non-finite value in index row of 'img0'"),
            (_row_change(1, descriptors=lambda d: np.where(d > 0.5, np.nan, 0.0)), "img1",
             "non-finite value in index row of 'img1'"),
            (_row_change(0, frames=lambda f: f * [1, 1, 1, 1, 0, 1e-13]), "img0",
             r"index frame with \|det\| < 1e-12"),
            (_row_change(1, frames=lambda f: f * [1, 1, 1e200, 1, 1, 1e200]), "img1",
             r"index frame with \|det\| < 1e-12 or overflowing in row of 'img1'"),
            (_row_change(0, descriptors=lambda d: d * (1.0 + 1e-11)), "img0",
             "index descriptor whose norm is not 1 within 1e-12 in row of 'img0'"),
            (lambda a: {"index_rows/2": None}, "empty", "unreadable index row of 'empty'"),
            (lambda a: {"index_rows/2": b"\0" * 8}, "empty",
             "index row of 'empty' has 8 bytes, expected 0 for 0 features"),
        ],
        ids=["missing", "dtype", "bool_dtype", "shape", "scalar_shape", "index_lengths",
             "embedding_dim", "embedding_nan", "embedding_norm", "embedding_norm_half",
             "embedding_norm_tiny",
             "duplicate_id", "object_array", "version", "old_version", "version_2",
             "version_4", "version_5", "negative_count",
             "count_sum", "frame_width", "feature_lengths", "descriptor_width",
             "frame_inf", "descriptor_nan", "singular_frame", "det_overflow",
             "descriptor_norm", "row_missing", "row_bytes"],
    )
    def test_rejected(self, tmp_path, change, row, message):
        """A damage to the vocabulary or the index metadata fails the load;
        a damage to an index row fails only that row's read."""
        path = tmp_path / "vocab.txt"
        save_vocabulary(_indexed_vocabulary(), path)
        _rewrite(path, change(_members(path)))
        if row is None:
            with pytest.raises(VocabError, match=message):
                load_vocabulary(path)
            return
        with load_vocabulary(path) as vocab:
            ids = vocab.index.image_ids
            for k, image_id in enumerate(ids):
                if image_id != row:
                    vocab.read_row(k)
            with pytest.raises(VocabError, match=message):
                vocab.read_row(ids.index(row))
