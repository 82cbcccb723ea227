"""PCA, GMM/EM, kernel PCA, and vocabulary persistence tests."""

import errno
import inspect
import io
import json
import os
import re
import zipfile
import zlib

import numpy as np
import pytest
from oracles import (
    average_log_likelihood,
    dense_kpca_oracle,
    em_reference,
    join_model_file,
    kernel_row_kpca,
    split_model_file,
    write_model_file,
)

import patreid.vocab as vocab_module
from patreid.ingest import ImageFeatures
from patreid.vocab import (
    DatabaseIndex,
    Gmm,
    KpcaModel,
    ModelFile,
    PcaModel,
    VocabError,
    Vocabulary,
    _e_step,
    apply_kpca,
    apply_pca,
    fit_gmm,
    fit_kpca,
    fit_pca,
    load_vocabulary,
    save_vocabulary,
)


class TestFitPca:
    def test_line_data(self):
        X = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]])
        model, _ = fit_pca(X, out_dim=2)
        direction = np.array([1.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(model.basis[0]), direction, atol=1e-12)
        assert model.basis[0] @ direction > 0  # sign convention
        np.testing.assert_allclose(model.eigenvalues[1], 0.0, atol=1e-12)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 6)) @ rng.standard_normal((6, 6))
        model, _ = fit_pca(X.copy(), out_dim=6)
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
        model, _ = fit_pca(X.copy(), out_dim=5)
        Y = apply_pca(model, X)
        back = Y @ model.basis + model.mean
        np.testing.assert_allclose(back, X, atol=1e-9)

    def test_whitening_unit_variance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((300, 4)) * np.array([5.0, 2.0, 1.0, 0.3])
        model, _ = fit_pca(X.copy(), out_dim=4, whiten=True)
        Y = apply_pca(model, X)
        np.testing.assert_allclose(Y.var(axis=0), 1.0, atol=1e-9)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 5))
        model, _ = fit_pca(X, out_dim=5)
        for row in model.basis:
            assert row[np.argmax(np.abs(row))] > 0

    @pytest.mark.parametrize("whiten", [False, True])
    def test_projections_are_apply_pca_bits(self, whiten):
        # The GMM trains on these, and queries go through apply_pca.
        X = np.random.default_rng(4).standard_normal((300, 12))
        model, Y = fit_pca(X.copy(), out_dim=5, whiten=whiten)
        np.testing.assert_array_equal(Y, apply_pca(model, X))

    def test_input_centered_in_place(self):
        # X is the fit's scratch space: it is left holding the centered rows,
        # whose projections are those of the uncentered rows through apply_pca.
        X = np.random.default_rng(6).standard_normal((80, 6)) + 3.0
        before = X.copy()
        model, Y = fit_pca(X, out_dim=4, whiten=True)
        np.testing.assert_array_equal(X, before - before.mean(axis=0))
        np.testing.assert_array_equal(Y, apply_pca(model, before))

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

    def test_more_components_than_distinct_points(self):
        # After the second center every point sits on a chosen center, so
        # k-means++ draws the third uniformly.
        X = np.repeat([[0.0, 1.0], [2.0, -1.0]], 5, axis=0)
        a, b = fit_gmm(X, k=3, seed=5), fit_gmm(X, k=3, seed=5)
        for name in ("weights", "means", "variances", "log_likelihoods"):
            assert np.isfinite(getattr(a, name)).all()
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize(
        "k, max_iters, tol", [(4, 5, 1e-6), (4, 200, 1e-6), (1, 200, 1e-3)], ids=["cap", "tol", "k1"]
    )
    def test_bit_equal_to_reference_loop(self, k, max_iters, tol):
        # X * X is computed once per fit; the loop that recomputed it gives the
        # same bits.  At K=1 it is the same EM, not a closed form.
        rng = np.random.default_rng(4)
        X = np.vstack([rng.normal(c, 0.8, (90, 6)) for c in rng.uniform(-3, 3, (4, 6))])
        gmm = fit_gmm(X, k=k, seed=2, max_iters=max_iters, tol=tol)
        reference = em_reference(X, k, seed=2, max_iters=max_iters, tol=tol)
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

    @pytest.mark.parametrize("k", [1, 4])
    def test_last_trace_value_is_the_returned_model(self, k):
        # EM stops right after an E-step, so the trace's last value is the
        # average log-likelihood of the model it returns.
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(c, 0.8, (80, 5)) for c in rng.uniform(-3, 3, (4, 5))])
        gmm = fit_gmm(X, k=k, seed=1)
        trace = gmm.log_likelihoods
        assert 1 < len(trace) < 200 and trace[-1] - trace[-2] < 1e-3
        assert abs(trace[-1] - average_log_likelihood(gmm, X)) < 1e-12


def posteriors(gmm, X):
    return _e_step(gmm, X, X * X)[0]


class TestGmmPosteriors:
    def test_k1_is_one(self):
        gmm = Gmm(weights=np.ones(1), means=np.zeros((1, 2)), variances=np.ones((1, 2)))
        np.testing.assert_array_equal(posteriors(gmm, np.array([[3.0, -1.0]])), [[1.0]])

    def test_symmetric_components_split_evenly(self):
        gmm = Gmm(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.0], [1.0]]),
            variances=np.ones((2, 1)),
        )
        np.testing.assert_allclose(
            posteriors(gmm, np.array([[0.0]])), [[0.5, 0.5]], atol=1e-12
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 4))
        gmm = fit_gmm(X, k=5, seed=1)
        gamma = posteriors(gmm, X)
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
        np.testing.assert_allclose(posteriors(gmm, X), oracle, atol=1e-12)

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
        direct = np.log(dens.sum(axis=1))
        np.testing.assert_allclose(_e_step(gmm, X, X * X)[1], direct, rtol=0, atol=1e-12)
        assert abs(average_log_likelihood(gmm, X) - float(np.mean(direct))) < 1e-12


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
        _, Y = fit_pca(X, out_dim)
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

    def test_all_zero_vectors_rejected(self):
        with pytest.raises(VocabError, match="no positive eigenvalues"):
            fit_kpca(np.zeros((4, 3)), out_dim=2)

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

    def test_nonzero_vector_with_zero_projection_degenerate(self):
        # Training vectors symmetric in the first two axes have zero kernel row
        # means, so a query along the third axis projects to exactly zero.
        X = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        model = fit_kpca(X, out_dim=2)
        query = np.array([0.0, 0.0, 1.0])
        assert np.linalg.norm(model.matrix @ query - model.offset) < 1e-30
        np.testing.assert_array_equal(apply_kpca(model, query), np.zeros(2))

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
        pca, projections = fit_pca(descriptors, out_dim=6, whiten=True)
        gmm = fit_gmm(projections, k=3, seed=seed)
        fvs = rng.standard_normal((9, 2 * 3 * 6))
        kpca = fit_kpca(fvs, out_dim=4)
        index = DatabaseIndex([], np.zeros((0, kpca.out_dim)), np.zeros(0, dtype=np.int64))
        return Vocabulary(pca=pca, gmm=gmm, kpca=kpca, index=index, read_row=[].__getitem__,
                          alpha=0.5)

    def test_round_trip_value_identical(self, tmp_path):
        vocab = self._make_vocabulary()
        path = tmp_path / "vocab.txt"
        write_model_file(vocab, path)
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
        write_model_file(vocab, a)
        with load_vocabulary(a) as loaded:
            write_model_file(loaded, b)
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
        write_model_file(vocab, path)
        data = path.read_bytes()
        for size in (4, 100, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:size])
            with pytest.raises(VocabError):
                load_vocabulary(path)

    def test_corrupt_number(self, tmp_path):
        # One flipped byte inside an array's data fails the array's CRC-32.
        vocab = self._make_vocabulary()
        path = tmp_path / "vocab.txt"
        write_model_file(vocab, path)
        data = bytearray(path.read_bytes())
        at = data.index(vocab.pca.basis.tobytes()[:16])
        data[at + 3] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(VocabError, match="unreadable array 'pca_basis': bad CRC-32"):
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
        write_model_file(vocab, path)
        with pytest.raises(VocabError, match=message):
            load_vocabulary(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda v: (setattr(v.gmm, "means", v.gmm.means[:, :5]),
                        setattr(v.gmm, "variances", v.gmm.variances[:, :5])),
             "array 'gmm_means' has shape (3, 5), expected (3, 6)"),
            (lambda v: setattr(v.kpca, "matrix", np.hstack([v.kpca.matrix] * 2)),
             "array 'kpca_matrix' has shape (4, 72), expected (4, 36)"),
        ],
        ids=["gmm_dim", "kpca_features"],
    )
    def test_section_shapes_rejected(self, tmp_path, corrupt, message):
        # The writer refuses them before the arrays: no file, no .partial.
        vocab = self._make_vocabulary()
        corrupt(vocab)
        with pytest.raises(VocabError, match=re.escape(message)):
            write_model_file(vocab, tmp_path / "vocab.txt")
        assert list(tmp_path.iterdir()) == []

    def test_section_shapes_rejected_after_the_rows(self, tmp_path):
        # The rows are written by then, as build-vocab writes them while it
        # parses: the check still runs before the arrays, and leaves no file.
        vocab = _indexed_vocabulary()
        vocab.kpca.matrix = np.hstack([vocab.kpca.matrix] * 2)
        path = tmp_path / "vocab.bin"
        with pytest.raises(VocabError, match=re.escape(
                "array 'kpca_matrix' has shape (4, 72), expected (4, 36)")):
            with ModelFile(path) as model:
                for k in range(3):
                    model.append(vocab.read_row(k))
                model.fh.flush()
                assert os.path.getsize(model.partial) == 8 * (3 + 2 + 0) * 16
                save_vocabulary(vocab, model)
        assert list(tmp_path.iterdir()) == []

    def test_weights_sum_tolerance(self, tmp_path):
        vocab = self._make_vocabulary()
        vocab.gmm.weights = vocab.gmm.weights * (1.0 + 5e-7)
        path = tmp_path / "vocab.txt"
        write_model_file(vocab, path)
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
    """A model file's parts: its header as a dict, each array by name, and
    index_rows as a list of each row's (frames, descriptors)."""
    rows, arrays, header = split_model_file(path.read_bytes())
    dims = header["dims"]
    sizes = {**dims, "rows": len(header["index_image_ids"]), "f": 2 * dims["k"] * dims["pca_out"]}
    members = {name: np.frombuffer(arrays[name], dtype).reshape([sizes[d] for d in shape]).copy()
               for name, (dtype, shape) in vocab_module._LAYOUT.items()}
    values, dim, at = np.frombuffer(rows, "<f8"), dims["pca_in"], 0
    members["index_rows"] = []
    for count in members["index_feature_counts"]:
        frames = values[at : at + 6 * count].reshape(count, 6)
        descriptors = values[at + 6 * count : at + (6 + dim) * count].reshape(count, dim)
        members["index_rows"].append((frames, descriptors))
        at += (6 + dim) * count
    return {"header": header, **members}


def _rewrite(path, changes):
    """Rewrite a model file's parts: a dict replaces the header, an array
    (its raw bytes) an array, a list of (frames, descriptors) the index
    rows, whose CRC-32s are stored anew unless changes gives them; bytes
    replace any part and None drops one.  The header's array CRC-32s are
    stored anew unless changes gives the header.  Changes that are bytes
    replace the whole file."""
    if isinstance(changes, bytes):
        path.write_bytes(changes)
        return
    rows, arrays, header = split_model_file(path.read_bytes())
    parts = {"header": header, "index_rows": rows, **arrays}
    rows = changes.get("index_rows")
    if isinstance(rows, list):
        rows = [b"".join(np.ascontiguousarray(a, "<f8").tobytes() for a in row) for row in rows]
        changes = {"index_row_crc32": np.array([zlib.crc32(r) for r in rows], "<u4"),
                   **changes, "index_rows": b"".join(rows)}
    for name, value in changes.items():
        parts[name] = value.tobytes() if isinstance(value, np.ndarray) else value
    if "header" not in changes:
        header["array_crc32"] = [c if parts[name] is None else zlib.crc32(parts[name])
                                 for name, c in zip(vocab_module._LAYOUT, header["array_crc32"])]
    rows, header = parts.pop("index_rows") or b"", parts.pop("header") or b""
    path.write_bytes(join_model_file(rows, {n: a for n, a in parts.items() if a is not None},
                                     header))


def _zip_file(members):
    """A model file of a version before 9: a zip archive of members, each
    array written in the .npy format of files before version 7."""
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as archive:
        for name, value in members.items():
            if isinstance(value, np.ndarray):
                buffer = io.BytesIO()
                np.lib.format.write_array(buffer, value)
                value = buffer.getvalue()
            archive.writestr(name, value)
    return out.getvalue()


def _row_change(k, frames=lambda f: f, descriptors=lambda d: d):
    """A change of index row k's frames and descriptors."""

    def change(a):
        rows = list(a["index_rows"])
        rows[k] = (frames(rows[k][0]), descriptors(rows[k][1]))
        return {"index_rows": rows}

    return change


def _header_change(**fields):
    """A change of the header's fields."""
    return lambda a: {"header": {**a["header"], **fields}}


def _before_version_7(version, **members):
    """A file of an older layout, a zip archive with no header and no raw
    member: its version.npy, then members (arrays named "<name>.npy")."""
    return lambda a: _zip_file({"version.npy": np.array(version), **members})


def _version_8(a):
    """The file as version 8 stored it: a zip archive of header.json without
    array CRC-32s, one raw member per array, and the index rows' member."""
    header = {k: v for k, v in a["header"].items() if k != "array_crc32"}
    rows = b"".join(f.tobytes() + d.tobytes() for f, d in a["index_rows"])
    return _zip_file({"header.json": json.dumps({**header, "version": 8}), "index_rows": rows,
                      **{name: a[name].tobytes() for name in vocab_module._LAYOUT}})


# A file of an older version, which is a zip archive: refused whole.
OLDER = (r"not a model file of version 9 "
         r"\(one from an older version must be rebuilt with build-vocab\)")


def _row_bytes(path, k):
    """Index row k's bytes in the model file at path."""
    with load_vocabulary(path) as vocab:
        row = vocab.read_row(k)
    return row.frames.tobytes() + row.descriptors.tobytes()


class TestModelFile:
    def test_sequence_of_the_appended_rows(self, tmp_path):
        # build-vocab trains on its ModelFile as on a list of the rows it holds.
        rows = [_features("img0", 3, np.random.default_rng(0)),
                _features("empty", 0, np.random.default_rng(1), dim=4),
                _features("img2", 2, np.random.default_rng(2))]
        with ModelFile(tmp_path / "model.bin") as model:
            assert len(model) == 0
            for k, features in enumerate(rows):
                model.append(features)
                assert len(model) == k + 1
            assert [f.image_id for f in model] == ["img0", "empty", "img2"]
            for k, features in enumerate(rows):
                assert model[k].image_id == features.image_id
                assert model[k].frames.tobytes() == features.frames.tobytes()
                assert model[k].descriptors.shape == features.descriptors.shape
                assert model[k].descriptors.tobytes() == features.descriptors.tobytes()
            with pytest.raises(IndexError):
                model[len(rows)]

    @staticmethod
    def _equal_rows():
        """A vocabulary indexing four rows of 3 features each, and the rows."""
        vocab = TestVocabularyPersistence()._make_vocabulary()
        rng = np.random.default_rng(8)
        rows = [_features(f"img{i}", 3, rng) for i in range(4)]
        vocab.index = DatabaseIndex([f.image_id for f in rows], np.eye(4), np.full(4, 3))
        vocab.read_row = rows.__getitem__
        return vocab, rows

    @pytest.mark.parametrize(
        "change, message",
        [
            # Equal counts make every size agree: without the row check, the
            # file loaded with row 0 labelled img0 and holding img3's features.
            (lambda rows, rng: rows[::-1],
             "index row 0 is ('img3', 3, 10), expected ('img0', 3, 10)"),
            (lambda rows, rng: rows[:3], "index row 3 is None, expected ('img3', 3, 10)"),
            (lambda rows, rng: rows + [_features("img4", 3, rng)],
             "index row 4 is ('img4', 3, 10), expected None"),
            (lambda rows, rng: rows[:1] + [_features("img1", 2, rng)] + rows[2:],
             "index row 1 is ('img1', 2, 10), expected ('img1', 3, 10)"),
            (lambda rows, rng: rows[:2] + [_features("img2", 3, rng, dim=12)] + rows[3:],
             "index row 2 is ('img2', 3, 12), expected ('img2', 3, 10)"),
            (lambda rows, rng: rows[:1] + [_features("other", 3, rng)] + rows[2:],
             "index row 1 is ('other', 3, 10), expected ('img1', 3, 10)"),
        ],
        ids=["reverse_order", "row_missing", "row_extra", "count", "width", "image_id"],
    )
    def test_rows_not_the_index_refused(self, tmp_path, change, message):
        # Refused before the arrays: leaving the with block removes the
        # partial file, so nothing is left at the path.
        vocab, rows = self._equal_rows()
        path = tmp_path / "vocab.bin"
        with pytest.raises(VocabError, match=re.escape(f"{path}: {message}")):
            with ModelFile(path) as model:
                for features in change(rows, np.random.default_rng(9)):
                    model.append(features)
                save_vocabulary(vocab, model)
        assert list(tmp_path.iterdir()) == []

    def test_index_round_trip(self, tmp_path):
        vocab = _indexed_vocabulary()
        path = tmp_path / "vocab.txt"
        write_model_file(vocab, path)
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

    def test_plain_layout_at_the_given_path(self, tmp_path):
        # np.savez would write vocab-0.txt.npz; timestamps would vary by build.
        path = tmp_path / "vocab-0.txt"
        write_model_file(_indexed_vocabulary(), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab-0.txt"]
        data = path.read_bytes()
        rows, arrays, header = split_model_file(data)
        # The index rows from byte 0, 8 bytes per frame field and descriptor
        # value of each feature; each array in table order; the header; its
        # length; its CRC-32; the magic.  The header holds one CRC-32 per
        # array, however large the database.
        assert rows == b"".join(_row_bytes(path, k) for k in range(3))
        assert len(rows) == 8 * (3 + 2 + 0) * 16
        assert list(arrays) == list(vocab_module._LAYOUT)
        assert header["array_crc32"] == [zlib.crc32(a) for a in arrays.values()]
        text = json.dumps(header).encode()
        assert data.endswith(text + len(text).to_bytes(8, "little")
                             + zlib.crc32(text).to_bytes(4, "little") + b"PATMODEL")
        assert join_model_file(rows, arrays, header) == data
        members = _members(path)
        assert members["header"]["index_image_ids"] == ["img0", "img1", "empty"]
        assert members["index_row_crc32"].tolist() == [
            zlib.crc32(_row_bytes(path, k)) for k in range(3)
        ]

    def test_header_states_each_size_once(self, tmp_path):
        # rows is the number of image ids and f is 2 * k * pca_out, so
        # neither is stored, nor is the descriptor width (pca_in).
        path = tmp_path / "vocab.txt"
        write_model_file(_indexed_vocabulary(), path)
        header = _members(path)["header"]
        assert header["dims"] == {"pca_in": 10, "pca_out": 6, "k": 3, "m": 4}
        assert sorted(header) == ["alpha", "array_crc32", "dims", "index_image_ids",
                                  "pca_whiten", "version"]

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        write_model_file(_indexed_vocabulary(), path)
        old = path.read_bytes()
        vocab = _indexed_vocabulary()
        rows = vocab.read_row

        def read_row(k):
            if k == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return rows(k)

        vocab.read_row = read_row
        with pytest.raises(OSError, match="No space left"):
            write_model_file(vocab, path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]

    def test_load_parses_no_npy_header(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        write_model_file(_indexed_vocabulary(), path)
        monkeypatch.setattr(np.lib.format, "read_array", None)
        monkeypatch.setattr(np, "load", None)
        with load_vocabulary(path) as vocab:
            assert vocab.read_row(0).count == 3

    def test_empty_index_is_data(self, tmp_path):
        path = tmp_path / "vocab.txt"
        write_model_file(TestVocabularyPersistence()._make_vocabulary(), path)
        assert _members(path)["index_embeddings"].shape == (0, 4)
        assert _read_all(path)[0].index.image_ids == []

    def test_rows_read_on_demand(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.txt"
        write_model_file(_indexed_vocabulary(), path)
        reads = []
        read_index_row = vocab_module.read_index_row
        monkeypatch.setattr(
            vocab_module, "read_index_row",
            lambda *args: reads.append(args[2]) or read_index_row(*args),
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
        write_model_file(_indexed_vocabulary(), path)
        row = _row_bytes(path, 1)
        data = bytearray(path.read_bytes())
        data[data.index(row) + 5] ^= 0x40
        path.write_bytes(bytes(data))
        with load_vocabulary(path) as vocab:
            vocab.read_row(0)
            with pytest.raises(VocabError, match="unreadable index row of 'img1': bad CRC-32"):
                vocab.read_row(1)

    def test_rows_read_from_the_loaded_file(self, tmp_path):
        # A row is read from the file that was loaded, as it is when read:
        # replacing the path changes nothing, a byte flipped in place fails.
        path, other = tmp_path / "vocab.txt", tmp_path / "other.txt"
        write_model_file(_indexed_vocabulary(), path)
        rows = [_row_bytes(path, k) for k in range(3)]
        with load_vocabulary(path) as vocab:
            write_model_file(TestVocabularyPersistence()._make_vocabulary(), other)
            os.replace(other, path)
            assert [vocab.read_row(k).frames.tobytes() for k in range(2)] == [
                r[: len(r) * 6 // 16] for r in rows[:2]
            ]
        write_model_file(_indexed_vocabulary(), path)
        with load_vocabulary(path) as vocab:
            with open(path, "r+b") as fh:
                fh.seek(path.read_bytes().index(rows[0]) + 9)
                fh.write(b"\x01")
            with pytest.raises(VocabError, match="unreadable index row of 'img0': bad CRC-32"):
                vocab.read_row(0)
            vocab.read_row(1)

    @pytest.mark.parametrize(
        "change, row, message",
        [
            (lambda a: {"gmm_weights": None}, None, "unreadable array 'gmm_weights': bad CRC-32"),
            (lambda a: {"pca_mean": a["pca_mean"].astype(np.float32)}, None,
             "unreadable array 'pca_mean': bad CRC-32"),
            (_header_change(pca_whiten=1), None, "header field 'pca_whiten' is not of type bool"),
            (lambda a: {"pca_basis": a["pca_basis"][:, :-1]}, None,
             "unreadable array 'pca_basis': bad CRC-32"),
            (_header_change(alpha=[0.5]), None, "header field 'alpha' is not of type float"),
            (lambda a: {"index_feature_counts": a["index_feature_counts"][:-1]}, None,
             "unreadable array 'index_feature_counts': bad CRC-32"),
            (lambda a: {"index_embeddings": a["index_embeddings"][:, :-1]}, None,
             "unreadable array 'index_embeddings': bad CRC-32"),
            (lambda a: {"index_embeddings": np.where(a["index_embeddings"] > 0.1, np.nan, 0.0)},
             None, "non-finite value in index"),
            (lambda a: {"index_embeddings": 2.0 * a["index_embeddings"]}, None,
             "index embedding of 'img0' has norm"),
            (lambda a: {"index_embeddings": 0.5 * a["index_embeddings"]}, None,
             r"index embedding of 'img0' has norm 0\.5, expected 1 \(or 0"),
            (lambda a: {"index_embeddings": 1e-7 * a["index_embeddings"]}, None,
             r"index embedding of 'img0' has norm 1e-07, expected 1 \(or 0"),
            (_header_change(index_image_ids=["img0", "img0", "empty"]), None, "image id twice"),
            (lambda a: {"index_feature_counts": a["index_feature_counts"].astype("<i4")}, None,
             "unreadable array 'index_feature_counts': bad CRC-32"),
            (_header_change(version=1), None, "version 1, expected 9"),
            (_before_version_7(3, **{"index_degenerate.npy": np.zeros(3, dtype=bool)}),
             None, OLDER),
            (_before_version_7(2, **{"index_embeddings.npy": np.zeros((3, 4))}), None, OLDER),
            (_before_version_7(4, **{"index_frames.npy": np.zeros((5, 6)),
                                     "index_descriptors.npy": np.zeros((5, 10))}),
             None, OLDER),
            (_before_version_7(5, **{"kpca_alphas.npy": np.zeros((9, 4)),
                                     "index_sha256.npy": np.array(["0" * 64] * 3)}),
             None, OLDER),
            (lambda a: {"index_feature_counts": np.array([-1, 6, 0])}, None, "feature counts"),
            (lambda a: {"index_feature_counts": np.array([3, 1, 0])}, None,
             "index rows have 640 bytes, expected 512 for the feature counts"),
            (_row_change(0, frames=lambda f: f[:, :-1]), None,
             "index rows have 616 bytes, expected 640"),
            (_row_change(0, descriptors=lambda d: d[:-1]), None,
             "index rows have 560 bytes, expected 640"),
            (_row_change(1, descriptors=lambda d: d[:, :-1]), None,
             "index rows have 624 bytes, expected 640"),
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
            (lambda a: {"index_rows": None}, None,
             "index rows have 0 bytes, expected 640 for the feature counts"),
            (lambda a: {"index_rows": a["index_rows"][:2] + [(np.zeros((0, 6)), np.zeros(1))]},
             None, "index rows have 648 bytes, expected 640 for the feature counts"),
            (lambda a: {"index_row_crc32": a["index_row_crc32"] ^ np.array([0, 1, 0], "<u4")},
             "img1", "unreadable index row of 'img1': bad CRC-32"),
            (lambda a: {"index_rows": bytes(632), "index_row_crc32": a["index_row_crc32"]},
             None, "index rows have 632 bytes, expected 640 for the feature counts"),
            (lambda a: {"header": None}, None, "unreadable header: Expecting value"),
            (lambda a: {"header": b'{"version": 7,'}, None, "unreadable header: "),
            (lambda a: {"header": b"[7]"}, None, "header is not a JSON object"),
            (_header_change(index_image_ids=["img0", 1, "empty"]), None,
             "header field 'index_image_ids' is not a list of strings"),
            (lambda a: {"header": {**a["header"], "dims": {"k": 3}}}, None,
             "header dims pca_in, pca_out, k, m are not all counts"),
            (_before_version_7(6, **{"pca_mean.npy": np.zeros(10), "index_rows/0": bytes(384)}),
             None, OLDER),
            (lambda a: {"header": {**a["header"],
                                   "dims": {**a["header"]["dims"], "k": 0, "m": 1 << 62}},
                        **dict.fromkeys(["gmm_weights", "gmm_means", "gmm_variances",
                                         "kpca_matrix"], b"")},
             None,
             "1412 bytes precede the header, whose dims need 147573952589676413572 of arrays"),
            (_header_change(version=7, descriptor_dim=10), None,
             r"model file version 7, expected 9 \(rebuild it with build-vocab\)"),
            (_header_change(index_image_ids=["img0", "img1"]), None,
             "unreadable array 'index_row_crc32': bad CRC-32"),
            (_header_change(gmm_log_likelihoods="not an array", kpca_eigenvalues={"a": 1}),
             None, "header has unknown field 'gmm_log_likelihoods'"),
            (lambda a: {"header": {**a["header"], "dims": {**a["header"]["dims"], "rows": 3}}},
             None, "header dims has unknown key 'rows'"),
            (_version_8, None, OLDER),
            (_header_change(array_crc32=[0] * 10), None,
             "header field 'array_crc32' is not 11 integers"),
            (_header_change(array_crc32=[0.0] * 11), None,
             "header field 'array_crc32' is not 11 integers"),
        ],
        ids=["missing", "dtype", "bool_dtype", "shape", "scalar_shape", "index_lengths",
             "embedding_dim", "embedding_nan", "embedding_norm", "embedding_norm_half",
             "embedding_norm_tiny",
             "duplicate_id", "object_array", "version", "old_version", "version_2",
             "version_4", "version_5", "negative_count",
             "count_sum", "frame_width", "feature_lengths", "descriptor_width",
             "frame_inf", "descriptor_nan", "singular_frame", "det_overflow",
             "descriptor_norm", "row_missing", "row_bytes", "row_crc", "rows_short",
             "header_missing", "header_unparsable", "header_not_object", "id_type", "dims",
             "version_6", "empty_huge_dim", "version_7", "id_count", "unknown_field",
             "dims_unknown_key", "version_8", "array_crc_count", "array_crc_type"],
    )
    def test_rejected(self, tmp_path, change, row, message):
        """A damage to the vocabulary or the index metadata fails the load;
        a damage to an index row fails only that row's read."""
        path = tmp_path / "vocab.txt"
        write_model_file(_indexed_vocabulary(), path)
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
