"""Synthetic benchmark generator tests."""

import os

import numpy as np
import pytest
from oracles import read_homography_sidecar, scatter_points_brute_force

from patreid.geometry import apply_homography
from patreid.ingest import load_entry_features, load_manifest
from patreid.synth import (
    MAX_REJECTIONS,
    MIN_SEPARATION,
    Constellation,
    SynthConfig,
    SynthError,
    _scatter_points,
    generate_benchmark,
    generate_individual,
    neighborhood_signatures,
    render_observation,
    write_homography_sidecar,
)


def small_config(**overrides):
    base = dict(seed=11, n_individuals=4, views_per_individual=3)
    base.update(overrides)
    return SynthConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        small_config()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1),
            ("n_individuals", 0),
            ("views_per_individual", 0),
            ("points_per_individual", 0),
            ("descriptor_dim", 0),
            ("descriptor_noise_sigma", -0.1),
            ("dropout_rate", 1.0),
            ("dropout_rate", 1.5),
            ("clutter_rate", -0.2),
            ("max_perspective", -0.1),
        ],
    )
    def test_invalid_field_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            small_config(**{field: value})


class TestGenerateIndividual:
    def test_deterministic(self):
        cfg = small_config()
        a = generate_individual(cfg, 1)
        b = generate_individual(cfg, 1)
        assert a.individual_id == b.individual_id == "ind001"
        np.testing.assert_array_equal(a.canonical_points, b.canonical_points)
        np.testing.assert_array_equal(a.canonical_descriptors, b.canonical_descriptors)

    def test_distinct_individuals_differ(self):
        cfg = small_config()
        a = generate_individual(cfg, 0)
        b = generate_individual(cfg, 1)
        assert not np.array_equal(a.canonical_points, b.canonical_points)

    def test_shapes_and_unit_norm(self):
        cfg = small_config(points_per_individual=30, descriptor_dim=64)
        c = generate_individual(cfg, 0)
        assert c.canonical_points.shape == (30, 2)
        assert c.canonical_descriptors.shape == (30, 64)
        np.testing.assert_allclose(
            np.linalg.norm(c.canonical_descriptors, axis=1), 1.0, atol=1e-12
        )

    def test_single_point_constellation(self):
        cfg = small_config(points_per_individual=1)
        c = generate_individual(cfg, 0)
        assert c.canonical_points.shape == (1, 2)

    def test_impossible_placement_stops_at_the_cap(self):
        # No 12 points of the unit square are 0.5 apart (9 are, on a grid).
        # Placement gives up after MAX_REJECTIONS rejected draws in a row, not
        # after a number of draws that grows with the points asked for.
        rng, draws = np.random.default_rng(3), []

        class Counting:
            def random(self, size):
                draws.append(size)
                return rng.random(size)

        with pytest.raises(SynthError, match="^points_per_individual 12 do not fit 0.5 apart"):
            _scatter_points(Counting(), 12, 0.5)
        assert MAX_REJECTIONS <= len(draws) < 2 * MAX_REJECTIONS

    @pytest.mark.parametrize("seed, n, min_separation", [
        (0, 80, MIN_SEPARATION),
        (1, 300, MIN_SEPARATION),
        (2, 1000, MIN_SEPARATION),  # about 1,800 rejected draws
        (3, 12, 0.5),  # impossible: both give up after the same draws
    ])
    def test_grid_places_as_brute_force(self, seed, n, min_separation):
        grid_rng, brute_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            want = scatter_points_brute_force(brute_rng, n, min_separation)
        except SynthError as exc:
            with pytest.raises(SynthError) as gave_up:
                _scatter_points(grid_rng, n, min_separation)
            assert str(gave_up.value) == str(exc)
        else:
            assert _scatter_points(grid_rng, n, min_separation).tobytes() == want.tobytes()
        assert grid_rng.random() == brute_rng.random()  # no more, no fewer draws

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="index"):
            generate_individual(small_config(), 99)

    def test_cross_individual_descriptors_dissimilar(self):
        # Regression bound: descriptors of different individuals are near
        # orthogonal on average (measured max 0.073 on this configuration,
        # frozen with margin at 0.3).
        cfg = SynthConfig(seed=42, n_individuals=8, views_per_individual=2)
        inds = [generate_individual(cfg, i) for i in range(8)]
        for i in range(len(inds)):
            for j in range(i + 1, len(inds)):
                sim = np.abs(
                    inds[i].canonical_descriptors @ inds[j].canonical_descriptors.T
                )
                assert float(sim.mean()) < 0.3

    def test_signatures_translation_invariant(self):
        rng = np.random.default_rng(5)
        points = rng.random((20, 2))
        sig = neighborhood_signatures(points)
        shifted = neighborhood_signatures(points + 3.7)
        np.testing.assert_allclose(sig, shifted, atol=1e-12)


class TestRenderObservation:
    def test_clean_identity_view_equals_canonical(self):
        cfg = small_config(max_perspective=0.0)
        c = generate_individual(cfg, 0)
        features, H, source_index = render_observation(c, cfg, 0)
        np.testing.assert_array_equal(H, np.eye(3))
        np.testing.assert_array_equal(features.frames[:, :2], c.canonical_points)
        np.testing.assert_array_equal(features.descriptors, c.canonical_descriptors)
        np.testing.assert_array_equal(source_index, np.arange(cfg.points_per_individual))

    def test_deterministic(self):
        cfg = small_config()
        c = generate_individual(cfg, 2)
        f1, h1, s1 = render_observation(c, cfg, 1)
        f2, h2, s2 = render_observation(c, cfg, 1)
        np.testing.assert_array_equal(f1.frames, f2.frames)
        np.testing.assert_array_equal(f1.descriptors, f2.descriptors)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(s1, s2)

    def test_view_zero_has_no_dropout_or_clutter(self):
        cfg = small_config()
        c = generate_individual(cfg, 0)
        features, _, source_index = render_observation(c, cfg, 0)
        assert features.count == cfg.points_per_individual
        assert np.all(source_index >= 0)

    def test_source_index_maps_points_through_homography(self):
        cfg = small_config()
        c = generate_individual(cfg, 1)
        features, H, source_index = render_observation(c, cfg, 2)
        true = source_index >= 0
        expected = apply_homography(H, c.canonical_points[source_index[true]])
        np.testing.assert_allclose(features.frames[true, :2], expected, atol=1e-9)

    def test_clutter_count_and_placement(self):
        cfg = small_config(dropout_rate=0.0, clutter_rate=0.25, points_per_individual=40)
        c = generate_individual(cfg, 0)
        features, _, source_index = render_observation(c, cfg, 1)
        n_clutter = int(np.sum(source_index < 0))
        assert n_clutter == round(0.25 * 40)
        assert features.count == 40 + n_clutter

    def test_dropout_bounds(self):
        # With dropout 0.2 on 80 points the binomial tail below 48 retained
        # is ~3e-6, so every seeded view here stays within [48, 80].
        cfg = SynthConfig(seed=3, n_individuals=5, views_per_individual=9)
        for i in range(cfg.n_individuals):
            c = generate_individual(cfg, i)
            for v in range(1, cfg.views_per_individual):
                _, _, source_index = render_observation(c, cfg, v)
                retained = int(np.sum(source_index >= 0))
                assert 48 <= retained <= 80

    def test_noisy_descriptors_unit_norm(self):
        cfg = small_config()
        c = generate_individual(cfg, 0)
        features, _, _ = render_observation(c, cfg, 1)
        np.testing.assert_allclose(
            np.linalg.norm(features.descriptors, axis=1), 1.0, atol=1e-12
        )

    def test_frames_nonsingular(self):
        cfg = small_config()
        c = generate_individual(cfg, 0)
        features, _, _ = render_observation(c, cfg, 1)
        det = (
            features.frames[:, 2] * features.frames[:, 5]
            - features.frames[:, 3] * features.frames[:, 4]
        )
        assert np.all(np.abs(det) > 1e-12)

    def test_image_id_convention(self):
        cfg = small_config()
        c = generate_individual(cfg, 3)
        features, _, _ = render_observation(c, cfg, 2)
        assert features.image_id == "ind003_v2"


class TestHomographySidecar:
    def test_round_trip_scales_h33(self, tmp_path):
        H = np.array([[2.0, 0.1, 0.3], [0.0, 1.8, -0.2], [0.01, 0.02, 2.0]])
        path = tmp_path / "img.h"
        write_homography_sidecar(H, path)
        loaded = read_homography_sidecar(path)
        assert loaded[2, 2] == 1.0
        np.testing.assert_allclose(loaded, H / H[2, 2], atol=1e-12)

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "img.h"
        path.write_text("1 0 0 0 1 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="9 floats"):
            read_homography_sidecar(path)


class TestGenerateBenchmark:
    def test_counts_and_roles(self, tmp_path):
        cfg = SynthConfig(seed=7, n_individuals=2, views_per_individual=2)
        manifest = generate_benchmark(cfg, tmp_path / "bench")
        assert len(manifest.with_role("database")) == 2
        assert len(manifest.with_role("query")) == 2
        for entry in manifest.entries:
            assert os.path.isfile(manifest.entry_path(entry))
            assert (tmp_path / "bench" / f"{entry.image_id}.h").is_file()

    def test_database_views_are_view_zero(self, tmp_path):
        cfg = SynthConfig(seed=7, n_individuals=2, views_per_individual=3)
        manifest = generate_benchmark(cfg, tmp_path / "bench")
        assert all(e.image_id.endswith("_v0") for e in manifest.with_role("database"))
        assert all(
            e.individual_id is not None for e in manifest.entries
        )

    def test_regeneration_byte_identical(self, tmp_path):
        cfg = SynthConfig(seed=9, n_individuals=2, views_per_individual=2)
        generate_benchmark(cfg, tmp_path / "one")
        generate_benchmark(cfg, tmp_path / "two")
        files_one = sorted(p.name for p in (tmp_path / "one").iterdir())
        files_two = sorted(p.name for p in (tmp_path / "two").iterdir())
        assert files_one == files_two
        for name in files_one:
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_written_features_load_exactly(self, tmp_path):
        cfg = SynthConfig(seed=5, n_individuals=2, views_per_individual=2)
        out = tmp_path / "bench"
        manifest_path = out / "manifest.csv"
        generate_benchmark(cfg, out)
        manifest = load_manifest(manifest_path)
        entry = manifest.with_role("query")[0]
        features = load_entry_features(manifest, entry)
        ind = int(entry.individual_id[3:])
        constellation = generate_individual(cfg, ind)
        rendered, H, _ = render_observation(constellation, cfg, 1)
        np.testing.assert_array_equal(features.frames, rendered.frames)
        np.testing.assert_allclose(
            features.descriptors, rendered.descriptors, rtol=0, atol=1e-12
        )
        sidecar = read_homography_sidecar(out / f"{entry.image_id}.h")
        np.testing.assert_allclose(sidecar, H / H[2, 2], atol=1e-12)

    def test_invalid_config_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="dropout_rate"):
            cfg = SynthConfig(seed=1, n_individuals=2, views_per_individual=2, dropout_rate=1.5)
            generate_benchmark(cfg, tmp_path / "bench")
