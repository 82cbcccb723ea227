"""The four settings objects: frozen, and checked whenever one is made."""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from patreid.encode import TrainingParams
from patreid.geometry import GeometryError, GeometryParams
from patreid.reid import CombineParams, ReidError
from patreid.synth import SynthConfig
from patreid.vocab import VocabError

# A valid object, the error a bad value raises, and one bad value of each
# field that is checked.
SETTINGS = {
    "CombineParams": (CombineParams(), ReidError, {"a": -1.0, "shortlist_size": -1}),
    "GeometryParams": (
        GeometryParams(),
        GeometryError,
        {"inlier_threshold": 0.0, "max_distance": 2.5, "ratio": 1.5},
    ),
    "TrainingParams": (
        TrainingParams(),
        VocabError,
        {"alpha": float("nan"), "kpca_dim": -1, "seed": -1, "gmm_k": 0, "pca_dim": 0},
    ),
    "SynthConfig": (
        SynthConfig(seed=0, n_individuals=1, views_per_individual=1),
        ValueError,
        {"seed": -1, "n_individuals": 0, "views_per_individual": 0,
         "points_per_individual": 0, "descriptor_dim": 0, "descriptor_noise_sigma": -0.1,
         "dropout_rate": 1.0, "clutter_rate": float("inf"), "max_perspective": float("nan")},
    ),
}


@pytest.mark.parametrize("name", SETTINGS)
def test_fields_cannot_be_assigned(name):
    valid, _, _ = SETTINGS[name]
    for f in fields(valid):
        with pytest.raises(FrozenInstanceError):
            setattr(valid, f.name, getattr(valid, f.name))


@pytest.mark.parametrize(
    "name, field", [(name, field) for name, (_, _, bad) in SETTINGS.items() for field in bad]
)
def test_replace_checks_the_new_value(name, field):
    valid, error, bad = SETTINGS[name]
    with pytest.raises(error, match=f"^{field} must"):
        replace(valid, **{field: bad[field]})
