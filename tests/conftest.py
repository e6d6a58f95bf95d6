import numpy as np
import pytest

from domm.bundle import ModelBundle, load_model_bundle, save_model_bundle
from domm.omsvm import OmsvmModel
from domm.svm import LinearModel, PlattCalibration


@pytest.fixture
def through_bundle(tmp_path):
    """Save a bundle holding the given parts to ``model.json`` and load it back.

    Parts left out get stand-ins: a one-feature classifier, no ranker, no
    transitions, one count per state.
    """

    def round_trip(omsvm=None, ranker=None, transitions=None) -> ModelBundle:
        if omsvm is None:
            stage = (LinearModel(np.zeros(1), 0.0), PlattCalibration(-1.0, 0.0))
            omsvm = OmsvmModel((stage, stage))
        width = omsvm.stage_models[0][0].weights.size
        bundle = ModelBundle(omsvm, ranker, transitions, np.ones(3, dtype=int), "", np.zeros(width), np.ones(width))
        save_model_bundle(bundle, tmp_path / "model.json")
        return load_model_bundle(tmp_path / "model.json")

    return round_trip
