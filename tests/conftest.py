import os
from pathlib import Path

import numpy as np
import pytest

import entanglecone


@pytest.fixture
def eigh_inputs(monkeypatch):
    """Copies of every array handed to np.linalg.eigh from here on."""
    inputs = []
    real = np.linalg.eigh

    def recording(a, *args, **kwargs):
        inputs.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return inputs


@pytest.fixture
def package_on_pythonpath(monkeypatch):
    """Let `python -m entanglecone` subprocesses import the package under
    test, also from a checkout that is not installed."""
    root = str(Path(entanglecone.__file__).resolve().parents[1])
    paths = [root, os.environ.get("PYTHONPATH", "")]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
