import pytest

from nutaxis import preset, run_scenario

import loop_reference

PRESET_IDS = [
    ("fig1_left", "sigma=60"),
    ("fig1_left", "sigma=120"),
    ("fig1_left", "sigma=240"),
    ("fig1_right", "l=1.4"),
    ("fig1_right", "l=14"),
    ("fig1_right", "l=20"),
    ("fig3", "d=1"),
    ("fig3", "d=3"),
]


@pytest.fixture(scope="session")
def preset_runs():
    """Full trajectories for every shipped preset, computed once per session."""
    runs = {}
    for name, variant in PRESET_IDS:
        runs[(name, variant)] = run_scenario(preset(name, variant))
    return runs


@pytest.fixture(params=["numpy", "loops"])
def backend(request, monkeypatch):
    """Run the test on the numpy kernel, then on the loop reference."""
    if request.param == "loops":
        loop_reference.install(monkeypatch)
