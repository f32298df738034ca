"""Golden results of every shipped preset run to t_end.

Step counts are deterministic, so they are pinned exactly; the competition
index I(t_end) to rtol 1e-12.  The values were recorded with the numpy
backend.  A refactor of the integrator that changes any of them changes
its results, not just its code.
"""
import pytest

from conftest import PRESET_IDS

# (accepted, rejected, rebuilds, I(t_end))
GOLDEN = {
    ("fig1_left", "sigma=60"): (7139, 0, 70, -0.16862069838677057),
    ("fig1_left", "sigma=120"): (7354, 0, 73, 0.019460313474975448),
    ("fig1_left", "sigma=240"): (7659, 0, 86, 0.25685093708693196),
    ("fig1_right", "l=1.4"): (5777, 0, 68, -0.010319342720920265),
    ("fig1_right", "l=14"): (5765, 0, 63, 0.003357685535424295),
    ("fig1_right", "l=20"): (5767, 0, 65, 0.009527584740540775),
    ("fig3", "d=1"): (224323, 0, 71, -7.02782931771344),
    ("fig3", "d=3"): (186920, 0, 208, -21.781888011456722),
}


@pytest.mark.parametrize("key", PRESET_IDS, ids=["/".join(k) for k in PRESET_IDS])
def test_preset_golden(preset_runs, key):
    accepted, rejected, rebuilds, final_i = GOLDEN[key]
    result = preset_runs[key]
    stats = result.manifest.stats
    assert (stats["accepted"], stats["rejected"], stats["rebuilds"]) == (
        accepted, rejected, rebuilds)
    assert result.records[-1].I == pytest.approx(final_i, rel=1e-12, abs=0.0)
