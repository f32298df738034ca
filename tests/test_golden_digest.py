"""``benchmarks/golden_digest.py compare`` on two hand-made digests."""
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "benchmarks") not in sys.path:
    sys.path.append(str(ROOT / "benchmarks"))

import golden_digest  # noqa: E402


def _digest(i_end, **stepper):
    return {"fig3[3]": {"accepted": 78723, "I_end": float(i_end).hex(),
                        "sha256_u": "ab12",
                        "manifest": {"scenario": {"stepper": stepper},
                                     "stats": {"I_bracket": [-1.0, i_end]}}}}


def _compare(tmp_path, a, b):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    return golden_digest.compare(*map(str, paths))


def test_a_schema_only_difference_exits_0(tmp_path, capsys):
    # a retired config key is on one side only; every value is equal
    code = _compare(tmp_path, _digest(-21.5, dt=0.25, cfl_safety=0.5),
                    _digest(-21.5, dt=0.25))
    out = capsys.readouterr().out
    assert code == 0
    assert "schema: fig3[3].manifest.scenario.stepper.cfl_safety: only in A" \
        in out
    assert "fig3[3]: largest relative change 0" in out
    assert "0 value difference(s) and 1 schema line(s)" in out


def test_a_moved_value_exits_1_and_prints_its_relative_change(tmp_path,
                                                              capsys):
    i_a = -21.5
    i_b = i_a * (1.0 + 2e-9)
    code = _compare(tmp_path, _digest(i_a, dt=0.25), _digest(i_b, dt=0.25))
    out = capsys.readouterr().out
    assert code == 1
    assert "fig3[3].I_end:" in out and "relative -2e-09" in out
    # I_end and the bracket's end move alike; the first one found is named
    assert "fig3[3]: largest relative change 2e-09 (I_end)" in out
    assert "2 value difference(s) and 0 schema line(s)" in out


def test_the_heat_record_holds_every_key_and_repeats_bitwise():
    # in-process, as ``run`` calls it in its subprocess
    first = golden_digest.digest_heat()
    trajectory = {"sha256", "t_mid", "int_ln_U_mid", "int_ln_U_end"}
    assert set(first) == {"L", "t0", "L_radial_d3", "t0_radial_d3",
                          "heat_interval", "heat_radial_d3",
                          "transport_error_n100", "transport_error_n200",
                          "transport_error_n400"}
    for label in ("heat_interval", "heat_radial_d3"):
        assert set(first[label]) == trajectory
        assert len(first[label]["sha256"]) == 64
    floats = [(k, v) for k, v in first.items() if isinstance(v, str)]
    floats += [(k, v) for label in ("heat_interval", "heat_radial_d3")
               for k, v in first[label].items() if k != "sha256"]
    for key, value in floats:
        assert key in golden_digest.HEX_KEYS
        assert math.isfinite(float.fromhex(value))
    for key in ("L", "t0", "L_radial_d3", "t0_radial_d3"):
        assert float.fromhex(first[key]) > 0.0
    assert golden_digest.digest_heat() == first


def test_a_moved_heat_value_is_shown_in_decimal(tmp_path, capsys):
    a = {"heat[n=400]": {"heat_radial_d3": {
        "int_ln_U_end": (-2.5).hex(), "sha256": "ab12"}}}
    b = {"heat[n=400]": {"heat_radial_d3": {
        "int_ln_U_end": (-2.5 * (1.0 + 2e-12)).hex(), "sha256": "cd34"}}}
    code = _compare(tmp_path, a, b)
    out = capsys.readouterr().out
    assert code == 1
    assert "heat[n=400].heat_radial_d3.int_ln_U_end: " in out
    assert "-2.5 -> " in out and "relative -2e-12" in out


def test_the_verify_record_holds_each_check_by_name(monkeypatch):
    import nutaxis.verify as verify

    checks = [verify.CheckResult("jensen_constant", True, "c1 = 0.0"),
              verify.CheckResult("transport_zero_data", False, "error 1.0")]
    monkeypatch.setattr(verify, "run_all", lambda printer: checks)
    assert golden_digest.digest_verify() == {
        "jensen_constant": {"ok": True, "detail": "c1 = 0.0"},
        "transport_zero_data": {"ok": False, "detail": "error 1.0"}}
