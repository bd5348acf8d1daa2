import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
CFG = ROOT / "configs"


def run_cli(*args):
    env = dict(PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "betatiling.cli", *args],
        capture_output=True, text=True, env=env, timeout=300)


def test_expand_report():
    r = run_cli("expand", "--config", str(CFG / "golden_greedy.json"), "--x=-1,1")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["preperiod"] == [1]
    assert rep["period"] == [0]
    assert "config_hash" in rep


def test_expand_out_of_domain_exit_2():
    r = run_cli("expand", "--config", str(CFG / "golden_greedy.json"), "--x=4,0")
    assert r.returncode == 2


def test_bad_config_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"field": [0, 2], "preset": "greedy"}')
    r = run_cli("periodic", "--config", str(p))
    assert r.returncode == 2


def test_digits_without_parts_exit_2(tmp_path):
    # three digits and two interval lists
    cfg = json.loads((CFG / "golden_pm1.json").read_text())
    cfg["digits"].append(["0", "0"])
    p = tmp_path / "unpaired.json"
    p.write_text(json.dumps(cfg))
    r = run_cli("vset", "--config", str(p))
    assert r.returncode == 2
    assert "ValidationError: 3 digits but 2 interval lists" in r.stderr


def test_periodic_golden_greedy():
    r = run_cli("periodic", "--config", str(CFG / "golden_greedy.json"))
    rep = json.loads(r.stdout)
    assert rep["P"] == [[0, 0]]


def test_vset_deterministic():
    r1 = run_cli("vset", "--config", str(CFG / "golden_minweight.json"))
    r2 = run_cli("vset", "--config", str(CFG / "golden_minweight.json"))
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    rep = json.loads(r1.stdout)
    assert len(rep["V"]) == 15


def test_check_commands():
    r = run_cli("check-f", "--config", str(CFG / "golden_greedy.json"))
    assert json.loads(r.stdout) == {"f": True, "P_count": 1,
                                    "command": "check-f",
                                    "config_hash": json.loads(r.stdout)["config_hash"]}
    r = run_cli("check-w", "--config", str(CFG / "golden_symmetric.json"))
    rep = json.loads(r.stdout)
    assert rep["status"] == "holds"
    assert all(w["z"] == [-8, 5] and w["k"] == 3 for w in rep["witnesses"])


def test_check_w_left_continuous_exit_2():
    r = run_cli("check-w", "--config", str(CFG / "golden_lazy.json"))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.strip().splitlines() == [
        "error: ValidationError: weak-finiteness search expects the right-continuous map"]


def test_natext_svg(tmp_path):
    svg = tmp_path / "n.svg"
    out = tmp_path / "n.json"
    r = run_cli("natext", "--config", str(CFG / "golden_greedy.json"),
                "--depth", "18", "--out", str(out), "--svg", str(svg))
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    assert abs(rep["area_estimate"] - 1.0) < 0.05
    body = svg.read_text()
    assert body.startswith("<svg") and "circle" in body
    # determinism of the rendering
    svg2 = tmp_path / "n2.svg"
    run_cli("natext", "--config", str(CFG / "golden_greedy.json"),
            "--depth", "18", "--out", str(out), "--svg", str(svg2))
    assert svg.read_text() == svg2.read_text()


def test_sofic_report(tmp_path):
    dot = tmp_path / "a.dot"
    r = run_cli("sofic", "--config", str(CFG / "golden_greedy.json"), "--dot", str(dot))
    rep = json.loads(r.stdout)
    assert rep["sofic"] is True
    assert rep["forbidden_words"] == [[1, 1]]
    assert dot.read_text().startswith("digraph")


def test_decide_tiling_report():
    r = run_cli("decide-tiling", "--config", str(CFG / "golden_greedy.json"))
    rep = json.loads(r.stdout)
    assert rep["verdict"] == "tiling"


def test_translates_report():
    r = run_cli("translates", "--config", str(CFG / "golden_greedy.json"),
                "--depth", "16")
    rep = json.loads(r.stdout)
    cov = {int(k): v for k, v in rep["coverage"].items()}
    assert cov.get(1, 0) > 0.8


def test_translates_fractional_scale():
    r = run_cli("translates", "--config", str(CFG / "golden_greedy.json"),
                "--depth", "10", "--scale", "0.7")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["scale"] == 0.7
    assert rep["translates"] and sum(rep["coverage"].values()) == pytest.approx(1)


def test_degree_default_samples():
    r = run_cli("degree", "--config", str(CFG / "golden_greedy.json"))
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["samples"] == 50
    assert rep["min_count"] == 1


@pytest.mark.parametrize("args", [("tiles", "--depth", "-1"), ("natext", "--depth", "-1"),
                                  ("translates", "--scale", "0"),
                                  ("translates", "--scale", "-1")])
def test_out_of_range_depth_and_scale_exit_2(args):
    r = run_cli(args[0], "--config", str(CFG / "golden_greedy.json"), *args[1:])
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ValidationError: ")


@pytest.mark.parametrize("cfg,key", [
    ({}, "field"),
    ({"field": "x"}, "field"),
    ({"field": [1, 1], "preset": "linear_mod1", "alpha": 0.3}, "alpha"),
    ({"field": [1, 1], "preset": "linear_mod1", "alpha": "3/10"}, "alpha"),
    ({"field": [1, 1], "preset": "symmetric", "restrict_to_support": "no"}, "restrict_to_support"),
    ({"field": [1, 1], "preset": "greedy", "side": "left"}, "side"),
    ({"field": [1, 1], "preset": "linear_mod1", "alpha": [0.3]}, "alpha"),
    ({"field": [1, 1], "digits": [[-1], [1]],
      "parts": [[{"lo": [-1], "hi": [0]}], [{"lo": [0.0], "hi": [1]}]]}, "parts"),
], ids=["no_field", "field_string", "alpha_float", "alpha_string", "restrict_string",
        "side_beside_preset", "alpha_float_coordinate", "parts_float_coordinate"])
def test_malformed_config_exit_2_naming_the_key(tmp_path, cfg, key):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    r = run_cli("expand", "--config", str(p), "--x=0,0")
    assert r.returncode == 2
    assert r.stderr.startswith("error: ValidationError: ") and f"'{key}'" in r.stderr
    assert r.stderr.count("\n") == 1
