import json

from wsnlife.cli import main

DESK = {
    "deployment.node_count": 20,
    "deployment.width": 150.0,
    "deployment.height": 100.0,
    "radio.communication_radius": 60.0,
    "radio.sensing_radius": 15.0,
    "energy.initial_energy": 0.002,
    "max_steps": 60,
    "metrics_stride": 20,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, DESK)
    assert main(["validate", "--config", str(path)]) == 0
    assert "configuration ok" in capsys.readouterr().out


def test_validate_bad_config_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, {"tm": "SGTTRot", "trigger.kind": "energy"})
    assert main(["validate", "--config", str(path)]) == 1
    assert "trigger.kind" in capsys.readouterr().err


def test_validate_budget_over_8192_joules_exit_1(tmp_path, capsys):
    # 300 nodes of 30 J: 9000 J, past the 2^53 quanta of 2^-40 J that keep
    # every energy sum exact
    path = write_config(tmp_path, {"energy.initial_energy": 30.0})
    assert main(["validate", "--config", str(path)]) == 1
    assert "energy.initial_energy" in capsys.readouterr().err


def test_validate_null_output_dir_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, {**DESK, "output_dir": None})
    assert main(["validate", "--config", str(path)]) == 1
    assert "output_dir" in capsys.readouterr().err


def test_missing_config_exit_1(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "none.json")]) == 1
    capsys.readouterr()


def test_simulate_writes_series(tmp_path, capsys):
    payload = dict(DESK)
    payload["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path, payload)
    assert main(["simulate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    series = tmp_path / "out" / "series_A3_DGETRec_seed1.csv"
    assert series.exists()
    assert str(series) in out


def test_simulate_seed_override(tmp_path, capsys):
    payload = dict(DESK)
    payload["output_dir"] = str(tmp_path / "out")
    path = write_config(tmp_path, payload)
    assert main(["simulate", "--config", str(path), "--seed", "9"]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "series_A3_DGETRec_seed9.csv").exists()


def test_simulate_seed_out_of_range_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, DESK)
    assert main(["simulate", "--config", str(path), "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err


def test_simulate_out_flag_overrides_dir(tmp_path, capsys):
    path = write_config(tmp_path, DESK)
    target = tmp_path / "elsewhere"
    assert main(["simulate", "--config", str(path), "--out", str(target)]) == 0
    capsys.readouterr()
    assert (target / "series_A3_DGETRec_seed1.csv").exists()


def test_sweep_runs_grid(tmp_path, capsys):
    payload = dict(DESK)
    payload.update(
        {
            "tc_list": ["A3"],
            "tm_list": ["DGETRec", "None"],
            "seeds": [1, 2],
            "output_dir": str(tmp_path / "out"),
        }
    )
    path = write_config(tmp_path, payload)
    assert main(["sweep", "--config", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert len(list(out.glob("series_*.csv"))) == 4
    assert (out / "summary.csv").exists()
    assert (out / "ranking.txt").exists()


def test_runtime_failure_exit_2(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    payload = dict(DESK)
    payload["output_dir"] = str(blocker / "out")
    path = write_config(tmp_path, payload)
    assert main(["sweep", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err
