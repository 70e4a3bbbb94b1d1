import csv
import json
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from wsnlife import engine, experiment
from wsnlife import (
    ConfigError,
    MetricsSample,
    RunResult,
    SimConfig,
    Site,
    TCProtocol,
    TMProtocol,
    TriggerKind,
    deploy,
    deployment,
    distance,
    run,
)
from wsnlife.construction import _sensors
from wsnlife.experiment import (
    CONFIG_KEYS,
    ExperimentSpec,
    SummaryRow,
    config_for,
    emit_series,
    parse_config,
    run_experiment,
    series_name,
    summarize,
    write_ranking,
    write_summary,
)

from helpers import coverage_calls
from test_golden import desk_config


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


DESK = {
    "deployment.node_count": 30,
    "deployment.width": 200.0,
    "deployment.height": 150.0,
    "deployment.seed": 1,
    "radio.communication_radius": 60.0,
    "radio.sensing_radius": 15.0,
    "energy.initial_energy": 0.005,
    "max_steps": 150,
    "metrics_stride": 25,
}


def test_empty_config_gives_standard_defaults(tmp_path):
    spec = parse_config(write_config(tmp_path, {}))
    base = spec.base
    assert base.deployment.node_count == 300
    assert base.deployment.area.width == 1074.0
    assert base.deployment.area.height == 660.0
    assert base.radio.communication_radius == 100.0
    assert base.radio.sensing_radius == 20.0
    assert base.energy.elec_energy_per_bit == 50e-9
    assert base.energy.amp_energy_per_bit_m2 == 10e-12
    assert base.tm is TMProtocol.DGETREC
    assert base.trigger.kind is TriggerKind.ENERGY
    assert spec.tc_list == ["A3"] and spec.tm_list == ["DGETRec"] and spec.seeds == [1]


def test_zero_node_count_names_field(tmp_path):
    path = write_config(tmp_path, {"deployment.node_count": 0})
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.field == "deployment.node_count"


def test_family_mismatch_names_trigger_kind(tmp_path):
    path = write_config(tmp_path, {"tm": "SGETRot", "trigger.kind": "time"})
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.field == "trigger.kind"


def test_explicit_trigger_kind_is_checked_against_the_swept_tm_only(tmp_path):
    # the default tm, DGETRec, is energy-triggered, but the sweep never runs it
    payload = {"tm_list": ["DGTTRec"], "trigger.kind": "time", "seeds": [1]}
    spec = parse_config(write_config(tmp_path, payload))
    assert spec.tm_list == ["DGTTRec"]
    config = config_for(spec, "A3", "DGTTRec", 1)
    assert config.trigger.kind is TriggerKind.TIME


def test_explicit_trigger_kind_is_checked_against_every_swept_tm(tmp_path):
    # the base runs no maintenance, but the sweep runs an energy-triggered one
    payload = {"tm": "None", "trigger.kind": "time", "tm_list": ["DGETRec"], "seeds": [1]}
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, payload))
    assert err.value.field == "trigger.kind"
    assert "DGETRec requires an energy-triggered policy" in str(err.value)


def test_trigger_kind_inferred_from_tm(tmp_path):
    spec = parse_config(write_config(tmp_path, {"tm": "SGTTRot"}))
    assert spec.base.trigger.kind is TriggerKind.TIME


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, {"deployment.node_cnt": 10})
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.field == "deployment.node_cnt"


def test_malformed_and_missing_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(bad)
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.json")


def test_out_of_range_values_name_keys(tmp_path):
    for key, value in (
        ("trigger.energy_threshold", 1.0),
        ("sensing.detection_threshold", 0.0),
        ("max_steps", 0),
        ("deployment.seed", -1),
        ("tm", "GETRec"),
        ("deployment.width", float("inf")),
        ("sensing.uncertainty_radius", float("nan")),
        ("radio.communication_radius", 10**400),
        ("grid_cell", 1e-6),
        ("grid_cell", 5e-324),
    ):
        with pytest.raises(ConfigError) as err:
            parse_config(write_config(tmp_path, {key: value}))
        assert err.value.field == key


@pytest.mark.parametrize("value", [None, 3, ["out"]])
def test_output_dir_must_be_a_string(tmp_path, value):
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, {"output_dir": value}))
    assert err.value.field == "output_dir"


@pytest.mark.parametrize(
    "key, entries",
    [
        ("seeds", [1, 2, 1]),
        ("tc_list", ["A3", "A3"]),
        ("tm_list", ["None", "None"]),
        ("seeds", [1, -1]),
        ("tm_list", ["DGETRec", "GETRec"]),
        ("tc_list", []),
        ("seeds", 3),
    ],
)
def test_bad_sweep_entries_name_list_key(tmp_path, key, entries):
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, {key: entries}))
    assert err.value.field == key


def readme_config_table() -> dict[str, str]:
    """Key -> documented default from the README "Configuration" table."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("\n## Configuration", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        keys_cell, default_cell = line.split("|")[1:3]
        keys = re.findall(r"`([^`]+)`", keys_cell)
        defaults = [d.strip() for d in default_cell.split(",")]
        if len(defaults) == 1:
            defaults *= len(keys)
        assert len(defaults) == len(keys), line
        table.update(zip(keys, defaults))
    return table


def test_readme_configuration_table_matches_schema():
    documented = readme_config_table()
    assert set(documented) == set(CONFIG_KEYS) | {"tc_list", "tm_list", "seeds", "output_dir"}
    for key, entry in CONFIG_KEYS.items():
        if key == "trigger.kind":
            assert documented[key] == "inferred from `tm`"
            assert entry.default is CONFIG_KEYS["tm"].default.trigger_kind
        elif isinstance(entry.json_default, str):
            assert documented[key] == f'"{entry.json_default}"', key
        else:
            assert float(documented[key]) == entry.default, key
    assert documented["output_dir"] == '"out"'


def test_single_weight_implies_complement(tmp_path):
    spec = parse_config(write_config(tmp_path, {"a3.energy_weight": 0.7}))
    assert spec.base.a3.energy_weight == pytest.approx(0.7)
    assert spec.base.a3.distance_weight == pytest.approx(0.3)
    with pytest.raises(ConfigError):
        parse_config(
            write_config(
                tmp_path, {"a3.energy_weight": 0.7, "a3.distance_weight": 0.5}
            )
        )


def test_config_for_adapts_trigger_family(tmp_path):
    spec = parse_config(write_config(tmp_path, DESK))
    tt = config_for(spec, "A3", "DGTTRec", 3)
    assert tt.tm is TMProtocol.DGTTREC
    assert tt.trigger.kind is TriggerKind.TIME
    assert tt.deployment.seed == 3
    et = config_for(spec, "A3Cov", "HGETRecRot", 4)
    assert et.trigger.kind is TriggerKind.ENERGY
    baseline = config_for(spec, "A3", "None", 5)
    assert baseline.tm is None


def fake_result():
    series = [
        MetricsSample(0, 30, 20, 0.5, 0.25),
        MetricsSample(25, 30, 15, 0.4000004, 0.2),
        MetricsSample(50, 28, 2, 0.1, 0.05),
        MetricsSample(75, 27, 1, 0.0333333, 0.0),
    ]
    return RunResult(
        series=series,
        death_times={5: 33, 9: 41},
        maintenance_events=[(40, "Recreated")],
        final_summary={"steps": 75},
    )


def test_summarize_fields():
    row = summarize(fake_result(), "A3", "DGETRec", 1, node_count=30)
    assert row.time_to_first_death == 33
    assert row.time_to_low_reachability == 50  # first sample below 3.0
    expected_comm = 0.5 * 25 + 0.4 * 25 + 0.1 * 25
    assert row.integrated_comm_coverage == pytest.approx(expected_comm)
    expected_sense = 0.25 * 25 + 0.2 * 25 + 0.05 * 25
    assert row.integrated_sensing_coverage == pytest.approx(expected_sense)


def test_summarize_censors_at_series_end():
    result = fake_result()
    row = summarize(result, "A3", "None", 1, node_count=10)  # threshold 1.0
    assert row.time_to_low_reachability == 75  # never crosses below 1


def test_emit_series_format(tmp_path):
    path = emit_series(fake_result(), tmp_path / "series.csv")
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "step,alive,sink_reachable,comm_coverage,sensing_coverage"
    assert lines[1] == "0,30,20,0.500000,0.250000"
    assert lines[2] == "25,30,15,0.400000,0.200000"
    assert len(lines) == 5
    for line in lines[1:]:
        cov = float(line.split(",")[3])
        assert 0.0 <= cov <= 1.0


def test_emit_series_sink_only(tmp_path):
    from wsnlife import DeploymentConfig, SimConfig

    config = SimConfig(
        deployment=DeploymentConfig(node_count=1, seed=0), max_steps=2, metrics_stride=1
    )
    path = emit_series(run(config), tmp_path / "solo.csv")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 samples
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_emit_series_fresh_default_run_step_zero(tmp_path):
    from wsnlife import SimConfig

    config = SimConfig(max_steps=1, metrics_stride=1)
    path = emit_series(run(config), tmp_path / "default.csv")
    first_row = path.read_text().split("\n")[1]
    fields = first_row.split(",")
    assert fields[0] == "0" and fields[1] == "300"
    assert 0.0 <= float(fields[3]) <= 1.0 and 0.0 <= float(fields[4]) <= 1.0


def test_run_experiment_grid(tmp_path):
    payload = dict(DESK)
    payload.update(
        {
            "tc_list": ["A3", "A3Cov"],
            "tm_list": [
                "DGETRec",
                "HGETRecRot",
                "SGETRot",
                "DGTTRec",
                "HGTTRecRot",
                "SGTTRot",
            ],
            "seeds": [1],
            "output_dir": str(tmp_path / "out"),
        }
    )
    spec = parse_config(write_config(tmp_path, payload))
    written = run_experiment(spec)
    series = [p for p in written if p.name.startswith("series_")]
    assert len(series) == 12
    assert (tmp_path / "out" / "summary.csv").exists()
    assert (tmp_path / "out" / "ranking.txt").exists()

    with open(tmp_path / "out" / "summary.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 12
    combos = {(r["tc"], r["tm"], r["seed"]) for r in rows}
    assert len(combos) == 12

    ranking = (tmp_path / "out" / "ranking.txt").read_text()
    assert "A3+DGETRec rank:" in ranking
    assert "of 12" in ranking


def test_sweep_checks_every_config_before_building_its_grid(tmp_path):
    # a config is checked as it is built, a copy as well as a new one
    with pytest.raises(ConfigError) as err:
        replace(SimConfig(), grid_cell=0.0)
    assert err.value.field == "grid_cell"
    # so a sweep's cell with a bad seed fails as run_experiment builds its
    # cells, before any site or file
    spec = ExperimentSpec(
        base=SimConfig(),
        tc_list=["A3"],
        tm_list=["DGETRec"],
        seeds=[1, 2**64],
        output_dir=tmp_path / "out",
    )
    with pytest.raises(ConfigError) as err:
        config_for(spec, "A3", "DGETRec", 2**64)
    assert err.value.field == "deployment.seed"
    with mock.patch.object(experiment, "Site", side_effect=AssertionError("site built")):
        with pytest.raises(ConfigError) as err:
            run_experiment(spec)
    assert err.value.field == "deployment.seed"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, entries, message",
    [
        ("tm_list", ["DGETRec", "DGETRec"], "entries must be distinct"),
        ("seeds", [1, 2, 1], "entries must be distinct"),
        ("tc_list", [], "must be a non-empty list"),
    ],
)
def test_a_spec_built_directly_checks_its_lists(tmp_path, key, entries, message):
    # a spec not read by parse_config gets the same checks, so no sweep
    # runs a cell twice or writes a summary of no cells
    lists = {"tc_list": ["A3"], "tm_list": ["DGETRec"], "seeds": [1], key: entries}
    with pytest.raises(ConfigError) as err:
        ExperimentSpec(base=SimConfig(), output_dir=tmp_path / "out", **lists)
    assert err.value.field == key
    assert err.value.message == message


def sweep_spec(tmp_path, seeds=(1, 2)):
    """A3 and A3Cov under every maintenance protocol and none, on the
    acceptance suite's desk deployments of seeds, where relays die and
    trees are rebuilt well inside the horizon."""
    return ExperimentSpec(
        base=desk_config(TCProtocol.A3, TMProtocol.DGETREC, 1),
        tc_list=["A3", "A3Cov"],
        tm_list=[p.value for p in TMProtocol] + ["None"],
        seeds=list(seeds),
        output_dir=tmp_path / "sweep",
    )


def test_sharing_sites_changes_no_written_byte(tmp_path):
    # the sweep's cells of a seed share one site; each cell alone, through
    # run(config) and the same writers, builds its own
    spec = sweep_spec(tmp_path)
    written = run_experiment(spec)
    alone = tmp_path / "alone"
    alone.mkdir()
    rows = []
    for tc in spec.tc_list:
        for tm in spec.tm_list:
            for seed in spec.seeds:
                config = config_for(spec, tc, tm, seed)
                result = run(config)
                emit_series(result, alone / series_name(tc, tm, seed))
                rows.append(summarize(result, tc, tm, seed, config.deployment.node_count))
    write_summary(rows, alone / "summary.csv")
    write_ranking(rows, alone / "ranking.txt")
    assert len(written) == 2 * 7 * 2 + 2
    assert sorted(p.name for p in written) == sorted(p.name for p in alone.iterdir())
    for path in written:
        assert path.read_bytes() == (alone / path.name).read_bytes(), path.name


def test_promotion_inputs_built_by_other_cells_match_a_fresh_site(tmp_path):
    # A3Cov cells run first on one shared site and last, in the reverse
    # order, on another, so each reads inputs that other cells built
    spec = sweep_spec(tmp_path, seeds=(1,))
    base = config_for(spec, "A3", "None", 1)
    key = (base.deployment, base.radio, base.sensing, base.grid_cell)
    first, last = (Site(*key) for _ in range(2))
    a3cov = [config_for(spec, "A3Cov", tm, 1) for tm in spec.tm_list]
    a3 = [config_for(spec, "A3", tm, 1) for tm in spec.tm_list]
    early = [run(config, site=first).to_dict() for config in a3cov]
    for config in a3:
        run(config, site=first)
        run(config, site=last)
    late = [run(config, site=last).to_dict() for config in reversed(a3cov)]
    assert early == late[::-1]
    assert early == [run(config).to_dict() for config in a3cov]
    assert first.sensors and first.distances
    assert (first.sensors, first.distances) == (last.sensors, last.distances)
    # every entry, whichever cell and step built it, is a fresh state's
    fresh = deploy(Site(*key), base.energy)
    for sid, entry in first.sensors.items():
        assert entry == _sensors(fresh, sid)
    for sid, dists in first.distances.items():
        at = fresh.nodes[sid].position
        assert dists == [distance(at, fresh.nodes[nid].position) for nid in first.links[sid]]


def test_a_sweep_builds_one_site_per_seed(tmp_path):
    spec = replace(sweep_spec(tmp_path), tm_list=["DGETRec", "SGTTRot"])
    built = []

    def recorded(*args):
        built.append(Site(*args))
        return built[-1]

    with mock.patch.object(experiment, "Site", recorded):
        run_experiment(spec)
    assert [site.deployment.seed for site in built] == spec.seeds == [1, 2]


def test_a_sweep_builds_the_links_of_each_seed_once(tmp_path):
    spec = replace(sweep_spec(tmp_path), tm_list=["DGETRec", "SGTTRot", "None"])
    links = deployment._links
    radii = Counter()

    def counted(positions, radius):
        radii[radius] += 1
        return links(positions, radius)

    with mock.patch.object(deployment, "_links", counted):
        run_experiment(replace(spec, tc_list=["A3"]))
        assert radii == {60.0: 2}
        radii.clear()
        run_experiment(spec)
    # the sensing links at r + r_u = 17 m once an A3Cov cell has run
    assert radii == {60.0: 2, 17.0: 2}


def test_a_sweep_builds_each_initial_state_once_per_seed_and_tc(tmp_path):
    # D and no maintenance share one construction, S and H one rotation set
    spec = sweep_spec(tmp_path)
    calls = Counter()

    def counted(name):
        fn = getattr(engine, name)

        def wrapper(state, tc, *args):
            calls[name, state.site.deployment.seed, tc] += 1
            return fn(state, tc, *args)

        return wrapper

    with mock.patch.object(engine, "construct", counted("construct")), mock.patch.object(
        engine, "precompute_rotation_set", counted("precompute_rotation_set")
    ):
        run_experiment(spec)
    assert calls == {
        (name, seed, tc): 1
        for name in ("construct", "precompute_rotation_set")
        for seed in spec.seeds
        for tc in TCProtocol
    }


def test_a_sweep_computes_coverages_once_per_site_and_reach_set(tmp_path):
    spec = sweep_spec(tmp_path)
    with coverage_calls() as (samples, calls):
        run_experiment(spec)
    distinct = len(set(samples))
    assert calls == {"comm_coverage": distinct, "sensing_coverage": distinct}
    assert len({site for site, _ in samples}) == len(spec.seeds)
    assert distinct < len(samples)


def test_a_writer_that_fails_mid_file_leaves_no_file(tmp_path):
    good = MetricsSample(0, 2, 2, 0.5, 0.25)
    bad = MetricsSample(10, 2, 2, None, 0.25)  # no float to format
    row = SummaryRow("A3", "DGETRec", 1, 10, 20, 100.0, 50.0)
    with pytest.raises(TypeError):
        emit_series(RunResult([good, bad], {}, [], {}), tmp_path / "series.csv")
    with pytest.raises(TypeError):
        write_summary([row, None], tmp_path / "summary.csv")
    assert list(tmp_path.iterdir()) == []
    # a file in place keeps every old byte
    path = emit_series(RunResult([good], {}, [], {}), tmp_path / "series.csv")
    before = path.read_bytes()
    with pytest.raises(TypeError):
        emit_series(RunResult([good, bad], {}, [], {}), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_summary_integral_recomputable_from_csv(tmp_path):
    payload = dict(DESK)
    payload["output_dir"] = str(tmp_path / "out")
    spec = parse_config(write_config(tmp_path, payload))
    run_experiment(spec)
    with open(tmp_path / "out" / "summary.csv") as handle:
        summary = list(csv.DictReader(handle))
    assert len(summary) == 1
    series_file = tmp_path / "out" / "series_A3_DGETRec_seed1.csv"
    with open(series_file) as handle:
        series = list(csv.DictReader(handle))
    for column, target in (
        ("comm_coverage", "integrated_comm_coverage"),
        ("sensing_coverage", "integrated_sensing_coverage"),
    ):
        steps = [int(r["step"]) for r in series]
        values = [float(r[column]) for r in series]
        left_sum = sum(
            values[i] * (steps[i + 1] - steps[i]) for i in range(len(steps) - 1)
        )
        assert float(summary[0][target]) == pytest.approx(left_sum, abs=1e-9)


def test_rerun_is_byte_identical(tmp_path):
    payload = dict(DESK)
    payload.update({"tm_list": ["DGETRec", "SGETRot"], "seeds": [1, 2]})
    payload["output_dir"] = str(tmp_path / "out_a")
    spec_a = parse_config(write_config(tmp_path, payload, "a.json"))
    files_a = run_experiment(spec_a)
    payload["output_dir"] = str(tmp_path / "out_b")
    spec_b = parse_config(write_config(tmp_path, payload, "b.json"))
    files_b = run_experiment(spec_b)
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_ranking_report_orders_by_mean(tmp_path):
    rows = [
        SummaryRow("A3", "DGETRec", 1, 10, 20, 100.0, 50.0),
        SummaryRow("A3", "DGETRec", 2, 11, 22, 110.0, 51.0),
        SummaryRow("A3", "SGETRot", 1, 9, 18, 90.0, 45.0),
        SummaryRow("A3", "SGETRot", 2, 9, 18, 80.0, 41.0),
    ]
    path = write_ranking(rows, tmp_path / "ranking.txt")
    lines = path.read_text().strip().split("\n")
    assert lines[1] == "1 A3+DGETRec 105.000000"
    assert lines[2] == "2 A3+SGETRot 85.000000"
    assert lines[3] == "A3+DGETRec rank: 1 of 2"
    write_summary(rows, tmp_path / "summary.csv")
    header = (tmp_path / "summary.csv").read_text().split("\n")[0]
    assert header.startswith("tc,tm,seed,time_to_first_death")
