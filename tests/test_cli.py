import json
from pathlib import Path

import pytest

from envspin import format_config, preset
from envspin.cli import main


CPREE = ["--preset", "cpree", "--gamma", "1", "--delta0", "2", "--delta1", "1",
         "--p", "0.5", "--lambda", "1"]


def read(path):
    return Path(path).read_bytes()


def test_validate_exit_codes(tmp_path, capsys):
    assert main(["validate", *CPREE, "--sites", "8"]) == 0
    out = capsys.readouterr().out
    assert "C=2" in out and "K=2" in out and "c_hat=4" in out

    assert main(["validate", "--preset", "cpree", "--gamma", "1", "--delta0", "1",
                 "--delta1", "2", "--p", "0.5", "--sites", "8"]) == 1

    assert main(["validate", "--preset", "remark_vi", "--sites", "5"]) == 0
    out = capsys.readouterr().out
    assert "C=0" in out


def test_validate_config_file(tmp_path):
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=6)
    cfg = tmp_path / "model.cfg"
    cfg.write_text(format_config(spec))
    assert main(["validate", "--config", str(cfg)]) == 0


def test_validate_config_names_violated_inequality(tmp_path, capsys):
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=6)
    # swap the two death rates in the serialized file: c1 > c0 at center 1
    text = format_config(spec)
    head, c1_part = text.split("[spin.c1]")
    c1_part = c1_part.replace("= 1.0", "= 3.0")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(head + "[spin.c1]" + c1_part)
    assert main(["validate", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "compatibility" in out and "c1(" in out


def test_parse_error_reports_line(tmp_path, capsys):
    spec = preset("cpree", gamma=1.0, delta0=2.0, delta1=1.0, p=0.5, sites=6)
    text = format_config(spec).replace("range = 0", "range = zero")
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(text)
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "line" in capsys.readouterr().err


def test_conflicting_flags_usage_error(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(format_config(preset("cpree", gamma=1, delta0=2, delta1=1, p=0.5, sites=4)))
    assert main(["validate", "--config", str(cfg), "--preset", "cpree"]) == 2
    assert "conflicts" in capsys.readouterr().err


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit) as err:
        main(["scenario", "nonsense", *CPREE])
    assert err.value.code == 2


def test_simulate_rerun_and_replay_byte_identical(tmp_path):
    base = [*CPREE, "--sites", "12", "--tmax", "3", "--seed", "42"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out3 = tmp_path / "c"
    assert main(["simulate", *base, "--out", str(out1)]) == 0
    assert main(["simulate", *base, "--out", str(out2)]) == 0
    assert read(str(out1) + ".csv") == read(str(out2) + ".csv")
    assert main(["replay", str(out1) + ".manifest.json", "--out", str(out3)]) == 0
    assert read(str(out1) + ".csv") == read(str(out3) + ".csv")


def test_simulate_formats_encode_identical_data(tmp_path):
    base = [*CPREE, "--sites", "10", "--tmax", "2", "--seed", "7"]
    out_csv = tmp_path / "t"
    out_json = tmp_path / "u"
    assert main(["simulate", *base, "--format", "csv", "--out", str(out_csv)]) == 0
    assert main(["simulate", *base, "--format", "json", "--out", str(out_json)]) == 0

    data = json.loads((tmp_path / "u.json").read_text())
    text = (tmp_path / "t.csv").read_text()
    snapshots = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            phase, assign = line[2:].split(" ", 1)
            name, literal = assign.split("=", 1)
            snapshots[(phase, name)] = literal
        elif not line.startswith("t,"):
            t, site, layer, old, new = line.split(",")
            rows.append(
                {"t": float(t), "site": int(site), "layer": layer,
                 "from": int(old), "to": int(new)}
            )
    assert rows == data["events"]
    for name, literal in data["initial"].items():
        assert snapshots[("initial", name)] == literal
    for name, literal in data["final"].items():
        assert snapshots[("final", name)] == literal


def test_couple_command_runs_and_replays(tmp_path):
    out1 = tmp_path / "c1"
    out3 = tmp_path / "c3"
    base = [*CPREE, "--sites", "8", "--tmax", "2", "--seed", "3"]
    assert main(["couple", *base, "--layers", "3", "--out", str(out1)]) == 0
    assert main(["replay", str(out1) + ".manifest.json", "--out", str(out3)]) == 0
    assert read(str(out1) + ".csv") == read(str(out3) + ".csv")
    text = (tmp_path / "c1.csv").read_text()
    layers = {line.split(",")[2] for line in text.splitlines()
              if not line.startswith(("#", "t,"))}
    assert layers <= {"beta", "eta", "gamma", "xi"}

    out5 = tmp_path / "c5"
    assert main(["couple", *base, "--layers", "5", "--out", str(out5)]) == 0
    text = (tmp_path / "c5.csv").read_text()
    assert "gamma1" in text or "gamma2" in text


def test_oracle_command_outputs(tmp_path):
    out = tmp_path / "o"
    assert main(["oracle", *CPREE, "--sites", "3", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "o.summary.json").read_text())
    assert summary["stationary_dimension"] == 1
    assert summary["tv_nu0_nu1"] < 1e-6
    gen = (tmp_path / "o.generator.csv").read_text().splitlines()
    assert gen[0] == "from,to,rate"
    nu0 = (tmp_path / "o.nu0.csv").read_text().splitlines()
    assert nu0[0] == "state_index,probability"
    assert len(nu0) == 1 + 64

    out2 = tmp_path / "o2"
    assert main(["replay", str(out) + ".manifest.json", "--out", str(out2)]) == 0
    assert read(str(out) + ".nu0.csv") == read(str(out2) + ".nu0.csv")
    assert read(str(out) + ".generator.csv") == read(str(out2) + ".generator.csv")


def test_scenario_vi_command(tmp_path):
    out = tmp_path / "vi"
    assert main(["scenario", "vi", "--sites", "5", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "vi.report.json").read_text())
    assert report["all_staircases_absorbing"]
    assert report["n_closed_classes"] >= 2


def test_seed_env_var_is_the_default(tmp_path, monkeypatch):
    base = [*CPREE, "--sites", "8", "--tmax", "2"]
    monkeypatch.setenv("ENVSPIN_SEED", "42")
    out_env = tmp_path / "env"
    assert main(["simulate", *base, "--out", str(out_env)]) == 0
    out_flag = tmp_path / "flag"
    assert main(["simulate", *base, "--seed", "42", "--out", str(out_flag)]) == 0
    assert read(str(out_env) + ".csv") == read(str(out_flag) + ".csv")
    # an explicit flag wins over the environment
    out_other = tmp_path / "other"
    assert main(["simulate", *base, "--seed", "43", "--out", str(out_other)]) == 0
    assert read(str(out_env) + ".csv") != read(str(out_other) + ".csv")


def test_oracle_cap_reported_cleanly(tmp_path, capsys):
    assert main(["oracle", *CPREE, "--sites", "7", "--out", str(tmp_path / "big")]) == 2
    assert "oracle" in capsys.readouterr().err


def test_scenario_run_decay_emits_interval_csv(tmp_path):
    out = tmp_path / "rd"
    args = ["scenario", "run-decay", *CPREE, "--sites", "12", "--replicas", "300",
            "--seed", "4", "--tmax", "3", "--out", str(out)]
    assert main(args) == 0
    curve = (tmp_path / "rd.curve.csv").read_text().splitlines()
    assert curve[0] == "m,n,f,g_histogram"
    assert len(curve) > 1


def test_scenario_density_csv_and_replay(tmp_path):
    out = tmp_path / "d"
    args = ["scenario", "density", *CPREE, "--sites", "8", "--replicas", "500",
            "--seed", "9", "--tgrid", "0,0.5,1", "--out", str(out)]
    assert main(args) == 0
    curve = (tmp_path / "d.curve.csv").read_text().splitlines()
    assert curve[0] == "t,density_from_zero,density_from_one,gap"
    assert len(curve) == 4

    out2 = tmp_path / "d2"
    assert main(["replay", str(out) + ".manifest.json", "--out", str(out2)]) == 0
    assert read(str(out) + ".curve.csv") == read(str(out2) + ".curve.csv")
    a = json.loads((tmp_path / "d.report.json").read_text())
    b = json.loads((tmp_path / "d2.report.json").read_text())
    a.pop("runtime_ms"), b.pop("runtime_ms")
    assert a == b
