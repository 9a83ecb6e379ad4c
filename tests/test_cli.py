import dataclasses
import json
from pathlib import Path

import pytest

from envspin import cli, format_config, oracle, preset
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
    # a bad preset value is a validation failure, not an input error
    assert main(["validate", "--preset", "cpree", "--gamma", "0", "--delta0", "2",
                 "--delta1", "1", "--p", "0.5"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "invalid preset: gamma must be > 0"

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


def test_scenario_remarks_honour_an_explicit_sites_16(tmp_path, capsys):
    # 16 sites is over the oracle cap: it must be refused, not run on 5
    out = tmp_path / "iv16"
    assert main(["scenario", "iv", "--sites", "16", "--out", str(out)]) == 2
    assert "16 sites exceeds the oracle cap" in capsys.readouterr().err
    assert not (tmp_path / "iv16.report.json").exists()
    # without --sites the remarks run on 5 sites
    assert main(["scenario", "iv", "--out", str(tmp_path / "iv")]) == 0
    assert json.loads((tmp_path / "iv.report.json").read_text())["sites"] == 5


def test_scenario_remarks_oracle_cap_reported_cleanly(tmp_path, capsys):
    for name in ("iv", "vi"):
        assert main(["scenario", name, "--sites", "7", "--out", str(tmp_path / name)]) == 2
        assert capsys.readouterr().err.startswith("oracle error: ")


SCENARIO_INPUT_ERRORS = {
    "window-too-wide": (["coalescence", "--sites", "3", "--window", "2"],
                        "window half-width 2 does not fit in 3 sites"),
    "beta0-too-long": (["coalescence", "--sites", "3", "--window", "1", "--beta0", "0101"],
                       "beta has 4 sites, not 3"),
    "interval-too-small": (["interval-bounds", "--sites", "3"],
                           "need 0 < m <= n < size-1 so both window extensions exist"),
    "decreasing-grid": (["density", "--tgrid", "2,1"], "t_grid must be nondecreasing and nonnegative"),
    "no-run-decay-window": (["run-decay", "--sites", "4"], "no run-decay window fits in 4 sites"),
    # the last grid time over the event budget once died inside numpy
    "density-over-event-budget": (["density", "--tgrid", "0,1e12"],
                                  "about 8e+13 rings per replica by t=1000000000000.0 exceed the event budget"
                                  " of 10000000; lower --tgrid"),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_INPUT_ERRORS))
def test_scenario_input_errors_exit_2_with_a_message(tmp_path, capsys, case):
    argv, message = SCENARIO_INPUT_ERRORS[case]
    out = tmp_path / case
    code = main(["scenario", argv[0], *CPREE, *argv[1:], "--replicas", "10", "--tmax", "0.5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "scenario error: %s\n" % message
    assert list(tmp_path.iterdir()) == []


INPUT_ERRORS = {
    "missing-config": (["validate", "--config", "missing.cfg"], "config error: "),
    "bad-boundary": (["validate", *CPREE, "--boundary", "frozen:1"], "config error: bad frozen boundary"),
    "missing-manifest": (["replay", "missing.manifest.json"], "replay error: "),
    "manifest-not-json": (["replay", "notjson.manifest.json"], "replay error: "),
    "no-replicas": (["scenario", "coalescence", *CPREE, "--replicas", "0"], "argument --replicas: "),
    "simulate-negative-tmax": (["simulate", *CPREE, "--tmax", "-1"], "argument --tmax: "),
    "couple-negative-tmax": (["couple", *CPREE, "--tmax", "-1"], "argument --tmax: "),
    "missing-preset-parameter": (["validate", "--preset", "cpree", "--delta0", "1", "--delta1", "0.5",
                                  "--p", "0.5"], "config error: preset cpree needs --gamma"),
    "negative-window": (["scenario", "coalescence", *CPREE, "--sites", "5", "--window", "-1",
                         "--replicas", "10", "--tmax", "0.5"], "scenario error: window half-width -1 is negative"),
    "manifest-without-replay-args": (["replay", "bare.manifest.json"], "replay error: "),
    "replay-args-not-strings": (["replay", "numbers.manifest.json"], "replay error: "),
    "config-not-a-string": (["replay", "intconfig.manifest.json"],
                            "replay error: manifest resolved_config is not a string"),
    "manifest-wrong-version": (["replay", "v2.manifest.json"], "replay error: unsupported manifest version"),
    "manifest-not-an-object": (["replay", "list.manifest.json"], "replay error: unsupported manifest version"),
    "no-config-or-preset": (["validate"], "error: one of --config or --preset is required"),
    "unknown-preset": (["validate", "--preset", "nosuch"], "config error: unknown preset 'nosuch'"),
    "unexpected-preset-parameter": (["validate", "--preset", "contact", "--lambda", "1", "--delta", "1",
                                     "--gamma", "1"], "config error: unexpected preset parameters: gamma"),
    "config-zero-size": (["validate", "--config", "zerosize.cfg"],
                         "config error: line 27: 'size' must be at least 1, got 0"),
    "config-negative-rate": (["validate", "--config", "negrate.cfg"],
                             "config error: line 13: rate '-1.0' for key '001' must be finite and >= 0"),
    "config-negative-range": (["validate", "--config", "negrange.cfg"],
                              "config error: line 22: 'range' must be at least 0, got -1"),
    # sections and keys the reader does not know once were dropped unread
    "config-unknown-section": (["validate", "--config", "spni.cfg"],
                               "config error: line 1: unknown section [spni.c0]"),
    "config-unknown-lattice-key": (["validate", "--config", "boundry.cfg"],
                                   "config error: line 28: unknown key 'boundry' in [lattice]"),
    "config-key-not-a-word": (["validate", "--config", "notaword.cfg"],
                              "config error: line 23: key '00' in [env] is not a 1-bit word"),
    # a key or section given twice is refused, not merged
    "config-duplicate-key": (["validate", "--config", "dupkey.cfg"],
                             "config error: line 15: duplicate key '011' in [spin.c1]"),
    "config-duplicate-section": (["validate", "--config", "dupsection.cfg"],
                                 "config error: line 25: duplicate section [spin.c0]"),
    "init-beta-not-bits": (["simulate", *CPREE, "--sites", "4", "--init-beta", "0120"],
                           "simulate error: --init-beta 0120 is not 4 bits 0 or 1"),
    "init-beta-too-short": (["simulate", *CPREE, "--sites", "4", "--init-beta", "01"],
                            "simulate error: --init-beta 01 is not 4 bits 0 or 1"),
    "init-eta-too-short": (["simulate", *CPREE, "--sites", "4", "--init-eta", "11"],
                           "simulate error: --init-eta 11 is not 4 bits 0 or 1"),
    "simulate-infinite-tmax": (["simulate", *CPREE, "--sites", "4", "--tmax", "inf"], "argument --tmax: "),
    "couple-infinite-tmax": (["couple", *CPREE, "--sites", "4", "--tmax", "inf"], "argument --tmax: "),
    "zero-sites": (["validate", *CPREE, "--sites", "0"], "argument --sites: "),
    "negative-sites": (["simulate", *CPREE, "--sites", "-3"], "argument --sites: "),
    "manifest-replays-itself": (["replay", "self.manifest.json"], "replay error: "),
    # without --out the prefix is the name before .manifest.json
    "manifest-not-named-manifest": (["replay", "copied.json"], "replay error: "),
    # the replayed command refuses the config, so not even it is written
    "replayed-config-refused": (["replay", "garbage.manifest.json"], "config error: line 1: "),
    # validate writes no manifest, so none replays it
    "replay-validate": (["replay", "validate.manifest.json"], "replay error: "),
    # an output prefix with no file name would name files by their suffix alone
    "empty-out": (["simulate", *CPREE, "--sites", "4", "--tmax", "0.5", "--out", ""], "output error: "),
    "out-names-a-directory": (["simulate", *CPREE, "--sites", "4", "--tmax", "0.5", "--out", "outdir/"],
                              "output error: "),
    "replay-of-bare-suffix": (["replay", ".manifest.json"], "output error: "),
    "out-is-a-dot": (["simulate", *CPREE, "--sites", "4", "--tmax", "0.5", "--out", "outdir/."], "output error: "),
    # horizons over the event budget once ended in a traceback or never returned
    "simulate-over-event-budget": (["simulate", *CPREE, "--sites", "4", "--tmax", "1e7", "--out", "big"],
                                   "simulate error: event budget of 10000000 exceeded; lower --tmax"),
    "couple-over-event-budget": (["couple", *CPREE, "--sites", "4", "--tmax", "1e300", "--out", "c"],
                                 "couple error: about 1.4e+301 jumps by t=1e+300 at the start's rate exceed"
                                 " the event budget of 10000000; lower --tmax"),
    # a batch engine once tried to allocate 931 TiB for its ring counts
    "scenario-over-event-budget": (["scenario", "coalescence", *CPREE, "--sites", "16", "--window", "1",
                                    "--tmax", "1e12", "--replicas", "1", "--out", "s"],
                                   "scenario error: about 8e+13 rings per replica by t=1000000000000.0 exceed"
                                   " the event budget of 10000000; lower --tmax"),
    # seeds numpy refuses once died inside numpy or int()
    "simulate-negative-seed": (["simulate", *CPREE, "--sites", "4", "--seed", "-1"], "argument --seed: "),
    "couple-negative-seed": (["couple", *CPREE, "--sites", "4", "--seed", "-1"], "argument --seed: "),
    "scenario-negative-seed": (["scenario", "density", *CPREE, "--seed", "-1"], "argument --seed: "),
    # a third entry sets environment variables
    "env-seed-not-an-integer": (["simulate", *CPREE, "--sites", "4", "--tmax", "0.5"],
                                "config error: ENVSPIN_SEED must be an integer at least 0, got 'abc'",
                                {"ENVSPIN_SEED": "abc"}),
    "env-seed-negative": (["couple", *CPREE, "--sites", "4", "--tmax", "0.5"],
                          "config error: ENVSPIN_SEED must be an integer at least 0, got '-1'",
                          {"ENVSPIN_SEED": "-1"}),
}

# a config file that parses: cpree on 4 sites, background range 0; the c1
# rate of "001" is on line 13, `range` on line 22, the background rate of
# "0" on line 23, `size` on line 27 and `boundary` on line 28
_CONFIG = format_config(preset("cpree", sites=4, gamma=1, delta0=2, delta1=1, p=0.5)).splitlines(keepends=True)


def _config_with(lineno, text):
    """`_CONFIG` with line `lineno` (from 1) replaced by `text`."""
    lines = list(_CONFIG)
    lines[lineno - 1] = text + "\n"
    return "".join(lines)


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_errors_exit_2_with_a_one_line_message(tmp_path, capsys, monkeypatch, case):
    argv, message, *env = INPUT_ERRORS[case]
    for name, value in dict(*env).items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    files = {
        "notjson.manifest.json": "not json\n",
        "bare.manifest.json": '{"manifest_version": 1}\n',
        "numbers.manifest.json": '{"manifest_version": 1, "replay_args": ["validate", 3]}\n',
        "intconfig.manifest.json": '{"manifest_version": 1, "replay_args": ["simulate"], "resolved_config": 5}\n',
        "v2.manifest.json": '{"manifest_version": 2, "replay_args": ["simulate"]}\n',
        "list.manifest.json": '[{"manifest_version": 1, "replay_args": ["simulate"]}]\n',
        "self.manifest.json": '{"manifest_version": 1, "replay_args": ["replay", "self.manifest.json"]}\n',
        "copied.json": json.dumps({"manifest_version": 1, "replay_args": ["simulate", "--tmax", "0.5"],
                                   "resolved_config": "".join(_CONFIG)}),
        "garbage.manifest.json": json.dumps({"manifest_version": 1, "replay_args": ["simulate"],
                                             "resolved_config": "garbage"}),
        "validate.manifest.json": json.dumps({"manifest_version": 1, "replay_args": ["validate"],
                                              "resolved_config": "".join(_CONFIG)}),
        ".manifest.json": json.dumps({"manifest_version": 1, "replay_args": ["simulate", "--tmax", "0.5"],
                                      "resolved_config": "".join(_CONFIG)}),
        "zerosize.cfg": _config_with(27, "size = 0"),
        "negrate.cfg": _config_with(13, "001 = -1.0"),
        "negrange.cfg": _config_with(22, "range = -1"),
        "spni.cfg": _config_with(1, "[spni.c0]"),
        "boundry.cfg": _config_with(28, "boundry = frozen:1|1"),
        "notaword.cfg": _config_with(23, "00 = 0.5"),
        "dupkey.cfg": _config_with(14, "011 = 9.0"),
        "dupsection.cfg": _config_with(25, "[spin.c0]"),
    }
    for name, text in files.items():
        Path(name).write_text(text)
    Path("outdir").mkdir()
    try:
        code = main(argv)
    except SystemExit as err:  # argparse rejects the value before main's handler
        code = err.code
    assert code == 2
    assert message in capsys.readouterr().err.splitlines()[-1]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*files, "outdir"])
    assert list(Path("outdir").iterdir()) == []
    assert all(Path(name).read_text() == text for name, text in files.items())


# every command that runs the model, on a config whose c1(010) = 5 exceeds c0(010) = 2
INVALID_MODEL_COMMANDS = {
    "simulate": ["simulate"],
    "couple": ["couple"],
    "oracle": ["oracle"],
    **{"scenario-" + name: ["scenario", name] for name in ("coalescence", "density", "run-decay", "interval-bounds")},
}


@pytest.mark.parametrize("case", sorted(INVALID_MODEL_COMMANDS))
def test_an_invalid_model_exits_1_with_a_one_line_message(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    Path("incompatible.cfg").write_text(_config_with(14, "010 = 5.0"))
    assert main([*INVALID_MODEL_COMMANDS[case], "--config", "incompatible.cfg", "--out", "x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid model: compatibility: c1(010)=5 > c0(010)=2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["incompatible.cfg"]


OUT_COMMANDS = {
    "simulate": ["simulate", *CPREE, "--sites", "4", "--tmax", "0.5"],
    "couple": ["couple", *CPREE, "--sites", "4", "--tmax", "0.5"],
    "oracle": ["oracle", *CPREE, "--sites", "3"],
    "scenario": ["scenario", "coalescence", *CPREE, "--sites", "5", "--window", "1",
                 "--replicas", "10", "--tmax", "0.5"],
}


@pytest.mark.parametrize("command", [*OUT_COMMANDS, "replay"])
def test_out_prefix_in_a_missing_directory_is_refused_before_running(tmp_path, capsys, monkeypatch, command):
    if command == "replay":
        assert main([*OUT_COMMANDS["simulate"], "--out", str(tmp_path / "run")]) == 0
        argv = ["replay", str(tmp_path / "run.manifest.json")]
    else:
        argv = OUT_COMMANDS[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()

    def resolve_spec(*args, **kwargs):
        raise AssertionError("the spec was resolved before --out was checked")

    monkeypatch.setattr(cli, "_resolve_spec", resolve_spec)
    missing = tmp_path / "missing"
    assert main([*argv, "--out", str(missing / "x")]) == 2
    assert capsys.readouterr().err == "output error: directory %s of --out %s does not exist\n" % (
        missing, missing / "x")
    assert sorted(tmp_path.rglob("*")) == before


# one command line per data command shape; its data files are the manifest's outputs
REPLAY_SHAPES = {
    "simulate-csv": ["simulate", *CPREE, "--sites", "8", "--tmax", "1.3", "--seed", "42"],
    "simulate-json": ["simulate", *CPREE, "--sites", "8", "--tmax", "1.3", "--seed", "42",
                      "--format", "json", "--init-beta", "01100110", "--init-eta", "11011000"],
    "couple-1": ["couple", *CPREE, "--sites", "6", "--layers", "1", "--tmax", "1.5", "--seed", "3"],
    "couple-5": ["couple", *CPREE, "--sites", "6", "--layers", "5", "--tmax", "1.5", "--seed", "3"],
    "oracle": ["oracle", *CPREE, "--sites", "3"],
    "coalescence": ["scenario", "coalescence", *CPREE, "--sites", "5", "--window", "1",
                    "--tmax", "0.7", "--replicas", "300", "--seed", "5", "--beta0", "01010"],
    "density": ["scenario", "density", *CPREE, "--sites", "6", "--replicas", "200",
                "--seed", "9", "--tgrid", "0,0.5,1.25"],
    "run-decay": ["scenario", "run-decay", *CPREE, "--sites", "12", "--replicas", "100",
                  "--seed", "4", "--tmax", "1.1"],
    "interval-bounds": ["scenario", "interval-bounds", *CPREE, "--sites", "9",
                        "--replicas", "100", "--seed", "6", "--tmax", "0.9"],
    "iv": ["scenario", "iv", "--sites", "4"],
    "vi": ["scenario", "vi"],
}


@pytest.mark.parametrize("shape", sorted(REPLAY_SHAPES))
def test_every_data_command_replays_byte_identically(tmp_path, shape):
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([*REPLAY_SHAPES[shape], "--out", str(first)]) == 0
    manifest = json.loads(Path(str(first) + ".manifest.json").read_text())
    # the spec lives in the resolved config only; every other option is recorded
    assert not {"config", "preset", "sites", "boundary", "gamma", "out"} & manifest["params"].keys()
    assert main(["replay", str(first) + ".manifest.json", "--out", str(again)]) == 0
    replayed = json.loads(Path(str(again) + ".manifest.json").read_text())
    assert replayed["params"] == manifest["params"]
    assert replayed["replay_args"] == manifest["replay_args"]
    pairs = list(zip(manifest["outputs"], replayed["outputs"], strict=True))
    assert pairs
    for a, b in pairs:
        assert a[len(str(first)):] == b[len(str(again)):]
        if a.endswith(".report.json"):
            x, y = json.loads(Path(a).read_text()), json.loads(Path(b).read_text())
            x.pop("runtime_ms", None), y.pop("runtime_ms", None)
            assert x == y, a
        else:
            assert read(a) == read(b), a


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


def test_oracle_non_convergence_exits_3(tmp_path, capsys, monkeypatch):
    exact = oracle.limit_distributions
    monkeypatch.setattr(
        oracle, "limit_distributions", lambda G: dataclasses.replace(exact(G), converged=False)
    )
    assert main(["oracle", *CPREE, "--sites", "3", "--out", str(tmp_path / "o")]) == 3
    assert "numerical flag raised: non-convergence" in capsys.readouterr().out


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
