import pytest

from fedsim.cli import main, parse_grid_text
from fedsim.errors import ConfigurationError
from fedsim.orchestrator import read_metrics

COMMON = ["--k", "2", "--iters", "2", "--data", "synthetic:classes=2,dim=4"]


def test_run_writes_metrics_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["run", "--protocol", "fd", "--link", "da", "--T", "30",
                 "--seed", "4", "--out", str(out)] + COMMON) == 0
    records = read_metrics(out)
    assert len(records) == 2 * (1 + 2)
    assert {(r.protocol, r.uplink_mode, r.downlink_mode, r.channel_uses,
             r.seed) for r in records} == {("fd", "digital", "analog", 30, 4)}
    assert str(out) in capsys.readouterr().out


def test_run_reads_config_file_and_flags_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("protocol = hfd\nchannel_uses = 40\nmodel = linear\n"
                      "samples_per_device = 12\ntest_samples = 30\n")
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(config), "--T", "25",
                 "--out", str(out)] + COMMON) == 0
    records = read_metrics(out)
    assert {(r.protocol, r.channel_uses) for r in records} == {("hfd", 25)}


def test_sweep_writes_one_csv_per_grid_point(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("protocol = il, fl\nlink = dd, aa\nchannel_uses = 20\n"
                    "pu_db = 5\npd_db = pu+3\nnum_devices = 2\n"
                    "global_iterations = 1\nsamples_per_device = 10\n"
                    "test_samples = 30\nmodel = linear\n"
                    "data = synthetic:classes=2,dim=4\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"{p}_{link}_T20_pu5_pd8_seed0.csv"
                     for p in ("fl", "il") for link in ("aa", "dd")]
    for name in names:
        records = read_metrics(out / name)
        assert len(records) == 1 + 2
        assert all(r.pd_db == 8.0 for r in records)


def test_configuration_error_is_one_line_with_status_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", "--k", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("fedsim: error: num_devices must be an integer "
                            ">= 1, got 0\n")
    assert captured.out == ""
    assert not out.exists()


def test_sweep_grid_error_names_its_line(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("protocol = il\n\n# comment\nchannel_uses = 20, 1.5\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "fedsim: error: grid line 4: channel_uses expects an integer, "
        "got '1.5'\n")
    assert not out.exists()


@pytest.mark.parametrize("text,pattern", [
    ("protocol = il\nlink = dd, xy\n", "grid line 2: unknown link code 'xy'"),
    ("pd_db = 3, pu+x\n", "grid line 1: pd_db expects"),
    ("\nfrobnicate = 3\n", "grid line 2: unknown config key"),
    ("protocol il\n", "grid line 1: expected key = values"),
])
def test_grid_errors_name_their_line(text, pattern):
    with pytest.raises(ConfigurationError, match=pattern):
        parse_grid_text(text)
