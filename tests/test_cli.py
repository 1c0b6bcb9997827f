import itertools
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from fedsim import cli
from fedsim.cli import main
from fedsim.errors import ConfigurationError
from fedsim.orchestrator import (
    ExperimentConfig, parse_settings, run_experiment, write_metrics,
)
from metrics_csv import read_metrics

COMMON = ["--k", "2", "--iters", "2", "--data", "synthetic:classes=2,dim=4"]
SMALL = ("num_devices = 2\nglobal_iterations = 1\nsamples_per_device = 10\n"
         "test_samples = 30\nmodel = linear\n"
         "data = synthetic:classes=2,dim=4\n")


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


def test_run_config_pd_offset_follows_pu_flag(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("pu_db = 3\npd_db = pu+10\nmodel = linear\n"
                      "samples_per_device = 12\ntest_samples = 30\n")
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(config), "--pu-db", "-4",
                 "--out", str(out)] + COMMON) == 0
    assert {(r.pu_db, r.pd_db) for r in read_metrics(out)} == {(-4.0, 6.0)}


# A run of two distillation devices over 20 channel uses; each case of the
# next test takes its key out and sets it by a flag or by a settings line.
BASE = SMALL + "protocol = fd\nchannel_uses = 20\npu_db = -3\n"


@pytest.mark.parametrize("flag,key,raw", [
    ("--protocol", "protocol", "hfd"), ("--link", "link", "ad"),
    ("--T", "channel_uses", "30"), ("--pu-db", "pu_db", "2.5"),
    ("--pd-db", "pd_db", "pu+10"), ("--k", "num_devices", "3"),
    ("--iters", "global_iterations", "2"), ("--seed", "master_seed", "7"),
    ("--data", "data", "synthetic:classes=3,dim=5"),
])
def test_each_flag_is_its_settings_line(tmp_path, flag, key, raw):
    base = "".join(line + "\n" for line in BASE.splitlines()
                   if not line.startswith(key + " "))
    (tmp_path / "base.cfg").write_text(base)
    (tmp_path / "line.cfg").write_text(base + f"{key} = {raw}\n")

    def run(config, *flags):
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(tmp_path / config), *flags,
                     "--out", str(out)]) == 0
        return out.read_bytes()

    flagged = run("base.cfg", flag, raw)
    assert flagged == run("line.cfg")
    assert flagged != run("base.cfg")


def test_settings_file_may_start_with_a_bom(tmp_path):
    text = SMALL + "protocol = fd\nchannel_uses = 20\n"
    (tmp_path / "plain.cfg").write_text(text, encoding="utf-8")
    (tmp_path / "bom.cfg").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.cfg").read_bytes().startswith(b"\xef\xbb\xbf")
    for name in ("plain", "bom"):
        assert main(["run", "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
    assert (tmp_path / "bom.csv").read_bytes() == \
        (tmp_path / "plain.csv").read_bytes()


def test_sweep_writes_one_csv_per_grid_point(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("protocol = il, fl\nlink = dd, aa, ii, ia\n"
                    "channel_uses = 20\n"
                    "pu_db = 5\npd_db = pu+3\nnum_devices = 2\n"
                    "global_iterations = 1\nsamples_per_device = 10\n"
                    "test_samples = 30\nmodel = linear\n"
                    "data = synthetic:classes=2,dim=4\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"{p}_{link}_T20_pu5_pd8_seed0.csv" for p in ("fl", "il")
                     for link in ("aa", "dd", "ia", "ii")]
    for name in names:
        records = read_metrics(out / name)
        assert len(records) == 1 + 2
        assert all(r.pd_db == 8.0 for r in records)
        assert {(r.uplink_mode[0] + r.downlink_mode[0]) for r in records} \
            == {name.split("_")[1]}


def test_sweep_names_the_other_keys_its_grid_varies(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text(SMALL + "protocol = fd\nchannel_uses = 20\n"
                    "reg_weight = 0.3, 0.5\nnoise_enabled = yes, no\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        f"fd_dd_T20_pu0_pd10_seed0_reg_weight{weight}"
        f"_noise_enabled{noise}.csv"
        for weight in ("0.3", "0.5") for noise in ("False", "True")]


def test_readme_grid_keeps_its_file_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    grid = readme.split("cat > runs/grid.txt <<'EOF'\n")[1].split("EOF")[0]
    assert [name for _, name in cli._sweep_points(parse_settings(grid))] == [
        f"{protocol}_{link}_T100_pu0_pd10_seed0.csv"
        for protocol in ("fd", "hfd") for link in ("dd", "aa")]


def _examples(lines):
    """({path: lines} of each `cat > path <<'MARK'` block, [each line that
    calls fedsim]) of shell lines."""
    files, commands = {}, []
    lines = (line.strip() for line in lines)
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'(\w+)'", line)
        if heredoc:
            files[heredoc[1]] = list(itertools.takewhile(
                lambda text: text != heredoc[2], lines))
        elif re.search(r"(^|\s)fedsim\s", line):
            commands.append(line)
    return files, commands


def test_ci_runs_every_readme_example():
    # The README examples step of the workflow runs each fedsim command of
    # the README's code blocks (perhaps with an environment variable before
    # it and a redirection after it) and writes each of its settings files
    # line for line.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8").splitlines()
    fences = list(itertools.accumulate(line.startswith("```")
                                       for line in readme))
    files, commands = _examples(line for line, fence in zip(readme, fences)
                                if fence % 2 and not line.startswith("```"))
    workflow = (root / ".github/workflows/tier1.yml").read_text(
        encoding="utf-8")
    step = workflow.split("- name: README examples")[1].split("- name:")[0]
    ci_files, ci_commands = _examples(step.splitlines())
    assert files and commands
    for path, lines in files.items():
        assert ci_files.get(path) == lines, path
    for command in commands:
        assert any(f" {command} " in f" {line} " for line in ci_commands), \
            command


def test_configuration_error_is_one_line_with_status_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", "--k", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("fedsim: error: --k: num_devices must be an "
                            "integer >= 1, got 0\n")
    assert captured.out == ""
    assert not out.exists()


def test_sweep_grid_error_names_its_line(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("protocol = il\n\n# comment\nchannel_uses = 20, 1.5\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "fedsim: error: line 4: channel_uses expects an integer, "
        "got '1.5'\n")
    assert not out.exists()


@pytest.mark.parametrize("text,pattern", [
    ("protocol = il\nlink = dd, xy\n", "line 2: unknown link code 'xy'"),
    ("pd_db = 3, pu+x\n", "line 1: pd_db expects"),
    ("\nfrobnicate = 3\n", "line 2: unknown config key"),
    ("protocol il\n", "line 1: expected key = values"),
])
def test_grid_errors_name_their_line(text, pattern):
    with pytest.raises(ConfigurationError, match=pattern):
        parse_settings(text)


def test_run_config_and_one_point_sweep_write_the_same_csv(tmp_path):
    settings = tmp_path / "one.cfg"
    settings.write_text(SMALL + "protocol = fd\nlink = ad\nchannel_uses = 20\n"
                        "pu_db = 2\npd_db = pu+5\n")
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(settings), "--out", str(out)]) == 0
    assert main(["sweep", "--grid", str(settings),
                 "--out", str(tmp_path / "sweep")]) == 0
    [swept] = (tmp_path / "sweep").iterdir()
    assert swept.name == "fd_ad_T20_pu2_pd7_seed0.csv"
    assert swept.read_bytes() == out.read_bytes()
    assert {(r.uplink_mode, r.downlink_mode) for r in read_metrics(out)} \
        == {("analog", "digital")}


def test_sweep_reads_a_model_with_commas_as_one_point(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text(SMALL.replace("model = linear", "model = mlp:8,4")
                    + "channel_uses = 20\n")
    assert main(["sweep", "--grid", str(grid),
                 "--out", str(tmp_path / "sweep")]) == 0
    [swept] = (tmp_path / "sweep").iterdir()
    expected = tmp_path / "expected.csv"
    write_metrics(run_experiment(ExperimentConfig(
        num_devices=2, global_iterations=1, samples_per_device=10,
        test_samples=30, model="mlp:8,4", data="synthetic:classes=2,dim=4",
        channel_uses=20)), expected)
    assert swept.read_bytes() == expected.read_bytes()


def test_run_rejects_several_points(tmp_path, capsys):
    settings = tmp_path / "two.cfg"
    settings.write_text(SMALL + "channel_uses = 20, 40\n")
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(settings), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "fedsim: error: the settings describe 2 runs; fedsim run takes one, "
        "use fedsim sweep for a grid\n")
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ("channel_uses = 20\nchannel_uses = 40\n",
     "line 2: duplicate key 'channel_uses' (first set on line 1)"),
    ("link = dd\nuplink_mode = analog\n",
     "line 2: duplicate key 'uplink_mode' (first set on line 1)"),
    ("channel_uses = 20\nnum_devices = 2, 0\n",
     "line 2: num_devices must be an integer >= 1, got 0"),
    ("model = mlp:x\n", "line 1: model: bad descriptor 'mlp:x' (invalid "
     "literal for int() with base 10: 'x')"),
    ("model = mlp:8,,4\n", "line 1: model: bad descriptor 'mlp:8,,4' (an "
     "empty hidden width; write \"linear\" for no hidden layer)"),
    ("data = synthetic:dimm=4\n", "line 1: data: bad descriptor "
     "'synthetic:dimm=4' (unknown synthetic option 'dimm')"),
    ("protocol = fd\nlink = aa\nchannel_uses = 20, 1\n"
     "data = synthetic:classes=2,dim=4\n", "channel_uses: analog logit "
     "exchange needs 2T >= L^2; got T=1, L=2"),
    ("alpha = 0.1, 0.10\n", "grid points share the output file "
     "il_dd_T2500_pu0_pd10_seed0_alpha0.1.csv; no key in its name tells "
     "them apart"),
    ("data = synthetic:classes=1\n", "line 1: data: bad descriptor "
     "'synthetic:classes=1' (classes must lie in [2, inf), got 1)"),
    ("data = synthetic:classes=3,noise=nan\n", "line 1: data: bad "
     "descriptor 'synthetic:classes=3,noise=nan' (noise must lie in "
     "[0, inf), got nan)"),
])
def test_sweep_fails_before_writing_anything(tmp_path, capsys, text,
                                             message):
    grid = tmp_path / "grid.txt"
    grid.write_text(text)
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"fedsim: error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["run", "--config"],
                                     ["sweep", "--grid"]])
def test_missing_settings_file_is_one_line_error(tmp_path, capsys, command):
    missing = tmp_path / "nope.cfg"
    out = tmp_path / "out"
    assert main(command + [str(missing), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"fedsim: error: cannot read settings file {missing}: "
            f"No such file or directory\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["run", "--config"],
                                     ["sweep", "--grid"]])
@pytest.mark.parametrize("data,line", [
    (b"protocol = fd\n\xff\xfe = 1\n", 2),
    (b"\xef\xbb\xbfprotocol = fd\r\n\r\nalpha = 0.1 # \xe9\n", 3),
    (b"model = linear\n\xc3", 2),
])
def test_settings_file_not_utf8_is_one_line_error(tmp_path, capsys, command,
                                                  data, line):
    settings = tmp_path / "bad.txt"
    settings.write_bytes(data)
    out = tmp_path / "out"
    assert main(command + [str(settings), "--out", str(out)]) == 2
    _one_line_error(capsys, f"{settings}: line {line}: not UTF-8 text")
    assert not out.exists()


def _one_line_error(capsys, message):
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"fedsim: error: {message}\n")


# A hidden layer and a huge step size: the weights overflow in the first
# local epoch.
DIVERGING = ("num_devices = 2\nsamples_per_device = 10\ntest_samples = 30\n"
             "model = mlp:8\ndata = synthetic:classes=2,dim=4\n"
             "alpha = 1e300\n")


def test_diverging_run_is_one_line_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(DIVERGING)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(config), "--protocol", "il",
                 "--link", "dd", "--T", "100", "--iters", "1",
                 "--out", str(out)]) == 2
    _one_line_error(capsys, "non-finite weights after SGD at step size "
                            "1e+300")
    assert not out.exists()


def test_diverging_sweep_point_names_its_csv(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text(DIVERGING + "protocol = fl\nglobal_iterations = 1\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 2
    csv = out / "fl_dd_T2500_pu0_pd10_seed0.csv"
    assert capsys.readouterr().err == (
        f"fedsim: error: {csv}: non-finite weights after SGD at step size "
        f"1e+300\n")
    assert not csv.exists()


# Three devices, a hidden layer and a step size that leaves the weights
# finite: each case breaks at the first value that cannot be carried.
OVERFLOWING = ("num_devices = 3\nsamples_per_device = 16\nmodel = mlp:8\n"
               "data = synthetic:classes=3\nalpha = {alpha}\n")


@pytest.mark.parametrize("alpha,protocol,link,message", [
    # The weight update is finite, its norm is not.
    pytest.param("1e100", "fl", "aa", "payload norm overflows the analog "
                 "link at step size 1e+100", id="fl-aa"),
    # The weights are finite, their logits are not.
    pytest.param("1e100", "fd", "aa", "non-finite logit table at step size "
                 "1e+100", id="fd-aa"),
    pytest.param("1e100", "hfd", "dd", "non-finite logit table at step "
                 "size 1e+100", id="hfd-dd"),
    # Finite tables whose norms overflow on the analog link.
    pytest.param("1e60", "fd", "aa", "payload norm overflows the analog "
                 "link at step size 1e+60", id="fd-aa-norm"),
    pytest.param("1e60", "hfd", "ad", "payload norm overflows the analog "
                 "link at step size 1e+60", id="hfd-ad-norm"),
    # Finite weights whose test logits are not.
    pytest.param("1e100", "il", "dd", "non-finite test logits at step size "
                 "1e+100", id="il-dd"),
])
def test_overflow_past_local_sgd_is_one_line_error(tmp_path, capsys, alpha,
                                                   protocol, link, message):
    config = tmp_path / "run.cfg"
    config.write_text(OVERFLOWING.format(alpha=alpha))
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(config), "--protocol", protocol,
                 "--link", link, "--T", "100", "--iters", "3",
                 "--out", str(out)]) == 2
    _one_line_error(capsys, message)
    assert not out.exists()


# A linear model at the largest step size: local SGD keeps the weights
# finite, and the first digital uplink's sign-mean overflows.
SIGN_MEAN_OVERFLOW = ("num_devices = 3\nsamples_per_device = 16\n"
                      "test_samples = 30\nmodel = linear\n"
                      "data = synthetic:classes=3\nalpha = 1e308\n")
SIGN_MEAN_MESSAGE = ("weight update overflows the digital link's sign-mean "
                     "at step size 1e+308")


@pytest.mark.parametrize("link", ["dd", "da"])
def test_digital_sign_mean_overflow_is_one_line_error(tmp_path, capsys,
                                                      link):
    config = tmp_path / "run.cfg"
    config.write_text(SIGN_MEAN_OVERFLOW)
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(config), "--protocol", "fl",
                 "--link", link, "--T", "100", "--iters", "3",
                 "--out", str(out)]) == 2
    _one_line_error(capsys, SIGN_MEAN_MESSAGE)
    assert not out.exists()


def test_digital_sign_mean_overflow_warns_nothing(tmp_path):
    # Under -W error a numpy RuntimeWarning would end the process first.
    config = tmp_path / "run.cfg"
    config.write_text(SIGN_MEAN_OVERFLOW)
    out = tmp_path / "x.csv"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fedsim.cli", "run",
         "--config", str(config), "--protocol", "fl", "--link", "dd",
         "--T", "100", "--iters", "3", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"fedsim: error: {SIGN_MEAN_MESSAGE}\n")
    assert not out.exists()


def test_huge_step_size_with_finite_logits_completes(tmp_path, capsys):
    # FL at 1e100 keeps its test logits finite: the run ends normally.
    config = tmp_path / "run.cfg"
    config.write_text(OVERFLOWING.format(alpha="1e100"))
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(config), "--protocol", "fl",
                 "--link", "dd", "--T", "100", "--iters", "3",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_missing_data_file_is_one_line_error(tmp_path, capsys):
    images, labels = tmp_path / "nope1", tmp_path / "nope2"
    assert main(["run", "--data", f"idx:{images},{labels}",
                 "--out", str(tmp_path / "x.csv")]) == 2
    _one_line_error(capsys, f"{images}: No such file or directory")


def test_truncated_idx_file_names_its_byte_offset(tmp_path, capsys):
    images, labels = tmp_path / "images.idx3", tmp_path / "labels.idx1"
    images.write_bytes(struct.pack(">IIII", 0x803, 60, 2, 2) + bytes(10))
    labels.write_bytes(struct.pack(">II", 0x801, 60) + bytes(60))
    assert main(["run", "--data", f"idx:{images},{labels}",
                 "--out", str(tmp_path / "x.csv")]) == 2
    _one_line_error(capsys, f"{images}: truncated, wanted 240 bytes at "
                            f"byte 16, got 10")


def test_idx_header_larger_than_any_file_is_one_line_error(tmp_path, capsys):
    images, labels = tmp_path / "images.idx3", tmp_path / "labels.idx1"
    images.write_bytes(struct.pack(">IIII", 0x803, *[0xFFFFFFFF] * 3)
                       + bytes(10))
    labels.write_bytes(struct.pack(">II", 0x801, 60) + bytes(60))
    assert main(["run", "--data", f"idx:{images},{labels}",
                 "--out", str(tmp_path / "x.csv")]) == 2
    _one_line_error(capsys, f"{images}: truncated, wanted "
                            f"{0xFFFFFFFF ** 3} bytes at byte 16, got 10")


def test_run_checks_its_output_directory_before_running(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(cli, "run_experiment",
                        lambda config: pytest.fail("the experiment ran"))
    out = tmp_path / "nodir" / "x.csv"
    assert main(["run", "--out", str(out)] + COMMON) == 2
    _one_line_error(capsys, f"cannot write {out}: no directory "
                            f"{tmp_path / 'nodir'}")
    out = tmp_path / "adir"
    out.mkdir()
    assert main(["run", "--out", str(out)] + COMMON) == 2
    _one_line_error(capsys, f"cannot write {out}: it is a directory")
    assert main(["run", "--out", ""] + COMMON) == 2
    _one_line_error(capsys, "--out: the CSV path is empty")


def test_sweep_rejects_an_empty_output_directory(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr(cli, "run_experiment",
                        lambda config: pytest.fail("the experiment ran"))
    grid = tmp_path / "grid.txt"
    grid.write_text(SMALL)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--grid", str(grid), "--out", ""]) == 2
    _one_line_error(capsys, "--out: the directory path is empty")
    assert [p.name for p in tmp_path.iterdir()] == ["grid.txt"]


def _idx_pair(tmp_path, labels):
    images, label_file = tmp_path / "images.idx3", tmp_path / "labels.idx1"
    images.write_bytes(struct.pack(">IIII", 0x803, len(labels), 2, 2)
                       + bytes(4 * len(labels)))
    label_file.write_bytes(struct.pack(">II", 0x801, len(labels))
                           + bytes(labels))
    return f"idx:{images},{label_file}", label_file


def test_idx_pair_too_small_for_the_run_is_one_line_error(tmp_path, capsys):
    data, _ = _idx_pair(tmp_path, [k % 2 for k in range(30)])
    assert main(["run", "--data", data, "--out",
                 str(tmp_path / "x.csv")]) == 2
    _one_line_error(capsys, f"data: {tmp_path / 'images.idx3'} holds 30 "
                            f"samples, the run needs 1640 (num_devices x "
                            f"samples_per_device + test_samples)")


@pytest.mark.parametrize("count,rows,cols,message", [
    (0, 2, 2, "data: {images} holds 0 samples, the run needs 1640 "
              "(num_devices x samples_per_device + test_samples)"),
    (1640, 0, 3, "data: the images in {images} have 0 pixels; a run needs "
                 "at least 1"),
], ids=["no-samples", "no-pixels"])
def test_degenerate_idx_pair_is_one_line_error(tmp_path, capsys, count,
                                               rows, cols, message):
    images, labels = tmp_path / "images.idx3", tmp_path / "labels.idx1"
    images.write_bytes(struct.pack(">IIII", 0x803, count, rows, cols)
                       + bytes(count * rows * cols))
    labels.write_bytes(struct.pack(">II", 0x801, count)
                       + bytes(k % 2 for k in range(count)))
    assert main(["run", "--data", f"idx:{images},{labels}",
                 "--out", str(tmp_path / "x.csv")]) == 2
    _one_line_error(capsys, message.format(images=images))


@pytest.mark.parametrize("args,message", [
    (["--pu-db", "4000"], "--pu-db: pu_db must be a finite dB value in "
                          "[-300, 300], got 4000.0"),
    (["--protocol", "fl", "--link", "aa", "--T", "20", "--pu-db", "3070"],
     "--pu-db: pu_db must be a finite dB value in [-300, 300], got 3070.0"),
    (["--link", "da", "--pu-db", "3000", "--pd-db", "3000"],
     "--pu-db: pu_db must be a finite dB value in [-300, 300], got 3000.0"),
    (["--pd-db=-1e9"], "--pd-db: pd_db must be a finite dB value in "
                       "[-300, 300], got -1000000000.0"),
], ids=["il-4000", "fl-aa-3070", "il-da-3000", "pd-minus-1e9"])
def test_out_of_range_db_is_one_line_error(tmp_path, capsys, args, message):
    out = tmp_path / "x.csv"
    assert main(["run", "--out", str(out)] + args + COMMON) == 2
    _one_line_error(capsys, message)
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["--T", "1.5"], "--T: channel_uses expects an integer, got '1.5'"),
    (["--protocol", "bogus"], "--protocol: protocol: unknown value 'bogus'"),
    (["--link", "xy"], "--link: unknown link code 'xy'; pick one of "
                       "dd/da/di/ad/aa/ai/id/ia/ii"),
], ids=["T-1.5", "protocol-bogus", "link-xy"])
def test_bad_flag_value_is_one_line_error(tmp_path, capsys, args, message):
    out = tmp_path / "x.csv"
    assert main(["run", "--out", str(out)] + args + COMMON) == 2
    _one_line_error(capsys, message)
    assert not out.exists()


@pytest.mark.parametrize("link", ["dd", "aa"])
def test_single_class_idx_labels_are_one_line_error(tmp_path, capsys, link):
    data, labels = _idx_pair(tmp_path, [0] * 60)
    config = tmp_path / "run.cfg"
    config.write_text(SMALL)
    assert main(["run", "--config", str(config), "--protocol", "fd",
                 "--link", link, "--data", data,
                 "--out", str(tmp_path / "x.csv")]) == 2
    _one_line_error(capsys, f"data: every label in {labels} is 0; a run "
                            f"needs at least 2 classes")
    assert not (tmp_path / "x.csv").exists()


def test_sweep_into_an_existing_file_is_one_line_error(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text(SMALL)
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main(["sweep", "--grid", str(grid), "--out", str(out)]) == 2
    _one_line_error(capsys, f"{out}: File exists")
    assert out.read_text() == "keep"


def test_cli_process_exit_status(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("protocol = il, fl\n# T\nchannel_uses = 20, abc\n")
    out = tmp_path / "sweep"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "fedsim.cli", "sweep", "--grid", str(grid),
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == ("fedsim: error: line 3: channel_uses expects an "
                           "integer, got 'abc'\n")
    assert not out.exists()
