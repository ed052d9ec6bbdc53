"""Tests for configs, CSV output, IDX files, datasets, EMC, and the CLI."""

import contextlib
import errno
import importlib.util
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import descentlab
from descentlab import parallel
from descentlab.errors import ConfigError, FormatError, InvalidInput
from descentlab.harness import cli
from descentlab.harness import config as config_module
from descentlab.harness.cli import main
from descentlab.harness.config import (
    EXPERIMENTS,
    effective_config_lines,
    load_config,
    parse_config_text,
)
from descentlab.harness.csvio import format_value, write_csv
from descentlab.harness.datasets import (
    load_idx,
    load_mnist_split,
    make_rkhs_regression,
    mnist_available,
    one_hot,
    stratified_indices,
    write_idx,
)
from descentlab.harness.emc import emc_scan, min_norm_linear_procedure
from descentlab.rff import kernel_approx_error, sample_map
from descentlab.seeding import substream


# ------------------------------------------------------------------ config


def test_parse_config_text_basics():
    raw = parse_config_text(
        """
        # a comment
        experiment = polyfit

        degree = 12
        """
    )
    assert raw == {"experiment": "polyfit", "degree": "12"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign here")
    with pytest.raises(ConfigError):
        parse_config_text("= value")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2")


def test_load_config_applies_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = sparse-risk\nseed = 3\ntrials = 7\n")
    config = load_config(path)
    assert config.experiment == "sparse-risk"
    assert config.seed == 3
    assert config.parameters["trials"] == 7
    assert config.parameters["d"] == 100  # schema default
    assert config.output_path == "sparse-risk.csv"


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = emc\nseed = 3\noutput = a.csv\n")
    config = load_config(path, seed=99, output="b.csv")
    assert config.seed == 99
    assert config.output_path == "b.csv"


def test_load_config_rejections(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = polyfit\nwrong_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("experiment = polyfit\n")
    with pytest.raises(ConfigError):
        load_config(path, experiment="emc")  # experiment mismatch
    path.write_text("degree = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)  # no experiment named anywhere
    path.write_text("experiment = nonsense\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("experiment = polyfit\ndegree = abc\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("experiment = polyfit\nvia = magic\n")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


@pytest.mark.parametrize(
    "text",
    [
        "experiment = rff-sweep\nrepeats = 0\n",
        "experiment = rff-sweep\nn_grid = 20, 0, 50\n",
        "experiment = kernel-approx\nn_grid = 0\n",
        "experiment = kernel-approx\nn_maps = 0\n",
        "experiment = sparse-risk\ntrials = 0\n",
        "experiment = bias-variance\ntrials = 1\n",
        "experiment = emc\ntrials = 0\n",
        "experiment = emc\nseed = 18446744073709551623\n",
        "experiment = emc\nseed = -1\n",
        "experiment = sparse-risk\np_grid =\n",
        "experiment = sparse-risk\np_grid = ,\n",
        "experiment = bias-variance\ndegrees =\n",
        "experiment = rff-sweep\nn_grid =\n",
        "experiment = kernel-approx\nn_grid =\n",
        "experiment = emc\nn_grid =\n",
        "experiment = polyfit\nn = 0\n",
        "experiment = polyfit\ngrid_points = 0\n",
        "experiment = sparse-risk\ntest_points = 0\n",
        "experiment = bias-variance\nn = 0\n",
        "experiment = emc\nd = 0\n",
        "experiment = emc\nn_grid = 0, 5\n",
        "experiment = rff-sweep\nn_train = 0\n",
        "experiment = rff-sweep\nn_test = 0\n",
        "experiment = polyfit\nnoise_scale = nan\n",
        "experiment = bias-variance\nnoise_scale = inf\n",
        "experiment = sparse-risk\nnoise_var = -inf\n",
        "experiment = implicit-bias\nmax_iters = 0\n",
        "experiment = implicit-bias\nrecord_every = 0\n",
        "experiment = implicit-bias\nstep_fraction = 0\n",
        "experiment = implicit-bias\nstep_fraction = 1\n",
        "experiment = implicit-bias\nmargin = -1\n",
        "experiment = implicit-bias\nn = 1\n",
        "experiment = implicit-bias\nd = 0\n",
        "experiment = polyfit\ndegree = -1\n",
        "experiment = polyfit\ntruth_degree = -2\n",
        "experiment = bias-variance\ndegrees = 3, -1\n",
        "experiment = bias-variance\ntruth_degree = -1\n",
        "experiment = bias-variance\nnoise_scale = -0.1\n",
        "experiment = polyfit\nnoise_scale = -1\n",
        "experiment = emc\nnoise_scale = -0.5\n",
        "experiment = kernel-approx\nn_points = 1\n",
        "experiment = kernel-approx\ninput_dim = 0\n",
        "experiment = kernel-approx\nbandwidth = -1\n",
        "experiment = rff-sweep\nbandwidth = 0\n",
        "experiment = rff-sweep\nbandwidth = -1\n",
        "experiment = rff-sweep\ntarget_bandwidth = 0\n",
        "experiment = rff-sweep\ninput_dim = 0\n",
        "experiment = rff-sweep\nn_centers = 0\n",
        "experiment = emc\neps = -1\n",
        "experiment = sparse-risk\nd = 0\n",
        "experiment = sparse-risk\nn = 0\n",
        "experiment = sparse-risk\nsignal_norm_sq = -1\n",
        "experiment = sparse-risk\np_grid = -1, 10\n",
        "experiment = sparse-risk\np_grid = 0, 10, 120\n",
        # The default p_grid runs to 100, past this d.
        "experiment = sparse-risk\nd = 50\n",
        # Grids that must be strictly increasing.
        "experiment = emc\nn_grid = 10, 5\n",
        "experiment = kernel-approx\nn_grid = 100, 50, 50\n",
        "experiment = rff-sweep\nn_grid = 20, 20\n",
        "experiment = bias-variance\ndegrees = 3, 20, 5\n",
        # Not UTF-8 text.
        b"\xff\xfe x\n",
    ],
)
def test_validate_rejects_values_that_cannot_run(tmp_path, text, capsys):
    path = tmp_path / "run.cfg"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        "experiment = sparse-risk\nd = 120\np_grid = 0, 10, 120\n",
        "experiment = emc\neps = 0\n",
        "experiment = bias-variance\ndegrees = 0, 40\nnoise_scale = 0\n",
        "experiment = implicit-bias\nn = 2\nd = 1\nstep_fraction = 1e-9\n",
        "experiment = implicit-bias\nstep_fraction = 0.999999\n",
        "experiment = kernel-approx\nn_points = 2\n",
        "experiment = polyfit\nnoise_scale = 0\n",
        "experiment = emc\nnoise_scale = 0\n",
    ],
)
def test_validate_accepts_values_on_the_bounds(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 0


def test_seed_range_covers_all_64_bit_seeds(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = emc\nseed = 18446744073709551615\n")
    assert load_config(path).seed == 2**64 - 1
    with pytest.raises(ConfigError):
        load_config(path, seed=2**64)


def test_effective_lines_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = emc\nseed = 11\nn_grid = 4, 8, 12\n")
    config = load_config(path)
    lines = effective_config_lines(config)
    assert lines[0] == "experiment = emc"
    assert "seed = 11" in lines
    assert "n_grid = 4, 8, 12" in lines
    # Echoed lines parse back to the identical effective config.
    reparsed_path = tmp_path / "echo.cfg"
    reparsed_path.write_text("\n".join(lines) + "\n")
    again = load_config(reparsed_path)
    assert again.parameters == config.parameters
    assert again.seed == config.seed


def test_every_experiment_has_runnable_defaults(tmp_path):
    for name in EXPERIMENTS:
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"experiment = {name}\n")
        config = load_config(path)
        assert config.experiment == name
        assert effective_config_lines(config)


# --------------------------------------------------------------------- CSV


def test_format_value_forms():
    assert format_value(3) == "3"
    assert format_value(np.int64(-2)) == "-2"
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(0.1) == "0.1"
    assert format_value(np.float64(0.1)) == "0.1"
    assert format_value(math.inf) == "inf"
    assert format_value(-math.inf) == "-inf"
    assert format_value("label") == "label"


@settings(max_examples=100, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_value_round_trips_floats(x):
    assert float(format_value(x)) == x


def read_rows(path) -> tuple[list[str], list[str], list[list[str]]]:
    """Read back (comment lines, column names, raw string rows)."""
    comments, columns, rows = [], None, []
    with open(path, "r", newline="\n") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append(line.split(","))
    return comments, columns or [], rows


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "out.csv"
    rows = [(1, 0.5, "a"), (2, math.inf, "b")]
    write_csv(path, ["seed = 7"], ("k", "v", "tag"), rows, trailing_comments=("emc = 2",))
    comments, columns, got = read_rows(path)
    assert comments == ["seed = 7", "emc = 2"]
    assert columns == ["k", "v", "tag"]
    assert got == [["1", "0.5", "a"], ["2", "inf", "b"]]


def test_write_csv_is_atomic_and_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, [], ("a",), [(1,)])
    write_csv(path, [], ("a",), [(2,)])  # overwrite
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert read_rows(path)[2] == [["2"]]


# --------------------------------------------------------------------- IDX


def test_idx_round_trip(tmp_path):
    labels = np.arange(10, dtype=np.uint8)
    images = substream(81, "idx-images").integers(0, 256, size=(4, 3, 5)).astype(np.uint8)
    lp, ip = tmp_path / "labels.idx", tmp_path / "images.idx"
    write_idx(lp, labels)
    write_idx(ip, images)
    np.testing.assert_array_equal(load_idx(lp), labels)
    np.testing.assert_array_equal(load_idx(ip), images)


def test_idx_rejects_malformed_files(tmp_path):
    bad_magic = tmp_path / "bad_magic.idx"
    bad_magic.write_bytes(b"\x00\x00\x0d\x01" + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_idx(bad_magic)

    truncated = tmp_path / "truncated.idx"
    write_idx(truncated, np.zeros(10, dtype=np.uint8))
    data = truncated.read_bytes()
    truncated.write_bytes(data[:-3])  # payload shorter than the header says
    with pytest.raises(FormatError):
        load_idx(truncated)

    headerless = tmp_path / "headerless.idx"
    headerless.write_bytes(b"\x00\x00")
    with pytest.raises(FormatError):
        load_idx(headerless)

    # An image magic needs three dimensions; this header holds one.
    short_header = tmp_path / "short_header.idx"
    short_header.write_bytes(struct.pack(">2i", 0x803, 4))
    with pytest.raises(FormatError, match="truncated dimension header"):
        load_idx(short_header)

    negative = tmp_path / "negative.idx"
    negative.write_bytes(struct.pack(">2i", 0x801, -1))
    with pytest.raises(FormatError, match="negative dimension"):
        load_idx(negative)

    # A path that cannot be read names the file.
    with pytest.raises(FormatError, match=str(tmp_path)):
        load_idx(tmp_path)

    with pytest.raises(InvalidInput):
        write_idx(tmp_path / "x.idx", np.zeros((2, 2), dtype=np.uint8))


def _write_fake_mnist(directory, dotted=False):
    rng = substream(82, "fake-mnist")
    sep = "." if dotted else "-"
    spec = {
        f"train-images{sep}idx3-ubyte": rng.integers(0, 256, (60, 4, 4)),
        f"train-labels{sep}idx1-ubyte": np.repeat(np.arange(10), 6),
        f"t10k-images{sep}idx3-ubyte": rng.integers(0, 256, (30, 4, 4)),
        f"t10k-labels{sep}idx1-ubyte": np.repeat(np.arange(10), 3),
    }
    for name, arr in spec.items():
        write_idx(os.path.join(directory, name), arr.astype(np.uint8))


def test_mnist_availability_and_loading(tmp_path, monkeypatch):
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("DESCENTLAB_DATA", str(empty))
    assert not mnist_available()
    with pytest.raises(FormatError):
        load_mnist_split(10, 5, seed=0)

    filled = tmp_path / "filled"
    filled.mkdir()
    _write_fake_mnist(filled)
    monkeypatch.setenv("DESCENTLAB_DATA", str(filled))
    assert mnist_available()
    ds = load_mnist_split(20, 10, seed=5)
    assert ds.x_train.shape == (20, 16)
    assert ds.x_test.shape == (10, 16)
    assert ds.x_train.min() >= 0.0 and ds.x_train.max() <= 1.0
    # Stratified: two training samples of each digit.
    values, counts = np.unique(ds.y_train, return_counts=True)
    assert list(values) == list(range(10))
    assert np.all(counts == 2)


def test_mnist_dotted_filenames_are_found(tmp_path, monkeypatch):
    _write_fake_mnist(tmp_path, dotted=True)
    monkeypatch.setenv("DESCENTLAB_DATA", str(tmp_path))
    assert mnist_available()


def _run_check_data(directory, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "check_data.py")
    spec = importlib.util.spec_from_file_location("check_data", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setenv("DESCENTLAB_DATA", str(directory))
    return script.main()


def test_check_references_script_gates_the_benchmark_csvs(tmp_path):
    # The references themselves, under the names run_all.py writes, pass;
    # one value moved past the benchmark's rtol of 1e-8 does not.
    repo = os.path.join(os.path.dirname(__file__), os.pardir)
    refs = os.path.join(repo, "perfbench", "references")
    for ref, stem in [
        ("rff-rkhs", "rff_sweep_rkhs"),
        ("bias-variance", "bias_variance"),
        ("sparse-risk", "sparse_risk"),
        ("implicit-bias", "implicit_bias"),
    ]:
        with open(os.path.join(refs, f"{ref}.csv")) as fh:
            (tmp_path / f"{stem}.csv").write_text(fh.read())
    script = [sys.executable, os.path.join(repo, "scripts", "check_references.py")]

    def check():
        return subprocess.run(
            [*script, "--out", str(tmp_path)], capture_output=True, text=True, timeout=60
        )

    proc = check()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    path = tmp_path / "implicit_bias.csv"
    lines = path.read_text().splitlines(keepends=True)
    *cells, gap = lines[-1].rstrip("\n").split(",")
    lines[-1] = ",".join([*cells, repr(float(gap) * (1 + 1e-7))]) + "\n"
    path.write_text("".join(lines))
    proc = check()
    assert proc.returncode == 1
    assert "FAIL  implicit-bias" in proc.stdout and "column direction_gap" in proc.stdout


@pytest.mark.parametrize("case", ["good", "swapped-files", "label-above-9", "missing-file"])
def test_check_data_script_reports_usable_sets_only(tmp_path, monkeypatch, capsys, case):
    _write_fake_mnist(tmp_path)
    images = tmp_path / "t10k-images-idx3-ubyte"
    labels = tmp_path / "t10k-labels-idx1-ubyte"
    if case == "swapped-files":
        image_bytes, label_bytes = images.read_bytes(), labels.read_bytes()
        images.write_bytes(label_bytes)
        labels.write_bytes(image_bytes)
    elif case == "label-above-9":
        bad = np.repeat(np.arange(10), 3)
        bad[-1] = 10
        write_idx(labels, bad)
    elif case == "missing-file":
        labels.unlink()
    status = _run_check_data(tmp_path, monkeypatch)
    last = capsys.readouterr().out.splitlines()[-1]
    if case == "good":
        assert (status, last) == (0, "usable")
    else:
        assert status == 1 and last.startswith("not usable")


# ---------------------------------------------------------------- datasets


def test_one_hot_encoding():
    out = one_hot(np.array([0, 2, 1]), n_classes=4)
    np.testing.assert_array_equal(
        out, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]]
    )
    with pytest.raises(InvalidInput):
        one_hot(np.array([-1]), n_classes=4)
    with pytest.raises(InvalidInput):
        one_hot(np.array([0, 10]), n_classes=10)


def test_stratified_indices_balance():
    labels = np.repeat(np.arange(5), 20)
    idx = stratified_indices(labels, 17, substream(83, "strat"))
    assert idx.size == 17
    counts = np.bincount(labels[idx], minlength=5)
    assert counts.max() - counts.min() <= 1
    with pytest.raises(InvalidInput):
        stratified_indices(np.array([0, 1]), 5, substream(83, "strat"))


def test_synthetic_regression_kinds():
    ds = make_rkhs_regression(30, 10, input_dim=4, n_centers=6, bandwidth=1.0, seed=84)
    assert ds.x_train.shape == (30, 4)
    assert ds.x_test.shape == (10, 4)
    again = make_rkhs_regression(30, 10, input_dim=4, n_centers=6, bandwidth=1.0, seed=84)
    assert ds.y_train.shape == (30,) and ds.y_test.shape == (10,)
    for name in ("x_train", "y_train", "x_test", "y_test"):
        np.testing.assert_array_equal(getattr(ds, name), getattr(again, name))
    with pytest.raises(InvalidInput):
        make_rkhs_regression(30, 10, input_dim=4, n_centers=0, bandwidth=1.0, seed=84)


def test_rkhs_target_labels_are_bounded():
    ds = make_rkhs_regression(50, 0, input_dim=3, n_centers=8, bandwidth=1.0, seed=85)
    # |y| <= sum_k |alpha_k| since each kernel value is in (0, 1].
    alpha = substream(85, "rkhs-target")
    alpha.uniform(0.0, 1.0, size=(8, 3))  # skip the centers draw
    bound = np.sum(np.abs(alpha.standard_normal(8)))
    assert ds.y_test.size == 0
    assert np.max(np.abs(ds.y_train)) <= bound


# --------------------------------------------------------------------- EMC


def test_emc_grid_validation():
    def proc(x, y):
        return 0.0

    def sample(n, rng):
        return np.zeros((n, 1)), np.zeros(n)

    with pytest.raises(InvalidInput):
        emc_scan(proc, sample, 1e-6, (), 1, seed=0)
    with pytest.raises(InvalidInput):
        emc_scan(proc, sample, 1e-6, (5, 5), 1, seed=0)
    with pytest.raises(InvalidInput):
        emc_scan(proc, sample, 1e-6, (5, 4), 1, seed=0)
    with pytest.raises(InvalidInput):
        emc_scan(proc, sample, -1.0, (5,), 1, seed=0)
    with pytest.raises(InvalidInput, match="trials must be >= 1, got 0"):
        emc_scan(proc, sample, 1e-6, (5,), 0, seed=0)


def test_emc_perfect_procedure_reaches_grid_end():
    emc, points = emc_scan(
        lambda x, y: 0.0,
        lambda n, rng: (np.zeros((n, 1)), np.zeros(n)),
        1e-9,
        (2, 4, 8),
        trials=2,
        seed=0,
    )
    assert emc == 8
    assert [p.n for p in points] == [2, 4, 8]
    assert all(p.interpolates for p in points)


def test_emc_early_exit_on_first_failure():
    emc, points = emc_scan(
        lambda x, y: 1.0,
        lambda n, rng: (np.zeros((n, 1)), np.zeros(n)),
        1e-9,
        (2, 4, 8),
        trials=2,
        seed=0,
    )
    assert emc == 0
    assert [p.n for p in points] == [2]
    assert not points[0].interpolates


def test_emc_of_min_norm_linear_is_the_dimension():
    d = 10
    w = np.ones(d) / math.sqrt(d)

    def sample(n, rng):
        x = rng.standard_normal((n, d))
        return x, x @ w + 0.1 * rng.standard_normal(n)

    emc = emc_scan(
        min_norm_linear_procedure, sample, 1e-6, (5, 10, 11, 15), trials=4, seed=86
    )[0]
    assert emc == d


# --------------------------------------------------------------------- CLI


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_validate_prints_effective_config(tmp_path, capsys):
    path = _cfg(tmp_path, "experiment = polyfit\nseed = 4\n")
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "experiment = polyfit" in out
    assert "seed = 4" in out
    assert "degree = 20" in out


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = _cfg(tmp_path, "experiment = polyfit\nnope = 1\n")
    assert main(["validate", "--config", bad]) == 2
    assert main(["polyfit", "--config", str(tmp_path / "missing.cfg")]) == 2
    mismatch = _cfg(tmp_path, "experiment = polyfit\n", name="m.cfg")
    assert main(["emc", "--config", mismatch]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-an-experiment", "--config", bad])
    assert exc.value.code == 2


def test_cli_runs_polyfit_end_to_end(tmp_path, capsys):
    cfg = _cfg(tmp_path, "experiment = polyfit\nseed = 5\ngrid_points = 32\nn = 10\ndegree = 12\n")
    out = tmp_path / "fit.csv"
    assert main(["polyfit", "--config", cfg, "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    comments, columns, rows = read_rows(out)
    assert columns == ["x", "truth", "prediction"]
    assert len(rows) == 32
    assert "grid_points = 32" in comments
    # Every comment line is itself a parseable config line.
    parse_config_text("\n".join(comments[: len(comments)]))


def test_cli_creates_the_output_directory(tmp_path, monkeypatch, capsys):
    cfg = _cfg(tmp_path, "experiment = polyfit\noutput = out/fit.csv\ngrid_points = 8\n")
    empty = tmp_path / "fresh"
    empty.mkdir()
    monkeypatch.chdir(empty)
    assert main(["polyfit", "--config", cfg]) == 0
    assert "wrote out/fit.csv" in capsys.readouterr().out
    assert [p.name for p in (empty / "out").iterdir()] == ["fit.csv"]


def test_cli_unwritable_output_is_a_one_line_config_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "experiment = polyfit\ngrid_points = 8\n")
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["polyfit", "--config", cfg, "--out", str(blocker / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert str(blocker / "x.csv") in err
    assert err.count("\n") == 1


def test_cli_output_that_is_a_directory_is_a_one_line_config_error(tmp_path, capsys):
    target = tmp_path / "dir"
    target.mkdir()
    cfg = _cfg(tmp_path, f"experiment = polyfit\ngrid_points = 8\noutput = {target}\n")
    assert main(["validate", "--config", cfg]) == 2
    plain = _cfg(tmp_path, "experiment = polyfit\n", "plain.cfg")
    assert main(["polyfit", "--config", plain, "--out", str(target)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("config error: key 'output': ") for line in lines)
    assert all(str(target) in line for line in lines)
    assert list(target.iterdir()) == []


def test_cli_output_replaced_by_a_directory_mid_run_is_one_line(tmp_path, monkeypatch, capsys):
    # The output path becomes a directory after the config is loaded, so
    # only the final rename can fail; its temporary file is removed.
    target = tmp_path / "out" / "fit.csv"
    real_load = cli.load_config

    def load_then_block(*args, **kwargs):
        config = real_load(*args, **kwargs)
        (target / "taken").mkdir(parents=True)
        return config

    monkeypatch.setattr(cli, "load_config", load_then_block)
    cfg = _cfg(tmp_path, "experiment = polyfit\ngrid_points = 8\n")
    assert main(["polyfit", "--config", cfg, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {target}: ")
    assert err.count("\n") == 1
    assert sorted(p.name for p in target.parent.iterdir()) == ["fit.csv"]
    assert [p.name for p in target.iterdir()] == ["taken"]


def test_cli_output_write_that_fails_mid_run_is_one_line(tmp_path, monkeypatch, capsys):
    # The disk fills while the rows are written; the temporary file is
    # removed and no output appears.
    real_fdopen = os.fdopen

    class FullDisk:
        def __init__(self, fd, *args, **kwargs):
            self.fh = real_fdopen(fd, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fdopen", FullDisk)
    target = tmp_path / "out" / "fit.csv"
    cfg = _cfg(tmp_path, "experiment = polyfit\ngrid_points = 8\n")
    assert main(["polyfit", "--config", cfg, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {target}: ")
    assert os.strerror(errno.ENOSPC) in err
    assert err.count("\n") == 1
    assert list(target.parent.iterdir()) == []


def test_cli_out_of_memory_is_a_one_line_run_error(tmp_path, monkeypatch, capsys):
    # An allocation that fails inside the run raises MemoryError; the run
    # is replaced here so that nothing is allocated for real.  (A feature
    # matrix beyond physical memory is refused before the run.)
    def out_of_memory(config):
        raise MemoryError("Unable to allocate 74.5 TiB for an array")

    monkeypatch.setattr("descentlab.harness.cli.run", out_of_memory)
    cfg = _cfg(tmp_path, "experiment = rff-sweep\n")
    assert main(["rff-sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "74.5 TiB" in err
    assert err.count("\n") == 1


def test_cli_step_underflow_is_a_one_line_run_error(tmp_path, capsys):
    # The smallest positive fraction passes validate, but the step it
    # gives rounds to zero; validate cannot see that without the data.
    cfg = _cfg(tmp_path, "experiment = implicit-bias\nstep_fraction = 5e-324\nmax_iters = 5\n")
    assert main(["implicit-bias", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "underflows" in err and err.count("\n") == 1


def test_cli_overflow_is_a_one_line_run_error(tmp_path, capsys):
    # margin = 1e300 passes validate, but the squared largest singular
    # value in max_stable_step overflows a float.
    cfg = _cfg(tmp_path, "experiment = implicit-bias\nmargin = 1e300\nmax_iters = 5\n")
    out = tmp_path / "x.csv"
    assert main(["implicit-bias", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: numerical overflow") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "name, keys",
    [
        ("sparse-risk", "signal_norm_sq = 1e308\ntrials = 2\n"),
        ("emc", "noise_scale = 1e300\n"),
        ("kernel-approx", "bandwidth = 1e-300\n"),
        ("rff-sweep", "target_bandwidth = 1e-300\nn_train = 20\nn_test = 5\nn_grid = 4\nrepeats = 1\n"),
        ("bias-variance", "noise_scale = 1e300\ntrials = 3\n"),
        # The featurization GEMM overflows and its cos is invalid, at both
        # widths: one pair is the caller's, the other a forked child's.
        (
            "rff-sweep",
            "input_dim = 1000\nbandwidth = 1e-307\nn_train = 200\nn_test = 200\n"
            "n_grid = 20, 50\nrepeats = 1\n",
        ),
    ],
)
def test_cli_float_fault_is_a_one_line_run_error(tmp_path, capsys, name, keys):
    # Each config passes validate, and its first overflow or division by
    # zero ends the run: no numpy warning, no inf or nan column.
    cfg = _cfg(tmp_path, f"experiment = {name}\n{keys}")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--config", cfg]) == 0
        assert main([name, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: floating-point fault: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("margin", ["1e-300", "5e-16", "1e-12", "1e-09"])
def test_cli_margin_below_what_certifies_is_a_config_error(tmp_path, capsys, margin):
    # 1e-12 validated under the old d * eps floor, and the run then ended
    # in "max-margin solve not certified".
    cfg = _cfg(tmp_path, f"experiment = implicit-bias\nmargin = {margin}\n")
    out = tmp_path / "x.csv"
    assert main(["validate", "--config", cfg]) == 2
    assert main(["implicit-bias", "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("config error: ") for line in lines)
    assert "must be above 1e-09" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "n, d, margin, seed",
    [
        (8, 2, "0.001", 0),
        (50, 2, "0.0001", 0),
        (50, 2, "1.0000000000000002e-09", 0),
        (50, 8, "1.0000000000000002e-09", 0),
        # Both points shifted to the margin, 1e-13 relative apart.
        (2, 1, "0.001", 25),
    ],
)
def test_cli_small_margins_end_promptly(tmp_path, n, d, margin, seed):
    # The max-margin reference is one finite solve, whose work does not
    # grow with (radius / margin)^2 as an iterative dual ascent's does.
    # The margin just above the validate floor certifies.  A fresh
    # interpreter with a timeout turns a hang into a failure.
    cfg = _cfg(
        tmp_path,
        f"experiment = implicit-bias\nseed = {seed}\nn = {n}\nd = {d}\nmargin = {margin}\n"
        "max_iters = 50\n",
    )
    argv = ["implicit-bias", "--config", cfg, "--out", str(tmp_path / "x.csv")]
    src = os.path.dirname(os.path.dirname(descentlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "descentlab.harness.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "name, keys",
    [
        ("rff-sweep", "n_grid = 20, 1000000000000\n"),
        ("rff-sweep", "n_train = 1000000000000\nn_grid = 20\n"),
        ("kernel-approx", "n_points = 1000000000\nn_grid = 100, 10000\n"),
        # The 160 MB feature matrix fits; the 320 GB pairwise matrices do not.
        ("kernel-approx", "n_points = 200000\nn_grid = 100\n"),
        # An 80 GB map beside kilobytes of features and pairwise matrices.
        ("kernel-approx", "n_points = 2\ninput_dim = 1000000\nn_grid = 10000\n"),
        # 80 GB of input rows beside a few MB of features, Gram matrix and map.
        ("rff-sweep", "n_train = 100000\nn_test = 10\ninput_dim = 100000\nn_grid = 20\n"),
    ],
)
def test_cli_feature_matrix_beyond_memory_is_a_config_error(tmp_path, capsys, name, keys):
    # Without the check, validate passed and the run ended out of memory.
    cfg = _cfg(tmp_path, f"experiment = {name}\n{keys}")
    out = tmp_path / "x.csv"
    assert main(["validate", "--config", cfg]) == 2
    assert main([name, "--config", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("config error: ") for line in lines)
    assert "exceeds physical memory" in lines[0]
    assert not out.exists()


# What one process of a sweep holds at its widest fit: at 1000 training
# rows (more than the 10 test rows) and a widest map of 500 features in 10
# input dimensions, the 1000 x 500 feature buffer, the 500 x 500 Gram
# matrix and the 500 x 10 frequencies.  Beside them, the processes share
# the 1010 x 10 input rows.
_SWEEP_PROCESS_BYTES = (1000 * 500 + 500 * 500 + 500 * 10) * 8
_SWEEP_INPUT_BYTES = 1010 * 10 * 8


def test_a_sweep_process_may_fill_physical_memory(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    cfg = _cfg(tmp_path, "experiment = rff-sweep\nn_test = 10\nn_grid = 20, 500\n")
    size = _SWEEP_INPUT_BYTES + _SWEEP_PROCESS_BYTES
    monkeypatch.setattr(config_module, "_physical_memory", lambda: size)
    assert load_config(cfg).parameters["n_grid"] == (20, 500)
    monkeypatch.setattr(config_module, "_physical_memory", lambda: size - 1)
    with pytest.raises(ConfigError, match="1000 x 500 \\+ 500 x 500 \\+ 500 x 10 float64 "):
        load_config(cfg)
    # Where the system does not report its memory, nothing is refused.
    monkeypatch.setattr(config_module, "_physical_memory", lambda: None)
    assert load_config(cfg)


@pytest.mark.parametrize(
    "cpus, grid, repeats, copies",
    [(4, "20, 500", 5, 4), (4, "500", 3, 3), (4, "500", 1, 1), (1, "20, 500", 5, 1)],
)
def test_each_process_of_a_sweep_may_hold_a_widest_fit(
    tmp_path, monkeypatch, cpus, grid, repeats, copies
):
    # The (width, repeat) pairs run in up to one process per usable CPU,
    # so up to that many widest fits' arrays exist at once.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    cfg = _cfg(
        tmp_path,
        f"experiment = rff-sweep\nn_test = 10\nn_grid = {grid}\nrepeats = {repeats}\n",
    )
    size = _SWEEP_INPUT_BYTES + copies * _SWEEP_PROCESS_BYTES
    monkeypatch.setattr(config_module, "_physical_memory", lambda: size)
    assert load_config(cfg)
    monkeypatch.setattr(config_module, "_physical_memory", lambda: size - 1)
    with pytest.raises(ConfigError, match="1000 x 500") as info:
        load_config(cfg)
    assert (f"each of {copies} processes" in str(info.value)) == (copies > 1)


@pytest.mark.parametrize(
    "keys, priced",
    [
        # The Gram matrix: 4000 x 4000 beside a 4000 x 8000 buffer.
        (
            "n_train = 4000\nn_test = 10\nn_grid = 20, 8000\n",
            "4000 x 8000 + 4000 x 4000 + 8000 x 10",
        ),
        # The map: 8000 x 784 for MNIST, whatever input_dim says.
        (
            "dataset = mnist\nn_train = 1000\nn_test = 10\nn_grid = 20, 8000\ninput_dim = 2\n",
            "1000 x 8000 + 1000 x 1000 + 8000 x 784",
        ),
    ],
    ids=["gram", "mnist-map"],
)
def test_a_sweep_whose_feature_matrix_fits_alone_is_refused(
    tmp_path, monkeypatch, capsys, keys, priced
):
    # Memory for two processes' feature matrices, as validate priced a
    # sweep before it counted the Gram matrix and the map, is not enough.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    cfg = _cfg(tmp_path, f"experiment = rff-sweep\n{keys}")
    params = load_config(cfg).parameters
    rows = max(params["n_train"], params["n_test"])
    feature_matrices = 2 * rows * params["n_grid"][-1] * 8
    monkeypatch.setattr(config_module, "_physical_memory", lambda: feature_matrices)
    assert main(["validate", "--config", cfg]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert f"{priced} float64 in each of 2 processes" in lines[0]


def _priced_bytes(path):
    """What validate prices a config at: every process's arrays, in bytes."""
    config = load_config(path)
    arrays = config_module._largest_arrays(config.experiment, config.parameters)
    return sum(copies * sum(r * c for r, c in shapes) * 8 for _, copies, shapes in arrays)


# Beside the arrays validate prices, a call holds numpy's iterator buffers
# (``np.getbufsize()`` entries for each of two operands) and a few array
# headers: constant working memory, like the interpreter's own.
_NUMPY_SCRATCH = 2 * np.getbufsize() * 8 + 4096


@pytest.mark.parametrize("n_points", [300, 600])
def test_kernel_approx_is_priced_at_its_traced_peak(tmp_path, n_points):
    cfg = _cfg(tmp_path, f"experiment = kernel-approx\nn_points = {n_points}\nn_grid = 50\n")
    kernel_approx_error(sample_map(50, 5, 1.0, seed=0), np.eye(2, 5))  # first-call allocations
    tracemalloc.start()
    try:
        points = np.random.default_rng(0).uniform(size=(n_points, 5))
        kernel_approx_error(sample_map(50, 5, 1.0, seed=0), points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    features = n_points * 50 * 8
    assert peak <= 2.6 * n_points**2 * 8 + features
    assert _priced_bytes(cfg) + _NUMPY_SCRATCH >= peak


def test_kernel_approx_beyond_its_pairwise_peak_is_refused(tmp_path, monkeypatch, capsys):
    # Room for one pairwise matrix, as validate priced kernel-approx
    # before it counted what the error computation holds at once.
    cfg = _cfg(tmp_path, "experiment = kernel-approx\nn_points = 2000\nn_grid = 100\n")
    one_matrix, priced = 2000 * 2000 * 8, _priced_bytes(cfg)
    assert priced == (2000 * 100 + 2 * 2000 * 2000 + 100 * 5 + 2000 * 5) * 8
    monkeypatch.setattr(config_module, "_physical_memory", lambda: 1.5 * one_matrix)
    assert main(["validate", "--config", cfg]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert "2000 x 100 + 2000 x 2000 + 2000 x 2000 + 100 x 5 + 2000 x 5 float64" in lines[0]
    monkeypatch.setattr(config_module, "_physical_memory", lambda: priced)
    assert main(["validate", "--config", cfg]) == 0


def test_every_sample_config_validates_on_a_small_host(monkeypatch, capsys):
    # 4 CPUs and 1 GiB: the MNIST sweep prices 4 x 210 MB.
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
    monkeypatch.setattr(config_module, "_physical_memory", lambda: 2**30)
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    paths = sorted(os.path.join(configs, f) for f in os.listdir(configs) if f.endswith(".cfg"))
    assert len(paths) == 8
    for path in paths:
        assert main(["validate", "--config", path]) == 0, capsys.readouterr().err


# One small config per experiment, for the checks that cover them all.
_TINY_CONFIGS = {
    "sparse-risk": "d = 6\nn = 3\np_grid = 1, 6\ntrials = 2\ntest_points = 2\n",
    "rff-sweep": "n_train = 6\nn_test = 4\nn_grid = 4, 8\nrepeats = 1\ninput_dim = 2\n",
    "kernel-approx": "n_points = 3\ninput_dim = 2\nn_grid = 4, 8\nn_maps = 1\n",
    "implicit-bias": "n = 6\nmax_iters = 20\nrecord_every = 10\n",
    "polyfit": "grid_points = 4\nn = 5\ndegree = 3\n",
    "bias-variance": "degrees = 1, 3\nn = 5\ntrials = 3\n",
    "emc": "d = 4\nn_grid = 2, 4, 6\ntrials = 1\n",
}


def _readme_columns():
    """Experiment name -> CSV columns, from the table in README.md."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    columns = {}
    with open(readme) as fh:
        for line in fh:
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].startswith("`"):
                columns[cells[0].strip("`")] = cells[2].split("`")[1].split(", ")
    return columns


def test_readme_lists_every_experiment():
    assert sorted(_readme_columns()) == sorted(EXPERIMENTS) == sorted(_TINY_CONFIGS)


@pytest.mark.parametrize("name", sorted(_TINY_CONFIGS))
def test_csv_header_matches_the_readme_table(tmp_path, name):
    cfg = _cfg(tmp_path, f"experiment = {name}\n" + _TINY_CONFIGS[name])
    out = tmp_path / "out.csv"
    assert main([name, "--config", cfg, "--out", str(out)]) == 0
    _, columns, rows = read_rows(out)
    assert columns == _readme_columns()[name]
    assert rows and all(len(row) == len(columns) for row in rows)


@pytest.mark.parametrize("name", ["bias-variance", "rff-sweep", "sparse-risk"])
def test_monte_carlo_csv_does_not_depend_on_the_cpu_count(tmp_path, monkeypatch, name):
    cfg = _cfg(tmp_path, f"experiment = {name}\n" + _TINY_CONFIGS[name])
    default, one_cpu = tmp_path / "default.csv", tmp_path / "one_cpu.csv"
    assert main([name, "--config", cfg, "--out", str(default)]) == 0
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert main([name, "--config", cfg, "--out", str(one_cpu)]) == 0
    assert one_cpu.read_bytes() == default.read_bytes()


# ------------------------------------------------------- set-up and run

# Calls the CLI once per argument list given as JSON, with ``run`` wrapped
# to record the modules it loads, and prints a report as its last line.
# The report also holds OPENBLAS_NUM_THREADS after the CLI's import, and
# whether numpy was loaded each time the variable was put in the environment.
_CLI_CHILD = """
import json, os, sys

numpy_when_threads_set = []

def audit(event, args):
    if event == "os.putenv" and os.fsdecode(args[0]) == "OPENBLAS_NUM_THREADS":
        numpy_when_threads_set.append("numpy" in sys.modules)

sys.addaudithook(audit)
from descentlab.harness import cli

report = {
    "status": [],
    "loaded_in_run": [],
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "numpy_when_threads_set": numpy_when_threads_set,
}
real_run = cli.run

def run(config):
    at_call = set(sys.modules)
    try:
        return real_run(config)
    finally:
        report["loaded_in_run"] += sorted(set(sys.modules) - at_call)

cli.run = run
for argv in json.loads(sys.argv[1]):
    report["status"].append(cli.main(argv))
report["modules"] = sorted(sys.modules)
print(json.dumps(report))
"""


def _fresh_python(tmp_path, program, *args, blas_threads=None) -> dict:
    """Run ``program`` in a new interpreter and parse its last output line
    as JSON.  The child sees this package, and OPENBLAS_NUM_THREADS only
    when ``blas_threads`` gives it: importing the CLI here has set it in
    this process's environment."""
    src = os.path.dirname(os.path.dirname(descentlab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = path
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", program, *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _fresh_cli(tmp_path, *argvs, blas_threads=None) -> dict:
    """The CLI on each of ``argvs`` in one new interpreter: exit statuses,
    the modules loaded inside ``run``, every module loaded at the end and
    the OPENBLAS_NUM_THREADS facts of ``_CLI_CHILD``."""
    argvs = json.dumps(argvs)
    return _fresh_python(tmp_path, _CLI_CHILD, argvs, blas_threads=blas_threads)


def _loaded(modules, package: str) -> list[str]:
    return [m for m in modules if m == package or m.startswith(package + ".")]


@pytest.mark.parametrize(
    "name, keys",
    [(name, _TINY_CONFIGS[name]) for name in sorted(_TINY_CONFIGS)]
    + [
        ("polyfit", _TINY_CONFIGS["polyfit"] + "via = gradient_descent\n"),
        ("rff-sweep", "dataset = mnist\nn_train = 20\nn_test = 10\nn_grid = 4, 8\nrepeats = 1\n"),
    ],
)
def test_a_run_loads_no_module(tmp_path, monkeypatch, name, keys):
    # Every module a run uses is imported in set-up (the modules that
    # runner.EXPERIMENTS lists beside each runner), so none of its import
    # time is counted in the run.
    _write_fake_mnist(tmp_path)
    monkeypatch.setenv("DESCENTLAB_DATA", str(tmp_path))
    cfg = _cfg(tmp_path, f"experiment = {name}\n{keys}")
    report = _fresh_cli(tmp_path, [name, "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert report["status"] == [0]
    assert report["loaded_in_run"] == []
    # numpy's bundled OpenBLAS does every solve: no run loads scipy.
    assert _loaded(report["modules"], "scipy") == []
    # np.median and np.unique would import numpy.ma; no run calls them.
    assert "numpy.ma" not in report["modules"]


def test_importing_datasets_loads_no_scipy(tmp_path):
    # scripts/run_all.py imports it for data_dir and mnist_available alone.
    program = (
        "import json, sys\nimport descentlab.harness.datasets\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    modules = _fresh_python(tmp_path, program)
    assert "descentlab.harness.datasets" in modules
    assert _loaded(modules, "scipy") == []


def test_cli_sets_one_blas_thread_before_numpy_loads(tmp_path):
    report = _fresh_cli(tmp_path)
    assert report["blas_threads"] == "1"
    assert report["numpy_when_threads_set"] == [False]


def test_a_preset_openblas_num_threads_is_kept(tmp_path):
    report = _fresh_cli(tmp_path, blas_threads="2")
    assert report["blas_threads"] == "2"
    assert report["numpy_when_threads_set"] == []


def test_validate_loads_no_scipy(tmp_path):
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    paths = sorted(os.path.join(configs, f) for f in os.listdir(configs) if f.endswith(".cfg"))
    assert paths
    report = _fresh_cli(tmp_path, *(["validate", "--config", path] for path in paths))
    assert report["status"] == [0] * len(paths)
    assert _loaded(report["modules"], "scipy") == []


def test_cli_seed_override_changes_output(tmp_path):
    cfg = _cfg(tmp_path, "experiment = polyfit\ngrid_points = 16\nn = 8\ndegree = 5\n")
    a, b, c = (str(tmp_path / f"{k}.csv") for k in "abc")
    main(["polyfit", "--config", cfg, "--seed", "1", "--out", a])
    main(["polyfit", "--config", cfg, "--seed", "1", "--out", b])
    main(["polyfit", "--config", cfg, "--seed", "2", "--out", c])
    with open(a, "rb") as fa, open(b, "rb") as fb, open(c, "rb") as fc:
        bytes_a, bytes_b, bytes_c = fa.read(), fb.read(), fc.read()
    assert bytes_a == bytes_b
    assert bytes_a != bytes_c


def test_cli_emc_run_reports_trailing_value(tmp_path):
    cfg = _cfg(
        tmp_path,
        "experiment = emc\nseed = 6\nd = 8\nn_grid = 4, 8, 9, 12\ntrials = 2\n",
    )
    out = tmp_path / "emc.csv"
    assert main(["emc", "--config", cfg, "--out", str(out)]) == 0
    comments, columns, rows = read_rows(out)
    assert comments[-1] == "emc = 8"
    assert columns == ["n", "mean_train_error", "interpolates"]
    # Early exit: the scan stops at n = 9, never visiting 12.
    assert [r[0] for r in rows] == ["4", "8", "9"]
    assert [r[2] for r in rows] == ["1", "1", "0"]


@pytest.mark.parametrize(
    "case",
    ["label-above-9", "swapped-files", "empty-files", "overflowing-header", "count-mismatch"],
)
def test_cli_malformed_mnist_is_a_one_line_run_error(tmp_path, monkeypatch, capsys, case):
    _write_fake_mnist(tmp_path)
    images = tmp_path / "train-images-idx3-ubyte"
    labels = tmp_path / "train-labels-idx1-ubyte"
    if case == "label-above-9":
        bad = np.repeat(np.arange(10), 6)
        bad[0] = 10
        write_idx(labels, bad)
    elif case == "swapped-files":
        image_bytes, label_bytes = images.read_bytes(), labels.read_bytes()
        images.write_bytes(label_bytes)
        labels.write_bytes(image_bytes)
    elif case == "overflowing-header":
        # 2^30 * 2^30 * 16 images' bytes is 0 in int64 arithmetic.
        images.write_bytes(struct.pack(">4i", 0x803, 2**30, 2**30, 16))
    elif case == "count-mismatch":
        write_idx(labels, np.repeat(np.arange(10), 6)[:59])  # against 60 images
    else:
        write_idx(images, np.zeros((0, 4, 4)))
        write_idx(labels, np.zeros(0))
    monkeypatch.setenv("DESCENTLAB_DATA", str(tmp_path))
    cfg = _cfg(
        tmp_path,
        "experiment = rff-sweep\ndataset = mnist\nn_train = 20\nn_test = 10\n"
        "n_grid = 5\nrepeats = 1\n",
    )
    assert main(["rff-sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ------------------------------------------------------- validate, then run


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


def _grid(lo, hi):
    return st.sets(st.integers(lo, hi), min_size=1, max_size=3).map(
        lambda values: ", ".join(str(v) for v in sorted(values))
    )


# Small configs for every experiment but the MNIST sweep, which needs
# files.  Ranges reach a little past some bounds so that validate has
# something to reject, and scale keys run out to 1e+-300, where a float
# fault must end the run in one line.
_SMALL_CONFIGS = {
    "sparse-risk": st.builds(
        dict,
        d=_ints(1, 8),
        n=_ints(1, 6),
        signal_norm_sq=_floats(0, 1e300),
        noise_var=_floats(0, 1e300),
        p_grid=_grid(0, 9),
        trials=_ints(1, 4),
        test_points=_ints(1, 4),
    ),
    "rff-sweep": st.builds(
        dict,
        n_train=_ints(1, 8),
        n_test=_ints(1, 4),
        n_grid=_grid(1, 16),
        bandwidth=_floats(1e-300, 1e300),
        repeats=_ints(1, 2),
        input_dim=_ints(1, 3),
        n_centers=_ints(1, 4),
        target_bandwidth=_floats(1e-300, 1e300),
    ),
    "kernel-approx": st.builds(
        dict,
        n_points=_ints(2, 6),
        input_dim=_ints(1, 3),
        bandwidth=_floats(1e-300, 1e300),
        n_grid=_grid(1, 40),
        n_maps=_ints(1, 3),
    ),
    "implicit-bias": st.builds(
        dict,
        n=_ints(2, 8),
        d=_ints(1, 3),
        margin=_floats(1e-300, 1e300),
        loss=st.sampled_from(["logistic", "exponential"]),
        step_fraction=_floats(0, 1.5),
        max_iters=_ints(1, 300),
        record_every=_ints(1, 100),
    ),
    "polyfit": st.builds(
        dict,
        degree=_ints(0, 30),
        n=_ints(1, 10),
        noise_scale=_floats(0, 1e300),
        truth_degree=_ints(0, 6),
        grid_points=_ints(1, 20),
        via=st.sampled_from(["pseudo_inverse", "gradient_descent"]),
    ),
    "bias-variance": st.builds(
        dict,
        degrees=_grid(0, 12),
        n=_ints(1, 6),
        noise_scale=_floats(0, 1e300),
        trials=_ints(2, 5),
        truth_degree=_ints(0, 5),
    ),
    "emc": st.builds(
        dict,
        d=_ints(1, 6),
        eps=_floats(0, 1e300),
        n_grid=_grid(1, 10),
        trials=_ints(1, 3),
        noise_scale=_floats(0, 1e300),
    ),
}


@pytest.mark.parametrize("name", sorted(_SMALL_CONFIGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_whatever_validate_accepts_runs_or_fails_in_one_line(name, data, seed):
    """A config that validate accepts writes its CSV (exit 0) or ends in
    one ``error:`` line (exit 1); it is never a traceback, and never a
    config error, which validate should have reported."""
    keys = data.draw(_SMALL_CONFIGS[name])
    text = f"experiment = {name}\nseed = {seed}\n"
    text += "".join(f"{key} = {value}\n" for key, value in keys.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out.csv")
        with open(cfg, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            if main(["validate", "--config", cfg]) != 0:
                return
        err = io.StringIO()
        with (
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(err),
            warnings.catch_warnings(record=True) as caught,
        ):
            warnings.simplefilter("always")
            status = main([name, "--config", cfg, "--out", out])
        # A numpy overflow would show here, not on the redirected stderr.
        assert not caught, text + "\n".join(str(w.message) for w in caught)
        if status == 0:
            assert os.path.isfile(out)
            assert err.getvalue() == ""
        else:
            assert status == 1, text + err.getvalue()
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
