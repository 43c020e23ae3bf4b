"""End-to-end command-line checks: pipelines, exit codes, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsgms
from nsgms.cli import main
from nsgms.serialize import load_model, load_samples

CONFIG = """
p = 6
s_true = 2
s_est = 2
B = 2
N_grid = 120, 240
beta = 2.0
coupling = 0.4
trials = 4
eta = 0.1
master_seed = 11
"""


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.txt"
    assert run("model", "-p", 6, "--s-max", 2, "-B", 2, "-L", 64, "--beta", 2.0,
               "--coupling", 0.4, "--seed", 3, "-o", path) == 0
    return path


def test_model_writes_graph_too(tmp_path):
    mpath, gpath = tmp_path / "m.txt", tmp_path / "g.txt"
    assert run("model", "-p", 5, "--s-max", 2, "-B", 1, "-L", 16, "--beta", 2.0,
               "--coupling", 0.3, "--seed", 1, "-o", mpath, "--graph", gpath) == 0
    assert load_model(mpath).p == 5
    assert all(line.startswith("edge ") for line in gpath.read_text().splitlines())


def test_sample_then_estimate_pipeline(tmp_path, model_path):
    spath = tmp_path / "samples.txt"
    assert run("sample", model_path, "--seed", 7, "-o", spath) == 0
    epath = tmp_path / "est.txt"
    assert run("estimate", spath, "-s", 2, "--rho-min", 0.02, "-o", epath) == 0
    lines = epath.read_text().splitlines()
    assert all(line.startswith("edge ") for line in lines)
    npath = tmp_path / "node.txt"
    assert run("estimate", spath, "-s", 2, "--lam", 0.01, "--node", 1, "-o", npath) == 0
    assert npath.read_text().startswith("node 1: {")


def test_binary_sample_round_trip(tmp_path, model_path):
    spath = tmp_path / "samples.bin"
    assert run("sample", model_path, "--seed", 7, "-o", spath, "--binary") == 0
    text = tmp_path / "samples.txt"
    assert run("sample", model_path, "--seed", 7, "-o", text) == 0
    b = load_samples(spath, binary=True)
    t = load_samples(text)
    for X1, X2 in zip(b.data, t.data):
        assert np.allclose(X1, X2, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_estimate_binary_rejects_non_finite_payload(tmp_path, capsys, model_path, bad):
    spath = tmp_path / "samples.bin"
    assert run("sample", model_path, "--seed", 7, "-o", spath, "--binary") == 0
    payload = np.fromfile(spath, dtype="<f8")
    payload[len(payload) // 2 + 3] = bad  # inside the second block
    payload.tofile(spath)
    assert run("estimate", spath, "--binary", "-s", 2, "--lam", 0.01) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e200"])
def test_estimate_text_rejects_non_finite_samples(tmp_path, capsys, model_path, bad):
    spath = tmp_path / "samples.txt"
    assert run("sample", model_path, "--seed", 7, "-o", spath) == 0
    lines = spath.read_text().splitlines()
    lines[-5] = " ".join([bad] + lines[-5].split()[1:])  # inside the last block
    spath.write_text("\n".join(lines) + "\n")
    assert run("estimate", spath, "-s", 2, "--lam", 0.01) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_estimate_binary_releases_its_mappings(tmp_path, model_path):
    spath = tmp_path / "samples.bin"
    assert run("sample", model_path, "--seed", 7, "-o", spath, "--binary") == 0
    out = tmp_path / "edges.txt"
    assert run("estimate", spath, "--binary", "-s", 2, "--lam", 0.01, "-o", out) == 0
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(20):
        assert run("estimate", spath, "--binary", "-s", 2, "--lam", 0.01, "-o", out) == 0
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("binary, header", [
    (False, "nsgms-samples v1 p=2 B=1 L=2\nblock 1\nx 1\n2 3\n"),
    (False, "nsgms-samples v1 p=2 B=1 L=0\nblock 1\n"),
    (True, "nsgms-samples v1 p=two B=1 L=2\n"),
], ids=["text-entry", "text-zero-L", "binary-meta-p"])
def test_estimate_unparsable_samples_exit_2(tmp_path, capsys, binary, header):
    spath = tmp_path / ("samples.bin" if binary else "samples.txt")
    if binary:
        np.zeros(4).tofile(spath)
        (tmp_path / "samples.bin.meta").write_text(header)
    else:
        spath.write_text(header)
    flags = ["--binary"] if binary else []
    assert run("estimate", spath, *flags, "-s", 1, "--lam", 0.01) == 2
    assert "line" in capsys.readouterr().err


def test_sample_unparsable_model_exits_2(tmp_path, capsys, model_path):
    lines = model_path.read_text().splitlines()
    lines[2] = "abc " + lines[2].split(" ", 1)[1]
    bad_model = tmp_path / "bad_model.txt"
    bad_model.write_text("\n".join(lines) + "\n")
    assert run("sample", bad_model, "--seed", 7, "-o", tmp_path / "samples.txt") == 2
    assert "line 3" in capsys.readouterr().err


def test_decorrelate_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    from nsgms.sampling import SampleBlocks
    from nsgms.serialize import save_samples

    record = SampleBlocks(p=3, B=1, L=64, data=(rng.standard_normal((3, 64)),))
    spath = tmp_path / "record.txt"
    save_samples(record, spath)
    out = tmp_path / "blocks.txt"
    assert run("decorrelate", spath, "--width", 4, "-o", out, "--report") == 0
    blocks = load_samples(out)
    assert (blocks.B, blocks.L) == (4, 16)
    assert "cross_block_energy=" in capsys.readouterr().out


@pytest.mark.parametrize("bad, message", [
    (np.nan, "record contains non-finite values"),
    (np.inf, "record contains non-finite values"),
    (1e307, "DFT of the record overflows to non-finite values"),  # finite, but the sum is not
])
def test_decorrelate_rejects_non_finite_record(tmp_path, capsys, bad, message):
    from nsgms.sampling import SampleBlocks
    from nsgms.serialize import save_samples

    data = np.random.default_rng(0).standard_normal((3, 64))
    if np.isfinite(bad):
        data[:] = bad
    else:
        data[1, 17] = bad
    spath = tmp_path / "record.txt"
    save_samples(SampleBlocks(p=3, B=1, L=64, data=(data,)), spath)
    out = tmp_path / "blocks.txt"
    assert run("decorrelate", spath, "--width", 4, "-o", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def run_fresh(*argv):
    """The CLI in a fresh interpreter that shows every RuntimeWarning on stderr."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(Path(nsgms.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-W", "always::RuntimeWarning", "-m", "nsgms.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_overflowing_inputs_print_only_the_error_line(tmp_path, model_path):
    from nsgms.sampling import SampleBlocks
    from nsgms.serialize import save_samples

    spath = tmp_path / "samples.bin"
    assert run("sample", model_path, "--seed", 7, "-o", spath, "--binary") == 0
    payload = np.fromfile(spath, dtype="<f8")
    payload[len(payload) // 2 + 3] = 1e200  # finite, but its square is not
    payload.tofile(spath)
    rpath = tmp_path / "record.txt"
    save_samples(SampleBlocks(p=3, B=1, L=64, data=(np.full((3, 64), 1e307),)), rpath)
    for argv, message in [
        (("estimate", spath, "--binary", "-s", 2, "--lam", 0.01), "non-finite"),
        (("decorrelate", rpath, "--width", 4, "-o", tmp_path / "blocks.txt"), "overflows"),
    ]:
        done = run_fresh(*argv)
        assert done.returncode == 2
        [line] = done.stderr.splitlines()
        assert line.startswith("error:") and message in line


def test_lemma_subcommand(tmp_path):
    out = tmp_path / "lemma.csv"
    assert run("lemma", "--a", "1,0.5", "--b", "0,1", "--etas", "1,2,4",
               "--trials", 2000, "--seed", 5, "-o", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta,bound,empirical,trials"
    assert len(lines) == 4


def test_experiment_subcommand(tmp_path):
    cpath = tmp_path / "config.txt"
    cpath.write_text(CONFIG)
    out = tmp_path / "result.csv"
    assert run("experiment", cpath, "-o", out, "--no-timings") == 0
    assert len(out.read_text().splitlines()) == 3


def test_experiment_deterministic_across_workers(tmp_path):
    cpath = tmp_path / "config.txt"
    cpath.write_text(CONFIG)
    out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    assert run("--workers", 1, "experiment", cpath, "-o", out1, "--no-timings") == 0
    assert run("--workers", 8, "experiment", cpath, "-o", out8, "--no-timings") == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_config_errors_exit_2(tmp_path):
    cpath = tmp_path / "bad.txt"
    cpath.write_text(CONFIG + "mystery = 1\n")
    assert run("experiment", cpath, "-o", tmp_path / "out.csv") == 2
    # estimate without a penalty source
    spath = tmp_path / "samples.txt"
    assert run("model", "-p", 4, "--s-max", 1, "-B", 1, "-L", 8, "--beta", 2.0,
               "--coupling", 0.3, "--seed", 1, "-o", tmp_path / "m.txt") == 0
    assert run("sample", tmp_path / "m.txt", "--seed", 2, "-o", spath) == 0
    assert run("estimate", spath, "-s", 1) == 2
    # unreadable input
    assert run("sample", tmp_path / "missing.txt", "--seed", 2, "-o", spath) == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_sample_rejects_non_finite_model_values(tmp_path, capsys, model_path, bad):
    lines = model_path.read_text().splitlines()
    row = lines[2].split()
    row[1] = bad
    lines[2] = " ".join(row)
    bad_model = tmp_path / "bad_model.txt"
    bad_model.write_text("\n".join(lines) + "\n")
    assert run("sample", bad_model, "--seed", 7, "-o", tmp_path / "samples.txt") == 2
    assert "non-finite" in capsys.readouterr().err


def test_numerical_errors_exit_3(tmp_path):
    spath = tmp_path / "samples.txt"
    assert run("model", "-p", 6, "--s-max", 2, "-B", 1, "-L", 3, "--beta", 2.0,
               "--coupling", 0.4, "--seed", 1, "-o", tmp_path / "m.txt") == 0
    assert run("sample", tmp_path / "m.txt", "--seed", 2, "-o", spath) == 0
    # subset budget as large as the block length cannot be scored
    assert run("estimate", spath, "-s", 3, "--lam", 0.01) == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "nsgms" in capsys.readouterr().out
