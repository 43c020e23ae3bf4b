"""End-to-end command-line checks: pipelines, exit codes, determinism."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsgms
from nsgms.cli import build_parser, main
from nsgms.model import BlockModel
from nsgms.serialize import load_model, load_samples, save_model

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


def test_model_ignores_coupling(tmp_path, capsys):
    # The band map cancels the W scale --coupling once set; the flag is accepted
    # so that existing command lines keep working.
    outputs = []
    for coupling in (("--coupling", 0.3), ()):
        mpath, gpath = tmp_path / "m.txt", tmp_path / "g.txt"
        assert run("model", "-p", 8, "--s-max", 2, "-B", 4, "-L", 16, "--beta", 2.0, *coupling,
                   "--seed", 1, "-o", mpath, "--graph", gpath) == 0
        outputs.append((mpath.read_bytes(), gpath.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]


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


# sha256 of the ``estimate --node i --lam 0.01`` lines for i = 1..6, on the
# samples of ``sample --seed 7`` from the ``model_path`` model.  The digests
# hold for a given numpy, LAPACK and BLAS build.
NODE_PINS = [
    pytest.param(2, "ae7edf3bfefead00d1e5bf43ba70380bcd66f6e39050e784567aa236c192b8f6", id="s2"),
    pytest.param(3, "d398fb1b3609e2c50227f4fca37df5510f6c1ba2c28aae42f0195c278c1a0338", id="s3"),
]


@pytest.mark.parametrize("s, sha", NODE_PINS)
def test_node_estimates_are_pinned(tmp_path, model_path, s, sha):
    spath, npath = tmp_path / "samples.txt", tmp_path / "node.txt"
    assert run("sample", model_path, "--seed", 7, "-o", spath) == 0
    lines = b""
    for node in range(1, 7):
        assert run("estimate", spath, "-s", s, "--lam", 0.01, "--node", node, "-o", npath) == 0
        lines += npath.read_bytes()
    assert hashlib.sha256(lines).hexdigest() == sha


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


def test_estimate_without_output_writes_the_file_bytes_to_stdout(tmp_path, capsys, model_path):
    spath, epath = tmp_path / "samples.txt", tmp_path / "est.txt"
    assert run("sample", model_path, "--seed", 7, "-o", spath) == 0
    for extra in ((), ("--node", 2)):
        assert run("estimate", spath, "-s", 2, "--lam", 0.01, *extra, "-o", epath) == 0
        capsys.readouterr()
        assert run("estimate", spath, "-s", 2, "--lam", 0.01, *extra) == 0
        assert capsys.readouterr().out.encode() == epath.read_bytes()


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


def test_decorrelate_report_on_one_column_blocks_writes_nothing(tmp_path, capsys):
    from nsgms.sampling import SampleBlocks
    from nsgms.serialize import save_samples

    spath, out = tmp_path / "record.txt", tmp_path / "blocks.txt"
    record = np.random.default_rng(0).standard_normal((3, 8))
    save_samples(SampleBlocks(p=3, B=1, L=8, data=(record,)), spath)
    assert run("decorrelate", spath, "--width", 8, "-o", out, "--report") == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: need at least 2 columns per block"
    assert not out.exists()
    assert run("decorrelate", spath, "--width", 8, "-o", out) == 0  # no report, no bound on L


def test_decorrelate_rejects_a_multi_block_file(tmp_path, capsys, model_path):
    spath, out = tmp_path / "samples.txt", tmp_path / "blocks.txt"
    assert run("sample", model_path, "--seed", 7, "-o", spath) == 0  # B = 2
    capsys.readouterr()
    assert run("decorrelate", spath, "--width", 4, "-o", out) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: expected a single-block record, got B=2"
    assert not out.exists()


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


@pytest.mark.parametrize("etas", ["nan", "inf"])
def test_lemma_rejects_non_finite_etas(tmp_path, etas):
    # Each used to exit 0, writing nan,nan or (after a RuntimeWarning) inf,nan.
    out = tmp_path / "lemma.csv"
    done = run_fresh("lemma", "--a", "1,0.5", "--b", "0,1", "--etas", f"1,{etas}",
                     "--trials", 100, "--seed", 5, "-o", out)
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    assert line.startswith("error:") and "finite eta" in line
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("--a", "1,2"), "--a and --b must be given together"),
    ((), "give either --a/--b or --random-len"),
    (("--a", "1,x", "--b", "1,2"), "expected a comma-separated list of numbers, got '1,x'"),
], ids=["a without b", "no coefficients", "not a number"])
def test_lemma_coefficient_errors_exit_2(tmp_path, capsys, args, message):
    out = tmp_path / "lemma.csv"
    assert run("lemma", *args, "--trials", 10, "--seed", 1, "-o", out) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: {message}"
    assert not out.exists()


# sha256 of a ``lemma`` CSV, and of the ``model_path`` fixture's file with the
# line ``model`` prints for it.  The model digest holds for a given numpy and
# LAPACK build (the band map reads the precisions' eigvalsh).
LEMMA_SHA = "5627cf944e8016d926bf5ce0e0046ee1cb52353fa088792c5317d7ce045531af"
MODEL_SHA = "8c69fd23b54e54fe64aa1fff25abf3bbd8f5213e1c806f6404ca629d208228e0"


def test_lemma_csv_bytes_are_pinned(tmp_path):
    out = tmp_path / "lemma.csv"
    assert run("lemma", "--random-len", 12, "--trials", 20000, "--seed", 3, "-o", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LEMMA_SHA


def test_model_file_bytes_are_pinned(capsys, model_path):
    assert capsys.readouterr().out == "rho_min_achieved=0.0200116\n"
    assert hashlib.sha256(model_path.read_bytes()).hexdigest() == MODEL_SHA


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
    # unreadable input
    assert run("sample", tmp_path / "missing.txt", "--seed", 2, "-o", tmp_path / "s.txt") == 2


@pytest.mark.parametrize("line", ["N_grid = nanx", "N_grid = infx", "N_grid = 1e400x",
                                  "N_grid = 0x", "N_grid = -1x", "eta = nan", "eta = 1000"])
def test_bad_multipliers_and_eta_exit_2(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    text = "".join(f"{line}\n" if row.startswith(key) else f"{row}\n"
                   for row in CONFIG.strip().splitlines())
    cpath = tmp_path / "bad.txt"
    cpath.write_text(text)
    assert run("experiment", cpath, "-o", tmp_path / "out.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def exit_code(*argv) -> int:
    """``main``'s return value, or the code of the SystemExit a usage error raises."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def config_with(tmp_path, line):
    key = line.split(" = ")[0]
    rows = [row for row in CONFIG.strip().splitlines() if not row.startswith(f"{key} ")]
    path = tmp_path / "config.txt"
    path.write_text("\n".join(rows + [line]) + "\n")
    return path


@pytest.mark.parametrize("penalty", [("--lam", "nan"), ("--lam", "inf"),
                                     ("--rho-min", "nan", "--node", 1),
                                     ("--rho-min", "inf", "--node", 1), "lambda_mode = nan"],
                         ids=lambda v: v if isinstance(v, str) else " ".join(map(str, v)))
def test_non_finite_penalties_exit_2(tmp_path, capsys, model_path, penalty):
    # Each used to exit 0 with an empty graph, or a row of error rate 1.
    if isinstance(penalty, str):
        argv = ("experiment", config_with(tmp_path, penalty), "-o", tmp_path / "out.csv")
    else:
        spath = tmp_path / "samples.txt"
        assert run("sample", model_path, "--seed", 7, "-o", spath) == 0
        argv = ("estimate", spath, "-s", 2, *penalty)
    capsys.readouterr()
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command, args", [
    ("experiment", "B = 0"), ("experiment", "B = -2"), ("experiment", "master_seed = -5"),
    ("model", ("--seed", -1)), ("sample", ("--seed", -1)), ("lemma", ("--seed", -1)),
    ("lemma", ("--trials", 0)), ("lemma", ("--random-len", -1)), ("lemma", ("--eta-points", 0)),
], ids=lambda v: v if isinstance(v, str) else " ".join(map(str, v)))
def test_bad_counts_and_seeds_exit_2(tmp_path, capsys, model_path, command, args):
    out = tmp_path / "out"
    if command == "experiment":
        argv = ("experiment", config_with(tmp_path, args), "-o", out)
    elif command == "model":
        argv = ("model", "-p", 6, "--s-max", 2, "-B", 2, "-L", 64, "--beta", 2.0,
                "--coupling", 0.4, "-o", out, *args)
    elif command == "sample":
        argv = ("sample", model_path, "-o", out, *args)
    else:  # the bad value comes last, and argparse keeps the last of a repeated option
        argv = ("lemma", "--random-len", 4, "--trials", 100, "--seed", 3, "-o", out, *args)
    capsys.readouterr()
    assert exit_code(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") or (err.startswith("error: ") and err.count("\n") == 1), err
    assert not out.exists()


@pytest.mark.parametrize("command, value", [
    ("model", "inf"), ("model", "1e308"), ("model", "1e17"), ("model", "nan"), ("model", "1"),
    ("experiment", "beta = inf"), ("experiment", "beta = 1e308"), ("experiment", "beta = nan"),
])
def test_bad_beta_and_coupling_exit_2(tmp_path, capsys, command, value):
    # An infinite or overflowing beta used to print numpy's divide and matmul
    # warnings before its error line, and beta = inf in a config failed as a
    # grid entry that "overflows the block length".
    out = tmp_path / "out"
    if command == "model":
        argv = ("model", "-p", 6, "--s-max", 2, "-B", 2, "-L", 64, "--beta", value,
                "--coupling", 0.4, "--seed", 1, "-o", out)
    else:
        argv = ("experiment", config_with(tmp_path, value), "-o", out)
    capsys.readouterr()
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "beta" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("beta, rows, message", [
    ("2", "2 0.5\n0 2\n", "not symmetric"),
    *((beta, "2 0.5\n0.5 2\n", "beta") for beta in ("nan", "inf", "1", "0.5", "4503599627370496")),
], ids=["asymmetric", "beta=nan", "beta=inf", "beta=1", "beta=0.5", "beta=2^52"])
@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
def test_sample_of_a_model_file_that_states_no_model_exits_2(tmp_path, capsys, beta, rows,
                                                             message, binary):
    # Each used to load and sample with exit 0: the asymmetric block from the
    # inverse of no stored precision, and beta=nan from a model of no band.
    mpath, out = tmp_path / "model.txt", tmp_path / "samples"
    mpath.write_text(f"nsgms-model v1 p=2 B=1 L=4 beta={beta}\nblock 1\n{rows}")
    capsys.readouterr()
    assert run("sample", mpath, "--seed", 1, "-o", out, *["--binary"] * binary) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not out.exists() and not (tmp_path / "samples.meta").exists()


def test_repeated_in_process_calls_give_the_same_bytes(tmp_path, capsys):
    # The parser is built once per process; parsing, a usage error and
    # --version must leave it as it was.
    assert build_parser() is build_parser()
    cpath = tmp_path / "sweep.txt"
    cpath.write_text(CONFIG)
    rounds = []
    for k in range(2):
        csv, model = tmp_path / f"out{k}.csv", tmp_path / f"model{k}.txt"
        assert run("experiment", cpath, "-o", csv, "--no-timings") == 0
        assert run("model", "-p", 6, "--s-max", 2, "-B", 2, "-L", 64, "--beta", 2.0,
                   "--coupling", 0.4, "--seed", 3, "-o", model) == 0
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as usage:
            run("model", "-p", 6)
        usage_err = capsys.readouterr().err
        with pytest.raises(SystemExit) as version:
            run("--version")
        version_out = capsys.readouterr().out
        assert (usage.value.code, version.value.code) == (2, 0)
        rounds.append((csv.read_bytes(), model.read_bytes(), printed.out, printed.err,
                       usage_err, version_out))
    assert rounds[0] == rounds[1]
    assert "usage:" in rounds[0][4] and "nsgms" in rounds[0][5]


@pytest.mark.parametrize("penalty", [(), ("--lam", 0.01, "--rho-min", 5.0)],
                         ids=["neither", "both"])
def test_estimate_needs_exactly_one_penalty_source(tmp_path, capsys, model_path, penalty):
    spath = tmp_path / "samples.txt"
    assert run("sample", model_path, "--seed", 2, "-o", spath) == 0
    with pytest.raises(SystemExit) as exc:
        run("estimate", spath, "-s", 1, *penalty)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


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


@pytest.mark.parametrize("binary", [False, True])
def test_sample_of_an_indefinite_model_exits_3_and_writes_nothing(tmp_path, capsys, binary):
    # Block 1 is fine; block 2's precision has a negative eigenvalue, so it
    # has no root K^-1/2.  Every block is checked before the output is
    # opened, though blocks are drawn only as they are written.
    mpath, spath = tmp_path / "m.txt", tmp_path / "samples.out"
    mpath.write_text("nsgms-model v1 p=3 B=2 L=16 beta=2\n"
                     "block 1\n1 0 0\n0 1 0\n0 0 1\n"
                     "block 2\n1 0 0\n0 -1 0\n0 0 1\n")
    assert run("sample", mpath, "--seed", 1, "-o", spath, *["--binary"] * binary) == 3
    assert "not positive definite" in capsys.readouterr().err
    assert not spath.exists() and not Path(f"{spath}.meta").exists()


@pytest.mark.parametrize("block", ["0 0\n0 0", "1 2\n2 1", "1 3\n3 9"],
                         ids=["singular", "indefinite", "rank-deficient"])
def test_sample_of_a_singular_or_indefinite_block_exits_3_with_one_message(tmp_path, capsys, block):
    # A singular block loads as any model does; all fail where the root is formed.
    # eigh can put the zero eigenvalue of the rank-1 block 1 3 / 3 9 at +1e-16,
    # which a check of lambda <= 0 let through to samples about 1e7 too large.
    mpath, spath = tmp_path / "m.txt", tmp_path / "samples.out"
    mpath.write_text(f"nsgms-model v1 p=2 B=1 L=4 beta=2\nblock 1\n{block}\n")
    assert load_model(mpath).precisions.shape == (1, 2, 2)
    assert run("sample", mpath, "--seed", 1, "-o", spath) == 3
    assert capsys.readouterr().err == "numerical failure: precision matrix is not positive definite\n"
    assert not spath.exists()


@pytest.mark.parametrize("kappa, code", [(1e14, 3), (1e6, 0)], ids=["kappa-1e14", "kappa-1e6"])
def test_sample_of_a_model_whose_root_fails_its_check_exits_3_as_model_does(tmp_path, capsys,
                                                                           kappa, code):
    # I - (1 - 1/kappa) 11^T / p has eigenvalues 1 and 1/kappa.  At kappa = 1e14
    # eigh gives it a root whose F K F is about 2e-3 off I, which the check
    # `model` applies refuses ("inversion residual"); `sample` of such a model
    # file drew through that root and exited 0.  Every root now passes one check.
    failure = re.compile(r"numerical failure: inversion residual \S+ exceeds tolerance\n")
    assert run("model", "-p", 8, "--s-max", 2, "-B", 4, "-L", 64, "--beta", 1e12, "--seed", 1,
               "-o", tmp_path / "built.txt") == 3
    assert failure.fullmatch(capsys.readouterr().err)
    mpath, spath = tmp_path / "m.txt", tmp_path / "samples.out"
    K = np.eye(8) - (1 - 1 / kappa) / 8
    save_model(BlockModel(p=8, B=2, L=16, beta=kappa, precisions=[K, K]), mpath)
    assert run("sample", mpath, "--seed", 1, "-o", spath) == code
    err = capsys.readouterr().err
    if code:
        assert failure.fullmatch(err) and not spath.exists()
    else:
        assert err == "" and load_samples(spath).data.shape == (2, 8, 16)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "nsgms" in capsys.readouterr().out
