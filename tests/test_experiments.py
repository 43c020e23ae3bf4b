"""Config parsing, Monte Carlo sweeps, and CSV emission."""

import copy
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsgms.experiments as experiments
import nsgms.model as model_module
import nsgms.sampling as sampling_module
from nsgms import QuadraticForm, build_block_model, random_cig, sample_grams, sample_size_bound
from nsgms.cli import main
from nsgms.errors import (
    ConfigError,
    InfeasibleConfigError,
    InvalidParameterError,
    NotPositiveDefiniteError,
    TrendViolationError,
)
from nsgms.experiments import (
    CSV_COLUMNS,
    MODELS_PER_STACK,
    ExperimentConfig,
    _draw_trial,
    _run_trials,
    calibrate_rho_min,
    check_monotone_trend,
    emit_csv,
    emit_lemma_csv,
    parse_config,
    parse_result_csv,
    resolve_grid,
    run_lemma_check,
    run_node_recovery,
    run_phase_transition,
    wilson_interval,
)
from nsgms.model import W_SCALE, _w_draws, build_model_stack, inverse_square_roots
from nsgms.sampling import sample_gram_stack

BASE_CONFIG = """
# recovery sweep
p = 6
s_true = 2
s_est = 2
B = 2
N_grid = 200, 400
beta = 2.0
trials = 4
eta = 0.1
master_seed = 5
"""


def small_config(**overrides):
    kw = dict(p=6, s_true=2, s_est=2, B=2, grid=(200, 400), grid_kind="N",
              beta=2.0, lambda_mode="default", trials=4,
              eta=0.1, master_seed=5)
    kw.update(overrides)
    return ExperimentConfig(**kw)


# ---------------------------------------------------------------- parsing

def test_parse_config_round_values():
    cfg = parse_config(BASE_CONFIG)
    assert cfg == small_config()


def test_parse_config_multiplier_entries():
    cfg = parse_config(BASE_CONFIG.replace("N_grid = 200, 400", "N_grid = 0.5x, 2x"))
    assert cfg.grid == (0.5, 2.0)


def test_parse_config_l_grid():
    cfg = parse_config(BASE_CONFIG.replace("N_grid = 200, 400", "L_grid = 50, 100"))
    assert cfg.grid_kind == "L"
    assert resolve_grid(cfg) == [(100, 50), (200, 100)]


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config(BASE_CONFIG + "bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'combine_rule'"):
        parse_config(BASE_CONFIG + "combine_rule = OR\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError):
        parse_config(BASE_CONFIG + "p = 7\n")


def test_parse_config_requires_one_grid():
    with pytest.raises(ConfigError):
        parse_config(BASE_CONFIG + "L_grid = 10\n")
    with pytest.raises(ConfigError):
        parse_config(BASE_CONFIG.replace("N_grid = 200, 400", ""))


def test_parse_config_rejects_missing_key():
    with pytest.raises(ConfigError):
        parse_config(BASE_CONFIG.replace("beta = 2.0", ""))


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(trials=0)
    with pytest.raises(ConfigError):
        small_config(s_est=1)
    with pytest.raises(ConfigError):
        small_config(s_est=6)
    with pytest.raises(ConfigError):
        small_config(lambda_mode="soft")
    assert small_config(lambda_mode="0.125").lam(0.3) == 0.125
    assert small_config().lam(0.3) == 0.3 / 6


@pytest.mark.parametrize("field, value, match", [
    ("lambda_mode", "nan", "lambda_mode"), ("lambda_mode", "inf", "lambda_mode"),
    ("lambda_mode", "-inf", "lambda_mode"), ("lambda_mode", "-0.01", "lambda_mode"),
    ("B", 0, "B >= 1"), ("B", -2, "B >= 1"), ("master_seed", -5, "master_seed >= 0"),
])
def test_config_rejects_bad_lambda_counts_and_seeds(field, value, match):
    with pytest.raises(ConfigError, match=match):
        small_config(**{field: value})


@pytest.mark.parametrize("entry", ["nanx", "infx", "1e400x", "0x", "-1x", "0", "-4"])
def test_parse_config_rejects_bad_grid_entries(entry):
    with pytest.raises(ConfigError, match="grid"):
        parse_config(BASE_CONFIG.replace("200, 400", f"200, {entry}"))


@pytest.mark.parametrize("eta", ["nan", "inf", "-inf", "0", "-0.1", "1", "1000"])
def test_parse_config_rejects_bad_eta(eta):
    with pytest.raises(ConfigError, match="eta"):
        parse_config(BASE_CONFIG.replace("eta = 0.1", f"eta = {eta}"))


@pytest.mark.parametrize("line", ["beta = inf", "beta = nan", "beta = 1", "beta = 0.5"])
def test_parse_config_rejects_bad_beta_and_coupling(line):
    key = line.split(" = ")[0]
    text = "".join(f"{line}\n" if row.startswith(key) else f"{row}\n"
                   for row in BASE_CONFIG.strip().splitlines())
    with pytest.raises(ConfigError, match=key):
        parse_config(text)


def test_resolve_grid_rejects_a_multiplier_that_overflows():
    # Finite, but entry * bound / B is not.
    with pytest.raises(ConfigError, match="overflows"):
        resolve_grid(small_config(grid=(1e306,)))


def test_resolve_grid_rejects_tiny_blocks():
    with pytest.raises(InfeasibleConfigError):
        resolve_grid(small_config(grid=(4,), grid_kind="N"))


# ---------------------------------------------------------------- intervals

def test_wilson_interval_contains_estimate():
    lo, hi = wilson_interval(3, 20)
    assert lo <= 3 / 20 <= hi
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 500), st.data())
def test_wilson_interval_valid(trials, data):
    errors = data.draw(st.integers(0, trials))
    lo, hi = wilson_interval(errors, trials)
    assert 0.0 <= lo <= errors / trials <= hi <= 1.0


# ---------------------------------------------------------------- sweeps

def test_calibration_is_pinned_on_the_acceptance_config():
    # Recorded when each pilot came to draw its graph and W entries on its one
    # stream (0.0174415429237954 before), and again when the band map came to
    # read eigvalsh (0.018721847625221007 before); a change that keeps the
    # streams and the band map keeps it.
    config = small_config(p=8, s_true=2, s_est=2, B=4, grid=(1.0,),
                          beta=2.0, eta=0.1, master_seed=20260824)
    assert repr(calibrate_rho_min(config)) == "0.018721847625221055"


def test_trial_memory_does_not_grow_with_block_length():
    # The acceptance config at the bound (L = 187252): p x L columns would
    # take 12 MB per block; a chunk of trials draws only the 8 x 8 Gram matrices.
    cfg = small_config(p=8, B=4, grid=(1.0,), trials=MODELS_PER_STACK, master_seed=20260824)
    tracemalloc.start()
    try:
        _run_trials(cfg, 187252, 0, range(MODELS_PER_STACK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_recovery_memory_does_not_grow_with_trials():
    # 4, 64 and 256 trials of the acceptance config at the bound: one chunk, or
    # many.  The peaks may differ by the index arrays of the largest chunk's
    # graphs, a few KB, but not by anything kept per trial.
    def config(trials):
        return small_config(p=8, B=4, grid=(749008,), trials=trials, master_seed=20260824)

    run_node_recovery(config(MODELS_PER_STACK), timings=False)  # first-call set-up
    peaks = []
    for chunks in (1, 16, 64):
        tracemalloc.start()
        try:
            run_node_recovery(config(chunks * MODELS_PER_STACK), timings=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) - min(peaks) < 8192, peaks


# tracemalloc peaks, in bytes, of one calibration and of one trial chunk on
# the acceptance config after a warm-up (numpy 2.4, Python 3.11), recorded
# once the band map wrote only the edges and the diagonal and the W draws
# were freed before it.  Holding
# one (MODELS_PER_STACK * B, p, p) stack longer than needed, such as the
# precisions during Gram sampling, raises a peak by that stack's 8192 bytes.
HARNESS_PEAKS = {"calibration": 23176, "trial chunk": 29848}


@pytest.mark.parametrize("step", sorted(HARNESS_PEAKS))
def test_harness_peaks_do_not_rise_by_one_stack(step):
    cfg = small_config(p=8, B=4, grid=(1.0,), trials=MODELS_PER_STACK, master_seed=20260824)
    run = {"calibration": lambda: calibrate_rho_min(cfg),
           "trial chunk": lambda: _run_trials(cfg, 187252, 0, range(MODELS_PER_STACK))}[step]
    run()  # first-call set-up
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = MODELS_PER_STACK * cfg.B * cfg.p * cfg.p * 8
    assert peak < HARNESS_PEAKS[step] + stack, (peak, HARNESS_PEAKS[step])


def test_chunked_trials_match_trial_by_trial_runs(monkeypatch):
    cfg = small_config(p=8, B=4, grid=(1.0, 0.01, 300), trials=2 * MODELS_PER_STACK + 3,
                       master_seed=7)
    chunked = run_node_recovery(cfg, timings=False)
    monkeypatch.setattr(experiments, "MODELS_PER_STACK", 1)
    assert run_node_recovery(cfg, timings=False) == chunked


def test_a_spoiled_trial_raises_what_the_trial_by_trial_loop_raises(monkeypatch):
    # Trial 1 of a chunk gets negated precision blocks, so it fails only where
    # its roots are formed; trial 3 gets a NaN precision, which the stack's
    # finiteness check catches before any root is formed.  Run alone, trial 1
    # fails first, so that is the error a chunk must raise too.
    cfg = small_config(p=8, B=4, grid=(2000,), trials=MODELS_PER_STACK, master_seed=20260824)
    assert MODELS_PER_STACK >= 4
    original = model_module._spectrum_to_band
    seen = []

    def recording(K, beta, edges):
        seen.append(K.copy())
        return original(K, beta, edges)

    monkeypatch.setattr(model_module, "_spectrum_to_band", recording)
    run_node_recovery(cfg, timings=False)
    assert len(seen) == 1  # one stack for the whole chunk
    negated, nan = seen[0][1 * cfg.B], seen[0][3 * cfg.B]

    def spoiled(K, beta, edges):
        hits = [[i for i, block in enumerate(K) if np.array_equal(block, target)]
                for target in (negated, nan)]
        K_new = original(K, beta, edges)
        for i in hits[0]:
            K_new[i] *= -1.0
        for i in hits[1]:
            K_new[i, 0, 0] = np.nan
        return K_new

    monkeypatch.setattr(model_module, "_spectrum_to_band", spoiled)
    with pytest.raises(Exception) as chunked:
        run_node_recovery(cfg, timings=False)
    monkeypatch.setattr(experiments, "MODELS_PER_STACK", 1)
    with pytest.raises(Exception) as single:
        run_node_recovery(cfg, timings=False)
    assert type(chunked.value) is type(single.value) is NotPositiveDefiniteError
    assert str(chunked.value) == str(single.value)


# ---------------------------------------------------------------- stream law

# Each trial once drew its graph, W entries and Bartlett variates on streams
# seeded from its own; it now draws them all from its own stream.  The law of
# every draw must be unchanged: a two-sample Kolmogorov-Smirnov test at
# alpha = 0.001 (c(alpha) = 1.95) compares old-layout and new-layout draws of
# KS_TRIALS trials of one fixed config.
KS_C_ALPHA = 1.95
KS_TRIALS = 300
_OLD_GRAM_KEY = 0x6A4D  # spawn-key namespace of the old per-block Gram streams


def ks_statistic(a, b) -> float:
    """Largest gap between the empirical distribution functions of a and b."""
    a, b = np.sort(np.ravel(a)), np.sort(np.ravel(b))
    grid = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, grid, side="right") / a.size
                        - np.searchsorted(b, grid, side="right") / b.size).max())


def old_layout_trial(cfg, L, t):
    """Trial t's graph, W entries, rho_min and chi-square diagonals as the old
    layout drew them: graph, model and Gram seeds drawn on the trial's stream,
    and the Bartlett variates of block b on the (Gram seed, namespace, b) stream."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(0, t)))
    cig = random_cig(cfg.p, cfg.s_true, rng.integers(2**63))
    model_seed = rng.integers(2**63)
    rng.integers(len({v for e in cig.edges for v in e}))  # the target node
    gram_seed = rng.integers(2**63)
    model_rng = np.random.default_rng(model_seed)
    hi = W_SCALE / max(cig.max_degree, 1)
    W = [(hi / 2 + hi / 2 * model_rng.random()) * (-1.0, 1.0)[model_rng.integers(2)]
         for _ in range(cfg.B * len(cig.edges))]
    # A build on a fresh generator draws the same W, bit for bit
    # (test_graph_model.py::test_coupling_draws_decode_the_scalar_loop).
    rho = build_model_stack([cig], cfg.B, cfg.beta, [model_seed])[1][0]
    chi = []
    for b in range(cfg.B):
        block = np.random.default_rng(np.random.SeedSequence(entropy=gram_seed,
                                                             spawn_key=(_OLD_GRAM_KEY, b)))
        chi.append([block.chisquare(L - j) for j in range(cfg.p)])
    return cig, W, rho, chi


def new_layout_trial(cfg, L, t):
    """The same draws as ``_run_trials`` makes them, all on trial t's stream.

    With identity roots a Gram matrix is A A^T, so its Cholesky
    factor is the Bartlett factor A, whose squared diagonal is the chi-square draws.
    """
    stream, cig, _ = _draw_trial(cfg, 0, t)
    W = _w_draws([cig], cfg.B, [copy.deepcopy(stream)]).T.ravel()  # block then edge order
    rho = build_model_stack([cig], cfg.B, cfg.beta, [stream])[1][0]
    identity = np.broadcast_to(np.eye(cfg.p), (1, cfg.B, cfg.p, cfg.p))
    A = np.linalg.cholesky(sample_gram_stack(identity, L, [stream])[0])
    return cig, W, rho, np.diagonal(A, axis1=-2, axis2=-1) ** 2


def test_one_stream_per_trial_keeps_the_law_of_every_draw():
    # The KS test needs independent draws.  A graph's W entries share its band
    # [c / (2 s_max), c / s_max], so each magnitude is compared by its place in
    # that band; a graph's degrees are tied to each other, so each graph gives
    # one degree (of node 1) and one edge count.
    cfg = small_config(p=8, s_true=2, s_est=2, B=4, beta=2.0, master_seed=20260824)
    L = 12  # small degrees of freedom, where the chi-square law is far from normal
    draws = {}
    for layout, trial in (("old", old_layout_trial), ("new", new_layout_trial)):
        samples = {"W magnitude in its band": [], "W sign": [], "rho_min": [],
                   "chi-square diagonal": [], "edge count": [], "degree of node 1": []}
        for t in range(KS_TRIALS):
            cig, W, rho, chi = trial(cfg, L, t)
            hi = W_SCALE / max(cig.max_degree, 1)
            samples["W magnitude in its band"].append((np.abs(W) - hi / 2) / (hi / 2))
            samples["W sign"].append(np.sign(W))
            samples["rho_min"].append(rho)
            samples["chi-square diagonal"].append(np.ravel(chi))
            samples["edge count"].append(len(cig.edges))
            samples["degree of node 1"].append(sum(1 in e for e in cig.edges))
        draws[layout] = {name: np.hstack(values) for name, values in samples.items()}
    for name, old in draws["old"].items():
        new = draws["new"][name]
        critical = KS_C_ALPHA * math.sqrt((old.size + new.size) / (old.size * new.size))
        assert ks_statistic(old, new) <= critical, (name, ks_statistic(old, new), critical)


def normalised_gram_entries(cfg, L, trials, through_cholesky):
    """W_ij / sqrt(C_ii C_jj) at a few fixed (block, i, j) of each trial's Grams,
    drawn as ``_run_trials`` draws them but through the trial's root F or
    through the Cholesky factor of the model's covariance C = K^-1 = F F^T."""
    picks = [(0, 0, 0), (0, 1, 0), (0, 7, 3), (cfg.B - 1, 5, 2)]
    out = []
    for t in trials:
        stream, cig, _ = _draw_trial(cfg, 0, t)
        (K,), _ = build_model_stack([cig], cfg.B, cfg.beta, [stream])
        C = np.linalg.inv(K)
        factors = (np.linalg.cholesky(C) if through_cholesky else inverse_square_roots(K))[None]
        (W,) = sample_gram_stack(factors, L, [stream])
        out.append([W[b, i, j] / math.sqrt(C[b, i, i] * C[b, j, j]) for b, i, j in picks])
    return np.array(out)


def test_grams_through_the_roots_keep_the_law_of_the_cholesky_draw():
    # Any square root F with F F^T = C gives a Gram matrix with C's Wishart law.
    # The two routes draw on disjoint trial streams, and each fixed entry gives
    # one independent value per trial, so each entry is compared on its own.
    cfg = small_config(p=8, s_true=2, s_est=2, B=4, beta=2.0, master_seed=20260824)
    L = 12
    cholesky = normalised_gram_entries(cfg, L, range(KS_TRIALS), True)
    roots = normalised_gram_entries(cfg, L, range(KS_TRIALS, 2 * KS_TRIALS), False)
    critical = KS_C_ALPHA * math.sqrt(2 / KS_TRIALS)
    for k in range(cholesky.shape[1]):
        D = ks_statistic(cholesky[:, k], roots[:, k])
        assert D <= critical, (k, D, critical)


@pytest.mark.parametrize("p, B, beta, seed", [(8, 4, 2.0, 20260824), (10, 3, 2.5, 11)])
def test_trial_grams_are_sample_grams_of_the_trial_model(monkeypatch, p, B, beta, seed):
    # A trial's roots and sample_grams' roots are one function of the same
    # precisions, so on the trial's own stream its Gram matrices are bit for
    # bit those of its model built and sampled alone.  Roots taken from the
    # band map's eigenpairs of I + W differed by up to 3.3e-15 relative.
    cfg = small_config(p=p, B=B, beta=beta, trials=2 * MODELS_PER_STACK, master_seed=seed)
    L, drawn = 300, []

    def recording(roots, L, streams):
        grams = sample_gram_stack(roots, L, streams)
        drawn.extend(grams.copy())
        return grams

    monkeypatch.setattr(experiments, "sample_gram_stack", recording)
    for chunk in (range(MODELS_PER_STACK), range(MODELS_PER_STACK, 2 * MODELS_PER_STACK)):
        _run_trials(cfg, L, 0, chunk)
    assert len(drawn) == cfg.trials
    for t, W in enumerate(drawn):
        stream, cig, _ = _draw_trial(cfg, 0, t)
        model = build_block_model(cig, B, L, beta, stream)
        assert W.tobytes() == sample_grams(model, stream).grams.tobytes(), t


def test_trials_take_no_cholesky_factor_and_no_inverse(monkeypatch):
    # The harness samples from the roots of its models' precisions; neither a
    # covariance (an inverse) nor a Cholesky factor is formed.  At s_est = 2
    # the sweep forms neither either (its root bounds start at s = 3).
    calls = []

    def spy(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return refuse

    cfg = small_config(p=8, s_true=2, s_est=2, B=4, grid=(2000,), master_seed=3)
    monkeypatch.setattr(np.linalg, "cholesky", spy("cholesky"))
    monkeypatch.setattr(np.linalg, "inv", spy("inv"))
    errors, rho = _run_trials(cfg, 500, 0, range(MODELS_PER_STACK))
    assert calls == [] and 0 <= errors <= MODELS_PER_STACK and rho > 0


def test_roots_are_formed_only_where_trials_draw(monkeypatch):
    # Calibration pilots and the stacked build form no root K^-1/2; a chunk of
    # n trials forms n, one per model on its (B, p, p) precisions.
    shapes = []

    def recording(K, original=model_module.inverse_square_roots):
        shapes.append(K.shape)
        return original(K)

    for module in (model_module, experiments, sampling_module):
        monkeypatch.setattr(module, "inverse_square_roots", recording)
    cfg = small_config(p=8, B=4, grid=(1.0,), trials=MODELS_PER_STACK, master_seed=20260824)
    calibrate_rho_min(cfg)
    build_model_stack([random_cig(8, 2, k) for k in range(3)], cfg.B, cfg.beta, [0, 1, 2])
    assert shapes == []
    n = MODELS_PER_STACK - 1
    _run_trials(cfg, 500, 0, range(n))
    assert shapes == [(cfg.B, cfg.p, cfg.p)] * n


ACCEPTANCE = """\
p = 8
s_true = 2
s_est = 2
B = 4
{grid}
beta = 2.0
coupling = 0.4
trials = {trials}
eta = 0.1
master_seed = {seed}
"""


# sha256 of ``experiment --no-timings`` CSVs, recorded when each pilot and
# trial came to draw everything on its one stream, again when trials came to
# draw their Gram matrices through the model build's square roots, and again
# when those roots became the sign-free K^-1/2; a change that keeps the
# streams and the roots must not move the bytes.  The coupling key is ignored
# and the W scale fixed at 0.4, so p10-s3-B3 (0.5) and L-grid (0.3) were
# re-recorded: their rho_min, lambda and bound_N moved in the last digits.
# All four were re-recorded when the band map came to read eigvalsh and the
# trials' roots came from the mapped precisions: again only rho_min, lambda
# and bound_N moved, in the last digits.
@pytest.mark.parametrize("text, sha", [
    (ACCEPTANCE.format(grid="N_grid = 1e-4x, 0.1x, 1x, 752", trials=20, seed=20260824),
     "3afbb5d562435906060b4c6a343a79c285a5340743ef399f9b241cd06e921ad9"),
    (ACCEPTANCE.format(grid="N_grid = 0.01x, 1x, 300", trials=7, seed=3),
     "e38dc575e4923a61f65b93f211e80713c012d17f5e776aecd4fbf8e15726fa84"),
    ("p = 10\ns_true = 2\ns_est = 3\nB = 3\nN_grid = 0.05x, 1x, 600\nbeta = 2.5\n"
     "coupling = 0.5\ntrials = 9\neta = 0.05\nmaster_seed = 11\n",
     "15ef6b6df70a25a6f4802af14db92f40e9c88b4464a2f047167264a08440249b"),
    ("p = 7\ns_true = 2\ns_est = 2\nB = 9\nL_grid = 10, 40, 400\nbeta = 3.0\n"
     "coupling = 0.3\ntrials = 6\neta = 0.1\nmaster_seed = 42\nlambda_mode = 0.01\n",
     "0383d3b1ce533528ef3aed5098d385fb7f37c01f48fcddc38b50fc2c10b7566c"),
], ids=["acceptance", "trials-7", "p10-s3-B3", "L-grid"])
def test_experiment_csv_bytes_are_pinned(tmp_path, text, sha):
    cpath, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    cpath.write_text(text)
    assert main(["experiment", str(cpath), "-o", str(out), "--no-timings"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_experiment_ignores_coupling(tmp_path):
    # The band map cancels the W scale the key once set; it is accepted so
    # that existing config files keep working.  The multiplier runs the pilots.
    text = BASE_CONFIG.replace("200, 400", "0.01x, 200")
    outputs = set()
    for line in ("coupling = 0.3\n", "coupling = 0.99\n", ""):
        cpath, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
        cpath.write_text(text + line)
        assert main(["experiment", str(cpath), "-o", str(out), "--no-timings"]) == 0
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


def test_row_fields_consistent():
    cfg = small_config(trials=5)
    rows = run_node_recovery(cfg, timings=False)
    assert len(rows) == 2
    for row in rows:
        assert row.N == row.B * row.L
        assert 0.0 <= row.ci_low <= row.error_rate <= row.ci_high <= 1.0
        assert row.errors <= row.trials == 5
        assert row.lam == pytest.approx(row.rho_min / 6.0)
        assert row.bound_N == pytest.approx(
            sample_size_bound(row.beta, row.rho_min, row.p, row.s_est, cfg.eta)
        )
        assert row.wall_ms == 0.0


# (p, s, beta): the bound's log p term at p = 8 and 64, its beta / rho_min
# term at beta = 1.5 and 16, and s = 3 at p = 16.  Design, trial count and
# seed were fixed before the first run.
RECOVERY_DESIGN = ((8, 2, 1.5), (8, 2, 16.0), (64, 2, 1.5), (64, 2, 16.0), (16, 3, 2.0))


@pytest.mark.parametrize("p, s, beta", RECOVERY_DESIGN)
def test_recovery_holds_at_the_bound_across_its_parameters(p, s, beta):
    # The paper's claim, checked as acceptance test_1 checks it at p = 8,
    # s = 2, beta = 2: at the sufficient sample size the per-node error rate
    # is at most eta, with its 95% Wilson upper limit at most 0.15.
    cfg = ExperimentConfig(p=p, s_true=s, s_est=s, B=4, grid=(1.0,), grid_kind="N",
                           beta=beta, lambda_mode="default", trials=100, eta=0.1,
                           master_seed=20260824)
    row = run_node_recovery(cfg, timings=False)[0]
    assert row.rho_cond
    assert row.error_rate <= cfg.eta and row.ci_high <= 0.15


def test_rho_condition_flag_false_for_short_blocks():
    cfg = small_config(grid=(24,), grid_kind="N", trials=3)
    row = run_node_recovery(cfg, timings=False)[0]
    # L = 12 makes 24*beta/L = 4, far above any achievable edge strength.
    assert row.rho_cond is False


def test_monotone_trend_check():
    cfg = small_config()
    rows = run_node_recovery(cfg, timings=False)
    flipped = [rows[1], rows[0]]
    assert check_monotone_trend(rows) == check_monotone_trend(flipped)


def test_phase_transition_strict_raises_on_rising_rate():
    class Row:
        def __init__(self, N, error_rate):
            self.N, self.error_rate = N, error_rate

    assert not check_monotone_trend([Row(10, 0.0), Row(100, 0.5)])
    cfg = small_config(trials=3)
    # below the 200-trial activation threshold the sweep never raises
    rows = run_phase_transition(cfg, timings=False)
    assert len(rows) == 2


def test_phase_transition_violation_error():
    import nsgms.experiments as ex

    cfg = small_config(trials=200)
    bad = [
        ex.ExperimentRow(N=10, B=2, L=5, p=6, s_true=2, s_est=2, beta=2.0,
                         rho_min=0.02, lam=0.003, trials=200, errors=0,
                         error_rate=0.0, ci_low=0.0, ci_high=0.02, bound_N=1e5,
                         rho_cond=False, wall_ms=0.0),
        ex.ExperimentRow(N=100, B=2, L=50, p=6, s_true=2, s_est=2, beta=2.0,
                         rho_min=0.02, lam=0.003, trials=200, errors=100,
                         error_rate=0.5, ci_low=0.4, ci_high=0.6, bound_N=1e5,
                         rho_cond=False, wall_ms=0.0),
    ]
    original = ex.run_node_recovery
    try:
        ex.run_node_recovery = lambda *a, **k: bad
        with pytest.raises(TrendViolationError):
            run_phase_transition(cfg, timings=False)
    finally:
        ex.run_node_recovery = original


# ---------------------------------------------------------------- CSV

def test_emit_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_bytes() == (",".join(CSV_COLUMNS) + "\n").encode()


def test_emit_csv_one_row_two_lines(tmp_path):
    cfg = small_config(grid=(200,), trials=3)
    rows = run_node_recovery(cfg, timings=False)
    path = tmp_path / "one.csv"
    emit_csv(rows, path)
    text = path.read_text()
    assert text.count("\n") == 2
    assert text.endswith("\n") and "\r" not in text


def test_csv_round_trip_exact(tmp_path):
    cfg = small_config(trials=5)
    rows = run_node_recovery(cfg, timings=False)
    path = tmp_path / "rt.csv"
    emit_csv(rows, path)
    assert parse_result_csv(path) == rows


def test_parse_result_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ConfigError):
        parse_result_csv(path)


def test_lemma_rows_and_csv(tmp_path):
    form = QuadraticForm(a=np.array([0.5, -0.2]), b=np.array([1.0, 0.0]))
    rows = run_lemma_check(form, [0.5, 1.0, 2.0], 10_000, 3)
    assert [r[0] for r in rows] == [0.5, 1.0, 2.0]
    for eta, bound, empirical, trials in rows:
        assert trials == 10_000
        assert 0.0 <= empirical <= 1.0
        assert empirical <= bound + 3.0 * math.sqrt(0.25 / trials) + 0.05
    path = tmp_path / "lemma.csv"
    emit_lemma_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "eta,bound,empirical,trials"
    assert len(lines) == 4


def test_lemma_check_needs_a_trial():
    # Zero trials gave a mean of an empty array: a RuntimeWarning and NaN rates.
    form = QuadraticForm(a=np.array([0.5, -0.2]), b=np.array([1.0, 0.0]))
    with pytest.raises(InvalidParameterError, match="trials >= 1"):
        run_lemma_check(form, [0.5], 0, 3)
