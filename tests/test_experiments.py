"""Config parsing, Monte Carlo sweeps, and CSV emission."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsgms import QuadraticForm, sample_size_bound
from nsgms.errors import ConfigError, InfeasibleConfigError, TrendViolationError
from nsgms.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    _run_trial,
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

BASE_CONFIG = """
# recovery sweep
p = 6
s_true = 2
s_est = 2
B = 2
N_grid = 200, 400
beta = 2.0
coupling = 0.4
trials = 4
eta = 0.1
master_seed = 5
"""


def small_config(**overrides):
    kw = dict(p=6, s_true=2, s_est=2, B=2, grid=(200, 400), grid_kind="N",
              beta=2.0, coupling=0.4, lambda_mode="default", trials=4,
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
    assert small_config(lambda_mode="0.125").explicit_lambda == 0.125


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
    # Pilots compute edge strengths only; their streams, and so this value, are unchanged.
    config = small_config(p=8, s_true=2, s_est=2, B=4, grid=(1.0,), coupling=0.4,
                          beta=2.0, eta=0.1, master_seed=20260824)
    assert repr(calibrate_rho_min(config)) == "0.0174415429237954"


def test_trial_memory_does_not_grow_with_block_length():
    # The acceptance config at the bound (L = 187252): p x L columns would
    # take 12 MB per block; a trial draws only the 8 x 8 Gram matrices.
    cfg = small_config(p=8, B=4, grid=(1.0,), trials=1, master_seed=20260824)
    tracemalloc.start()
    try:
        _run_trial(cfg, 187252, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
