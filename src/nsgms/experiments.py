"""Monte Carlo harness: seeded recovery sweeps and CSV emission.

A sweep is described by a line-oriented ``key = value`` config file (see
:func:`parse_config`).  Each grid point runs independent trials; a trial
regenerates the whole pipeline (random graph, block model, Gram sample)
from a seed derived from (master seed, grid index, trial index), picks a
random target node with a nonempty neighborhood, and counts an error
when the estimated neighborhood differs from the true one.  A trial
draws each block's Gram matrix straight from its Wishart law
(:func:`~nsgms.sampling.sample_grams`) and never materialises the p x L
columns, so its time and memory do not grow with the block length.
Everything is a pure function of the config, so reruns give identical
results.  Trials run one after another in one thread.

Grid entries may be absolute sample counts (``N_grid``), absolute block
lengths (``L_grid``), or multipliers of the theoretical sample-size
bound written like ``1.5x``; multipliers are resolved against a pilot
calibration of the achievable minimum edge strength.  Pilots draw their
graphs and precisions on the same streams as trials' model builds but
compute edge strengths only, with no covariances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from .errors import ConfigError, InfeasibleConfigError, TrendViolationError
from .graph import random_cig
from .model import build_block_model, min_edge_strength, pilot_min_edge_strength
from .regression import (
    EstimatorConfig,
    default_lambda,
    estimate_neighborhood,
    rho_condition_holds,
    sample_size_bound,
)
from .sampling import sample_grams

_Z95 = 1.959963984540054
_CALIBRATION_PILOTS = 32
_CALIBRATION_KEY = 0x5EED  # spawn-key namespace separating pilots from trials

CSV_COLUMNS = (
    "N", "B", "L", "p", "s_true", "s_est", "beta", "rho_min", "lambda",
    "trials", "errors", "error_rate", "ci_low", "ci_high", "bound_N",
    "rho_cond", "wall_ms",
)


@dataclass(frozen=True)
class ExperimentConfig:
    p: int
    s_true: int
    s_est: int
    B: int
    grid: tuple        # entries: int, or float multiplier of the calibrated bound
    grid_kind: str     # "N" or "L"
    beta: float
    coupling: float
    lambda_mode: str   # "default" or a decimal literal
    trials: int
    eta: float
    master_seed: int
    combine_rule: str = "OR"

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"need trials >= 1, got {self.trials}")
        if not self.grid:
            raise ConfigError("grid must be nonempty")
        if self.s_est < self.s_true:
            raise ConfigError(f"need s_est >= s_true, got {self.s_est} < {self.s_true}")
        if self.s_est >= self.p:
            raise ConfigError(f"need s_est < p, got s_est={self.s_est}, p={self.p}")
        if self.grid_kind not in ("N", "L"):
            raise ConfigError(f"grid kind must be N or L, got {self.grid_kind!r}")
        if self.combine_rule not in ("OR", "AND"):
            raise ConfigError(f"combine_rule must be OR or AND, got {self.combine_rule!r}")
        if self.lambda_mode != "default":
            try:
                float(self.lambda_mode)
            except ValueError:
                raise ConfigError(
                    f"lambda_mode must be 'default' or a number, got {self.lambda_mode!r}"
                ) from None

    @property
    def explicit_lambda(self):
        return None if self.lambda_mode == "default" else float(self.lambda_mode)


@dataclass(frozen=True)
class ExperimentRow:
    """One grid point of an ExperimentResult, matching the CSV columns."""

    N: int
    B: int
    L: int
    p: int
    s_true: int
    s_est: int
    beta: float
    rho_min: float
    lam: float
    trials: int
    errors: int
    error_rate: float
    ci_low: float
    ci_high: float
    bound_N: float
    rho_cond: bool
    wall_ms: float


_INT_KEYS = ("p", "s_true", "s_est", "B", "trials", "master_seed")
_FLOAT_KEYS = ("beta", "coupling", "eta")
_OTHER_KEYS = ("L_grid", "N_grid", "lambda_mode", "combine_rule")


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; unknown keys are a hard error."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _INT_KEYS + _FLOAT_KEYS + _OTHER_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    if ("L_grid" in raw) == ("N_grid" in raw):
        raise ConfigError("config must set exactly one of L_grid, N_grid")
    kw = {}
    try:
        for k in _INT_KEYS:
            kw[k] = int(raw.pop(k))
        for k in _FLOAT_KEYS:
            kw[k] = float(raw.pop(k))
    except KeyError as e:
        raise ConfigError(f"missing required key {e.args[0]!r}") from None
    except ValueError as e:
        raise ConfigError(f"bad numeric value: {e}") from None

    grid_kind = "L" if "L_grid" in raw else "N"
    entries = []
    for tok in raw.pop(f"{grid_kind}_grid").split(","):
        tok = tok.strip()
        try:
            if tok.endswith("x"):
                entries.append(float(tok[:-1]))
            else:
                entries.append(int(tok))
        except ValueError:
            raise ConfigError(f"bad grid entry {tok!r}") from None
    kw["grid"] = tuple(entries)
    kw["grid_kind"] = grid_kind
    kw["lambda_mode"] = raw.pop("lambda_mode", "default")
    kw["combine_rule"] = raw.pop("combine_rule", "OR")
    return ExperimentConfig(**kw)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _trial_seed(master_seed: int, *key) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))


def calibrate_rho_min(config: ExperimentConfig) -> float:
    """Smallest edge strength seen over a pilot batch of models.

    Used only to resolve multiplier grid entries into sample counts; rows
    always report the strengths actually achieved during their trials.
    A pilot draws its graph and precision stack on the same streams as a
    full model build, but computes only the edge strengths
    (:func:`~nsgms.model.pilot_min_edge_strength`): nothing reads a pilot's
    covariances, so none are formed.
    """
    worst = math.inf
    for k in range(_CALIBRATION_PILOTS):
        rng = np.random.default_rng(_trial_seed(config.master_seed, _CALIBRATION_KEY, k))
        cig = random_cig(config.p, config.s_true, rng.integers(2**63))
        worst = min(worst, pilot_min_edge_strength(
            cig, config.B, config.beta, config.coupling, rng.integers(2**63)
        ))
    return worst


def resolve_grid(config: ExperimentConfig) -> list:
    """Turn grid entries into (N, L) pairs with N = B * L."""
    mults = [e for e in config.grid if isinstance(e, float)]
    bound = None
    if mults:
        rho_ref = calibrate_rho_min(config)
        bound = sample_size_bound(config.beta, rho_ref, config.p, config.s_est, config.eta)
    out = []
    for entry in config.grid:
        if isinstance(entry, float):
            L = max(int(math.ceil(entry * bound / config.B)), 1)
        elif config.grid_kind == "L":
            L = entry
        else:
            L = max(entry // config.B, 1)
        if config.s_est >= L:
            raise InfeasibleConfigError(
                f"grid entry gives L={L} <= s_est={config.s_est}"
            )
        out.append((config.B * L, L))
    return out


def _trial_candidates(cig) -> list:
    """Nodes with a nonempty neighborhood, ascending: the endpoints of the edges."""
    return sorted({v for e in cig.edges for v in e})


def _run_trial(config: ExperimentConfig, L: int, grid_index: int, trial_index: int):
    """One (model, Gram sample, estimate) trial; returns (is_error, achieved_rho_min)."""
    rng = np.random.default_rng(
        _trial_seed(config.master_seed, grid_index, trial_index)
    )
    cig = random_cig(config.p, config.s_true, rng.integers(2**63))
    model = build_block_model(
        cig, config.B, L, config.beta, config.coupling, rng.integers(2**63)
    )
    rho = min_edge_strength(model, cig)
    lam = config.explicit_lambda
    if lam is None:
        lam = default_lambda(rho)
    candidates = _trial_candidates(cig)
    node = int(candidates[rng.integers(len(candidates))])
    grams = sample_grams(model, rng.integers(2**63))
    est = estimate_neighborhood(grams, node, EstimatorConfig(s=config.s_est, lam=lam))
    return est.selected != cig.neighborhood(node), rho


def wilson_interval(errors: int, trials: int, z: float = _Z95):
    """95% score interval for a binomial proportion; always contains the estimate."""
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    # clamping also absorbs the last-ulp rounding at phat = 0 or 1
    return min(max(center - half, 0.0), phat), max(min(center + half, 1.0), phat)


def run_node_recovery(config: ExperimentConfig, timings: bool = True) -> list:
    """Run the full grid; returns one ExperimentRow per grid point."""
    rows = []
    for g, (N, L) in enumerate(resolve_grid(config)):
        t0 = time.perf_counter()
        results = [_run_trial(config, L, g, t) for t in range(config.trials)]
        wall_ms = (time.perf_counter() - t0) * 1e3 if timings else 0.0
        errors = sum(1 for err, _ in results if err)
        rho_min = min(rho for _, rho in results)
        rate = errors / config.trials
        ci_low, ci_high = wilson_interval(errors, config.trials)
        lam = config.explicit_lambda
        if lam is None:
            lam = default_lambda(rho_min)
        rows.append(ExperimentRow(
            N=N, B=config.B, L=L, p=config.p, s_true=config.s_true,
            s_est=config.s_est, beta=config.beta, rho_min=rho_min, lam=lam,
            trials=config.trials, errors=errors, error_rate=rate,
            ci_low=ci_low, ci_high=ci_high,
            bound_N=sample_size_bound(
                config.beta, rho_min, config.p, config.s_est, config.eta
            ),
            rho_cond=rho_condition_holds(rho_min, config.beta, L),
            wall_ms=wall_ms,
        ))
    return rows


def check_monotone_trend(rows, slack: float = 0.05) -> bool:
    """Error rate at the largest N must not exceed the smallest-N rate plus slack."""
    by_n = sorted(rows, key=lambda r: r.N)
    return by_n[-1].error_rate <= by_n[0].error_rate + slack


def run_phase_transition(config: ExperimentConfig, timings: bool = True) -> list:
    """Recovery sweep across the grid plus the monotone-trend check.

    The trend check only binds with at least 200 trials per point, where a
    violation raises TrendViolationError.
    """
    rows = run_node_recovery(config, timings=timings)
    if config.trials >= 200 and not check_monotone_trend(rows):
        by_n = sorted(rows, key=lambda r: r.N)
        raise TrendViolationError(
            f"error rate rose from {by_n[0].error_rate:.3f} (N={by_n[0].N}) "
            f"to {by_n[-1].error_rate:.3f} (N={by_n[-1].N})"
        )
    return rows


def run_lemma_check(form, eta_grid, trials: int, seed) -> list:
    """Tail bound versus Monte Carlo frequency on a grid of deviation levels.

    Returns (eta, bound, empirical, trials) tuples, reusing one batch of
    draws across the whole grid.
    """
    from .concentration import _draw_y, tail_bound

    y = _draw_y(form, trials, seed)
    dev = np.abs(y - form.mean)
    out = []
    for eta in eta_grid:
        out.append((
            float(eta),
            tail_bound(form, eta),
            float(np.mean(dev >= eta)),
            trials,
        ))
    return out


def emit_lemma_csv(rows, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("eta,bound,empirical,trials\n")
        for eta, bound, empirical, trials in rows:
            fh.write(
                f"{format(eta, '.17g')},{format(bound, '.17g')},"
                f"{format(empirical, '.17g')},{trials}\n"
            )


# ---------------------------------------------------------------- CSV

def _csv_value(name: str, value) -> str:
    if name == "rho_cond":
        return "true" if value else "false"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def emit_csv(rows, path) -> None:
    """Header plus one line per grid point; 17 significant digits, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            names = [f.name for f in dc_fields(row)]
            fh.write(",".join(
                _csv_value(col, getattr(row, name))
                for col, name in zip(CSV_COLUMNS, names)
            ) + "\n")


def parse_result_csv(path) -> list:
    """Inverse of emit_csv."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise ConfigError(f"unexpected CSV header {header!r}")
        rows = []
        names = [f.name for f in dc_fields(ExperimentRow)]
        for line in fh:
            vals = line.strip().split(",")
            if len(vals) != len(CSV_COLUMNS):
                raise ConfigError(f"bad CSV row: {line!r}")
            kw = {}
            for name, col, v in zip(names, CSV_COLUMNS, vals):
                if col == "rho_cond":
                    kw[name] = v == "true"
                elif col in ("N", "B", "L", "p", "s_true", "s_est", "trials", "errors"):
                    kw[name] = int(v)
                else:
                    kw[name] = float(v)
            rows.append(ExperimentRow(**kw))
    return rows
