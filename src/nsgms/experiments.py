"""Monte Carlo harness: seeded recovery sweeps and CSV emission.

A sweep is described by a line-oriented ``key = value`` config file (see
:func:`parse_config`).  Each grid point runs independent trials; a trial
regenerates the whole pipeline (random graph, block model, Gram sample)
from a seed derived from (master seed, grid index, trial index), picks a
random target node with a nonempty neighborhood, and counts an error
when the estimated neighborhood differs from the true one.  A trial
draws each block's Gram matrix from its Wishart law
(:func:`~nsgms.sampling.sample_gram_stack`) through the roots K^-1/2 it
forms from its model's precisions (:func:`~nsgms.model.inverse_square_roots`),
bit for bit as :func:`~nsgms.sampling.sample_grams` draws from its model on
its stream.  It forms no covariance and no p x L columns, so its time and
memory do not grow with the block length.
Everything is a pure function of the config, so reruns give identical
results.

A grid point's trials run in one thread, in chunks of
:data:`MODELS_PER_STACK`.  Within a chunk each trial draws on its own
stream, in the order a lone trial draws; the chunk's models and Gram
matrices are built on one stack of chunk * B blocks
(:func:`~nsgms.model.build_model_stack`), which gives each trial bit for
bit what it would get alone; each model's roots then overwrite its own
precisions, one model at a time.  After each trial's checks, the chunk's
one-target sweeps run as one sweep over its (chunk, B, p, p) Gram stack,
each trial with its own target node and penalty
(:func:`~nsgms.kernels.subset_objectives`), and each trial's selection is
bit for bit its lone sweep's.  Memory depends on the chunk size, not on
the number of trials.  A chunk that raises is rerun one trial at a time, so a
failure raises the error of the first failing trial, as a trial-by-trial
loop would.

Each pilot and each trial draws everything from its one (master seed,
key) stream, opened once: a pilot draws its graph and then its W entries
(one raw-word draw, in the model build); a trial draws its graph, its
target node, its W entries, and then its blocks' Bartlett variates in
the Gram build (one chi-square draw per degree of freedom over its
blocks, and one array draw of normals).  Between the draws a chunk holds
each stream's bit generator only.  The model build returns each model's
minimum edge strength rho_min beside its precisions, and
:meth:`ExperimentConfig.lam` turns rho_min into the penalty of a trial
and of a row.  Both CSVs go through one writer, and the experiment CSV's
columns are :class:`ExperimentRow`'s fields, with ``lam`` written as
``lambda``.

Grid entries may be absolute sample counts (``N_grid``), absolute block
lengths (``L_grid``), or multipliers of the theoretical sample-size
bound written like ``1.5x``; multipliers are resolved against a pilot
calibration of the achievable minimum edge strength.  Pilots are built
as trials' models are, by the same function in chunks of the same size,
and keep the edge strengths only: nothing draws from them, so they form
no roots.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields as dc_fields
from operator import attrgetter

import numpy as np

from .errors import ConfigError, InfeasibleConfigError, InvalidParameterError, TrendViolationError
from .graph import _positive_int, random_cig
from .model import _check_beta, build_model_stack, inverse_square_roots
from .regression import (
    _estimate_neighborhoods,
    default_lambda,
    rho_condition_holds,
    sample_size_bound,
)
from .sampling import sample_gram_stack

_Z95 = 1.959963984540054
_CALIBRATION_PILOTS = 32
_CALIBRATION_KEY = 0x5EED  # spawn-key namespace separating pilots from trials

#: models built on one stack: calibration pilots, or trials of one grid point
MODELS_PER_STACK = 4

@dataclass(frozen=True)
class ExperimentConfig:
    p: int
    s_true: int
    s_est: int
    B: int
    grid: tuple        # entries: int, or float multiplier of the calibrated bound
    grid_kind: str     # "N" or "L"
    beta: float
    lambda_mode: str   # "default" or a decimal literal
    trials: int
    eta: float
    master_seed: int

    def __post_init__(self):
        if not self.grid:
            raise ConfigError("grid must be nonempty")
        # Counts by the package's one rule, stored as plain ints; beta by the build's.
        try:
            for name, least in (("p", 2), ("s_true", 1), ("s_est", 0), ("B", 1),
                                ("trials", 1), ("master_seed", 0)):
                value = _positive_int(getattr(self, name), name, least=least)
                object.__setattr__(self, name, value)
            object.__setattr__(self, "grid", tuple(
                entry if isinstance(entry, float) else _positive_int(entry, "grid entry")
                for entry in self.grid))
            _check_beta(self.beta)
        except InvalidParameterError as e:
            raise ConfigError(str(e)) from None
        for entry in self.grid:
            if isinstance(entry, float) and not (math.isfinite(entry) and entry > 0):
                raise ConfigError(f"grid multiplier must be finite and positive, got {entry!r}x")
        if not 0 < self.eta < 1:  # a failure probability; NaN fails too
            raise ConfigError(f"need 0 < eta < 1, got {self.eta!r}")
        if self.s_est < self.s_true:
            raise ConfigError(f"need s_est >= s_true, got {self.s_est} < {self.s_true}")
        if self.s_est >= self.p:
            raise ConfigError(f"need s_est < p, got s_est={self.s_est}, p={self.p}")
        if self.grid_kind not in ("N", "L"):
            raise ConfigError(f"grid kind must be N or L, got {self.grid_kind!r}")
        if self.lambda_mode != "default":
            try:
                lam = float(self.lambda_mode)
            except ValueError:
                lam = math.nan
            if not (math.isfinite(lam) and lam >= 0):
                raise ConfigError(f"lambda_mode must be 'default' or a finite number >= 0, "
                                  f"got {self.lambda_mode!r}")

    def lam(self, rho_min: float) -> float:
        """The penalty weight at minimum edge strength ``rho_min``: the
        configured number, or ``default_lambda(rho_min)`` by default."""
        if self.lambda_mode == "default":
            return default_lambda(rho_min)
        return float(self.lambda_mode)


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


CSV_COLUMNS = tuple("lambda" if f.name == "lam" else f.name for f in dc_fields(ExperimentRow))

_INT_KEYS = ("p", "s_true", "s_est", "B", "trials", "master_seed")
_FLOAT_KEYS = ("beta", "eta")
_OTHER_KEYS = ("L_grid", "N_grid", "lambda_mode")
_IGNORED_KEYS = ("coupling",)  # the band map cancels the W scale it set (model.W_SCALE)


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines; unknown keys are a hard error, ``coupling`` is ignored."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _INT_KEYS + _FLOAT_KEYS + _OTHER_KEYS + _IGNORED_KEYS:
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
    return ExperimentConfig(**kw)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _draw_graph(config: ExperimentConfig, *key) -> tuple:
    """Open the (master seed, *key) stream, draw a graph on it, and return
    (stream, graph); the model build and a trial draw on from the stream."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.master_seed, spawn_key=key))
    return rng, random_cig(config.p, config.s_true, rng)


def _chunked(count: int, run, *args):
    """Yield ``run(*args, chunk)`` over consecutive ranges of ``range(count)``.

    Each chunk holds at most :data:`MODELS_PER_STACK` indices.  A chunk
    that raises, whatever the exception, is rerun one index at a time, so
    the error raised is the one the first failing index raises alone, as
    in a loop over single indices; a stacked step checks all of a chunk's
    models before a later step checks any, so its own error may belong to
    a later index or a later step.
    """
    for start in range(0, count, MODELS_PER_STACK):
        chunk = range(start, min(start + MODELS_PER_STACK, count))
        try:
            result = run(*args, chunk)
        except Exception as error:
            failure = error
        else:
            yield result
            continue
        for k in chunk:
            run(*args, range(k, k + 1))
        raise failure


def _pilot_min(config: ExperimentConfig, pilots) -> float:
    """Smallest edge strength over pilots ``pilots``, built on one stack."""
    streams, cigs = [], []
    for k in pilots:
        rng, cig = _draw_graph(config, _CALIBRATION_KEY, k)
        streams.append(rng.bit_generator)
        cigs.append(cig)
    return min(build_model_stack(cigs, config.B, config.beta, streams)[1])


def calibrate_rho_min(config: ExperimentConfig) -> float:
    """Smallest edge strength seen over a pilot batch of models.

    Used only to resolve multiplier grid entries into sample counts; rows
    always report the strengths actually achieved during their trials.
    A pilot draws its graph and W entries as a trial does, and is built
    by the same :func:`~nsgms.model.build_model_stack`, of which it keeps
    the strengths: nothing draws from a pilot, so its roots are not formed.
    Pilots are built in chunks of :data:`MODELS_PER_STACK`, on one stack
    per chunk.
    """
    return min(_chunked(_CALIBRATION_PILOTS, _pilot_min, config))


def resolve_grid(config: ExperimentConfig) -> list:
    """Turn grid entries into (N, L) pairs with N = B * L."""
    bound = None
    if any(isinstance(entry, float) for entry in config.grid):
        rho_ref = calibrate_rho_min(config)
        bound = sample_size_bound(config.beta, rho_ref, config.p, config.s_est, config.eta)
    out = []
    for entry in config.grid:
        if isinstance(entry, float):
            length = entry * bound / config.B
            if not math.isfinite(length):
                raise ConfigError(f"grid entry {entry!r}x overflows the block length")
            L = max(int(math.ceil(length)), 1)
        elif config.grid_kind == "L":
            L = entry
        else:
            L = max(entry // config.B, 1)
        if config.s_est >= L:
            raise InfeasibleConfigError(f"grid entry gives L={L} <= s_est={config.s_est}")
        out.append((config.B * L, L))
    return out


def _trial_candidates(cig) -> list:
    """Nodes with a nonempty neighborhood, ascending: the endpoints of the edges."""
    return sorted({v for e in cig.edges for v in e})


def _draw_trial(config: ExperimentConfig, grid_index: int, t: int) -> tuple:
    """Open trial t's stream, draw its graph and target node on it, and return
    (the stream's bit generator, graph, node); the builds draw on from the
    bit generator, which is all of the stream they need to hold."""
    rng, cig = _draw_graph(config, grid_index, t)
    candidates = _trial_candidates(cig)
    return rng.bit_generator, cig, candidates[rng.integers(len(candidates))]


def _run_trials(config: ExperimentConfig, L: int, grid_index: int, trials):
    """Trials ``trials`` of one grid point on one stack; returns (errors, min rho).

    Each trial draws its graph and target node on its (master, grid,
    trial) stream, then, on the same stream, its W entries in the chunk's
    model build and its Bartlett variates in the chunk's Gram build, as a
    lone trial does.  Each model's roots are written over its own
    precisions, so one (chunk, B, p, p) stack is held, not two.  Each
    trial is checked as ``estimate_neighborhood`` checks it, and then the
    chunk's one-target sweeps run as one, over the chunk's Gram stack.
    """
    streams, cigs, nodes = [], [], []
    for t in trials:
        stream, cig, node = _draw_trial(config, grid_index, t)
        streams.append(stream)
        cigs.append(cig)
        nodes.append(node)
    stack, rhos = build_model_stack(cigs, config.B, config.beta, streams)
    # Indexed, not iterated: a loop variable would keep a view of the stack alive.
    for k in range(len(stack)):
        stack[k] = inverse_square_roots(stack[k])
    grams = sample_gram_stack(stack, L, streams)
    del stack, streams
    lams = [config.lam(rho) for rho in rhos]
    estimates = _estimate_neighborhoods(grams, L, nodes, config.s_est, lams)
    errors = sum(est.selected != cig.neighborhood(est.node) for est, cig in zip(estimates, cigs))
    return errors, min(rhos)


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
        errors, rho_min = 0, math.inf
        for chunk_errors, chunk_rho in _chunked(config.trials, _run_trials, config, L, g):
            errors += chunk_errors
            rho_min = min(rho_min, chunk_rho)
        wall_ms = (time.perf_counter() - t0) * 1e3 if timings else 0.0
        ci_low, ci_high = wilson_interval(errors, config.trials)
        rows.append(ExperimentRow(
            N=N, B=config.B, L=L, p=config.p, s_true=config.s_true,
            s_est=config.s_est, beta=config.beta, rho_min=rho_min, lam=config.lam(rho_min),
            trials=config.trials, errors=errors, error_rate=errors / config.trials,
            ci_low=ci_low, ci_high=ci_high,
            bound_N=sample_size_bound(config.beta, rho_min, config.p, config.s_est, config.eta),
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

    trials = _positive_int(trials, "trials")
    dev = np.abs(_draw_y(form, trials, seed) - form.mean)
    return [(float(eta), tail_bound(form, eta), float(np.mean(dev >= eta)), trials)
            for eta in eta_grid]


def emit_lemma_csv(rows, path) -> None:
    _write_csv(path, ("eta", "bound", "empirical", "trials"), rows)


# ---------------------------------------------------------------- CSV

def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path, columns, rows) -> None:
    """Header plus one line per row of values; 17 significant digits, LF endings."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_value, row)) + "\n")


def emit_csv(rows, path) -> None:
    """Header plus one line per grid point, in ``CSV_COLUMNS`` order, of the
    row's fields themselves (``dataclasses.astuple`` would deep-copy each)."""
    fields = attrgetter(*(f.name for f in dc_fields(ExperimentRow)))
    _write_csv(path, CSV_COLUMNS, map(fields, rows))


def parse_result_csv(path) -> list:
    """Inverse of emit_csv; each column is read as its ``ExperimentRow`` field's type,
    a bool as ``true`` or ``false`` only.  A cell that does not parse raises
    :class:`ConfigError` naming its line and column."""
    parse = {"int": int, "float": float, "bool": {"true": True, "false": False}.__getitem__}
    fields = dc_fields(ExperimentRow)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(CSV_COLUMNS):
            raise ConfigError(f"unexpected CSV header {header!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            vals = line.strip().split(",")
            if len(vals) != len(CSV_COLUMNS):
                raise ConfigError(f"bad CSV row: {line!r}")
            row = {}
            for column, f, v in zip(CSV_COLUMNS, fields, vals):
                try:
                    row[f.name] = parse[f.type](v)
                except (KeyError, ValueError):
                    raise ConfigError(f"line {lineno}: bad {f.type} {v!r} "
                                      f"in column {column}") from None
            rows.append(ExperimentRow(**row))
    return rows
