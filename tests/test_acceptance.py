"""Acceptance gate: eight end-to-end checks at fixed tolerances.

Each test prints a single PASS/FAIL line with the measured quantities so
the whole gate can be read off a `pytest -v -s tests/test_acceptance.py`
run.  Tolerances are fixed here and nowhere else.
"""

import math

import numpy as np
import pytest

from nsgms import (
    QuadraticForm,
    SampleBlocks,
    StationarySeries,
    decorrelation_report,
    estimate_neighborhood,
    mgf_empirical,
    mgf_term,
    project_complement,
    to_block_samples,
)
from nsgms.cli import main
from nsgms.experiments import ExperimentConfig, run_lemma_check, run_node_recovery
from nsgms.regression import EstimatorConfig, residual_statistic


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def recovery_config(grid, trials):
    return ExperimentConfig(
        p=8, s_true=2, s_est=2, B=4, grid=grid, grid_kind="N", beta=2.0,
        lambda_mode="default", trials=trials, eta=0.1, master_seed=20260824,
    )


def test_1_recovery_error_rate_at_sufficient_sample_size():
    """At the derived sufficient sample size the per-node error rate stays
    below the 0.1 failure budget (95% upper confidence limit below 0.15)."""
    row = run_node_recovery(recovery_config((1.0,), 200), timings=False)[0]
    ok = row.error_rate <= 0.1 and row.ci_high <= 0.15 and row.rho_cond
    assert report(
        "1 recovery-at-bound", ok,
        f"N={row.N} rate={row.error_rate:.3f} ci_high={row.ci_high:.3f} "
        f"rho_cond={row.rho_cond}",
    )


def test_2_phase_transition_across_bound_window():
    """Sweeping N from 1e-4x to 3x the sufficient sample size, the error rate
    must fall by at least 0.3 from the smallest to the largest N and end at
    or below 0.1.

    The bound is a sufficient condition only: it promises recovery above it
    and says nothing about failure below it.  Its union-bound constant is
    loose, so on this config the error rate is already 0 at 0.1x and the
    empirical transition sits near 1e-3x.  The window therefore reaches down
    to 1e-4x (L=19, still above p and s_est) to find the failure side."""
    grid = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0)
    rows = run_node_recovery(recovery_config(grid, 200), timings=False)
    by_n = sorted(rows, key=lambda r: r.N)
    first, last = by_n[0].error_rate, by_n[-1].error_rate
    ok = last <= first - 0.3 and last <= 0.1
    assert report(
        "2 phase-transition", ok,
        f"N:rate={' '.join(f'{r.N}:{r.error_rate:.3f}' for r in by_n)} "
        f"need last<={first - 0.3:.3f} and last<=0.1, got last={last:.3f}",
    )


def test_3_tail_bound_dominates_monte_carlo():
    """The quadratic-form deviation bound must upper-bound empirical tail
    frequencies (plus 3 binomial standard errors) on random instances."""
    rng = np.random.default_rng(314)
    trials = 10**5
    worst = -math.inf
    for _ in range(20):
        n = int(rng.integers(1, 65))
        form = QuadraticForm(a=rng.uniform(-1, 1, n), b=rng.uniform(-1, 1, n))
        scale = float(np.linalg.norm(form.a) + np.linalg.norm(form.b))
        grid = np.geomspace(0.1, 10.0, 10) * scale
        for eta, bound, emp, m in run_lemma_check(form, grid, trials, int(rng.integers(2**63))):
            slack = 3.0 * math.sqrt(max(emp * (1 - emp), 1e-12) / m)
            worst = max(worst, emp - bound - slack)
    ok = worst <= 0.0
    assert report("3 tail-domination", ok, f"worst excess={worst:.3e} (<= 0 required)")


def test_4_mgf_identity_on_reference_triples():
    """Monte Carlo moment generating functions must match the closed form
    within 1% relative on the three reference coefficient triples."""
    triples = ((0.0, 1.0, 1.0), (0.5, 0.0, 0.5), (0.3, 0.4, 0.0))
    worst = 0.0
    for k, (a, b, lam) in enumerate(triples):
        exact = mgf_term(a, b, lam)
        mc = mgf_empirical(a, b, lam, 10**6, 1000 + k)
        worst = max(worst, abs(mc - exact) / exact)
    ok = worst <= 0.01
    assert report("4 mgf-identity", ok, f"worst relative error={worst:.5f} (<= 0.01)")


def test_5_projection_matches_least_squares_oracle():
    """On 1000 fuzzed instances the projection residual must match a
    normal-equations least-squares oracle to 1e-8 relative, and the residual
    statistic must be monotone under set inclusion on every instance."""
    rng = np.random.default_rng(2718)
    worst_rel = 0.0
    monotone_ok = True
    for _ in range(1000):
        p = int(rng.integers(2, 11))
        L = int(rng.integers(6, 33))
        t = int(rng.integers(1, min(4, p - 1, L - 1) + 1))
        X = rng.standard_normal((p, L))
        x = X[0]
        T = [int(v) + 2 for v in rng.choice(p - 1, size=t, replace=False)]
        r = project_complement(X, T, x)
        A = X[[j - 1 for j in T]].T
        coef, *_ = np.linalg.lstsq(A, x, rcond=None)
        r_ref = x - A @ coef
        worst_rel = max(worst_rel, float(np.linalg.norm(r - r_ref))
                        / max(float(np.linalg.norm(x)), 1e-30))
        samples = SampleBlocks(p=p, B=1, L=L, data=(X,))
        z_small = residual_statistic(samples, 1, T[:-1])
        z_big = residual_statistic(samples, 1, T)
        monotone_ok &= z_small >= z_big - 1e-10 * max(z_small, 1.0)
    ok = worst_rel <= 1e-8 and monotone_ok
    assert report(
        "5 projection-oracle", ok,
        f"worst relative residual gap={worst_rel:.3e} monotone={monotone_ok}",
    )


def test_6_exact_recovery_on_noiseless_instances():
    """When a node is an exact linear combination of a known set, the search
    with a small penalty must return exactly that set, 100 times out of 100."""
    rng = np.random.default_rng(1618)
    hits = 0
    for _ in range(100):
        p = int(rng.integers(4, 9))
        L = int(rng.integers(8, 17))
        B = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        support = sorted(int(v) + 2 for v in rng.choice(p - 1, size=s, replace=False))
        coefs = rng.uniform(0.5, 2.0, s) * rng.choice((-1.0, 1.0), s)
        blocks = []
        for _ in range(B):
            X = rng.standard_normal((p, L))
            X[0] = coefs @ X[[j - 1 for j in support]]
            blocks.append(X)
        samples = SampleBlocks(p=p, B=B, L=L, data=tuple(blocks))
        est = estimate_neighborhood(samples, 1, EstimatorConfig(s=3, lam=1e-9))
        hits += est.selected == frozenset(support)
    ok = hits == 100
    assert report("6 exact-span-recovery", ok, f"recovered {hits}/100 supports exactly")


def var1_series(p, N, radius, seed, burn=200):
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (p, p))
    A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    x = np.zeros((p, N + burn))
    for n in range(1, N + burn):
        x[:, n] = A @ x[:, n - 1] + rng.standard_normal(p)
    return x[:, burn:]


def test_7_decorrelation_of_autoregressive_input():
    """Frequency-domain blocks built from a first-order autoregressive series
    must be nearly cross-block uncorrelated and exactly energy preserving."""
    energies = []
    energy_ok = True
    for seed in range(20):
        data = var1_series(3, 2048, 0.5, seed)
        series = StationarySeries(p=3, N=2048, data=data, W=8)
        blocks = to_block_samples(series)
        e_in = float(np.sum(data * data))
        e_out = float(sum(np.sum(X * X) for X in blocks.data))
        energy_ok &= abs(e_out - e_in) <= 1e-9 * e_in
        energies.append(decorrelation_report(blocks).cross_block_energy)
    mean_energy = float(np.mean(energies))
    ok = mean_energy <= 0.05 and energy_ok
    assert report(
        "7 decorrelation", ok,
        f"mean cross-block energy={mean_energy:.4f} (<= 0.05) "
        f"energy preserved={energy_ok}",
    )


def test_8_cli_byte_determinism_across_worker_counts(tmp_path):
    """Every subcommand rerun with the same seeds at 1 and 8 worker threads
    must produce byte-identical output files."""
    cfg = tmp_path / "config.txt"
    cfg.write_text(
        "p = 6\ns_true = 2\ns_est = 2\nB = 2\nN_grid = 200, 400\nbeta = 2.0\n"
        "coupling = 0.4\ntrials = 8\neta = 0.1\nmaster_seed = 99\n"
    )
    outputs = {}
    for workers in (1, 8):
        d = tmp_path / f"w{workers}"
        d.mkdir()
        runs = [
            ["model", "-p", "6", "--s-max", "2", "-B", "2", "-L", "64",
             "--beta", "2.0", "--coupling", "0.4", "--seed", "5",
             "-o", str(d / "model.txt"), "--graph", str(d / "graph.txt")],
            ["sample", str(d / "model.txt"), "--seed", "6", "-o", str(d / "samples.txt")],
            ["estimate", str(d / "samples.txt"), "-s", "2", "--rho-min", "0.02",
             "-o", str(d / "edges.txt")],
            ["decorrelate", str(d / "samples1.txt"), "--width", "4",
             "-o", str(d / "blocks.txt")],
            ["lemma", "--random-len", "8", "--trials", "20000", "--seed", "7",
             "-o", str(d / "lemma.csv")],
            ["experiment", str(cfg), "-o", str(d / "result.csv"), "--no-timings"],
        ]
        # single-block record for the decorrelate step
        assert main(["model", "-p", "3", "--s-max", "1", "-B", "1", "-L", "32",
                     "--beta", "2.0", "--coupling", "0.3", "--seed", "8",
                     "-o", str(d / "model1.txt")]) == 0
        assert main(["sample", str(d / "model1.txt"), "--seed", "9",
                     "-o", str(d / "samples1.txt")]) == 0
        for argv in runs:
            assert main(["--workers", str(workers)] + argv) == 0
        outputs[workers] = {
            f.name: f.read_bytes() for f in sorted(d.iterdir())
        }
    mismatched = [name for name in outputs[1]
                  if outputs[1][name] != outputs[8].get(name)]
    ok = not mismatched and set(outputs[1]) == set(outputs[8])
    assert report(
        "8 cli-determinism", ok,
        f"{len(outputs[1])} files compared, mismatches={mismatched or 'none'}",
    )
