"""Run every workload untraced and traced; check and print every metric.

Run from the repository root:

    python3 perfbench/suite.py --size tiny --seconds 1          # smoke test
    python3 perfbench/suite.py --save BENCH_1.json              # full sizes
    python3 perfbench/suite.py --save BENCH_2.json --previous BENCH_1.json

For each workload in ``BENCHMARK.json`` it runs ``run.py`` with
``--trace 0`` and ``--trace 1`` and checks that the run exits 0, reports
``correct`` with no failed iteration, and emits exactly the end-to-end
(untraced) or per-layer (traced) metrics ``BENCHMARK.json`` lists, each
with its unit, and that the layer self times add up to the traced
iteration time.  It prints every metric by name with its unit, and, given
``--previous``, the change from that earlier ``--save`` file.  Exits 1 when
a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import SELF_METRICS

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
# Layer self times must add up to the traced iteration time within this share.
SUM_RTOL = 0.01


def run_once(workload: str, trace: int, args) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    env = [json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment ")]
    absent = [name for ln in lines if ln.startswith("absent: ")
              for name in ln.split(" ", 1)[1].split(", ")]
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return {"returncode": done.returncode, "stderr": done.stderr[-2000:],
            "environment": env[0] if env else None, "absent": absent, "result": result}


def problems(run: dict, expected: list) -> list:
    if run["result"] is None:
        return [f"exit code {run['returncode']}: {run['stderr'].strip()}"]
    result = run["result"]
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        out.append(f"correct={result.get('correct')} failed={result.get('failed')} "
                   f"of {result.get('attempted')}")
    metrics = result.get("metrics", {})
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None and spec["name"] in run["absent"]:
            out.append(f"absent metric {spec['name']}: no wrapped function feeds it")
        elif got is None:
            out.append(f"missing metric {spec['name']}")
        elif got.get("unit") != spec["unit"]:
            out.append(f"{spec['name']}: unit {got.get('unit')!r}, expected {spec['unit']!r}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        out.append(f"unexpected metrics {sorted(extra)}")
    if "trace.wall_s" in metrics:
        total = sum(metrics[name]["value"] for name in SELF_METRICS if name in metrics)
        wall = metrics["trace.wall_s"]["value"]
        if abs(total - wall) > SUM_RTOL * wall:
            out.append(f"layer self times sum to {total:.6g} s, traced wall is {wall:.6g} s")
    return out


def delta(value: float, before) -> str:
    if before is None:
        return ""
    if before == 0:
        return "  (was 0)" if value != 0 else "  (=)"
    return f"  ({(value - before) / abs(before):+.1%} vs {before:.6g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--seconds", type=float, help="timed loop length (default: run_seconds)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--save", help="write all results and environments here as JSON")
    parser.add_argument("--previous", help="an earlier --save file to print deltas against")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    previous = json.loads(Path(args.previous).read_text()) if args.previous else {}

    results, failures = {}, 0
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            run = run_once(workload, trace, args)
            results[workload][f"trace{trace}"] = run
            bad = problems(run, spec[section])
            failures += len(bad)
            status = "ok" if not bad else "FAIL"
            print(f"== {workload} trace={trace}: {status}")
            for problem in bad:
                print(f"   {problem}")
            if run["result"] is None:
                continue
            before = (previous.get(workload, {}).get(f"trace{trace}", {}).get("result") or {})
            before = before.get("metrics", {})
            for name, m in run["result"]["metrics"].items():
                old = before.get(name, {}).get("value")
                print(f"   {name:<28} {m['value']:>14.6g} {m['unit']:<6}{delta(m['value'], old)}")
            for name in sorted(set(before) - set(run["result"]["metrics"])):
                print(f"   {name:<28} {'absent':>14} {'':<6}  (was {before[name]['value']:.6g})")
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print("checks: " + ("ok" if failures == 0 else f"{failures} problem(s)"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
