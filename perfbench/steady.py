"""Steadiness self-check: two sets of ten fresh runs of one workload, compared.

    python3 perfbench/steady.py --workload probe_scale

Each run is a fresh `run.py` process of BENCHMARK.json's run_seconds with
its own seed: seeds 1-10 make set 1 and seeds 11-20 set 2.  For every
end-to-end metric it prints each set's median and quartile spread (distance
between the first and third quartiles as a share of the median), and judges
both against the metric's bound from BENCHMARK.json: every spread must stay
within the bound, and set 2's median must differ from set 1's by at most
the bound, either way.  A spread above a third of the bound is flagged.
Exits 1 if anything is out of bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 240
SETS = 2
RUNS_PER_SET = 10


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: {result['failed']} failed operations\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    sets = []
    seed = 1
    for s in range(SETS):
        runs = []
        for _ in range(RUNS_PER_SET):
            runs.append(one_run(args.workload, seed, seconds))
            print(f"set {s + 1} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
            seed += 1
        sets.append(runs)

    ok = True
    print(f"\n[{args.workload}] {SETS} sets x {RUNS_PER_SET} runs, {seconds} s each")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first, second = ([r[name] for r in runs] for runs in sets)
        medians = [statistics.median(first), statistics.median(second)]
        spreads = [spread(first), spread(second)]
        drift = (medians[1] - medians[0]) / medians[0]
        within = max(spreads) <= bound and abs(drift) <= bound
        ok = ok and within
        print(f"  {name:12s} medians " + " / ".join(f"{m:.4g}" for m in medians)
              + f" {metric['unit']}; spreads " + " / ".join(f"{s:.3f}" for s in spreads)
              + f"; set 2 vs set 1 {drift:+.3f}; bound {bound}"
              + ("" if within else "  OUT OF BOUND")
              + ("" if max(spreads) < bound / 3 else "  (spread above a third of the bound)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
