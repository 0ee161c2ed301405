#!/usr/bin/env python3
"""Self-check of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Smoke: every workload, in both modes, through the real command with
   a one-second run length. Each must exit 0 and print every metric
   BENCHMARK.json declares for that mode exactly once, with its unit,
   both as a `<workload> <name> = <value> <unit>` line and in the final
   JSON line, and nothing else there.
2. Gate: the correctness gate must pass the recorded raw results of a
   traced run and reject doctored copies of them: a non-empty audit, a
   mismatched digest, a contained-failure outcome, a stream job neither
   committed nor a DNF, and missing cell times.
"""

import copy
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = 1


def check(cond, msg):
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def smoke(bench, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    check(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: final line keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{workload}: gate failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload}: attempted {result['attempted']}")
    declared = bench["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    check(sorted(result["metrics"]) == sorted(names),
          f"{workload} trace={trace}: metrics {sorted(result['metrics'])} != declared {sorted(names)}")
    for m in declared:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], (int, float)), f"{workload}: {m['name']} is not a number")
        prefix = f"{workload} {m['name']} = "
        shown = [l for l in lines if l.startswith(prefix)]
        check(len(shown) == 1 and shown[0].endswith(f" {m['unit']}"),
              f"{workload}: expected one line '{prefix}<value> {m['unit']}', got {shown}")
    print(f"smoke ok: {workload} trace={trace} ({len(names)} metrics)")


def doctored_gates():
    """The gate on the churn-stream traced run recorded by the smoke."""
    path = os.path.join(run.OUT, f"churn-stream-seed{SEED}-trace1.json")
    with open(path) as f:
        record = json.load(f)
    doc, sweeps = record["raw"], record["cell_walls"]
    check(run.gate(doc, sweeps) == [], f"gate rejects the recorded run: {run.gate(doc, sweeps)}")

    def rejects(name, edit, sweeps=sweeps):
        bad = copy.deepcopy(doc)
        edit(bad)
        reasons = run.gate(bad, sweeps)
        # Exactly one reason: the check aimed at this defect fired, and
        # no other check stood in for it.
        check(len(reasons) == 1, f"gate on a doctored result ({name}) gave {reasons}")
        print(f"gate ok: rejects {name}: {reasons[0]}")

    rejects("a non-empty audit", lambda d: d["cells"][0]["audit"].append("doctored"))
    rejects("a traced digest that differs from the pool's",
            lambda d: d["traced"].update(digest="0" * 16))
    rejects("repeated sweeps that disagree",
            lambda d: d["reps"].append(dict(d["reps"][0], digest="1" * 16)), sweeps=sweeps * 2)
    for outcome in sorted(run.FAILED_OUTCOMES):
        rejects(f"outcome {outcome}", lambda d, o=outcome: d["cells"][0].update(outcome=o))
    stream = next(k for k, c in enumerate(doc["cells"])
                  if c["outcome"] == "completed" and c["jobs_expected"])
    rejects("a committed stream missing a job",
            lambda d: d["cells"][stream].update(jobs_committed=d["cells"][stream]["jobs_committed"] - 1))
    rejects("missing cell times", lambda d: None, sweeps=[s[:-1] for s in sweeps])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace in (0, 1):
            smoke(bench, w["name"], trace)
    doctored_gates()
    print("selftest passed")


if __name__ == "__main__":
    main()
