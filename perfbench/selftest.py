"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` with ``--small``: once untraced
and twice traced with the same seed.  Checks that each run ends with the
result line (see run.py), that every metric named in
``BENCHMARK.json`` is emitted with its unit, that failures are counted
against attempts (the campaign's known-bad cell among them), that the
traced and untraced runs report the same workload names, and that the
deterministic counts repeat exactly.  Finally checks that the benchmark
refuses to run, with a non-zero exit and no result, where the program
source is missing.  Exit code 0 when every check holds, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
TIMEOUT_S = 300


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    command = [
        sys.executable, str(script), "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small",
    ]
    return subprocess.run(command, cwd=str(cwd), capture_output=True,
                          text=True, timeout=TIMEOUT_S, check=False)


def result_line(done):
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"], result
    return result


def check_metrics(result, declared, nonzero):
    emitted = result["metrics"]
    assert set(emitted) == set(declared), (
        sorted(set(emitted) ^ set(declared)))
    for name, unit in declared.items():
        value = emitted[name]["value"]
        assert emitted[name]["unit"] == unit, (name, emitted[name], unit)
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        if nonzero:
            assert value > 0, (name, value)


def record(workload, trace):
    path = HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text())


def check_workload(workload, bench):
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    untraced = result_line(run(workload, 0))
    check_metrics(untraced, end_to_end, nonzero=True)
    assert untraced["correct"], untraced
    names = {record(workload, 0)["workload"]}

    counts = []
    for _ in range(2):
        traced = result_line(run(workload, 1))
        check_metrics(traced, per_layer, nonzero=False)
        assert traced["correct"], traced
        detail = record(workload, 1)["detail"]
        assert not detail["count_mismatches"], detail["count_mismatches"]
        counts.append(detail["deterministic_counts"])
        names.add(record(workload, 1)["workload"])
    assert counts[0] == counts[1], {
        k: (counts[0].get(k), counts[1].get(k))
        for k in set(counts[0]) | set(counts[1])
        if counts[0].get(k) != counts[1].get(k)
    }
    assert names == {workload}, names
    if workload == "campaign":
        # the known-bad cell is in every sample and fails its replay oracle
        assert untraced["failed"] >= 1, untraced
        assert traced["metrics"]["campaign.cells.violated"]["value"] >= 1
    return untraced


def check_refuses_without_source():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = run("beacon", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert done.returncode != 0, "ran without the program source"
        assert not done.stdout.strip(), done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        try:
            result = check_workload(workload, bench)
            print(f"ok    {workload}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
        except (AssertionError, subprocess.TimeoutExpired) as error:
            failures += 1
            print(f"FAIL  {workload}: {error}")
    try:
        check_refuses_without_source()
        print("ok    refuses to run without the program source")
    except AssertionError as error:
        failures += 1
        print(f"FAIL  refuses to run without the program source: {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
