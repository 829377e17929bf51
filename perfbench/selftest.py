"""Quick self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits every metric of BENCHMARK.json with its
unit, untraced and traced, with no failed operation; that the artifact
checks fail on deliberately corrupted artifacts; and that the benchmark
exits nonzero without a result in a directory that lacks the source tree.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

PROBLEMS: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        PROBLEMS.append(message)
        print(f"FAIL {message}", flush=True)


def check_metrics(bench: dict) -> None:
    wanted = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (False, True):
            result, details = run.measure(workload, 7, 0.1, trace, plan=run.TINY)
            label = f"{workload} trace={int(trace)}"
            print(f"{label}: attempted {result['attempted']}, failed {result['failed']}", flush=True)
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            expect(got == wanted[trace], f"{label}: metric names or units differ from BENCHMARK.json")
            expect(
                all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                f"{label}: a metric value is not a number",
            )
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{label}: failures {details['failures']}",
            )
            if not trace:
                expect(
                    all(result["metrics"][m]["value"] != run.NOT_APPLICABLE for m in details["err"]),
                    f"{label}: an accuracy metric the workload feeds was not computed",
                )


def check_corruption() -> None:
    import geomflow.cli
    import workloads

    rep = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        for name in ("forward", "backward"):
            (cmd,) = workloads.commands(name, 7, tiny=True)
            (config,) = workloads.write_configs([cmd], rep)
            code = geomflow.cli.main(["run", config])
            out = os.path.join(rep, cmd.name)
            failures, reference, _ = workloads.check_command(cmd, out, code, None)
            expect(not failures, f"{name}: clean artifacts rejected: {failures}")
            expect(bool(workloads.check_command(cmd, out, 1, reference)[0]), f"{name}: exit 1 accepted")
            victim = "checkpoint_0001.json" if name == "forward" else "classify.json"
            path = os.path.join(out, victim)
            with open(path, "rb") as fh:
                original = fh.read()
            corruptions = {
                "truncated": original[: len(original) // 2],
                "one byte changed": original.replace(b"1", b"2", 1),
            }
            if name == "backward":
                corruptions["wrong verdict"] = original.replace(b"Diverging", b"Bounded")
            for label, data in corruptions.items():
                with open(path, "wb") as fh:
                    fh.write(data)
                # without a reference, only the content checks can catch it
                for ref in (reference, None) if label != "one byte changed" else (reference,):
                    failures = workloads.check_command(cmd, out, 0, ref)[0]
                    expect(bool(failures), f"{name}: {label} {victim} accepted (reference={ref is not None})")
            os.remove(path)
            expect(bool(workloads.check_command(cmd, out, 0, None)[0]), f"{name}: missing {victim} accepted")
    finally:
        shutil.rmtree(rep, ignore_errors=True)


def check_bare_directory() -> None:
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(run.ROOT, "perfbench"),
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "forward", "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
        expect(proc.returncode != 0, "bare directory: exit status 0")
        expect('"correct"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    os.makedirs(run.OUT, exist_ok=True)
    check_bare_directory()
    check_metrics(bench)
    check_corruption()
    print("selftest:", "FAILED" if PROBLEMS else "ok", flush=True)
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
