"""ordlab benchmark runner.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client, closed loop: each command of
the workload runs in a fresh interpreter (``child.py``), one at a time,
with no threads, because a CLI user pays the cold import and cache state
on every call.  A *rep* runs all the workload's commands in turn, on
inputs made from its own seed: rep i of a run on seed s uses seed
``s * SEED_STRIDE + i``, so a run samples several inputs and a seed
whose instances happen to be costly moves the result less.  The run
repeats reps for ``--seconds`` (at least ``MIN_REPS``).

The host's speed is not steady: single commands run slow in short
bursts, and slow phases that last minutes shift whole runs.  A rep's
time is therefore taken as the sum over its commands of each command's
median over the run's reps, which leaves the bursts out; and after each
command the runner runs the fixed reference workload of
``reference.py`` for a quarter of the command's time, and rescales the
run's times by ``NOMINAL_CHUNK_S / mean chunk time over the run``, which
takes the phases out.

``--trace 0`` prints the end-to-end metrics: ``wall_norm_s`` (the
rescaled time of one rep's commands), ``setup_s`` (the rescaled time,
summed over a rep's children, from spawn until ``ordlab`` and
``ordlab.cli`` are imported) and ``peak_rss_mb`` (the median over reps
of the largest max-RSS of a child); the raw per-rep times are printed
too.  ``--trace 1`` alternates plain and traced reps and prints the
per-layer metrics of ``tracing.py`` plus ``cli.interpreter_s``,
``cli.import_s`` and ``trace.overhead_ratio``.

Every output is checked (``workloads.py``); on the default seed the
first rep is also pinned byte-for-byte (``pins.json``), and a traced rep
must print exactly what the plain rep on the same seed printed.  The
last stdout line is the JSON result; the run exits 1 if any command
failed.  Inputs, per-command records, the result details (environment,
quartiles, stdout digests to compare across commits) and the trace go
to ``.perfbench/`` in the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Command, commands  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
PINS = os.path.join(HERE, "pins.json")
DEFAULT_SEED = 0
MIN_REPS = 3
SEED_STRIDE = 1000  # rep i of a run on seed s uses seed s * SEED_STRIDE + i
COMMAND_TIMEOUT_S = 60
RUN_BUDGET_S = 150  # stop starting reps after this, so a run ends well within 180 s
INTERPRETER_SAMPLES = 5
REF_SHARE = 0.25  # reference time run after each command, as a share of its wall time


@dataclass
class Outcome:
    command: Command
    exit_code: int
    stdout: bytes
    stderr: bytes
    record: dict
    wall_s: float  # spawn to exit, as the parent sees it

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ORDLAB_MAX_ELEMENTS", None)
    return env


def run_command(cmd: Command, traced: bool, env: dict) -> Outcome:
    record = os.path.join(WORK, "record.json")
    if os.path.exists(record):
        os.remove(record)
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), repr(spawn), record, "1" if traced else "0", *cmd.argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=COMMAND_TIMEOUT_S,
    )
    wall = time.monotonic() - spawn
    rec = {}
    if os.path.exists(record):  # a child that dies before its command runs writes none
        with open(record, encoding="utf-8") as fh:
            rec = json.load(fh)
    return Outcome(cmd, proc.returncode, proc.stdout, proc.stderr, rec, wall)


@dataclass
class Rep:
    seed: int  # the rep's own seed, derived from the run's
    outcomes: list[Outcome]
    load: tuple  # load averages before and after
    ref_times: list[float]  # time of each reference chunk run between the rep's commands

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def setup_s(self) -> float:
        return sum(o.record["setup_s"] for o in self.outcomes)


def host_scale(reps: list[Rep]) -> float:
    """Factor that rescales the reps' times to the reference host speed."""
    times = [t for r in reps for t in r.ref_times]
    return reference.NOMINAL_CHUNK_S * len(times) / sum(times)


def typical(reps: list[Rep], value: Callable[[Outcome], float]) -> float:
    """Sum over the workload's commands of each command's median over the
    reps: a rep's time with the slow bursts of single commands left out."""
    return sum(statistics.median(value(r.outcomes[i]) for r in reps) for i in range(len(reps[0].outcomes)))


def rep_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def run_rep(workload: str, seed: int, traced: bool, env: dict) -> Rep:
    """All the workload's commands in turn, on inputs made from ``seed``.

    After each command the reference workload runs for ``REF_SHARE`` of
    the command's wall time, so the rep's reference speed is gauged at
    the moments its commands ran.
    """
    facts = None
    if workload == "topology":
        facts = inputs.write_inputs(os.path.join(WORK, "inputs"), seed)
        facts["paths"] = {k: os.path.relpath(v, ROOT) for k, v in facts["paths"].items()}
    cmds = commands(workload, seed, facts)
    load_before = os.getloadavg()
    outcomes = []
    ref_times: list[float] = []
    for cmd in cmds:
        outcomes.append(run_command(cmd, traced, env))
        ref_times += reference.run(REF_SHARE * outcomes[-1].wall_s)
    return Rep(seed, outcomes, (load_before, os.getloadavg()), ref_times)


def verify(out: Outcome, pin: Optional[dict]) -> list[str]:
    """Why this command's result is wrong; empty when it is right."""
    cmd = out.command
    errors = [] if out.record else ["the child wrote no timing record"]
    if out.exit_code != cmd.expect_exit:
        errors.append(f"exit {out.exit_code}, expected {cmd.expect_exit}: {out.stderr.decode(errors='replace')[-300:]}")
    doc = None
    if cmd.expect_exit == 0:
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            errors.append("stdout is not one JSON document")
    elif out.stdout:
        errors.append("error exit wrote to stdout")
    if doc is not None:
        for check in cmd.checks:
            problem = check(doc)
            if problem:
                errors.append(problem)
    if pin is not None:
        if pin["exit"] != out.exit_code:
            errors.append(f"pinned exit {pin['exit']}, got {out.exit_code}")
        if pin["sha256"] != out.digest:
            errors.append("stdout differs from the pinned digest")
        got = doc.get("instances_checked") if isinstance(doc, dict) else None
        if pin.get("instances_checked") != got:
            errors.append(f"pinned instances_checked {pin.get('instances_checked')}, got {got}")
    return errors


def load_pins(workload: str) -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _git_commit() -> Optional[str]:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _src_lines() -> dict:
    pkg = os.path.join(SRC, "ordlab")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                out[name[:-3]] = sum(1 for _ in fh)
    out["total"] = sum(out.values())
    return out


def environment(loads: list) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "isolated": False,  # the runner pins no CPU and tunes no machine setting
        "loadavg_per_rep": [{"before": list(b), "after": list(a)} for b, a in loads],
        "src_lines": _src_lines(),
    }


def _interpreter_s(env: dict) -> float:
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=COMMAND_TIMEOUT_S)
        samples.append(time.monotonic() - start)
    return statistics.median(samples)


def layer_metrics(traced: list[Rep]) -> dict:
    """Per-layer values: counts of the first traced rep, median self times."""

    def totals(rep: Rep, part: str) -> dict:
        acc: dict = {}
        for out in rep.outcomes:
            for key, value in out.record["trace"][part].items():
                acc[key] = acc.get(key, 0) + value
        return acc

    counts = totals(traced[0], "counts")
    times = [totals(rep, "times") for rep in traced]
    metrics = {k: {"value": v, "unit": "count"} for k, v in counts.items()}
    for key in tracing.TIMES:
        metrics[key] = {"value": statistics.median(t[key] for t in times), "unit": "s"}
    classified = counts["morphisms.maps_classified"]
    metrics["morphisms.hom_yield"] = {
        "value": counts["morphisms.homs_enumerated"] / classified if classified else 0.0,
        "unit": "ratio",
    }
    return metrics


def write_trace(path: str, workload: str, rep: Rep, metrics: dict) -> None:
    """Spans of one traced rep, one trace id per command, plus the aggregates."""
    spans = []
    for trace_id, out in enumerate(rep.outcomes):
        for name, start, end, parent in out.record["trace"]["spans"]:
            spans.append({"trace": trace_id, "name": name, "start_s": start, "end_s": end, "parent": parent})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "rep_seed": rep.seed, "metrics": metrics, "spans": spans}, fh)


def check_reps(workload: str, reps: list[Rep]) -> tuple[int, int, dict]:
    """Verify every command; return (attempted, failed, stdout digests by rep seed)."""
    pins = load_pins(workload)
    attempted = failed = 0
    digests: dict[int, dict[str, str]] = {}
    for rep in reps:
        seen = digests.setdefault(rep.seed, {})
        for out in rep.outcomes:
            attempted += 1
            errors = verify(out, pins[out.command.name] if rep.seed == DEFAULT_SEED else None)
            if seen.setdefault(out.command.name, out.digest) != out.digest:
                errors.append("stdout differs between the plain and the traced rep")
            if errors:
                failed += 1
                sys.stderr.write(f"perfbench: FAIL {workload} seed {rep.seed} [{out.command.name}]: {'; '.join(errors)}\n")
    return attempted, failed, digests


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> tuple[int, int, dict]:
    """Measure one workload; print its summary; return (attempted, failed, metrics)."""
    plain: list[Rep] = []
    traced: list[Rep] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if elapsed > RUN_BUDGET_S or (len(plain) >= (1 if trace else MIN_REPS) and elapsed >= seconds):
            break
        rep = rep_seed(seed, len(plain))
        plain.append(run_rep(workload, rep, False, env))
        if trace:
            traced.append(run_rep(workload, rep, True, env))

    attempted, failed, digests = check_reps(workload, plain + traced)
    print(f"{workload} fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")
    if failed:
        return attempted, failed, {}
    walls = [r.wall_s for r in plain]
    setups = [r.setup_s for r in plain]
    rss = [max(o.record["maxrss_kb"] for o in r.outcomes) / 1024 for r in plain]
    scale = host_scale(plain)
    values = {
        "wall_norm_s": typical(plain, lambda o: o.wall_s) * scale,
        "setup_s": typical(plain, lambda o: o.record["setup_s"]) * scale,
        "peak_rss_mb": statistics.median(rss),
    }
    summary = {"raw wall_s": _summary(walls), "raw setup_s": _summary(setups), "peak_rss_mb": _summary(rss)}
    if trace:
        metrics = layer_metrics(traced)
        metrics["cli.interpreter_s"] = {"value": _interpreter_s(env), "unit": "s"}
        metrics["cli.import_s"] = {
            "value": statistics.median(o.record["import_s"] for r in plain for o in r.outcomes),
            "unit": "s",
        }
        metrics["trace.overhead_ratio"] = {
            "value": typical(traced, lambda o: o.wall_s) * host_scale(traced) / values["wall_norm_s"],
            "unit": "ratio",
        }
        summary["raw traced wall_s"] = _summary([r.wall_s for r in traced])
        write_trace(os.path.join(WORK, f"trace-{workload}-seed{seed}.json"), workload, traced[0], metrics)
    else:
        units = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "values": values,
        "host_scale": scale,
        "summary": summary,
        "per_rep": {
            "seed": [r.seed for r in plain],
            "wall_s": walls,
            "setup_s": setups,
            "command_wall_s": [[o.wall_s for o in r.outcomes] for r in plain],
            "ref_chunk_s": [r.ref_times for r in plain],
            "peak_rss_mb": rss,
        },
        "fail_ratio": failed / attempted,
        "stdout_sha256_by_rep_seed": digests,
        "environment": environment([r.load for r in plain + traced]),
    }
    with open(os.path.join(WORK, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    print(f"{workload} host_scale: {scale:.4f}")
    for key, v in values.items():
        print(f"{workload} {key}: {v:.4f}")
    for key, s in summary.items():
        print(f"{workload} per rep {key}: median {s['median']:.4f} q1 {s['q1']:.4f} q3 {s['q3']:.4f} n {s['n']}")
    print(json.dumps({k: v for k, v in details["environment"].items() if k != "loadavg_per_rep"}, sort_keys=True))
    return attempted, failed, metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=(*WORKLOADS, "all"), required=True,
        help="'all' runs every workload in turn, each for --seconds, and prefixes metric names with it",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "ordlab", "__init__.py")):
        sys.stderr.write(f"perfbench: no ordlab package under {SRC}; run from a full checkout\n")
        return 2

    os.makedirs(WORK, exist_ok=True)
    env = child_env()
    # compile the package's bytecode and build the reference table before anything is timed
    subprocess.run([sys.executable, "-c", "import ordlab.cli"], env=env, check=True, timeout=COMMAND_TIMEOUT_S)
    reference.chunk()
    if args.workload != "all":
        attempted, failed, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), env)
    else:
        attempted = failed = 0
        metrics = {}
        for workload in WORKLOADS:
            a, f, m = run_workload(workload, args.seed, args.seconds, bool(args.trace), env)
            attempted, failed = attempted + a, failed + f
            metrics.update({f"{workload}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
