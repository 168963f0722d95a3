"""Benchmark of the gatebench CLI, driven from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate_plan --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one client: one verb at a time, each
started after the previous one exits. A *pass* is one round of the
workload's verbs; passes repeat until ``--seconds`` have elapsed.

``--trace 0`` runs every verb as its own ``python -m gatebench.cli``
subprocess and reports the end-to-end metrics. ``--trace 1`` runs the verbs
in this process through ``gatebench.cli.main``, alternating untraced passes
with passes traced by ``tracer.py``, and reports the per-layer metrics.

Every verb's output directory is hashed after it exits and compared with the
digest recorded in ``digests.json`` and with the previous repeat of the same
input; a mismatch or an unexpected exit code counts as a failed operation.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. GLOSSARY.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

# Inputs: the seed picks one of VARIANTS input sets, so that every output a
# run produces has a digest recorded in digests.json.
VARIANTS = 16
# Demo-plan repetitions: 18 entries x 20 = 360 runs (340 executed), about
# 15k events and 13 MiB of logs per `run`.
REPETITIONS = 20
# study_grid cycles through this many `--seed-base` values per input set.
SEED_BASES = 4
# Fresh interpreters timed for cli.import_s.
IMPORT_REPEATS = 5

# The default study grid: 2 backends x 2 seeds x 3 budgets x 2 settings x 2 variants.
STUDY_GRID_RUNS = 48

MIB = 1024 * 1024
VERBS = ("run", "gate", "replay", "report", "study")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def input_variant(seed: int) -> int:
    return seed % VARIANTS


def seeded_plan(demo_plan: dict[str, Any], variant: int) -> dict[str, Any]:
    """The demo plan with fresh entry seeds and every entry repeated."""

    rng = random.Random(f"perfbench-plan:{variant}")
    plan = json.loads(json.dumps(demo_plan))
    for entry in plan["entries"]:
        entry["seed"] = rng.randrange(1, 2**31)
        entry["repetitions"] = REPETITIONS
    return plan


def seed_bases(variant: int) -> list[int]:
    return [1000 * (variant * SEED_BASES + j + 1) for j in range(SEED_BASES)]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def tree_digest(directory: Path) -> tuple[str, int]:
    """sha256 over every file's relative path and content, plus total bytes."""

    outer = hashlib.sha256()
    total = 0
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    for path in files:
        data = path.read_bytes()
        total += len(data)
        outer.update(path.relative_to(directory).as_posix().encode("utf-8") + b"\0")
        outer.update(hashlib.sha256(data).hexdigest().encode("ascii") + b"\n")
    return outer.hexdigest(), total


def load_recorded(schema_version: str) -> dict[str, str]:
    doc = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if doc["schema_version"] != schema_version:
        print(
            f"perfbench: digests.json was recorded for schema {doc['schema_version']}, "
            f"the program is at {schema_version}; every output counts as a mismatch",
            file=sys.stderr,
        )
        return {}
    return doc["digests"]


class OutputCheck:
    """Counts verb invocations and failures.

    A verb fails when its exit code is not 0, or when its output digest
    differs from the recorded one or from an earlier repeat of the same
    input. With ``recorded=None`` the first digest of each key is accepted;
    ``seen`` then holds a fresh recording.
    """

    def __init__(self, recorded: dict[str, str] | None) -> None:
        self.recorded = recorded
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, key: str, code: int, out: Path) -> tuple[bool, int]:
        self.attempted += 1
        digest, size = tree_digest(out) if out.is_dir() else ("", 0)
        first = self.seen.setdefault(key, digest)
        expected = first if self.recorded is None else self.recorded.get(key)
        ok = code == 0 and digest == first == expected
        if not ok:
            self.failed += 1
            print(
                f"perfbench: {key} failed: exit {code}, digest {digest or '-'}, "
                f"expected {expected}",
                file=sys.stderr,
            )
        return ok, size


# ---------------------------------------------------------------------------
# Running verbs
# ---------------------------------------------------------------------------


@dataclass
class Verb:
    argv: list[str]
    out: Path  # the directory this verb writes; emptied before, hashed after
    key: str  # digest key in digests.json

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass
class VerbResult:
    name: str
    wall_s: float
    cpu_s: float
    rss_mib: float
    out_bytes: int
    ok: bool


def subprocess_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def spawn_verb(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one verb as a subprocess: (exit code, wall s, CPU s, peak RSS MiB).

    CPU time and peak RSS come from ``os.wait4`` for this child alone;
    RUSAGE_CHILDREN would give a running maximum over all children.
    """

    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "gatebench.cli", *argv],
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=subprocess_env(),
            cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def call_verb(argv: list[str]) -> tuple[int, float]:
    """Run one verb in this process through ``gatebench.cli.main``."""

    from gatebench.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    if code != 0:
        print(sink.getvalue()[-2000:], file=sys.stderr)
    return code, wall


class Bench:
    def __init__(self, work: Path, check: OutputCheck) -> None:
        self.work = work
        self.check = check
        self.log = work / "verbs.stderr"

    def spawn(self, verb: Verb) -> VerbResult:
        shutil.rmtree(verb.out, ignore_errors=True)
        code, wall, cpu, rss = spawn_verb(verb.argv, self.log)
        ok, size = self.check.check(verb.key, code, verb.out)
        return VerbResult(verb.name, wall, cpu, rss, size, ok)

    def call(self, verb: Verb, tracer: Tracer | None = None) -> VerbResult:
        shutil.rmtree(verb.out, ignore_errors=True)
        if tracer is None:
            code, wall = call_verb(verb.argv)
        else:
            with tracer.root(f"cli.{verb.name}"):
                code, wall = call_verb(verb.argv)
        ok, size = self.check.check(verb.key, code, verb.out)
        return VerbResult(verb.name, wall, 0.0, 0.0, size, ok)

    def init_root(self, out: Path) -> float:
        """Write a release root with a fresh `init-root` subprocess; returns its wall time."""

        return self.spawn(Verb(["init-root", "--out", str(out)], out, "init-root")).wall_s


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """Verbs of one pass, by pass index, plus the runs each pass covers."""

    runs_per_pass: int
    verbs: Callable[[int], list[Verb]]


def write_plan(bench: Bench, root: Path, variant: int) -> tuple[Path, int]:
    demo = json.loads((root / "demo_plan.json").read_text(encoding="utf-8"))
    plan = seeded_plan(demo, variant)
    path = bench.work / "plan.json"
    path.write_text(json.dumps(plan, sort_keys=True), encoding="utf-8")
    return path, sum(entry["repetitions"] for entry in plan["entries"])


def simulate_plan(bench: Bench, root: Path, variant: int) -> Workload:
    plan, runs = write_plan(bench, root, variant)
    out = bench.work / "runs"
    argv = ["run", "--plan", str(plan), "--release-root", str(root), "--out", str(out)]
    verb = Verb(argv, out, f"simulate_plan/v{variant}/run")
    return Workload(runs, lambda index: [verb])


def audit_runset(bench: Bench, root: Path, variant: int) -> Workload:
    plan, runs = write_plan(bench, root, variant)
    runset = bench.work / "runset"
    argv = ["run", "--plan", str(plan), "--release-root", str(root), "--out", str(runset)]
    if not bench.spawn(Verb(argv, runset, f"simulate_plan/v{variant}/run")).ok:
        raise SystemExit("perfbench: could not generate the audit runset")
    gate, replay, report = (bench.work / name for name in ("gate", "replay", "report"))
    key = f"audit_runset/v{variant}"
    verbs = [
        Verb(
            ["gate", "--runset", str(runset), "--release-root", str(root), "--out", str(gate)],
            gate,
            f"{key}/gate",
        ),
        Verb(["replay", "--runset", str(runset), "--out", str(replay)], replay, f"{key}/replay"),
        Verb(
            ["report", "--runset", str(runset), "--gate", str(gate), "--out", str(report)],
            report,
            f"{key}/report",
        ),
    ]
    return Workload(runs, lambda index: verbs)


def study_grid(bench: Bench, root: Path, variant: int) -> Workload:
    out = bench.work / "study"
    bases = seed_bases(variant)

    def verbs(index: int) -> list[Verb]:
        base = bases[index % len(bases)]
        argv = ["study", "--out", str(out), "--seed-base", str(base)]
        return [Verb(argv, out, f"study_grid/b{base}/study")]

    return Workload(STUDY_GRID_RUNS, verbs)


WORKLOADS: dict[str, Callable[[Bench, Path, int], Workload]] = {
    "simulate_plan": simulate_plan,
    "audit_runset": audit_runset,
    "study_grid": study_grid,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(bench: Bench, workload: Workload, seconds: int) -> dict[str, float]:
    """Subprocess passes until time is up, each after one timed set-up.

    Set-up is sampled once per pass, not only at the start, so that its
    median spans the same stretch of host time as the passes.
    """

    setup: list[float] = []
    passes: list[list[VerbResult]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        setup.append(bench.init_root(bench.work / "setup"))
        passes.append([bench.spawn(verb) for verb in workload.verbs(len(passes))])
    return {
        "setup_s": median(setup),
        "runs_per_s": workload.runs_per_pass / median([sum(r.wall_s for r in p) for p in passes]),
        "cpu_s": median([sum(r.cpu_s for r in p) for p in passes]),
        "peak_rss_mb": median([max(r.rss_mib for r in p) for p in passes]),
        "out_mb": median([sum(r.out_bytes for r in p) / MIB for p in passes]),
        "op_success_rate": 1.0 - bench.check.failed / bench.check.attempted,
    }


def import_seconds() -> float:
    """Median time to import ``gatebench.cli`` in a fresh interpreter."""

    code = "import time; t = time.perf_counter(); import gatebench.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=subprocess_env(),
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def per_layer(bench: Bench, workload: Workload, seconds: int) -> dict[str, float]:
    """Alternate untraced and traced in-process passes until time is up."""

    tracer = Tracer()
    plain: list[list[VerbResult]] = []
    traced: list[float] = []
    layer: list[dict[str, float]] = []
    import_s = import_seconds()
    deadline = time.perf_counter() + seconds
    while not layer or time.perf_counter() < deadline:
        verbs = workload.verbs(len(plain))
        plain.append([bench.call(verb) for verb in verbs])
        tracer.install()
        try:
            traced.append(sum(bench.call(verb, tracer).wall_s for verb in verbs))
        finally:
            tracer.uninstall()
        layer.append(tracer.take_pass())
    tracer.write_spans(bench.work / "spans.jsonl")

    metrics = {key: median([stats[key] for stats in layer]) for key in layer[0]}
    for verb in VERBS:
        metrics[f"cli.{verb}_s"] = median([r.wall_s for p in plain for r in p if r.name == verb])
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_ratio"] = median(traced) / median([sum(r.wall_s for r in p) for p in plain])
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def host_record() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "loadavg": list(os.getloadavg()),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import gatebench
        from gatebench.schema import SCHEMA_VERSION
    except ImportError as exc:
        print(f"perfbench: cannot import gatebench from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(gatebench.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: gatebench was imported from outside {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    host = host_record()
    (work / "host.json").write_text(json.dumps(host, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed}))

    bench = Bench(work, OutputCheck(load_recorded(SCHEMA_VERSION)))
    root = work / "root"
    bench.init_root(root)  # untimed: also fills the bytecode cache
    workload = WORKLOADS[args.workload](bench, root, input_variant(args.seed))
    if args.trace:
        values = per_layer(bench, workload, args.seconds)
    else:
        values = end_to_end(bench, workload, args.seconds)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    for name in ("setup", "runs", "runset", "gate", "replay", "report", "study"):
        shutil.rmtree(work / name, ignore_errors=True)

    result = {
        "correct": bench.check.failed == 0,
        "attempted": bench.check.attempted,
        "failed": bench.check.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
