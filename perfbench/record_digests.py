"""Record the output digests that perfbench/run.py checks against.

Run from the root of a checkout, only when the program's outputs are meant
to change (a new SCHEMA_VERSION or an intended change of behaviour):

    python3 perfbench/record_digests.py

It runs every verb of every workload once on every input set through the
same code as the benchmark and rewrites perfbench/digests.json. It takes
about three minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from gatebench.schema import SCHEMA_VERSION

    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = run.Bench(work, run.OutputCheck(recorded=None))
    root = work / "root"
    bench.init_root(root)
    for variant in range(run.VARIANTS):
        for verb in run.audit_runset(bench, root, variant).verbs(0):
            bench.spawn(verb)
        study = run.study_grid(bench, root, variant)
        for index in range(run.SEED_BASES):
            for verb in study.verbs(index):
                bench.spawn(verb)
        print(f"input set {variant}: {len(bench.check.seen)} digests", flush=True)
    if bench.check.failed:
        print(f"{bench.check.failed} verbs failed; digests.json left unchanged", file=sys.stderr)
        return 1
    doc = {"schema_version": SCHEMA_VERSION, "digests": dict(sorted(bench.check.seen.items()))}
    run.DIGESTS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
