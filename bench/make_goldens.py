"""Write bench/goldens.json: sha256 digests of the CLI outputs the benchmark checks.

    python3 bench/make_goldens.py

The digests pin the current outputs byte for byte, so regenerate them only
on a commit whose outputs are the specification, never to make a changed
output pass.  Covered:

* ``verify --format json`` stdout for the verify-deep models, for every
  n <= 4 model at order 12 and for the quintic at order 8;
* ``measure`` stdout for every measure-sweep model and grid psi;
* every cache file of ``batch`` for the batch-n4 workload, and of a small
  ``batch --n 3 --order 12`` used by the benchmark's own tests.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

REGRESSION_ORDER = 12
QUINTIC = ("5,5,5,5,5", 8)


def main() -> int:
    work = run.WORK_ROOT / f"goldens-{os.getpid()}"
    try:
        run.set_up(work)
        env = run.child_env(work)

        def cli(argv):
            code, out = run.run_child(
                run.mahlerq_command(argv), env, work / "op.err"
            )
            if code != 0:
                raise SystemExit(f"mahlerq {' '.join(argv)} exited {code}")
            return out

        models = []
        for n in (2, 3, 4):
            listing = json.loads(cli(("enumerate", "--n", str(n), "--format", "json")))
            models += [",".join(map(str, entry["k"])) for entry in listing]
        commands = [run.verify_argv(m, o) for m, o in run.VERIFY_OPS]
        commands += [run.verify_argv(m, REGRESSION_ORDER) for m in models]
        commands.append(run.verify_argv(*QUINTIC))
        for (model, order), grid in run.MEASURE_OPS.items():
            commands += [run.measure_argv(model, psi, order) for psi in grid]
        stdout = {}
        for argv in commands:
            stdout[" ".join(argv)] = run.sha256(cli(argv))
            print(" ".join(argv), file=sys.stderr)

        batch = {}
        for n, order in ((run.BATCH_N, run.BATCH_ORDER), (3, REGRESSION_ORDER)):
            cache = work / f"cache-{n}-{order}"
            cache.mkdir()
            cli(("batch", "--n", str(n), "--order", str(order), "--jobs", "2", "--cache", str(cache)))
            batch[run.batch_key(n, order)] = run.cache_digests(cache)

        goldens = {
            "commit": run.git_commit(),
            "source_sha256": run.source_digest(),
            "stdout": stdout,
            "batch": batch,
        }
        run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        run.remove_work_root()
    return 0


if __name__ == "__main__":
    sys.exit(main())
