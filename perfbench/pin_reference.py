"""Pin reference digests of every workload's outputs, per seed.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/pin_reference.py

Writes ``perfbench/reference/<workload>.json``, mapping each seed in
``SEEDS`` to the digest ``checks.digest`` takes of the output curves.
Outputs that fail the seed-independent checks are not pinned.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import checks
import run

# 12345 is the CLI's default rng_seed.
SEEDS = list(range(20)) + [12345]


def main():
    cli = run.import_cli()
    run.OUT_ROOT.mkdir(exist_ok=True)
    target = run.HERE / "reference"
    target.mkdir(exist_ok=True)
    for workload, argv in run.WORKLOADS.items():
        pinned = {}
        for seed in SEEDS:
            workload_argv = argv + ["--seed", str(seed)]
            config = cli.build_config(cli.parse_invocation(workload_argv))
            work = tempfile.mkdtemp(dir=run.OUT_ROOT)
            try:
                rep = run.run_once(cli, workload_argv, work, traced=False)
                names = sorted(n for n in rep.hashes if n.endswith(".csv"))
                results = checks.check_outputs(rep.out_dir, names, config, None)
                failures = {name: why for name, why in results.items() if why}
                if rep.status != 0 or failures:
                    sys.exit(f"{workload} seed {seed}: status {rep.status}, {failures}")
                pinned[str(seed)] = checks.digest(rep.out_dir, names)
            finally:
                shutil.rmtree(work)
            print(f"{workload} seed {seed}: {len(names)} curves pinned", flush=True)
        path = target / f"{workload}.json"
        lines = ",\n".join(
            f"{json.dumps(seed)}: {json.dumps(pinned[seed], sort_keys=True)}" for seed in pinned
        )
        path.write_text("{\n" + lines + "\n}\n")
    run.OUT_ROOT.rmdir()


if __name__ == "__main__":
    main()
