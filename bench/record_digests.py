"""Record the digest of every case's canonical output under the default seed.

    python3 bench/record_digests.py [workload ...]

Runs one pass of each named workload (all by default) at the default seed,
refuses to record if any case fails its own check, and rewrites those
workloads' entries in bench/digests.json.  Runs of bench/run.py at the default
seed then compare every case with these digests.  Record them at a commit
whose outputs are known to be right; a change that alters an output on
purpose records them again and says so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(argv):
    names = argv or list(run.WORKLOAD_NAMES)
    wl = run.import_scx()

    digests = {}
    if os.path.exists(run.DIGESTS):
        with open(run.DIGESTS) as fh:
            digests = json.load(fh)
    workdir = os.path.join(run.OUT, f"work-digests-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name in names:
            built = wl.WORKLOADS[name](wl.DEFAULT_SEED, workdir)
            done = run.run_pass(built.cases, wl.seeded(wl.DEFAULT_SEED, "order"))
            bad = run.check_pass(built, done, None)
            if bad:
                for cid, why in sorted(bad.items()):
                    print(f"FAILED {name} {cid}: {why}", file=sys.stderr)
                return 1
            digests[name] = {case.id: run.digest(case.canon(out))
                             for case, out, _, _ in sorted(done, key=lambda d: d[0].id)}
            print(f"{name}: {len(done)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
