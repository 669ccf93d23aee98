"""Record the sha256 of every analyze report into golden.json.

    python3 perfbench/record_golden.py

The corpus is recorded once (under "any"); the generated workloads for
seeds 0-9.  Run it only when a change to the reports is intended, and
say so in the change: the benchmark's correctness gate compares every
analyze report of a recorded seed against these digests.
"""

import json
import os
import sys
import tempfile

import run

RECORDED_SEEDS = range(10)


def record(cli, workload, seed, work_dir):
    digests = {}
    for label, text in run.generate.documents(workload, seed):
        path = os.path.join(work_dir, label + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, out = run.analyze(cli, path)
        if code != 0:
            raise SystemExit("%s seed %d %s: analyze exited with %r"
                             % (workload, seed, label, code))
        digests[label] = run.digest(out)
    return digests


def main():
    cli, _ = run.import_motcalc()
    golden = {}
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as work_dir:
        for workload in run.generate.WORKLOADS:
            if workload == "corpus":
                golden[workload] = {"any": record(cli, workload, 0, work_dir)}
                continue
            golden[workload] = {str(seed): record(cli, workload, seed, work_dir)
                                for seed in RECORDED_SEEDS}
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print("wrote %s" % (run.GOLDEN_PATH,), file=sys.stderr)


if __name__ == "__main__":
    main()
