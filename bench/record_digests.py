"""Record bench/digests.json: the digest of every pool input and of every output.

Usage, from the root of a checkout:  python3 bench/record_digests.py

Record only at a commit whose outputs are known to be right: the
benchmark fails every later op whose stdout (or library result) is not
byte-identical.  Each output must pass bench/oracle.py before it is
recorded.  Outputs are taken through the benchmark's own op path.
"""

import json
import shutil
import sys

import inputs
import run


def main() -> int:
    run.import_package()
    digests = {"pool_seed": inputs.POOL_SEED, "inputs": {}, "outputs": {}}
    for name in inputs.WORKLOADS:
        workload = run.make_workload(name, None)
        try:
            workload.setup()
            for slot in inputs.op_slots(name):
                op = workload.run(slot, traced=False)
                error = op.error or workload.check(op)
                if error is not None:
                    print(f"{workload.key(slot)}: {error}", file=sys.stderr)
                    return 1
                digests["outputs"][workload.key(slot)] = run.sha256(workload.output_bytes(op))
            digests["inputs"].update(workload.input_digests)
        finally:
            shutil.rmtree(workload.work_dir, ignore_errors=True)
        print(f"{name}: {len(digests['outputs'])} outputs recorded", file=sys.stderr)
    with open(run.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
