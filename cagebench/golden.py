"""Make golden.json anew: the SHA-256 of the graph file and of the report
that each construct-cold operation writes.

    python3 cagebench/golden.py

Run from the root of a source checkout.  The construct-cold checks compare
every output with these digests, so a change that alters any output byte
fails the benchmark until this is run again on purpose.
"""

import json
import shutil
import sys

import run


def main() -> int:
    directory = run.WORK / "golden"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    golden = {}
    for name in run.CONSTRUCTS:
        out, report = run.construct_paths(directory, name)
        rc, _, _ = run.spawn(run.child_cmd(None, run.construct_argv(name, out, report)))
        if rc:
            print(f"golden: {name} exited {rc}", file=sys.stderr)
            return 1
        golden[name] = {"out": run.digest(out), "report": run.digest(report)}
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(directory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
