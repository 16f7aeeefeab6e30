"""End-to-end benchmark of bbcage.

    python3 cagebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Workloads (see README.md):

  construct-cold  ``bbcage construct`` of the named families, each in a fresh
                  interpreter, writing graph files and reports;
  verify-files    ``bbcage verify`` on graph6 and DIMACS files made in set-up,
                  plus two malformed inputs;
  library-sweep   one warm interpreter making a seeded draw of library calls.

Each run makes ``max(1, S // ROUND_S[workload])`` rounds of one fixed
operation list, so a run attempts the same operations whatever the machine's
speed.  Every output is checked by ``oracle``/``closed``, outside the timed
spans.  The last line of standard output is one JSON object: with
``--trace 0`` the end-to-end metrics (``wall_s``, the sum over the operation
list of each operation's fastest time among the rounds;
``peak_rss_mb``, the largest resident set of any process that ran the
operations; ``setup_s``, the median of several set-ups), with ``--trace 1``
the per-layer metrics of a traced run of the same operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".cagebench"
GOLDEN = HERE / "golden.json"

ROUND_S = {"construct-cold": 7.5, "verify-files": 7.5, "library-sweep": 4.0}
SETUPS = {"construct-cold": 11, "verify-files": 3, "library-sweep": 3}

# name -> (family, q, host, --format)
CONSTRUCTS = {
    "q5-4": ("q5", 4, None, "dimacs"),
    "q5-subgq-delete-4": ("q5-subgq-delete", 4, None, "graph6"),
    "hexagon-3": ("hexagon", 3, None, "graph6"),
    "hexagon-hyperbolic-prune-3": ("hexagon-hyperbolic-prune", 3, None, "graph6"),
    "mixed-prune-q5-4": ("mixed-prune", 4, "q5", "graph6"),
    "q4-ovoid-delete-5": ("q4-ovoid-delete", 5, None, "graph6"),
    "q4-hyperbolic-prune-3": ("q4-hyperbolic-prune", 3, None, "graph6"),
}


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, err_path=None) -> tuple[int, float, int]:
    """Run a child to its end: (exit code, wall seconds, peak RSS in KiB)."""
    err = open(err_path, "wb") if err_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        if err_path:
            err.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def child_cmd(trace_path, argv) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), str(trace_path) if trace_path else "-", *argv]


def outcome(rc: int, err: bytes) -> str:
    lines = err.decode("utf-8", "replace").strip().splitlines()
    return f"exit {rc}, {len(lines)} stderr lines, last: {lines[-1] if lines else 'none'}"


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


class Run:
    """Counts, timings and traces of one run."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.rounds = max(1, int(seconds // ROUND_S[workload]))
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.round_s: list[float] = []
        self.op_s: dict[str, list[float]] = {}  # wall times of each operation
        self.wall_s = 0.0
        self.setup_s: list[float] = []
        self.peak_kb = 0
        self.spans: list = []  # (operation, spans) per traced operation
        self.rng = random.Random(seed)

    def timed(self, name: str, wall: float):
        self.op_s.setdefault(name, []).append(wall)

    def finish_rounds(self):
        """wall_s: the sum over the operation list of each operation's
        fastest wall time among the run's rounds."""
        self.wall_s = sum(min(t) for t in self.op_s.values())

    def trace_path(self, name: str):
        return self.dir / f"spans-{name}.json" if self.trace else None

    def collect(self, name: str, path):
        if path is not None and path.exists():
            self.spans.append((name, json.loads(path.read_text())))
            path.unlink()

    def check(self, fn, *args):
        """Run a check; a failure, or an output it cannot read, marks the run
        incorrect."""
        try:
            fn(*args)
        except (AssertionError, KeyError, TypeError, ValueError, OSError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")


# -- construct-cold --------------------------------------------------------------


def construct_argv(name: str, out: Path, report: Path) -> list[str]:
    family, q, host, fmt = CONSTRUCTS[name]
    argv = ["construct", "--family", family, "--q", str(q)]
    if host:
        argv += ["--host", host]
    return argv + ["--format", fmt, "--out", rel(out), "--report", rel(report)]


def construct_paths(directory: Path, name: str) -> tuple[Path, Path]:
    ext = "dimacs" if CONSTRUCTS[name][3] == "dimacs" else "g6"
    return directory / f"{name}.{ext}", directory / f"{name}.json"


def check_construct(name: str, out: Path, report: Path, golden: dict):
    import closed
    import oracle

    family, q, host, _ = CONSTRUCTS[name]
    n, edges = oracle.read_graph(out.read_bytes())
    m = oracle.measure(n, edges)
    exp = closed.expected_construct(family, q, host)
    oracle.check_graph(m, exp, name)
    oracle.check_report(json.loads(report.read_text()), m, exp, name)
    got = {"out": digest(out), "report": digest(report)}
    oracle.expect_eq(got, golden.get(name), f"{name} output digests (golden.json)")


def run_construct(run: Run):
    names = list(CONSTRUCTS)
    run.rng.shuffle(names)
    for _ in range(SETUPS[run.workload]):
        rc, wall, _ = spawn([sys.executable, "-c", "import bbcage.cli"])
        if rc:
            raise SystemExit("bbcage cannot be imported from src/")
        run.setup_s.append(wall)
    golden = json.loads(GOLDEN.read_text())
    checked: dict[str, dict] = {}
    err = run.dir / "stderr.txt"
    for _ in range(run.rounds):
        elapsed = 0.0
        for name in names:
            out, report = construct_paths(run.dir, name)
            tp = run.trace_path(name)
            rc, wall, kb = spawn(child_cmd(tp, construct_argv(name, out, report)), err)
            elapsed += wall
            run.timed(name, wall)
            run.peak_kb = max(run.peak_kb, kb)
            run.attempted += 1
            run.collect(name, tp)
            if rc != 0:
                run.failed += 1
                run.failures.append(f"{name}: {outcome(rc, err.read_bytes())}")
                continue
            if name not in checked:
                run.check(check_construct, name, out, report, golden)
                checked[name] = {"out": digest(out), "report": digest(report)}
            elif {"out": digest(out), "report": digest(report)} != checked[name]:
                run.errors.append(f"{name}: outputs differ between rounds")
            out.unlink()
            report.unlink()
        run.round_s.append(elapsed)


# -- verify-files ------------------------------------------------------------------


def verify_ops(inputs: Path) -> list[tuple]:
    """(name, file, expected family key or None for a malformed input)."""
    from verify_inputs import GRAPHS, MALFORMED

    ops = []
    for name in GRAPHS:
        for ext in ("g6", "dimacs"):
            ops.append((f"{name}.{ext}", inputs / f"{name}.{ext}", name))
    for fname in MALFORMED:
        ops.append((fname, inputs / fname, None))
    return ops


def verify_argv(path: Path, key, report: Path) -> list[str]:
    argv = ["verify", "--in", rel(path), "--report", rel(report)]
    if key is None:
        return argv
    import closed
    from verify_inputs import GRAPHS

    exp = closed.expected_construct(*GRAPHS[key])
    lo, hi = exp["mn"]
    return argv + ["--expect-m", str(lo), "--expect-n", str(hi),
                   "--expect-girth", str(exp["girth"])]


def malformed_outcome(rc: int, err: bytes) -> str | None:
    """None when a malformed input ended as required (exit 2, one line
    ``bbcage: error: ...``, no traceback), else what happened instead."""
    lines = err.decode("utf-8", "replace").strip().splitlines()
    if rc == 2 and len(lines) == 1 and lines[0].startswith("bbcage: error:"):
        return None
    return outcome(rc, err)


def check_verify(path: Path, key, report: Path, measured: dict):
    import closed
    import oracle
    from verify_inputs import GRAPHS

    exp = closed.expected_construct(*GRAPHS[key])
    if path not in measured:
        n, edges = oracle.read_graph(path.read_bytes())
        measured[path] = oracle.measure(n, edges)
        oracle.check_graph(measured[path], exp, path.name)
    rep = json.loads(report.read_text())
    oracle.check_report(rep, measured[path], exp, f"verify {path.name}")
    oracle.expect_eq(rep["expectation_failures"], [], f"verify {path.name} expectations")


def run_verify(run: Run):
    inputs = run.dir / "inputs"
    digests = None
    for _ in range(SETUPS[run.workload]):
        rc, wall, _ = spawn([sys.executable, str(HERE / "verify_inputs.py"), rel(inputs)])
        if rc:
            raise SystemExit("verify-files set-up failed")
        run.setup_s.append(wall)
        now = {p.name: digest(p) for p in sorted(inputs.iterdir())}
        if digests is not None and now != digests:
            run.errors.append("set-up wrote different files on different runs")
        digests = now
    ops = verify_ops(inputs)
    run.rng.shuffle(ops)
    measured: dict = {}
    reports: dict[str, str] = {}
    report, err = run.dir / "report.json", run.dir / "stderr.txt"
    for _ in range(run.rounds):
        elapsed = 0.0
        for name, path, key in ops:
            tp = run.trace_path(name)
            rc, wall, kb = spawn(child_cmd(tp, verify_argv(path, key, report)), err)
            elapsed += wall
            run.timed(name, wall)
            run.peak_kb = max(run.peak_kb, kb)
            run.attempted += 1
            run.collect(name, tp)
            if key is None:
                why = malformed_outcome(rc, err.read_bytes())
                if why is not None:
                    run.failed += 1
                    run.failures.append(f"{name}: {why}")
            elif rc != 0:
                run.failed += 1
                run.failures.append(f"{name}: {outcome(rc, err.read_bytes())}")
            elif name not in reports:
                run.check(check_verify, path, key, report, measured)
                reports[name] = digest(report)
            elif digest(report) != reports[name]:
                run.errors.append(f"{name}: verify report differs between rounds")
            report.unlink(missing_ok=True)
        run.round_s.append(elapsed)


# -- library-sweep -------------------------------------------------------------------


def run_sweep(run: Run):
    tp = run.trace_path("sweep")
    argv = [sys.executable, str(HERE / "sweep.py"), "--seed", str(run.seed),
            "--rounds", str(run.rounds), "--trace", str(tp) if tp else "-"]
    for i in range(SETUPS[run.workload]):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        with proc:
            ready = proc.stdout.readline().strip()
            run.setup_s.append(time.perf_counter() - start)
            if ready != "ready":
                proc.kill()
                raise SystemExit("library-sweep set-up failed")
            last = i == SETUPS[run.workload] - 1
            proc.stdin.write("go\n" if last else "quit\n")
            proc.stdin.close()
            result = proc.stdout.readline() if last else ""
        if proc.returncode or (last and not result):
            raise SystemExit(f"library-sweep worker exited {proc.returncode}")
    res = json.loads(result)
    run.round_s = res["round_s"]
    run.wall_s = res["op_min_sum"]
    run.peak_kb = res["peak_rss_kb"]
    run.attempted, run.failed = res["attempted"], res["failed"]
    if res["error"]:
        run.errors.append(res["error"])
    run.collect("sweep", tp)


WORKLOADS = {"construct-cold": run_construct, "verify-files": run_verify,
             "library-sweep": run_sweep}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bbcage" / "__init__.py").is_file():
        log(f"bench: no bbcage sources under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(HERE))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    WORKLOADS[args.workload](run)
    if run.op_s:
        run.finish_rounds()
    for msg in run.failures:
        log(f"bench: failed operation: {msg}")
    for msg in run.errors:
        log(f"bench: CHECK FAILED: {msg}")
    log(f"bench: {args.workload} seed={args.seed} rounds={run.rounds} "
        f"wall_s={run.wall_s:.3f} round_s={[round(x, 3) for x in run.round_s]} "
        f"setup_s={[round(x, 3) for x in run.setup_s]} "
        f"peak_rss_mb={run.peak_kb / 1024:.1f} traced={bool(args.trace)}")
    if args.trace:
        import tracer

        totals: dict = {}
        for _, spans in run.spans:
            tracer.merge(totals, tracer.layer_metrics(spans))
        metrics = tracer.per_layer(totals)
        out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"round_s": run.round_s, "operations": run.spans}))
    else:
        metrics = {
            "wall_s": {"value": run.wall_s, "unit": "s"},
            "peak_rss_mb": {"value": run.peak_kb / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(run.setup_s), "unit": "s"},
        }
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
