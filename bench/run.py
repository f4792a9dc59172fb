"""One run of one cfrieze benchmark workload.

    python3 bench/run.py --workload analyze-batch --seed 1 --seconds 30 --trace 0

Drives ``cfrieze.cli.main`` in-process from the sources under ``src/``: one
client in a closed loop, no extra threads.  The program receives only argv
and the descriptor and section files the workload writes.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, the route mix and
the failures, and ``.bench_out/`` keeps the same as JSON.

``--trace 0`` plays fresh decks of the workload, stopping before the time
spent inside ``cli.main`` would pass ``--seconds`` (and not before 100 ops).
Every output is checked outside the timed region.  ``op_ms_p50`` and
``op_ms_p90`` cover every op played; ``ops_per_s`` is the ops that passed
their check per second inside ``cli.main``.  ``setup_s`` is the median over
fresh processes of the time from spawn to the first timed op: interpreter
start, ``import cfrieze``, the warm-up ops and the first deck's inputs.

``--trace 1`` replays a fixed list, the warm-up ops and the workload's
first decks, untraced and then traced, in pairs while a further pair fits
in ``--seconds``.  Each pass imports the program afresh, so no state in it
outlives a pass.  Counts come from the list and repeat exactly for a seed;
self times are medians over the traced passes; ``trace.overhead_ratio`` is
traced over untraced time.  The spans of the first traced pass are written
to ``.bench_out/``.

A run fails (``correct`` false) when an op fails its check, when a route the
workload names has no op, or, for the default seed, when the output of the
first deck differs from the digest in ``bench/digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
MIN_OPS = 100
SETUP_PROBES = 5
WALL_CAP_S = 120  # play no further deck or pass after this
OVERRUN_S = 170   # abandon the run inside an op after this, to end within 180 s

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import cfrieze from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cfrieze

    if Path(cfrieze.__file__).resolve().parent != src.resolve() / "cfrieze":
        raise ImportError(f"cfrieze imported from {cfrieze.__file__}, not {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the monotonic clock and exit")
    p.add_argument("--record-digest", action="store_true",
                   help="store the default seed's output digest")
    return p.parse_args(argv)


# -- playing ops ----------------------------------------------------------------

def reload_program():
    """Import cfrieze afresh, so that no state in the program outlives a pass."""
    for name in [n for n in sys.modules if n == "cfrieze" or n.startswith("cfrieze.")]:
        del sys.modules[name]
    return importlib.import_module("cfrieze.cli")


def play(cli, op):
    """(exit code, stdout, stderr, out-file text, ns inside cli.main)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed op, not a failed run
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter_ns() - start
    out_text = None
    if op.out is not None and op.out.exists():
        out_text = op.out.read_text(encoding="utf-8")
    return code, out.getvalue(), err.getvalue(), out_text, elapsed


def judge(op, code, stdout, stderr, out_text):
    """None when the op did what it should, else the reason."""
    if code != op.expect_exit:
        return f"exit {code}, expected {op.expect_exit}: {stderr.strip()[-300:]}"
    if op.expect_stderr and not stderr.startswith(op.expect_stderr):
        return f"stderr {stderr.strip()[:80]!r}, expected {op.expect_stderr!r}"
    if op.out is not None and out_text is None:
        return f"{op.out.name} was not written"
    try:
        return op.check(stdout, out_text)
    except Exception as exc:  # a malformed output is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


def fingerprint(code, stdout, out_text) -> bytes:
    """Digest of what one op printed and wrote."""
    return hashlib.sha256(f"{code}\0{stdout}\0{out_text or ''}".encode()).digest()


class Pass:
    """An op list to play, once or more: the first play checks every output,
    later plays must reproduce its fingerprints."""

    def __init__(self, ops):
        self.ops = ops
        self.prints = None
        self.failed = {}          # op index -> reason

    def play_all(self, cli):
        """ns per op and the stdout bytes of the pass."""
        times, stdout_bytes, prints = [], 0, []
        for k, op in enumerate(self.ops):
            code, stdout, stderr, out_text, ns = play(cli, op)
            times.append(ns)
            stdout_bytes += len(stdout.encode())
            prints.append(fingerprint(code, stdout, out_text))
            if self.prints is None:
                reason = judge(op, code, stdout, stderr, out_text)
                if reason:
                    self.failed[k] = f"{op.kind}: {reason}"
            elif prints[k] != self.prints[k] and k not in self.failed:
                self.failed[k] = f"{op.kind}: output differs from the first pass"
        if self.prints is None:
            self.prints = prints
        return times, stdout_bytes

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.prints)).hexdigest()


class Tally:
    """Ops played, failures, and the share of ops on each route."""

    def __init__(self):
        self.ops, self.failed = 0, 0
        self.failures = []
        self.routes, self.kinds = Counter(), Counter()

    def add(self, ops, failed: dict):
        self.ops += len(ops)
        self.failed += len(failed)
        self.failures += failed.values()
        self.routes.update(route for op in ops for route in op.routes)
        self.kinds.update(op.kind for op in ops)

    def shares(self, named) -> dict:
        return {route: self.routes[route] / self.ops for route in named}


def percentile(sorted_values, pct: int):
    """Nearest-rank percentile: at p90 of 100 samples, ten lie beyond it."""
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


# -- set-up -------------------------------------------------------------------

def set_up(workload, seed: int, workdir: Path, cli):
    """Warm-up, then the first deck: everything before the first timed op.

    Returns the deck maker, the first deck and the warm-up failures."""
    from workloads import smoke_ops

    warm_up = Pass(smoke_ops(workdir))
    warm_up.play_all(cli)
    rng = random.Random(seed)
    decks = (workload.make_deck(rng, mkdir(workdir / f"deck{k}"))
             for k in itertools.count())
    return decks, next(decks), [f"warm-up {r}" for r in warm_up.failed.values()]


def mkdir(path: Path) -> Path:
    path.mkdir()
    return path


def setup_seconds(args) -> list:
    """Spawn-to-ready times of fresh processes that do this run's set-up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic_ns()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        ready = int(proc.stdout.split()[-1])
        samples.append((ready - spawned) / 1e9)
    return samples


# -- the two kinds of run ----------------------------------------------------------

def timed_run(args, workload, workdir: Path, cli, tally: Tally):
    """Fresh decks until the time inside cli.main reaches --seconds.

    Latencies cover every op played; ops_per_s counts the ops that passed."""
    decks, deck, failures = set_up(workload, args.seed, workdir, cli)
    tally.failures += failures
    latencies, digest, wall_start = [], None, time.monotonic()
    while True:
        runner = Pass(deck)
        times, _ = runner.play_all(cli)
        tally.add(deck, runner.failed)
        latencies += times
        digest = digest or runner.digest()
        busy = sum(latencies) / 1e9
        # stop before a further deck would pass --seconds
        if (busy + sum(times) / 1e9 > args.seconds and tally.ops >= MIN_OPS) \
                or time.monotonic() - wall_start > WALL_CAP_S:
            break
        deck = next(decks)
    latencies.sort()
    metrics = {
        "ops_per_s": (tally.ops - tally.failed) / busy,
        "op_ms_p50": statistics.median(latencies) / 1e6,
        "op_ms_p90": percentile(latencies, 90) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, digest, {"samples": len(latencies), "busy_s": busy}


def traced_run(args, workload, workdir: Path, cli, tally: Tally):
    """Untraced and traced passes over the warm-up ops and the first decks."""
    from spans import Tracer, layer_metrics
    from workloads import smoke_ops

    decks, deck, failures = set_up(workload, args.seed, workdir, cli)
    tally.failures += failures
    ops = deck + [op for _ in range(1, workload.decks) for op in next(decks)]
    runner = Pass(smoke_ops(mkdir(workdir / "replay")) + ops)
    analyze_ops = sum(op.kind == "analyze" for op in runner.ops)
    passes, wall_start = [], time.monotonic()
    while True:
        plain, stdout_bytes = runner.play_all(cli)
        cli = reload_program()
        tracer = Tracer()
        with tracer:
            traced, _ = runner.play_all(cli)
        metrics = layer_metrics(tracer, analyze_ops, stdout_bytes)
        metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
        if not passes:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}-{args.seed}")
        passes.append(metrics)
        del tracer
        # stop before a further pair would pass --seconds
        if (time.monotonic() - wall_start) * (len(passes) + 1) / len(passes) \
                > min(args.seconds, WALL_CAP_S):
            break
        cli = reload_program()
    tally.add(ops, runner.failed)

    metrics = {}
    for name, value in passes[0].items():
        if isinstance(value, int):
            if any(p[name] != value for p in passes):
                tally.failures.append(f"count {name} differs between passes")
            metrics[name] = value
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    return metrics, None, {"replayed_ops": len(runner.ops), "passes": len(passes),
                           "analyze_ops": analyze_ops}


# -- environment ---------------------------------------------------------------------

def git_revision():
    """HEAD's commit, or None outside a git checkout or without git."""
    # The ceiling keeps git from looking for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "git_revision": git_revision(),
            "src_lines": src_lines, "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace}


# -- main -------------------------------------------------------------------------

class Overrun(BaseException):
    """The run passed OVERRUN_S, inside one op or its check."""


def _overrun(signum, frame):
    raise Overrun


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(OVERRUN_S)
    try:
        import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    cli = importlib.import_module("cfrieze.cli")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        if args.setup_probe:
            set_up(workload, args.seed, workdir, cli)
            print(time.monotonic_ns())
            return 0
        setup = setup_seconds(args) if args.trace == 0 else None
        run = traced_run if args.trace else timed_run
        metrics, digest, info = run(args, workload, workdir, cli, tally)
    except Overrun:
        print(f"bench: run abandoned after {OVERRUN_S} s", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    failures = tally.failures
    shares = tally.shares(workload.routes)
    failures += [f"route {route} has no op" for route, share in shares.items()
                 if share == 0]
    if digest is not None and args.seed == DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        if args.record_digest:
            digests[args.workload] = digest
            DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        elif digests.get(args.workload) != digest:
            failures.append("output digest of the first deck differs from "
                            "bench/digests.json")
    if setup is not None:
        metrics["setup_s"] = statistics.median(setup)
        info["setup_samples_s"] = setup
    if args.trace:
        from spans import PER_LAYER

        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        units = END_TO_END

    record = {"environment": environment(args), "info": info, "routes": shares,
              "kinds": dict(tally.kinds), "failed_frac": tally.failed / tally.ops,
              "failures": failures[:50], "metrics": metrics}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for reason in failures[:20]:
        print(f"FAIL {reason}")
    for key in ("environment", "info", "routes", "failed_frac"):
        print(f"{key} {json.dumps(record[key], sort_keys=True)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
