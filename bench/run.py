"""Benchmark of the svaudit CLI.

    python3 bench/run.py --workload queries --seed 1 --seconds 55 --trace 0

Run from the repository root. ``--trace 0`` runs the workload as a closed
loop of CLI child processes (one client, one child at a time, ``--jobs 1``)
for ``--seconds`` and reports the end-to-end metrics. ``--trace 1`` replays
a fixed prefix of the same calls in-process through ``svaudit.cli.main``
with tracing wrappers and reports the per-layer metrics. Every output is
checked after the timed phase. The last line of standard output is the
result; the line before it (``info``) records the machine, the tail
percentiles with their sample counts and the digest of the report bytes.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 7   # timed set-up repeats; their median is reported
REPEAT_PREFIX = "again-"  # output files of the timed set-up repeats
TRACE_CYCLES = {"scan-omdd": 4, "queries": 3}


def hd_median(values):
    """Harrell-Davis estimate of the median: the order statistics weighted
    by a Beta((n+1)/2, (n+1)/2) density. On a shared host the per-call
    times are bimodal (the host switches between a fast and a slow state
    every few seconds), and the sample median jumps from one mode to the
    other as the share of slow time crosses one half; this estimate moves
    between them more smoothly."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = math.lgamma(2 * a) - 2 * math.lgamma(a)
    steps = 64  # midpoint rule on each order statistic's interval
    weights = []
    for i in range(n):
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t * (1 - t))) for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, by nearest rank; the maximum if there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = 100 * (n - 10) // n
    rank = -(-p * n // 100)
    return p, xs[rank - 1]


class Runner:
    """Runs CLI children one at a time and keeps per-child wall time and
    peak RSS (``os.wait4``; RUSAGE_CHILDREN would mix all children)."""

    def __init__(self, root, workdir):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cwd = root
        self.out_path = os.path.join(workdir, "child.out")
        self.err_path = os.path.join(workdir, "child.err")
        self.peak_rss_kb = 0

    def run(self, argv):
        """(exit code, wall seconds, stdout bytes)."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "svaudit.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.cwd, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(self.out_path, "rb") as fp:
            return proc.returncode, wall, fp.read()


def check_cycles(work, cycles, outputs):
    """Number of failed operations and the first few failure reasons. An op
    fails if its child exited nonzero or a check of its cycle failed; a
    failed check fails every op of its cycle."""
    failed, reasons = 0, []
    for i, (ops, outs) in enumerate(zip(cycles, outputs)):
        bad = [op.kind for op, (code, _) in zip(ops, outs) if code != 0]
        if not bad:
            try:
                work.check_cycle(ops, [o for _, o in outs], oracle=i == 0)
                continue
            except (workloads.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
                reasons.append(f"cycle {i}: {type(exc).__name__}: {exc}")
                failed += len(ops)
                continue
        reasons.append(f"cycle {i}: nonzero exit of {bad}")
        failed += len(bad)
    return failed, reasons[:5]


def digest(outputs, ncycles):
    h = hashlib.sha256()
    for outs in outputs[:ncycles]:
        for _, out in outs:
            h.update(out)
    return h.hexdigest()


def run_setup(work, runner, prefix=""):
    """One pass of the workload's set-up calls: (wall seconds, failures)."""
    total, failed = 0.0, 0
    for argv in work.setup_argvs(prefix):
        code, wall, _ = runner.run(argv)
        failed += code != 0
        total += wall
    return total, failed


def same_setup_outputs(work):
    """Whether the last set-up repeat wrote the same bytes as the first."""
    for _, out in work.setup_steps():
        with open(work.path(out), "rb") as a, open(work.path(REPEAT_PREFIX + out), "rb") as b:
            if a.read() != b.read():
                return False
    return True


def run_untraced(work, runner, seconds):
    # The first set-up writes the model files the cycles read and warms the
    # caches; it is not timed. The timed repeats are spread evenly over the
    # run, so that set-up is measured under the same host load as the calls.
    _, setup_failed = run_setup(work, runner)
    slots = [seconds * (k + 0.5) / SETUP_REPEATS for k in range(SETUP_REPEATS)]
    setup_walls = []

    def setup_repeat():
        nonlocal setup_failed
        wall, bad = run_setup(work, runner, REPEAT_PREFIX)
        setup_walls.append(wall)
        setup_failed += bad

    cycles, outputs, walls = [], [], {"scan": [], "explain": [], "adversarial": []}
    scanned = 0
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        if len(setup_walls) < SETUP_REPEATS and time.perf_counter() - start >= slots[len(setup_walls)]:
            setup_repeat()
        ops = work.cycle(len(cycles))
        outs = []
        for op in ops:
            code, wall, out = runner.run(op.argv)
            walls[op.kind].append(wall)
            scanned += op.sample
            outs.append((code, out))
        cycles.append(ops)
        outputs.append(outs)
    while len(setup_walls) < SETUP_REPEATS:  # a run shorter than its slots
        setup_repeat()
    setup_reasons = []
    if not setup_failed and not same_setup_outputs(work):
        setup_failed = SETUP_REPEATS * len(work.setup_steps())
        setup_reasons.append("set-up: a repeat wrote other bytes than the first set-up")

    failed, reasons = check_cycles(work, cycles, outputs)
    failed += setup_failed
    reasons = setup_reasons + reasons
    attempted = sum(len(ops) for ops in cycles) + (SETUP_REPEATS + 1) * len(work.setup_steps())
    metrics = {
        "setup_s": (hd_median(setup_walls), "s"),
        "scan_ips": (scanned / sum(walls["scan"]), "1/s"),
    }
    info = {"setup_walls_s": setup_walls,
            "setup_sample_median_s": statistics.median(setup_walls),
            "failures": reasons, "failed_frac": failed / attempted,
            "digest_cycles": min(len(outputs), TRACE_CYCLES[work.name]),
            "digest": digest(outputs, TRACE_CYCLES[work.name])}
    for kind in ("explain", "adversarial"):
        p, value = tail(walls[kind])
        metrics[f"{kind}_p50_s"] = (hd_median(walls[kind]), "s")
        info[f"{kind}_sample_median_s"] = statistics.median(walls[kind])
        metrics[f"{kind}_tail_s"] = (value, "s")
        info[f"{kind}_tail"] = {"percentile": p, "samples": len(walls[kind])}
    info["scan_calls"] = len(walls["scan"])
    info["scan_instances"] = scanned
    metrics["peak_rss_mb"] = (runner.peak_rss_kb / 1024, "MB")
    return metrics, info, attempted, failed


def replay(work, ncycles, tracer=None):
    """Set-up and the first ncycles cycles in-process through cli.main;
    returns (wall seconds, set-up failures, cycles, outputs)."""
    from svaudit import cli
    cycles = [work.cycle(i) for i in range(ncycles)]
    outputs = []
    start = time.perf_counter()
    setup_failed = sum(_call(cli, argv, tracer, -1 - k)[0] != 0
                       for k, argv in enumerate(work.setup_argvs()))
    for i, ops in enumerate(cycles):
        outs = []
        for j, op in enumerate(ops):
            outs.append(_call(cli, op.argv, tracer, i * len(ops) + j))
        outputs.append(outs)
    return time.perf_counter() - start, setup_failed, cycles, outputs


def _call(cli, argv, tracer, op_id):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = cli.main(list(argv))
        else:
            tracer.op = op_id
            code = tracer.call(f"cli.{argv[0]}", cli.main, (list(argv),), {})
    return code, out.getvalue().encode()


def cli_import_s(runner):
    walls = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import svaudit.cli"], check=True,
                       cwd=runner.cwd, env=runner.env)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def run_traced(work, runner, ncycles):
    from tracing import Tracer
    plain_wall, *_ = replay(work, ncycles)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, setup_failed, cycles, outputs = replay(work, ncycles, tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(work.path("spans.jsonl"))
    failed, reasons = check_cycles(work, cycles, outputs)
    failed += setup_failed
    silent = sorted(name for name in work.layers if not tracer.calls.get(name))
    if silent:
        raise RuntimeError(f"wrapped functions saw no calls on {work.name}: {silent}")
    metrics = {name: (value, unit) for name, value, unit in tracer.metrics()}
    metrics["cli.import_s"] = (cli_import_s(runner), "s")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    info = {"failures": reasons, "spans": len(tracer.spans),
            "digest_cycles": ncycles, "digest": digest(outputs, ncycles)}
    return metrics, info, sum(len(ops) for ops in cycles) + len(work.setup_argvs()), failed


def machine_info(root, seed):
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {"nproc": os.cpu_count(), "cpu": cpu, "loadavg": os.getloadavg(),
            "python": platform.python_version(), "commit": _commit(root), "seed": seed}


def _commit(root):
    """HEAD of a git checkout, read from .git without running git; None in
    a plain copy of the tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            return next((line.split()[0] for line in fp if line.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


def run(workload, seed, seconds, trace, root, trace_cycles=None):
    """Runs one workload; returns (result, info). ``trace_cycles`` shortens
    the traced replay (the benchmark's own test runs it tiny)."""
    workdir = os.path.join(root, ".bench_work", f"{workload}-{seed}-{'traced' if trace else 'plain'}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for path in (os.path.join(root, "tests"), os.path.join(root, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    info = machine_info(root, seed)
    info["workload"] = workload
    work = workloads.WORKLOADS[workload](seed, workdir)
    work.prepare()
    runner = Runner(root, workdir)
    if trace:
        metrics, more, attempted, failed = run_traced(
            work, runner, trace_cycles or TRACE_CYCLES[workload])
    else:
        metrics, more, attempted, failed = run_untraced(work, runner, seconds)
    info.update(more)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    for need in ("src/svaudit/cli.py", "tests/oracle.py"):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"bench: {need} not found; run from the root of an svaudit checkout",
                  file=sys.stderr)
            return 2
    result, info = run(args.workload, args.seed, args.seconds, args.trace, root)
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
