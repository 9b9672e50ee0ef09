"""grmjacobi benchmark: run one workload through the real CLI, check its
output against golden digests, and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both workloads are closed-loop batch jobs driven by this one process: a
repetition runs the workload's commands one after another, each in a fresh
interpreter (launch.py), so module caches, value tables and field tables
start cold as they do for a CLI user.  Repetitions continue until S seconds
have passed.  scan-3e6 exercises the conjecture layer and leaves the others
idle; verify-census exercises field, grm, jacobi, designs, checks and, in
its one command with two workers, _parallel, and leaves conjecture idle.

The timings are minima over the run, not medians: wall_s and cpu_s add up
each command's fastest run, first_output_s is the fastest first byte and
setup_s the fastest of SETUP_PROBES bare start-ups spread over the run.
peak_rss_mib is the median repetition's.  On the shared 2-CPU host this was
built on, co-tenants slow every process by 20 to 80 % in phases lasting from
seconds to minutes.  Ten 20 s runs of `scan --bound 3e6` spread 13 %
between quartiles when each run reported its median repetition, and 8 %
with its minimum; a 15 s `scan --bound 1e7` repetition, one per run, spread
20 %; 25 s runs still spread up to 44 % when whole runs fell in a slow
phase.  So each command is kept to a few seconds, runs are long, and the
best of many is the figure least moved by the neighbours.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates plain and traced repetitions and reports the per-layer metrics,
the median over the traced ones, plus trace.overhead (traced wall_s over
plain wall_s).  The seed only orders the set-up probes and the
plain and traced repetitions; the workload inputs are fixed.

The last stdout line is one JSON object: correct, attempted, failed
(operations: scan records, verify check results or design verdicts) and
metrics.  The lines before it repeat each metric with its unit, fail_ratio
with its base, and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
LAUNCH = [sys.executable, str(HERE / "launch.py")]

SETUP_PROBES = 15
DEADLINE_S = 170.0  # the whole run must end well inside 180 s


@dataclass(frozen=True)
class Workload:
    base: str  # what an operation is, the base of fail_ratio
    commands: tuple[tuple[str, ...], ...]
    # Index pairs of commands whose stdout must be identical: output must
    # not depend on the worker count.
    same_output: tuple[tuple[int, int], ...] = ()

    @property
    def pooled(self) -> bool:
        """Whether a command asks for more than one worker process."""
        return any(a[a.index("--workers") + 1] != "1" for a in self.commands if "--workers" in a)


def _verify(p: str, k: str, m: str, workers: str) -> tuple[str, ...]:
    return ("verify", "--p", p, "--k", k, "--m", m, "--workers", workers)


def _design(*args: str) -> tuple[str, ...]:
    return ("design", "--method", "jacobi") + args


WORKLOADS = {
    "scan-3e6": Workload("scan records", (("scan", "--bound", "3e6", "--workers", "1"),)),
    "verify-census": Workload(
        "verify check results and design verdicts",
        (
            # DEFAULT_PAIRS of grmjacobi.checks less (3, 1, 3) and (5, 1, 2),
            # which take 8 to 10 s each (see the module docstring).
            _verify("2", "1", "2", "1"),
            _verify("2", "1", "3", "1"),
            _verify("3", "1", "2", "1"),
            _verify("2", "2", "2", "1"),
            _verify("2", "2", "2", "2"),
            # Middle shells l = (q - 1) q^(m - 1) over GF(5), GF(4) and GF(9).
            _design("--p", "5", "--m", "2", "--l", "20", "--t", "4"),
            _design("--p", "2", "--k", "2", "--m", "3", "--l", "48", "--t", "3"),
            _design("--p", "3", "--k", "2", "--m", "2", "--l", "72", "--t", "3"),
        ),
        same_output=((3, 4),),
    ),
}


@dataclass
class Command:
    """One finished CLI process."""

    stdout: bytes
    returncode: int | None  # None when it was killed at the deadline
    start: float  # time.monotonic() just before the spawn
    wall: float
    first_byte: float | None  # seconds from spawn to the first stdout byte
    cpu: float  # user + system, including reaped pool workers
    rss_mib: float  # peak resident set of the process or any worker


@dataclass
class Rep:
    traced: bool
    commands: list[Command] = field(default_factory=list)
    failed: int = 0
    spans: list[Path] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GRMJACOBI_WORKERS", None)  # `design` would read it
    return env


def spawn(argv: list[str], deadline: float) -> Command:
    """Run argv to completion, reading stdout as it arrives; kill its
    process group if the deadline passes first."""
    start = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    chunks, first_byte, killed = [], None, False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map() and not killed:
                remaining = deadline - time.monotonic()
                events = sel.select(timeout=remaining) if remaining > 0 else []
                if not events:
                    killed = True
                    os.killpg(proc.pid, signal.SIGKILL)
                for key, _ in events:
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        if first_byte is None:
                            first_byte = time.monotonic() - start
                        chunks.append(data)
                    else:
                        sys.stderr.buffer.write(data)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Command(
        stdout=b"".join(chunks),
        returncode=None if killed else proc.returncode,
        start=start,
        wall=time.monotonic() - start,
        first_byte=first_byte,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024,
    )


def setup_probe(argv: tuple[str, ...], deadline: float) -> float:
    """Seconds from spawning a fresh interpreter to grmjacobi imported and
    argv parsed, read on the monotonic clock the child and parent share."""
    start = time.monotonic()
    cmd = spawn(LAUNCH + ["--setup-only", "--", *argv], deadline)
    if cmd.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {cmd.returncode}")
    return float(cmd.stdout) - start


# -- golden outputs ------------------------------------------------------------


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def operations(subcommand: str, stdout: bytes) -> list[str]:
    """Split a command's stdout into the operations fail_ratio counts: scan
    records, verify check results or one design verdict."""
    if subcommand == "scan":
        return stdout.decode().splitlines()
    if subcommand == "verify":
        return [json.dumps(r) for r in json.loads(stdout)["results"]]
    return [stdout.decode()]


def golden_entry(subcommand: str, stdout: bytes) -> dict:
    ops = operations(subcommand, stdout)
    return {"sha256": digest(stdout), "ops": [digest(op)[:16] for op in ops]}


def load_golden() -> dict:
    golden = json.loads(GOLDEN.read_text())
    for name, wl in WORKLOADS.items():
        for i, j in wl.same_output:
            if golden["workloads"][name][i] != golden["workloads"][name][j]:
                raise RuntimeError(f"{name}: golden outputs of commands {i} and {j} differ")
    return golden


def failed_ops(subcommand: str, golden: dict, cmd: Command) -> int:
    """Golden operations this command did not reproduce; an exit code other
    than 0 or output that does not parse fails all of them."""
    ops = golden["ops"]
    if cmd.returncode != 0:
        return len(ops)
    if digest(cmd.stdout) == golden["sha256"]:
        return 0
    try:
        got = [digest(op)[:16] for op in operations(subcommand, cmd.stdout)]
    except (ValueError, KeyError, TypeError):
        return len(ops)
    bad = sum(1 for i, op in enumerate(ops) if i >= len(got) or got[i] != op)
    return max(bad, 1)


# -- one run -------------------------------------------------------------------


def run_rep(name: str, golden: list[dict], traced: bool, deadline: float) -> Rep:
    """Run the workload's commands once; a command killed at the deadline
    ends the repetition and fails every operation not yet checked."""
    wl = WORKLOADS[name]
    rep = Rep(traced)
    for i, (argv, gold) in enumerate(zip(wl.commands, golden)):
        if rep.commands and rep.commands[-1].returncode is None:
            rep.failed += len(gold["ops"])
            continue
        opts = []
        if traced:
            path = OUT / f"{name}.{i}.spans.jsonl"
            path.unlink(missing_ok=True)
            rep.spans.append(path)
            opts = ["--trace-out", str(path)]
        cmd = spawn(LAUNCH + opts + ["--", *argv], deadline)
        rep.commands.append(cmd)
        rep.failed += failed_ops(argv[0], gold, cmd)
    return rep


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    """wall_s and cpu_s add up each command's fastest run over `reps`."""
    runs = list(zip(*(r.commands for r in reps)))  # runs[i]: command i in every rep
    return {
        "wall_s": sum(min(c.wall for c in cmd) for cmd in runs),
        "cpu_s": sum(min(c.cpu for c in cmd) for cmd in runs),
        "first_output_s": min(_first_output(r) for r in reps),
        "peak_rss_mib": statistics.median(max(c.rss_mib for c in r.commands) for r in reps),
    }


def _first_output(rep: Rep) -> float:
    elapsed = 0.0
    for c in rep.commands:
        if c.first_byte is not None:
            return elapsed + c.first_byte
        elapsed += c.wall
    return elapsed


def per_layer(traced: list[Rep]) -> dict[str, float]:
    layers = [tracer.layer_metrics(r.spans) for r in traced]
    names = set().union(*layers)
    return {n: statistics.median(m.get(n, 0) for m in layers) for n in names}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Exit through spawn()'s clean-up, which kills the running command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "grmjacobi" / "cli.py").is_file():
        print(f"no grmjacobi sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden_all = load_golden()
    golden = golden_all["workloads"][args.workload]
    wl = WORKLOADS[args.workload]
    probe_argv = wl.commands[0]
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)

    setup_probe(probe_argv, deadline)  # fills the bytecode and file caches; not counted
    setup: list[float] = []
    reps: list[Rep] = []
    t0 = time.monotonic()
    while True:
        # One round: a set-up probe, a plain and maybe a traced repetition, in
        # seeded order, so the probes sample the whole run.
        tasks = ["probe", "plain"] + (["traced"] if args.trace else [])
        rng.shuffle(tasks)
        for task in tasks:
            if task != "probe":
                reps.append(run_rep(args.workload, golden, task == "traced", deadline))
            elif len(setup) < SETUP_PROBES:
                setup.append(setup_probe(probe_argv, deadline))
        if time.monotonic() - t0 >= args.seconds or any(r.failed for r in reps):
            break
    while len(setup) < SETUP_PROBES and time.monotonic() < deadline - 10:
        setup.append(setup_probe(probe_argv, deadline))

    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    e2e = end_to_end(plain)
    e2e["setup_s"] = min(setup)
    attempted = len(reps) * sum(len(g["ops"]) for g in golden)
    failed = sum(r.failed for r in reps)
    print(f"workload {args.workload}: {len(plain)} plain and {len(traced)} traced repetitions, "
          f"{len(setup)} set-up probes, seed {args.seed}")
    print(f"provenance: nproc {os.cpu_count()}, python {platform.python_version()}; "
          f"golden outputs from commit {golden_all['provenance']['commit']}")
    print(f"fail_ratio {failed}/{attempted} {wl.base}")

    values, wanted = e2e, spec["end_to_end"]
    if args.trace:
        values = {**e2e, **per_layer(traced)}
        values["trace.overhead"] = end_to_end(traced)["wall_s"] / e2e["wall_s"]
        wanted = spec["per_layer"]
        if wl.pooled:
            print("note: pool workers run in child processes; only parent-side spans are visible")
        print("spans: " + " ".join(str(p.relative_to(ROOT)) for p in traced[-1].spans))
    metrics = {}
    for m in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
        name = m["name"]
        if name not in values and not tracer.known_metric(name):
            raise RuntimeError(f"benchmark cannot measure {name}")
        value = values.get(name, 0)
        print(f"{name} {value!r} {m['unit']}")
        if m in wanted:
            metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
