"""Shared plumbing of the benchmark: the query mix, statistics, the
reference-speed clock, /proc readings, the child-process registry and
the oracle call."""

from __future__ import annotations

import ctypes
import errno
import gc
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: scratch space for corpora, snapshots, data directories and span
#: logs; every run makes its own subdirectory and removes it.
WORK_ROOT = ROOT / ".perfbench_work"

EXPERIMENT_QUERIES = ("Q5", "Q8", "Q12", "Q14", "Q17")
POINT_QUERIES = ("Q5", "Q8", "Q12")
SCAN_QUERIES = ("Q14", "Q17")
#: Q17's search term is drawn per round from the planted vocabulary.
SEARCH_WORDS = tuple(f"word_{k}" for k in range(1, 11))

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def require_program() -> None:
    """Exit with an error when the program's sources are not beside the
    benchmark (a checkout holding only the benchmark itself)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_workdir() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def remove_workdir(workdir: Path) -> None:
    """Remove a run's scratch directory, and the scratch root once no
    other run uses it."""
    remove_tree(workdir)
    try:
        WORK_ROOT.rmdir()
    except OSError:         # another run's directory is still there
        pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


#: share of the values dropped at each end by :func:`trimmed_mean`.
TRIM = 0.1


def trimmed_mean(values) -> float:
    """The mean of ``values`` without the lowest and highest ``TRIM``.

    Latencies here are mixtures (a round's point key, an update meeting
    the other connection's request or a batch fsync), and their median
    can sit between two modes, where a small shift of the mixture moves
    it far.  The trimmed mean weighs every mode by its share and still
    drops the rare stall."""
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return float(sum(kept) / len(kept))


def percentile(values, share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    rank = math.ceil(round(share * len(ordered), 6))
    return float(ordered[min(max(rank, 1), len(ordered)) - 1])


def round_means(rounds: list[dict], qids) -> list[float]:
    """Per round, the mean latency of the requests whose qid is in
    ``qids`` (``rounds`` holds ``{qid: [seconds, ...]}`` dicts)."""
    out = []
    for latencies in rounds:
        picked = [s for qid in qids for s in latencies.get(qid, ())]
        if picked:
            out.append(sum(picked) / len(picked))
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- /proc readings -----------------------------------------------------------

def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise OSError(f"no VmHWM for pid {pid}")


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (from the /proc parent links)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        parents.setdefault(ppid, []).append(int(entry))
    out, stack = [], [pid]
    while stack:
        for child in parents.get(stack.pop(), ()):
            out.append(child)
            stack.append(child)
    return out


def become_subreaper() -> None:
    """Adopt orphaned descendants (shard workers, the multiprocessing
    resource tracker) so they can be waited for after their parent
    exits.  Best effort: without it, waiting falls back to polling."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)      # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap(pid: int) -> None:
    """Collect the exit status of an adopted descendant that ended
    (a no-op for processes that are not our children)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass


def wait_gone(pids, timeout: float) -> bool:
    """Wait until every pid in ``pids`` has ended; True on success."""
    deadline = time.monotonic() + timeout
    pending = set(pids)
    while pending:
        for pid in pending:
            _reap(pid)
        pending = {pid for pid in pending if _alive(pid)}
        if not pending:
            break
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


class Children:
    """Every process the benchmark starts, so each can be waited for
    (clean path) or killed with its whole tree (error path)."""

    def __init__(self) -> None:
        self._procs: list[subprocess.Popen] = []
        self._seen: set[int] = set()

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=child_env(), cwd=str(ROOT),
                                **kwargs)
        self._procs.append(proc)
        return proc

    def note_tree(self, proc: subprocess.Popen) -> list[int]:
        """Remember ``proc``'s current descendants for later waits."""
        tree = descendants(proc.pid)
        self._seen.update(tree)
        return tree

    def finish(self, proc: subprocess.Popen, timeout: float = 60.0) -> int:
        """Wait for ``proc`` and every descendant noted for it; raise
        when any outlives ``timeout``."""
        self.note_tree(proc)
        code = proc.wait(timeout=timeout)
        # Descendants orphaned before they were noted were adopted by
        # this (subreaper) process: wait for those too.
        others = {p.pid for p in self._procs if p is not proc}
        self._seen.update(set(descendants(os.getpid())) - others)
        if not wait_gone(self._seen, timeout):
            raise RuntimeError(f"descendants of pid {proc.pid} outlived it")
        if proc in self._procs:      # kill_all may have run already
            self._procs.remove(proc)
        self._seen.clear()
        return code

    def kill_all(self) -> None:
        """Error path: kill every started process and its tree, wait."""
        victims = set(self._seen)
        for proc in self._procs:
            victims.add(proc.pid)
            victims.update(descendants(proc.pid))
        for pid in victims:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError as exc:
                if exc.errno != errno.ESRCH:
                    raise
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        wait_gone(victims, 10.0)
        self._procs.clear()
        self._seen.clear()


def run_oracle(children: Children, workdir: Path, corpora: dict,
               requests: list, writes: list = ()) -> list:
    """Answer ``requests`` in the oracle's own process, which also
    checks that ``writes`` leave every answer unchanged."""
    request_path = workdir / "oracle_request.json"
    answer_path = workdir / "oracle_answers.json"
    request_path.write_text(json.dumps({"corpora": corpora,
                                        "requests": requests,
                                        "writes": list(writes)}))
    proc = children.spawn([sys.executable, str(BENCH_DIR / "oracle.py"),
                           str(request_path), str(answer_path)])
    if children.finish(proc, timeout=120.0) != 0:
        raise RuntimeError("oracle process failed")
    return json.loads(answer_path.read_text())


#: duration of one probe at reference speed.  Times this benchmark
#: reports are converted to this host speed (see :class:`RefClock`).
PROBE_REFERENCE_S = 0.010
#: probe runs per speed sample (their median is the sample).
PROBE_RUNS = 3
#: process round trips in one run of the cross-process probe, and
#: their duration at reference speed.
ROUND_TRIPS = 800
ROUND_TRIP_REFERENCE_S = 0.010


def _probe_work() -> int:
    """A fixed slice of interpreter work like the program's own: build
    a tree of dicts, walk it, join strings."""
    nodes = [{"tag": "root", "kids": [], "text": ""}]
    for number in range(1, 9000):
        node = {"tag": f"n{number % 37}", "kids": [], "text": str(number)}
        nodes[number // 4]["kids"].append(node)
        nodes.append(node)
    total, stack = 0, [nodes[0]]
    while stack:
        node = stack.pop()
        total += len(node["text"]) + len(node["tag"])
        stack.extend(node["kids"])
    return total + len("".join(node["tag"] for node in nodes))


class Echo:
    """A child process that echoes bytes back: the far end of the
    reference clock's cross-process probe."""

    def __init__(self, children: "Children | None" = None) -> None:
        self._children = children
        spawn = children.spawn if children is not None else subprocess.Popen
        self._proc = spawn([sys.executable, str(BENCH_DIR / "echo.py")],
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                           bufsize=0)

    def round_trips(self, count: int) -> None:
        send, receive = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        for __ in range(count):
            os.write(send, b"x")
            if not os.read(receive, 1):
                raise RuntimeError("echo helper exited")

    def close(self) -> None:
        self._proc.stdin.close()
        if self._children is not None:
            self._children.finish(self._proc, timeout=30)
        else:
            self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self) -> "Echo":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class RefClock:
    """Wall time converted to reference host speed.

    On a shared host the speed of the same instructions drifts by tens
    of percent over seconds.  A fixed probe, run with the collector off
    right before and right after each timed span, measures the speed of
    the moment; the span's wall time is scaled by the probe's reference
    duration over the mean of the two probes around it.

    The probe is pure-Python work.  With an :class:`Echo` it also times
    ``ROUND_TRIPS`` round trips to that process, because work split
    across processes (a server, its shard workers, a recovery) also
    waits on wake-ups that the compute probe does not see.
    """

    def __init__(self, echo: Echo | None = None) -> None:
        self.echo = echo
        self.reference = PROBE_REFERENCE_S + (
            ROUND_TRIP_REFERENCE_S if echo is not None else 0.0)
        self.samples: list[float] = []

    def _median_of_runs(self, work) -> float:
        runs = []
        for __ in range(PROBE_RUNS):
            began = time.perf_counter()
            work()
            runs.append(time.perf_counter() - began)
        return median(runs)

    def probe(self) -> float:
        """One speed sample: the median of ``PROBE_RUNS`` runs of each
        probe, summed."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            sample = self._median_of_runs(_probe_work)
            if self.echo is not None:
                sample += self._median_of_runs(
                    lambda: self.echo.round_trips(ROUND_TRIPS))
        finally:
            if enabled:
                gc.enable()
        self.samples.append(sample)
        return sample

    def mark(self) -> None:
        """Probe right before a timed span."""
        self.probe()

    def factor(self) -> float:
        """Probe after a span; the scale from its wall time to
        reference seconds (the span began at the previous probe)."""
        before = self.samples[-1]
        after = self.probe()
        return 2 * self.reference / (before + after)

    def timed(self, func, *args):
        """Run ``func`` between two probes; returns (result, reference
        seconds)."""
        self.mark()
        began = time.perf_counter()
        result = func(*args)
        elapsed = time.perf_counter() - began
        return result, elapsed * self.factor()


def rng_for(seed: int, stream: str) -> random.Random:
    """A deterministic random stream per (seed, purpose)."""
    return random.Random(f"{seed}/{stream}")
