"""Fresh child processes, timed from spawn, and the statistics over them."""

from __future__ import annotations

import os
import pathlib
import select
import signal
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Scratch space of every run (caches, checkpoints, ledgers, traces).
WORK = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


def child_env() -> dict:
    """The environment of every program process: ``src`` importable,
    hashing fixed, numeric libraries single-threaded."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """A program process whose stdout lines are timed from its spawn.

    stderr goes to ``log``; :meth:`finish` reaps the process with
    ``wait4`` so its peak resident set (``ru_maxrss``) is known.
    """

    def __init__(self, args: list[str], log: pathlib.Path) -> None:
        self._log = open(log, "wb")
        self.log_path = log
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            stdin=subprocess.DEVNULL,
            cwd=ROOT,
            env=child_env(),
        )
        self._buffer = b""
        self.peak_rss_mb: float | None = None

    def readline(self, timeout: float) -> tuple[str, float]:
        """The next stdout line and its arrival time since spawn [s]."""
        deadline = time.perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise BenchError(f"no output within {timeout:.0f}s ({self.tail()})")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(f"process exited early ({self.tail()})")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode().strip(), time.perf_counter() - self.start

    def expect(self, word: str, timeout: float) -> float:
        """Seconds from spawn until the line ``word`` arrived."""
        line, at = self.readline(timeout)
        if line != word:
            raise BenchError(f"expected {word!r}, got {line!r}")
        return at

    def finish(self, timeout: float) -> int:
        """Wait for exit (killing it after ``timeout``); the exit code."""
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode

    def terminate(self) -> None:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        """Last resort on an error path: stop and reap the process."""
        if self.proc.returncode is None:
            self.proc.kill()
            self.finish(30)

    def tail(self, lines: int = 5) -> str:
        self._log.flush()
        text = self.log_path.read_text(errors="replace").strip().splitlines()
        return " | ".join(text[-lines:]) or "no stderr"


def fastest_units(repetitions) -> float:
    """The sum over units of each unit's fastest repetition [s].

    ``repetitions`` holds one list of unit times per repetition, the
    same units in the same order.  The work is deterministic, and the
    host only ever slows it down, so a unit's fastest time is its least
    disturbed one (the minimum is the robust estimator for such noise:
    Chen & Revels, "Robust benchmarking in noisy environments", 2016).
    """
    return float(sum(min(unit) for unit in zip(*repetitions)))


def fastest_block(blocks, q: float) -> float:
    """The lowest ``q``-th percentile of any block of samples.

    A block is a burst of point reads made in a fraction of a second;
    the host's stalls come in clusters that spoil a few whole blocks, so
    the least disturbed block shows what the program itself costs.
    """
    return min(percentile(block, q) for block in blocks if block)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
