"""Run one command as a process tree under a wall deadline.

The command starts in a session of its own, so every process it forks
shares one process group that a deadline kills in one signal.  This
process becomes a child subreaper, so grandchildren orphaned by that
kill are re-parented here and waited for: nothing the benchmark starts
outlives it, and their CPU time is still counted.

While the tree runs, a watcher thread samples each member's peak
resident set (``VmHWM``) from ``/proc``; a process's own figure is a
high-water mark, so sampling only has to see each process once it has
grown.  Linux only, like the ``/proc`` files it reads.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

_PR_SET_CHILD_SUBREAPER = 36
#: Seconds between samples of the tree's members and peak RSS.
SAMPLE_S = 0.1


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``prctl``); False if unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
    except OSError:
        return False
    prctl = libc.prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def _children(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
        except OSError:
            continue
        found.extend(int(child) for child in text.split())
    return found


def tree_pids(root: int) -> list[int]:
    """``root`` and every live descendant of it."""
    pids, queue = [], [root]
    while queue:
        pid = queue.pop()
        pids.append(pid)
        queue.extend(_children(pid))
    return pids


def peak_rss_kb(pid: int) -> int | None:
    """The process's peak resident set in KiB, or None once it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        return None
    return None


def _cpu_s(rusage) -> float:  # noqa: ANN001 - resource.struct_rusage
    return rusage.ru_utime + rusage.ru_stime


@dataclass
class TreeRun:
    """What one process tree did."""

    start: float  # time.monotonic() just before the spawn
    end: float  # time.monotonic() once the whole tree was reaped
    returncode: int  # negative: killed by that signal
    deadline_hit: bool
    cpu_s: float  # user+sys of every process of the tree
    root_pid: int
    #: Highest VmHWM seen per process, in KiB.
    peaks_kb: dict[int, int] = field(default_factory=dict)

    def peak_rss_mb(self, root_self_kb: int | None = None) -> float:
        """Sum of per-process peak RSS; ``root_self_kb`` overrides the
        root's sampled figure with its own exact ``getrusage`` value."""
        peaks = dict(self.peaks_kb)
        if root_self_kb is not None:
            peaks[self.root_pid] = max(root_self_kb, peaks.get(self.root_pid, 0))
        return sum(peaks.values()) / 1024.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_orphans(timeout_s: float = 10.0) -> float:
    """Wait for adopted orphans to end; returns their CPU seconds."""
    cpu, give_up = 0.0, time.monotonic() + timeout_s
    while True:
        try:
            pid, _status, rusage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return cpu
        if pid:
            cpu += _cpu_s(rusage)
        elif time.monotonic() > give_up:
            return cpu
        else:
            time.sleep(0.01)


def run_tree(
    argv: list[str],
    *,
    deadline_s: float,
    env: dict[str, str] | None = None,
    cwd: str | Path | None = None,
    stderr=None,  # noqa: ANN001 - file, or None to inherit
) -> TreeRun:
    """Run ``argv`` to completion or until ``deadline_s`` kills its tree.

    Its standard output is discarded.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=stderr,
        start_new_session=True,
    )
    peaks: dict[int, int] = {}
    killed = threading.Event()
    done = threading.Event()

    def watch() -> None:
        stop_at = start + deadline_s
        while not done.wait(SAMPLE_S):
            for pid in tree_pids(proc.pid):
                kb = peak_rss_kb(pid)
                if kb is not None and kb > peaks.get(pid, 0):
                    peaks[pid] = kb
            if time.monotonic() >= stop_at and not killed.is_set():
                killed.set()
                _kill_group(proc.pid)

    watcher = threading.Thread(target=watch, name="tree-watch", daemon=True)
    watcher.start()
    try:
        _pid, status, rusage = os.wait4(proc.pid, 0)
    finally:
        done.set()
        watcher.join()
        # Stragglers of a finished root (or of a killed one) go too.
        _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = _cpu_s(rusage) + _reap_orphans()
    return TreeRun(
        start=start,
        end=time.monotonic(),
        returncode=proc.returncode,
        deadline_hit=killed.is_set(),
        cpu_s=cpu,
        root_pid=proc.pid,
        peaks_kb=peaks,
    )
