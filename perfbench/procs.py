"""Paths, child processes and process-tree memory for the benchmark.

Everything the benchmark writes lives under ``.perfbench/`` in the
checkout it runs from: per-run cache directories, the temp directory
handed to children (``TMPDIR``) and the traced run's span files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Seconds a child may run before it is killed and counted as failed.
CHILD_TIMEOUT = 150.0


def fresh_dir(kind: str) -> Path:
    """A new, empty directory under the work area."""
    path = WORK / f"{kind}-{uuid.uuid4().hex[:12]}"
    path.mkdir(parents=True)
    return path


def child_env(cache_dir: Path | None = None) -> dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(args: list[str], cache_dir: Path) -> dict:
    """Run ``perfbench/child.py`` with ``args``; its last stdout line parsed.

    Raises ``RuntimeError`` (with the child's stderr tail) when the child
    fails or prints no result.
    """
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(cache_dir),
        cwd=str(ROOT),
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"child {args[:1]} timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child {args[:1]} exited {proc.returncode}: {err[-2000:]}"
        )
    return json.loads(lines[-1])


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Peak resident memory of this process and all its descendants
# ----------------------------------------------------------------------
def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return out


#: Seconds between two memory samples.
RSS_INTERVAL_S = 0.1


def _pss_kb(pid: int) -> int:
    """Proportional set size: shared pages split between their sharers.

    Forked workers share most of their pages with the parent; summing
    plain RSS would count those pages once per process, and by an amount
    that drifts as copy-on-write breaks sharing.  A process that exits
    while it is read counts 0, never its plain RSS.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb() -> float:
    """Summed proportional resident memory of this process and all its
    descendants."""
    pending = [os.getpid()]
    total_kb = 0
    while pending:
        pid = pending.pop()
        total_kb += _pss_kb(pid)
        pending.extend(_children(pid))
    return total_kb / 1024.0


class RssSampler:
    """Samples :func:`tree_rss_mb` on a thread; ``peak_mb`` is the max.

    A reading counts toward the peak only once the next one confirms it
    (the peak is the highest level held for two consecutive samples): a
    snapshot taken while a process forks or exits can count its shared
    pages twice, and that glitch is not the program's memory.
    """

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._previous = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        current = tree_rss_mb()
        self.peak_mb = max(self.peak_mb, min(self._previous, current))
        self._previous = current

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(RSS_INTERVAL_S)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sample()
