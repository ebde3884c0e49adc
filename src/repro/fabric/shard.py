"""One fabric shard: its on-disk spool layout and process handle.

A shard is a ``python -m repro serve`` process bound to its own spool
directory under ``<fabric-root>/shards/<shard-id>/``. Everything the
fabric knows about a shard it learns from that directory:

* ``inbox/``   — requests routed to it, not yet claimed;
* ``claimed/<shard-id>/`` — requests it owns but has not answered
  (the zero-loss window the supervisor re-homes after a kill);
* ``outbox/``  — finished results awaiting the router's forwarding;
* ``journal/`` — the service's write-ahead journal (accepted solves);
* ``status.json`` — SLO snapshot + heartbeat, republished when what
  it reports changes and at least every 0.5 s; its ``heartbeat_t``
  going stale is how death is detected even when the process object
  is not ours to poll.

:class:`ShardHandle` wraps both halves — the directory protocol and an
optional owned subprocess — so the supervisor treats spawned and
externally-started shards uniformly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: serve processes under a supervisor never idle out on their own; the
#: supervisor owns their lifecycle through stop files and signals
_SUPERVISED_IDLE_TIMEOUT = 86400.0


class ShardPaths:
    """The spool-directory layout of one shard."""

    def __init__(self, spool) -> None:
        self.spool = Path(spool)
        self.inbox = self.spool / "inbox"
        self.outbox = self.spool / "outbox"
        self.claimed_root = self.spool / "claimed"
        self.journal = self.spool / "journal"
        self.cache = self.spool / "cache"
        self.tsdb = self.spool / "tsdb"
        self.status = self.spool / "status.json"
        self.stop = self.spool / "serve.stop"
        self.log = self.spool / "serve.log"

    def claim_dir(self, shard_id: str) -> Path:
        return self.claimed_root / shard_id

    def ensure(self) -> "ShardPaths":
        for d in (self.inbox, self.outbox, self.claimed_root, self.journal):
            d.mkdir(parents=True, exist_ok=True)
        return self

    # ------------------------------------------------------------------
    def inbox_depth(self) -> int:
        """Routed-but-unclaimed requests (the work-stealing pool)."""
        return sum(1 for _ in self.inbox.glob("*.ups"))

    def claimed_depth(self) -> int:
        """Claimed-but-unanswered requests, across every claimant id."""
        if not self.claimed_root.is_dir():
            return 0
        return sum(1 for _ in self.claimed_root.glob("*/*.ups"))

    def claim_dirs(self) -> List[Path]:
        if not self.claimed_root.is_dir():
            return []
        return sorted(p for p in self.claimed_root.iterdir() if p.is_dir())

    def journal_entries(self) -> List[Path]:
        if not self.journal.is_dir():
            return []
        return sorted(self.journal.glob("*.json"))


class ShardHandle:
    """One shard: directory protocol + (optionally) its process."""

    def __init__(
        self,
        shard_id: str,
        spool,
        workers: int = 1,
        backend: str = "thread",
        tsdb_interval_s: float = 0.5,
        max_queue: int = 256,
    ) -> None:
        self.shard_id = shard_id
        self.paths = ShardPaths(spool)
        self.workers = int(workers)
        self.backend = backend
        self.tsdb_interval_s = float(tsdb_interval_s)
        self.max_queue = int(max_queue)
        self.proc: Optional[subprocess.Popen] = None
        self._log_fh = None
        self.draining = False
        self.restarts = 0
        self.spawned_at: Optional[float] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def serve_argv(self) -> List[str]:
        return [
            sys.executable, "-m", "repro", "serve",
            "--spool", str(self.paths.spool),
            "--shard-id", self.shard_id,
            "--workers", str(self.workers),
            "--backend", self.backend,
            "--journal", str(self.paths.journal),
            "--cache-dir", str(self.paths.cache),
            "--idle-timeout", str(_SUPERVISED_IDLE_TIMEOUT),
            "--stop-file", str(self.paths.stop),
            "--tsdb-interval", str(self.tsdb_interval_s),
            "--max-queue", str(self.max_queue),
        ]

    def spawn(self) -> subprocess.Popen:
        """Start (or restart) the serve process for this shard."""
        self.paths.ensure()
        try:
            self.paths.stop.unlink()  # a stale stop file would kill it at birth
        except OSError:
            pass
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        self._close_log()
        self._log_fh = self.paths.log.open("a", encoding="utf-8")
        self.proc = subprocess.Popen(
            self.serve_argv(), stdout=self._log_fh,
            stderr=subprocess.STDOUT, env=env,
        )
        if self.spawned_at is not None:
            self.restarts += 1
        self.spawned_at = time.time()
        self.draining = False
        return self.proc

    def process_dead(self) -> bool:
        """True when we own a process object and it has exited."""
        return self.proc is not None and self.proc.poll() is not None

    def request_stop(self) -> None:
        """Ask the serve loop to drain and exit (graceful retire)."""
        self.paths.stop.touch()

    def kill(self) -> None:
        """SIGKILL the process, if we own one (the drill's hammer)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        if self.proc is None:
            return None
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        self._close_log()
        return code

    def _close_log(self) -> None:
        if self._log_fh is not None:
            try:
                self._log_fh.close()
            except OSError:
                pass
            self._log_fh = None

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def status(self) -> Optional[dict]:
        """The shard's last published status.json, or None."""
        try:
            return json.loads(self.paths.status.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def heartbeat_age(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the shard last proved liveness; None when it
        has never published a status."""
        now = time.time() if now is None else now
        status = self.status()
        if status is not None and isinstance(
            status.get("heartbeat_t"), (int, float)
        ):
            return max(0.0, now - float(status["heartbeat_t"]))
        try:
            return max(0.0, now - self.paths.status.stat().st_mtime)
        except OSError:
            return None

    def backlog(self) -> int:
        """Pending requests at this shard: routed + claimed + queued
        inside the service (from its own status report)."""
        depth = self.paths.inbox_depth() + self.paths.claimed_depth()
        status = self.status()
        if status is not None:
            depth += int(status.get("queue_depth") or 0)
        return depth

    def burn_rate(self) -> float:
        """Worst endpoint error-budget burn from the last status."""
        status = self.status()
        if status is None:
            return 0.0
        budget = (status.get("policy") or {}).get("error_budget") or 0.02
        worst = 0.0
        for ep in (status.get("endpoints") or {}).values():
            rate = ep.get("error_rate")
            if isinstance(rate, (int, float)) and budget > 0:
                worst = max(worst, float(rate) / budget)
        return worst
