"""The file-spool wire protocol, shared by serve, submit, and the fabric.

A spool directory is the no-network transport of this repo: requests
are ``inbox/<ticket>.ups`` files, results are ``outbox/<ticket>.npz``
plus a ``<ticket>.json`` sidecar whose existence is the completion
signal. This module is the single home of that protocol so the serve
loop, the submit client, and the fabric router all speak exactly the
same format:

* **Atomic publication** — requests and results appear via tmp-file +
  rename, so a reader never sees a partial file.
* **Atomic claiming** — consumers take ownership of a request by
  renaming it into their own ``claimed/<shard-id>/`` directory. POSIX
  rename succeeds for exactly one claimant, so two shards polling one
  inbox can never double-solve a request; the claimed file survives
  until the result is published, which is what lets a supervisor
  re-home a dead shard's accepted-but-unfinished work with zero loss.
* **In-band trace context** — the submitter's
  :class:`~repro.perf.tracectx.TraceContext` rides as a leading XML
  comment inside the request file itself (``<!-- repro:ctx {...} -->``),
  so one trace_id spans client, router, shard, and worker without a
  sidecar file that could race the claim rename.
* **Ring, then poll** — a rename notifies nobody, so each waiter holds
  a :class:`Bell`, a named pipe beside what it watches, and whoever
  publishes there rings it: :func:`write_request` (and the fabric's
  relays into an inbox) ring ``<spool>/inbox.bell``, which every serve
  on the spool holds; :func:`write_result` (and the relay into an
  outbox) ring ``outbox/<ticket>.bell``, which :func:`wait_result`
  holds. The files stay the protocol and a ring is only a hint: every
  wait is ``bell.wait(poll_delay(waited))``, so a lost or absent ring
  costs one poll — a tenth of the time already waited, between 0.5 ms
  and 50 ms — and a server nobody rings still wakes 20 times a second
  once idle for half a second. POSIX only, like the claim rename.
"""

from __future__ import annotations

import io
import json
import os
import re
import select
import stat
import time
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from repro.perf import tracectx
from repro.util.atomic import atomic_write_bytes, atomic_write_text

#: leading-comment carrier of the submitter's trace context; XML
#: parsers skip comments before the root element, so parse_ups never
#: sees it
_CTX_RE = re.compile(r"^\s*<!--\s*repro:ctx\s+(\{.*?\})\s*-->\s*", re.DOTALL)


def poll_delay(waited_s: float) -> float:
    """Seconds to wait before polling again, for a caller that has
    already waited ``waited_s``: a tenth of that, floored at 0.5 ms and
    capped at 50 ms. A pure function, so there is no back-off state to
    reset: "work arrived" is the caller measuring from a later instant.
    """
    return min(0.05, max(0.0005, 0.1 * waited_s))


class Bell:
    """A waiter's named pipe at ``path``, held open read-write and
    non-blocking. The holder is a writer too, so the pipe never reads
    EOF: an idle bell never reads as ready, whoever opened and closed
    the other end. Every holder blocked in :meth:`wait` wakes on a ring;
    one busy when it lands may find it drained, and falls back on its
    timeout."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        try:
            os.mkfifo(self.path)
        except FileExistsError:
            pass
        self._fd = os.open(self.path, os.O_RDWR | os.O_NONBLOCK)
        if not stat.S_ISFIFO(os.fstat(self._fd).st_mode):
            self.close()
            raise FileExistsError(f"{self.path} exists and is not a named pipe")

    def wait(self, timeout: float) -> bool:
        """Block until rung or for ``timeout`` seconds, then drain every
        ring that has arrived, so the next wait blocks again; True when
        there was one (a ring landing as the timeout expires counts)."""
        select.select([self._fd], [], [], timeout)
        rung = False
        try:
            while True:  # the holder is a writer: no EOF, only EAGAIN
                os.read(self._fd, 4096)
                rung = True
        except BlockingIOError:
            return rung

    def ring(self) -> None:
        """Ring from the holder's own side (a finished solve's callback)."""
        try:
            os.write(self._fd, b"\0")
        except OSError:
            pass  # a full pipe is already rung; a closed bell wakes nobody

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "Bell":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def ring(path: Path) -> None:
    """Ring the bell at ``path`` if anyone holds it. Silent when there is
    no bell, nobody holds it (ENXIO) or its pipe is full (already rung)."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
    except OSError:
        return
    try:
        if stat.S_ISFIFO(os.fstat(fd).st_mode):
            os.write(fd, b"\0")
    except OSError:
        pass
    finally:
        os.close(fd)


def inbox_bell(inbox: Path) -> Path:
    """``<spool>/inbox.bell``: beside the inbox, so no glob of it sees it."""
    return inbox.with_name(inbox.name + ".bell")


def result_bell(outbox: Path, ticket: str) -> Path:
    return outbox / f"{ticket}.bell"


def embed_ctx(text: str, ctx: Optional[tracectx.TraceContext]) -> str:
    """Prefix UPS text with an in-band trace-context comment."""
    if ctx is None:
        return text
    return f"<!-- repro:ctx {json.dumps(ctx.as_dict())} -->\n{text}"


def extract_ctx(text: str) -> Tuple[str, Optional[tracectx.TraceContext]]:
    """Split request text into (UPS body, carried context or None).

    A malformed context comment is dropped rather than failing the
    request — tracing is observability, never a correctness gate.
    """
    match = _CTX_RE.match(text)
    if match is None:
        return text, None
    body = text[match.end():]
    try:
        ctx = tracectx.TraceContext.from_dict(json.loads(match.group(1)))
    except (ValueError, KeyError, TypeError):
        return body, None
    return body, ctx


# ----------------------------------------------------------------------
# request side
# ----------------------------------------------------------------------
def write_request(
    inbox: Path,
    ticket: str,
    text: str,
    ctx: Optional[tracectx.TraceContext] = None,
) -> Path:
    """Publish one request atomically and ring the inbox's servers;
    returns the inbox path."""
    inbox.mkdir(parents=True, exist_ok=True)
    target = inbox / f"{ticket}.ups"
    atomic_write_text(target, embed_ctx(text, ctx))
    ring(inbox_bell(inbox))
    return target


def claim_request(path: Path, claim_dir: Path) -> Optional[Path]:
    """Atomically claim an inbox request by renaming it into
    ``claim_dir``; returns the claimed path, or None when another
    consumer won the race (or the file vanished)."""
    target = claim_dir / path.name
    try:
        path.rename(target)
    except OSError:
        return None
    return target


def release_claims(claim_dir: Path, inbox: Path) -> int:
    """Move every claimed-but-unfinished request back into an inbox —
    the warm-restart sweep (same shard id restarting) and the
    supervisor's re-home path both use this. Returns the count moved."""
    moved = 0
    if not claim_dir.is_dir():
        return moved
    inbox.mkdir(parents=True, exist_ok=True)
    for path in sorted(claim_dir.glob("*.ups")):
        try:
            path.rename(inbox / path.name)
        except OSError:
            continue  # concurrent sweep got it first
        moved += 1
    if moved:
        ring(inbox_bell(inbox))
    return moved


def move_requests(src_inbox: Path, dst_inbox: Path, limit: Optional[int] = None):
    """Re-route unclaimed requests between inboxes by atomic rename
    (the router's work-stealing move). A request the source shard
    claims mid-steal simply wins its rename race and stays put.
    Returns the list of moved tickets."""
    moved = []
    if not src_inbox.is_dir():
        return moved
    dst_inbox.mkdir(parents=True, exist_ok=True)
    for path in sorted(src_inbox.glob("*.ups")):
        if limit is not None and len(moved) >= limit:
            break
        try:
            path.rename(dst_inbox / path.name)
        except OSError:
            continue
        moved.append(path.stem)
    if moved:
        ring(inbox_bell(dst_inbox))
    return moved


# ----------------------------------------------------------------------
# result side
# ----------------------------------------------------------------------
def write_result(outbox: Path, ticket: str, result=None, error=None) -> None:
    """npz first, JSON sidecar last — the sidecar's existence is the
    submitter's completion signal, and both publish atomically — then
    ring the ticket's bell."""
    if result is not None:
        # stored, not deflated: a Monte Carlo divq field shrinks 6 %
        # for a millisecond of zlib on every result
        buf = io.BytesIO()
        np.savez(buf, divq=result.divq)
        atomic_write_bytes(outbox / f"{ticket}.npz", buf.getvalue())
        meta = {
            "fingerprint": result.fingerprint,
            "cache_hit": result.cache_hit,
            "coalesced": result.coalesced,
            "rays_traced": result.rays_traced,
            "latency_s": result.latency_s,
            "worker": result.worker,
            "error": None,
        }
    else:
        meta = {"error": error}
    atomic_write_text(outbox / f"{ticket}.json", json.dumps(meta))
    ring(result_bell(outbox, ticket))


def read_result_meta(outbox: Path, ticket: str) -> Optional[dict]:
    """The result sidecar for a ticket, or None while it's pending."""
    path = outbox / f"{ticket}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def wait_result(
    outbox: Path,
    ticket: str,
    deadline: float,
    alive: Optional[Callable[[], bool]] = None,
) -> Optional[dict]:
    """Wait for a ticket's sidecar on the ticket's bell: read at once,
    then after each ring or :func:`poll_delay` of the time spent waiting
    here, whichever comes first. The bell exists before the first read,
    so a result published later rings it. Returns None once ``deadline``
    (on ``time.monotonic``) has passed or ``alive()`` has turned false;
    a server that published on its way out is still read. The bell is
    removed on every exit."""
    began = time.monotonic()
    outbox.mkdir(parents=True, exist_ok=True)
    bell = Bell(result_bell(outbox, ticket))
    try:
        while True:
            meta = read_result_meta(outbox, ticket)
            if meta is not None:
                return meta
            if alive is not None and not alive():
                return read_result_meta(outbox, ticket)
            now = time.monotonic()
            if now > deadline:
                return None
            bell.wait(poll_delay(now - began))
    finally:
        bell.close()
        bell.path.unlink(missing_ok=True)


def forward_results(src_outbox: Path, dst_outbox: Path) -> int:
    """Relay completed results between outboxes (shard outbox to the
    fabric's front outbox). The payload moves before its sidecar so the
    destination never signals completion for a missing payload; each
    relayed ticket's bell is rung there. Returns the number forwarded."""
    forwarded = 0
    if not src_outbox.is_dir():
        return forwarded
    dst_outbox.mkdir(parents=True, exist_ok=True)
    for sidecar in sorted(src_outbox.glob("*.json")):
        npz = sidecar.with_suffix(".npz")
        try:
            if npz.exists():
                npz.rename(dst_outbox / npz.name)
            sidecar.rename(dst_outbox / sidecar.name)
        except OSError:
            continue
        ring(result_bell(dst_outbox, sidecar.stem))
        forwarded += 1
    return forwarded
