"""Reproducible, decomposition-independent random streams.

RMCRT results must not depend on how the domain is decomposed into
patches or on execution order, so each (patch, purpose) pair gets its
own counter-derived stream, exactly as Uintah seeds its per-patch
Mersenne twisters from patch IDs.

NumPy's ``SeedSequence.spawn`` machinery provides statistically
independent child streams; we key children on stable integer tuples so
the same patch always receives the same stream regardless of which rank
owns it.

Key components may also be *names* (non-numeric identifier strings):
subsystems that need their own stream family — the spectral sampler's
per-patch wavelength draws must not perturb the ray stream, or the
gray and spectral solvers would stop being bit-comparable — register a
purpose name instead of inventing a magic integer. Names hash to
stable 62-bit integers (SHA-256 based, so identical across processes
and PYTHONHASHSEED values) and round-trip through
:meth:`RandomStreams.get_state` / :meth:`RandomStreams.set_state` the
same way integer keys do.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Tuple, Union

import numpy as np

from repro.util.errors import ReproError

#: a key component: a plain integer, or a non-numeric identifier string
KeyPart = Union[int, str]

#: the named stream family a patch draws its rays' wavelength bands from,
#: keyed ``(SPECTRAL_STREAM, patch_id)`` beside the patch's ray stream
#: ``(0, patch_id)``: the band draws never perturb the ray sequence, so a
#: gray-limit spectral solve is bit-identical to the gray one
SPECTRAL_STREAM = "spectral"


def _name_to_int(name: str) -> int:
    """Stable 62-bit integer for a stream name (process-independent)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 2


def _canonical_key(key: Iterable[KeyPart]) -> Tuple[KeyPart, ...]:
    """Validate and normalise a key path.

    Integers pass through; strings must be non-numeric identifiers so
    the serialized form (``str(part)``) parses back unambiguously —
    a name like ``"7"`` would collide with the integer key 7.
    """
    out = []
    for part in key:
        if isinstance(part, str):
            if not part or part.lstrip("-").isdigit():
                raise ReproError(
                    f"stream name {part!r} is empty or numeric; names must "
                    f"be identifiers so state keys stay unambiguous"
                )
            out.append(part)
        else:
            out.append(int(part))
    return tuple(out)


def spawn_stream(seed: int, *key: KeyPart) -> np.random.Generator:
    """A generator derived from ``seed`` and a key path of integers
    and/or names.

    The same (seed, key) always yields the same stream; distinct keys
    yield independent streams.
    """
    spawn_key = tuple(
        _name_to_int(k) if isinstance(k, str) else int(k)
        for k in _canonical_key(key)
    )
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


def advance(rng: np.random.Generator, doubles: int) -> np.random.Generator:
    """Move ``rng`` on, in place, as ``doubles`` draws of ``random()``
    would, and return it.

    The bit generator's own ``advance`` does the jump where it has one:
    PCG64 counts it in single 64-bit outputs, one a double; Philox in
    blocks of four, so the rest of the block in hand is skipped with it
    and the last few doubles past the jump are drawn. MT19937 and SFC64
    have no ``advance``: the doubles are drawn and dropped, a bounded
    block at a time. A stream only ever read as doubles ends exactly
    where drawing them leaves it.
    """
    bg = rng.bit_generator
    if isinstance(bg, np.random.Philox):
        in_hand = 4 - bg.state["buffer_pos"]
        if doubles > in_hand:
            blocks, doubles = divmod(doubles - in_hand, 4)
            bg.advance(blocks)
    elif hasattr(bg, "advance"):
        bg.advance(doubles)
        return rng
    while doubles > 0:
        rng.random(min(doubles, 1 << 16))
        doubles -= 1 << 16
    return rng


class RandomStreams:
    """A cache of per-key generators sharing one root seed.

    >>> streams = RandomStreams(seed=42)
    >>> g = streams.for_patch(patch_id=7)
    >>> g2 = streams.for_patch(patch_id=7)   # same object
    >>> g is g2
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._cache: Dict[Tuple[KeyPart, ...], np.random.Generator] = {}

    def get(self, *key: KeyPart) -> np.random.Generator:
        k = _canonical_key(key)
        gen = self._cache.get(k)
        if gen is None:
            gen = spawn_stream(self.seed, *k)
            self._cache[k] = gen
        return gen

    def for_patch(self, patch_id: int, purpose: int = 0) -> np.random.Generator:
        """Stream for a patch; ``purpose`` separates uses (rays vs noise)."""
        return self.get(purpose, patch_id)

    def named(self, name: str, *key: KeyPart) -> np.random.Generator:
        """Stream for a named purpose (e.g. ``named("spectral", patch_id)``).

        Named streams are independent of every integer-keyed stream, so
        a subsystem can add its own draws without shifting anyone
        else's sequence — the spectral sampler's requirement.
        """
        return self.get(name, *key)

    def fresh(self, *key: KeyPart) -> np.random.Generator:
        """A new generator for (seed, key), bypassing the cache.

        Used by tests that need to replay a stream from its start.
        """
        return spawn_stream(self.seed, *key)

    def invalidate(self, keys: Iterable[Tuple[KeyPart, ...]] = ()) -> None:
        if not keys:
            self._cache.clear()
        else:
            for k in keys:
                self._cache.pop(_canonical_key(k), None)

    # ------------------------------------------------------------------
    # state capture / restore (checkpoint support)
    # ------------------------------------------------------------------
    def get_state(self) -> dict:
        """JSON-able snapshot of every live stream's position.

        Checkpoint/restart needs streams to resume mid-sequence: a
        restored run must draw the exact values the uninterrupted run
        would have drawn. Keys that were never requested are absent —
        they spawn fresh on first use, exactly as in the original run.
        Named components serialize as their (non-numeric) identifier
        text, integers as digits, so the two never collide on restore.
        """
        return {
            "seed": self.seed,
            "streams": {
                ",".join(str(x) for x in key): _state_to_jsonable(
                    gen.bit_generator.state
                )
                for key, gen in self._cache.items()
            },
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot (inverse round-trip).

        Replaces the stream cache: snapshotted streams resume at their
        saved positions, everything else is forgotten (and will respawn
        deterministically from the root seed).
        """
        if int(state.get("seed", self.seed)) != self.seed:
            raise ReproError(
                f"RNG state was captured with seed {state['seed']}, this "
                f"RandomStreams has seed {self.seed}"
            )
        self._cache.clear()
        for key_s, gen_state in state.get("streams", {}).items():
            key = _parse_state_key(key_s)
            gen = spawn_stream(self.seed, *key)
            gen.bit_generator.state = _state_from_jsonable(gen_state)
            self._cache[key] = gen


def _parse_state_key(key_s: str) -> Tuple[KeyPart, ...]:
    """Inverse of the ``",".join(str(part))`` state-key serialization:
    digit runs (with optional sign) are integer components, everything
    else is a stream name."""
    if not key_s:
        return ()
    return tuple(
        int(part) if part.lstrip("-").isdigit() else part
        for part in key_s.split(",")
    )


def _state_to_jsonable(state):
    """BitGenerator state -> pure-python JSON-able structure."""
    if isinstance(state, dict):
        return {k: _state_to_jsonable(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return {"__ndarray__": state.tolist(), "dtype": str(state.dtype)}
    if isinstance(state, np.integer):
        return int(state)
    return state


def _state_from_jsonable(state):
    if isinstance(state, dict):
        if "__ndarray__" in state:
            return np.asarray(state["__ndarray__"], dtype=state["dtype"])
        return {k: _state_from_jsonable(v) for k, v in state.items()}
    return state
