"""Fault injection for the experiment engine.

Long simulation campaigns only earn trust in their fault tolerance if
the faults actually happen, so this module makes them happen on demand:

* **worker crashes** — :func:`arm_worker_kills` drops one claimable
  token per requested crash into a directory; any simulation worker that
  starts a task while ``REPRO_FAULT_DIR`` points at that directory
  atomically claims a token and dies (``os._exit``, like an OOM kill) or
  raises (an in-task software fault).  Tokens are consumed exactly once,
  so retries on a fresh pool succeed and the batch converges.
* **worker hangs** — :func:`arm_worker_hangs` tokens make the claiming
  worker sleep forever (a deadlock/livelock stand-in), exercising the
  per-task deadline supervision (``REPRO_TASK_TIMEOUT_S``): without it
  the batch blocks on ``future.result()`` indefinitely.
* **thermal-worker faults** — :func:`arm_thermal_worker_kills` /
  :func:`arm_thermal_worker_hangs` tokens are claimed only at the
  thermal solve engine's fault point
  (:func:`maybe_inject_thermal_fault`), so a kill or hang can be aimed
  at a geometry-group factorization mid-batch without ever landing on a
  simulation task; generic tokens still reach thermal workers too.
* **mid-simulation faults** — :func:`arm_midsim_faults` tokens carry an
  instruction-index trigger; the claiming worker arms
  :data:`repro.cpu.pipeline.FAULT_HOOK` and then dies (or hangs) *in the
  middle of the simulation loop*, with activity counters and cache state
  partially written.  This makes the injection point adversarial: entry
  injection tests a cooperative crash boundary, mid-simulation injection
  proves no partial state ever leaks into a recovered result.
* **cache corruption** — :func:`corrupt_entry` overwrites, truncates or
  bit-flips a cache file in place, exercising the loader's
  delete-and-miss path.
* **filesystem faults** — :func:`full_disk` and
  :func:`read_only_filesystem` make every cache *write* under a root —
  blob files and index rows alike — fail with ``ENOSPC`` / ``EROFS``
  while leaving reads (and the rest of the filesystem) untouched,
  exercising the cacheless degradation path.

The token directory also works across processes: CI arms kills with
``python -m repro.experiments.faults DIR --kills N`` and then runs a
normal ``repro report`` under ``REPRO_FAULT_DIR=DIR``.
"""

from __future__ import annotations

import builtins
import contextlib
import errno
import os
import random
import re
import time
from pathlib import Path
from typing import Iterator, List, Optional

#: Directory holding claimable fault tokens (unset = no injection).
ENV_FAULT_DIR = "REPRO_FAULT_DIR"

#: Exit status of a deliberately killed worker (distinguishable in logs).
KILL_EXIT_CODE = 87

_KILL_PREFIX = "kill-"
_RAISE_PREFIX = "raise-"
_HANG_PREFIX = "hang-"
_MIDSIM_PREFIX = "midsim-"
#: Thermal-worker-only tokens: ``thermal-kill-NNNN`` / ``thermal-hang-NNNN``.
#: Simulation workers never claim these, so a thermal fault can be aimed
#: at the solve engine without perturbing the simulation stage.
_THERMAL_KILL_PREFIX = "thermal-kill-"
_THERMAL_HANG_PREFIX = "thermal-hang-"
_TOKEN_SUFFIX = ".token"

#: midsim token names: ``midsim-<action>-<instruction-index>-NNNN.token``
_MIDSIM_PATTERN = re.compile(rf"{_MIDSIM_PREFIX}(kill|hang)-(\d+)-")


class InjectedWorkerError(RuntimeError):
    """Raised inside a worker that claimed a ``raise`` fault token."""


def arm_worker_kills(directory, kills: int = 1) -> List[Path]:
    """Create ``kills`` claimable kill tokens; returns their paths.

    The caller still has to point ``REPRO_FAULT_DIR`` at ``directory``
    (environment variables propagate to pool workers automatically).
    """
    return _arm(directory, _KILL_PREFIX, kills)


def arm_worker_raises(directory, raises: int = 1) -> List[Path]:
    """Like :func:`arm_worker_kills` but the worker raises instead of dying."""
    return _arm(directory, _RAISE_PREFIX, raises)


def arm_worker_hangs(directory, hangs: int = 1) -> List[Path]:
    """Create ``hangs`` sleep-forever tokens; the claiming worker never
    returns (deadlock stand-in), so only deadline supervision saves the
    batch.  The hung process is reaped when the supervisor recycles the
    pool (SIGTERM), so tokens do not leak workers."""
    return _arm(directory, _HANG_PREFIX, hangs)


def arm_thermal_worker_kills(directory, kills: int = 1) -> List[Path]:
    """Create kill tokens only thermal solve workers claim.

    A claiming thermal worker dies at group entry (``os._exit``, like a
    SuperLU OOM abort mid-factorization), exercising the thermal fan-out's
    retry/pool-restart ladder without touching simulation tasks.
    """
    return _arm(directory, _THERMAL_KILL_PREFIX, kills)


def arm_thermal_worker_hangs(directory, hangs: int = 1) -> List[Path]:
    """Create sleep-forever tokens only thermal solve workers claim,
    exercising the thermal deadline (``REPRO_THERMAL_TIMEOUT_S``)."""
    return _arm(directory, _THERMAL_HANG_PREFIX, hangs)


def arm_midsim_faults(
    directory, count: int = 1, action: str = "kill", at_instruction: int = 1_000
) -> List[Path]:
    """Create tokens that fire *inside* the simulation loop.

    The claiming worker arms :data:`repro.cpu.pipeline.FAULT_HOOK` at
    task entry and then executes normally until the trace reaches
    ``at_instruction``, where it dies (``action="kill"``) or sleeps
    forever (``action="hang"``) with partially-written activity state.
    """
    if action not in ("kill", "hang"):
        raise ValueError(f"unknown midsim action {action!r}")
    return _arm(directory, f"{_MIDSIM_PREFIX}{action}-{at_instruction:d}-", count)


def _arm(directory, prefix: str, count: int) -> List[Path]:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    existing = len(list(root.glob(f"{prefix}*{_TOKEN_SUFFIX}")))
    tokens = []
    for index in range(existing, existing + count):
        token = root / f"{prefix}{index:04d}{_TOKEN_SUFFIX}"
        token.touch()
        tokens.append(token)
    return tokens


def pending_tokens(directory) -> List[Path]:
    """Unclaimed fault tokens remaining under ``directory``."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(root.glob(f"*{_TOKEN_SUFFIX}"))


def _claim_token(prefix: str) -> Optional[str]:
    """Atomically claim (unlink) one token; its name, or None when none left."""
    root = os.environ.get(ENV_FAULT_DIR, "").strip()
    if not root:
        return None
    for token in sorted(Path(root).glob(f"{prefix}*{_TOKEN_SUFFIX}")):
        try:
            token.unlink()  # atomic: exactly one process wins each token
        except OSError:
            continue
        return token.name
    return None


def _hang_forever() -> None:
    """Sleep until killed — what a deadlocked worker looks like from outside."""
    while True:
        time.sleep(3600)


def _arm_midsim(token_name: str) -> None:
    """Install the mid-simulation fault hook encoded in a claimed token."""
    match = _MIDSIM_PATTERN.match(token_name)
    if match is None:
        return
    action, trigger = match.group(1), int(match.group(2))
    from repro.cpu import pipeline

    def hook(index: int) -> None:
        if index < trigger:
            return
        if action == "kill":
            os._exit(KILL_EXIT_CODE)
        pipeline.FAULT_HOOK = None  # fire once even if the sleep is interrupted
        _hang_forever()

    pipeline.FAULT_HOOK = hook


def maybe_inject_worker_fault() -> None:
    """Fault point for simulation workers; no-op unless armed.

    Called at worker-task entry.  Claiming a kill token terminates the
    process without cleanup (``os._exit``), which is what an OOM kill or
    interpreter abort looks like to the pool; a hang token never returns
    (deadlock); a midsim token arms the in-loop hook instead of firing
    here; a raise token throws :class:`InjectedWorkerError` through the
    task.
    """
    if _claim_token(_KILL_PREFIX):
        os._exit(KILL_EXIT_CODE)
    if _claim_token(_HANG_PREFIX):
        _hang_forever()
    midsim = _claim_token(_MIDSIM_PREFIX)
    if midsim is not None:
        _arm_midsim(midsim)
    if _claim_token(_RAISE_PREFIX):
        raise InjectedWorkerError("injected worker fault (raise token claimed)")


def maybe_inject_thermal_fault() -> None:
    """Fault point for thermal solve workers; no-op unless armed.

    Claims the thermal-only tokens first (kill, then hang), then falls
    through to :func:`maybe_inject_worker_fault` so generic tokens keep
    reaching thermal workers too — the supervised-solve path has always
    honoured them, and the combined-fault CI scenarios rely on whichever
    worker claims a token first.
    """
    if _claim_token(_THERMAL_KILL_PREFIX):
        os._exit(KILL_EXIT_CODE)
    if _claim_token(_THERMAL_HANG_PREFIX):
        _hang_forever()
    maybe_inject_worker_fault()


# ---------------------------------------------------------------------- #
# Cache-entry corruption

def corrupt_entry(path, mode: str = "garbage", seed: int = 0) -> None:
    """Damage one cache entry in place.

    ``garbage`` replaces the file with bytes that are not a cache entry;
    ``truncate`` keeps only the first half of the file (a writer that
    died mid-write, minus the atomic-rename protection); ``bitflip``
    flips one bit at a ``seed``-chosen offset past the entry header, so
    the header still parses and only the payload checksum can catch it.
    """
    from repro.experiments.cache import ENTRY_HEADER

    path = Path(path)
    if mode == "garbage":
        path.write_bytes(b"\x00not a cache entry\x00")
    elif mode == "truncate":
        payload = path.read_bytes() or b"\x80\x04"
        path.write_bytes(payload[: max(1, len(payload) // 2)])
    elif mode == "bitflip":
        payload = bytearray(path.read_bytes())
        if len(payload) <= ENTRY_HEADER.size:
            raise ValueError(f"{path} has no payload past its header")
        rng = random.Random(seed)
        offset = rng.randrange(ENTRY_HEADER.size, len(payload))
        payload[offset] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(payload))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")


def bitflip_cache(root) -> List[Path]:
    """Flip one bit in every result entry of the cache at ``root`` (entry
    ``i`` in sorted order with seed ``i``); returns the damaged entries."""
    from repro.experiments.cache import ResultCache

    entries = ResultCache(root).entries()
    for index, entry in enumerate(entries):
        corrupt_entry(entry, "bitflip", index)
    return entries


# ---------------------------------------------------------------------- #
# Filesystem faults (scoped to one directory tree)

@contextlib.contextmanager
def full_disk(root) -> Iterator[None]:
    """Every file write and rename under ``root`` fails with ``ENOSPC``."""
    with _failing_writes(root, errno.ENOSPC, fail_mkdir=False):
        yield


@contextlib.contextmanager
def read_only_filesystem(root) -> Iterator[None]:
    """Every mkdir/write/rename under ``root`` fails with ``EROFS``."""
    with _failing_writes(root, errno.EROFS, fail_mkdir=True):
        yield


def _under(path, root: Path) -> bool:
    try:
        Path(os.path.abspath(path)).relative_to(root)
    except ValueError:
        return False
    return True


@contextlib.contextmanager
def _failing_writes(root, errno_code: int, fail_mkdir: bool) -> Iterator[None]:
    """Patch the cache module's write syscalls to fail under ``root``.

    Injection happens at the module-reference layer (the ``open``/``os``
    names and the ``_connect`` index factory inside
    :mod:`repro.experiments.cache`, and ``Path.mkdir``), so the cache's
    real degradation code runs — nothing is stubbed out of the path
    under test — while the rest of the process is unaffected.  Index
    connections opened under ``root`` during the scope deny every write
    statement (an authorizer, lifted when the scope ends); under a
    read-only filesystem an index that does not exist yet cannot be
    created either.
    """
    import sqlite3

    import repro.experiments.cache as cache_module

    root = Path(os.path.abspath(root))
    active = True

    def oserror(path) -> OSError:
        return OSError(errno_code, os.strerror(errno_code), str(path))

    real_os_replace = cache_module.os.replace
    real_mkdir = Path.mkdir
    real_connect = cache_module._connect

    writes = {sqlite3.SQLITE_INSERT, sqlite3.SQLITE_UPDATE,
              sqlite3.SQLITE_DELETE, sqlite3.SQLITE_CREATE_TABLE,
              sqlite3.SQLITE_CREATE_INDEX, sqlite3.SQLITE_DROP_TABLE,
              sqlite3.SQLITE_DROP_INDEX, sqlite3.SQLITE_ALTER_TABLE}

    def deny_writes(action, *args):
        if active and action in writes:
            return sqlite3.SQLITE_DENY
        return sqlite3.SQLITE_OK

    def guarded_connect(path):
        if _under(path, root):
            if fail_mkdir and not os.path.exists(path):
                raise sqlite3.OperationalError("unable to open database file")
            conn = real_connect(path)
            conn.set_authorizer(deny_writes)
            return conn
        return real_connect(path)

    def guarded_open(path, mode="r", *args, **kwargs):
        if any(flag in str(mode) for flag in "wxa+") and _under(path, root):
            raise oserror(path)
        return builtins.open(path, mode, *args, **kwargs)

    class _OsShim:
        def __getattr__(self, name):
            return getattr(os, name)

        def replace(self, src, dst, **kwargs):
            if _under(dst, root):
                raise oserror(dst)
            return real_os_replace(src, dst, **kwargs)

    def guarded_mkdir(self, mode=0o777, parents=False, exist_ok=False):
        # An existing directory is no write: a read-only mount reports it
        # as existing, which ``exist_ok`` accepts.
        if _under(self, root) and not (exist_ok and self.is_dir()):
            raise oserror(self)
        return real_mkdir(self, mode, parents, exist_ok)

    # A module global named ``open`` shadows the builtin for the cache
    # module's own calls only.
    cache_module.open = guarded_open
    cache_module.os = _OsShim()
    cache_module._connect = guarded_connect
    if fail_mkdir:
        Path.mkdir = guarded_mkdir
    try:
        yield
    finally:
        active = False
        del cache_module.open
        cache_module.os = os
        cache_module._connect = real_connect
        Path.mkdir = real_mkdir


# ---------------------------------------------------------------------- #

def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.experiments.faults DIR [--kills N] [--raises N]
    [--hangs N] [--midsim-kills N] [--midsim-hangs N] [--at-instruction I]``
    arms tokens; ``python -m repro.experiments.faults --bitflip-cache
    CACHE_DIR`` damages every result entry of a cache."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.experiments.faults",
        description="Arm worker-fault tokens, or damage cache entries, "
                    "for a fault-injection run",
    )
    parser.add_argument("directory", nargs="?",
                        help="token directory (REPRO_FAULT_DIR)")
    parser.add_argument("--bitflip-cache", metavar="CACHE_DIR",
                        help="flip one bit in every result entry of this cache")
    parser.add_argument("--kills", type=int, default=0, metavar="N",
                        help="worker kill tokens to arm (os._exit at task entry)")
    parser.add_argument("--raises", type=int, default=0, metavar="N",
                        help="worker raise tokens to arm (exception)")
    parser.add_argument("--hangs", type=int, default=0, metavar="N",
                        help="sleep-forever tokens to arm (deadlock stand-in)")
    parser.add_argument("--thermal-kills", type=int, default=0, metavar="N",
                        help="thermal-worker-only kill tokens to arm")
    parser.add_argument("--thermal-hangs", type=int, default=0, metavar="N",
                        help="thermal-worker-only hang tokens to arm")
    parser.add_argument("--midsim-kills", type=int, default=0, metavar="N",
                        help="mid-simulation kill tokens to arm")
    parser.add_argument("--midsim-hangs", type=int, default=0, metavar="N",
                        help="mid-simulation hang tokens to arm")
    parser.add_argument("--at-instruction", type=int, default=1_000, metavar="I",
                        help="trigger instruction index for midsim tokens "
                             "(default: 1000)")
    args = parser.parse_args(argv)
    if args.bitflip_cache:
        entries = bitflip_cache(args.bitflip_cache)
        print(f"flipped one bit in each of {len(entries)} cache entries "
              f"in {args.bitflip_cache}")
    if args.directory is None:
        if not args.bitflip_cache:
            parser.error("a token directory or --bitflip-cache is required")
        return 0
    tokens = arm_worker_kills(args.directory, args.kills) if args.kills else []
    tokens += arm_worker_raises(args.directory, args.raises) if args.raises else []
    tokens += arm_worker_hangs(args.directory, args.hangs) if args.hangs else []
    if args.thermal_kills:
        tokens += arm_thermal_worker_kills(args.directory, args.thermal_kills)
    if args.thermal_hangs:
        tokens += arm_thermal_worker_hangs(args.directory, args.thermal_hangs)
    if args.midsim_kills:
        tokens += arm_midsim_faults(args.directory, args.midsim_kills,
                                    "kill", args.at_instruction)
    if args.midsim_hangs:
        tokens += arm_midsim_faults(args.directory, args.midsim_hangs,
                                    "hang", args.at_instruction)
    print(f"armed {len(tokens)} fault tokens in {args.directory} "
          f"(export {ENV_FAULT_DIR}={args.directory})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
