"""Atomic persistence primitives with an injectable fault gate.

Every durable artifact in the repo — per-day checkpoints, spilled
partials, lake partitions and their quarantine, the service's run records
and results, the lint cache — is finalized the same way: write a staging
file next to the target, then ``os.replace`` it into place.
This module owns that idiom so the chaos conductor (DESIGN.md §17) can
inject *filesystem* failures at the exact operation boundaries a real
deployment fears:

* **ENOSPC** — the staging write raises ``OSError(errno.ENOSPC)``
  before any byte lands, modelling a full disk;
* **torn-tmp** — the staging file is written (possibly partially) but
  the ``os.replace`` never happens, modelling a crash in the window
  between write and rename (the target keeps its previous state and a
  stale ``.tmp``/``.part`` file litters the directory);
* **torn-target** — a truncated payload is renamed into place,
  modelling a partial page flush that the subsequent CRC/manifest
  verification must catch.

Injection is opt-in and process-local: production code calls
:func:`write_and_replace` and pays one ``None`` check when no gate is
installed.  The gate itself lives with the chaos package — this module
knows only the hook, mirroring how :mod:`repro.core.faults` threads
``FaultPlan`` into workers without the workers importing the test
harness.
"""

from __future__ import annotations

import errno
import os
import re
from pathlib import Path
from typing import Callable, Optional

#: Persistence surfaces a gate can key on (one per durable artifact tier).
SURFACE_CHECKPOINT = "checkpoint"
SURFACE_LAKE = "lake"
SURFACE_REGISTRY = "registry"
SURFACE_MANIFEST = "manifest"
SURFACE_SPILL = "spill"
SURFACE_RESULTS = "results"
SURFACE_LINT_CACHE = "lint-cache"
SURFACE_QUARANTINE = "quarantine"

SURFACES = (
    SURFACE_CHECKPOINT,
    SURFACE_LAKE,
    SURFACE_REGISTRY,
    SURFACE_MANIFEST,
    SURFACE_SPILL,
    SURFACE_RESULTS,
    SURFACE_LINT_CACHE,
    SURFACE_QUARANTINE,
)

#: Fault modes a gate may request for one write (see module docstring).
MODE_ENOSPC = "enospc"
MODE_TORN_TMP = "torn-tmp"
MODE_TORN_TARGET = "torn-target"

MODES = (MODE_ENOSPC, MODE_TORN_TMP, MODE_TORN_TARGET)

#: Pid embedded in torn-tmp litter: past any kernel's pid_max, so the
#: simulated dead writer can never collide with a live process.
DEAD_WRITER_PID = 99999999

#: A gate maps ``(surface, target path)`` to a fault mode or ``None``
#: (no fault).  Called once per atomic write, *before* any byte lands.
FaultGate = Callable[[str, Path], Optional[str]]

#: The installed gate; ``None`` in production.  Process-local by design:
#: gates steer the parent's persistence calls and are never pickled into
#: workers.
_GATE: Optional[FaultGate] = None  # repro: noqa[RPR004] -- chaos-only injection hook, None in production and never shipped across the fork boundary; workers neither read nor mutate it


def install_gate(gate: Optional[FaultGate]) -> Optional[FaultGate]:
    """Install (or clear, with ``None``) the process fault gate.

    Returns the previously installed gate so callers can restore it.
    """
    global _GATE
    previous = _GATE
    _GATE = gate
    return previous


def write_and_replace(
    target: Path,
    payload: bytes,
    *,
    surface: str,
    tmp: Optional[Path] = None,
) -> Path:
    """Atomically publish ``payload`` at ``target`` via a staging file.

    ``tmp`` defaults to the repo-wide dot-prefixed staging name in the
    same directory (same filesystem, so the rename is atomic).  When a
    fault gate is installed it may turn this call into an injected
    failure; the three modes are documented in the module docstring.
    ENOSPC surfaces as ``OSError`` with ``errno.ENOSPC`` — exactly what
    the un-injected call would raise on a full disk — so callers cannot
    tell injected pressure from real pressure, which is the point.
    """
    target = Path(target)
    staging = (
        Path(tmp)
        if tmp is not None
        else target.with_name(f".{target.name}.{os.getpid()}.tmp")
    )
    mode = _GATE(surface, target) if _GATE is not None else None
    if mode == MODE_ENOSPC:
        raise OSError(
            errno.ENOSPC,
            f"injected ENOSPC writing {surface} artifact {target.name}",
        )
    if mode == MODE_TORN_TMP:
        # Crash window between staging write and rename: half the bytes
        # land under a staging name, the target never changes.  The
        # litter carries a pid that cannot exist (beyond pid_max) — the
        # simulated writer is dead, so sweeps and fsck must treat the
        # file as theirs to reclaim, not as a live writer's.
        torn = target.with_name(f".{target.name}.{DEAD_WRITER_PID}.tmp")
        torn.write_bytes(payload[: max(1, len(payload) // 2)])
        raise OSError(
            errno.EIO,
            f"injected crash before replace of {surface} artifact "
            f"{target.name} (staging file left behind)",
        )
    if mode == MODE_TORN_TARGET:
        # A truncated payload reaches the final name: detection falls to
        # the artifact's own CRC/manifest verification on next read.
        staging.write_bytes(payload[: max(1, len(payload) // 2)])
        os.replace(staging, target)
        return target
    staging.write_bytes(payload)
    os.replace(staging, target)
    return target


#: Staging-file litter a dead writer leaves behind: the repo-wide
#: dot-prefixed pattern with the writer's pid embedded.
_STALE_RE = re.compile(r"^\..+\.(\d+)\.(tmp|part)$")


def stale_staging_files(directory: Path) -> "list[Path]":
    """Staging files in ``directory`` whose writer process is gone.

    A live writer holds its staging name only for the instant between
    write and rename; anything matching the pattern whose embedded pid
    no longer exists is guaranteed litter from a crash (or an injected
    torn write) and is safe to sweep.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    stale: "list[Path]" = []
    for path in sorted(directory.iterdir()):
        match = _STALE_RE.match(path.name)
        if match is None or not path.is_file():
            continue
        if not _pid_alive(int(match.group(1))):
            stale.append(path)
    return stale


def sweep_staging_files(directory: Path) -> "list[Path]":
    """Remove dead writers' staging litter; returns what was removed."""
    removed: "list[Path]" = []
    for path in stale_staging_files(directory):
        try:
            path.unlink()
        except OSError:
            continue  # raced another sweeper or lost the file: both fine
        removed.append(path)
    return removed


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True
