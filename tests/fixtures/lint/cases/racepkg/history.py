"""RPR008: a mutator-named call writes a global only when the receiver is
a container.  Fork entry ``racepkg.history:_run_chunk``."""

import numpy as np

_SEEN = []


def remember(day):
    # VIOLATION: parent-side in-place mutation of a container the worker
    # reads.
    _SEEN.append(day)


def widen(days, day):
    # Clean: ``np`` was bound by ``import`` — a module, not a container;
    # ``np.append`` returns a new array and writes nothing.
    return np.append(days, day)


def _run_chunk(task):
    # Worker-side reader of both module-level names.
    return np.asarray(_SEEN)[: task.size]
