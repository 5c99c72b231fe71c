"""RPR002 fixture: unseeded sources beyond `random.*` and `np.random.*`,
all recognized by the classifier RPR011 uses too."""

import numpy.random
import os
import uuid


def draw_through_submodule_import():
    # `import numpy.random` binds `numpy`; the draw is still global state.
    return numpy.random.normal()


def fresh_identifier():
    return uuid.uuid4()


def entropy_bytes():
    return os.urandom(4)
