"""RPR001 fixture: host-time-zone reads outside the data layers are allowed.

Only synthesis, analytics and figures make or read generated data; a core
module may print local times for an operator.
"""

import datetime
import time


def log_stamp(moment: datetime.datetime) -> str:
    return f"{moment.timestamp():.0f} {time.localtime(moment.timestamp()).tm_hour}"
