"""CPU time scaled to a reference host speed (see NOTES.md, "Host noise").

The shared benchmark host changes speed by up to ~1.8x, every few
seconds to every few minutes.  A fixed calibration task of canonical
JSON and SHA-256 work, timed right before each unit of work, slows down
with it; dividing the unit's CPU time by the task's and multiplying by
the task's time at the reference speed leaves the work's own cost.
"""

from __future__ import annotations

import hashlib
import json
import time

#: CPU seconds :func:`calibration_s` takes on the 2-core benchmark host
#: in its fast state; scaled times are CPU times at that speed.
REFERENCE_S = 0.00048

_RECORD = {
    "device": "dev-1-2", "sequence": 12, "energy_mwh": 0.123456,
    "current_ma": 123.4, "network": "net-1", "buffered": False, "t": [1.5, 2.5],
}


def calibration_s() -> float:
    """CPU seconds of one fixed calibration task."""
    clock = time.process_time
    start = clock()
    for _ in range(40):
        data = json.dumps(_RECORD, sort_keys=True, separators=(",", ":")).encode()
        hashlib.sha256(data).digest()
        json.loads(data)
    return clock() - start


class HostSpeed:
    """Times calls in CPU seconds at the reference host speed."""

    def __init__(self) -> None:
        #: CPU seconds spent in calibration tasks so far.
        self.calibrating_s = 0.0

    def time(self, fn):
        """``fn()`` and its CPU seconds at the reference speed.

        The speed is measured right before the call.  Calibration tasks
        run inside ``fn`` (a nested :meth:`time`) are not counted.
        """
        task_s = calibration_s()
        self.calibrating_s += task_s
        nested_from = self.calibrating_s
        start = time.process_time()
        result = fn()
        cpu_s = time.process_time() - start - (self.calibrating_s - nested_from)
        return result, cpu_s * REFERENCE_S / task_s
