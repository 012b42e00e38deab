"""multiscatter: multiprotocol backscatter for personal IoT sensors.

A signal-level Python reproduction of Gong, Yuan, Wang & Zhao,
"Multiprotocol Backscatter for Personal IoT Sensors" (CoNEXT 2020).

Package layout:

* :mod:`repro.phy`         -- 802.11b/n, BLE, ZigBee modems + sync
* :mod:`repro.channel`     -- path loss, noise, fading, link budgets
* :mod:`repro.core`        -- the multiscatter tag (identification,
  overlay modulation, energy, resources)
* :mod:`repro.baselines`   -- Hitchhike / FreeRider comparison models
* :mod:`repro.sim`         -- traffic, scenes, geometry, system loop
* :mod:`repro.experiments` -- one module per paper table/figure

Run ``python -m repro list`` for the experiment catalogue.
"""

__version__ = "1.0.0"

import os as _os

if _os.environ.get("REPRO_PERF", "") not in ("", "0"):
    # Arms the atexit perf report (counters/gauges/cache hit rates).
    from repro import perf as _perf  # noqa: F401
