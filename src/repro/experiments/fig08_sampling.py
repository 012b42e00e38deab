"""Fig 8: low-rate sampling with ordered matching and the extended
matching window (§2.3.2).

Three panels:
(a) 2.5 Msps, 8 us base window    -- paper: average accuracy 0.485
(b) 2.5 Msps, 40 us extended window -- paper: 0.93
    (94.3% 11n, 95.9% 11b, 81.8% BLE, 99.9% ZigBee)
(c) 1 Msps, extended window        -- paper: ~0.5
"""

from __future__ import annotations

import numpy as np

from repro.core.identification import (
    IdentificationConfig,
    ProtocolIdentifier,
    score_traces,
    tabulate_accuracy,
)
from repro.core.matching import search_thresholds
from repro.experiments.common import ExperimentResult, PROTOCOL_ORDER, labeled_traces
from repro.experiments.params import Fig08Params
from repro.experiments.registry import implements
from repro.sim.metrics import format_table

__all__ = ["run", "format_result", "PANELS"]

#: (label, sample rate, matching window us) for the three panels.
PANELS = (
    ("2.5Msps/base", 2.5e6, 6.0),
    ("2.5Msps/extended", 2.5e6, 38.0),
    ("1Msps/extended", 1e6, 38.0),
)


@implements("fig08_sampling")
def run(params: Fig08Params) -> ExperimentResult:
    # Each panel keeps its own identifier, thresholds and random streams;
    # the panels share one rectifier model, so one pass per set scores
    # each trace for all three while it is the only trace alive.
    idents = [
        ProtocolIdentifier(
            IdentificationConfig(sample_rate_hz=rate, quantized=True, window_us=window)
        )
        for _, rate, window in PANELS
    ]
    trained = score_traces(
        idents,
        labeled_traces(params.n_train, seed=params.seed + 1000, n_workers=params.n_workers),
        rng=np.random.default_rng(params.seed),
    )
    for ident, labeled in zip(idents, trained):
        ident.matcher, _ = search_thresholds(labeled)
    tested = score_traces(
        idents,
        labeled_traces(params.n_traces, seed=params.seed, n_workers=params.n_workers),
        rng=np.random.default_rng(params.seed + 1),
    )
    reports = {
        label: tabulate_accuracy(ident.matcher, labeled)
        for (label, _, _), ident, labeled in zip(PANELS, idents, tested)
    }
    return ExperimentResult(
        name="fig08_sampling",
        data={"reports": reports},
        notes=[
            "paper: 0.485 (2.5M base) -> 0.93 (2.5M extended); 1M ~ 0.5",
            "paper per-protocol at 2.5M ext: 11n 94.3 / 11b 95.9 / BLE 81.8 / ZigBee 99.9",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    rows = []
    for label, report in result["reports"].items():
        row = [label]
        row.extend(f"{report.per_protocol.get(p, 0.0):.3f}" for p in PROTOCOL_ORDER)
        row.append(f"{report.average:.3f}")
        rows.append(row)
    headers = ["panel"] + [p.value for p in PROTOCOL_ORDER] + ["avg"]
    return format_table(headers, rows)
