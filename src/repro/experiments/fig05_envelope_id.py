"""Fig 5: envelope distinguishability and (L_p, L_t) accuracy at 20 Msps.

(a) The four protocols' baseband envelopes (first 40 us) -- returned as
    series for plotting/inspection.
(b) Identification accuracy at 20 Msps, 9-bit samples, full-precision
    correlation, for a small grid of (L_p, L_t); the paper reports
    99.3 % minimum / 99.7 % average at L_p=40, L_t=120.
"""

from __future__ import annotations

import numpy as np

from repro.core.adc import Adc
from repro.core.identification import (
    IdentificationConfig,
    ProtocolIdentifier,
    score_traces,
    tabulate_accuracy,
)
from repro.core.rectifier import ClampRectifier
from repro.core.templates import reference_waveform
from repro.experiments.common import ExperimentResult, PROTOCOL_ORDER, labeled_traces
from repro.experiments.registry import implements
from repro.phy.protocols import Protocol
from repro.sim.metrics import format_table

__all__ = ["run", "format_result"]

SAMPLE_RATE = 20e6


def envelope_traces() -> dict[Protocol, np.ndarray]:
    """Fig 5a: clean rectified envelopes per protocol, 40 us each."""
    rect = ClampRectifier(noise_v_rms=0.0)
    adc = Adc(sample_rate=SAMPLE_RATE)
    out = {}
    for protocol in Protocol:
        wave = reference_waveform(protocol)
        analog = rect.rectify(wave, -15.0)
        cap = adc.capture(analog, duration_s=40.0 * 1e-6)
        out[protocol] = cap.volts()
    return out


@implements("fig05_envelope_id")
def run(
    *,
    seed: int,
    n_traces: int = 12,
    grid: tuple[tuple[int, int], ...] = ((20, 60), (40, 120), (60, 100)),
    n_workers: int | None = None,
) -> ExperimentResult:
    """``grid`` holds (L_p, L_t) pairs in 20 Msps samples.

    Every grid point scores the same traces from ``default_rng(seed)``,
    so one pass scores each trace for all of them while it is the only
    trace alive."""
    idents = [
        ProtocolIdentifier(
            IdentificationConfig(
                sample_rate_hz=SAMPLE_RATE,
                preprocess_us=l_p / SAMPLE_RATE * 1e6,
                window_us=l_t / SAMPLE_RATE * 1e6,
            )
        )
        for l_p, l_t in grid
    ]
    scored = score_traces(
        idents,
        labeled_traces(n_traces, seed=seed, n_workers=n_workers),
        rng=np.random.default_rng(seed),
    )
    results = {
        (l_p, l_t): tabulate_accuracy(ident.matcher, labeled)
        for (l_p, l_t), ident, labeled in zip(grid, idents, scored)
    }
    return ExperimentResult(
        name="fig05_envelope_id",
        data={
            "grid_reports": results,
            "envelopes": envelope_traces(),
        },
        notes=[
            "paper: L_p=40, L_t=120 gives min 99.3% / avg 99.7% accuracy",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    rows = []
    for (l_p, l_t), report in result["grid_reports"].items():
        row = [f"{l_p}", f"{l_t}"]
        row.extend(f"{report.per_protocol.get(p, 0.0):.3f}" for p in PROTOCOL_ORDER)
        row.append(f"{report.average:.3f}")
        row.append(f"{report.minimum:.3f}")
        rows.append(row)
    headers = ["L_p", "L_t"] + [p.value for p in PROTOCOL_ORDER] + ["avg", "min"]
    return format_table(headers, rows)


if __name__ == "__main__":
    from repro.experiments.registry import run_preset

    print(run_preset("fig05_envelope_id", "full").render())
