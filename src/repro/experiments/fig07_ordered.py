"""Fig 7: blind vs ordered matching at 10 Msps with +-1 quantization.

The paper reports average accuracy 0.906 (blind) vs 0.976 (ordered);
the gain comes from the four signals' different resilience to the
lossy quantization/downsampling.  Ordered thresholds are derived with
the same brute-force search the paper uses (§2.3.2), on a separate
training trace set.
"""

from __future__ import annotations

import numpy as np

from repro.core.identification import (
    DEFAULT_INCIDENT_DBM,
    IdentificationConfig,
    ProtocolIdentifier,
    score_traces,
    tabulate_accuracy,
)
from repro.core.matching import search_thresholds
from repro.experiments.common import ExperimentResult, PROTOCOL_ORDER, labeled_traces
from repro.experiments.registry import implements
from repro.sim.metrics import format_table

__all__ = ["run", "format_result"]


@implements("fig07_ordered")
def run(
    *,
    seed: int,
    n_traces: int = 12,
    n_train: int = 16,
    sample_rate_hz: float = 10e6,
    power_drop_db: float = 4.0,
    n_workers: int | None = None,
) -> ExperimentResult:
    """``power_drop_db`` places the tag slightly farther from the
    radios than the 0.8 m default (~1.3 m at 4 dB) -- the operating
    point where the blind/ordered distinction emerges."""
    config = IdentificationConfig(
        sample_rate_hz=sample_rate_hz, quantized=True, window_us=6.0
    )
    ident = ProtocolIdentifier(config)
    powers = {p: v - power_drop_db for p, v in DEFAULT_INCIDENT_DBM.items()}

    # Train ordered thresholds on a disjoint trace set (paper §2.3.2).
    (trained,) = score_traces(
        [ident],
        labeled_traces(n_train, seed=seed + 1000, n_workers=n_workers),
        rng=np.random.default_rng(seed),
        incident_power_dbm=powers,
    )
    matcher, train_acc = search_thresholds(trained)

    # Both matchers decide on the same scores: scoring never reads the
    # matcher, so the test set is scored once.
    (scored,) = score_traces(
        [ident],
        labeled_traces(n_traces, seed=seed, n_workers=n_workers),
        rng=np.random.default_rng(seed + 1),
        incident_power_dbm=powers,
    )
    blind_report = tabulate_accuracy(ident.matcher, scored)
    ordered_report = tabulate_accuracy(matcher, scored)
    return ExperimentResult(
        name="fig07_ordered",
        data={
            "blind": blind_report,
            "ordered": ordered_report,
            "thresholds": dict(zip(matcher.order, matcher.thresholds)),
            "train_accuracy": train_acc,
        },
        notes=["paper: blind 0.906 -> ordered 0.976 at 10 Msps quantized"],
    )


def format_result(result: ExperimentResult) -> str:
    rows = []
    for label in ("blind", "ordered"):
        report = result[label]
        row = [label]
        row.extend(f"{report.per_protocol.get(p, 0.0):.3f}" for p in PROTOCOL_ORDER)
        row.append(f"{report.average:.3f}")
        rows.append(row)
    headers = ["matching"] + [p.value for p in PROTOCOL_ORDER] + ["avg"]
    return format_table(headers, rows)


if __name__ == "__main__":
    from repro.experiments.registry import run_preset

    print(run_preset("fig07_ordered", "full").render())
