"""Table 2: FPGA resource comparison for multiprotocol identification.

Naive full-precision correlation (120-tap templates, 9-bit samples)
needs 133,364 D-flip-flops -- 21x more than the AGLN250 has; the +-1
quantized design fits in 2,860.
"""

from __future__ import annotations

from repro.core.resources import (
    AGLN250_DFF,
    naive_correlator_dffs,
    quantized_correlator_dffs,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.params import Table2Params
from repro.experiments.registry import implements
from repro.phy.protocols import Protocol
from repro.sim.metrics import format_table

__all__ = ["run", "format_result"]


@implements("table2_resources")
def run(params: Table2Params) -> ExperimentResult:
    size = params.template_size_samples
    naive = naive_correlator_dffs(size)
    quantized = quantized_correlator_dffs(size)
    return ExperimentResult(
        name="table2_resources",
        data={
            "template_size_samples": size,
            "per_protocol_multipliers": size,
            "per_protocol_adders": size - 1,
            "per_protocol_dffs": naive["dffs_per_protocol"],
            "naive_total_dffs": naive["dffs_total"],
            "nano_impl_dffs": quantized,
            "agln250_dffs": AGLN250_DFF,
        },
        notes=["paper Table 2: 33,341 DFFs/protocol naive; 2,860 total quantized"],
    )


def format_result(result: ExperimentResult) -> str:
    rows = []
    for p in Protocol:
        rows.append(
            [
                p.value,
                result["per_protocol_multipliers"],
                result["per_protocol_adders"],
                result["per_protocol_dffs"],
            ]
        )
    rows.append(
        [
            "Total (Naive)",
            4 * result["per_protocol_multipliers"],
            4 * result["per_protocol_adders"],
            result["naive_total_dffs"],
        ]
    )
    rows.append(["Nano FPGA Impl.", "-", "-", result["nano_impl_dffs"]])
    table = format_table(["protocol", "multipliers", "adders", "D-flip-flops"], rows)
    return table + f"\nAGLN250 budget: {result['agln250_dffs']} DFFs"
