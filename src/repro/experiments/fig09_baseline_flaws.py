"""Fig 9: the two defects of two-receiver baselines.

(a) Tag-data BER of Hitchhike/FreeRider as the *original* channel is
    occluded (none / wooden wall / concrete wall).  Paper: 0.2 % with
    no obstruction rising to 59 % behind concrete.
(b) Hitchhike's modulation offsets across ranges: up to 8 symbols.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import FreeRider, Hitchhike
from repro.channel.occlusion import Material
from repro.experiments.common import ExperimentResult
from repro.experiments.params import Fig09Params
from repro.experiments.registry import implements
from repro.sim.metrics import format_table

__all__ = ["run", "format_result"]

MATERIALS = (Material.NONE, Material.WOOD, Material.CONCRETE)


@implements("fig09_baseline_flaws")
def run(params: Fig09Params) -> ExperimentResult:
    rng = np.random.default_rng(params.seed)
    hh = Hitchhike()
    fr = FreeRider()
    bers = {
        "hitchhike": {m: hh.tag_ber(m, rng, n_packets=params.n_packets) for m in MATERIALS},
        "freerider": {m: fr.tag_ber(m, rng, n_packets=params.n_packets) for m in MATERIALS},
    }
    distances = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
    offsets = {
        float(d): [hh.sample_offset(float(d), rng) for _ in range(400)]
        for d in distances
    }
    return ExperimentResult(
        name="fig09_baseline_flaws",
        data={"bers": bers, "offsets": offsets, "distances": distances},
        notes=[
            "paper Fig 9a: BER 0.2% (clear) -> 59% (concrete) for 802.11b carriers",
            "paper Fig 9b: Hitchhike offsets as far as 8 symbols",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    rows = []
    for system, by_material in result["bers"].items():
        rows.append(
            [system] + [f"{by_material[m] * 100:.1f}%" for m in MATERIALS]
        )
    part_a = format_table(
        ["system"] + [m.value for m in MATERIALS], rows
    )
    rows_b = []
    for d, offs in result["offsets"].items():
        arr = np.array(offs)
        rows_b.append([f"{d:.0f}", f"{arr.mean():.2f}", f"{arr.max()}"])
    part_b = format_table(["range (m)", "mean offset", "max offset"], rows_b)
    return part_a + "\n\n" + part_b
