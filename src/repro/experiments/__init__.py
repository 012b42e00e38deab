"""Experiment harness: one module per paper table and figure.

Each module exposes ``run(params)`` returning a structured result and
``format_result(result)`` rendering the same rows/series the paper
reports.  ``tests/paper/`` checks each result against the paper's
numbers, and perfbench's ``campaign-paper`` workload times them.
``python -m repro run NAME`` runs one (``python -m repro run
fig05_envelope_id``).

| Module                  | Paper artifact |
|-------------------------|----------------|
| fig04_rectifier         | Fig 4: clamp vs basic rectifier; ours vs WISP |
| fig05_envelope_id       | Fig 5: envelopes + (L_p, L_t) accuracy at 20 Msps |
| fig07_ordered           | Fig 7: blind vs ordered matching at 10 Msps |
| fig08_sampling          | Fig 8: 2.5/1 Msps, short vs extended window |
| fig09_baseline_flaws    | Fig 9: baseline occlusion BER + offsets |
| fig12_tradeoffs         | Fig 12 + Table 6: mode 1/2/3 throughputs |
| fig13_los / fig14_nlos  | Figs 13-14: RSSI/BER/throughput vs distance |
| fig15_occlusion         | Fig 15: occluded-original-channel throughput |
| fig16_collisions        | Fig 16: time/frequency excitation collisions |
| fig17_refmod            | Fig 17: reference-symbol modulation BERs |
| fig18_diversity         | Fig 18: excitation diversity |
| table2_resources        | Table 2: FPGA DFF counts |
| table3_power            | Table 3: prototype power breakdown |
| table4_energy           | Table 4: energy-harvesting exchange times |
| table5_idpower          | Table 5: identification power/LUTs |
"""
