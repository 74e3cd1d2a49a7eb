"""Mini Monte Carlo sweep: mean PSNR of every scheme across the SNR range.

A scaled-down version of the default scenario (fewer trials) so it finishes
in well under a minute; the full run is `nomavq simulate --config
configs/default.yaml`.
"""

import dataclasses

from nomavq import load_config, run_scenario
from nomavq.harness import aggregate

cfg = dataclasses.replace(load_config("configs/default.yaml"), n_trials=30)
result = run_scenario(cfg)

print(f"{len(result.records)} records, {len(result.exclusions)} infeasible "
      f"instances excluded\n")
print(f"{'snr_db':>7s} {'scheme':>10s} {'mean avg PSNR':>14s} {'n':>5s}")
for snr, scheme, grouping, mean, n, excl in aggregate(result)["mean_psnr"]:
    shown = "-" if mean is None else f"{mean:.3f}"  # None: all excluded
    print(f"{snr:7.1f} {scheme:>10s} {shown:>14s} {n:5d}")

print("\nweaker-UE share of the allocated power (power-domain schemes):")
for snr, group, scheme, coeff, n in aggregate(result)["weak_coeff"]:
    if scheme in ("polyblock", "greedy") and group == 0:
        print(f"  snr {snr:4.1f} dB  {scheme:>10s}  {coeff:.3f}")
