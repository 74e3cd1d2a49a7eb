"""Which UE gets which stream: compare the three stream-to-zone pairings.

WLBH pairs weak UEs with low-complexity clips and strong UEs with
high-complexity ones, WHBL does the opposite, WRBR assigns at random. The
greedy allocator reruns the same fading realizations under each pairing.
"""

import dataclasses

import numpy as np

from nomavq import GroupingStrategy, load_config, run_scenario

cfg = dataclasses.replace(load_config("configs/default.yaml"), n_trials=50)
n_groups = len(cfg.ues) // cfg.n_zones

means = {}
for strat in (GroupingStrategy.WLBH, GroupingStrategy.WRBR,
              GroupingStrategy.WHBL):
    res = run_scenario(dataclasses.replace(
        cfg, solvers=("greedy",), snr_db=(15.0, 25.0), grouping=strat))
    cells = {}
    for r in res.records:
        cells.setdefault((r.trial, r.gop, r.snr_db), []).append(r.avg_psnr_db)
    means[strat] = {
        k: float(np.mean(v)) for k, v in cells.items() if len(v) == n_groups
    }

# compare only fading draws every pairing could serve (paired comparison)
common = set.intersection(*(set(d) for d in means.values()))
print(f"{len(common)} paired (trial, gop, snr) cells\n")
print(f"{'snr_db':>7s} " + " ".join(f"{s.value:>8s}" for s in means))
for snr in (15.0, 25.0):
    keys = [k for k in common if k[2] == snr]
    row = [float(np.mean([means[s][k] for k in keys])) for s in means]
    print(f"{snr:7.1f} " + " ".join(f"{v:8.3f}" for v in row))
