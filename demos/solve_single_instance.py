"""Walk one two-user channel instance through every allocation scheme.

A weak UE (far, low-complexity clip) and a strong UE (near, high-complexity
clip) share the downlink via superposition coding. The globally optimal
solver, the greedy power-block allocator and both reference schemes run on
the same realization so the allocations are directly comparable.
"""

import numpy as np

from nomavq import (
    ChannelState,
    GreedyConfig,
    bounds_from_quality,
    build_feasible_set,
    load_rd_fixtures,
    solve_greedy,
    solve_noma_mt,
    solve_oma_simple,
    solve_polyblock,
)
from nomavq.channel import DEFAULT_PATH_LOSS_EXP, channel_gain

B_HZ = 140e3
P_MAX_W = 1.0
SNR_DB = 20.0

rng = np.random.default_rng(7)
table = load_rd_fixtures()
streams = [table["Foreman"], table["Soccer"]]  # weak UE first

# Rayleigh fading over distance-based path loss, weak UE at 3 m, strong at 1 m
gains = []
for d in (3.0, 1.0):
    g = (rng.standard_normal() + 1j * rng.standard_normal()) * np.sqrt(0.5)
    gains.append(abs(channel_gain(g, d, DEFAULT_PATH_LOSS_EXP)) ** 2)
ch = ChannelState(
    gains_sq=np.sort(gains),
    noise_var=P_MAX_W / 10 ** (SNR_DB / 10),
    power_budget_w=P_MAX_W,
)

print(f"channel gains |h|^2 = {ch.gains_sq}, noise = {ch.noise_var:.4g} W")
bounds = bounds_from_quality(streams, B_HZ)
print(f"SINR band per UE: min {bounds.gamma_min}, max {bounds.gamma_max}\n")

fset = build_feasible_set(ch, bounds)
opt = solve_polyblock(fset, streams, B_HZ)
print(f"optimal      power {opt.power}  avg PSNR {opt.avg_psnr_db:.3f} dB"
      f"  (certified within {opt.bound_gap_db:.4f} dB, "
      f"{opt.iterations} iterations)")

grd = solve_greedy(ch, streams, B_HZ, GreedyConfig(n_blocks=100))
print(f"greedy       power {grd.power}  avg PSNR {grd.avg_psnr_db:.3f} dB"
      f"  ({grd.blocks_used}/{grd.blocks_total} blocks spent)")

mt = solve_noma_mt(ch, streams, B_HZ)
print(f"noma-mt      power {mt.power}  avg PSNR {mt.avg_psnr_db:.3f} dB"
      f"  (weak UE pinned at {streams[0].q_min_db:g} dB)")

oma = solve_oma_simple(ch, streams, B_HZ)
print(f"oma          bandwidth split {oma.shares}"
      f"  avg PSNR {oma.avg_psnr_db:.3f} dB")

# every scheme returns the same Allocation: shares, SINRs, rates and PSNR
print("\nper-UE allocation share and PSNR (weak, strong):")
for name, res in (("optimal", opt), ("greedy", grd), ("noma-mt", mt),
                  ("oma", oma)):
    print(f"  {name:8s} share {np.round(res.shares, 3)}"
          f"  PSNR {np.round(res.per_user_psnr_db, 3)}")
