"""Quantum discord of the weakly polarized pair along the sweep.

With alpha = beta = 1/sqrt(2) and b = 0.1 the state is barely polarized,
yet discord is nonzero away from the start. The conditional-entropy
minimizer consistently picks a transverse (y-axis) measurement on spin 2,
and the minimum it finds is zero: the best measurement leaves spin 1 pure.
The closed form discord_curve, which the sweep uses, gives the same q with
no state and no optimizer. A reduced-resolution version of the `mqdimer
fig2` preset is written out.
"""

import math
from pathlib import Path

import numpy as np

from mqdimer import DimerParams, SweepConfig, discord, discord_curve, evolve_analytic, run_sweep

ISQ = 1.0 / math.sqrt(2.0)
p = DimerParams(alpha=ISQ, beta=ISQ, b=0.1)

taus = np.linspace(0.0, np.pi, 13)
closed = discord_curve(p, tau_bar=taus, measured=2)
gap = 0.0
print(f"{'tau_bar':>8} {'discord':>12} {'closed form':>12} {'mutual':>10} {'classical':>10}  best direction")
for tau_bar, q in zip(taus.tolist(), closed.tolist()):
    result = discord(evolve_analytic(p, tau_bar=tau_bar), measured=2)
    gap = max(gap, abs(result.q - q))
    n = result.best_direction
    print(
        f"{tau_bar:8.4f} {result.q:12.3e} {q:12.3e} {result.mutual:10.6f} {result.classical:10.6f}"
        f"  ({n[0]:+.3f}, {n[1]:+.3f}, {n[2]:+.3f})"
    )
print(f"largest gap between the optimizer's q and the closed form: {gap:.1e}")

out_dir = Path(__file__).resolve().parent / "output"
out_dir.mkdir(exist_ok=True)
cfg = SweepConfig(
    alpha=ISQ,
    beta=ISQ,
    b=0.1,
    points=61,
    quantities=("discord",),
    measured_subsystem=2,
    output_path=str(out_dir / "discord_sweep"),
    format="both",
)
for path in run_sweep(cfg):
    print("wrote", path)
print("Discord vanishes at tau_bar = 0 and pi (product states) and at pi/2,")
print("where the state is classically correlated along y.")
