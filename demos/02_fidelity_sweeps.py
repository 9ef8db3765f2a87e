"""Full lab-frame numerics vs the dressed-coherent-state description.

Sweeps the target photon number, drives both qubit branches with the exact
time evolution (no dispersive approximation), and scores the final state
against the dressed coherent state and against the naive bare product state.
Two things to look for in the output:

* the dressed description beats the bare one at every point (gap > 0), and
* the quartic phase correction is what makes the high fidelities possible.

Run:  python demos/02_fidelity_sweeps.py      (under a second)
"""

from jcdrive import ScenarioConfig, run_scenario

config = ScenarioConfig(scenario="fig2b", check_convergence=False)
result = run_scenario(config)

cols = result.columns
print("photon-number sweep (drive eps = 0.05, lambda = 0.1):")
print(f"{'|alpha|^2':>9} {'F_D(g)':>9} {'F(g)':>9} {'gap(g)':>9} {'F_D(e)':>9} {'F(e)':>9} {'gap(e)':>9}")
for row in result.rows:
    r = dict(zip(cols, row))
    print(
        f"{r['alpha_sq']:9.1f} {r['F_D_g']:9.5f} {r['F_g']:9.5f} {r['gap_g']:9.5f} "
        f"{r['F_D_e']:9.5f} {r['F_e']:9.5f} {r['gap_e']:9.5f}"
    )

# ablation: re-run one point without the quartic phase correction
plain = run_scenario(
    ScenarioConfig(scenario="fig2b", sweep_values=(4.0,), phase_correction=False,
                   check_convergence=False)
)
print(
    f"\nphase-matching ablation at |alpha|^2 = 4: "
    f"F_D = {result.column('F_D_g')[2]:.5f} with the quartic correction, "  # row 2: alpha^2 = 4
    f"{plain.column('F_D_g')[0]:.5f} without"
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    a2 = result.column("alpha_sq")
    one_minus_fd = [1.0 - f for f in result.column("F_D_g")]
    gaps = result.column("gap_g")
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.3), constrained_layout=True)
    ax1.semilogy(a2, one_minus_fd, "o-")
    ax1.set_xlabel(r"$|\alpha|^2$")
    ax1.set_ylabel(r"$1 - F_D$")
    ax1.set_title("dressed-state infidelity")
    ax2.plot(a2, gaps, "s-", color="tab:red")
    ax2.set_xlabel(r"$|\alpha|^2$")
    ax2.set_ylabel(r"$F_D - F$")
    ax2.set_title("dressed minus bare overlap")
    fig.savefig("demo02_fidelity_sweeps.png", dpi=150)
    print("wrote demo02_fidelity_sweeps.png")
except ImportError:
    print("(matplotlib not installed; skipping the figure)")
