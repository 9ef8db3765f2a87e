"""Qubit rotations feel the phase of the cavity field.

Prepare the dressed coherent state with four photons and beta either purely
real or purely imaginary, then apply the same strong resonant-ish qubit drive
to both.  The excited-state probability traces separate cleanly: the effective
qubit tilt carried by the dressed state interferes with the applied drive, so
the outcome depends on arg(beta), not just on the photon number.

Run:  python demos/03_qubit_drive_phase.py
"""

from jcdrive import ScenarioConfig, run_scenario

config = ScenarioConfig(scenario="fig4", alpha_sq=4.0, check_convergence=False)
result = run_scenario(config)

t = result.column("t")
pe_real = result.column("P_e_beta_real")
pe_imag = result.column("P_e_beta_imag")

print(f"drive: |eta| = {result.meta['eta_abs']}, omega = {result.meta['omega_drive']}")
print(f"max |P_e(beta real) - P_e(beta imag)| = {result.meta['max_abs_diff']}")
print("\n  t        P_e(beta=2)   P_e(beta=2i)")
for k in range(0, len(t), max(1, len(t) // 16)):
    print(f"  {t[k]:7.4f}  {pe_real[k]:12.5f}  {pe_imag[k]:12.5f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6.5, 3.4), constrained_layout=True)
    ax.plot(t, pe_real, label=r"$\beta = 2$ (real)")
    ax.plot(t, pe_imag, label=r"$\beta = 2i$ (imaginary)")
    ax.set_xlabel("qubit drive duration")
    ax.set_ylabel(r"$P_e$")
    ax.set_title("excited-state probability depends on the field phase")
    ax.legend()
    fig.savefig("demo03_qubit_drive_phase.png", dpi=150)
    print("\nwrote demo03_qubit_drive_phase.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the figure)")
