"""Self-test of the benchmark's output check.

Run from the repository root (about a minute):

    python3 bench/selftest.py

It runs one cosine_pulse sample against the recorded references (it must
pass), then the same workload and one fig4_traces sample against references
perturbed by the smallest difference the check is meant to catch (1e-4 in
F_D, 1e-4 in one stored P_e value); each of those must fail, and failed_frac
must rise to 1.  Exits non-zero if any expectation does not hold.
"""

import copy
import json
import sys

import run


def failed_frac(workload: str, seed: int, references: dict) -> float:
    result = run.measure(workload, seed, 0.0, False, references)
    for problem in result["problems"]:
        print(f"  {problem}")
    return result["failed"] / result["attempted"]


def main() -> int:
    references = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    cases = []

    cases.append(("cosine_pulse, recorded references", "cosine_pulse", references, 0.0))

    perturbed = copy.deepcopy(references)
    perturbed["cosine_pulse"]["F_D_g"][0] -= 1e-4
    cases.append(("cosine_pulse, F_D_g reference - 1e-4", "cosine_pulse", perturbed, 1.0))

    perturbed = copy.deepcopy(references)
    seed = 3
    trace = perturbed["fig4_traces"][str(run.phase_index(seed))]["P_e_beta_imag"]
    trace[len(trace) // 2] += 1e-4
    cases.append(("fig4_traces, one P_e_beta_imag reference + 1e-4", "fig4_traces", perturbed, 1.0))

    ok = True
    for label, workload, refs, expected in cases:
        got = failed_frac(workload, seed, refs)
        status = "ok" if got == expected else "UNEXPECTED"
        ok &= got == expected
        print(f"{status}: {label}: failed_frac = {got:g} (expected {expected:g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
