"""End-to-end tour of the bundled example inputs.

Runs the SDP pipeline on the three-state ensemble, on two nearly
parallel states (checked against the Jaeger-Shimony closed form) and on
the three states embedded in C^8 (r > m: the solver's answer is lifted
from the span of the states), the EPM analysis on the weighted
three-state ensemble (simple smallest singular value) and on a cyclic
four-state orbit whose smallest singular value is double, the
closed-form pipeline on the four-state symmetric set and the compound
two-group set, and a Monte-Carlo validation of each optimal measurement. Install the package first (pip install -e .), then:

    python scripts/run_examples.py

The exit code is 1 when a certificate is rejected, a closed form is
missed or a symmetric set's EPM is not proven optimal, and 0 otherwise.
"""

import math
import sys
from pathlib import Path

import numpy as np

from uqsd import (
    EpmVerdict,
    build_sdp,
    compute_epm,
    detection_probability,
    epm_analysis,
    epm_certificate,
    epm_test_lp,
    load_ensemble,
    load_symmetry_spec,
    measurement_from_probs,
    reciprocal_states,
    simulate,
    solve,
    solve_cgu,
    solve_gu,
    verify_certificate,
)

DATA = Path(__file__).resolve().parent.parent / "data"
CLOSED_FORM_RTOL = 1e-6


def verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def jaeger_shimony(states: np.ndarray, priors: np.ndarray) -> float:
    """Optimal P_D of two pure states (Jaeger and Shimony 1995).

    With eta_1 <= eta_2 and overlap s, P_D = 1 - 2 sqrt(eta_1 eta_2) |s|
    when |s| <= sqrt(eta_1 / eta_2), else eta_2 (1 - |s|^2). Both are
    written without cancellation as |s| -> 1: 1 - |s|^2 is the Lagrange
    identity sum_{i<j} |a_i b_j - a_j b_i|^2, and the first form is
    (sqrt eta_2 - sqrt eta_1)^2 + 2 sqrt(eta_1 eta_2) (1 - |s|).
    """
    a, b = states[:, 0], states[:, 1]
    overlap = abs(np.vdot(a, b))
    wedge = sum(
        abs(a[i] * b[j] - a[j] * b[i]) ** 2
        for i in range(len(a))
        for j in range(i + 1, len(a))
    )
    lo, hi = sorted(float(x) for x in priors)
    if overlap <= math.sqrt(lo / hi):
        root = math.sqrt(lo * hi)
        return (math.sqrt(hi) - math.sqrt(lo)) ** 2 + 2.0 * root * wedge / (1.0 + overlap)
    return hi * wedge


def banner(title: str) -> None:
    print("\n" + "=" * 64)
    print(title)
    print("=" * 64)


def sdp_pipeline(path: Path) -> bool:
    banner(f"SDP pipeline: {path.name}")
    ensemble = load_ensemble(path)
    recips = reciprocal_states(ensemble)
    report = solve(build_sdp(ensemble, recips))
    print(f"status     : {report.status.value} in {report.iterations} iterations")
    print(f"p          : {np.round(report.p, 6)}")
    pd = -report.primal_value
    print(f"P_D        : {pd:.10g}")
    ok = True
    if ensemble.m == 2:
        reference = jaeger_shimony(ensemble.states, ensemble.priors)
        ok = abs(pd - reference) <= CLOSED_FORM_RTOL * reference
        print(f"closed form: {reference:.10g} (Jaeger-Shimony; {verdict(ok)})")
    ver = verify_certificate(ensemble, recips, report.p, report.certificate)
    print(f"certificate: {verdict(ver.passed)} "
          f"(worst residual {max(ver.residuals.values()):.2e})")
    meas = measurement_from_probs(recips, report.p)
    sim = simulate(ensemble, meas, 200_000, seed=1)
    print(f"simulation : empirical P_D {sim.empirical_detection_probability:.5f}, "
          f"misidentifications {sim.misidentifications}")
    return ok and ver.passed


def epm_pipeline(path: Path) -> bool:
    banner(f"EPM analysis: {path.name}")
    ensemble = load_ensemble(path)
    recips = reciprocal_states(ensemble)
    analysis = epm_analysis(recips)
    meas = compute_epm(ensemble, recips)
    print(f"common p   : {meas.probs[0]:.6f} (multiplicity {analysis.s})")
    # Closed form at multiplicity one; above, the s x s reduced SDP decides.
    lp = epm_test_lp(ensemble, analysis)
    name = "exact test " if analysis.s == 1 else "reduced SDP"
    print(f"{name}: {lp.verdict.value} (residual {lp.residual:.2e})")
    ok = True
    if lp.A is not None:
        print(f"witness A  : {np.round(lp.A, 6)}")
        cert = epm_certificate(analysis, lp.A)
        ok = verify_certificate(ensemble, recips, meas.probs, cert).passed
        print(f"certificate: {verdict(ok)}")
    print(f"P_D        : {detection_probability(ensemble, meas):.6f}")
    return ok


def symmetric_pipeline(path: Path, compound: bool) -> bool:
    banner(f"{'Compound ' if compound else ''}symmetric pipeline: {path.name}")
    spec = load_symmetry_spec(path)
    sol = solve_cgu(spec) if compound else solve_gu(spec)
    print(f"states     : {sol.ensemble.m} in dimension {sol.ensemble.r}")
    print(f"verdict    : {sol.verdict.value}")
    print(f"common p   : {sol.p:.10f}")
    gens = np.round(sol.reciprocal_generators.T, 6)
    print(f"reciprocal generators (rows): {gens}")
    if sol.verdict is not EpmVerdict.OPTIMAL:
        return False
    ver = verify_certificate(sol.ensemble, sol.recips, sol.measurement.probs, sol.certificate)
    print(f"certificate: {verdict(ver.passed)}")
    sim = simulate(sol.ensemble, sol.measurement, 200_000, seed=2)
    print(f"simulation : per-state frequencies {np.round(sim.detection_frequency, 4)}")
    return ver.passed


def main() -> int:
    passed = [
        sdp_pipeline(DATA / "three_states.json"),
        sdp_pipeline(DATA / "near_parallel.json"),
        sdp_pipeline(DATA / "embedded_three_states.json"),
        epm_pipeline(DATA / "three_states_weighted.json"),
        epm_pipeline(DATA / "degenerate_epm.json"),
        symmetric_pipeline(DATA / "sign_group_gu.json", compound=False),
        symmetric_pipeline(DATA / "pauli_pair_cgu.json", compound=True),
    ]
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
