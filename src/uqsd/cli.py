"""Command-line front end.

Subcommands: ``solve`` (SDP pipeline), ``epm`` (equal-probability
measurement analysis), ``gu`` / ``cgu`` (closed-form symmetric
pipelines), ``group-verify`` (group axiom check, plus the phase fit
against a generator group) and ``simulate`` (Monte-Carlo validation of
the measurement of the pipeline that ``--pipeline`` names). Each pipeline
(sdp, epm, gu, cgu) has one runner, shared by its subcommand and by
``simulate``. Reports print as text by default; ``--json`` emits the
full structured document.

Exit codes: 0 success, 1 stdout closed before the report was written,
2 validation or input error, 3 solver non-convergence, 4 certificate
verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import epm as epm_mod
from . import solver as solver_mod
from . import symmetry as sym_mod
from .ensemble import (
    Measurement,
    StateEnsemble,
    detection_probability,
    inconclusive_probability,
    load_ensemble,
    measurement_from_probs,
    reciprocal_states,
)
from .errors import ValidationError
from .formats import encode_complex, encode_real_vector, read_document
from .simulate import simulate
from .solver import (
    OPERATOR_TOL,
    SCALAR_TOL,
    SolveReport,
    SolveStatus,
    build_sdp,
    solve,
    verify_certificate,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CERTIFICATE = 4


def _tolerances() -> dict:
    return {"max_iters": solver_mod.ITERATION_CAP, "operator_tol": OPERATOR_TOL,
            "scalar_tol": SCALAR_TOL}


def _input_summary(ensemble: StateEnsemble) -> dict:
    return {
        "r": ensemble.r,
        "m": ensemble.m,
        "priors": encode_real_vector(ensemble.priors),
    }


def _measurement_doc(ensemble: StateEnsemble, measurement: Measurement) -> dict:
    return {
        "p": encode_real_vector(measurement.probs),
        "detection_probability": detection_probability(ensemble, measurement),
        "inconclusive_probability": inconclusive_probability(ensemble, measurement),
        "reciprocals": encode_complex(measurement.reciprocals.T),
    }


def _solve_doc(report: SolveReport) -> dict:
    return {
        "p": encode_real_vector(report.p),
        "X": encode_complex(report.certificate.X),
        "z": encode_real_vector(report.certificate.z),
        "primal_value": report.primal_value,
        "dual_value": report.dual_value,
        "gap": report.gap,
        "iterations": report.iterations,
        "status": report.status.value,
        "residuals": report.residuals,
    }


def _verification(doc: dict, ensemble: StateEnsemble, recips, p, certificate) -> int:
    """Check a candidate with ``verify_certificate`` into ``doc``; the exit code."""
    ver = verify_certificate(ensemble, recips, p, certificate)
    doc["verification"] = {
        "passed": ver.passed,
        "residuals": ver.residuals,
        "tolerances": ver.tolerances,
        "checks": ver.checks,
        "trace_products": encode_real_vector(ver.detail["trace_products"]),
    }
    return EXIT_OK if ver.passed else EXIT_CERTIFICATE


def _print_report(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
        return
    summary = doc["input"]
    if "priors" in summary:
        print(f"ensemble: r={summary['r']} m={summary['m']}")
        print("priors:   " + " ".join(f"{x:.6f}" for x in summary["priors"]))
    else:
        print(f"group:    order={summary['order']} dim={summary['dim']}")
    print(f"pipeline: {doc['pipeline']}")
    if "solve" in doc:
        s = doc["solve"]
        print(f"status:   {s['status']} ({s['iterations']} iterations)")
        print("p:        " + " ".join(f"{x:.6f}" for x in s["p"]))
        print(f"gap:      {s['gap']:.3e} (bracket width {s['residuals']['gap']:.3e})")
    if "epm" in doc:
        a = doc["epm"]
        print(f"epm p:    {a['p']:.6f} (multiplicity s={a['s']}, distinct q={a['q']})")
        for name, test in a["tests"].items():
            print(f"  {name}: {test['verdict']} (residual {test['residual']:.3e})")
    if "symmetry" in doc:
        y = doc["symmetry"]
        print(f"verdict:  {y['verdict']}")
        print(f"epm p:    {y['p']:.10f}")
    if "measurement" in doc:
        meas = doc["measurement"]
        label = "P_D:     "
        if "symmetry" in doc and "solve" in doc:
            # The measurement is the closed-form EPM; the embedded solve is
            # the SDP fallback with its own (possibly better) optimum.
            label = "epm P_D: "
        print(f"{label} {meas['detection_probability']:.6f} "
              f"(inconclusive {meas['inconclusive_probability']:.6f})")
    if "verification" in doc:
        v = doc["verification"]
        worst = max(v["residuals"].values())
        print(f"certificate: {'pass' if v['passed'] else 'FAIL'} "
              f"(worst residual {worst:.3e})")
        if not v["passed"]:
            bad = [k for k, ok in v["checks"].items() if not ok]
            print("  failing checks: " + ", ".join(bad))
    if "make_priors" in doc:
        mp = doc["make_priors"]
        print("generated priors: " + " ".join(f"{x:.6f}" for x in mp["priors"]))
        print(f"  epm verified under generated priors: {mp['verified']}")
    if "simulation" in doc:
        sim = doc["simulation"]
        print(f"simulation: {sim['n_trials']} trials, seed {sim['seed']}")
        print(f"  empirical P_D: {sim['empirical_detection_probability']:.6f}")
        print(f"  misidentifications: {sim['misidentifications']}")
    if "group" in doc:
        rep = doc["group"]
        print(f"group axioms: {'pass' if rep['passed'] else 'FAIL'}")
        for key in ("unitarity", "identity", "closure", "inverses"):
            print(f"  {key}: {rep[key]:.3e}")
        print(f"  rows: {rep['rows']} of {summary['order']}")


def _run_sdp(ensemble: StateEnsemble, recips, doc: dict) -> tuple[int, Measurement | None]:
    """Solve and verify into ``doc``; the exit code and, if Optimal, the measurement."""
    report = solve(build_sdp(ensemble, recips))
    doc["solve"] = _solve_doc(report)
    if report.status is not SolveStatus.OPTIMAL:
        return EXIT_SOLVER, None
    exit_code = _verification(doc, ensemble, recips, report.p, report.certificate)
    return exit_code, measurement_from_probs(recips, report.p)


def _load_states(path) -> StateEnsemble:
    """The states of an ensemble document, or the expansion of a symmetry spec."""
    doc = read_document(path)
    if "group" in doc:
        return sym_mod.expand(sym_mod.load_symmetry_spec(doc))
    return load_ensemble(doc)


def _sdp_pipeline(args):
    ensemble = _load_states(args.file)
    recips = reciprocal_states(ensemble)
    doc = {"input": _input_summary(ensemble), "pipeline": "sdp", "tolerances": _tolerances()}
    exit_code, measurement = _run_sdp(ensemble, recips, doc)
    if measurement is not None:
        doc["measurement"] = _measurement_doc(ensemble, measurement)
    return doc, ensemble, measurement, exit_code


def _epm_tests_doc(lp, spectral) -> dict:
    tests = {
        "lp": {"verdict": lp.verdict.value, "residual": lp.residual},
        "spectral": {"verdict": spectral.verdict.value, "residual": spectral.residual},
    }
    if lp.A is not None:
        tests["lp"]["A"] = encode_complex(lp.A)
    if spectral.a_t is not None:
        tests["spectral"]["a_t"] = encode_real_vector(spectral.a_t)
    return tests


def _epm_pipeline(args):
    ensemble = _load_states(args.file)
    recips = reciprocal_states(ensemble)
    analysis = epm_mod.epm_analysis(recips)
    measurement = epm_mod.compute_epm(ensemble, recips)
    lp = epm_mod.epm_test_lp(ensemble, analysis)
    spectral = epm_mod.epm_test_spectral(ensemble, analysis)
    doc = {
        "input": _input_summary(ensemble),
        "pipeline": "epm",
        "tolerances": {
            "spectral_rtol": epm_mod.SPECTRAL_RTOL,
            "operator_tol": OPERATOR_TOL,
            "scalar_tol": SCALAR_TOL,
        },
        "epm": {
            "p": analysis.p,
            "s": analysis.s,
            "q": analysis.q,
            "distinct_values": encode_real_vector(analysis.distinct_values),
            "multiplicities": [int(x) for x in analysis.multiplicities],
            "last_row": encode_real_vector(analysis.last_rows[0]),
            "priors": encode_real_vector(ensemble.priors),
            "tests": _epm_tests_doc(lp, spectral),
        },
        "measurement": _measurement_doc(ensemble, measurement),
    }
    exit_code = EXIT_OK
    if lp.A is not None:
        cert = epm_mod.epm_certificate(analysis, lp.A)
        exit_code = _verification(doc, ensemble, recips, measurement.probs, cert)
    if args.make_priors is not None:
        try:
            b = np.array([float(x) for x in args.make_priors.split(",")])
        except ValueError as exc:
            raise ValidationError(f"--make-priors expects comma-separated numbers: {exc}")
        witness = np.diag(b)
        priors = epm_mod.priors_for_epm(analysis, witness)
        # The reciprocal set and the EPM do not depend on the priors.
        generated = StateEnsemble(ensemble.states, priors)
        cert = epm_mod.epm_certificate(analysis, witness)
        doc["make_priors"] = {
            "b": encode_real_vector(b),
            "priors": encode_real_vector(priors),
            "verified": verify_certificate(generated, recips, measurement.probs, cert).passed,
        }
    return doc, ensemble, measurement, exit_code


def _symmetric_pipeline(args):
    spec = sym_mod.load_symmetry_spec(args.file)
    sol = sym_mod.solve_gu(spec) if args.pipeline == "gu" else sym_mod.solve_cgu(spec)
    doc = {
        "input": _input_summary(sol.ensemble),
        "pipeline": args.pipeline,
        "tolerances": _tolerances(),
        "symmetry": {
            "verdict": sol.verdict.value,
            "p": sol.p,
            "reciprocal_generators": encode_complex(sol.reciprocal_generators),
        },
        "measurement": _measurement_doc(sol.ensemble, sol.measurement),
    }
    if sol.verdict is not epm_mod.EpmVerdict.OPTIMAL:
        # The EPM is not proven optimal; the SDP solver decides. The
        # measurement stays the EPM.
        exit_code, _ = _run_sdp(sol.ensemble, sol.recips, doc)
    else:
        exit_code = _verification(
            doc, sol.ensemble, sol.recips, sol.measurement.probs, sol.certificate
        )
    return doc, sol.ensemble, sol.measurement, exit_code


# One runner per pipeline. A runner takes the parsed arguments and returns
# (doc, ensemble, measurement, exit code); ``simulate`` uses the measurement
# only when the exit code is EXIT_OK.
_RUNNERS = {
    "sdp": _sdp_pipeline,
    "epm": _epm_pipeline,
    "gu": _symmetric_pipeline,
    "cgu": _symmetric_pipeline,
}


def _cmd_pipeline(args) -> int:
    """Run the runner of ``args.pipeline`` and print its document."""
    doc, _, _, exit_code = _RUNNERS[args.pipeline](args)
    _print_report(doc, args.json)
    return exit_code


def cmd_group_verify(args) -> int:
    doc_in = read_document(args.file)
    if "group" not in doc_in:
        raise ValidationError("document needs a 'group' field listing matrices")
    group = sym_mod.decode_group(doc_in["group"])
    report = sym_mod.verify_group(group)
    doc = {
        "input": {"order": group.order, "dim": group.dim},
        "pipeline": "group-verify",
        "group": dataclasses.asdict(report),
    }
    if doc_in.get("generator_group") is not None:
        # Evidence only: the exit code stays the axiom verdict.
        phase = sym_mod.check_commute_phase(
            group, sym_mod.decode_group(doc_in["generator_group"], "generator_group")
        )
        doc["phase"] = {**dataclasses.asdict(phase), "theta": phase.theta.tolist()}
    _print_report(doc, args.json)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_simulate(args) -> int:
    """Run the ``--pipeline`` runner; on success, simulate its measurement."""
    doc, ensemble, measurement, exit_code = _RUNNERS[args.pipeline](args)
    if exit_code == EXIT_OK:
        result = simulate(ensemble, measurement, args.trials, args.seed)
        doc["simulation"] = {
            "n_trials": result.n_trials,
            "seed": result.seed,
            "counts": [[int(x) for x in row] for row in result.counts],
            "empirical_detection_probability": result.empirical_detection_probability,
            "detection_frequency": encode_real_vector(result.detection_frequency),
            "misidentifications": result.misidentifications,
        }
    _print_report(doc, args.json)
    return exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: in-process callers of main() reuse it.
    parser = argparse.ArgumentParser(
        prog="uqsd",
        description="Optimal unambiguous discrimination of pure quantum states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("file", help="input document (JSON)")

    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve the discrimination SDP and verify the certificate")
    p_solve.set_defaults(func=_cmd_pipeline, pipeline="sdp")

    p_epm = sub.add_parser("epm", parents=[common],
                           help="equal-probability measurement analysis")
    p_epm.add_argument("--make-priors", metavar="B1,B2,...",
                       help="generate priors that make the EPM optimal from these weights, "
                            "the diagonal of the witness A")
    p_epm.set_defaults(func=_cmd_pipeline, pipeline="epm")

    p_gu = sub.add_parser("gu", parents=[common],
                          help="closed-form pipeline for a single-generator symmetric set")
    p_gu.set_defaults(func=_cmd_pipeline, pipeline="gu")

    p_cgu = sub.add_parser("cgu", parents=[common],
                           help="closed-form pipeline for a multi-generator symmetric set")
    p_cgu.set_defaults(func=_cmd_pipeline, pipeline="cgu")

    p_gv = sub.add_parser("group-verify", parents=[common],
                          help="check the group axioms of a symmetry spec")
    p_gv.set_defaults(func=cmd_group_verify)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="Monte-Carlo validation of a measurement")
    p_sim.add_argument("--pipeline", choices=["sdp", "epm", "gu", "cgu"], default="sdp")
    p_sim.add_argument("--trials", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    # The epm runner reads the epm subcommand's --make-priors.
    p_sim.set_defaults(func=cmd_simulate, make_priors=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # Not an input error. Send stdout to devnull so that the flush at
        # exit cannot fail again, and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
