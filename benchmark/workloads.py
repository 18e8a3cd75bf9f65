"""The three benchmark workloads.

Each workload makes its inputs from a seed, then hands the harness one
round of operations at a time. A round is the workload's fixed mix, so
every whole round has the same share of each instance class. An
operation is a timed call into uqsd plus an oracle from ``oracles`` that
runs after the timer stops.

uqsd functions are always looked up on their module at call time
(``ensemble.reciprocal_states``, not a name bound at import), so the
tracer's wrappers see every call. Import this module only after
``src/`` is on the path.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from uqsd import cli, ensemble, solver, symmetry

import oracles

ROOT = Path(__file__).resolve().parents[1]

# Two-state sweep: 1 - |s| from 1e-2 down to 1e-8. At and below 1e-5 uqsd
# misses the closed form today (ROADMAP item 3). Those points stay in the
# mix and count as failed. Only their closed-form miss is marked as the
# known defect, so any other failure on them still makes ``correct`` false.
SWEEP_DELTAS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
KNOWN_DEFECT_DELTA = 1e-5

FULL = {
    "sdp_dim": 32,
    "sdp_pool": 256,
    # (r, m) of the small-docs solve documents. The shapes are fixed and only
    # the states and priors come from the seed: solve time grows with the
    # shape, so shapes drawn from the seed made the mix's cost vary by seed.
    "solve_shapes": ((2, 2), (4, 3), (5, 5), (6, 4), (8, 6), (8, 8)),
    "sweep": SWEEP_DELTAS,
    "epm_blocks": (3, 4),
    "sim_trials": 100_000,
    "gu_orders": (16, 24, 24, 24, 32),
    "cgu_dim": 16,
}
SMOKE = {
    "sdp_dim": 4,
    "sdp_pool": 2,
    "solve_shapes": ((4, 3),),
    "sweep": (1e-2, 1e-8),
    "epm_blocks": (2, 3),
    "sim_trials": 1_000,
    "gu_orders": (4, 6),
    "cgu_dim": 8,
}


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is its oracle."""

    cls: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _pairs(v) -> list[list[float]]:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v).ravel()]


def _ensemble_doc(states: np.ndarray, priors) -> dict:
    return {
        "r": states.shape[0],
        "m": states.shape[1],
        "states": [_pairs(states[:, i]) for i in range(states.shape[1])],
        "priors": [float(x) for x in priors],
    }


def _spec_doc(group, generators, generator_group=None) -> dict:
    doc = {
        "group": [[_pairs(row) for row in u] for u in group],
        "generators": [_pairs(g) for g in generators],
    }
    if generator_group is not None:
        doc["generator_group"] = [[_pairs(row) for row in u] for u in generator_group]
    return doc


def _random_states(rng, r: int, m: int) -> np.ndarray:
    a = rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))
    return a / np.linalg.norm(a, axis=0)


def _random_priors(rng, m: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, m)
    return w / w.sum()


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _unit(rng, n: int) -> np.ndarray:
    return _random_states(rng, n, 1)[:, 0]


def _shift_group(n: int, step: int = 1) -> list[np.ndarray]:
    shift = np.roll(np.eye(n, dtype=complex), step, axis=0)
    group = [np.eye(n, dtype=complex)]
    while len(group) < n // step:
        group.append(shift @ group[-1])
    return group


def sweep_inputs(rng, deltas) -> list[tuple[str, float, np.ndarray, np.ndarray]]:
    """Two states in C^2 at overlap 1 - delta, equal and unequal priors.

    Each pair is turned by a random unitary, so no input is axis-aligned.
    """
    eta = rng.uniform(0.2, 0.4)
    out = []
    for cls, priors in (("sweep-equal", [0.5, 0.5]), ("sweep-unequal", [eta, 1.0 - eta])):
        for delta in deltas:
            s, t = 1.0 - delta, np.sqrt(delta * (2.0 - delta))
            states = _unitary(rng, 2) @ np.array([[1.0, s], [0.0, t]], dtype=complex)
            out.append((cls, delta, states, np.array(priors)))
    return out


def degenerate_epm_input(rng, blocks) -> tuple[np.ndarray, np.ndarray, float]:
    """States whose smallest singular value is shared by two blocks, with EPM priors.

    Each block is a circulant set with Fourier magnitudes chosen so that
    both blocks reach the same minimum ``mu``. The priors are a random
    convex mix of the two squared singular-vector rows, which makes the
    EPM optimal with P_D = mu^2; because the minimum is degenerate, uqsd
    has to decide it with the LP test. A random unitary hides the blocks.
    """
    mu = rng.uniform(0.3, 0.6)
    cols, priors = [], []
    weight = rng.uniform(0.25, 0.75)
    offset, r = 0, sum(blocks) + 1
    for n, b in zip(blocks, (weight, 1.0 - weight)):
        others = rng.uniform(0.8, 1.2, n - 1)
        others *= np.sqrt((n - mu**2) / np.sum(others**2))
        mags = rng.permutation(np.concatenate([[mu], others]))
        psi = np.fft.ifft(mags * np.exp(2j * np.pi * rng.random(n)))
        for j in range(n):
            col = np.zeros(r, dtype=complex)
            col[offset : offset + n] = np.roll(psi, j)
            cols.append(col)
        priors += [b / n] * n
        offset += n
    states = _unitary(rng, r) @ np.column_stack(cols)
    return states, np.array(priors), mu**2


def cyclic_spec(rng, n: int) -> tuple[dict, float]:
    """GU spec: cyclic shifts of C^n and a random generator, with its P_D."""
    psi = _unit(rng, n)
    return _spec_doc(_shift_group(n), [psi]), oracles.circulant_pd(psi)


def compound_spec(rng, d: int) -> tuple[dict, float]:
    """CGU spec on C^d: shifts by two, and generators psi and Z^(d/2) psi.

    Z^(d/2) = diag((-1)^j) commutes with the outer group, so the whole set
    is the regular orbit of an abelian group and the EPM is optimal.
    """
    group = _shift_group(d, 2)
    flip = np.diag((-1.0) ** np.arange(d)).astype(complex)
    psi = _unit(rng, d)
    gens = [psi, flip @ psi]
    doc = _spec_doc(group, gens, [np.eye(d, dtype=complex), flip])
    return doc, oracles.epm_value(oracles.orbit_states(group, gens))


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# --- oracles on CLI JSON documents ---------------------------------------


def _check_cli(result, inner: Callable[[dict], str | None]) -> str | None:
    code, text, err = result
    if code != 0:
        return f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    return inner(json.loads(text))


def _solution(doc: dict):
    s = doc["solve"]
    return s["p"], oracles.decode_matrix(s["X"]), s["z"]


def _check_solve(states, priors):
    return lambda doc: oracles.certified_optimal(states, priors, *_solution(doc))


def _check_sweep(states, priors, known_defect: bool):
    reference = oracles.two_state_pd(states, priors)

    def check(doc):
        pd = doc["measurement"]["detection_probability"]
        miss = oracles.relative_miss(pd, reference, oracles.CLOSED_FORM_RTOL)
        return oracles.KnownDefect(miss) if miss is not None and known_defect else miss

    return check


def _check_epm(reference):
    def check(doc):
        verdict = doc["epm"]["tests"]["lp"].get("verdict")
        if verdict != "Optimal":
            return f"LP test verdict {verdict}"
        if not doc.get("verification", {}).get("passed"):
            return "EPM certificate missing or rejected"
        pd = doc["measurement"]["detection_probability"]
        return oracles.relative_miss(pd, reference, oracles.SYMMETRIC_RTOL)

    return check


def _check_simulate(states, priors):
    def check(doc):
        p, x_mat, z = _solution(doc)
        miss = oracles.certified_optimal(states, priors, p, x_mat, z)
        return miss or oracles.simulation_miss(doc["simulation"], float(priors @ np.array(p)))

    return check


def _check_symmetric_doc(reference):
    def check(doc):
        if doc["symmetry"]["verdict"] != "Optimal":
            return f"verdict {doc['symmetry']['verdict']}"
        if not doc.get("verification", {}).get("passed"):
            return "certificate missing or rejected"
        pd = doc["measurement"]["detection_probability"]
        return oracles.relative_miss(pd, reference, oracles.SYMMETRIC_RTOL)

    return check


def _spec_reference(path: Path) -> float:
    doc = json.loads(path.read_text())
    group = [oracles.decode_matrix(u) for u in doc["group"]]
    gens = [oracles.decode_vector(g) for g in doc["generators"]]
    return oracles.epm_value(oracles.orbit_states(group, gens))


# --- workloads --------------------------------------------------------------


@dataclass
class Workload:
    """Inputs made from ``seed`` in ``workdir``; ``round(i)`` gives the i-th round."""

    seed: int
    workdir: Path
    config: dict

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run the first operation of each class once, untimed and uncounted."""
        seen = set()
        for op in self.round(0):
            if op.cls not in seen:
                seen.add(op.cls)
                op.run()


class SdpDense(Workload):
    """Random complex Gaussian ensembles, r = m = 32, random priors."""

    def setup(self) -> None:
        n = self.config["sdp_dim"]
        make = ensemble.StateEnsemble
        self.instances = [
            make(_random_states(self.rng, n, n), _random_priors(self.rng, n))
            for _ in range(self.config["sdp_pool"])
        ]
        # Solve time varies 3x between random instances; a warm-up instance
        # that does not depend on the seed keeps setup_s comparable across seeds.
        fixed = np.random.default_rng(0)
        self.warm = make(_random_states(fixed, n, n), _random_priors(fixed, n))

    def warm_up(self) -> None:
        self._op(self.warm).run()

    def round(self, i: int) -> list[Op]:
        return [self._op(self.instances[i % len(self.instances)])]

    def _op(self, ens) -> Op:
        def run():
            recips = ensemble.reciprocal_states(ens)
            report = solver.solve(solver.build_sdp(ens, recips))
            ver = solver.verify_certificate(ens, recips, report.p, report.certificate)
            meas = ensemble.measurement_from_probs(recips, report.p)
            return report, ver, meas

        def check(out):
            report, ver, _ = out
            if report.status.value != "Optimal":
                return f"status {report.status.value}"
            if not ver.passed:
                return "certificate rejected"
            cert = report.certificate
            return oracles.certified_optimal(ens.states, ens.priors, report.p, cert.X, cert.z)

        return Op(f"dense-{ens.r}", run, check)


class SmallDocs(Workload):
    """In-process ``cli.main([..., "--json"])`` calls on small documents."""

    def _solve_doc(self, r: int, m: int, name: str):
        states, priors = _random_states(self.rng, r, m), _random_priors(self.rng, m)
        path = _write(self.workdir / name, _ensemble_doc(states, priors))
        return path, states, priors

    def _epm_doc(self, name: str):
        states, priors, _ = degenerate_epm_input(self.rng, self.config["epm_blocks"])
        path = _write(self.workdir / name, _ensemble_doc(states, priors))
        return path, oracles.epm_value(states)

    def setup(self) -> None:
        cfg, ops = self.config, []
        for k, (r, m) in enumerate(cfg["solve_shapes"]):
            path, states, priors = self._solve_doc(r, m, f"solve{k}.json")
            ops.append(("solve", ["solve", path], _check_solve(states, priors)))
        for k, (cls, delta, states, priors) in enumerate(sweep_inputs(self.rng, cfg["sweep"])):
            path = _write(self.workdir / f"sweep{k}.json", _ensemble_doc(states, priors))
            known = delta <= KNOWN_DEFECT_DELTA
            ops.append((cls, ["solve", path], _check_sweep(states, priors, known)))
        for k in range(2):
            path, reference = self._epm_doc(f"epm{k}.json")
            ops.append(("epm", ["epm", path], _check_epm(reference)))
        for k in range(2):
            path, states, priors = self._solve_doc(4, 3, f"sim{k}.json")
            argv = ["simulate", path, "--trials", str(cfg["sim_trials"]),
                    "--seed", str(self.seed + k)]
            ops.append(("simulate", argv, _check_simulate(states, priors)))
        for sub, name in (("gu", "sign_group_gu.json"), ("cgu", "pauli_pair_cgu.json")):
            path = ROOT / "data" / name
            ops.append((sub, [sub, str(path)], _check_symmetric_doc(_spec_reference(path))))
        self.ops = [
            Op(cls, (lambda a=argv: self._cli(a)), (lambda res, c=check: _check_cli(res, c)))
            for cls, argv, check in ops
        ]

    def round(self, i: int) -> list[Op]:
        return self.ops

    def _cli(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([*argv, "--json"])
        return code, sink.getvalue(), err.getvalue()


class Symmetric(Workload):
    """GU specs for cyclic shift groups plus one CGU spec, loaded from files."""

    def setup(self) -> None:
        self.specs = []
        for k, n in enumerate(self.config["gu_orders"]):
            doc, reference = cyclic_spec(self.rng, n)
            self.specs.append((f"gu-{n}", _write(self.workdir / f"gu{k}.json", doc), reference))
        doc, reference = compound_spec(self.rng, self.config["cgu_dim"])
        self.specs.append(("cgu", _write(self.workdir / "cgu.json", doc), reference))

    def round(self, i: int) -> list[Op]:
        return [self._op(*spec) for spec in self.specs]

    def _op(self, cls: str, path: str, reference: float) -> Op:
        solve_name = "solve_cgu" if cls == "cgu" else "solve_gu"

        def run():
            sol = getattr(symmetry, solve_name)(symmetry.load_symmetry_spec(path))
            if sol.certificate is None:
                return sol, None
            recips = ensemble.reciprocal_states(sol.ensemble)
            return sol, solver.verify_certificate(
                sol.ensemble, recips, sol.measurement.probs, sol.certificate
            )

        def check(out):
            sol, ver = out
            if sol.verdict.value != "Optimal":
                return f"verdict {sol.verdict.value}"
            if ver is None or not ver.passed:
                return "certificate missing or rejected"
            pd = float(sol.ensemble.priors @ sol.measurement.probs)
            return oracles.relative_miss(pd, reference, oracles.SYMMETRIC_RTOL)

        return Op(cls, run, check)


WORKLOADS = {
    "sdp-dense": SdpDense,
    "small-docs": SmallDocs,
    "symmetric": Symmetric,
}
