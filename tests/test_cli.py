import contextlib
import copy
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uqsd.epm
import uqsd.solver
import uqsd.symmetry
from uqsd import load_ensemble
from uqsd.cli import main
from uqsd.formats import decode_complex, encode_complex

from helpers import (
    dense_born,
    outer_products,
    sign_group_elements,
    sign_group_generator,
    three_state_matrix,
)
from oracles import two_state_pd


@pytest.fixture()
def three_states_file(tmp_path):
    states = three_state_matrix()
    doc = {
        "r": 3,
        "m": 3,
        "states": [encode_complex(states[:, i]) for i in range(3)],
    }
    path = tmp_path / "three.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def weighted_file(tmp_path):
    states = three_state_matrix()
    _, _, vh = np.linalg.svd(states)
    doc = {
        "r": 3,
        "m": 3,
        "states": [encode_complex(states[:, i]) for i in range(3)],
        "priors": list(np.abs(vh[-1, :]) ** 2),
    }
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def gu_spec_file(tmp_path):
    doc = {
        "group": [encode_complex(u) for u in sign_group_elements()],
        "generators": [encode_complex(sign_group_generator())],
    }
    path = tmp_path / "gu.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolveCommand:
    def test_golden_run(self, three_states_file, capsys):
        code, doc = run_json(capsys, ["solve", three_states_file, "--json"])
        assert code == 0
        p = [x for x in doc["solve"]["p"]]
        assert abs(p[0]) <= 5e-3 and abs(p[1] - 0.17) <= 5e-3 and abs(p[2] - 0.17) <= 5e-3
        assert doc["verification"]["passed"] is True
        assert doc["solve"]["status"] == "Optimal"
        # Embedded detection probability is the prior-weighted sum of p.
        eta = doc["input"]["priors"]
        pd = sum(a * b for a, b in zip(eta, p))
        assert abs(doc["measurement"]["detection_probability"] - pd) <= 1e-12
        assert "tolerances" in doc

    def test_embedded_bundled_input(self, capsys):
        # The three states mapped into C^8 by an isometry: the solve runs on
        # their span and lifts X back to 8 x 8, with the unembedded P_D.
        docs = [
            run_json(capsys, ["solve", str(DATA / f"{name}.json"), "--json"])
            for name in ("three_states", "embedded_three_states")
        ]
        assert [code for code, _ in docs] == [0, 0]
        (_, base), (_, embedded) = docs
        assert embedded["verification"]["passed"] is True
        assert len(embedded["solve"]["X"]) == 8
        pd = embedded["measurement"]["detection_probability"]
        assert pd == pytest.approx(base["measurement"]["detection_probability"], rel=1e-12)

    def test_measurement_is_factored(self, tmp_path, capsys):
        # The measurement is written as p plus the reciprocal columns; the
        # dense operators rebuilt from them form the unambiguous measurement.
        n = 32
        rng = np.random.default_rng(32)
        states = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        states /= np.linalg.norm(states, axis=0)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"r": n, "m": n, "states": encode_complex(states.T)}))
        assert main(["solve", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert len(out.encode()) < 500_000
        meas = json.loads(out)["measurement"]
        assert "operators" not in meas and "inconclusive_operator" not in meas
        p = np.array(meas["p"])
        c = decode_complex(meas["reciprocals"], 2, "reciprocals").T
        ops = p[:, None, None] * outer_products(c)
        assert np.max(np.abs(dense_born(states, ops) - np.diag(p))) <= 1e-10
        assert np.linalg.eigvalsh(ops.sum(axis=0))[-1] <= 1.0 + 1e-8

    def test_text_output(self, three_states_file, capsys):
        code = main(["solve", three_states_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "status:   Optimal" in out
        assert "certificate: pass" in out

    def test_orthonormal_run(self, tmp_path, capsys):
        doc = {
            "r": 2,
            "m": 2,
            "states": [encode_complex(np.array([1.0, 0.0])),
                       encode_complex(np.array([0.0, 1.0]))],
        }
        path = tmp_path / "ortho.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["solve", str(path), "--json"])
        assert code == 0
        assert all(abs(x - 1.0) <= 1e-6 for x in out["solve"]["p"])
        assert abs(out["measurement"]["detection_probability"] - 1.0) <= 1e-7

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"r": 2, "m": 2, "states": [[[1, 0], [0, 0]],
                                                              [[1, 0], [0, 0]]]}))
        assert main(["solve", str(bad)]) == 2
        assert "linearly dependent" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["solve", "/nonexistent/nowhere.json"]) == 2

    def test_solver_failure_exit_code(self, three_states_file, monkeypatch, capsys):
        monkeypatch.setattr(uqsd.solver, "ITERATION_CAP", 2)
        assert main(["solve", three_states_file]) == 3
        out = capsys.readouterr().out
        assert "MaxIterations" in out

    def test_numerical_failure_exit_code(self, three_states_file, monkeypatch, capsys):
        def failing(x_mat, s_mat):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(uqsd.solver, "_nt_scaling", failing)
        code, doc = run_json(capsys, ["solve", three_states_file, "--json"])
        assert code == 3
        assert doc["solve"]["status"] == "NumericalFailure"
        assert "verification" not in doc and "measurement" not in doc

    def test_removed_gap_flag_exits_2(self, capsys):
        path = Path(__file__).resolve().parents[1] / "data" / "three_states.json"
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(path), "--tol-gap", "1e-8"])
        assert exc.value.code == 2
        assert "--tol-gap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "gu", "cgu", "simulate"])
    def test_removed_iteration_flag_exits_2(self, capsys, command):
        path = DATA / "sign_group_gu.json"
        with pytest.raises(SystemExit) as exc:
            main([command, str(path), "--max-iters", "50"])
        assert exc.value.code == 2
        assert "--max-iters" in capsys.readouterr().err

    def test_text_output_prints_bracket_width(self, three_states_file, capsys):
        assert main(["solve", three_states_file]) == 0
        assert "bracket width" in capsys.readouterr().out

    def test_certificate_failure_exit_code(self, three_states_file, capsys,
                                           monkeypatch):
        import uqsd.cli as cli_mod

        real_verify = cli_mod.verify_certificate

        def failing_verify(*args, **kwargs):
            report = real_verify(*args, **kwargs)
            object.__setattr__(report, "passed", False)
            return report

        monkeypatch.setattr(cli_mod, "verify_certificate", failing_verify)
        assert main(["solve", three_states_file]) == 4


TWO_STATES = [encode_complex(np.array([1.0, 0.0])), encode_complex(np.array([0.6, 0.8]))]
SIGN_GROUP = [encode_complex(u) for u in sign_group_elements()]
MIXED_SIZE_GROUP = [encode_complex(np.eye(2)), encode_complex(np.eye(3))]


def false_imaginary_parts(obj):
    """The same pairs with every zero imaginary part written as JSON ``false``."""
    if isinstance(obj[0], list):
        return [false_imaginary_parts(x) for x in obj]
    return [obj[0], False if obj[1] == 0.0 else obj[1]]


# The message of the hostile documents below that one validation raise alone reaches.
HOSTILE_ERRORS = {
    "top-level-array": "top-level document must be an object",
    "non-numeric-make-priors": "--make-priors expects comma-separated numbers",
}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["solve"], {"r": 2, "m": 2, "states": TWO_STATES, "priors": ["a", "b"]}),
        (["solve"], {"r": 2, "m": 2, "states": TWO_STATES, "priors": {"a": 0.5}}),
        (["solve"], {"r": -2, "m": 2, "states": TWO_STATES}),
        (["gu"], {"group": SIGN_GROUP, "generators": []}),
        (["gu"], {"group": SIGN_GROUP, "generators": [
            encode_complex(sign_group_generator()), encode_complex(np.ones(3) / np.sqrt(3))
        ]}),
        (["simulate", "--seed", "-1"], {"r": 2, "m": 2, "states": TWO_STATES}),
        (["simulate", "--trials", str(10**15)], {"r": 2, "m": 2, "states": TWO_STATES}),
        (["gu"], {"group": MIXED_SIZE_GROUP, "generators": [[[1.0, 0.0], [0.0, 0.0]]]}),
        (["group-verify"], {"group": MIXED_SIZE_GROUP}),
        (["gu"], {"group": SIGN_GROUP, "generators": [encode_complex(sign_group_generator())],
                  "generator_group": 5}),
        (["solve"], {"r": 10**12, "m": 2, "states": TWO_STATES}),
        (["solve"], {"r": 2.7, "m": 2, "states": TWO_STATES}),
        (["solve"], {"r": 2, "m": 2, "states": [[1.0, 0.0], [0.6, 0.8]]}),
        (["solve"], {"r": 2, "m": 2, "states": [[[1.0, 0.0], [0.0, 0.0]],
                                                 [[0.6, 0.0], [float("nan"), 0.0]]]}),
        (["gu"], {"group": [encode_complex(np.full((3, 3), np.nan))],
                  "generators": [encode_complex(sign_group_generator())]}),
        (["gu"], {"group": SIGN_GROUP, "generators": [encode_complex(np.ones(3) / np.sqrt(3))]}),
        (["solve"], {"r": 2, "m": 2, "states": false_imaginary_parts(TWO_STATES)}),
        (["gu"], {"group": false_imaginary_parts(SIGN_GROUP),
                  "generators": [encode_complex(sign_group_generator())]}),
        (["group-verify"], {"group": false_imaginary_parts(SIGN_GROUP)}),
        (["group-verify"], {"group": SIGN_GROUP, "generator_group": [encode_complex(np.eye(2))]}),
        (["group-verify"], {"group": SIGN_GROUP,
                            "generator_group": [encode_complex(2.0 * np.eye(4))]}),
        (["gu"], {"group": SIGN_GROUP,
                  "generators": false_imaginary_parts([encode_complex(sign_group_generator())])}),
        (["solve"], {"r": 2, "m": 2, "states": [[[1.0, 0.0], [10**400, 0.0]], TWO_STATES[1]]}),
        (["solve"], {"r": 2, "m": 2, "states": TWO_STATES, "priors": ["0.3", "0.7"]}),
        (["solve"], {"r": 2, "m": 1, "states": TWO_STATES[:1], "priors": [True]}),
        (["solve"], {"r": 2, "m": 2, "states": TWO_STATES, "priors": [10**400, 0.5]}),
        (["solve"], [{"r": 2, "m": 2, "states": TWO_STATES}]),
        (["epm", "--make-priors", "a,b"], {"r": 2, "m": 2, "states": TWO_STATES}),
    ],
    ids=[
        "non-numeric-priors",
        "object-priors",
        "negative-r",
        "empty-generators",
        "ragged-generators",
        "negative-seed",
        "huge-trials",
        "mixed-size-group-gu",
        "mixed-size-group-verify",
        "scalar-generator-group",
        "huge-r",
        "non-integral-r",
        "bare-number-states",
        "nan-states",
        "nan-group",
        "short-generators",
        "bool-states",
        "bool-group-gu",
        "bool-group-verify",
        "generator-group-dimension-verify",
        "non-unitary-generator-group-verify",
        "bool-generators",
        "huge-int-states",
        "numeric-string-priors",
        "bool-priors",
        "huge-int-priors",
        "top-level-array",
        "non-numeric-make-priors",
    ],
)
def test_hostile_documents_exit_2(request, tmp_path, capsys, argv, doc):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert HOSTILE_ERRORS.get(request.node.callspec.id, "") in err


def test_deeply_nested_document_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"r": 2, "m": 2, "states": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert main(["solve", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_utf8_document_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"r": 1, "m": 1, "note": "\xff\xfe", "states": [[[1, 0]]]}')
    assert main(["solve", str(path)]) == 2
    assert "not valid UTF-8" in capsys.readouterr().err


DATA = Path(__file__).resolve().parent.parent / "data"
BUNDLED = {path.name: json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))}


def readme_cli_commands() -> list[list[str]]:
    """The commands of README's CLI block, each without its leading ``uqsd``."""
    text = (DATA.parent / "README.md").read_text()
    block = text.split("## CLI\n\n```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_readme_cli_commands(monkeypatch, capsys):
    # Every command as the README prints it, run from the repository root.
    monkeypatch.chdir(DATA.parent)
    commands = readme_cli_commands()
    assert ["solve", "data/near_parallel.json"] in commands
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    # Two states at 1 - |s| = 1e-8: P_D against the Jaeger-Shimony closed form.
    _, doc = run_json(capsys, ["solve", "data/near_parallel.json", "--json"])
    ensemble = load_ensemble("data/near_parallel.json")
    reference = two_state_pd(ensemble.states, ensemble.priors)
    assert doc["measurement"]["detection_probability"] == pytest.approx(reference, rel=1e-6)


SUBCOMMANDS = [
    ["solve"],
    ["epm"],
    ["gu"],
    ["cgu"],
    ["group-verify"],
    *(["simulate", "--pipeline", kind, "--trials", "200"] for kind in ("sdp", "epm", "gu", "cgu")),
]
FIELDS = ["r", "m", "states", "priors", "group", "generators", "generator_group"]

def non_optimal_cgu_doc() -> dict:
    """CGU spec whose EPM is not optimal: a swap group on C^4, two random generators."""
    rng = np.random.default_rng(3)
    gens = []
    for _ in range(2):
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        gens.append(g / np.linalg.norm(g))
    return {
        "group": [encode_complex(np.eye(4)), encode_complex(np.roll(np.eye(4), 2, 0))],
        "generators": [encode_complex(g) for g in gens],
    }


PARITY_INPUTS = {**BUNDLED, "non-optimal-cgu": non_optimal_cgu_doc()}


@pytest.mark.parametrize(
    "argv",
    [
        ["epm", "three_states.json"],
        ["epm", "three_states_weighted.json"],
        ["epm", "near_parallel.json"],
        ["epm", "degenerate_epm.json"],
        ["epm", "three_states.json", "--make-priors", "1.0"],
        ["epm", "sign_group_gu.json"],
        ["gu", "sign_group_gu.json"],
        ["cgu", "pauli_pair_cgu.json"],
        ["simulate", "three_states_weighted.json", "--pipeline", "epm", "--trials", "200"],
    ],
)
def test_one_epm_analysis_per_run(monkeypatch, capsys, argv):
    analysis = uqsd.epm.epm_analysis
    calls = []

    def counted(recips):
        calls.append(recips)
        return analysis(recips)

    for module in (uqsd.epm, uqsd.symmetry):
        monkeypatch.setattr(module, "epm_analysis", counted)
    command, name, *rest = argv
    assert main([command, str(DATA / name), *rest, "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


SPEC_PIPELINES = {"sign_group_gu.json": ("gu", "cgu"), "pauli_pair_cgu.json": ("cgu",)}
ONE_SVD_RUNS = [
    *([command, name] for name in BUNDLED for command in ("solve", "epm")),
    *([kind, name] for name, kinds in SPEC_PIPELINES.items() for kind in kinds),
    *(
        ["simulate", name, "--pipeline", kind, "--trials", "200"]
        for name in BUNDLED
        for kind in ("sdp", "epm", *SPEC_PIPELINES.get(name, ()))
    ),
    ["epm", "three_states.json", "--make-priors", "1.0"],
    ["epm", "sign_group_gu.json", "--make-priors", "1.0"],
]


@pytest.mark.parametrize("argv", ONE_SVD_RUNS, ids=" ".join)
def test_one_svd_of_the_states_per_run(monkeypatch, capsys, argv):
    # The reciprocal set's thin SVD is the only factorization of the states:
    # the independence check reads its singular values. Below the working
    # set's m, no round takes an SVD of a column subset.
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    command, name, *rest = argv
    code, doc = run_json(capsys, [command, str(DATA / name), *rest, "--json"])
    assert code == 0
    r, m = doc["input"]["r"], doc["input"]["m"]
    assert m < uqsd.solver.WORKING_SET_MIN_M
    assert shapes == [(r, m)]


@pytest.mark.parametrize("command", ["solve", "epm", "simulate", "gu"])
def test_collapsed_orbit_exits_2(tmp_path, capsys, command):
    # A generator with no weight on one Fourier mode of the cyclic shift:
    # its orbit is a valid ensemble, and reciprocal_states rejects it.
    m = 4
    fourier = np.fft.fft(np.eye(m)) / np.sqrt(m)
    gen = fourier.conj().T @ (np.array([0.0, 1.0, 1.0, 1.0]) / np.sqrt(3))
    shift = np.roll(np.eye(m), 1, axis=0)
    path = tmp_path / "collapsed.json"
    path.write_text(json.dumps({
        "group": [encode_complex(np.linalg.matrix_power(shift, k)) for k in range(m)],
        "generators": [encode_complex(gen)],
    }))
    assert main([command, str(path)]) == 2
    assert "linearly dependent" in capsys.readouterr().err


def test_closed_stdout_is_not_an_input_error():
    # The read end of the pipe is closed before the child starts, so its
    # first write to stdout fails with EPIPE.
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "uqsd.cli", "group-verify",
             str(DATA / "sign_group_gu.json"), "--json"],
            env={**os.environ, "PYTHONPATH": path},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize("kind", ["sdp", "epm", "gu", "cgu"])
@pytest.mark.parametrize("name", sorted(PARITY_INPUTS))
def test_simulate_runs_the_named_pipeline(tmp_path, capsys, name, kind):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(PARITY_INPUTS[name]))
    code = main(["solve" if kind == "sdp" else kind, str(path), "--json"])
    out = capsys.readouterr().out
    sim_code = main(["simulate", str(path), "--pipeline", kind, "--trials", "200", "--json"])
    sim_out = capsys.readouterr().out
    assert sim_code == code
    if code == 2:
        assert out == sim_out == ""
        return
    doc = json.loads(sim_out)
    assert ("simulation" in doc) == (code == 0)
    doc.pop("simulation", None)
    assert doc == json.loads(out)


@pytest.mark.parametrize("kind", ["sdp", "cgu"])
def test_simulate_returns_runner_failure_without_simulating(tmp_path, monkeypatch, capsys, kind):
    path = tmp_path / "input.json"
    doc = non_optimal_cgu_doc() if kind == "cgu" else BUNDLED["three_states.json"]
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(uqsd.solver, "ITERATION_CAP", 2)
    argv = ["simulate", str(path), "--pipeline", kind, "--json"]
    code, out = run_json(capsys, argv)
    assert code == 3
    assert out["solve"]["status"] == "MaxIterations"
    assert "simulation" not in out


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=10**13),
    st.floats(),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.lists(st.floats(min_value=-2, max_value=2), max_size=3),
)


def mutate(data, doc):
    """Apply one drop/retype/reshape/duplicate edit at a random node of ``doc``."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        break
    op = data.draw(st.sampled_from(["drop", "retype", "wrap", "unwrap", "duplicate"]))
    if op == "drop":
        del node[key]
    elif op == "retype":
        node[key] = data.draw(JUNK)
    elif op == "wrap":
        node[key] = [child]
    elif op == "unwrap" and isinstance(child, list) and child:
        node[key] = child[0]
    elif op == "duplicate" and isinstance(node, list):
        node.insert(key, copy.deepcopy(child))
    elif op == "duplicate":
        node[data.draw(st.sampled_from(FIELDS))] = copy.deepcopy(child)


@settings(
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_bundled_documents_never_raise(tmp_path, data):
    name = data.draw(st.sampled_from(sorted(BUNDLED)))
    doc = copy.deepcopy(BUNDLED[name])
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        mutate(data, doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    for argv in SUBCOMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, str(path), "--json"])
        assert code in (0, 2, 3, 4), (argv, doc)


class TestEpmCommand:
    def test_weighted_verdict(self, weighted_file, capsys):
        code, doc = run_json(capsys, ["epm", weighted_file, "--json"])
        assert code == 0
        assert doc["epm"]["tests"]["lp"]["verdict"] == "Optimal"
        assert abs(doc["epm"]["p"] - 0.07) <= 5e-3
        assert doc["verification"]["passed"] is True

    def test_uniform_not_optimal(self, three_states_file, capsys):
        code, doc = run_json(capsys, ["epm", three_states_file, "--json"])
        assert code == 0
        assert doc["epm"]["tests"]["lp"]["verdict"] == "NotOptimal"
        assert "verification" not in doc

    def test_tiny_prior_is_not_optimal(self, capsys):
        # One prior is five times its squared-row weight of ~4e-12: a
        # difference of only ~1.6e-11, yet the EPM is 5x off there, and the
        # relative closed-form bound says so at any scale.
        code, doc = run_json(capsys, ["epm", str(DATA / "tiny_prior_epm.json"), "--json"])
        assert code == 0
        epm = doc["epm"]
        assert epm["s"] == 1 and min(epm["last_row"]) < 1e-11
        assert epm["tests"]["lp"]["verdict"] == "NotOptimal"
        assert epm["tests"]["lp"]["residual"] == pytest.approx(0.8, abs=1e-9)
        assert "verification" not in doc
        assert "exact_test_tol" not in doc["tolerances"]

    def test_symmetry_spec_input(self, gu_spec_file, capsys):
        code, doc = run_json(capsys, ["epm", gu_spec_file, "--json"])
        assert code == 0
        assert abs(doc["epm"]["p"] - 2 / 9) <= 1e-10
        assert doc["epm"]["tests"]["spectral"]["verdict"] == "Optimal"

    def test_removed_gu_flag_exits_2(self, gu_spec_file, capsys):
        # The document's own 'group' field marks a symmetry spec.
        with pytest.raises(SystemExit) as exc:
            main(["epm", gu_spec_file, "--gu"])
        assert exc.value.code == 2
        assert "--gu" in capsys.readouterr().err

    def test_make_priors(self, three_states_file, capsys):
        code, doc = run_json(
            capsys, ["epm", three_states_file, "--make-priors", "1.0", "--json"]
        )
        assert code == 0
        generated = doc["make_priors"]["priors"]
        assert abs(sum(generated) - 1.0) <= 1e-10
        assert doc["make_priors"]["verified"] is True

    def test_degenerate_bundled_input(self, capsys):
        code, doc = run_json(capsys, ["epm", str(DATA / "degenerate_epm.json"), "--json"])
        assert code == 0
        epm = doc["epm"]
        assert epm["s"] == 2
        # The reduced SDP decides; its witness A gives back the uniform priors.
        assert set(epm["tests"]) == {"lp", "spectral"}
        assert epm["tests"]["lp"]["verdict"] == "Optimal"
        a = decode_complex(epm["tests"]["lp"]["A"], 2, "A")
        ensemble = uqsd.load_ensemble(DATA / "degenerate_epm.json")
        analysis = uqsd.epm.epm_analysis(uqsd.reciprocal_states(ensemble))
        assert np.allclose(uqsd.epm.priors_for_epm(analysis, a), 0.25, atol=1e-8)
        assert "lp_feasibility_tol" not in doc["tolerances"]
        assert doc["verification"]["passed"] is True

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_make_priors_rejects_non_finite(self, three_states_file, capsys, value):
        assert main(["epm", three_states_file, "--make-priors", value]) == 2
        assert "A must be finite" in capsys.readouterr().err


class TestSymmetryCommands:
    def test_gu_pipeline(self, gu_spec_file, capsys):
        code, doc = run_json(capsys, ["gu", gu_spec_file, "--json"])
        assert code == 0
        assert doc["symmetry"]["verdict"] == "Optimal"
        assert abs(doc["symmetry"]["p"] - 2 / 9) <= 1e-10
        assert doc["verification"]["passed"] is True

    def test_cgu_pipeline_on_gu_spec(self, gu_spec_file, capsys):
        code, doc = run_json(capsys, ["cgu", gu_spec_file, "--json"])
        assert code == 0
        assert doc["symmetry"]["verdict"] == "Optimal"

    def test_cgu_not_optimal_falls_back_to_sdp(self, tmp_path, capsys):
        x2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        outer = np.kron(x2, np.eye(2))
        rng = np.random.default_rng(12)
        gens = []
        for _ in range(2):
            g = rng.normal(size=4) + 1j * rng.normal(size=4)
            gens.append(g / np.linalg.norm(g))
        doc = {
            "group": [encode_complex(np.eye(4)), encode_complex(outer)],
            "generators": [encode_complex(g) for g in gens],
        }
        path = tmp_path / "cgu.json"
        path.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["cgu", str(path), "--json"])
        assert code == 0
        # The smallest singular value is simple, so the exact test decides.
        assert out["symmetry"]["verdict"] == "NotOptimal"
        assert out["solve"]["status"] == "Optimal"
        assert out["verification"]["passed"] is True
        # The fallback optimum beats the equal-probability value.
        assert -out["solve"]["primal_value"] > out["measurement"]["detection_probability"]

    def test_non_optimal_cgu_spec_verdict(self, tmp_path, capsys):
        path = tmp_path / "cgu.json"
        path.write_text(json.dumps(non_optimal_cgu_doc()))
        code, out = run_json(capsys, ["cgu", str(path), "--json"])
        assert code == 0
        assert out["symmetry"]["verdict"] == "NotOptimal"
        assert out["verification"]["passed"] is True
        sdp_pd = -out["solve"]["primal_value"]
        epm_pd = out["measurement"]["detection_probability"]
        assert sdp_pd == pytest.approx(0.262, abs=1e-3)
        assert epm_pd == pytest.approx(0.203, abs=1e-3)

    @pytest.mark.parametrize(
        "command, name", [("gu", "sign_group_gu.json"), ("cgu", "pauli_pair_cgu.json")]
    )
    def test_optimal_only_from_the_exact_test(self, monkeypatch, capsys, command, name):
        # Neither symmetry nor phase evidence may stand in for the exact
        # test: without its witness the SDP fallback decides and is verified.
        silent = uqsd.epm.EpmOptimalityResult(
            verdict=uqsd.epm.EpmVerdict.INCONCLUSIVE, residual=1.0
        )
        monkeypatch.setattr(uqsd.symmetry, "epm_test_lp", lambda *args: silent)
        code, out = run_json(capsys, [command, str(DATA / name), "--json"])
        assert code == 0
        assert out["symmetry"]["verdict"] == "SufficientTestInconclusive"
        assert out["solve"]["status"] == "Optimal"
        assert out["verification"]["passed"] is True

    def test_fallback_reports_its_iteration_cap(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cgu.json"
        path.write_text(json.dumps(non_optimal_cgu_doc()))
        monkeypatch.setattr(uqsd.solver, "ITERATION_CAP", 50)
        code, out = run_json(capsys, ["cgu", str(path), "--json"])
        assert code == 0
        assert out["tolerances"]["max_iters"] == 50
        assert out["solve"]["status"] == "Optimal"
        assert out["solve"]["iterations"] <= 50

    def test_group_verify_pass(self, gu_spec_file, capsys):
        code, doc = run_json(capsys, ["group-verify", gu_spec_file, "--json"])
        assert code == 0
        assert doc["group"]["passed"] is True
        assert doc["input"] == {"order": 4, "dim": 4}

    def test_group_verify_text_report(self, gu_spec_file, capsys):
        assert main(["group-verify", gu_spec_file]) == 0
        out = capsys.readouterr().out
        assert "group:    order=4 dim=4" in out
        assert "priors" not in out and "ensemble" not in out

    def test_group_verify_failure(self, tmp_path, capsys):
        angle = 2 * np.pi / 5
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        )
        doc = {"group": [encode_complex(np.eye(2)), encode_complex(rot)],
               "generators": [encode_complex(np.array([1.0, 0.0]))]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["group-verify", str(path)]) == 2

    def test_group_verify_phase_evidence(self, capsys):
        # The generator group's phases are group-verify's evidence; they
        # match check_commute_phase on the decoded groups bit for bit.
        code, doc = run_json(capsys, ["group-verify", str(DATA / "pauli_pair_cgu.json"), "--json"])
        assert code == 0
        raw = BUNDLED["pauli_pair_cgu.json"]
        fit = uqsd.symmetry.check_commute_phase(
            uqsd.symmetry.decode_group(raw["group"]),
            uqsd.symmetry.decode_group(raw["generator_group"], "generator_group"),
        )
        assert doc["phase"]["commutes"] is True
        assert doc["phase"]["phase_free"] is False
        assert doc["phase"]["theta"] == fit.theta.tolist()
        assert doc["phase"]["residual"] == fit.residual

    def test_group_verify_without_generator_group_has_no_phase(self, capsys):
        code, doc = run_json(capsys, ["group-verify", str(DATA / "sign_group_gu.json"), "--json"])
        assert code == 0
        assert "phase" not in doc

    @pytest.mark.parametrize(
        "name, order, rows",
        [("pauli_pair_cgu.json", 2, 1), ("sign_group_gu.json", 4, 2)],
    )
    def test_group_verify_text_has_no_phase(self, capsys, name, order, rows):
        # The phase evidence is JSON only; the text report is the axioms'.
        assert main(["group-verify", str(DATA / name)]) == 0
        assert capsys.readouterr().out == (
            f"group:    order={order} dim=4\n"
            "pipeline: group-verify\n"
            "group axioms: pass\n"
            "  unitarity: 0.000e+00\n"
            "  identity: 0.000e+00\n"
            "  closure: 0.000e+00\n"
            "  inverses: 0.000e+00\n"
            f"  rows: {rows} of {order}\n"
        )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["epm", "degenerate_epm.json"],
            [
                "epm p:    0.352078 (multiplicity s=2, distinct q=3)",
                "  lp: Optimal (residual ",
                "P_D:      0.352078",
                "certificate: pass",
            ],
        ),
        (
            ["epm", "three_states.json", "--make-priors", "1.0"],
            [
                "  lp: NotOptimal (residual 4.087e-01)",
                "generated priors: 0.605802 0.197099 0.197099",
                "  epm verified under generated priors: True",
            ],
        ),
        (
            ["gu", "sign_group_gu.json"],
            ["pipeline: gu", "verdict:  Optimal", "epm p:    0.2222222222", "P_D:      0.222222"],
        ),
        (
            ["simulate", "pauli_pair_cgu.json", "--pipeline", "cgu", "--trials", "1000"],
            ["pipeline: cgu", "simulation: 1000 trials, seed 0", "  misidentifications: 0"],
        ),
        (
            ["cgu", "non-optimal-cgu"],
            ["status:   Optimal", "verdict:  NotOptimal", "epm P_D:  0.203413"],
        ),
    ],
)
def test_text_reports(tmp_path, capsys, argv, expected):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(PARITY_INPUTS[argv[1]]))
    assert main([argv[0], str(path), *argv[2:]]) == 0
    out = capsys.readouterr().out
    for line in expected:
        assert line in out


class TestSimulateCommand:
    def test_sdp_pipeline(self, three_states_file, capsys):
        code, doc = run_json(
            capsys,
            ["simulate", three_states_file, "--trials", "50000", "--seed", "9", "--json"],
        )
        assert code == 0
        sim = doc["simulation"]
        assert sim["misidentifications"] == 0
        assert sum(sum(row) for row in sim["counts"]) == 50000
        assert abs(sim["empirical_detection_probability"] - 1 / 9) <= 5e-3

    def test_reproducible(self, three_states_file, capsys):
        _, doc1 = run_json(
            capsys,
            ["simulate", three_states_file, "--trials", "1000", "--seed", "4", "--json"],
        )
        _, doc2 = run_json(
            capsys,
            ["simulate", three_states_file, "--trials", "1000", "--seed", "4", "--json"],
        )
        assert doc1["simulation"]["counts"] == doc2["simulation"]["counts"]

    def test_epm_pipeline(self, weighted_file, capsys):
        code, doc = run_json(
            capsys,
            ["simulate", weighted_file, "--pipeline", "epm",
             "--trials", "20000", "--seed", "2", "--json"],
        )
        assert code == 0
        assert doc["simulation"]["misidentifications"] == 0

    def test_gu_pipeline(self, gu_spec_file, capsys):
        code, doc = run_json(
            capsys,
            ["simulate", gu_spec_file, "--pipeline", "gu",
             "--trials", "20000", "--seed", "8", "--json"],
        )
        assert code == 0
        assert abs(doc["simulation"]["empirical_detection_probability"] - 2 / 9) <= 1e-2
