import contextlib
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entanglecone.classify import builtin_choi_map
from entanglecone.cli import main
from entanglecone.duality import (
    HolevoForm,
    MatrixMap,
    apply_to_second,
    holevo_to_map,
    maximally_entangled_matrix,
    transpose_map,
)
from entanglecone.linalg import frob, partial_transpose
from entanglecone.serialize import (
    dumps,
    holevo_terms_from_json,
    holevo_terms_to_json,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    state_document_from_json,
    state_to_json,
)
from entanglecone.blocks import SeparableEnsemble
from entanglecone.duality import BipartiteState
from reference import derive_stream, ensemble_to_json, random_density

_REDUCED = ["--budget-restarts", "2", "--budget-iters", "30"]


def _write(path, doc) -> str:
    path.write_text(dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def _entangled_state_doc():
    return state_to_json(BipartiteState((2, 2), maximally_entangled_matrix(2) / 2.0))


def _two_block_ensemble_doc():
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e22 = np.diag([0.0, 1.0]).astype(complex)
    ens = SeparableEnsemble(((0.5, e11, e11), (0.5, e22, e22)))
    return ensemble_to_json(ens)


def _run(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


def test_choi_builtin_identity(capsys):
    code, out = _run(capsys, ["choi", "builtin:identity2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["repr"] == "choi"
    f = map_from_json(doc)
    assert frob(f.choi - maximally_entangled_matrix(2)) < 1e-15


def test_choi_text_format(capsys):
    code, out = _run(capsys, ["choi", "builtin:identity2", "--format", "text"])
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["repr"] == "choi"
    assert lines["choi"] == "matrix 4x4"


def test_choi_text_format_out_file_holds_json(tmp_path, capsys):
    out_path = tmp_path / "choi.json"
    argv = ["choi", "builtin:identity2", "--format", "text", "--out", str(out_path)]
    code, out = _run(capsys, argv)
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert lines["choi"] == "matrix 4x4"
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["repr"] == "choi"
    assert frob(map_from_json(doc).choi - maximally_entangled_matrix(2)) == 0.0


def test_classify_holevo_document_is_certified_separable(tmp_path, capsys):
    stream = derive_stream(520, 0)
    form = HolevoForm(
        tuple((random_density(stream, 2), random_density(stream, 3)) for _ in range(2))
    )
    doc = {"dim_in": 2, "dim_out": 3, "repr": "holevo"}
    doc["holevo"] = holevo_terms_to_json(form)
    path = _write(tmp_path / "map.json", doc)
    code, out = _run(capsys, ["classify-map", path, *_REDUCED])
    assert code == 0
    report = json.loads(out)
    assert report["cp"] is True
    assert report["eb_verdict"] == "certified-separable-choi"
    # The certificate is the document's own terms: it rebuilds the Choi matrix.
    rebuilt = holevo_to_map(holevo_terms_from_json(report["eb_certificate"]))
    choi = holevo_to_map(form).choi
    assert frob(rebuilt.choi - choi) <= 1e-12 * frob(choi)


def test_classify_transpose(capsys):
    code, out = _run(capsys, ["classify-map", "builtin:transpose2", *_REDUCED])
    assert code == 0
    doc = json.loads(out)
    assert doc["cp"] is False
    assert doc["copositive"] is True
    assert doc["positive_verdict"] == "probably-positive"
    # Swap witness: block values are |<x|y>|^2, so the floor sits at zero.
    assert abs(doc["block_min"]) < 1e-9


def test_classify_decides_cp_at_the_requested_slack(tmp_path, capsys):
    # identity3's Choi matrix with its bottom eigenvalue lowered by 3e-7:
    # not CP at the default slack (floor -3e-9), CP at 1e-6 (floor -3e-6),
    # where its state is entangled and the transpose detects it.
    dip = np.zeros(9)
    dip[1] = 3e-7
    f = MatrixMap(3, 3, maximally_entangled_matrix(3) - np.diag(dip))
    path = _write(tmp_path / "dip.json", map_to_json(f))
    argv = ["classify-map", path, "--budget-restarts", "2", "--budget-iters", "20"]
    code, out = _run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert report["cp"] is False
    assert report["eb_verdict"] == "not-applicable"
    code, out = _run(capsys, [*argv, "--tol-psd", "1e-6"])
    assert code == 0
    report = json.loads(out)
    assert report["cp"] is True
    assert report["eb_verdict"] == "certified-entangled-choi"
    assert report["eb_witness_name"] == "transpose3"


def test_classify_zero_map_is_inconclusive(tmp_path, capsys):
    # The zero map is CP and copositive. Its functional's matrix is 0, so
    # every witness output is 0 and passes: the EB verdict stays open, and
    # the empty functional is not rejected as a state would be.
    path = _write(tmp_path / "zero.json", map_to_json(MatrixMap(2, 2, np.zeros((4, 4)))))
    code, out = _run(capsys, ["classify-map", path, "--budget-restarts", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["cp"] is True and report["copositive"] is True
    assert report["eb_verdict"] == "inconclusive"
    assert report["eb_witness_name"] is None


def test_classify_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = _run(
        capsys,
        ["classify-map", "builtin:identity2", *_REDUCED, "--out", str(out_path)],
    )
    assert code == 0
    assert json.loads(out) == json.loads(out_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", ["decompose", "classify-map"])
def test_out_file_bytes_equal_stdout(tmp_path, capsys, command):
    if command == "decompose":
        argv = ["decompose", _write(tmp_path / "ens.json", _two_block_ensemble_doc())]
    else:
        argv = ["classify-map", "builtin:identity2", *_REDUCED]
    out_path = tmp_path / "report.json"
    code, out = _run(capsys, [*argv, "--out", str(out_path)])
    assert code == 0
    assert out_path.read_bytes() == out.encode("utf-8")


def test_classify_stdout_deterministic(capsys):
    argv = ["classify-map", "builtin:choi3", *_REDUCED, "--seed", "5"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


def test_analyze_state_entangled(tmp_path, capsys):
    path = _write(tmp_path / "state.json", _entangled_state_doc())
    code, out = _run(capsys, ["analyze-state", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["entanglement"] == "certified-entangled"
    assert doc["ppt"] is False
    assert abs(doc["ppt_min_eigenvalue"] + 0.5) < 1e-12
    assert doc["peres_crosscheck"] is True


def test_analyze_state_normalize(tmp_path, capsys):
    doc = _entangled_state_doc()
    scaled = {
        "dims": doc["dims"],
        "repr": "density",
        "density": matrix_to_json(2.0 * matrix_from_json(doc["density"])),
    }
    path = _write(tmp_path / "scaled.json", scaled)
    code, out = _run(capsys, ["analyze-state", path, "--normalize"])
    assert code == 0
    assert abs(json.loads(out)["mass"] - 1.0) < 1e-12


def test_analyze_ensemble_is_certified_separable(tmp_path, capsys):
    path = _write(tmp_path / "ens.json", _two_block_ensemble_doc())
    code, out = _run(capsys, ["analyze-state", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["entanglement"] == "certified-separable"
    assert doc["ppt"] is True


def test_decompose_two_blocks(tmp_path, capsys):
    path = _write(tmp_path / "ens.json", _two_block_ensemble_doc())
    code, out = _run(capsys, ["decompose", path])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["components"]) == 2
    assert doc["max_cross_overlap"] <= 1e-9


def test_decompose_joins_terms_overlapping_above_the_identity_bound(tmp_path, capsys):
    # The b factors overlap by |<u|v>|^2 = 5e-9, above the splitting
    # identity's 1e-9 bound: in two blocks the terms would break that
    # identity, so the overlap relation joins them into one.
    u = np.array([1.0, 0.0])
    v = np.array([np.sqrt(5e-9), np.sqrt(1.0 - 5e-9)])
    ens = SeparableEnsemble(
        (
            (0.5, np.diag([1.0, 0.0]).astype(complex), np.outer(u, u).astype(complex)),
            (0.5, np.diag([0.0, 1.0]).astype(complex), np.outer(v, v).astype(complex)),
        )
    )
    path = _write(tmp_path / "ens.json", ensemble_to_json(ens))
    code, out = _run(capsys, ["decompose", path])
    assert code == 0
    (component,) = json.loads(out)["components"]
    assert component["indices"] == [0, 1]


def test_decompose_rejects_density_repr(tmp_path, capsys):
    path = _write(tmp_path / "state.json", _entangled_state_doc())
    code, _ = _run(capsys, ["decompose", path])
    assert code == 2


def test_pair_value(tmp_path, capsys):
    e11 = _write(
        tmp_path / "e11.json", matrix_to_json(np.diag([1.0, 0.0]).astype(complex))
    )
    code, out = _run(capsys, ["pair", "builtin:transpose2", e11, e11])
    assert code == 0
    value = json.loads(out)["value"]
    assert abs(value[0] - 1.0) < 1e-12
    assert abs(value[1]) < 1e-12


def test_search_decomposable_witness_not_found(tmp_path, capsys):
    out_path = tmp_path / "state.json"
    code, out = _run(
        capsys,
        [
            "search-ppt-entangled", "transpose2",
            "--budget-restarts", "1", "--budget-iters", "20",
            "--out", str(out_path),
        ],
    )
    # A decomposable witness cannot see PPT entanglement, so the search
    # reports not-found even though it still emits its best state.
    assert code == 4
    doc = json.loads(out)
    assert doc["violation"] <= 1e-9
    written = state_document_from_json(
        json.loads(out_path.read_text(encoding="utf-8"))
    )
    assert isinstance(written, BipartiteState)
    assert written.dims == (2, 2)


def test_unknown_builtin_is_one_usage_error(capsys):
    # The search resolves its witness name as classify-map does builtin:.
    for argv in (["classify-map", "builtin:choi4"], ["search-ppt-entangled", "choi4"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: unknown builtin map 'choi4'\n"


def test_second_factor_above_16_is_analysed(tmp_path, capsys):
    # The battery's PPT row is the density's own partial transpose, so a
    # (1, 17) state and a CP map into M_17 are no larger than the Choi cap.
    state = state_to_json(BipartiteState((1, 17), np.eye(17) / 17.0))
    code, out = _run(capsys, ["analyze-state", _write(tmp_path / "state.json", state)])
    assert code == 0
    report = json.loads(out)
    assert report["ppt"] is True
    assert report["entanglement"] == "inconclusive"
    cp_map = map_to_json(MatrixMap(1, 17, np.eye(17)))
    code, out = _run(capsys, ["classify-map", _write(tmp_path / "map.json", cp_map), *_REDUCED])
    assert code == 0
    report = json.loads(out)
    assert report["cp"] is True
    assert report["eb_verdict"] == "inconclusive"


def test_choi_document_above_the_cap_exits_3(tmp_path, capsys):
    # A Choi matrix handed in whole meets the cap that Kraus and Holevo
    # documents meet before their Choi matrix is built.
    doc = {"dim_in": 17, "dim_out": 17, "repr": "choi", "choi": matrix_to_json(np.eye(289))}
    path = _write(tmp_path / "big.json", doc)
    for argv in (["choi", path], ["classify-map", path]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: map dims (17, 17) exceed the cap n*m <= 256\n"


def test_usage_errors(capsys):
    assert main(["classify-map", "builtin:nosuchmap"]) == 1
    capsys.readouterr()
    assert main(["search-ppt-entangled", "nosuchwitness"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    assert main(["choi", "builtin:identity2", "--out", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: cannot write --out file")
    assert captured.err.count("\n") == 1


def test_log_records_go_to_each_call_stderr(monkeypatch):
    # pytest's capture handlers would keep cli.main from configuring
    # logging, so the root logger starts this test without handlers.
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    level = root.level
    argv = [
        "search-ppt-entangled", "identity2",
        "--budget-restarts", "1", "--budget-iters", "1",
    ]
    out, errs = io.StringIO(), [io.StringIO(), io.StringIO()]
    try:
        for err in errs:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(argv) == 4
    finally:
        root.setLevel(level)
    for err in errs:
        assert err.getvalue().count("is completely positive") == 1


def test_choi_rejects_search_flags(capsys):
    assert main(["choi", "builtin:identity2", "--seed", "1"]) == 1
    capsys.readouterr()


def test_oversized_maps_exit_3(tmp_path, capsys):
    assert main(["classify-map", "builtin:identity99"]) == 3
    # Declared dims are small; the operator alone implies n*m = 272.
    kraus = {
        "dim_in": 2,
        "dim_out": 2,
        "repr": "kraus",
        "kraus": [matrix_to_json(np.zeros((17, 16), dtype=complex))],
    }
    assert main(["choi", _write(tmp_path / "big.json", kraus)]) == 3
    assert "n*m <= 256" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decompose", "analyze-state"])
def test_oversized_ensembles_exit_3_before_allocating(tmp_path, capsys, command):
    # 17 terms on 16 x 16, one over the entry budget: without the cap the
    # products alone would take 17 MB and decomposition about 100 MB.
    e11 = np.zeros((16, 16), dtype=complex)
    e11[0, 0] = 1.0
    term = {"weight": 1.0 / 17, "a": matrix_to_json(e11), "b": matrix_to_json(e11)}
    doc = {"dims": [16, 16], "repr": "ensemble", "terms": [term] * 17}
    path = _write(tmp_path / "big.json", doc)
    tracemalloc.start()
    try:
        code = main([command, path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 8 * 2**20
    assert "terms*(n*m)^2 <= 1048576" in capsys.readouterr().err
    # One term, but n*m = 272 is above the map cap.
    wide = np.zeros((17, 17), dtype=complex)
    wide[0, 0] = 1.0
    term = {"weight": 1.0, "a": matrix_to_json(e11), "b": matrix_to_json(wide)}
    doc = {"dims": [16, 17], "repr": "ensemble", "terms": [term]}
    assert main([command, _write(tmp_path / "wide.json", doc)]) == 3
    assert "n*m <= 256" in capsys.readouterr().err


def test_parse_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["choi", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["choi", str(bad)]) == 2
    capsys.readouterr()


def test_domain_error_exit(tmp_path, capsys):
    not_psd = {
        "dims": [2, 2],
        "repr": "density",
        "density": matrix_to_json(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)),
    }
    path = _write(tmp_path / "bad_state.json", not_psd)
    assert main(["analyze-state", path]) == 3
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports each overflow
def test_overflowing_finite_inputs_exit_3(tmp_path, capsys):
    # Finite entries whose norms overflow, so every psd floor and bound
    # would be infinite or NaN: the transpose map on M2 (its Choi matrix
    # is the swap) at 1e200, the Choi matrix 1e308 I4, whose Hermitian
    # part overflows too, and a pairing whose value is not finite.
    big = {
        "swap": map_to_json(MatrixMap(2, 2, 1e200 * transpose_map(2).choi)),
        "eye": map_to_json(MatrixMap(2, 2, 1e308 * np.eye(4, dtype=complex))),
        "a": matrix_to_json(1e200 * np.eye(2, dtype=complex)),
    }
    paths = {name: _write(tmp_path / f"{name}.json", doc) for name, doc in big.items()}
    for argv in (
        ["classify-map", paths["swap"]],
        ["classify-map", paths["eye"]],
        ["pair", "builtin:identity2", paths["a"], paths["a"]],
    ):
        code, out = _run(capsys, argv)
        assert (code, out) == (3, ""), argv


def test_tolerance_validation_exit(capsys):
    assert main(["choi", "builtin:identity2", "--tol-psd", "2.0"]) == 3
    capsys.readouterr()


@pytest.mark.usefixtures("package_on_pythonpath")
def test_console_module_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "entanglecone", "choi", "builtin:identity2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["repr"] == "choi"


@pytest.mark.usefixtures("package_on_pythonpath")
def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # As `entanglecone analyze-state s.json | head -3` once the reader is
    # gone: the pipe's read end is closed before the report is written.
    path = _write(tmp_path / "state.json", _entangled_state_doc())
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "entanglecone", "analyze-state", path],
            stdout=write,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_search_finds_state_quickly(capsys):
    code, out = _run(
        capsys,
        [
            "search-ppt-entangled", "choi3",
            "--budget-restarts", "2", "--budget-iters", "80",
            "--seed", "0",
        ],
    )
    doc = json.loads(out)
    # Small budget may or may not satisfy the convergence gate, but the
    # violation itself should clear the reporting floor.
    assert doc["violation"] >= 1e-3
    assert code in (0, 4)
    state = state_document_from_json(doc["state"])
    assert state.dims == (3, 3)


def _check_search_state(doc) -> None:
    """The reported state is a density and PPT within 1e-9, and its
    reported violation is -lambda_min of the choi3 output within 1e-6."""
    state = state_document_from_json(doc["state"])
    rho = state.density
    assert abs(np.trace(rho).real - 1.0) <= 1e-9
    assert np.linalg.eigvalsh(rho)[0] >= -1e-9
    assert np.linalg.eigvalsh(partial_transpose(rho, state.dims, "second"))[0] >= -1e-9
    out = apply_to_second(rho, state.dims, builtin_choi_map())
    assert abs(-np.linalg.eigvalsh(out)[0] - doc["violation"]) <= 1e-6


def test_search_two_restarts_converge(capsys):
    argv = [
        "search-ppt-entangled", "choi3",
        "--seed", "1", "--budget-restarts", "2", "--budget-iters", "200",
    ]
    code, out = _run(capsys, argv)
    doc = json.loads(out)
    assert code == 0
    assert doc["violation"] >= 1e-3
    assert doc["converged"] is True
    _check_search_state(doc)


def test_search_capped_exact_finish_keeps_its_certificate(capsys, caplog):
    # The winner's exact finish reaches the Dykstra cap (about 4e-8 short
    # of its gap); the shift by that gap and the checked solver must still
    # report a feasible state and its true violation.
    argv = [
        "search-ppt-entangled", "choi3",
        "--seed", "1145069700", "--budget-restarts", "8", "--budget-iters", "1",
    ]
    with caplog.at_level(logging.WARNING, logger="entanglecone.states"):
        code, out = _run(capsys, argv)
    caps = [r for r in caplog.records if "stopped at its cap" in r.getMessage()]
    assert len(caps) == 1
    assert "in 1 of 1 matrices" in caps[0].getMessage()
    assert code == 4
    _check_search_state(json.loads(out))


def test_search_debug_summary_leaves_stdout_unchanged(capsys, caplog):
    argv = [
        "search-ppt-entangled", "choi3",
        "--budget-restarts", "2", "--budget-iters", "3", "--seed", "1",
    ]
    quiet = _run(capsys, argv)
    with caplog.at_level(logging.DEBUG, logger="entanglecone.states"):
        loud = _run(capsys, argv)
    assert loud == quiet
    summaries = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(summaries) == 1
    message = summaries[0].getMessage()
    assert "2 restarts" in message
    # Every winner takes an exact finish.
    ascent, finish = summaries[0].args[4:6]
    assert ascent > 0 and finish > 0
    assert f"{ascent} matrix-sweeps in the ascent, {finish} in the finish" in message


def _refuse(*_args, **_kwargs):
    raise AssertionError("restart work started before the budget was checked")


def test_oversized_restart_budget_exits_before_any_work(monkeypatch, capsys):
    import entanglecone.classify
    import entanglecone.cli
    import entanglecone.rng
    import entanglecone.states

    # Resolving builtin:choi3 runs the minimizer, so it must come later too.
    # Every draw starts from stream_words.
    monkeypatch.setattr(entanglecone.cli, "builtin_map", _refuse)
    for module in (entanglecone.classify, entanglecone.rng, entanglecone.states):
        monkeypatch.setattr(module, "stream_words", _refuse)
    assert main(["classify-map", "builtin:choi3", "--budget-restarts", "5000"]) == 3
    assert main(["search-ppt-entangled", "choi3", "--budget-restarts", "5000"]) == 3
    err = capsys.readouterr().err
    assert err.count("at most 4096 restarts") == 2


@pytest.mark.parametrize("witness", ["transpose16", "identity16"])
def test_oversized_search_stack_exits_before_any_work(monkeypatch, capsys, witness):
    import entanglecone.states

    # Every draw starts from stream_words, and the witness checks are the
    # search's first spectra.
    for name in ("stream_words", "is_cp", "is_copositive", "_dykstra"):
        monkeypatch.setattr(entanglecone.states, name, _refuse)
    argv = ["search-ppt-entangled", witness, "--budget-restarts"]
    assert main([*argv, "17"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "restarts*(n*m)^2 <= 1048576" in captured.err
    # 16 restarts of side 256 fill the cap exactly, so that search starts.
    with pytest.raises(AssertionError, match="restart work started"):
        main([*argv, "16"])


@pytest.mark.parametrize(
    "command",
    [["classify-map", "builtin:identity2"], ["search-ppt-entangled", "identity2"]],
    ids=["classify-map", "search-ppt-entangled"],
)
def test_seed_outside_one_word_is_a_usage_error(capsys, command):
    argv = [*command, "--budget-restarts", "1", "--budget-iters", "1", "--seed"]
    for seed in (-1, 2**64):
        assert main([*argv, str(seed)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be an integer in [0, 2^64)" in captured.err
    code, out = _run(capsys, [*argv, str(2**64 - 1)])
    assert code in (0, 4) and json.loads(out)


def test_analyze_rejects_density_below_requested_slack(tmp_path, capsys):
    # Separable but for a -5e-10 dip: within the default slack 1e-9, not
    # within 1e-12, where the identity witness would otherwise "detect" it.
    doc = {
        "dims": [2, 2],
        "repr": "density",
        "density": matrix_to_json(np.diag([0.5, 0.5, 0.0, -5e-10]).astype(complex)),
    }
    path = _write(tmp_path / "dip.json", doc)
    code, out = _run(capsys, ["analyze-state", path, "--tol-psd", "1e-12"])
    assert code == 3 and out == ""
    code, out = _run(capsys, ["analyze-state", path])
    assert code == 0
    assert json.loads(out)["entanglement"] == "inconclusive"


def _density_text(dims: list, density: np.ndarray) -> str:
    doc = {"dims": dims, "repr": "density", "density": matrix_to_json(density)}
    return json.dumps(doc)


@pytest.mark.parametrize(
    "dims, density",
    [([-1, -1], np.eye(1, dtype=complex)), ([-2, -2], np.eye(4, dtype=complex) / 4)],
    ids=["dims-minus-one", "dims-minus-two"],
)
def test_negative_state_dims_exit_3(dims, density):
    # The dims multiply to the density's side. The battery's identity map
    # on a negative factor ended in a traceback and exit 1.
    code, out, err = _run_texts("analyze-state", [_density_text(dims, density)])
    assert (code, out) == (3, "")
    assert "Traceback" not in err


def _fuzz_bases() -> dict:
    """A valid document for each file argument of the commands that read one."""
    e11 = np.diag([1.0, 0.0]).astype(complex)
    kraus = {"dim_in": 2, "dim_out": 2, "repr": "kraus",
             "kraus": [matrix_to_json(np.eye(2, dtype=complex))]}
    choi = {"dim_in": 2, "dim_out": 2, "repr": "choi",
            "choi": matrix_to_json(maximally_entangled_matrix(2))}
    return {
        "map": [kraus, choi],
        "state": [_entangled_state_doc(), _two_block_ensemble_doc()],
        "ensemble": [_two_block_ensemble_doc()],
        "matrix": [matrix_to_json(e11)],
    }


_FUZZ_BASES = _fuzz_bases()
# Each command with the kinds of its file arguments, in argv order.
_FUZZ_COMMANDS = {
    "choi": ["map"],
    "classify-map": ["map"],
    "analyze-state": ["state"],
    "decompose": ["ensemble"],
    "pair": ["map", "matrix", "matrix"],
}
_FUZZ_FLAGS = {"classify-map": ["--budget-restarts", "1", "--budget-iters", "1"]}
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 1, 2, 3, -1]),
    st.floats(),
    st.text(max_size=3),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["dims", "rows", "repr", "x"]), inner, max_size=2),
    max_leaves=5,
)
# Deeper than any recursion limit.
_DEEP = "[" * 100_000 + "]" * 100_000


@st.composite
def _mutated_text(draw, doc) -> str:
    """JSON text of ``doc`` with one node replaced, dropped or nested, or
    a document too deep to parse. Python's json writes and reads the
    non-standard constants NaN and Infinity."""
    if draw(st.integers(0, 19)) == 0:
        return _DEEP
    doc = json.loads(json.dumps(doc))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = parent[key]
    action = draw(st.sampled_from(["replace", "drop", "nest"]))
    if parent is None:
        doc = draw(_JSON_VALUES) if action == "replace" else [doc]
    elif action == "drop":
        del parent[key]
    else:
        parent[key] = draw(_JSON_VALUES) if action == "replace" else [node]
    return json.dumps(doc)


def _run_texts(command: str, texts: list[str]) -> tuple[int, str, str]:
    """main on files holding ``texts``; returns (code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = Path(tmp) / f"doc{i}.json"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *paths, *_FUZZ_FLAGS.get(command, [])])
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(command=st.sampled_from(sorted(_FUZZ_COMMANDS)), data=st.data())
def test_malformed_documents_exit_with_their_code(command, data):
    # Every call returns 0, 2 or 3 without a traceback, and writes to
    # stdout only on success.
    kinds = _FUZZ_COMMANDS[command]
    bases = [data.draw(st.sampled_from(_FUZZ_BASES[kind])) for kind in kinds]
    texts = [json.dumps(doc) for doc in bases]
    k = data.draw(st.integers(0, len(kinds) - 1))
    texts[k] = data.draw(_mutated_text(bases[k]))
    code, out, err = _run_texts(command, texts)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    assert code == 0 or out == ""


def _with_huge(doc: dict, path: list) -> str:
    """JSON text of ``doc`` with the node at ``path`` set to a 401-digit
    integer, which no float holds."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 10**400
    return json.dumps(doc)


def _ensemble_with_weight(weight) -> str:
    doc = _two_block_ensemble_doc()
    doc["terms"][0]["weight"] = weight
    return json.dumps(doc)


_MATRIX_TEXT = json.dumps(_fuzz_bases()["matrix"][0])


def _unit_density_with_entry(entry: list) -> str:
    """A 1x1 density document whose one entry is ``entry``."""
    doc = {"rows": 1, "cols": 1, "entries": [entry]}
    return json.dumps({"dims": [1, 1], "repr": "density", "density": doc})


def _ensemble_with_term(key: str, value) -> str:
    """The two-block ensemble with its second term's ``key`` set to
    ``value``, or dropped for None."""
    doc = _two_block_ensemble_doc()
    if value is None:
        del doc["terms"][1][key]
    else:
        doc["terms"][1][key] = value
    return json.dumps(doc)


def _map_text(**fields) -> str:
    return json.dumps({"dim_in": 2, "dim_out": 2, **fields})


_EYE2 = matrix_to_json(np.eye(2, dtype=complex) / 2)
_EYE3 = matrix_to_json(np.eye(3, dtype=complex) / 3)


@pytest.mark.parametrize(
    "command, texts, code, message",
    [
        ("analyze-state", [_ensemble_with_weight(0)], 3,
         "error: ensemble weights must be positive"),
        ("decompose", [_ensemble_with_weight(-0.5)], 3,
         "error: ensemble weights must be positive"),
        ("analyze-state", [_ensemble_with_term("a", _EYE3)], 3,
         "error: inconsistent factor dimensions in ensemble"),
        ("choi", [_map_text(repr="kraus", kraus=[_EYE2, _EYE3])], 3,
         "error: Kraus operators must share one shape"),
        ("choi", [_map_text(repr="holevo", holevo=[])], 2,
         "parse error: holevo payload must be a nonempty list of terms"),
        ("decompose", [_ensemble_with_term("weight", None)], 2,
         "parse error: ensemble terms need 'weight', 'a' and 'b'"),
        ("pair", [json.dumps(map_to_json(transpose_map(2))), json.dumps(_EYE2),
                  json.dumps(_EYE3)], 3,
         "error: second argument shape (3, 3) does not match output dimension"),
        ("choi", [_map_text(repr="choi", choi=_EYE2, dim_in=0)], 3,
         "error: map dimensions must be positive"),
    ],
    ids=[
        "weight-zero", "weight-negative", "factors-2x2-3x3", "kraus-shapes",
        "holevo-empty", "term-without-weight", "pair-b-3x3", "dim-in-zero",
    ],
)
def test_input_checks_exit_with_their_code(command, texts, code, message):
    assert _run_texts(command, texts) == (code, "", message + "\n")


@pytest.mark.parametrize(
    "command, texts",
    [
        ("classify-map", ['{"dim_in": Infinity, "dim_out": 2, "repr": "choi"}']),
        ("analyze-state", ['{"dims": [Infinity, 1], "repr": "density"}']),
        (
            "analyze-state",
            ['{"dims": [true, 1], "repr": "density", "density": '
             + json.dumps(matrix_to_json(np.eye(1, dtype=complex))) + "}"],
        ),
        ("choi", [_DEEP]),
        ("analyze-state", [_DEEP]),
        (
            "analyze-state",
            [_with_huge(_entangled_state_doc(), ["density", "entries", 0, 0])],
        ),
        (
            "pair",
            [json.dumps(_fuzz_bases()["map"][0]),
             _with_huge(_fuzz_bases()["matrix"][0], ["entries", 0, 1]),
             _MATRIX_TEXT],
        ),
        (
            "decompose",
            [_with_huge(_two_block_ensemble_doc(), ["terms", 1, "weight"])],
        ),
        ("analyze-state", ['{"dims": [' + "9" * 5000 + ", 1]}"]),
        ("decompose", [_ensemble_with_weight("0.5")]),
        ("analyze-state", [_ensemble_with_weight(True)]),
        ("analyze-state", [_unit_density_with_entry(["1", "0"])]),
        ("analyze-state", [_unit_density_with_entry([True, 0])]),
    ],
    ids=[
        "dim-in-infinity", "dims-infinity", "dims-true", "deep-map", "deep-state",
        "density-huge-int", "pair-huge-int", "weight-huge-int", "int-too-long",
        "weight-string", "weight-true", "entry-string", "entry-true",
    ],
)
def test_documents_that_escaped_main_exit_2(command, texts):
    # These ended in a traceback and exit 1, or for `true` and the
    # string weight or entry, in exit 0 or 3.
    code, out, err = _run_texts(command, texts)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")
