import io
import json
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbit import SymTensor222, Tensor222, TensorPxPx2, deflation, rank1
from tensorbit.cli import _to_json, main
from tensorbit.smallalg import NumericalFailure
from tensorbit.document import TensorDocument, infer_kind, parse_document
from conftest import EXAMPLE_A1, SYM_G3


# ---------------------------------------------------------------------------
# document wire format
# ---------------------------------------------------------------------------

def test_document_round_trip():
    doc = TensorDocument("full222", EXAMPLE_A1, label="first example")
    again = parse_document(doc.dumps())
    assert again == doc
    assert isinstance(again.to_tensor(), Tensor222)


def test_document_kind_inference():
    assert infer_kind(4) == "sym222"
    assert infer_kind(8) == "full222"
    assert infer_kind(9) == "pxpx2"
    assert infer_kind(19) == "pxpx2"
    with pytest.raises(ValueError):
        infer_kind(7)


def test_document_pxpx2():
    data = (3,) + tuple(range(18))
    doc = TensorDocument("pxpx2", data)
    t = doc.to_tensor()
    assert isinstance(t, TensorPxPx2) and t.p == 3
    np.testing.assert_array_equal(t.slab1, np.arange(9.0).reshape(3, 3))


def test_document_validation():
    with pytest.raises(ValueError):
        TensorDocument("full222", (1.0, 2.0))
    with pytest.raises(ValueError):
        TensorDocument("sym222", (1.0, np.inf, 0.0, 0.0))
    with pytest.raises(ValueError):
        TensorDocument("nope", (1.0,))
    with pytest.raises(ValueError):
        TensorDocument("pxpx2", (2, 1.0))


@pytest.mark.parametrize("build,message", [
    (lambda: TensorDocument("sym222", (1.0, 2.0)), "sym222 documents need 4 values, got 2"),
    (lambda: TensorDocument("pxpx2", ()), "pxpx2 documents need a leading dimension value"),
    (lambda: TensorDocument("pxpx2", (2.5,) + (0.0,) * 12),
     "pxpx2 dimension must be an integer >= 2, got 2.5"),
    (lambda: TensorDocument("pxpx2", (1.0, 0.0, 0.0)),
     "pxpx2 dimension must be an integer >= 2, got 1.0"),
    (lambda: parse_document({"kind": "full222"}), "document object lacks a 'data' field"),
])
def test_document_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_document_sym():
    doc = parse_document({"kind": "sym222", "data": list(SYM_G3)})
    assert isinstance(doc.to_tensor(), SymTensor222)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_classify_canonical_g3(capsys):
    code, out, _ = _run(capsys, "classify", "--data=-1,0,0,1,0,1,1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit"] == "G3"
    assert payload["delta"] == -4
    assert payload["multilinear_rank"] == [2, 2, 2]


def test_cli_classify_worked_g2(capsys):
    code, out, _ = _run(capsys, "classify", "--data=0,1,1,0,1,0,0,2")
    assert json.loads(out)["orbit"] == "G2"


def test_cli_classify_zero_document(capsys):
    code, out, _ = _run(capsys, "classify", "--data=0,0,0,0,0,0,0,0")
    assert code == 0 and json.loads(out)["orbit"] == "D0"


def test_cli_classify_empty_data_is_an_input_error(capsys):
    # the pxpx2 count test took sqrt(-1/2) on zero values and failed on NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "classify", "--data=")
    assert code == 2 and out == ""
    assert err == "error: cannot infer document kind from 0 values\n"


def test_to_json_formats_each_type():
    payload = {"x": [float("nan"), float("inf"), -float("inf"), 0.1, -0.0],
               "np": (np.float64(2.5), np.float32(0.5), np.int64(-3), np.float64("-inf")),
               "nested": ((1, (True, None)), [], {}), 7: "s\"q"}
    assert _to_json(payload) == (
        '{"x": ["nan", "inf", "-inf", 0.10000000000000001, -0], '
        '"np": [2.5, 0.5, -3, "-inf"], "nested": [[1, [true, null]], [], {}], "7": "s\\"q"}')
    assert json.loads(_to_json(payload))["np"] == [2.5, 0.5, -3, "-inf"]


def test_cli_classify_malformed_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "full222", "data": [1, 2, 3]}')
    code, _, err = _run(capsys, "classify", str(bad))
    assert code == 2
    assert "error" in err


def test_cli_rank1_table(capsys):
    data = ",".join(str(v) for v in EXAMPLE_A1)
    code, out, _ = _run(capsys, "rank1", f"--data={data}", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["psi"] - 2.6863) < 5e-5 * 2.6863
    assert len(payload["stationary_points"]) == 6
    pd_rows = [r for r in payload["stationary_points"] if r["hessian_pd"]]
    assert len(pd_rows) == 1 and abs(pd_rows[0]["psi"] - 2.6863) < 5e-5 * 2.6863


_FULL_COLUMNS = ("y2", "z2", "psi", "delta_residual", "hessian_pd", "degenerate")


@pytest.mark.parametrize("data,columns,rows", [
    (",".join(str(v) for v in EXAMPLE_A1), _FULL_COLUMNS, 6),
    ("0,1,1,0", ("z", "y2", "psi", "delta_residual"), 3),
    # the one row synthesized from the theta-grid term, whose hessian_pd is None
    ("1,0.5,2,1,-1,-0.5,-2,-1", _FULL_COLUMNS, 1),
    # a pxpx2 term comes with no table
    ("3" + ",0.5" * 18, (), 0),
])
def test_cli_rank1_prints_a_table_without_json(capsys, data, columns, rows):
    _, out, _ = _run(capsys, "rank1", f"--data={data}", "--json")
    payload = json.loads(out)
    code, out, _ = _run(capsys, "rank1", f"--data={data}")
    lines = out.splitlines()
    assert code == 0 and len(lines) == (2 + rows if rows else 1)
    assert lines[0] == (f"best psi = {payload['psi']!r}  (method {payload['method']}, "
                        f"multiplicity {payload['multiplicity']})")
    if rows:
        assert lines[1] == "  ".join(f"{c:>14}" for c in columns)
    for line, row in zip(lines[2:], payload["stationary_points"]):
        want = [f"{row[c]:14.6g}" if isinstance(row[c], float) else f"{str(row[c]):>14}"
                for c in columns]
        assert line == "  ".join(want)


def test_cli_rank1_exact_rank1_document(capsys):
    # stationary enumeration degenerates on an exact rank-1 tensor; the
    # report still carries a single synthesized row with psi ~ 0
    code, out, _ = _run(capsys, "rank1", "--data=1,0.5,2,1,-1,-0.5,-2,-1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["psi"] <= 1e-12
    assert len(payload["stationary_points"]) == 1
    assert payload["stationary_points"][0]["psi"] <= 1e-12


@pytest.mark.parametrize("data", ["0,0,0,0,0,0,0,0", "3" + ",0" * 18])
def test_cli_rank1_zero_tensor(capsys, data):
    # the best rank-1 term of a zero 2x2x2 or 3x3x2 tensor is zero, psi = 0
    code, out, _ = _run(capsys, "rank1", f"--data={data}", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["psi"] == 0 and payload["converged"]


def test_cli_rank1_hopm(capsys):
    data = ",".join(str(v) for v in EXAMPLE_A1)
    code, out, _ = _run(capsys, "rank1", f"--data={data}", "--method", "hopm", "--json")
    payload = json.loads(out)
    assert abs(payload["psi"] - 2.6863) < 5e-5 * 2.6863


def test_cli_rank1_hopm_rejects_symmetric_documents(capsys):
    # --method hopm serves full222 and pxpx2; a sym222 document is an input error
    code, out, err = _run(capsys, "rank1", "--data=1,2,3,4", "--method", "hopm", "--json")
    assert code == 2 and out == ""
    assert "full222" in err and "pxpx2" in err


def test_cli_deflate_symmetric(capsys):
    code, out, _ = _run(capsys, "deflate", "--data=0,1,1,0", "--steps", "1")
    payload = json.loads(out)
    step = payload["steps"][0]
    assert step["orbit_after"] == "D3"
    assert step["pencil_after"]["kind"] == "DoubleRealDefective"
    assert abs(step["pencil_after"]["values"][0] + 1.0) < 1e-8


def test_cli_deflate_d1_reaches_zero(capsys):
    code, out, _ = _run(capsys, "deflate", "--data=2,0,0,0,0,0,0,0", "--steps", "3")
    payload = json.loads(out)
    assert payload["steps"][0]["orbit_after"] == "D0"
    assert len(payload["steps"]) == 1  # chain stops at the zero residual


def _deflate_steps(flat, steps=3) -> int:
    out = io.StringIO()
    with redirect_stdout(out):
        main(["deflate", "--data=" + ",".join(map(repr, flat)), "--steps", str(steps)])
    return len(json.loads(out.getvalue())["steps"])


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-500, 500))
def test_cli_deflate_step_count_does_not_change_with_scale(k):
    # the chain stops at a residual below 1e-12 of the input's norm^2,
    # whatever the input's scale
    x = np.random.default_rng(3).standard_normal(8)
    assert _deflate_steps(np.ldexp(x, k).tolist()) == _deflate_steps(x.tolist()) == 3


@pytest.mark.parametrize("k", [520, -520, 600, -600, 999, -999])
def test_terms_ties_and_chains_hold_where_psi_overflows_or_underflows(k):
    # beyond |k| = 500 psi and ||X||^2 saturate to inf or 0 once scaled
    # back, so the order of the points, the tie count and the stop test of
    # the chain are decided before that
    rng = np.random.default_rng(8)
    cube_root = np.ldexp(2.0 ** ((k % 3) / 3.0), k // 3)    # 2^(k/3), to an ulp
    for x in rng.standard_normal((5, 8)):
        base, res = (rank1.best_rank1_222(Tensor222.from_flat(v)) for v in (x, np.ldexp(x, k)))
        np.testing.assert_array_equal(res.term.tensor(), np.ldexp(base.term.tensor(), k))
        with np.errstate(over="ignore"):
            assert res.psi == np.ldexp(base.psi, 2 * k)
        assert res.multiplicity == base.multiplicity == 1
        assert _deflate_steps(np.ldexp(x, k).tolist(), 2) == 2
    for s in rng.standard_normal((5, 4)):
        base, res = (rank1.best_rank1_sym(SymTensor222(*v)) for v in (s, np.ldexp(s, k)))
        y = cube_root * base.term.y
        assert np.abs(res.term.y - y).max() <= 1e-15 * np.abs(y).max()
        with np.errstate(over="ignore"):
            assert res.psi == np.ldexp(base.psi, 2 * k)
        assert res.multiplicity == base.multiplicity == 1
        assert _deflate_steps(np.ldexp(s, k).tolist(), 2) == 2


def test_cli_deflate_zero_tensor_stops_after_one_step():
    assert _deflate_steps([0.0] * 8) == 1


def test_cli_deflate_two_steps_skip_the_theta_grid(capsys, monkeypatch):
    # both steps certify their tables, the second one on the D3 residual of
    # the first, so neither runs the theta-grid cross-check
    calls = []
    solve = rank1.best_rank1_pxpx2
    monkeypatch.setattr(rank1, "best_rank1_pxpx2", lambda X: calls.append(X) or solve(X))
    x = np.random.default_rng(1).standard_normal(8)
    code, out, _ = _run(capsys, "deflate", "--data=" + ",".join(map(repr, x.tolist())),
                        "--steps", "2")
    steps = json.loads(out)["steps"]
    assert code == 0 and len(steps) == 2 and steps[0]["orbit_after"] == "D3"
    assert not calls


def test_cli_deflate_sym_cube_reaches_zero(capsys):
    code, out, _ = _run(capsys, "deflate", "--data=1,0,0,0", "--steps", "3")
    payload = json.loads(out)
    assert payload["steps"][0]["orbit_after"] == "D0"
    assert len(payload["steps"]) == 1


def test_cli_deflate_keeps_a_residual_near_rank_one_on_d3(capsys):
    # the step-1 residual's unfoldings have sigma_2 / sigma_1 = 1.5e-7: rank
    # 2, so the wide Delta band of a residual must not relabel it D1, nor
    # the tiny step-2 residual D0
    data = "1.4046058249188424,-0.35844521370669874,1.5310752312805849,-0.8948617269467041"
    code, out, _ = _run(capsys, "deflate", f"--data={data}", "--steps", "2")
    first, second = json.loads(out)["steps"]
    assert (first["orbit_after"], first["residual_mlrank"]) == ("D3", [2, 2, 2])
    assert second["orbit_after"] != "D0"


def test_cli_rank1_sym_double_root_is_not_complex(capsys):
    code, out, _ = _run(capsys, "rank1", "--data=1,0,0,0", "--json")
    assert json.loads(out)["n_complex_points"] == 0


@pytest.mark.parametrize("argv", [("rank1", "--tol", "1e-9"),
                                  ("rank1", "--coincidence-tol", "1e-6"),
                                  ("decompose", "--coincidence-tol", "1e-6")])
def test_cli_rejects_unused_tolerance_flags(capsys, argv):
    code, _, err = _run(capsys, argv[0], "--data=0,1,1,0", *argv[1:])
    assert code == 2 and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ("classify", "--data=0,1,1,0,1,0,0,0", "--tol=nan"),
    ("classify", "--data=0,1,1,0,1,0,0,0", "--tol=-1"),
    ("deflate", "--data=1,2,3,4,5,6,7,9", "--tol=nan"),
    ("decompose", "--data=1,0,0,1", "--tol=nan"),
    ("decompose", "--data=1,0,0,1", "--tol=-1")])
def test_cli_rejects_a_nan_or_non_positive_tol(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "") and "tol must be positive" in err


@pytest.mark.parametrize("cmd, data", [("classify", "0,1,1,0,1,0,0,0"),
                                       ("classify", "0,0,0,0,0,0,0,0"),
                                       ("deflate", "1,2,3,4,5,6,7,9")])
@pytest.mark.parametrize("band", ["-1", "nan", "inf"])
def test_cli_rejects_a_negative_nan_or_infinite_coincidence_tol(capsys, cmd, data, band):
    code, out, err = _run(capsys, cmd, f"--data={data}", f"--coincidence-tol={band}")
    assert (code, out) == (2, "") and "coincidence_tol must be finite and non-negative" in err


def test_cli_coincidence_tol_zero_asks_for_exact_coincidence(capsys):
    # the D3 form's pencil has an exact double eigenvalue 0 with one eigenvector
    code, out, _ = _run(capsys, "classify", "--data=0,1,1,0,1,0,0,0", "--coincidence-tol=0")
    assert code == 0 and json.loads(out)["pencil"]["kind"] == "DoubleRealDefective"


def test_cli_deflate_generic_chain(capsys):
    data = ",".join(str(v) for v in EXAMPLE_A1)
    code, out, _ = _run(capsys, "deflate", f"--data={data}", "--steps", "3")
    payload = json.loads(out)
    assert payload["steps"][0]["orbit_after"] == "D3"
    for step in payload["steps"][1:]:
        assert step["orbit_after"] in ("D3", "G2", "G3")


def test_cli_decompose(capsys):
    code, out, _ = _run(capsys, "decompose", "--data=1,0,0,1")
    payload = json.loads(out)
    assert payload["rank"] == 2
    code, out, _ = _run(capsys, "decompose", "--data=0,1,1,0")
    assert json.loads(out)["rank"] == 3
    code, out, _ = _run(capsys, "decompose", "--data=1,0,0,0")
    assert json.loads(out)["rank"] == 1
    # a G2 input with a small kernel coefficient bd - c^2
    code, out, _ = _run(capsys, "decompose", "--data=-9.379801539813561,"
                        "-0.0013975774248260503,0.10560578244887422,-8.165825929871872")
    payload = json.loads(out)
    assert code == 0 and payload["rank"] == 2
    assert payload["reconstruction_error"] <= 1e-12 * 9.379801539813561


def test_cli_decompose_near_the_delta_band(capsys):
    # Delta = 8.5e-22 is inside the band, so the rank-3 path runs with c = 0:
    # the apolar construction needs no nonzero middle coefficient
    code, out, _ = _run(capsys, "decompose", "--data=0,5.960464477539063e-08,0,1")
    assert code == 0 and json.loads(out)["reconstruction_error"] <= 1e-8


def test_cli_decompose_with_a_tiny_middle_coefficient(capsys):
    # the canonical form (a', 1, 1, d') of this input has vectors of size
    # about 532 that nearly cancel; the apolar construction does not use it
    code, out, _ = _run(capsys, "decompose", "--data=0,5.960464477539063e-08,3.0,0.75")
    payload = json.loads(out)
    assert code == 0 and payload["rank"] == 3
    assert payload["reconstruction_error"] <= 1e-14 * 3.0


def test_cli_decompose_far_below_one(capsys):
    # (0, 1, 1, 0) * 2^-600: b * b underflows to 0, and the rank-3 path must not divide by it
    code, out, _ = _run(capsys, "decompose",
                        "--data=0,2.409919865102884e-181,2.409919865102884e-181,0")
    payload = json.loads(out)
    assert code == 0 and payload["rank"] == 3
    assert payload["reconstruction_error"] <= 1e-13 * 2.409919865102884e-181


def test_cli_decompose_near_the_top_of_the_double_range(capsys):
    # a cube weight is about 2.8e308 here, while the vectors are about 5e102
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = _run(capsys, "decompose", "--data=1e308,1e308,-1e308,1e308")
    payload = json.loads(out)
    assert code == 0 and payload["rank"] == 2
    assert all(abs(x) < 1e103 for v in payload["vectors"] for x in v)   # not "inf" or "nan"
    assert payload["reconstruction_error"] <= 1e-14 * 1e308


def test_cli_decompose_and_classify_agree_at_a_loose_tol(capsys):
    # the rank-1 test of decompose takes the rank cutoff min(tol, 1e-9) of classify
    data = "--data=1,0,1e-4,3e-5"
    code, out, _ = _run(capsys, "classify", "--tol", "1e-3", data)
    label = json.loads(out)
    assert code == 0 and label["orbit"] == "D3" and label["multilinear_rank"] == [2, 2, 2]
    code, out, _ = _run(capsys, "decompose", "--tol", "1e-3", data)
    payload = json.loads(out)
    assert code == 0 and payload["rank"] == 3
    assert payload["reconstruction_error"] <= 1e-13


def test_cli_decompose_infeasible_rank(capsys):
    code, _, err = _run(capsys, "decompose", "--data=0,1,1,0", "--rank", "2")
    assert code == 4


def test_cli_decompose_refuses_a_rank_above_the_tensors(capsys):
    code, out, err = _run(capsys, "decompose", "--data=1,0,0,1", "--rank", "3")
    assert code == 4 and out == ""
    assert err == "error: tensor has symmetric rank 2; exact rank-3 output unsupported\n"


def test_cli_numerical_failure_exits_with_code_3(capsys, monkeypatch):
    def fail(tensor):
        raise NumericalFailure("no convergence")

    monkeypatch.setattr(rank1, "best_rank1_222", fail)
    code, out, err = _run(capsys, "rank1", "--data=1,2,3,4,5,6,7,8", "--json")
    assert code == 3 and out == ""
    assert err == "numerical failure: no convergence\n"


@pytest.mark.parametrize("kind,experiment", [
    ("symmetric", lambda: deflation.experiment_symmetric(20, 5)),
    ("d3", lambda: deflation.experiment_d3_closure(20, 5)),
    ("pxp2", lambda: deflation.experiment_pxpx2(4, 20, 5)),
])
def test_cli_experiment_runs_each_kind(capsys, kind, experiment):
    code, out, _ = _run(capsys, "experiment", kind, "--trials", "20", "--seed", "5", "--p", "4")
    assert code == 0
    assert out == _to_json({"command": "experiment", **experiment().summary_dict()}) + "\n"


def test_cli_experiment_generic(capsys, tmp_path):
    csv_path = tmp_path / "trials.csv"
    code, out, _ = _run(capsys, "experiment", "generic", "--trials", "40", "--seed", "42",
                        "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 40
    assert payload["fraction_d3"] >= 0.97
    assert csv_path.exists()
    assert len(csv_path.read_text().strip().splitlines()) == 41


def test_cli_experiment_byte_identical(capsys):
    code, out1, _ = _run(capsys, "experiment", "generic", "--trials", "25", "--seed", "7")
    code, out2, _ = _run(capsys, "experiment", "generic", "--trials", "25", "--seed", "7")
    assert out1 == out2


def test_cli_experiment_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("TENSORBIT_SEED", "7")
    _, out_env, _ = _run(capsys, "experiment", "generic", "--trials", "25")
    monkeypatch.delenv("TENSORBIT_SEED")
    _, out_flag, _ = _run(capsys, "experiment", "generic", "--trials", "25", "--seed", "7")
    assert out_env == out_flag


def test_cli_experiment_invalid_parameters(capsys):
    code, _, err = _run(capsys, "experiment", "generic", "--trials", "0")
    assert code == 2


def test_cli_document_file_input(tmp_path, capsys):
    doc = tmp_path / "t.json"
    doc.write_text(json.dumps({"kind": "full222", "data": list(EXAMPLE_A1),
                               "label": "example one"}))
    code, out, _ = _run(capsys, "classify", str(doc))
    payload = json.loads(out)
    assert payload["label"] == "example one"
    assert payload["orbit"] == "G2"


def test_cli_classify_seeded_output_stable(capsys, tmp_path):
    doc = tmp_path / "t.json"
    doc.write_text(json.dumps({"kind": "full222", "data": list(EXAMPLE_A1)}))
    _, out1, _ = _run(capsys, "classify", str(doc))
    _, out2, _ = _run(capsys, "classify", str(doc))
    assert out1 == out2
