import json

import numpy as np
import pytest

from tensorbit import SymTensor222, Tensor222, TensorPxPx2
from tensorbit.cli import main
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


def test_cli_deflate_symmetric(capsys):
    code, out, _ = _run(capsys, "deflate", "--data=0,1,1,0", "--steps", "1", "--json")
    payload = json.loads(out)
    step = payload["steps"][0]
    assert step["orbit_after"] == "D3"
    assert step["pencil_after"]["kind"] == "DoubleRealDefective"
    assert abs(step["pencil_after"]["values"][0] + 1.0) < 1e-8


def test_cli_deflate_d1_reaches_zero(capsys):
    code, out, _ = _run(capsys, "deflate", "--data=2,0,0,0,0,0,0,0", "--steps", "3",
                        "--json")
    payload = json.loads(out)
    assert payload["steps"][0]["orbit_after"] == "D0"
    assert len(payload["steps"]) == 1  # chain stops at the zero residual


def test_cli_deflate_generic_chain(capsys):
    data = ",".join(str(v) for v in EXAMPLE_A1)
    code, out, _ = _run(capsys, "deflate", f"--data={data}", "--steps", "3", "--json")
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


def test_cli_decompose_infeasible_rank(capsys):
    code, _, err = _run(capsys, "decompose", "--data=0,1,1,0", "--rank", "2")
    assert code == 4


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
