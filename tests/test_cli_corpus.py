import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import cli_corpus  # noqa: E402


def test_corpus_covers_every_command_with_at_least_1000_calls():
    calls = cli_corpus.corpus()
    assert len(calls) >= 1000
    assert {argv[0] for argv in calls if argv} >= {"classify", "rank1", "deflate", "decompose",
                                                   "experiment"}
    assert calls == cli_corpus.corpus()


def test_a_subset_runs_to_the_same_digest_twice():
    calls = cli_corpus.corpus()
    subset = calls[::60] + calls[-4:]
    first, second = cli_corpus.run(subset), cli_corpus.run(subset)
    assert cli_corpus.digest(first) == cli_corpus.digest(second)
    same = cli_corpus.compare(first, second)
    assert same["differ"] == 0 and same["differ_argv"] == []
    assert {code for _, code, *_ in first} == {0, 2}


def test_compare_tells_float_differences_from_the_rest():
    def record(argv, text):
        return [argv, 0, text + "\n", "", []]

    calls = [["classify", "--data=1,2,3,4"], ["classify", "--data=1,2,3,4,5,6,7,8"],
             ["classify", "--data=1,2,3,4", "--kind", "full222"]]
    old = [record(argv, '{"orbit": "G2", "delta": 24, "multilinear_rank": [2, 2, 2]}')
           for argv in calls]
    new = [record(calls[0], '{"orbit": "G2", "delta": 24.000000000000004, '
                            '"multilinear_rank": [2, 2, 2]}'),
           record(calls[1], '{"orbit": "G2", "delta": 24, "multilinear_rank": [2, 2, 1]}'),
           record(calls[2], '{"orbit": "D3", "delta": 24, "multilinear_rank": [2, 2, 2]}')]
    out = cli_corpus.compare(old, new)
    assert out["differ"] == 3 and out["by_command"] == {"classify": 3}
    assert out["differ_argv"] == calls
    assert out["by_kind"] == {"classify sym222": 1, "classify full222": 2}
    assert out["beyond_floats"] == 2 and out["beyond_floats_argv"] == calls[1:]
    assert 1e-16 < out["largest_relative_difference"] < 2e-16
    # the counts go on where the lists of argv stop
    many = cli_corpus.compare(old[1:] * 40, new[1:] * 40)
    assert many["beyond_floats"] == 80
    assert many["beyond_floats_argv"] == calls[1:] * (cli_corpus.MAX_LISTED // 2)
    floats = cli_corpus.compare(old[:1] * 60, new[:1] * 60)
    assert (floats["differ"], floats["beyond_floats"]) == (60, 0)
    assert floats["differ_argv"] == calls[:1] * cli_corpus.MAX_LISTED


def test_a_call_has_the_kind_of_its_document_or_experiment():
    kinds = [cli_corpus._kind(argv) for argv in cli_corpus.corpus()]
    assert set(kinds) == {"full222", "sym222", "pxpx2", "generic", "symmetric", "d3", "pxp2",
                          "nope", ""}
    assert cli_corpus._kind(["rank1", cli_corpus._data([3, *range(18)])]) == "pxpx2"
    assert cli_corpus._kind(["classify", "--data=1,2,3"]) == ""
