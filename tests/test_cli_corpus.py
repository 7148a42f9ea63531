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
    assert cli_corpus.compare(first, second)["differ"] == 0
    assert {code for _, code, *_ in first} == {0, 2}


def test_compare_tells_float_differences_from_the_rest():
    def record(text):
        return [["classify"], 0, text + "\n", "", []]

    old = [record('{"orbit": "G2", "delta": 24, "multilinear_rank": [2, 2, 2]}')] * 3
    new = [record('{"orbit": "G2", "delta": 24.000000000000004, "multilinear_rank": [2, 2, 2]}'),
           record('{"orbit": "G2", "delta": 24, "multilinear_rank": [2, 2, 1]}'),
           record('{"orbit": "D3", "delta": 24, "multilinear_rank": [2, 2, 2]}')]
    out = cli_corpus.compare(old, new)
    assert out["differ"] == 3 and out["by_command"] == {"classify": 3}
    assert out["beyond_floats"] == 2
    assert 1e-16 < out["largest_relative_difference"] < 2e-16
