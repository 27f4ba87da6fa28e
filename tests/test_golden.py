"""Golden CLI outputs: the SHA-256 of stdout, each recorded before the code
it covers was last rebuilt (the primality test and its witness; the word
graphs, realizer checks and refinement on bitmasks; the argument parsing of
the README examples).  Any change to these bytes is a behaviour change."""

import hashlib

import pytest

from wordgraphs.cli import main
from wordgraphs.graph6 import to_graph6
from wordgraphs.graphs import Graph, add_vertex
from wordgraphs.wordgraph import graph_of_word
from wordgraphs.words import fibonacci_word

GOLDEN = {
    # Fibonacci L=100: prime
    ("prime", "--fib", "--length", "100"):
        "13006734d6b52f3654e36df439dc922196d0ac03443a50da524ac5e6faeaaca5",
    # not prime: the witness is printed
    ("prime", "--explicit", "0011", "--length", "4"):
        "7c5c9453818f6182a9da5be743c3c4ee5e04b2d227ba0268edc62889ae5baa11",
    # two vertices: prime by convention
    ("prime", "--explicit", "0", "--length", "1"):
        "f47f1d2852337ec8c5b4c261225bca29e6672d709cedb1ac5f902a2dd5ccbd03",
    ("catalogue", "--family", "chain_word_prime", "--n", "8"):
        "32c162cbe77ea57e5563d18908dd484f0b3f8fc4cf2b6ef92ca40d6034ba8eac",
    ("graph", "--fib", "--length", "100"):
        "d988e1b853c6963e95989cdee6548ad6f0de05ff184967bdfb35e7bc5f83f2b5",
    # graph6 lines of canonical forms: any change of refinement order shows
    ("bounds", "--fib", "--k-max", "6", "--length", "32"):
        "1951a21fb8301f8284b6253b13fa840db57f2cf9b8acc8f16511a501ecc43542",
    ("age", "--cf", "2,(1)", "--intercept", "slope", "--length", "60", "--k-max", "6"):
        "1e953a6e56d634ff02e861f17922b9a1e008a090ad5ef0ab4e29e0e47aad62b7",
    # the prime report, containment read off windows (the benchmark's jonsson)
    ("jonsson", "--fib", "--length", "60", "--k-max", "7", "--n-max", "4"):
        "1cc45eb8c763aa5b0678774079c6365f8213c418d05bf977029263b6d62eb21b",
}

# realizer --word <the 600-letter Fibonacci prefix>
REALIZER_600_GOLDEN = "99624fe254d12a50015e7d204084d06391989a2f74579b4cf40f3ba19f711f35"

# Fibonacci L=99 plus a false twin of vertex 99 (far) or of vertex 0 (near)
TWIN_GOLDEN = {
    99: "f8b7230f8d5096bd89bc008f108598e851f556c7e28145e03b7361a970f14527",
    0: "c8514af26d41e345e71b05a176d3a811c3a1135d27943a9ea90ef9f195c2d80e",
}


def _digest(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_stdout(capsys, argv):
    assert _digest(capsys, argv) == GOLDEN[argv]


def test_golden_realizer_of_fibonacci_six_hundred(capsys):
    argv = ["realizer", "--word", fibonacci_word().prefix(600)]
    assert _digest(capsys, argv) == REALIZER_600_GOLDEN


def test_realizer_of_a_generated_word_is_the_same_report(capsys):
    argv = ["realizer", "--fib", "--length", "600"]
    assert _digest(capsys, argv) == REALIZER_600_GOLDEN


@pytest.mark.parametrize("twin_of", sorted(TWIN_GOLDEN))
def test_golden_prime_with_twin(capsys, tmp_path, twin_of):
    g = graph_of_word(fibonacci_word(), 99)
    g = add_vertex(Graph(g.n, g.rows), g.rows[twin_of])
    g6 = tmp_path / "twin.g6"
    g6.write_text(to_graph6(g) + "\n")
    assert _digest(capsys, ["prime", "--g6", str(g6)]) == TWIN_GOLDEN[twin_of]


# The README's CLI examples, run in order in one directory (``prime`` and
# ``detect`` read the files written before them), except ``verify --full``
README_GOLDEN = [
    ("word --sturmian 1/2 --length 12",
     "2b0f7d0ee09a233954729dfc889ab07d061ef62e66944f32b9edd9c3e3a8594f"),
    ("word --fib --length 200 --complexity 8 --recurrence 6",
     "2506d8ca6ddab93f04eb0fbd0e3e040be209ca40cd71a44f2ddff8042cfd1dba"),
    ("graph --fib --length 30 --out fib.g6",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("prime --g6 fib.g6",
     "292fe93f0330127ccf36a20c95c749fc3cc2a26d353d3e41292240895cd8c4da"),
    ("age --fib --length 60 --k-max 6",
     "1e953a6e56d634ff02e861f17922b9a1e008a090ad5ef0ab4e29e0e47aad62b7"),
    ("bounds --periodic 1 --k-max 4 --revalidate-2x",
     "51cc517d59cbfa3df9db0aefaa771bcadf8020c8180302ff8f60ff70b2b0e22d"),
    ("jonsson --fib --length 60 --k-max 8 --n-max 4",
     "dcffb7aea2b12287544ffc5a13b920033d8aeddf85f4151731bd2eb535705a2f"),
    ("realizer --word 0110100110",
     "f6eaaba30fb83783b2095b661b95c1139a5f95eb5891fb0d747f568b2799892c"),
    ("catalogue --family half_graph --n 5 --g6-out half5.g6",
     "6d5177040d10d4211475e108f1d13695501eb2a351b3dba8e86a5400e95fd259"),
    ("detect --g6 half5.g6 --n 3",
     "90a7c904afc0f66840cb887d92ebfb85cb83989a6dcec705a4a2efc230a6bc22"),
    ("verify",
     "52565d14e25f1087ab95b5bcd8262b05e42c923b0437d8ccc1851a7140a99075"),
]
README_FILES_GOLDEN = {
    "fib.g6": "5cf56c7e02ce713ad7fa4fed5deeaff8cf072a3d057eac22becd8810408a956e",
    "fib.g6.labels.json":
        "a6132a8148ae22d28d0dfcb101a37fdcdb7d7f3d48617ee0543ebcd4fa929ac9",
    "half5.g6": "bea3bcaaa9d87df8b1ce6a24c99668dad7201610457f4f894ee61fd4ad61df88",
}


def test_golden_readme_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WORDGRAPHS_OUTDIR", raising=False)
    got = [(line, _digest(capsys, line.split())) for line, _ in README_GOLDEN]
    assert got == README_GOLDEN
    files = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
             for name in README_FILES_GOLDEN}
    assert files == README_FILES_GOLDEN


@pytest.mark.parametrize("argv", [
    # only verify reads a seed; flags are never abbreviated, so --seed is
    # not taken for --seed-letter
    ["word", "--fib", "--seed", "1"],
    ["prime", "--g6", "C~", "--seed", "1"],
    ["prime", "--g6", "C~", "--format", "csv"],  # prime writes JSON only
    ["age", "--fib", "--format", "dot"],         # age writes CSV or JSON
    ["graph", "--fib", "--complement"],          # not --complement-word
    ["jonsson", "--fib", "--all-members"],       # prime members only
])
def test_flags_a_subcommand_does_not_read_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag or its value
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""
