"""Golden CLI outputs: the SHA-256 of stdout, each recorded before the code
it covers was last rebuilt (the primality test and its witness; the word
graphs, realizer checks and refinement on bitmasks).  Any change to these
bytes is a behaviour change."""

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


@pytest.mark.parametrize("twin_of", sorted(TWIN_GOLDEN))
def test_golden_prime_with_twin(capsys, tmp_path, twin_of):
    g = graph_of_word(fibonacci_word(), 99)
    g = add_vertex(Graph(g.n, g.rows), g.rows[twin_of])
    g6 = tmp_path / "twin.g6"
    g6.write_text(to_graph6(g) + "\n")
    assert _digest(capsys, ["prime", "--g6", str(g6)]) == TWIN_GOLDEN[twin_of]
