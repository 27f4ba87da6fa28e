"""Golden CLI outputs: the SHA-256 of stdout, recorded before the primality
test was rebuilt on one vertex's pair closures plus a partition into
maximal modules.  Any change to these bytes is a behaviour change."""

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
}

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


@pytest.mark.parametrize("twin_of", sorted(TWIN_GOLDEN))
def test_golden_prime_with_twin(capsys, tmp_path, twin_of):
    g = graph_of_word(fibonacci_word(), 99)
    g = add_vertex(Graph(g.n, g.rows), g.rows[twin_of])
    g6 = tmp_path / "twin.g6"
    g6.write_text(to_graph6(g) + "\n")
    assert _digest(capsys, ["prime", "--g6", str(g6)]) == TWIN_GOLDEN[twin_of]
