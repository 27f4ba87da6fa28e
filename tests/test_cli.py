"""CLI surface: flags, formats, files, exit codes, determinism."""

import json

import pytest

import oracles
from wordgraphs import ages, cli
from wordgraphs.ages import BoundCertificate
from wordgraphs.catalogue import FAMILIES, family_member
from wordgraphs.cli import main
from wordgraphs.graph6 import from_graph6, to_graph6
from wordgraphs.graphs import canonical_key, path
from wordgraphs.words import ContinuedFraction, fibonacci_word


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_word_command_examples(capsys):
    code, out = run(capsys, "word", "--sturmian", "1/2", "--length", "12")
    assert code == 0 and out.strip() == "010101010101"
    code, out = run(capsys, "word", "--fib", "--length", "13")
    assert code == 0 and out.strip() == "0100101001001"
    code, out = run(capsys, "word", "--periodic", "10", "--length", "6")
    assert code == 0 and out.strip() == "101010"


def test_word_diagnostics_json(capsys):
    code, out = run(capsys, "word", "--fib", "--length", "200",
                    "--complexity", "5", "--recurrence", "3",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["factor_complexity"] == [2, 3, 4, 5, 6]
    assert doc["recurrence_bounds"]["3"] == 10


def test_graph_command_and_complement_flag(capsys):
    code, out = run(capsys, "graph", "--explicit", "1111", "--length", "4")
    assert code == 0
    g6, sidecar = out.strip().splitlines()
    assert oracles.are_isomorphic(from_graph6(g6), path(5))
    assert json.loads(sidecar)["labels"] == [-1, 0, 1, 2, 3]
    # complementing the word equals complementing the graph
    code, flipped = run(capsys, "graph", "--explicit", "1111", "--length", "4",
                        "--complement-word")
    code2, direct = run(capsys, "graph", "--explicit", "0000", "--length", "4")
    assert flipped.splitlines()[0] == direct.splitlines()[0]
    code, zero = run(capsys, "graph", "--explicit", "", "--length", "0")
    assert from_graph6(zero.splitlines()[0]).n == 1


def test_prime_command(capsys, tmp_path):
    g6file = tmp_path / "p4.g6"
    g6file.write_text(to_graph6(path(4)) + "\n")
    code, out = run(capsys, "prime", "--g6", str(g6file))
    doc = json.loads(out)
    assert code == 0
    assert doc["prime"] and doc["critically_prime"]
    assert doc["schmerl_trotter_pair"] == [0, 1]


def test_prime_command_from_word(capsys):
    code, out = run(capsys, "prime", "--fib", "--length", "6")
    assert code == 0
    assert "prime" in json.loads(out)


@pytest.mark.parametrize("doc,message", [
    ("0", "must be a JSON object"),
    ("[1]", "must be a JSON object"),
    ('{"kind": "explicit"}', "lacks 'bits'"),
    ('{"kind": "mechanical", "slope": "1/0"}',
     "'slope' must be a finite fraction, not '1/0'"),
    ('{"kind": "mechanical", "slope": Infinity}',
     "'slope' must be a finite fraction, not inf"),
    ('{"kind": "mechanical", "slope": "1/2", "intercept": "1/0"}',
     "'intercept' must be a finite fraction, not '1/0'"),
    ('{"kind": "substitution", "rules": {"0": "01"}, "seed": "0"}',
     "letter '1' is in a rule image but has no rule"),
    ('{"kind": "mechanical", "slope": "1/3", "intercpt": "1/2"}',
     "unknown mechanical word descriptor keys: intercpt"),
    ('{"kind": "mechanical", "slope": {"head": [2], "tale": [1]}}',
     "unknown mechanical word descriptor 'slope' keys: tale"),
    ('{"kind": "mechanical", "slope": "1/3", "intercept": true}',
     "mechanical word descriptor: bad 'intercept'"),
])
def test_malformed_word_json_exits_2(capsys, tmp_path, doc, message):
    doc_file = tmp_path / "word.json"
    doc_file.write_text(doc)
    assert main(["prime", "--word-json", str(doc_file), "--length", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    # a prefix of --word-json is not expanded to it
    with pytest.raises(SystemExit) as exc:
        main(["prime", "--word", str(doc_file), "--length", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --word" in capsys.readouterr().err


def test_word_json_names_a_file(capsys, tmp_path):
    missing = tmp_path / "nosuch.json"
    assert main(["word", "--word-json", str(missing), "--length", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "No such file" in captured.err
    assert str(missing) in captured.err
    # a JSON literal is a file name too, never parsed as the descriptor
    doc = '{"kind": "explicit", "bits": "0110"}'
    assert main(["word", "--word-json", doc, "--length", "3"]) == 2
    assert "No such file" in capsys.readouterr().err
    doc_file = tmp_path / "word.json"
    doc_file.write_text(doc)
    assert run(capsys, "word", "--word-json", str(doc_file), "--length", "3") == (0, "011\n")


def test_age_and_bounds_commands(capsys):
    code, out = run(capsys, "age", "--fib", "--length", "40", "--k-max", "4")
    assert code == 0
    assert out.splitlines()[0] == "size,member_count"
    assert out.splitlines()[-1] == "4,10"
    code, out = run(capsys, "bounds", "--periodic", "1", "--k-max", "3")
    doc = json.loads(out)
    assert code == 0
    assert doc["certificates"][0]["graph6"] == "Bw"  # the triangle


def test_bounds_length_zero_is_not_the_default(capsys):
    # only an absent --length means 10 * k_max
    code, out = run(capsys, "bounds", "--fib", "--k-max", "3")
    assert code == 0 and json.loads(out)["L"] == 30
    assert main(["bounds", "--fib", "--k-max", "3", "--length", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "at least k_max" in captured.err


@pytest.mark.parametrize("command", ["age", "bounds"])
def test_k_max_past_the_canonical_cap_exits_2_before_any_work(
        capsys, monkeypatch, command):
    # every member of size k_max is canonically keyed, so a k_max past
    # CORE_WIDTH can never succeed; it is refused before any classification
    def never(*args):
        raise AssertionError("a member was classified")

    monkeypatch.setattr(ages, "_classify", never)
    assert main([command, "--fib", "--length", "2000", "--k-max", "65"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k_max 65 exceeds 64, the canonical key's cap\n"


def test_jonsson_runs_past_the_canonical_cap(capsys, monkeypatch):
    # the desk check keys its members by their window forms, so it has no
    # canonical cap, and past it adds levels without changing the rest
    def never(*args):
        raise AssertionError("a member was canonically labelled")

    monkeypatch.setattr("wordgraphs.graphs._canonical_cached", never)
    argv = ["jonsson", "--periodic", "011", "--length", "100", "--n-max", "6"]
    code, out = run(capsys, *argv, "--k-max", "66")
    assert code == 0
    past = json.loads(out)
    code, out = run(capsys, *argv, "--k-max", "64")
    assert code == 0
    below = json.loads(out)
    assert past["cofinality"] == below["cofinality"]
    assert {k: past["level_counts"][k] for k in below["level_counts"]} \
        == below["level_counts"]
    assert [past["level_counts"][str(k)] for k in (65, 66)] == [6, 6]


def test_bound_that_a_doubled_prefix_holds_exits_2(capsys):
    # B? (three isolated vertices) bounds the length-4 Fibonacci prefix and
    # embeds in the length-5 one: a finding at L = 4, not a broken invariant
    argv = ["bounds", "--fib", "--k-max", "4", "--length", "4"]
    assert main(argv + ["--revalidate-2x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bound certificate B? of the length-4 prefix is no bound at "
        "2L = 8: its graph embeds from prefix length 5 on\n")
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["L"] == 4


def test_bound_that_fails_at_its_own_scale_is_an_invariant_violation(
        capsys, monkeypatch):
    # P_4 embeds in the length-40 Fibonacci prefix: a forged bound that
    # fails at its own scale, with or without the doubled one
    assert oracles.in_word_age(path(4), fibonacci_word(), 40)
    member = BoundCertificate(graph=path(4), key=canonical_key(path(4)),
                              deletion_keys=(), non_membership_scale=40)
    monkeypatch.setattr(cli, "bounds_enumerate", lambda w, L, k: [member])
    for flags in ([], ["--revalidate-2x"]):
        assert main(["bounds", "--fib", "--k-max", "4", "--length", "40"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal invariant violation: bound certificate "
                                "failed re-validation\n")


def test_bounds_revalidate_2x_walks_once_per_certificate(capsys, monkeypatch):
    walks, walk = [], ages.subsets_in_word_age

    def counted(h, w, L):
        walks.append(L)
        return walk(h, w, L)

    monkeypatch.setattr(ages, "subsets_in_word_age", counted)
    code, out = run(capsys, "bounds", "--fib", "--k-max", "6", "--length", "32",
                    "--revalidate-2x")
    assert code == 0 and len(json.loads(out)["certificates"]) == 22
    assert walks == [64] * 22


def test_realizer_command(capsys):
    code, out = run(capsys, "realizer", "--word", "1111")
    doc = json.loads(out)
    assert code == 0 and doc["validated"] is True
    assert sorted(doc["first"]) == [-1, 0, 1, 2, 3]
    # the generator flags name the same word
    assert run(capsys, "realizer", "--periodic", "1", "--length", "4") == (0, out)


def test_catalogue_and_detect(capsys, tmp_path):
    g6file = tmp_path / "half5.g6"
    code, out = run(capsys, "catalogue", "--family", "half_graph", "--n", "5",
                    "--g6-out", str(g6file))
    assert code == 0 and json.loads(out)["order"] == 10
    code, out = run(capsys, "detect", "--g6", str(g6file), "--n", "3")
    doc = json.loads(out)
    hits = {(h["family"], h["complemented"]) for h in doc["hits"]}
    assert ("half_graph", False) in hits
    assert doc["families_not_generated"] == ["half_graph_clique_plus"]


def test_detect_rejects_n_below_one(capsys, tmp_path):
    g6file = tmp_path / "p4.g6"
    g6file.write_text(to_graph6(path(4)) + "\n")
    assert main(["detect", "--g6", str(g6file), "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n must be at least 1, got 0\n"


@pytest.mark.parametrize("family", FAMILIES)
def test_catalogue_rejects_n_below_one(capsys, family):
    # family_member owns the least parameter, so every family names the
    # flag, and none builds a degenerate member
    assert main(["catalogue", "--family", family, "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n must be at least 1, got 0\n"


def test_catalogue_g6_out_is_the_member(capsys, tmp_path):
    g6file = tmp_path / "chain.g6"
    code, out = run(capsys, "catalogue", "--family", "chain_word_prime", "--n", "6",
                    "--complement", "--g6-out", str(g6file))
    doc = json.loads(out)
    assert code == 0 and doc["word_prefix"] == "010010"
    member = family_member("chain_word_prime", 6, complemented=True)
    assert g6file.read_text() == doc["graph6"] + "\n" == to_graph6(member) + "\n"


def test_config_file_defaults_and_flag_priority(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"length": 6, "periodic": "10"}))
    code, out = run(capsys, "word", "--config", str(conf))
    assert code == 0 and out.strip() == "101010"
    code, out = run(capsys, "word", "--config", str(conf), "--length", "4")
    assert code == 0 and out.strip() == "1010"  # explicit flag wins


def test_config_defaults_do_not_outlive_their_call(capsys, tmp_path):
    # the parser is shared between calls; a config must not change its defaults
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"length": 6, "periodic": "10"}))
    code, out = run(capsys, "word", "--config", str(conf))
    assert code == 0 and out.strip() == "101010"
    code, out = run(capsys, "word", "--fib")
    assert code == 0 and out.strip() == "0100101001001010010100100101001001010010"
    assert main(["word"]) == 2  # no generator picked: the config's is gone
    assert "exactly one word generator" in capsys.readouterr().err


def test_config_rejects_unknown_keys(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"lenght": 5}))
    code = main(["word", "--fib", "--length", "8", "--config", str(conf)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "lenght" in captured.err
    # a flag of another subcommand is foreign to this one
    conf.write_text(json.dumps({"k_max": 3}))
    assert main(["word", "--fib", "--config", str(conf)]) == 2
    assert "k_max" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["help", "config"])
def test_config_cannot_set_help_or_config(capsys, tmp_path, key):
    # neither is a flag a config can pre-set, so neither is silently ignored
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({key: True if key == "help"
                                else str(tmp_path / "missing.json")}))
    assert main(["word", "--fib", "--length", "5", "--config", str(conf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown config keys for 'word': {key}" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["prime", "--g6", ""], "--g6"),
    (["detect", "--g6", "", "--n", "3"], "--g6"),
    (["word", "--fib", "--length", "5", "--out", ""], "--out"),
    (["bounds", "--fib", "--k-max", "2", "--g6-out", ""], "--g6-out"),
    (["word", "--fib", "--length", "5", "--config", ""], "--config"),
    (["word", "--word-json", "", "--length", "5"], "--word-json"),
], ids=["prime-g6", "detect-g6", "out", "g6-out", "config", "word-json"])
def test_empty_path_flag_exits_2(capsys, tmp_path, monkeypatch, argv, flag):
    # an empty path would name the current directory, or the output
    # directory itself
    outdir = tmp_path / "outdir"
    monkeypatch.setenv("WORDGRAPHS_OUTDIR", str(outdir))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{flag} must not be empty" in captured.err
    assert not outdir.exists()


def test_recursion_error_is_a_resource_limit(capsys, monkeypatch):
    # memory and integer size are resource limits too; a MemoryError may
    # carry no message, and the report still names the limit
    for exc, message in [
            (RecursionError("maximum recursion depth exceeded"),
             "maximum recursion depth exceeded"),
            (MemoryError(), "MemoryError"),
            (OverflowError("cannot fit 'int' into an index-sized integer"),
             "cannot fit 'int' into an index-sized integer")]:
        def limited(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_word_from_args", limited)
        assert main(["word", "--fib", "--length", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: resource limit: {message}\n"
    monkeypatch.undo()
    # a real one: the repeat count overflows before anything is allocated
    assert main(["word", "--periodic", "01", "--length", "1" + "0" * 20]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: resource limit: ")


@pytest.mark.parametrize("argv", [["word", "--fib", "--config"], ["word", "--word-json"]])
def test_deeply_nested_json_file_is_a_resource_limit(capsys, tmp_path, argv):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000 + "]" * 100_000)
    assert main(argv + [str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: resource limit: ")


@pytest.mark.parametrize("command", ["prime", "detect"])
def test_empty_graph6_file_exits_2(capsys, tmp_path, command):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    argv = [command, "--g6", str(empty)] + (["--n", "3"] if command == "detect" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "empty graph6 string" in captured.err


@pytest.mark.parametrize("command", ["prime", "detect"])
def test_graph6_order_byte_outside_the_format_exits_2(capsys, tmp_path, command):
    bad = tmp_path / "bad.g6"
    bad.write_text(chr(127) + "?" * 336 + "\n")
    argv = [command, "--g6", str(bad)] + (["--n", "3"] if command == "detect" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid graph6 order field" in captured.err


@pytest.mark.parametrize("command", ["prime", "detect"])
def test_missing_graph6_file_exits_2(capsys, tmp_path, command):
    # --g6 always names a file; a missing one is never read as graph6 text
    missing = tmp_path / "C~"
    argv = [command, "--g6", str(missing)] + (["--n", "3"] if command == "detect" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(missing) in captured.err


@pytest.mark.parametrize("argv,config,message", [
    (["age", "--fib", "--k-max", "-1"], None, "--k-max must be nonnegative"),
    (["jonsson", "--fib", "--length", "10", "--k-max", "3", "--n-max", "-1"], None,
     "--n-max must be nonnegative"),
    (["word", "--fib", "--complexity", "-2"], None, "--complexity must be nonnegative"),
    (["age", "--fib", "--length", "5"], {"k_max": -1}, "--k-max must be nonnegative"),
    (["age", "--fib"], {"length": 2.5}, "length must be an integer"),
    (["word", "--fib"], {"length": None}, "length must be an integer"),
    (["age", "--fib"], {"fmt": "dot"}, "fmt must be one of: csv, json"),
    # a config value has the type its flag takes, never one read as another
    (["word", "--subst", "0=01,1=0"], {"seed_letter": 1, "length": 8},
     "config seed_letter must be a string"),
    (["word", "--sturmian", "1/3", "--length", "8"], {"intercept": True},
     "config intercept must be a string"),
    (["word", "--length", "8"], {"fib": 1}, "config fib must be true or false"),
    (["verify"], {"seed": "1"}, "config seed must be an integer"),
    (["age", "--fib"], {"k_max": True}, "config k_max must be an integer"),
    (["word", "--subst", "0=01,1=0", "--length", "8"], {"seed_letter": None},
     "config seed_letter must be a string"),
    # a malformed continued fraction is named, never read as a nearby one
    (["word", "--cf", "2,(", "--length", "12"], None, "continued fraction '2,('"),
    (["word", "--cf", "2,(1", "--length", "12"], None, "continued fraction '2,(1'"),
    (["word", "--cf", ",,2", "--length", "12"], None, "continued fraction ',,2'"),
    (["word", "--cf", "2(1)", "--length", "12"], None, "continued fraction '2(1)'"),
    (["word", "--cf", "2,(1),(2)", "--length", "12"], None,
     "continued fraction '2,(1),(2)'"),
    (["age", "--cf", "2,()", "--length", "12"], None, "continued fraction '2,()'"),
    # an empty value still picks its generator
    (["word", "--cf", "", "--length", "8"], None, "continued fraction ''"),
    (["word", "--fib", "--cf", "", "--length", "8"], None,
     "choose exactly one word generator flag"),
    (["word", "--fib", "--sturmian", "", "--length", "8"], None,
     "choose exactly one word generator flag"),
    # a zero quotient is a malformed spec too
    (["word", "--cf", "2,(0)", "--length", "8"], None, "continued fraction '2,(0)'"),
    (["word", "--cf", "0,(1)", "--length", "8"], None, "continued fraction '0,(1)'"),
    # a slope or intercept naming no finite fraction is named, never a traceback
    (["word", "--sturmian", "1/0", "--length", "8"], None,
     "--sturmian must be a finite fraction, not '1/0'"),
    (["word", "--sturmian", "x", "--length", "8"], None,
     "--sturmian must be a finite fraction, not 'x'"),
    (["word", "--sturmian", "1/2", "--intercept", "1/0", "--length", "8"], None,
     "--intercept must be a finite fraction, not '1/0'"),
    (["word", "--cf", "2,(1)", "--intercept", "3/0", "--length", "8"], None,
     "--intercept must be a finite fraction, not '3/0'"),
    # substitution rules: every letter of an image has one rule, given once
    (["word", "--subst", "0=01", "--length", "5"], None,
     "letter '1' is in a rule image but has no rule"),
    (["word", "--subst", "0=01,01=1", "--length", "5"], None,
     "rule letter '01' must be '0' or '1'"),
    (["word", "--subst", "0=01,1=0,1=1", "--length", "6"], None,
     "--subst gives letter '1' twice"),
    # m(n) is reported only for sizes the age reached
    (["jonsson", "--fib", "--length", "5", "--k-max", "3", "--n-max", "9"], None,
     "--n-max 9 exceeds --k-max 3"),
    (["jonsson", "--fib", "--length", "5", "--k-max", "3"], {"n_max": 4},
     "--n-max 4 exceeds --k-max 3"),
    # word diagnostics only at lengths the prefix can show
    (["word", "--fib", "--length", "10", "--recurrence", "11"], None,
     "--recurrence 11 exceeds --length 10"),
    (["word", "--fib", "--length", "10"], {"recurrence": 11},
     "--recurrence 11 exceeds --length 10"),
    (["word", "--fib", "--length", "11", "--complexity", "6"], None,
     "--complexity 6 exceeds half of --length 11"),
    # realizer reads --word or a generated word, never both
    (["realizer", "--word", "0110", "--fib"], None,
     "realizer takes --word or a word, not both"),
    (["realizer", "--word", "0110", "--length", "4"], None,
     "realizer takes --word or a word, not both"),
    (["realizer", "--fib"], None, "realizer needs --word or a word with --length"),
    (["realizer"], None, "choose exactly one word generator flag"),
    # an empty path from a config is refused like one from a flag
    (["word", "--fib", "--length", "5"], {"out": ""}, "--out must not be empty"),
])
def test_bad_counts_and_config_values_exit_2(capsys, tmp_path, argv, config, message):
    if config is not None:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        argv = argv + ["--config", str(conf)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err



@pytest.mark.parametrize("spec,head,tail", [
    ("2", (2,), ()), ("2,(1)", (2,), (1,)), ("(1)", (), (1,)),
    ("1,2,(3,4)", (1, 2), (3, 4)), (" 1, 2, (3, 4) ", (1, 2), (3, 4)),
])
def test_cf_specs(spec, head, tail):
    assert cli._parse_cf(spec) == ContinuedFraction(head, tail)

def test_outdir_environment_variable(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WORDGRAPHS_OUTDIR", str(tmp_path))
    code, _ = run(capsys, "word", "--fib", "--length", "8", "--out", "w.txt")
    assert code == 0
    assert (tmp_path / "w.txt").read_text().strip() == "01001010"


def test_config_error_exit_codes(capsys, tmp_path):
    assert main(["word", "--length", "5"]) == 2  # no generator picked
    capsys.readouterr()
    assert main(["word", "--fib", "--periodic", "1", "--length", "5"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.g6"
    bad.write_text("!!notgraph6!!\n")
    assert main(["detect", "--g6", str(bad), "--n", "2"]) == 2
    capsys.readouterr()
    # a word flag that nothing reads
    assert main(["word", "--fib", "--intercept", "slope"]) == 2
    assert "--intercept applies only to" in capsys.readouterr().err
    assert main(["word", "--fib", "--seed-letter", "1"]) == 2
    assert "--seed-letter applies only to" in capsys.readouterr().err
    assert main(["prime", "--g6", "C~", "--fib", "--length", "3"]) == 2
    assert "not both" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # argparse: the flag is gone
        main(["word", "--fib", "--length", "5", "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_round_trip_written_graph(capsys, tmp_path):
    out = tmp_path / "g.g6"
    code, _ = run(capsys, "graph", "--fib", "--length", "12", "--out", str(out))
    assert code == 0
    g = from_graph6(out.read_text())
    assert g.n == 13
    sidecar = json.loads(out.with_suffix(".g6.labels.json").read_text())
    assert sidecar["labels"][0] == -1


def test_verify_quick_deterministic(capsys):
    code1, out1 = run(capsys, "verify", "--seed", "7")
    code2, out2 = run(capsys, "verify", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "11/11 checks passed" in out1
