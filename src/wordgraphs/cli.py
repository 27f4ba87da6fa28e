"""Experiment runner: word diagnostics, graph emission, primality reports,
age/bound/cofinality tables, realizers, catalogue export, verification.

Plain subcommands for batch scripting; no interactive mode.  The argparse
parser is the one table of subcommands: each subparser names its runner
(``set_defaults(run=...)``) and declares exactly the flags that runner
reads.  ``--format`` exists only where a subcommand writes two formats
(word: text/json, graph: graph6/dot, age: csv/json, bounds: json/csv; the
first is the default), and ``--seed`` only on ``verify``.  Flags are never
abbreviated: a prefix of a flag is an unrecognized argument.  Counts
(``--length``, ``--k-max``, ``--n-max``, ``--n``, ``--complexity``,
``--recurrence``) must be nonnegative integers, and paths nonempty,
whether given as flags or in a config file.

Exit codes: 0 success, 1 internal invariant violation (a bug tripwire
fired), 2 user or configuration error, a resource limit (the recursion
limit, memory, or an integer too large for an index), or, under
``bounds --revalidate-2x``, a certificate of the length-L prefix whose
graph is a member of a prefix of length at most 2L (the message names
the graph and that length); reading the input and running map errors the
same way.
A JSON config file can pre-set any flag of the chosen subcommand but
``--config`` and ``--help`` (explicit flags win; a key naming no such flag,
a value of another JSON type than the flag takes, or a value outside the
flag's choices, is an error).  The environment variable
``WORDGRAPHS_OUTDIR`` supplies a default directory for relative output paths.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import catalogue as cat
from .ages import (
    age_csv,
    age_to_json,
    bound_scales,
    bounds_enumerate,
    bounds_summary_csv,
    bounds_to_json,
    jonsson_desk_check,
    jonsson_to_json,
    validate_bound_certificate,
    word_age,
)
from .graph6 import from_graph6, labels_sidecar, to_dot, to_graph6
from .graphs import Graph
from .primes import (
    find_nontrivial_module,
    is_critically_prime,
    is_prime,
    schmerl_trotter_pair,
)
from .realizers import realizer_for_word_graph, realizer_to_json
from .verify import battery_report, run_battery
from .wordgraph import graph_of_word
from .words import (
    ContinuedFraction,
    Word,
    WordError,
    complement_word,
    factor_complexity,
    fibonacci_word,
    mechanical_word,
    parse_fraction,
    periodic_word,
    recurrence_bound,
    reject_unknown_keys,
    substitution_word,
    word_from_json,
    word_to_json,
    explicit_word,
)


# -- word descriptor flags ------------------------------------------------------


def _add_word_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("word generator (pick one)")
    g.add_argument("--explicit", metavar="BITS", help="explicit 0-1 word")
    g.add_argument("--periodic", metavar="BITS", help="repeat this pattern")
    g.add_argument("--sturmian", metavar="P/Q",
                   help="mechanical word with exact rational slope")
    g.add_argument("--cf", metavar="SPEC",
                   help="mechanical word, continued-fraction slope; "
                        "e.g. 2,(1) for [0;2,1,1,...]")
    g.add_argument("--fib", action="store_true",
                   help="fixed point of 0->01, 1->0")
    g.add_argument("--subst", metavar="RULES",
                   help="substitution rules like 0=01,1=0")
    g.add_argument("--seed-letter", default="0",
                   help="substitution seed letter (default 0)")
    g.add_argument("--intercept", default="0",
                   help="mechanical intercept: rational or 'slope'")
    g.add_argument("--word-json", metavar="FILE",
                   help="JSON file holding a full generator descriptor")
    g.add_argument("--complement-word", action="store_true",
                   help="flip every letter of the chosen word")


# positive integers (leading zeros allowed, as int() reads them) split by commas
_QUOTIENTS = r"\s*0*[1-9]\d*\s*(?:,\s*0*[1-9]\d*\s*)*"
# heads, then optionally one tail group closing the spec, after a comma
# when there are heads
_CF_SPEC = re.compile(rf"({_QUOTIENTS})?(?:(?(1),)\s*\(({_QUOTIENTS})\)\s*)?",
                      re.ASCII)


def _parse_cf(spec: str) -> ContinuedFraction:
    match = _CF_SPEC.fullmatch(spec)
    if match is None or match.groups() == (None, None):
        raise WordError(f"malformed continued fraction {spec!r}: want positive "
                        "heads like 1,2, then optionally one tail group like (3,4)")
    head, tail = (tuple(int(q) for q in group.split(",")) if group else ()
                  for group in match.groups())
    return ContinuedFraction(head=head, tail=tail)


def _generators(args: argparse.Namespace) -> int:
    # a flag given an empty value is still given
    return args.fib + sum(value is not None for value in (
        args.explicit, args.periodic, args.sturmian, args.cf, args.subst,
        args.word_json))


def _word_from_args(args: argparse.Namespace) -> Word:
    if _generators(args) != 1:
        raise WordError("choose exactly one word generator flag")
    # a modifier its generator does not read would be silently ignored
    if args.seed_letter != "0" and args.subst is None:
        raise WordError("--seed-letter applies only to --subst")
    if args.intercept != "0" and args.sturmian is None and args.cf is None:
        raise WordError("--intercept applies only to --sturmian and --cf")
    if args.word_json is not None:
        w = word_from_json(Path(args.word_json).read_text())
    elif args.explicit is not None:
        w = explicit_word(args.explicit)
    elif args.periodic is not None:
        w = periodic_word(args.periodic)
    elif args.fib:
        w = fibonacci_word()
    elif args.subst is not None:
        rules = {}
        for item in args.subst.split(","):
            letter, _, image = item.partition("=")
            letter = letter.strip()
            if letter in rules:
                raise WordError(f"--subst gives letter {letter!r} twice")
            rules[letter] = image.strip()
        w = substitution_word(rules, args.seed_letter)
    else:
        intercept: Fraction | str = ("slope" if args.intercept == "slope"
                                     else parse_fraction(args.intercept, "--intercept"))
        slope = (_parse_cf(args.cf) if args.cf is not None
                 else parse_fraction(args.sturmian, "--sturmian"))
        w = mechanical_word(slope, intercept)
    return complement_word(w) if args.complement_word else w


def _prefix_unless(args: argparse.Namespace, flag: str, value: str | None) -> str | None:
    """The prefix that the word flags and ``--length`` name, or None when
    ``flag`` gave the input (``value``) instead; the two exclude each other."""
    if value is not None:
        if (args.length is not None or _generators(args) or args.complement_word
                or args.seed_letter != "0" or args.intercept != "0"):
            raise WordError(f"{args.command} takes {flag} or a word, not both")
        return None
    word = _word_from_args(args)
    if args.length is None:
        raise WordError(f"{args.command} needs {flag} or a word with --length")
    return word.prefix(args.length)


def _load_graph(path: str) -> Graph:
    """The graph on the first line of the graph6 file ``path``."""
    return from_graph6((Path(path).read_text().strip().splitlines() or [""])[0])


def _emit(text: str, out: str | Path | None) -> None:
    """Write to stdout, or to ``out`` under ``WORDGRAPHS_OUTDIR`` if relative."""
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    outdir = os.environ.get("WORDGRAPHS_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


# -- subcommand bodies -----------------------------------------------------------


def _cmd_word(args: argparse.Namespace) -> int:
    if (args.recurrence or 0) > args.length:
        raise WordError(f"--recurrence {args.recurrence} exceeds --length {args.length}")
    if (args.complexity or 0) > args.length // 2:  # counts still growing
        raise WordError(f"--complexity {args.complexity} exceeds half of "
                        f"--length {args.length}")
    w = _word_from_args(args)
    prefix = w.prefix(args.length)
    complexity = (factor_complexity(w, args.length, args.complexity)
                  if args.complexity else [])
    recurrence = dict(enumerate(
        recurrence_bound(w, args.length, args.recurrence or 0), 1))
    if args.fmt == "json":
        doc = {"descriptor": json.loads(word_to_json(w)),
               "length": args.length, "prefix": prefix}
        if args.complexity:
            doc["factor_complexity"] = complexity
        if args.recurrence:
            doc["recurrence_bounds"] = {str(n): m for n, m in recurrence.items()}
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
        return 0
    lines = [prefix]
    lines += [f"p({n}) = {p}" for n, p in enumerate(complexity, 1)]
    lines += [f"recurrence({n}) = {'none-at-scale' if m is None else m}"
              for n, m in recurrence.items()]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    g = graph_of_word(_word_from_args(args), args.length)
    if args.fmt == "dot":
        _emit(to_dot(g), args.out)
        return 0
    _emit(to_graph6(g) + "\n", args.out)
    sidecar = labels_sidecar(g) + "\n"
    if args.out is None:
        sys.stdout.write(sidecar)
    else:
        out = Path(args.out)
        _emit(sidecar, out.with_suffix(out.suffix + ".labels.json"))
    return 0


def _cmd_prime(args: argparse.Namespace) -> int:
    bits = _prefix_unless(args, "--g6", args.g6)
    g = _load_graph(args.g6) if bits is None else graph_of_word(bits)
    prime = is_prime(g)
    witness = None if prime else find_nontrivial_module(g)
    doc = {
        "order": g.n,
        "prime": prime,
        "module_witness": list(witness.vertices) if witness else None,
        "critically_prime": is_critically_prime(g),
        "schmerl_trotter_pair": None,
    }
    if prime:
        pair = schmerl_trotter_pair(g)
        doc["schmerl_trotter_pair"] = list(pair) if pair else None
    _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_age(args: argparse.Namespace) -> int:
    age = word_age(_word_from_args(args), args.length, args.k_max)
    if args.fmt == "json":
        _emit(json.dumps(age_to_json(age), sort_keys=True) + "\n", args.out)
    else:
        _emit(age_csv(age), args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    word = _word_from_args(args)
    length = 10 * args.k_max if args.length is None else args.length
    certs = bounds_enumerate(word, length, args.k_max)
    scales = (length, 2 * length) if args.revalidate_2x else (length,)
    for cert in certs:
        if validate_bound_certificate(cert, word, *scales):
            continue
        interval = bound_scales(cert, word, scales[-1])
        if length not in interval:
            raise AssertionError("bound certificate failed re-validation")
        # a bound of the prefix that a longer prefix holds: a finding at
        # this scale, not a broken invariant
        raise WordError(
            f"bound certificate {to_graph6(cert.graph)} of the length-{length} "
            f"prefix is no bound at 2L = {2 * length}: its graph embeds from "
            f"prefix length {interval.stop} on")
    if args.fmt == "csv":
        _emit(bounds_summary_csv(certs), args.out)
    else:
        doc = {"L": length, "k_max": args.k_max,
               "certificates": bounds_to_json(certs)}
        _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    if args.g6_out:
        _emit("".join(to_graph6(c.graph) + "\n" for c in certs), args.g6_out)
    return 0


def _cmd_jonsson(args: argparse.Namespace) -> int:
    if args.n_max > args.k_max:  # m(n) only for sizes the age reached
        raise WordError(f"--n-max {args.n_max} exceeds --k-max {args.k_max}")
    report = jonsson_desk_check(_word_from_args(args), args.length, args.k_max,
                                n_max=args.n_max)
    _emit(json.dumps(jonsson_to_json(report), sort_keys=True) + "\n", args.out)
    return 0


def _cmd_realizer(args: argparse.Namespace) -> int:
    bits = _prefix_unless(args, "--word", args.word)
    bits = args.word if bits is None else bits
    realizer, graph, valid = realizer_for_word_graph(bits)
    if not valid:
        raise AssertionError("realizer failed validation against the word graph")
    doc = {"word": bits, "validated": valid, "order": graph.n}
    doc.update(realizer_to_json(realizer))
    _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_catalogue(args: argparse.Namespace) -> int:
    manifest = cat.family_manifest(args.family, args.n, args.complement)
    _emit(json.dumps(manifest, sort_keys=True) + "\n", args.out)
    if args.g6_out:
        _emit(manifest["graph6"] + "\n", args.g6_out)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    hits = cat.detect_unavoidable(_load_graph(args.g6), args.n)
    doc = {
        "n": args.n,
        "hits": [{"family": fam, "complemented": comp}
                 for fam, comp in sorted(hits)],
        "families_not_generated": list(cat.MISSING_FAMILIES),
    }
    _emit(json.dumps(doc, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_battery("full" if args.full else "quick", seed=args.seed)
    _emit(battery_report(results), args.out)
    return 0 if all(r.passed for r in results) else 1


# -- argument wiring --------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser, *formats: str) -> None:
    p.add_argument("--format", dest="fmt", default=formats[0], choices=formats,
                   help=f"report format (default {formats[0]})")


def _build_parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    parser = argparse.ArgumentParser(
        prog="wordgraphs", allow_abbrev=False,
        description="graphs from 0-1 words: primes, ages, bounds, realizers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_word = sub.add_parser("word", help="print a prefix and word diagnostics")
    p_word.set_defaults(run=_cmd_word)
    _add_word_flags(p_word)
    p_word.add_argument("--length", type=int, default=40)
    p_word.add_argument("--complexity", type=int, metavar="N_MAX")
    p_word.add_argument("--recurrence", type=int, metavar="N_MAX")
    _add_format(p_word, "text", "json")

    p_graph = sub.add_parser("graph", help="emit the word graph")
    p_graph.set_defaults(run=_cmd_graph)
    _add_word_flags(p_graph)
    p_graph.add_argument("--length", type=int, default=20)
    _add_format(p_graph, "graph6", "dot")

    p_prime = sub.add_parser("prime", help="primality report for a graph")
    p_prime.set_defaults(run=_cmd_prime)
    p_prime.add_argument("--g6", help="graph6 file", default=None)
    _add_word_flags(p_prime)
    p_prime.add_argument("--length", type=int, default=None)

    p_age = sub.add_parser("age", help="age table of a word graph")
    p_age.set_defaults(run=_cmd_age)
    _add_word_flags(p_age)
    p_age.add_argument("--length", type=int, default=60)
    p_age.add_argument("--k-max", type=int, default=6)
    _add_format(p_age, "csv", "json")

    p_bounds = sub.add_parser("bounds", help="bound certificates of a word age")
    p_bounds.set_defaults(run=_cmd_bounds)
    _add_word_flags(p_bounds)
    p_bounds.add_argument("--length", type=int, default=None,
                          help="prefix length (default 10*k_max)")
    p_bounds.add_argument("--k-max", type=int, default=6)
    p_bounds.add_argument("--revalidate-2x", action="store_true",
                          help="re-validate every certificate at twice the scale")
    p_bounds.add_argument("--g6-out", metavar="FILE",
                          help="also write the bound graphs as graph6 lines")
    _add_format(p_bounds, "json", "csv")

    p_jon = sub.add_parser("jonsson", help="prime-level cofinality report")
    p_jon.set_defaults(run=_cmd_jonsson)
    _add_word_flags(p_jon)
    p_jon.add_argument("--length", type=int, default=60)
    p_jon.add_argument("--k-max", type=int, default=8)
    p_jon.add_argument("--n-max", type=int, default=4)

    p_real = sub.add_parser("realizer", help="build and validate a realizer")
    p_real.set_defaults(run=_cmd_realizer)
    p_real.add_argument("--word", metavar="BITS", help="explicit 0-1 word")
    _add_word_flags(p_real)
    p_real.add_argument("--length", type=int, default=None,
                        help="prefix length of a generated word")

    p_cat = sub.add_parser("catalogue", help="emit an unavoidable-family member")
    p_cat.set_defaults(run=_cmd_catalogue)
    p_cat.add_argument("--family", required=True, choices=cat.FAMILIES)
    p_cat.add_argument("--n", type=int, required=True)
    p_cat.add_argument("--complement", action="store_true")
    p_cat.add_argument("--g6-out", metavar="FILE")

    p_det = sub.add_parser("detect", help="which families embed in a graph")
    p_det.set_defaults(run=_cmd_detect)
    p_det.add_argument("--g6", required=True, help="graph6 file")
    p_det.add_argument("--n", type=int, required=True)

    p_ver = sub.add_parser("verify", help="run the invariant/acceptance battery")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("--full", action="store_true",
                       help="desk-scale experiment sizes (about 4 s, quick about 0.5 s, "
                            "on a 2-core machine)")
    p_ver.add_argument("--seed", type=int, default=0)

    for p in sub.choices.values():
        p.allow_abbrev = False  # a shortened flag is an error, never another flag
        p.add_argument("--config", metavar="FILE",
                       help="JSON file of flag defaults (explicit flags win)")
        p.add_argument("--out", metavar="FILE", help="write the report here")
    return parser, sub


@lru_cache(maxsize=1)
def _shared_parser() -> tuple[argparse.ArgumentParser, argparse._SubParsersAction]:
    """The parser of every call without ``--config``, built once per process."""
    return _build_parser()


# flags that count something: nonnegative integers, or None where that is the
# flag's own default ("not given")
_COUNTS = ("length", "k_max", "n_max", "n", "complexity", "recurrence")
# flags that name a file, where "" would name the current directory
_PATHS = ("g6", "out", "g6_out", "config", "word_json")


def _check_config_value(action: argparse.Action, value: object) -> None:
    """A config value skips argparse's ``type=``, so it must already have the
    type the flag gives: true/false for a switch, an integer for an integer
    flag, a string otherwise, or null where the flag's default is null."""
    if value is None and action.default is None:
        return
    if action.nargs == 0:  # a switch takes no value
        want, kind = bool, "true or false"
    elif action.type is int:
        want, kind = int, "an integer"
    else:
        want, kind = str, "a string"
    # type(), not isinstance(): JSON true and false are ints to isinstance
    if type(value) is not want:
        raise WordError(f"config {action.dest} must be {kind}")
    if action.choices is not None and value not in action.choices:
        raise WordError(f"config {action.dest} must be one of: "
                        + ", ".join(action.choices))


def _parse(argv: list[str]) -> argparse.Namespace:
    parser, sub = _shared_parser()
    probe, _ = parser.parse_known_args(argv)
    if probe.config:
        defaults = json.loads(Path(probe.config).read_text())
        if not isinstance(defaults, dict):
            raise WordError("config file must hold a JSON object of flags")
        actions = {a.dest: a for a in sub.choices[probe.command]._actions
                   if a.dest not in ("help", "config")}
        reject_unknown_keys(defaults, set(actions), f"config keys for {probe.command!r}")
        for key, value in defaults.items():
            _check_config_value(actions[key], value)
        # set_defaults changes the parser, so the config gets a fresh one
        parser, sub = _build_parser()
        sub.choices[probe.command].set_defaults(**defaults)
    args = parser.parse_args(argv)
    for name in _COUNTS:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise WordError(f"--{name.replace('_', '-')} must be nonnegative")
    for name in _PATHS:
        if getattr(args, name, None) == "":
            raise WordError(f"--{name.replace('_', '-')} must not be empty")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse(argv)
        return args.run(args)
    # RecursionError is a RuntimeError, but none of the three is a broken
    # invariant; a MemoryError may carry no message, so its type names it
    except (RecursionError, MemoryError, OverflowError) as exc:
        print(f"error: resource limit: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
