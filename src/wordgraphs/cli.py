"""Experiment runner: word diagnostics, graph emission, primality reports,
age/bound/cofinality tables, realizers, catalogue export, verification.

Plain subcommands for batch scripting; no interactive mode.  Exit codes:
0 success, 1 internal invariant violation (a bug tripwire fired), 2 user or
configuration error, or a resource limit such as the recursion limit.  A
JSON config file can pre-set any flag of the chosen subcommand (explicit
flags win; a key naming no such flag is an error).  The environment
variable ``WORDGRAPHS_OUTDIR`` supplies a default directory for relative
output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import catalogue as cat
from .ages import (
    age_csv,
    age_to_json,
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
    periodic_word,
    recurrence_bound,
    substitution_word,
    word_from_json,
    word_to_json,
    explicit_word,
)


@dataclass
class ExperimentConfig:
    """Resolved run parameters; a fixed seed makes reports byte-identical."""

    command: str
    word: Word | None = None
    length: int = 0
    k_max: int = 0
    n_max: int = 0
    out: Path | None = None
    fmt: str = "text"
    seed: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("length", "k_max", "n_max"):
            if getattr(self, name) < 0:
                raise WordError(f"{name} must be nonnegative")


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
    g.add_argument("--word-json", metavar="DOC",
                   help="full generator descriptor, JSON text or file path")
    g.add_argument("--complement-word", action="store_true",
                   help="flip every letter of the chosen word")


def _parse_cf(spec: str) -> ContinuedFraction:
    spec = spec.strip()
    tail: tuple[int, ...] = ()
    if "(" in spec:
        head_part, tail_part = spec.split("(", 1)
        tail = tuple(int(t) for t in tail_part.rstrip(") ").split(",") if t)
        spec = head_part
    head = tuple(int(t) for t in spec.split(",") if t.strip())
    return ContinuedFraction(head=head, tail=tail)


def _word_from_args(args: argparse.Namespace) -> Word:
    picks = [bool(args.explicit is not None), bool(args.periodic is not None),
             bool(args.sturmian), bool(args.cf), bool(args.fib),
             bool(args.subst), bool(args.word_json)]
    if sum(picks) != 1:
        raise WordError("choose exactly one word generator flag")
    if args.word_json:
        doc = args.word_json
        if os.path.exists(doc):
            doc = Path(doc).read_text()
        w = word_from_json(doc)
    elif args.explicit is not None:
        w = explicit_word(args.explicit)
    elif args.periodic is not None:
        w = periodic_word(args.periodic)
    elif args.fib:
        w = fibonacci_word()
    elif args.subst:
        rules = {}
        for item in args.subst.split(","):
            letter, _, image = item.partition("=")
            rules[letter.strip()] = image.strip()
        w = substitution_word(rules, args.seed_letter)
    else:
        intercept: Fraction | str = (
            "slope" if args.intercept == "slope" else Fraction(args.intercept))
        slope = (_parse_cf(args.cf) if args.cf else Fraction(args.sturmian))
        w = mechanical_word(slope, intercept)
    return complement_word(w) if args.complement_word else w


def _load_graph(arg: str) -> Graph:
    if os.path.exists(arg):
        arg = Path(arg).read_text().strip().splitlines()[0]
    return from_graph6(arg)


def _resolve_out(path_str: str | None) -> Path | None:
    if path_str is None:
        return None
    path = Path(path_str)
    outdir = os.environ.get("WORDGRAPHS_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


# -- subcommand bodies -----------------------------------------------------------


def _cmd_word(cfg: ExperimentConfig) -> int:
    w = cfg.word
    assert w is not None
    prefix = w.prefix(cfg.length)
    if cfg.fmt == "json":
        doc = {"descriptor": json.loads(word_to_json(w)),
               "length": cfg.length, "prefix": prefix}
        if cfg.extras.get("complexity"):
            n_max = cfg.extras["complexity"]
            doc["factor_complexity"] = factor_complexity(w, cfg.length, n_max)
        if cfg.extras.get("recurrence"):
            n_max = cfg.extras["recurrence"]
            doc["recurrence_bounds"] = {
                str(n): recurrence_bound(w, n, cfg.length)
                for n in range(1, n_max + 1)}
        _emit(json.dumps(doc, sort_keys=True) + "\n", cfg.out)
        return 0
    lines = [prefix]
    if cfg.extras.get("complexity"):
        for n, p in enumerate(factor_complexity(w, cfg.length,
                                                cfg.extras["complexity"]), 1):
            lines.append(f"p({n}) = {p}")
    if cfg.extras.get("recurrence"):
        for n in range(1, cfg.extras["recurrence"] + 1):
            m = recurrence_bound(w, n, cfg.length)
            lines.append(f"recurrence({n}) = {'none-at-scale' if m is None else m}")
    _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _cmd_graph(cfg: ExperimentConfig) -> int:
    g = graph_of_word(cfg.word, cfg.length)
    if cfg.fmt == "dot":
        _emit(to_dot(g), cfg.out)
    else:
        _emit(to_graph6(g) + "\n", cfg.out)
        sidecar = labels_sidecar(g) + "\n"
        if cfg.out is not None:
            cfg.out.with_suffix(cfg.out.suffix + ".labels.json").write_text(sidecar)
        else:
            sys.stdout.write(sidecar)
    return 0


def _cmd_prime(cfg: ExperimentConfig) -> int:
    g = cfg.extras["graph"]
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
    _emit(json.dumps(doc, sort_keys=True) + "\n", cfg.out)
    return 0


def _cmd_age(cfg: ExperimentConfig) -> int:
    age = word_age(cfg.word, cfg.length, cfg.k_max)
    if cfg.fmt == "json":
        _emit(json.dumps(age_to_json(age), sort_keys=True) + "\n", cfg.out)
    else:
        _emit(age_csv(age), cfg.out)
    return 0


def _cmd_bounds(cfg: ExperimentConfig) -> int:
    length = cfg.length or 10 * cfg.k_max
    certs = bounds_enumerate(cfg.word, length, cfg.k_max)
    for cert in certs:
        if not validate_bound_certificate(cert, cfg.word, length):
            raise AssertionError("bound certificate failed re-validation")
    if cfg.extras.get("revalidate_2x"):
        for cert in certs:
            if not validate_bound_certificate(cert, cfg.word, 2 * length):
                raise AssertionError("bound certificate unstable at doubled scale")
    if cfg.fmt == "csv":
        _emit(bounds_summary_csv(certs), cfg.out)
    else:
        doc = {"L": length, "k_max": cfg.k_max,
               "certificates": bounds_to_json(certs)}
        _emit(json.dumps(doc, sort_keys=True) + "\n", cfg.out)
    g6_out = cfg.extras.get("g6_out")
    if g6_out:
        _emit("".join(to_graph6(c.graph) + "\n" for c in certs),
              _resolve_out(g6_out))
    return 0


def _cmd_jonsson(cfg: ExperimentConfig) -> int:
    age = word_age(cfg.word, cfg.length, cfg.k_max)
    report = jonsson_desk_check(age, prime_only=not cfg.extras.get("all_members"),
                                n_max=cfg.n_max)
    _emit(json.dumps(jonsson_to_json(report), sort_keys=True) + "\n", cfg.out)
    return 0


def _cmd_realizer(cfg: ExperimentConfig) -> int:
    word = cfg.extras["bits"]
    realizer, graph, valid = realizer_for_word_graph(word)
    if not valid:
        raise AssertionError("realizer failed validation against the word graph")
    doc = {"word": word, "validated": valid, "order": graph.n}
    doc.update(realizer_to_json(realizer))
    _emit(json.dumps(doc, sort_keys=True) + "\n", cfg.out)
    return 0


def _cmd_catalogue(cfg: ExperimentConfig) -> int:
    manifest = cat.family_manifest(cfg.extras["family"], cfg.n_max,
                                   cfg.extras.get("complemented", False))
    _emit(json.dumps(manifest, sort_keys=True) + "\n", cfg.out)
    g6_out = cfg.extras.get("g6_out")
    if g6_out:
        _emit(manifest["graph6"] + "\n", _resolve_out(g6_out))
    return 0


def _cmd_detect(cfg: ExperimentConfig) -> int:
    g = cfg.extras["graph"]
    hits = cat.detect_unavoidable(g, cfg.n_max)
    doc = {
        "n": cfg.n_max,
        "hits": [{"family": fam, "complemented": comp}
                 for fam, comp in sorted(hits)],
        "families_not_generated": list(cat.MISSING_FAMILIES),
    }
    _emit(json.dumps(doc, sort_keys=True) + "\n", cfg.out)
    return 0


def _cmd_verify(cfg: ExperimentConfig) -> int:
    level = "full" if cfg.extras.get("full") else "quick"
    results = run_battery(level, seed=cfg.seed)
    _emit(battery_report(results), cfg.out)
    return 0 if all(r.passed for r in results) else 1


# -- argument wiring --------------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="wordgraphs",
        description="graphs from 0-1 words: primes, ages, bounds, realizers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_word = sub.add_parser("word", help="print a prefix and word diagnostics")
    _add_word_flags(p_word)
    p_word.add_argument("--length", type=int, default=40)
    p_word.add_argument("--complexity", type=int, metavar="N_MAX")
    p_word.add_argument("--recurrence", type=int, metavar="N_MAX")

    p_graph = sub.add_parser("graph", help="emit the word graph")
    _add_word_flags(p_graph)
    p_graph.add_argument("--length", type=int, default=20)

    p_prime = sub.add_parser("prime", help="primality report for a graph")
    p_prime.add_argument("--g6", help="graph6 string or file", default=None)
    _add_word_flags(p_prime)
    p_prime.add_argument("--length", type=int, default=None)

    p_age = sub.add_parser("age", help="age table of a word graph")
    _add_word_flags(p_age)
    p_age.add_argument("--length", type=int, default=60)
    p_age.add_argument("--k-max", type=int, default=6)

    p_bounds = sub.add_parser("bounds", help="bound certificates of a word age")
    _add_word_flags(p_bounds)
    p_bounds.add_argument("--length", type=int, default=0,
                          help="prefix length (default 10*k_max)")
    p_bounds.add_argument("--k-max", type=int, default=6)
    p_bounds.add_argument("--revalidate-2x", action="store_true",
                          help="re-validate every certificate at twice the scale")
    p_bounds.add_argument("--g6-out", metavar="FILE",
                          help="also write the bound graphs as graph6 lines")

    p_jon = sub.add_parser("jonsson", help="prime-level cofinality report")
    _add_word_flags(p_jon)
    p_jon.add_argument("--length", type=int, default=60)
    p_jon.add_argument("--k-max", type=int, default=8)
    p_jon.add_argument("--n-max", type=int, default=4)
    p_jon.add_argument("--all-members", action="store_true",
                       help="use all members, not only the prime ones")

    p_real = sub.add_parser("realizer", help="build and validate a realizer")
    p_real.add_argument("--word", required=True, metavar="BITS")

    p_cat = sub.add_parser("catalogue", help="emit an unavoidable-family member")
    p_cat.add_argument("--family", required=True, choices=cat.FAMILIES)
    p_cat.add_argument("--n", type=int, required=True)
    p_cat.add_argument("--complement", action="store_true")
    p_cat.add_argument("--g6-out", metavar="FILE")

    p_det = sub.add_parser("detect", help="which families embed in a graph")
    p_det.add_argument("--g6", required=True, help="graph6 string or file")
    p_det.add_argument("--n", type=int, required=True)

    p_ver = sub.add_parser("verify", help="run the invariant/acceptance battery")
    p_ver.add_argument("--full", action="store_true",
                       help="desk-scale experiment sizes (minutes, not seconds)")

    named = {
        "word": p_word, "graph": p_graph, "prime": p_prime, "age": p_age,
        "bounds": p_bounds, "jonsson": p_jon, "realizer": p_real,
        "catalogue": p_cat, "detect": p_det, "verify": p_ver,
    }
    for p in named.values():
        p.add_argument("--config", metavar="FILE",
                       help="JSON file of flag defaults (explicit flags win)")
        p.add_argument("--out", metavar="FILE", help="write the report here")
        p.add_argument("--format", dest="fmt", default=None,
                       choices=("text", "json", "csv", "graph6", "dot"))
        p.add_argument("--seed", type=int, default=0)
    return parser, named


_DEFAULT_FMT = {
    "word": "text", "graph": "graph6", "prime": "json", "age": "csv",
    "bounds": "json", "jonsson": "json", "realizer": "json",
    "catalogue": "json", "detect": "json", "verify": "text",
}


@lru_cache(maxsize=1)
def _shared_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of every call without ``--config``, built once per process."""
    return _build_parser()


def _configure(argv: list[str]) -> ExperimentConfig:
    parser, subparsers = _shared_parser()
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        defaults = json.loads(Path(probe.config).read_text())
        if not isinstance(defaults, dict):
            raise WordError("config file must hold a JSON object of flags")
        known = {a.dest for a in subparsers[probe.command]._actions}
        unknown = sorted(set(defaults) - known)
        if unknown:
            raise WordError(f"unknown config keys for {probe.command!r}: "
                            + ", ".join(unknown))
        # set_defaults changes the parser, so the config gets a fresh one
        parser, subparsers = _build_parser()
        subparsers[probe.command].set_defaults(**defaults)
    args = parser.parse_args(argv)

    cfg = ExperimentConfig(
        command=args.command,
        out=_resolve_out(getattr(args, "out", None)),
        fmt=args.fmt or _DEFAULT_FMT[args.command],
        seed=getattr(args, "seed", 0),
    )
    if args.command in ("word", "graph", "age", "bounds", "jonsson"):
        cfg.word = _word_from_args(args)
        cfg.length = args.length or 0
    if args.command == "word":
        cfg.extras["complexity"] = args.complexity
        cfg.extras["recurrence"] = args.recurrence
    if args.command == "prime":
        if args.g6:
            cfg.extras["graph"] = _load_graph(args.g6)
        else:
            word = _word_from_args(args)
            if args.length is None:
                raise WordError("prime needs --g6 or a word with --length")
            cfg.extras["graph"] = graph_of_word(word, args.length)
    if args.command in ("age", "bounds", "jonsson"):
        cfg.k_max = args.k_max
    if args.command == "jonsson":
        cfg.n_max = args.n_max
        cfg.extras["all_members"] = args.all_members
    if args.command == "bounds":
        cfg.extras["revalidate_2x"] = args.revalidate_2x
        cfg.extras["g6_out"] = args.g6_out
    if args.command == "realizer":
        cfg.extras["bits"] = args.word
    if args.command == "catalogue":
        cfg.n_max = args.n
        cfg.extras["family"] = args.family
        cfg.extras["complemented"] = args.complement
        cfg.extras["g6_out"] = args.g6_out
    if args.command == "detect":
        cfg.n_max = args.n
        cfg.extras["graph"] = _load_graph(args.g6)
    if args.command == "verify":
        cfg.extras["full"] = args.full
    return cfg


_RUNNERS = {
    "word": _cmd_word,
    "graph": _cmd_graph,
    "prime": _cmd_prime,
    "age": _cmd_age,
    "bounds": _cmd_bounds,
    "jonsson": _cmd_jonsson,
    "realizer": _cmd_realizer,
    "catalogue": _cmd_catalogue,
    "detect": _cmd_detect,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = _configure(argv)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _RUNNERS[cfg.command](cfg)
    except RecursionError as exc:  # a RuntimeError, but not a broken invariant
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
