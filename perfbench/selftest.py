"""Self-test of the benchmark harness at tiny scale.

    python3 perfbench/selftest.py

Checks that the correctness gate reports a corrupted expectation, that the
span tracer returns every wrapped function's result unchanged and restores
the original bindings, that the host-speed sampler leaves results unchanged
and scales times as documented, and that the metric names the harness
computes are exactly the names declared in BENCHMARK.json.
"""

from __future__ import annotations

import json
import signal
import sys
import unittest

import rep  # puts src/ and this directory on sys.path
import run
import spans
import speed
import workloads
from wordgraphs import ages, cli, graphs, primes, wordgraph, words

WORD_ARGV = ["word", "--fib", "--length", "10"]
SMALL_CLASSES = [1, 1, 2, 4, 11]
FIB12_AGE_MEMBERS = 18  # Fibonacci word graph at L=12, sizes 0..4: 1+1+2+4+10


def _enumerate_small(state: dict):
    return [len(level) for level in graphs.enumerate_graphs(4)]


def _tiny_ops(word_digest: str | None, classes=SMALL_CLASSES) -> list[workloads.Op]:
    return [
        workloads.Op(" ".join(WORD_ARGV), workloads.cli_check(word_digest),
                     argv=WORD_ARGV),
        workloads.Op("enumerate_graphs", workloads.equals(classes, "classes"),
                     call=_enumerate_small),
        workloads.Op("age_enumerate", workloads.equals(FIB12_AGE_MEMBERS, "members"),
                     call=lambda s: sum(ages.word_age(words.fibonacci_word(), 12, 4)
                                        .level_counts().values())),
    ]


def _word_digest() -> str:
    return workloads.digest(rep.run_op(_tiny_ops(None)[0], {}).stdout)


class GateTest(unittest.TestCase):
    def test_passes_at_recorded_values(self):
        result = rep.run_ops(_tiny_ops(_word_digest()))
        self.assertEqual([op["error"] for op in result["ops"]], [None] * 3)

    def test_reports_corrupted_expectations(self):
        corrupted = _tiny_ops("0" * 64, classes=[1, 1, 2, 4, 12])
        errors = [op["error"] for op in rep.run_ops(corrupted)["ops"]]
        self.assertIn("digest", errors[0])
        self.assertIn("classes", errors[1])
        self.assertIsNone(errors[2])

    def test_reports_nonzero_exit(self):
        op = workloads.Op("bad flag", workloads.cli_check(_word_digest()),
                          argv=["word", "--no-such-flag"])
        self.assertIn("exit code 2", rep.run_ops([op])["ops"][0]["error"])

    def test_reports_exception(self):
        def boom(state):
            raise ValueError("broken operation")
        op = workloads.Op("boom", workloads.equals(None, "value"), call=boom)
        self.assertIn("broken operation", rep.run_ops([op])["ops"][0]["error"])


class TracerTest(unittest.TestCase):
    def _calls(self):
        fib = words.fibonacci_word()
        g = wordgraph.graph_of_word(fib, 12)
        h = graphs.make("path", 4)
        return [
            graphs.canonical_key(g),
            graphs.embedding(h, g),
            graphs.embedding(graphs.make("clique", 5), g),
            primes.is_prime(g),
            primes.find_nontrivial_module(g),
            graphs.canonical_form(g),
            ages.word_age(fib, 12, 4).level_counts(),
            rep.run_op(_tiny_ops(None)[0], {}).stdout,
        ]

    def test_results_unchanged_and_bindings_restored(self):
        plain = self._calls()
        before = (ages.canonical_key, primes.canonical_key, graphs.Graph.__post_init__,
                  cli.main)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(ages.canonical_key, before[0])
            self.assertIs(ages.canonical_key, primes.canonical_key)
            traced = self._calls()
        finally:
            tracer.uninstall()
        self.assertEqual(traced, plain)
        after = (ages.canonical_key, primes.canonical_key, graphs.Graph.__post_init__,
                 cli.main)
        self.assertEqual([a is b for a, b in zip(after, before)], [True] * 4)
        # the call site inside ages is seen, with its parent span
        self.assertGreater(tracer.calls("graphs.embedding", "ages.age_enumerate"), 0)
        # results of wrapped calls are seen too: the clique search fails
        found = tracer.found["graphs.embedding"]
        self.assertTrue(0 < found < tracer.calls("graphs.embedding"))
        self.assertGreater(tracer.calls("cli.main"), 0)


class SpeedTest(unittest.TestCase):
    def test_scaled_subtracts_handler_time_and_averages_readings(self):
        slice_ = (10.0, 10.1, 0.08, 2.0, 4.0)  # 0.1 s wall, 0.08 s CPU in the handler
        got = speed.scaled(1.0, 0.9, [slice_], [(1.0, 1.0)])
        self.assertAlmostEqual(got["wall_s"], 0.9)
        self.assertAlmostEqual(got["cpu_s"], 0.82)
        self.assertAlmostEqual(got["ref_wall_s"], 0.9 * 1.5)
        self.assertAlmostEqual(got["ref_cpu_s"], 0.82 * 2.5)
        self.assertEqual(got["speed_readings"], 2)

    def test_sampler_leaves_results_unchanged(self):
        n = 3_000_000
        busy = workloads.Op("busy loop", workloads.equals(sum(range(n)), "sum"),
                            call=lambda state: sum(i for i in range(n)))
        ops = _tiny_ops(_word_digest()) + [busy]
        sampler = speed.Sampler()
        sampler.start()
        result = rep.run_ops(ops, sampler=sampler)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertEqual([op["error"] for op in result["ops"]], [None] * 4)
        # the busy loop outlasts several periods: slices ran inside it
        self.assertGreater(result["ops"][-1]["speed_readings"], 2)
        self.assertTrue(sampler.samples)
        for op in result["ops"]:
            self.assertGreater(op["ref_wall_s"], 0.0)


class MetricNamesTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        ops = _tiny_ops(_word_digest())
        plain = dict(rep.run_ops(ops), traced=False, setup_s=0.1)
        tracer = spans.Tracer()
        traced = dict(rep.run_ops(ops, tracer), traced=True, setup_s=0.1)
        traced["layers"] = layers = rep.layer_metrics(tracer, traced)

        names = {m["name"] for m in bench["end_to_end"]}
        self.assertEqual(set(run.metric_values([plain], trace=0)), names)
        names = {m["name"] for m in bench["per_layer"]}
        self.assertEqual(set(run.metric_values([plain, traced], trace=1)), names)

        self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_total + layers["trace.unattributed_s"],
                               layers["trace.run_s"], places=9)
        self.assertEqual(layers["cli.word.s"], traced["ops"][0]["wall_s"])


if __name__ == "__main__":
    sys.exit(unittest.main())
