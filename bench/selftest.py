"""Self-tests of the benchmark: the correctness gate, the self-time
arithmetic, the exactness of the work counters, and BENCHMARK.json.

Run from the repository root (takes a few seconds):

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import unittest

import spans
import workloads
from gate import Gate, digest_key, sha256, verdict_errors
from run import END_TO_END_UNITS, ROOT, load_program, run_command, scratch_dir
from speed import REFERENCE_S, SpeedProbe

CLI = load_program(ROOT)


def output(argv) -> tuple[int, str]:
    with scratch_dir(ROOT) as tmp:
        rc, text, _, _ = run_command(CLI, argv, tmp / "out")
    return rc, text


def traced_counters(commands) -> dict:
    tracer = spans.Tracer()
    with spans.installed(tracer):
        for argv in commands:
            assert output(argv)[0] == 0
    metrics = spans.layer_metrics(tracer.spans)
    return {name: value for name, value in metrics.items() if spans.is_counter(name)}


TRANSPORT = ("verify", "--id", "transport:h-oe", "--max-n", "35",
             "--format", "records", "--no-elapsed")
COEFF_BFILE = ("coeff", "--id", "a027349", "--max-n", "800", "--format", "csv")


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.gate = Gate(ROOT)
        cls.transport = output(TRANSPORT)
        cls.coeff = output(COEFF_BFILE)

    def test_real_outputs_pass(self):
        self.assertIsNone(self.gate.check(TRANSPORT, *self.transport))
        self.assertIsNone(self.gate.check(COEFF_BFILE, *self.coeff))

    def test_every_workload_command_has_a_digest(self):
        for workload in workloads.WORKLOADS:
            for argv in workloads.commands(workload, 0):
                self.assertIn(digest_key(argv), self.gate.digests)

    def test_parallel_run_shares_the_sequential_digest(self):
        seq, par = (workloads.commands(w, 0)[0]
                    for w in ("verify-all-40", "verify-all-40-jobs2"))
        self.assertEqual(digest_key(seq), digest_key(par))

    def test_tampered_verdict_fails_even_with_a_matching_digest(self):
        rc, text = self.transport
        tampered = text.replace('"status":"PASS"', '"status":"FAIL"')
        gate = Gate(ROOT, digests={digest_key(TRANSPORT): sha256(tampered)})
        self.assertIn("expected PASS", gate.check(TRANSPORT, rc, tampered))

    def test_flagged_claims_must_flag_at_the_known_weight(self):
        def record(status, n):
            return json.dumps({"id": "slater121", "status": status,
                               "first_mismatch": None if n is None else {"n": n}})

        self.assertEqual(verdict_errors(record("FLAGGED", 5)), [])
        self.assertTrue(verdict_errors(record("FLAGGED", 6)))
        self.assertTrue(verdict_errors(record("PASS", None)))
        self.assertTrue(verdict_errors(""))

    def test_tampered_digest_fails(self):
        rc, text = self.transport
        tampered = text.replace('"values":[1,', '"values":[2,', 1)
        self.assertNotEqual(tampered, text)
        self.assertIn("digest", self.gate.check(TRANSPORT, rc, tampered))

    def test_unexpected_exit_code_fails(self):
        self.assertIn("exit code", self.gate.check(TRANSPORT, 1, self.transport[1]))

    def test_disagreeing_series_columns_fail(self):
        text = "n,sum,product\n0,1,1\n1,1,2\n"
        argv = ("coeff", "--id", "euler", "--max-n", "1", "--format", "csv")
        self.assertIn("disagree at n=1", self.gate.check(argv, 0, text))

    def test_bfile_mismatch_fails(self):
        rc, text = self.coeff
        lines = text.splitlines()
        n, *cols = lines[4].split(",")
        lines[4] = ",".join([n] + [str(int(c) + 1) for c in cols])
        self.assertIn("b-file at n=3", self.gate.check(COEFF_BFILE, rc, "\n".join(lines)))

    def test_malformed_output_fails(self):
        self.assertIn("malformed", self.gate.check(TRANSPORT, 0, "not json\n"))


class ArithmeticTest(unittest.TestCase):
    # cli.run covers [0, 10]; its two verify spans overlap, as the spans of
    # two pool workers do; render lies apart, and the first verify has a child.
    SPANS = [
        ["cli.run", 0.0, 10.0, None, None, 0],
        ["harness.verify", 1.0, 4.0, 0, None, 0],
        ["harness.verify", 3.0, 6.0, 0, None, 0],
        ["harness.render", 8.0, 9.0, 0, None, 0],
        ["enumerators.count_class", 2.0, 3.5, 1, "pairs", 7],
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        self.assertEqual(spans.self_times(self.SPANS), [4.0, 1.5, 3.0, 1.0, 1.5])

    def test_layer_metrics_of_synthetic_spans(self):
        m = spans.layer_metrics([list(s) for s in self.SPANS])
        self.assertEqual(m["harness.verify.calls"], 2)
        self.assertEqual(m["harness.verify.self_s"], 4.5)
        self.assertEqual(m["cli.self_s"], 4.0)
        self.assertEqual(m["harness.render.s"], 1.0)
        self.assertEqual(m["harness.critical_id_s"], 3.0)
        self.assertEqual(m["enumerators.count_class.objects"], 7)
        self.assertEqual(m["enumerators.count_class.pairs.self_s"], 1.5)
        self.assertEqual(m["harness.side_kind.pair-count.s"], 1.5)
        self.assertEqual(m["harness.side_kind.enum-count.s"], 0)

    def test_worker_spans_are_adopted_under_the_open_span(self):
        tracer = spans.Tracer()
        tracer.open("cli.run")
        tracer.adopt([["harness.verify", 1.0, 2.0, None, None, 0],
                      ["enumerators.count_class", 1.2, 1.5, 0, "partition", 3]])
        self.assertEqual([s[spans.PARENT] for s in tracer.spans], [None, 0, 1])

    def test_probe_scale_is_reference_over_mean_kernel_time(self):
        probe = SpeedProbe()
        probe.samples = [0.25, 0.75]
        self.assertEqual(probe.scale(), REFERENCE_S / 0.5)


class CounterTest(unittest.TestCase):
    COMMANDS = [
        ("verify", "--id", "transport:h-oe", "--max-n", "20", "--format", "records"),
        ("verify", "--id", "stembridge:gg1", "--max-n", "20", "--format", "records"),
        ("coeff", "--id", "dk:k=2", "--max-n", "150", "--format", "csv"),
    ]

    def test_counters_repeat_exactly(self):
        first = traced_counters(self.COMMANDS)
        self.assertEqual(first, traced_counters(self.COMMANDS))
        for name in ("enumerators.count_class.objects", "bijections.forward.calls",
                     "series.mul.coeff_pairs", "series.sum_terms.terms"):
            self.assertGreater(first[name], 0, name)

    def test_tracing_restores_the_program(self):
        from qoverpart import cli, enumerators, harness
        from qoverpart.series import LaurentSeries

        before = (harness.count_class, cli.run, LaurentSeries.__mul__)
        with spans.installed(spans.Tracer()):
            self.assertIsNot(harness.count_class, enumerators.count_class)
        self.assertEqual(before, (harness.count_class, cli.run, LaurentSeries.__mul__))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric_and_workload(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, [w for w in workloads.WORKLOADS if w in names])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         spans.metric_units())


if __name__ == "__main__":
    unittest.main()
