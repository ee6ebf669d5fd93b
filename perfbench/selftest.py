"""Self-test of the benchmark's reference checks and metric tables.

    python3 perfbench/selftest.py

Each reference check is compared with exhaustive enumeration on tiny
inputs, the pace scaling with made-up probe times, and the metric tables
with BENCHMARK.json.  Needs no certlab.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def random_formula(rng: random.Random, num_vars: int) -> list[tuple[int, ...]]:
    """Clauses of width 1 to 3; repeated and opposite literals allowed."""
    return [
        tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3 * num_vars))
    ]


def true_under(value: int, num_vars: int, lit: int) -> bool:
    # variable j is bit num_vars - j of the assignment's integer value
    return ((value >> (num_vars - abs(lit))) & 1) == (lit > 0)


def formulas():
    rng = random.Random("selftest")
    for num_vars in range(1, 7):
        for _ in range(150):
            yield num_vars, random_formula(rng, num_vars)


class ReferenceChecks(unittest.TestCase):
    def test_satisfies_matches_truth_table(self):
        for num_vars, clauses in formulas():
            for value in range(1 << num_vars):
                expected = all(any(true_under(value, num_vars, l) for l in c) for c in clauses)
                got = reference.satisfies(clauses, format(value, f"0{num_vars}b"))
                self.assertEqual(got, expected, (num_vars, clauses, value))

    def test_lex_first_solution_is_first_in_enumeration(self):
        for num_vars, clauses in formulas():
            expected = next(
                (
                    format(value, f"0{num_vars}b")
                    for value in range(1 << num_vars)
                    if all(any(true_under(value, num_vars, l) for l in c) for c in clauses)
                ),
                None,
            )
            self.assertEqual(reference.lex_first_solution(num_vars, clauses), expected, clauses)

    def test_lex_first_solution_edge_cases(self):
        self.assertEqual(reference.lex_first_solution(0, []), "")
        self.assertEqual(reference.lex_first_solution(3, []), "000")
        self.assertIsNone(reference.lex_first_solution(2, [()]))
        self.assertIsNone(reference.lex_first_solution(1, [(1,), (-1,)]))

    def test_min_distance_matches_all_pairs(self):
        rng = random.Random("selftest-codes")
        for k in range(1, 6):
            for n in range(k, 13):
                rows = [rng.getrandbits(n) for _ in range(k)]
                if rng.random() < 0.2:
                    rows[-1] = rows[0]  # dependent rows: distance 0
                words = [reference.codeword(rows, "".join(bits)) for bits in itertools.product("01", repeat=k)]
                expected = min(bin(a ^ b).count("1") for a, b in itertools.combinations(words, 2))
                self.assertEqual(reference.min_distance(rows), expected, rows)

    def test_codeword_selects_rows_most_significant_first(self):
        rows = [0b0011, 0b0101, 0b1001]
        self.assertEqual(reference.codeword(rows, "100"), rows[0])
        self.assertEqual(reference.codeword(rows, "011"), rows[1] ^ rows[2])
        self.assertEqual(reference.codeword(rows, "000"), 0)


class PaceScaling(unittest.TestCase):
    def pace(self, samples):
        p = pace.Pace("interp")
        p.at = [t for t, _ in samples]
        p.probe_s = [s for _, s in samples]
        return p

    def test_short_span_uses_the_probes_close_to_it(self):
        ref = pace.PROBES["interp"][1]
        p = self.pace([(0.0, ref), (1.0, 2 * ref), (1.015, 2 * ref), (2.0, ref)])
        self.assertEqual(p.factor(1.005, 1.010), 0.5)
        self.assertEqual(p.factor(0.001, 0.002), 1.0)

    def test_long_span_uses_probes_within_half_its_length(self):
        ref = pace.PROBES["interp"][1]
        p = self.pace([(0.0, ref), (0.5, 2 * ref), (1.0, 4 * ref), (3.0, ref)])
        # span [0.6, 1.0]: window 0.2 s holds the probes at 0.5 and 1.0
        self.assertAlmostEqual(p.factor(0.6, 1.0), 1 / 3)

    def test_span_with_no_probe_near_uses_its_neighbours(self):
        ref = pace.PROBES["interp"][1]
        p = self.pace([(0.0, 2 * ref), (10.0, 4 * ref)])
        self.assertAlmostEqual(p.factor(5.0, 5.001), 1 / 3)

    def test_probes_run_and_take_time(self):
        for kind in pace.PROBES:
            self.assertGreater(pace.probe(kind), 0)


class MetricTables(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(set(pace.WORKLOAD_KINDS), set(run.WORKLOADS))
        self.assertTrue(all(k in pace.PROBES for kinds in pace.WORKLOAD_KINDS.values() for k in kinds))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], spans.LAYER_METRICS)

    def test_tail_percentile_leaves_ten_tasks_beyond(self):
        self.assertEqual(run.tail_percentile(40), 75)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(130), 92)
        self.assertEqual(run.tail_percentile(3000), 99)
        self.assertEqual(run.tail_percentile(12), 50)


if __name__ == "__main__":
    unittest.main()
