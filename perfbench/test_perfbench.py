"""Tests for the benchmark's own pieces (not for canopydw).

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import math
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

import gen
from run import ratio
from stats import covered_length, median, percentile, self_time, spread
from workloads import in_child, self_peak_rss_mib

SRC = Path(__file__).resolve().parent.parent / "src"


class GeneratorDeterminism(unittest.TestCase):
    def test_campaign_repeats_per_seed(self):
        a = gen.campaign(5, 4, 3, 7, 2, 10)
        b = gen.campaign(5, 4, 3, 7, 2, 10)
        c = gen.campaign(6, 4, 3, 7, 2, 10)
        self.assertEqual(a, b)
        self.assertNotEqual(a.steps, c.steps)
        self.assertEqual(a.facts, 4 * 3 * 7)
        self.assertEqual(sum(a.species_counts.values()), a.facts)

    def test_campaign_files_are_byte_identical(self):
        camp = gen.campaign(3, 3, 2, 5, 2, 4)
        with tempfile.TemporaryDirectory() as tmp:
            argv_a, bytes_a = gen.write_campaign(camp, Path(tmp) / "a")
            argv_b, bytes_b = gen.write_campaign(gen.campaign(3, 3, 2, 5, 2, 4), Path(tmp) / "b")
            files_a = sorted(p.relative_to(Path(tmp) / "a") for p in (Path(tmp) / "a").rglob("*") if p.is_file())
            files_b = sorted(p.relative_to(Path(tmp) / "b") for p in (Path(tmp) / "b").rglob("*") if p.is_file())
            self.assertEqual(files_a, files_b)
            for rel in files_a:
                self.assertEqual((Path(tmp) / "a" / rel).read_bytes(), (Path(tmp) / "b" / rel).read_bytes())
        self.assertEqual(bytes_a, bytes_b)
        self.assertEqual([a[0] for a in argv_a], [b[0] for b in argv_b])
        self.assertEqual([a[0] for a in argv_a].count("ingest-images"), 3)

    def test_scene_and_posts_repeat_per_seed(self):
        a, b = gen.lattice_scene(9, 700), gen.lattice_scene(9, 700)
        gen.add_survey(a, 9, 100, 2.0)
        gen.add_survey(b, 9, 100, 2.0)
        self.assertEqual(a, b)
        self.assertNotEqual(a.survey, self._survey(10))
        self.assertEqual(gen.post_image_body(4, 17, 10), gen.post_image_body(4, 17, 10))
        self.assertNotEqual(gen.post_image_body(4, 17, 10), gen.post_image_body(4, 18, 10))

    @staticmethod
    def _survey(seed):
        scene = gen.lattice_scene(seed, 700)
        gen.add_survey(scene, seed, 100, 2.0)
        return scene.survey


class Arithmetic(unittest.TestCase):
    def test_percentile_matches_inclusive_quantiles(self):
        values = [7.0, 1.0, 3.0, 9.0, 4.0, 4.5, 12.0]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        self.assertAlmostEqual(percentile(values, 25), q1)
        self.assertAlmostEqual(median(values), q2)
        self.assertAlmostEqual(percentile(values, 75), q3)
        self.assertEqual(percentile(values, 0), 1.0)
        self.assertEqual(percentile(values, 100), 12.0)
        self.assertEqual(percentile([5.0], 95), 5.0)
        self.assertAlmostEqual(percentile([0.0, 10.0], 90), 9.0)

    def test_percentile_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1.0], 101)

    def test_self_time_subtracts_union_of_children(self):
        self.assertEqual(self_time(0, 100, []), 100)
        self.assertEqual(self_time(0, 100, [(10, 20), (30, 50)]), 70)
        # overlapping children (two threads) count once
        self.assertEqual(self_time(0, 100, [(10, 40), (30, 60)]), 50)
        # children are clipped to the parent
        self.assertEqual(self_time(10, 20, [(0, 15), (18, 30)]), 3)
        self.assertEqual(covered_length([(0, 5), (5, 9), (20, 30)], 0, 25), 14)

    def test_spread_is_iqr_over_median(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / q2)

    def test_overhead_ratio_is_nan_when_a_side_is_missing(self):
        self.assertAlmostEqual(ratio(3.0, 2.0), 1.5)
        self.assertTrue(math.isnan(ratio(3.0, 0.0)))
        self.assertTrue(math.isnan(ratio(3.0, math.nan)))
        self.assertTrue(math.isnan(ratio(math.nan, 2.0)))


class EndToEndNames(unittest.TestCase):
    def test_every_workload_reports_the_declared_metrics(self):
        import json

        from run import WORKLOADS, Pass, end_to_end
        from workloads import PhaseResult

        declared = json.loads((SRC.parent / "BENCHMARK.json").read_text())
        names = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in declared["workloads"]))
        for own in WORKLOADS.values():
            res = PhaseResult(samples={"op_ms": [1.0, 2.0, 3.0]}, values={"items_per_s": 5.0, "peak_rss_mib": 30.0})
            got = end_to_end(own, Pass([0.5, 0.4, 0.6], {own: res}, None))
            self.assertEqual({name: unit for name, (_, unit) in got.items()}, names)
            self.assertEqual(got["setup_s"][0], 0.5)
            self.assertEqual(got["op_ms_p50"][0], 2.0)


def _allocate_and_report(mib: int) -> dict:
    block = b"\x01" * (mib << 20)
    return {"len": len(block)}


def _fail() -> None:
    raise ValueError("no such input")


class SetupChild(unittest.TestCase):
    def test_returns_only_the_value_and_leaves_peak_rss_alone(self):
        before = self_peak_rss_mib()
        self.assertEqual(in_child(_allocate_and_report, 48), {"len": 48 << 20})
        self.assertLess(self_peak_rss_mib() - before, 24)

    def test_reraises_the_child_error(self):
        with self.assertRaisesRegex(RuntimeError, "ValueError: no such input"):
            in_child(_fail)


class SurveyPlacement(unittest.TestCase):
    RADIUS = 2.0

    def setUp(self):
        self.scene = gen.lattice_scene(11, 1000, "recon")
        gen.add_survey(self.scene, 11, 300, self.RADIUS)
        self.records = gen.survey_positions(self.scene.survey)

    def within(self, ax, ay, bx, by):
        return math.hypot(ax - bx, ay - by) <= self.RADIUS

    def test_facts_are_more_than_two_radii_apart(self):
        facts = self.scene.fact_geo
        for i, (x, y, _) in enumerate(facts):
            for ox, oy, _ in facts[i + 1 :]:
                self.assertGreater(math.hypot(x - ox, y - oy), 2 * self.RADIUS)

    def test_no_fact_has_two_records_within_radius(self):
        near_records = 0
        for fx, fy, _ in self.scene.fact_geo:
            close = [r for r in self.records if self.within(fx, fy, r[1], r[2])]
            self.assertLessEqual(len(close), 1)
            near_records += len(close)
        self.assertEqual(near_records, self.scene.expected_pairs)

    def test_record_kinds_match_construction(self):
        same = other = far = 0
        for rid, rx, ry, code in self.records:
            close = [f for f in self.scene.fact_geo if self.within(f[0], f[1], rx, ry)]
            if not close:
                far += 1
                self.assertTrue(rid.startswith("f"))
                continue
            self.assertEqual(len(close), 1)
            self.assertLessEqual(math.hypot(close[0][0] - rx, close[0][1] - ry), self.RADIUS / 2)
            if close[0][2] == code:
                same += 1
            else:
                other += 1
        self.assertEqual((same, other, far), (self.scene.near_same, self.scene.near_other, self.scene.far))
        self.assertEqual(self.scene.expected_accuracy, same / (same + other))

    def test_expected_outcome_matches_canopydw_matching(self):
        sys.path.insert(0, str(SRC))
        try:
            from canopydw.model import BoundingBox, FactTreeMetric, SurveyRecord
            from canopydw.reconcile import match_detections
        finally:
            sys.path.remove(str(SRC))
        box = BoundingBox(0.5, 0.5, 0.1, 0.1)
        facts = [
            FactTreeMetric(date_key=20240101, image_key=1, species_key=1, bbox=box, confidence=1.0, geo_x=x, geo_y=y, fact_id=i + 1)
            for i, (x, y, _) in enumerate(self.scene.fact_geo)
        ]
        records = [SurveyRecord(rid, x, y, code, None, None, 20240601) for rid, x, y, code in self.records]
        result = match_detections(facts, records, self.RADIUS)
        self.assertEqual(len(result.pairs), self.scene.expected_pairs)
        species = {i + 1: s for i, (_, _, s) in enumerate(self.scene.fact_geo)}
        record_species = {rid: code for rid, _, _, code in self.records}
        agree = sum(species[p.fact_id] == record_species[p.record_id] for p in result.pairs)
        self.assertEqual(agree, self.scene.near_same)


class TracerInstall(unittest.TestCase):
    def test_uninstall_restores_every_patched_name(self):
        sys.path.insert(0, str(SRC))
        try:
            import importlib

            from tracing import COUNT_TARGETS, SPAN_TARGETS, Tracer

            def lookup(module_name, attr_path):
                owner = importlib.import_module(module_name)
                *outer, attr = attr_path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                return owner.__dict__[attr]

            targets = [(m, a) for m, a, *_ in SPAN_TARGETS + COUNT_TARGETS] + [("canopydw.storage", "os")]
            before = [lookup(m, a) for m, a in targets]
            tracer = Tracer()
            tracer.install()
            during = [lookup(m, a) for m, a in targets]
            tracer.uninstall()
            after = [lookup(m, a) for m, a in targets]
        finally:
            sys.path.remove(str(SRC))
        self.assertTrue(all(b is not d for b, d in zip(before, during)))
        self.assertTrue(all(b is a for b, a in zip(before, after)))


if __name__ == "__main__":
    unittest.main()
