"""Tests of the benchmark's own logic: python3 -m unittest discover e2ebench"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import e2e  # noqa: E402
import run  # noqa: E402

EXPS = ["table1", "fig13", "fig15", "tune", "verify"]


class ScriptTest(unittest.TestCase):
    def test_same_seed_same_script(self):
        a = e2e.make_script(3, EXPS, length=400)
        b = e2e.make_script(3, EXPS, length=400)
        self.assertEqual(a, b)
        self.assertEqual(e2e.script_digest(a), e2e.script_digest(b))

    def test_different_seed_different_script(self):
        a = e2e.make_script(3, EXPS, length=400)
        b = e2e.make_script(4, EXPS, length=400)
        self.assertNotEqual(e2e.script_digest(a), e2e.script_digest(b))

    def test_every_key_missed_exactly_once(self):
        for seed in (1, 2, 3):
            script = e2e.make_script(seed, EXPS, length=400)
            misses = [r for r in script if r["miss"]]
            tune_keys = len(e2e.APPS) * len(e2e.SERVE_TUNE_SHAPES)
            self.assertEqual(len(misses), len(EXPS) + tune_keys)
            first_exps = [r.get("exp") or r["exps"][0] for r in misses if r["endpoint"] in ("run", "sweep")]
            self.assertEqual(sorted(first_exps), sorted(EXPS))

    def test_hits_repeat_only_keys_their_client_touched(self):
        script = e2e.make_script(5, EXPS, length=600)
        touched = [set(), set()]
        for i, r in enumerate(script):
            keys = set()
            if r["endpoint"] == "run":
                keys = {("exp", r["exp"])}
            elif r["endpoint"] == "sweep":
                keys = {("exp", e) for e in r["exps"]}
            elif r["endpoint"] == "tune":
                keys = {("tune", tuple(r["tune"]))}
            mine = touched[i % e2e.CLIENTS]
            if not r["miss"]:
                self.assertTrue(keys <= mine, (i, r["path"]))
            mine |= keys

    def test_hit_mix_follows_its_weights(self):
        with open(os.path.join(run.ROOT, "docs", "repro_output.txt")) as f:
            experiments = list(e2e.doc_blocks(f.read()))
        script = e2e.make_script(2, experiments)
        hits = [r["endpoint"] for r in script if not r["miss"]]
        for ep, weight in e2e.HIT_MIX.items():
            share = hits.count(ep) / len(hits)
            if ep == "query":
                # Queries also stand in for draws a client cannot serve
                # yet, which moves a few percent to them.
                self.assertGreater(share, weight)
            else:
                self.assertAlmostEqual(share, weight, delta=0.03, msg=ep)

    def test_queries_parse_into_plan_lines(self):
        script = e2e.make_script(9, EXPS, length=400)
        bodies = [r["body"] for r in script if r["endpoint"] == "query"]
        self.assertTrue(bodies)
        for body in bodies:
            line = run.query_line(body)
            self.assertEqual(len(line.split()), 6, line)


class PercentileTest(unittest.TestCase):
    def test_percentile_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            e2e.percentile(list(range(100)), 95)  # 5 beyond
        self.assertEqual(e2e.percentile(list(range(100)), 90), 89)  # 10 beyond
        with self.assertRaises(ValueError):
            e2e.percentile([], 50)

    def test_tail_is_eleventh_largest(self):
        p, v = e2e.tail(list(range(1, 43)))
        self.assertEqual(v, 32)
        self.assertAlmostEqual(p, 100 * 32 / 42)
        with self.assertRaises(ValueError):
            e2e.tail(list(range(10)))


class CheckTest(unittest.TestCase):
    EXPECTED = b"== a \xe2\x80\x94 x ==\n1\n\n== b \xe2\x80\x94 y ==\n2\n\n"

    def test_repro_one_byte_change_fails(self):
        self.assertEqual(e2e.check_repro(0, self.EXPECTED, self.EXPECTED), [])
        changed = bytearray(self.EXPECTED)
        changed[-3] ^= 1
        self.assertEqual(len(e2e.check_repro(0, bytes(changed), self.EXPECTED)), 1)
        self.assertEqual(len(e2e.check_repro(1, self.EXPECTED, self.EXPECTED)), 1)

    def test_warm_run_must_not_compile_or_search(self):
        ok = b"# cache: compiles=0 disk_hits=9 x\n# tune: searches=0 rehydrated=2\n"
        self.assertEqual(e2e.check_repro(0, self.EXPECTED, self.EXPECTED, ok, warm=True), [])
        bad = b"# cache: compiles=3 disk_hits=9 x\n# tune: searches=0 rehydrated=2\n"
        self.assertEqual(len(e2e.check_repro(0, self.EXPECTED, self.EXPECTED, bad, warm=True)), 1)

    def test_response_checks(self):
        blocks = e2e.doc_blocks(self.EXPECTED.decode())
        run_req = {"endpoint": "run", "path": "/v1/run/a", "exp": "a"}
        self.assertIsNone(e2e.check_response(run_req, 200, blocks["a"].encode(), blocks, {}))
        self.assertIsNotNone(e2e.check_response(run_req, 500, blocks["a"].encode(), blocks, {}))
        self.assertIsNotNone(e2e.check_response(run_req, None, b"", blocks, {}))
        self.assertIsNotNone(e2e.check_response(run_req, 200, b"== a", blocks, {}))
        tune_req = {"endpoint": "tune", "path": "/v1/tune", "tune": ["CONV", 16, 5]}
        oracle = {("tune", ("CONV", 16, 5)): {"default_cycles": 10, "tuned_cycles": 8}}
        good = json.dumps({"default_cycles": 10, "tuned_cycles": 8}).encode()
        bad = json.dumps({"default_cycles": 10, "tuned_cycles": 9}).encode()
        self.assertIsNone(e2e.check_response(tune_req, 200, good, blocks, oracle))
        self.assertIsNotNone(e2e.check_response(tune_req, 200, bad, blocks, oracle))


    REPORT = {"id": "a", "title": "x", "headers": ["k", "value"],
              "rows": [["n×", "1"], ["long", "12345"]], "notes": ["hi"]}
    BLOCK = "== a — x ==\n   k  value  \n  n×      1  \nlong  12345  \n  note: hi\n\n"

    def test_render_report_matches_display(self):
        self.assertEqual(e2e.render_report(self.REPORT), self.BLOCK)

    def test_sweep_report_content_is_checked(self):
        blocks = {"a": self.BLOCK}
        req = {"endpoint": "sweep", "path": "/v1/sweep?experiments=a", "exps": ["a"]}
        body = lambda r: json.dumps({"reports": [r]}).encode()  # noqa: E731
        self.assertIsNone(e2e.check_response(req, 200, body(self.REPORT), blocks, {}))
        changed = dict(self.REPORT, rows=[["n×", "1"], ["long", "12346"]])
        self.assertIsNotNone(e2e.check_response(req, 200, body(changed), blocks, {}))
        self.assertIsNotNone(e2e.check_response(req, 200, body(dict(self.REPORT, id="b")), blocks, {}))

    def test_hit_time_frac(self):
        script = [{"miss": True}, {"miss": False}, {"miss": False}]
        self.assertAlmostEqual(e2e.hit_time_frac(script, [6.0, 1.0, 1.0]), 0.25)


class SpanTest(unittest.TestCase):
    # run [0, 100): repro.exp [0, 40); cell [50, 90) holding sched [50, 70)
    # and apps [65, 80) (overlapping children); nothing covers 40..50 or
    # 90..100.
    SPANS = [
        ("run", 0, 100, -1),
        ("repro.exp.fig15", 0, 40, 0),
        ("cell", 50, 90, 0),
        ("sched.compile", 50, 70, 2),
        ("apps.program", 65, 80, 2),
    ]

    def test_self_times(self):
        self.assertEqual(e2e.self_times(self.SPANS), [100 - 40 - 40, 40, 40 - 30, 20, 15])

    def test_unattributed(self):
        # Layer self time: 40 + 20 + 15 = 75 of 100.
        self.assertAlmostEqual(e2e.unattributed_frac(self.SPANS), 0.25)

    def test_unattributed_over_two_roots(self):
        two = self.SPANS + [("client", 0, 50, -1), ("serve.run", 10, 30, 5)]
        self.assertAlmostEqual(e2e.unattributed_frac(two), (25 + 30) / 150)

    def test_span_totals(self):
        tot = e2e.span_totals(self.SPANS)
        self.assertEqual(tot["sched.compile"], (1, 20e-9, 20e-9))
        self.assertEqual(tot["cell"], (1, 10e-9, 40e-9))


if __name__ == "__main__":
    unittest.main()
