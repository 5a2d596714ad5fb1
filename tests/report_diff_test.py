#!/usr/bin/env python3
"""Self-test of scripts/report_diff.py on the tiny reports in
tests/data/report_diff (stdlib unittest; run directly or through ctest).
"""

import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "report_diff")
BASE = os.path.join(DATA, "base.json")
CHANGED = os.path.join(DATA, "changed.json")

spec = importlib.util.spec_from_file_location(
    "report_diff", os.path.join(HERE, "..", "scripts", "report_diff.py"))
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)


def run(*argv):
    """(exit code, printed lines) of one report_diff call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = report_diff.main(list(argv))
    return code, out.getvalue().splitlines()


class ReportDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, text):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as stream:
            stream.write(text)
        return path

    def base_doc(self):
        with open(BASE) as stream:
            return json.load(stream)

    def test_identical_files_print_nothing(self):
        self.assertEqual(run(BASE, BASE), (0, []))

    def test_prints_every_differing_path(self):
        code, lines = run(BASE, CHANGED)
        self.assertEqual(code, 1)
        self.assertEqual(lines, [
            "events: 120 -> 40",
            "metrics[des.events_dispatched].value: 120 -> 40",
            "metrics[des.pending_high_water].value: 2 -> 0",
        ])

    def test_allowed_differences_exit_zero(self):
        code, lines = run(BASE, CHANGED, "--allow", "events",
                          "--allow", "metrics[des.*].value")
        self.assertEqual(code, 0)
        self.assertTrue(all(line.endswith("(allowed)") for line in lines))
        self.assertEqual(len(lines), 3)

    def test_one_unallowed_difference_exits_one(self):
        code, lines = run(BASE, CHANGED, "--allow", "events",
                          "--allow", "metrics[des.events_dispatched].value")
        self.assertEqual(code, 1)
        self.assertEqual(lines[-1],
                         "metrics[des.pending_high_water].value: 2 -> 0")

    def test_named_elements_match_by_name_and_labels(self):
        doc = self.base_doc()
        doc["metrics"].insert(0, {"name": "emu.bursts", "kind": "counter",
                                  "labels": {"station": "1"}, "value": 3})
        doc["metrics"][2]["value"] = 47  # medium.tx, station 1.
        code, lines = run(BASE, self.write("b.json", json.dumps(doc)))
        self.assertEqual(code, 1)
        self.assertEqual(lines, [
            "metrics[medium.tx{outcome=success,station=1}].value: 46 -> 47",
            "metrics[emu.bursts{station=1}]: only in B",
        ])

    def test_member_order_is_a_format_difference(self):
        doc = self.base_doc()
        reordered = {"name": doc.pop("name"), **doc}
        code, lines = run(BASE, self.write("b.json",
                                           json.dumps(reordered)))
        self.assertEqual(code, 1)
        self.assertEqual(lines, ["(format): same content, different bytes"])

    def test_number_spelling_and_missing_members_count(self):
        doc = self.base_doc()
        doc["scalars"]["CA1.n2.testbed_acknowledged"] = 396.0
        del doc["cache"]
        code, lines = run(BASE, self.write("b.json", json.dumps(doc)))
        self.assertEqual(code, 1)
        self.assertEqual(lines, [
            "scalars.CA1.n2.testbed_acknowledged: 396 -> 396.0",
            "cache: only in A",
        ])

    def test_json_lines_compare_line_by_line(self):
        a = self.write("a.jsonl", '{"station": 0, "bc": 3}\n'
                                  '{"station": 1, "bc": 5}\n')
        b = self.write("b.jsonl", '{"station": 0, "bc": 3}\n'
                                  '{"station": 1, "bc": 4}\n')
        self.assertEqual(run(a, b), (1, ["[1].bc: 5 -> 4"]))

    def test_unreadable_input_exits_two(self):
        missing = os.path.join(self.tmp.name, "missing.json")
        self.assertEqual(run(BASE, missing)[0], 2)
        self.assertEqual(run(BASE, self.write("bad.json", "{nope"))[0], 2)


if __name__ == "__main__":
    unittest.main()
