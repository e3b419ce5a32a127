"""Tests of perfbench/run.py: record keying and the benchmark's description."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402


def record(**key_overrides):
    key = {"worker_threads": 4, "hardware_threads": 4,
           "cpu_model": "Example CPU", "compiler": "gcc 12.2.0",
           "build_type": "Release"}
    key.update(key_overrides)
    return {"workload": "sparse_walk", "trace": 0, "seconds": 10,
            "key": key,
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {"step_ms_p50": {"value": 100.0,
                                                   "unit": "ms"}}}}


def compare(old, new):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, rec in (("old.json", old), ("new.json", new)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(rec, f)
            paths.append(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run.main(["compare"] + paths)
        return status, out.getvalue()


class CompareTest(unittest.TestCase):
    def test_same_key_compares(self):
        new = record()
        new["result"]["metrics"]["step_ms_p50"]["value"] = 90.0
        status, out = compare(record(), new)
        self.assertEqual(status, 0)
        self.assertIn("-10.0%", out)

    def test_every_key_field_is_checked(self):
        for field, value in (("worker_threads", 1), ("hardware_threads", 8),
                             ("cpu_model", "Other CPU"),
                             ("compiler", "clang 16"),
                             ("build_type", "RelWithDebInfo")):
            status, out = compare(record(), record(**{field: value}))
            self.assertEqual(status, 1, field)
            self.assertIn("key." + field, out)
            self.assertIn("refusing", out)

    def test_missing_key_refuses(self):
        old = record()
        del old["key"]["cpu_model"]
        status, _ = compare(old, record())
        self.assertEqual(status, 1)

    def test_different_workload_refuses(self):
        new = record()
        new["workload"] = "tumor_growth"
        self.assertEqual(compare(record(), new)[0], 1)


class DescriptionTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)
        self.spec = run.load_spec()

    def test_workloads_agree(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, [w["name"] for w in self.spec["workloads"]])
        self.assertEqual(sorted(names),
                         sorted(self.spec["pinned_final_hash"]["hashes"]))

    def test_metrics_match_the_program(self):
        binary = os.path.join(run.build_dir(), "perfbench")
        if not os.path.exists(binary):
            self.skipTest("perfbench not built")
        listed = subprocess.run([binary, "--list-metrics"], check=True,
                                capture_output=True, text=True).stdout
        program = {"end_to_end": [], "per_layer": []}
        for line in listed.splitlines():
            kind, name, unit = line.split()
            program[kind].append((name, unit))
        for kind in program:
            declared = [(m["name"], m["unit"]) for m in self.bench[kind]]
            self.assertEqual(declared, program[kind], kind)


if __name__ == "__main__":
    unittest.main()
