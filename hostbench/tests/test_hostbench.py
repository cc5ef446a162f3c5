#!/usr/bin/env python3
"""Self-test of the host-time benchmark at tiny sizes.

  python3 hostbench/tests/test_hostbench.py

Covers every workload path traced and untraced, a planted golden mismatch
on every workload (it must be counted as a failure and exit nonzero), the
direct engine path against exec::run_sim_job, the goldens against the
repository's own figures, the comparison report (and its refusal of
non-comparable runs), and the refusal to run without the simulator sources. Scratch files go under .bench_build/.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "hostbench/run.py"] + list(args),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return done.returncode, done.stdout


def result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def digest_fields(text):
    return dict(field.split("=", 1) for field in text.split(";"))


class HostbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        os.makedirs(SCRATCH, exist_ok=True)
        with open(run.SPEC) as spec:
            cls.spec = json.load(spec)
        cls.goldens = {}
        for workload in run.WORKLOADS:
            path = os.path.join(run.GOLDENS, workload + ".json")
            with open(path) as goldens:
                cls.goldens[workload] = json.load(goldens)

    def test_every_workload_reports_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, out = bench("--workload", workload, "--tiny",
                                      "--seconds", "0.5", "--trace",
                                      str(trace))
                    self.assertEqual(code, 0, out)
                    result = result_line(out)
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"]
                                for m in self.spec[section]}
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        expected)
                    if trace == 1:
                        # The layer spans' self times (the benchmark's own
                        # roots excluded) account for the traced wall time.
                        accounted = result["metrics"]["trace.accounted_frac"]
                        self.assertGreaterEqual(accounted["value"], 0.9)
                        self.assertLessEqual(accounted["value"], 1.0)

    def test_planted_mismatch_fails_the_run(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                code, out = bench("--workload", workload, "--tiny",
                                  "--seconds", "0.2", "--plant-mismatch")
                self.assertEqual(code, 1, out)
                result = result_line(out)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                ratio = [line for line in out.splitlines()
                         if line.startswith("fail_ratio ")]
                self.assertEqual(len(ratio), 1)
                self.assertGreater(float(ratio[0].split()[1]), 0.0)

    def test_direct_path_matches_run_sim_job(self):
        done = subprocess.run([run.BINARY, "crosscheck", "--tiny"],
                              capture_output=True, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stdout)

    def test_tiny_goldens_are_current(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                goldens = self.goldens[workload]
                done = subprocess.run(
                    [run.BINARY, "goldens", "--workload", workload, "--tiny",
                     "--seed", str(goldens["seed"])],
                    capture_output=True, text=True, check=True, timeout=300)
                self.assertEqual(json.loads(done.stdout), goldens["tiny"])

    def test_p2p_goldens_match_bench_scale(self):
        with open(os.path.join(ROOT, "BENCH_scale.json")) as scale:
            rows = [r for r in json.load(scale)["points"]
                    if r["ranks"] == 16384]
        self.assertEqual(len(rows), 2)
        for row in rows:
            ours = digest_fields(
                self.goldens["p2p_scale"]["full"]["p2p." + row["algorithm"]])
            theirs = digest_fields(row["digest"])
            self.assertEqual(
                {k: ours[k] for k in ("vt", "events", "msgs", "bytes")},
                theirs)

    def test_figs_goldens_match_fig8_output(self):
        # fig8_bgp_16384 from a build of the repository (the tier-1 build
        # directory by default).
        fig8 = os.environ.get("HOSTBENCH_FIG8", os.path.join(
            ROOT, "build", "bench", "fig8_bgp_16384"))
        if not os.path.isfile(fig8):
            self.skipTest("no fig8_bgp_16384 binary at %s" % fig8)
        csv_path = os.path.join(SCRATCH, "fig8_p4096.csv")
        subprocess.run([fig8, "--p", "4096", "--jobs", "2", "--csv",
                        csv_path], capture_output=True, check=True,
                       timeout=300)
        with open(csv_path) as csv:
            lines = [line.strip().split(",") for line in csv][1:]
        rows = {line[0]: line for line in lines}
        golden = self.goldens["figs_closed"]["full"]
        for label, groups in (("fig8.p4096.summa", "1"),
                              ("fig8.p4096.g64", "64")):
            fields = digest_fields(golden[label])
            comm = float.fromhex(fields["comm"])
            total = float.fromhex(fields["vt"])
            self.assertEqual("%.9g" % comm, rows[groups][1])
            self.assertEqual("%.9g" % total, rows[groups][2])
        # G=64 is the sweep's best G, as the workload assumes.
        best = min(lines, key=lambda line: float(line[1]))
        self.assertEqual(best[0], "64")

    def test_compare_verdicts(self):
        def write(name, values, comparable=True):
            path = os.path.join(SCRATCH, name)
            manifest = {"workload": "figs_closed", "comparable": comparable,
                        "build_type": "Release", "tiny": False,
                        "cpu_model": "x", "nproc": 4}
            with open(path, "w") as out:
                for seconds in values:
                    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                               for m in self.spec["end_to_end"]}
                    metrics["norm_cpu_s"]["value"] = seconds
                    raw = {"wall_s": 1.0, "cpu_s": 1.0}
                    out.write(json.dumps({"trace": 0, "manifest": manifest,
                                          "metrics": metrics,
                                          "raw": raw}) + "\n")
            return path

        base = write("base.jsonl", [10.0, 10.1, 9.9, 10.0, 10.05] * 2)
        cases = {
            "improved": [8.0, 8.1, 7.9, 8.0, 8.05] * 2,
            "worse": [13.0, 13.1, 12.9, 13.0, 13.05] * 2,
            "within bound": [10.1, 10.0, 10.2, 9.9, 10.1] * 2,
        }
        for expected, values in cases.items():
            change = write("change.jsonl", values)
            done = subprocess.run(
                [sys.executable, os.path.join(BENCH, "compare.py"), base,
                 change], capture_output=True, text=True, timeout=60)
            line = [l for l in done.stdout.splitlines()
                    if " norm_cpu_s " in l]
            self.assertTrue(line[0].endswith(expected), done.stdout)
            self.assertEqual(done.returncode, 1 if expected == "worse" else 0)
        noisy = write("noisy.jsonl", [5.0, 15.0, 10.0, 7.0, 13.0] * 2)
        change = write("change.jsonl", cases["within bound"])
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "compare.py"), noisy,
             change], capture_output=True, text=True, timeout=60)
        self.assertIn("unresolved", done.stdout)
        # A non-Release or --tiny run is never compared.
        tiny = write("tiny.jsonl", cases["within bound"], comparable=False)
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "compare.py"), base, tiny],
            capture_output=True, text=True, timeout=60)
        self.assertEqual(done.returncode, 2)
        self.assertIn("refusing to compare", done.stdout)
        self.assertNotIn("verdict", done.stdout)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, os.path.join(bare, "hostbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.SPEC, bare)
        code, out = bench("--workload", "figs_closed", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
