"""Self-tests of the benchmark harness.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

They check that the span wrapper restores every binding it replaced, that
self time is right on a synthetic nested call, that a failing invocation and
an output outside its reference tolerance are counted as failures, that the
oracles reject wrong outputs, that every seed compares the invocations it
leaves unchanged with the reference, that the metric names match
BENCHMARK.json, and that the benchmark refuses to run without the program's
sources.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
import unittest  # noqa: E402
from unittest import mock  # noqa: E402

import run  # noqa: E402  (sets the BLAS thread environment before numpy loads)
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)
from cqedlat import cli  # noqa: E402


def _bindings(package: str) -> dict:
    """Identity snapshot of every module attribute, class method and command entry."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == package or name.startswith(package + ".")):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = cvalue
    for key, value in cli.COMMANDS.items():
        snap[("COMMANDS", key)] = value
    return snap


class SpanWrapperTest(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        from cqedlat import circuits, lattice, lindblad, meanfield

        before = _bindings("cqedlat")
        rec = spans.SpanRecorder()
        run.install_layer_spans(rec, cli)
        self.assertIsNot(lindblad.build_jchm, before[("cqedlat.lindblad", "build_jchm")])
        self.assertIsNot(lattice.build_jchm, before[("cqedlat.lattice", "build_jchm")])
        self.assertIsNot(cli.steady_state, before[("cqedlat.cli", "steady_state")])
        self.assertIsNot(meanfield.RK45, before[("cqedlat.meanfield", "RK45")])
        self.assertIsNot(circuits.QuantizedCircuit.eigenvalues,
                         before[("cqedlat.circuits", "QuantizedCircuit", "eigenvalues")])
        self.assertIsNot(cli.COMMANDS["quantize"], before[("COMMANDS", "quantize")])
        rec.uninstall()
        after = _bindings("cqedlat")
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_self_time_on_synthetic_nested_call(self):
        now = [0.0]
        pkg = types.ModuleType("fakepkg")
        inner_mod = types.ModuleType("fakepkg.inner")
        outer_mod = types.ModuleType("fakepkg.outer")

        def leaf():
            now[0] += 4.0
            return "leaf"

        inner_mod.leaf = leaf
        outer_mod.leaf = leaf          # a second binding, as from ``from .inner import leaf``

        def outer():
            now[0] += 1.0
            outer_mod.leaf()
            now[0] += 2.0
            outer_mod.leaf()
            return "outer"

        outer_mod.outer = outer
        modules = {"fakepkg": pkg, "fakepkg.inner": inner_mod, "fakepkg.outer": outer_mod}
        with mock.patch.dict(sys.modules, modules):
            rec = spans.SpanRecorder(clock=lambda: now[0])
            rec.install("fakepkg", [spans.Target("inner", "leaf", "leaf"),
                                    spans.Target("outer", "outer", "outer")])
            self.assertEqual(outer_mod.outer(), "outer")
            inner_mod.leaf()
            rec.uninstall()
        self.assertIs(outer_mod.leaf, leaf)
        self.assertIs(inner_mod.leaf, leaf)
        self.assertEqual(rec.stats["outer"].calls, 1)
        self.assertEqual(rec.stats["outer"].total_s, 11.0)
        self.assertEqual(rec.stats["outer"].self_s, 3.0)
        self.assertEqual(rec.stats["leaf"].calls, 3)
        self.assertEqual(rec.stats["leaf"].self_s, 12.0)

    def test_exception_inside_span_keeps_the_stack_balanced(self):
        rec = spans.SpanRecorder()

        def boom():
            raise RuntimeError("boom")

        with self.assertRaises(RuntimeError):
            rec.wrap("boom", boom)()
        self.assertEqual(rec.stats["boom"].calls, 1)
        self.assertEqual(rec._stack, [])


class FailureCountingTest(unittest.TestCase):
    def setUp(self):
        self.outdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)

    def tearDown(self):
        shutil.rmtree(self.outdir, ignore_errors=True)

    def study(self, invocations, reference=frozenset()):
        paths = run.write_configs(invocations, self.outdir)
        return run.run_study(cli, "selftest", invocations, paths, self.outdir, reference)

    def test_exit_code_1_config_is_counted(self):
        good = workloads.Invocation("jc", "jc-spectrum", dict(omega_r=5.0, omega_q=5.0, g=0.1, n_max=4))
        no_loss = dict(workloads.BLOCKADE, gamma1=0.0, kappa=0.0, omega_d_points=3)
        bad = workloads.Invocation("scan", "blockade-scan", no_loss)
        unknown_key = workloads.Invocation("modes", "modes", dict(workloads.MODES, colour="red"))
        study = self.study([good, bad, unknown_key])
        self.assertEqual((study.attempted, study.failed), (3, 2))
        self.assertTrue(any("scan: exit 1" in e for e in study.errors))
        self.assertTrue(any("modes: exit 1" in e for e in study.errors))
        self.assertAlmostEqual(run.error_rate([study]), 2 / 3)

    def test_output_beyond_reference_tolerance_is_counted(self):
        inv = workloads.Invocation("jc", "jc-spectrum", dict(omega_r=5.0, omega_q=5.0, g=0.1, n_max=4))
        self.assertEqual(self.study([inv]).failed, 0)
        ref_dir = os.path.join(self.outdir, "reference")
        os.makedirs(os.path.join(ref_dir, "selftest"))
        header, rows = workloads.read_csv(os.path.join(self.outdir, "jc.csv"))
        for factor, expect_failed in ((1.0 + 1e-9, 0), (1.0 + 1e-4, 1)):
            perturbed = [dict(r) for r in rows]
            perturbed[3]["energy"] = repr(float(rows[3]["energy"]) * factor)
            with open(os.path.join(ref_dir, "selftest", "jc.csv"), "w", newline="") as fh:
                fh.write(",".join(header) + "\n")
                for r in perturbed:
                    fh.write(",".join(r[h] for h in header) + "\n")
            with mock.patch.object(workloads, "REFERENCE_DIR", ref_dir):
                study = self.study([inv], reference={"jc"})
            self.assertEqual(study.failed, expect_failed, study.errors)

    def test_layer_counts_include_the_first_study(self):
        first = run.Study(wall_s=1.0, attempted=2, failed=1, errors=["x: exit 1"])
        clean = [run.Study(wall_s=1.0, attempted=2) for _ in range(2)]
        m = run.layer_metrics(clean[1:], clean[:1], first)
        self.assertEqual(m["checks_failed"], 1)
        self.assertAlmostEqual(m["error_rate"], 1 / 6)

    def test_oracle_rejects_a_wrong_fixed_point(self):
        cfg = dict(workloads.DRIVEN)
        _, rows = workloads.read_csv(os.path.join(workloads.REFERENCE_DIR, "driven_mf", "driven.csv"))
        psi = complex(float(rows[0]["re_psi"]), float(rows[0]["im_psi"]))
        zj = float(rows[0]["zJ"])
        self.assertLess(workloads.driven_self_consistency(cfg, zj, psi),
                        workloads.SELF_CONSISTENCY_ATOL)
        self.assertGreater(workloads.driven_self_consistency(cfg, zj, psi * 1.01),
                           workloads.SELF_CONSISTENCY_ATOL)


class OracleTest(unittest.TestCase):
    def setUp(self):
        path = os.path.join(workloads.REFERENCE_DIR, "blockade_scan", "scan.csv")
        self.header, self.rows = workloads.read_csv(path)
        self.cfg = workloads.blockade_scan(workloads.DEFAULT_SEED)[0].config
        weak = [i for i, r in enumerate(self.rows) if float(r["xi"]) == 0.005]
        self.peak = max((i for i in weak if float(self.rows[i]["omega_d"]) < 50.0),
                        key=lambda i: float(self.rows[i]["abs_a"]))

    def with_peak_g2(self, factor):
        rows = [dict(r) for r in self.rows]
        rows[self.peak]["g2"] = repr(float(rows[self.peak]["g2"]) * factor)
        return rows

    def test_reference_blockade_scan_passes_its_oracle(self):
        self.assertLess(float(self.rows[self.peak]["g2"]), 0.1)
        self.assertEqual(workloads._check_blockade(self.cfg, self.rows, {"convergence": {"cutoff_check": {}}}), [])

    def test_bunched_peak_is_rejected(self):
        errors = workloads._check_blockade(self.cfg, self.with_peak_g2(200.0), {"convergence": {"cutoff_check": {}}})
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("antibunching", errors[0])

    def test_reference_tolerance_is_per_cell(self):
        # g2 spans 6e-3 .. 1.8e8 in this table; a 1% error at the antibunched peak must show
        ok = workloads.compare_reference("scan", self.header, self.with_peak_g2(1 + 1e-8), self.header, self.rows)
        bad = workloads.compare_reference("scan", self.header, self.with_peak_g2(1.01), self.header, self.rows)
        self.assertEqual(ok, [])
        self.assertEqual(len(bad), 1, bad)

    def test_every_seed_compares_the_invocations_it_leaves_unchanged(self):
        for seed in (workloads.DEFAULT_SEED, 1, 7):
            for name, make in workloads.WORKLOADS.items():
                invocations = make(seed)
                expected = {i.name for i in invocations} if seed == workloads.DEFAULT_SEED else \
                    {"closed_spectra": {"quantize", "sector", "jc", "modes"}}.get(name, set())
                self.assertEqual(workloads.reference_names(name, invocations), expected, (name, seed))


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.per_layer_metrics())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         {"wall_s", "setup_s", "peak_rss_mb"})

    def test_seeds_keep_perturbations_inside_stated_ranges(self):
        step = 2.2 / 50
        for seed in range(1, 30):
            scan = workloads.blockade_scan(seed)[0].config
            self.assertLessEqual(abs(scan["omega_d_min"] - 48.9), step / 2)
            dimer = workloads.dimer_g2(seed)[0].config
            self.assertLessEqual(abs(dimer["j_values"][0] - 0.5), 0.05)
            low, high = workloads.driven_mf(seed)[0].config["seeds"]
            self.assertTrue(0.0 <= low <= 0.01 and 1.45 <= high <= 1.55)
            self.assertEqual(workloads.driven_mf(seed), workloads.driven_mf(seed))
        self.assertEqual(workloads.blockade_scan(workloads.DEFAULT_SEED)[0].config, workloads.BLOCKADE)

    def test_refuses_to_run_without_sources(self):
        bare = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "perfbench"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "blockade_scan",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
