"""The check suite's shared finding format, the project linter, and
the ``python -m repro check`` CLI."""

import json

import pytest

from repro.check import CheckFinding, CheckReport, lint_paths, lint_source
from repro.check.cli import REPO_ROOT, run_check
from repro.check.findings import is_suppressed, parse_suppressions

REPRO_SRC = str(REPO_ROOT / "src" / "repro")


def rules(findings):
    return sorted(f.rule for f in findings)


def lint_layers(src, path):
    """``lint_source``, the snippet's never-read imports aside: a layer
    snippet only imports (``TestUnusedImportRule`` covers that rule)."""
    findings, suppressed = lint_source(src, path)
    return [f for f in findings if f.rule != "unused-import"], suppressed


class TestFindings:
    def test_format_and_dict(self):
        f = CheckFinding(
            rule="bare-except", severity="error", message="boom",
            file="x.py", line=3, check="lint",
        )
        assert f.format() == "x.py:3: error: [bare-except] boom"
        assert f.as_dict()["check"] == "lint"

    def test_severity_validated(self):
        with pytest.raises(ValueError):
            CheckFinding(rule="r", severity="fatal", message="m")

    def test_suppressions_parse(self):
        src = "a = 1\nb = q.get()  # repro: allow(blocking-call)\nc = 2  # repro: allow(*)\n"
        sup = parse_suppressions(src)
        assert sup == {2: {"blocking-call"}, 3: {"*"}}
        hit = CheckFinding(rule="blocking-call", severity="warning",
                           message="m", file="x.py", line=2)
        wild = CheckFinding(rule="anything", severity="error",
                            message="m", file="x.py", line=3)
        miss = CheckFinding(rule="bare-except", severity="error",
                            message="m", file="x.py", line=2)
        assert is_suppressed(hit, sup)
        assert is_suppressed(wild, sup)
        assert not is_suppressed(miss, sup)

    def test_report_merge_and_exit_code(self):
        a = CheckReport()
        assert a.exit_code == 0
        b = CheckReport(suppressed=2)
        b.extend([CheckFinding(rule="r", severity="warning", message="m")],
                 check="lint")
        a.merge(b)
        assert a.exit_code == 1
        assert a.suppressed == 2
        assert "1 finding(s)" in a.render_text()

    def test_report_json(self, tmp_path):
        r = CheckReport()
        r.extend([CheckFinding(rule="r", severity="error", message="m")],
                 check="lint")
        out = tmp_path / "report.json"
        r.write_json(out)
        data = json.loads(out.read_text())
        assert data["counts"] == {"total": 1, "errors": 1, "warnings": 0,
                                  "suppressed": 0}
        assert data["findings"][0]["rule"] == "r"


class TestLintRules:
    def test_unseeded_rng(self):
        findings, _ = lint_source("import random\nx = random.random()\n", "core/a.py")
        assert rules(findings) == ["unseeded-rng"]
        findings, _ = lint_source("import numpy as np\nnp.random.seed(0)\n", "core/a.py")
        assert rules(findings) == ["unseeded-rng"]
        findings, _ = lint_source("rng = np.random.default_rng()\n", "core/a.py")
        assert rules(findings) == ["unseeded-rng"]

    def test_seeded_rng_clean(self):
        src = ("rng = np.random.default_rng(7)\n"
               "r = random.Random(3)\n"
               "y = rng.random()\n")
        findings, _ = lint_source(src, "core/a.py")
        assert findings == []

    def test_rng_home_exempt(self):
        findings, _ = lint_source("x = random.random()\n", "src/repro/util/rng.py")
        assert findings == []

    def test_bare_and_overbroad_except(self):
        src = ("try:\n    f()\nexcept:\n    pass\n"
               "try:\n    g()\nexcept BaseException as e:\n    raise\n"
               "try:\n    h()\nexcept Exception:\n    pass\n")
        findings, _ = lint_source(src, "core/a.py")
        assert rules(findings) == ["bare-except", "overbroad-except",
                                   "overbroad-except"]

    def test_handled_exception_clean(self):
        src = "try:\n    f()\nexcept Exception as e:\n    log(e)\n"
        findings, _ = lint_source(src, "core/a.py")
        assert findings == []

    def test_blocking_call_scoped(self):
        src = "item = q.get()\nlock.acquire()\nev.wait()\n"
        findings, _ = lint_source(src, "comm/a.py")
        assert rules(findings) == ["blocking-call"] * 3
        # same code outside comm/service/memory scope: no findings
        findings, _ = lint_source(src, "core/a.py")
        assert findings == []

    def test_blocking_call_check_and_tsdb_scope(self):
        """The checkers and the tsdb collector live under the same
        no-untimed-blocking discipline as the layers they drive."""
        src = "item = q.get()\nlock.acquire()\n"
        findings, _ = lint_source(src, "check/a.py")
        assert rules(findings) == ["blocking-call"] * 2
        findings, _ = lint_source(src, "perf/tsdb.py")
        assert rules(findings) == ["blocking-call"] * 2
        # the rest of perf/ stays out of scope
        findings, _ = lint_source(src, "perf/metrics.py")
        assert findings == []

    def test_blocking_call_with_timeout_clean(self):
        src = ("item = q.get(timeout=0.5)\n"
               "ok = lock.acquire(timeout=1.0)\n"
               "ok = lock.acquire(blocking=False)\n"
               "ok = lock.acquire(False)\n"
               "ev.wait(0.1)\n")
        findings, _ = lint_source(src, "service/a.py")
        assert findings == []

    def test_mutable_default(self):
        src = "def f(a, b=[], c={}, d=dict()):\n    return a\n"
        findings, _ = lint_source(src, "core/a.py")
        assert rules(findings) == ["mutable-default"] * 3

    def test_unlabeled_metric(self):
        src = "m.counter('x.y').inc()\nm.gauge('z', pool='wf').set(1)\n"
        findings, _ = lint_source(src, "comm/a.py")
        assert rules(findings) == ["unlabeled-metric"]

    def test_suppression_honored(self):
        src = "item = q.get()  # repro: allow(blocking-call)\n"
        findings, suppressed = lint_source(src, "comm/a.py")
        assert findings == []
        assert suppressed == 1

    def test_syntax_error_is_a_finding(self):
        findings, _ = lint_source("def broken(:\n", "core/a.py")
        assert rules(findings) == ["syntax-error"]


class TestLayerRule:
    """``layer-violation``: imports point down or sideways the layer
    order; up only from inside a function, allowed with a reason."""

    def test_downward_import_clean(self):
        src = "from repro.grid.box import Box\nfrom repro.perf.metrics import get_metrics\n"
        assert lint_layers(src, "src/repro/core/a.py") == ([], 0)

    def test_sideways_import_clean(self):
        src = "from repro.core.fields import LevelFields\n"
        assert lint_layers(src, "src/repro/core/a.py") == ([], 0)
        # radiation.spectral sits over core; its tracer imports the kernels
        src = "from repro.core.kernels import march\n"
        assert lint_layers(src, "src/repro/radiation/spectral/a.py") == ([], 0)

    def test_module_level_upward_import(self):
        src = "from repro.service import RadiationService\n"
        findings, _ = lint_layers(src, "src/repro/core/a.py")
        assert rules(findings) == ["layer-violation"]
        assert "module-level" in findings[0].message
        # a package named as a whole sits at its highest layer: perf's
        # __init__ re-exports the analysis tools
        findings, _ = lint_layers("from repro.perf import get_metrics\n", "core/a.py")
        assert rules(findings) == ["layer-violation"]
        findings, _ = lint_layers("from ..service import schema\n", "src/repro/core/a.py")
        assert rules(findings) == ["layer-violation"]
        # an allow does not admit a module-level upward import
        src = "from repro.service import X  # repro: allow(layer-violation) no\n"
        findings, suppressed = lint_layers(src, "core/a.py")
        assert rules(findings) == ["layer-violation"] and suppressed == 0

    def test_function_local_upward_import_without_allow(self):
        src = ("def f():\n"
               "    from repro.fabric.fabric import run_drill\n"
               "    from repro.service import X  # repro: allow(layer-violation)\n")
        findings, suppressed = lint_source(src, "src/repro/runtime/a.py")
        assert rules(findings) == ["layer-violation"] * 2, "an allow needs a reason"
        assert suppressed == 0

    def test_function_local_upward_import_allowed(self):
        src = ("def f():\n"
               "    from repro.check.graph import validate_compiled  "
               "# repro: allow(layer-violation) on demand\n")
        assert lint_source(src, "src/repro/runtime/a.py") == ([], 1)

    def test_seeded_defect_caught(self, capsys):
        assert run_check(["lint", "--seeded-defects"]) == 1
        out = capsys.readouterr().out
        assert out.count("[layer-violation]") == 1
        assert "layers.py:1:" in out and "1 suppressed" in out
        assert out.count("[unused-import]") == 1 and "layers.py:2:" in out


class TestUnusedImportRule:
    """``unused-import``: a module-level import the module never reads."""

    def test_never_read_import_flagged_at_its_name(self):
        src = ("import os\n"
               "from typing import (\n"
               "    Dict,\n"
               "    List,\n"
               ")\n"
               "x: List[int] = []\n")
        findings, _ = lint_source(src, "src/repro/core/a.py")
        assert [(f.rule, f.line) for f in findings] == [
            ("unused-import", 1), ("unused-import", 3)]
        assert "'os'" in findings[0].message

    def test_every_read_counts(self):
        src = ("from __future__ import annotations\n"
               "import os.path\n"
               "import numpy as np\n"
               "from repro.grid.box import Box\n"
               "def f(b: Box) -> np.ndarray:\n"
               "    return os.path.join(b)\n")
        assert lint_source(src, "src/repro/core/a.py") == ([], 0)

    def test_function_local_and_init_imports_exempt(self):
        assert lint_source("def f():\n    import os\n", "src/repro/core/a.py") == ([], 0)
        assert lint_source("import os\n", "src/repro/core/__init__.py") == ([], 0)

    def test_suppression_honored(self):
        src = "import os  # repro: allow(unused-import)\n"
        assert lint_source(src, "src/repro/core/a.py") == ([], 1)


class TestLintTree:
    def test_src_tree_is_clean(self):
        """The satellite guarantee: every real finding in src/ is fixed
        or carries an explicit inline suppression."""
        findings, suppressed, scanned = lint_paths([REPRO_SRC])
        assert scanned > 50
        assert findings == [], "\n".join(f.format() for f in findings)
        # the deliberate keeps: blocking acquires in memory/pool.py,
        # BaseException propagation in runtime/scheduler.py, and the
        # transparent lock shim + barrier drive in check/races.py
        assert suppressed >= 8


class TestCheckCLI:
    def test_lint_subcommand_clean(self, capsys):
        assert run_check(["lint"]) == 0
        assert "repro check lint" in capsys.readouterr().out

    def test_graph_seeded_defects_gate(self, capsys):
        assert run_check(["graph", "--seeded-defects"]) == 1
        out = capsys.readouterr().out
        assert "graph-dangling-consumer" in out
        assert "graph-write-write" in out

    def test_leaks_json_report(self, tmp_path, capsys):
        out = tmp_path / "check_report.json"
        assert run_check(["leaks", "--seeded-defects", "--json", str(out)]) == 1
        capsys.readouterr()
        data = json.loads(out.read_text())
        got = {f["rule"] for f in data["findings"]}
        assert got == {"alloc-double-free", "alloc-use-after-retire",
                       "alloc-leak"}
        assert data["counts"]["errors"] == len(data["findings"])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            run_check(["frobnicate"])


class TestListRules:
    def test_text_listing_covers_every_analyzer(self, capsys):
        assert run_check(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for check in ("lint", "graph", "races", "leaks", "fs",
                      "protocol"):
            assert f"== {check} ==" in out
        assert "fs-non-atomic-publish" in out
        assert "protocol-lost-request" in out
        assert "layer-violation" in out

    def test_json_catalog(self, tmp_path, capsys):
        out = tmp_path / "rules.json"
        assert run_check(["--list-rules", "--json", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        rows = data["rules"]
        assert {r["check"] for r in rows} == {
            "lint", "graph", "races", "leaks", "fs", "protocol"}
        for row in rows:
            assert row["severity"] in ("error", "warning")
            assert row["description"]
        names = [r["rule"] for r in rows]
        assert len(names) == len(set(names)), "rule names must be unique"

    def test_catalogs_match_emitted_rules(self):
        """Every rule an analyzer can emit appears in its catalog."""
        from repro.check import fs, protocol
        from repro.check.cli import collect_rules

        listed = {r["rule"] for r in collect_rules()}
        assert set(fs.FIXTURE_RULES.values()) <= listed
        assert set(protocol.DEFECT_RULES.values()) <= listed
