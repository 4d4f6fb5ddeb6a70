"""Whole-program lint v2: project pass, STAR006/007/008, SARIF,
baseline.

Covers the call-graph effect propagation behind the STAR001 rewrite
(helper indirection is the acceptance pin), the batch/scalar parity
cross-reference, the lease-fencing and atomic-publish rules, the
SARIF reporter (structural validation against the SARIF 2.1.0
required subset + property round-trips), the baseline waiver
mechanism with its unused-waiver direction, pragma suppression edge
cases, and the checked-in fixture tree under ``tests/lint_fixtures``.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.lint.baseline import Baseline, Waiver
from repro.lint.cli import main as lint_main
from repro.lint.engine import (
    FileContext,
    Finding,
    LintEngine,
    findings_from_json,
    findings_to_json,
)
from repro.lint.project import ProjectContext
from repro.lint.report import (
    findings_from_sarif,
    findings_to_sarif,
    sarif_report,
)
from repro.lint.rules import default_rules
from repro.lint.rules.atomic_publish import AtomicPublishRule
from repro.lint.rules.fencing import LeaseFencingRule
from repro.lint.rules.nvm_access import UncountedNvmAccessRule
from repro.lint.rules.parity import BatchParityRule

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def stage(tmp_path, files):
    """Write {relpath: source} under tmp_path; returns the root."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def lint_tree(tmp_path, rules, files):
    stage(tmp_path, files)
    return LintEngine(rules).run([str(tmp_path)])


def codes(findings):
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# the project pass
# ----------------------------------------------------------------------
class TestProjectContext:
    def build(self, tmp_path, files):
        stage(tmp_path, files)
        engine = LintEngine([])
        engine.run([str(tmp_path)])
        # rebuild directly for inspection
        project = ProjectContext()
        import ast
        for path in sorted(tmp_path.rglob("*.py")):
            ctx = FileContext(str(path), path.read_text())
            project.add_module(ctx.path, ctx.module_path, ctx.tree)
        return project

    def test_symbol_table_indexes_defs(self, tmp_path):
        project = self.build(tmp_path, {
            "repro/mem/dev.py":
                "class Device:\n"
                "    def read(self):\n"
                "        return 1\n"
                "def helper(x):\n"
                "    return x\n",
        })
        info = project.module("repro/mem/dev.py")
        assert set(info.functions) == {"helper"}
        assert set(info.classes) == {"Device"}
        assert set(info.classes["Device"].methods) == {"read"}
        fn = project.function("repro/mem/dev.py::Device.read")
        assert fn is not None and fn.is_method

    def test_cross_module_subclass_resolution(self, tmp_path):
        project = self.build(tmp_path, {
            "repro/mem/nvm.py": "class NVM:\n    pass\n",
            "repro/mem/wear.py":
                "from repro.mem.nvm import NVM\n"
                "class Leveled(NVM):\n    pass\n"
                "class Deeper(Leveled):\n    pass\n",
        })
        subs = {cls.name for cls
                in project.subclasses_of("repro/mem/nvm.py", "NVM")}
        assert subs == {"Leveled", "Deeper"}

    def test_call_resolution_through_imports_and_self(self, tmp_path):
        project = self.build(tmp_path, {
            "repro/util/helpers.py": "def probe(x):\n    return x\n",
            "repro/sim/run.py":
                "from repro.util.helpers import probe\n"
                "class Driver:\n"
                "    def step(self):\n"
                "        return self.spin()\n"
                "    def spin(self):\n"
                "        return probe(1)\n",
        })
        import ast
        info = project.module("repro/sim/run.py")
        step = info.classes["Driver"].methods["step"]
        call = next(n for n in ast.walk(step.node)
                    if isinstance(n, ast.Call))
        resolved = project.resolve_call("repro/sim/run.py", call,
                                        "Driver")
        assert resolved is not None and resolved.qualname == \
            "Driver.spin"
        spin = info.classes["Driver"].methods["spin"]
        call = next(n for n in ast.walk(spin.node)
                    if isinstance(n, ast.Call))
        resolved = project.resolve_call("repro/sim/run.py", call,
                                        "Driver")
        assert resolved is not None and \
            resolved.module_path == "repro/util/helpers.py"


# ----------------------------------------------------------------------
# STAR001 v2: effect propagation
# ----------------------------------------------------------------------
class TestNvmEffectPropagation:
    def test_detects_access_through_helper(self, tmp_path):
        """The acceptance pin: an uncounted access reached only
        through a helper whose parameter is not nvm-shaped."""
        findings = lint_tree(tmp_path, [UncountedNvmAccessRule()], {
            "repro/sim/scan.py":
                "def census(store):\n"
                "    return len(store._data)\n"
                "def audit(machine):\n"
                "    return census(machine.nvm)\n",
        })
        assert codes(findings) == ["STAR001"]
        assert findings[0].line == 4
        assert "census" in findings[0].message
        assert "store" in findings[0].message

    def test_transitive_and_cross_module_effects(self, tmp_path):
        findings = lint_tree(tmp_path, [UncountedNvmAccessRule()], {
            "repro/util/deep.py":
                "def inner(dev):\n"
                "    return dev._meta\n"
                "def outer(thing):\n"
                "    return inner(thing)\n",
            "repro/sim/use.py":
                "from repro.util.deep import outer\n"
                "def probe(machine):\n"
                "    return outer(machine.nvm)\n",
        })
        assert codes(findings) == ["STAR001"]
        assert findings[0].path.endswith("use.py")

    def test_keyword_argument_binding(self, tmp_path):
        findings = lint_tree(tmp_path, [UncountedNvmAccessRule()], {
            "repro/sim/kw.py":
                "def census(limit, store=None):\n"
                "    return len(store._data) if limit else 0\n"
                "def audit(machine):\n"
                "    return census(3, store=machine.nvm)\n",
        })
        assert codes(findings) == ["STAR001"]

    def test_nvm_subclass_self_access_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, [UncountedNvmAccessRule()], {
            "repro/mem/nvm.py": "class NVM:\n    pass\n",
            "repro/mem/wear.py":
                "from repro.mem.nvm import NVM\n"
                "class Leveled(NVM):\n"
                "    def shuffle(self):\n"
                "        self._data[0] = self._data.pop(1)\n",
        })
        assert codes(findings) == ["STAR001", "STAR001"]
        assert all("Leveled" in f.message for f in findings)

    def test_non_nvm_class_self_access_passes(self, tmp_path):
        findings = lint_tree(tmp_path, [UncountedNvmAccessRule()], {
            "repro/sim/other.py":
                "class Journal:\n"
                "    def __init__(self):\n"
                "        self._data = {}\n"
                "    def flush(self):\n"
                "        self._data.clear()\n",
        })
        assert findings == []

    def test_helper_taking_plain_dict_passes(self, tmp_path):
        findings = lint_tree(tmp_path, [UncountedNvmAccessRule()], {
            "repro/sim/ok.py":
                "def census(store):\n"
                "    return len(store._data)\n"
                "def audit(journal):\n"
                "    return census(journal.pages)\n",
        })
        assert findings == []

    def test_exempt_module_callee_not_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, [UncountedNvmAccessRule()], {
            "repro/sim/batch.py":
                "def drain(dev):\n"
                "    return len(dev._meta)\n",
            "repro/sim/use.py":
                "from repro.sim.batch import drain\n"
                "def go(machine):\n"
                "    return drain(machine.nvm)\n",
        })
        assert findings == []


# ----------------------------------------------------------------------
# STAR006: batch/scalar parity drift
# ----------------------------------------------------------------------
SCALAR_SRC = (
    "class SecureMemoryController:\n"
    "    def __init__(self, config, geometry):\n"
    "        self.config = config\n"
    "        self.geometry = geometry\n"
    "        self._hist = {}\n"
    "    def write_data(self, address):\n"
    "        self._hist[address] = 1\n"
    "        return self.geometry\n"
)


class TestBatchParity:
    def test_unmirrored_field_is_flagged(self, tmp_path):
        """The acceptance pin: a synthetic scalar-side field absent
        from the fixture batch engine and the roster."""
        findings = lint_tree(tmp_path, [BatchParityRule()], {
            "repro/sim/controller.py": SCALAR_SRC,
            "repro/sim/batch.py":
                "SCALAR_PARITY_EXEMPT = frozenset({'config'})\n"
                "class EpochEngine:\n"
                "    __slots__ = ('geometry',)\n"
                "    def __init__(self, ctrl):\n"
                "        self.geometry = ctrl.geometry\n",
        })
        assert codes(findings) == ["STAR006"]
        assert "_hist" in findings[0].message
        assert findings[0].path.endswith("controller.py")
        assert findings[0].line == 5  # first self._hist use

    def test_mirrored_and_exempt_fields_pass(self, tmp_path):
        findings = lint_tree(tmp_path, [BatchParityRule()], {
            "repro/sim/controller.py": SCALAR_SRC,
            "repro/sim/batch.py":
                "SCALAR_PARITY_EXEMPT = frozenset({'config'})\n"
                "class EpochEngine:\n"
                "    __slots__ = ('geometry', '_hist')\n"
                "    def __init__(self, ctrl):\n"
                "        self.geometry = ctrl.geometry\n"
                "        self._hist = dict(ctrl._hist)\n",
        })
        assert findings == []

    def test_unused_exemption_is_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, [BatchParityRule()], {
            "repro/sim/controller.py": SCALAR_SRC,
            "repro/sim/batch.py":
                "SCALAR_PARITY_EXEMPT = frozenset("
                "{'config', 'geometry'})\n"
                "class EpochEngine:\n"
                "    __slots__ = ('geometry', '_hist')\n"
                "    def __init__(self, ctrl):\n"
                "        self.geometry = ctrl.geometry\n"
                "        self._hist = dict(ctrl._hist)\n",
        })
        assert codes(findings) == ["STAR006"]
        assert "unused" in findings[0].message
        assert findings[0].path.endswith("batch.py")

    def test_stale_exemption_is_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, [BatchParityRule()], {
            "repro/sim/controller.py": SCALAR_SRC,
            "repro/sim/batch.py":
                "SCALAR_PARITY_EXEMPT = frozenset("
                "{'config', 'vanished'})\n"
                "class EpochEngine:\n"
                "    __slots__ = ('geometry', '_hist')\n"
                "    def __init__(self, ctrl):\n"
                "        self.geometry = ctrl.geometry\n"
                "        self._hist = dict(ctrl._hist)\n",
        })
        assert codes(findings) == ["STAR006"]
        assert "stale" in findings[0].message

    def test_half_pair_in_scope_is_silent(self, tmp_path):
        findings = lint_tree(tmp_path, [BatchParityRule()], {
            "repro/sim/controller.py": SCALAR_SRC,
        })
        assert findings == []

    def test_missing_controller_class_reported(self, tmp_path):
        findings = lint_tree(tmp_path, [BatchParityRule()], {
            "repro/sim/controller.py": "class Renamed:\n    pass\n",
            "repro/sim/batch.py": "class EpochEngine:\n    pass\n",
        })
        assert codes(findings) == ["STAR006"]
        assert "not found" in findings[0].message


# ----------------------------------------------------------------------
# STAR007: lease fencing
# ----------------------------------------------------------------------
class TestLeaseFencing:
    def test_unfenced_mutation_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, [LeaseFencingRule()], {
            "repro/lab/lease.py":
                "class Board:\n"
                "    def zap(self, h):\n"
                "        self._conn.execute(\n"
                "            \"DELETE FROM leases WHERE spec_hash"
                " = ?\", (h,))\n",
        })
        assert codes(findings) == ["STAR007"]

    def test_transactional_and_helper_mutations_pass(self, tmp_path):
        findings = lint_tree(tmp_path, [LeaseFencingRule()], {
            "repro/lab/lease.py":
                "class Board:\n"
                "    def _begin(self):\n"
                "        self._conn.execute('BEGIN IMMEDIATE')\n"
                "    def _fenced_update(self, set_sql, params):\n"
                "        self._conn.execute(\n"
                "            'UPDATE leases SET %s WHERE fence = ?'\n"
                "            % set_sql, params)\n"
                "    def requeue(self, h):\n"
                "        self._begin()\n"
                "        self._conn.execute(\n"
                "            \"UPDATE leases SET state = 'pending'\""
                ")\n"
                "        self._conn.execute('COMMIT')\n",
        })
        assert findings == []

    def test_reads_and_other_tables_pass(self, tmp_path):
        findings = lint_tree(tmp_path, [LeaseFencingRule()], {
            "repro/lab/lease.py":
                "class Board:\n"
                "    def peek(self):\n"
                "        return self._conn.execute(\n"
                "            'SELECT * FROM leases').fetchall()\n"
                "    def note(self):\n"
                "        self._conn.execute(\n"
                "            'INSERT INTO audit VALUES (1)')\n",
        })
        assert findings == []

    def test_out_of_scope_module_passes(self, tmp_path):
        findings = lint_tree(tmp_path, [LeaseFencingRule()], {
            "repro/obs/top.py":
                "def zap(conn):\n"
                "    conn.execute('DELETE FROM leases')\n",
        })
        assert findings == []


# ----------------------------------------------------------------------
# STAR008: atomic publish
# ----------------------------------------------------------------------
class TestAtomicPublish:
    def test_plain_write_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, [AtomicPublishRule()], {
            "repro/obs/out.py":
                "import json\n"
                "def publish(path, payload):\n"
                "    with open(path, 'w') as handle:\n"
                "        json.dump(payload, handle)\n",
        })
        assert codes(findings) == ["STAR008"]

    def test_write_text_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, [AtomicPublishRule()], {
            "repro/lab/out.py":
                "def publish(path, text):\n"
                "    path.write_text(text)\n",
        })
        assert codes(findings) == ["STAR008"]

    def test_tmp_replace_idiom_passes(self, tmp_path):
        findings = lint_tree(tmp_path, [AtomicPublishRule()], {
            "repro/obs/out.py":
                "import json, os\n"
                "def publish(path, payload):\n"
                "    tmp = '%s.tmp' % path\n"
                "    with open(tmp, 'w') as handle:\n"
                "        json.dump(payload, handle)\n"
                "    os.replace(tmp, path)\n",
        })
        assert findings == []

    def test_user_chosen_args_path_exempt(self, tmp_path):
        findings = lint_tree(tmp_path, [AtomicPublishRule()], {
            "repro/lab/cli2.py":
                "import json\n"
                "def export(args, payload):\n"
                "    with open(args.output, 'w') as handle:\n"
                "        json.dump(payload, handle)\n",
        })
        assert findings == []

    def test_reads_and_out_of_scope_pass(self, tmp_path):
        findings = lint_tree(tmp_path, [AtomicPublishRule()], {
            "repro/obs/in.py":
                "def load(path):\n"
                "    with open(path) as handle:\n"
                "        return handle.read()\n",
            "repro/tools/free.py":
                "def publish(path, text):\n"
                "    with open(path, 'w') as handle:\n"
                "        handle.write(text)\n",
        })
        assert findings == []


# ----------------------------------------------------------------------
# pragma suppression edge cases
# ----------------------------------------------------------------------
class TestPragmaEdgeCases:
    def test_pragma_on_decorated_def(self, tmp_path):
        """The pragma goes on the def/class line the finding points
        at, not the decorator line above it."""
        findings = lint_tree(tmp_path, [UncountedNvmAccessRule()], {
            "repro/sim/dec.py":
                "def wrap(f):\n"
                "    return f\n"
                "@wrap\n"
                "def scan(nvm):\n"
                "    return nvm._meta  # lint: disable=STAR001\n",
        })
        assert findings == []

    def test_multi_rule_comma_list(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            [UncountedNvmAccessRule()] + [
                r for r in default_rules() if r.code == "STAR002"
            ],
            {
                "repro/sim/multi.py":
                    "lsbs = nvm._meta = 5000"
                    "  # lint: disable=STAR001, STAR002\n",
            },
        )
        assert findings == []

    def test_file_pragma_after_imports(self, tmp_path):
        findings = lint_tree(tmp_path, [UncountedNvmAccessRule()], {
            "repro/sim/late.py":
                "import json\n"
                "\n"
                "# lint: disable-file=STAR001\n"
                "def a(nvm):\n"
                "    return json.dumps(sorted(nvm._meta))\n"
                "def b(nvm):\n"
                "    return nvm._data\n",
        })
        assert findings == []

    def test_pragma_suppresses_finish_findings(self, tmp_path):
        """finish()-emitted findings (STAR006 runs entirely in the
        project phase) honour the same pragmas as per-file ones."""
        findings = lint_tree(tmp_path, [BatchParityRule()], {
            "repro/sim/controller.py":
                "class SecureMemoryController:\n"
                "    def __init__(self, geometry):\n"
                "        self.geometry = geometry\n"
                "        self._hist = {}"
                "  # lint: disable=STAR006\n",
            "repro/sim/batch.py":
                "class EpochEngine:\n"
                "    __slots__ = ('geometry',)\n"
                "    def __init__(self, ctrl):\n"
                "        self.geometry = ctrl.geometry\n",
        })
        assert findings == []


# ----------------------------------------------------------------------
# SARIF reporter
# ----------------------------------------------------------------------
def validate_sarif_2_1_0(payload):
    """Structural validation of the SARIF 2.1.0 required subset.

    Mirrors the required-property constraints of the official schema
    (sarif-schema-2.1.0.json): version string, runs array, per-run
    tool.driver.name, per-result message; locations, when present,
    carry physicalLocation.artifactLocation.uri and a 1-based region.
    """
    assert isinstance(payload, dict)
    assert payload["version"] == "2.1.0"
    assert isinstance(payload["runs"], list)
    for run in payload["runs"]:
        driver = run["tool"]["driver"]
        assert isinstance(driver["name"], str) and driver["name"]
        for rule in driver.get("rules", []):
            assert isinstance(rule["id"], str) and rule["id"]
        assert isinstance(run["results"], list)
        for result in run["results"]:
            assert isinstance(result["message"]["text"], str)
            assert isinstance(result.get("ruleId", ""), str)
            for location in result.get("locations", []):
                physical = location["physicalLocation"]
                uri = physical["artifactLocation"]["uri"]
                assert isinstance(uri, str) and uri
                region = physical["region"]
                assert isinstance(region["startLine"], int)
                assert region["startLine"] >= 1
                if "startColumn" in region:
                    assert region["startColumn"] >= 1


class TestSarif:
    FINDINGS = [
        Finding("STAR001", "src/repro/sim/x.py", 3, 7, "uncounted"),
        Finding("STAR008", "src/repro/obs/y.py", 1, 0, "torn write"),
    ]

    def test_report_validates_against_schema_subset(self):
        payload = sarif_report(self.FINDINGS, default_rules())
        validate_sarif_2_1_0(payload)
        json.loads(json.dumps(payload))  # serializable

    def test_all_eight_rules_in_driver(self):
        payload = sarif_report([], default_rules())
        ids = [r["id"] for r
               in payload["runs"][0]["tool"]["driver"]["rules"]]
        assert ids == ["STAR00%d" % i for i in range(1, 9)]

    def test_round_trip(self):
        text = findings_to_sarif(self.FINDINGS, default_rules())
        assert findings_from_sarif(text) == self.FINDINGS

    def test_cli_sarif_output_validates(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(nvm):\n    return nvm._meta\n")
        out = tmp_path / "out.sarif"
        assert lint_main([str(bad), "--sarif", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate_sarif_2_1_0(payload)
        assert payload["runs"][0]["results"][0]["ruleId"] == "STAR001"
        capsys.readouterr()


FINDING_ST = st.builds(
    Finding,
    rule=st.sampled_from(["STAR00%d" % i for i in range(1, 9)]),
    path=st.text(
        alphabet=st.characters(
            codec="ascii", categories=("L", "N"),
            include_characters="/._-",
        ),
        min_size=1, max_size=40,
    ).filter(lambda p: not p.startswith("./")),
    line=st.integers(min_value=1, max_value=10 ** 6),
    col=st.integers(min_value=0, max_value=500),
    message=st.text(min_size=0, max_size=200),
)


class TestReporterProperties:
    @given(st.lists(FINDING_ST, max_size=8))
    def test_json_round_trip(self, findings):
        assert findings_from_json(findings_to_json(findings)) == \
            findings

    @given(st.lists(FINDING_ST, max_size=8))
    def test_sarif_round_trip_and_validity(self, findings):
        text = findings_to_sarif(findings)
        validate_sarif_2_1_0(json.loads(text))
        assert findings_from_sarif(text) == findings


# ----------------------------------------------------------------------
# baseline waivers
# ----------------------------------------------------------------------
class TestBaseline:
    def test_waiver_absorbs_matching_finding(self):
        baseline = Baseline([
            Waiver(rule="STAR008", path="repro/obs/events.py",
                   reason="streaming sink"),
        ])
        findings = [
            Finding("STAR008", "src/repro/obs/events.py", 65, 21,
                    "non-atomic publish"),
            Finding("STAR001", "src/repro/sim/x.py", 3, 0, "boom"),
        ]
        kept, unused = baseline.apply(findings)
        assert codes(kept) == ["STAR001"]
        assert unused == []

    def test_contains_narrows_the_match(self):
        baseline = Baseline([
            Waiver(rule="STAR008", path="repro/obs/events.py",
                   contains="streaming", reason="sink"),
        ])
        kept, unused = baseline.apply([
            Finding("STAR008", "src/repro/obs/events.py", 65, 21,
                    "non-atomic publish"),
        ])
        assert len(kept) == 1 and len(unused) == 1

    def test_unused_waiver_becomes_finding(self):
        baseline = Baseline(
            [Waiver(rule="STAR007", path="repro/lab/gone.py",
                    reason="ancient")],
            origin="lint-baseline.json",
        )
        kept, unused = baseline.apply([])
        assert kept == []
        assert codes(unused) == ["STARBASE"]
        assert unused[0].path == "lint-baseline.json"
        assert "repro/lab/gone.py" in unused[0].message

    def test_load_rejects_missing_reason(self, tmp_path):
        target = tmp_path / "base.json"
        target.write_text(json.dumps({
            "waivers": [{"rule": "STAR001", "path": "x.py"}],
        }))
        with pytest.raises(ValueError):
            Baseline.load(str(target))

    def test_cli_baseline_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(nvm):\n    return nvm._meta\n")
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"waivers": [{
            "rule": "STAR001", "path": "repro/sim/bad.py",
            "reason": "known debt",
        }]}))
        assert lint_main([str(bad), "--check",
                          "--baseline", str(base)]) == 0
        # an unused waiver on a clean tree fails --check
        good = tmp_path / "repro" / "sim" / "good.py"
        good.write_text("x = 1\n")
        assert lint_main([str(good), "--check",
                          "--baseline", str(base)]) == 1
        capsys.readouterr()


# ----------------------------------------------------------------------
# the fixture tree: one intentionally-bad file per rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", ["STAR00%d" % i for i in range(1, 9)])
def test_fixture_tree_pins_each_rule(code):
    root = FIXTURES / code.lower()
    assert root.is_dir(), "missing fixture dir for %s" % code
    engine = LintEngine(default_rules())
    findings = engine.run([str(root)])
    assert engine.errors == []
    assert codes(findings).count(code) >= 1, \
        "%s fixture no longer triggers its rule" % code
    # fixtures stay surgical: nothing else may fire
    assert set(codes(findings)) == {code}


def test_fixture_star001_findings_are_call_sites():
    """The helper-indirection fixture flags both call sites (direct
    and transitive), not the helper bodies."""
    engine = LintEngine(default_rules())
    findings = engine.run([str(FIXTURES / "star001")])
    assert [f.line for f in findings] == [22, 23]
    assert all("census" in f.message or "relay" in f.message
               for f in findings)


def test_fixture_star006_flags_the_synthetic_field():
    engine = LintEngine(default_rules())
    findings = engine.run([str(FIXTURES / "star006")])
    assert len(findings) == 1
    assert "_synthetic_hist" in findings[0].message
    assert findings[0].path.endswith("controller.py")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliV2:
    def test_list_rules_registers_all_eight(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 9):
            assert "STAR00%d" % i in out

    def test_paths_required_without_list_rules(self, capsys):
        with pytest.raises(SystemExit):
            lint_main([])
        capsys.readouterr()
