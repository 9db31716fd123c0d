#!/usr/bin/env python3
"""Tests for tools/analyze/analyze.py.

Two suites, selectable by class name (this is how CTest invokes them):

  python3 test_analyze.py AnalyzeFixtures        per-pass pass/fail trees
  python3 test_analyze.py AnalyzeProductionTree  all five passes run clean
                                                 over the real src/, a
                                                 mutated serialized field
                                                 fails format-freeze, and
                                                 an unset ServeConfig field
                                                 fails knob-reach

AnalyzeFixtures walks tests/lint_fixtures/analyze/<pass>/: every `bad_*`
tree must be flagged by its pass (exit 1, the rule ids listed in that
tree's expect.txt present in the output) and every `good_*` tree must come
back clean (exit 0, no output). Each fixture is a miniature repo — a src/
subtree plus optional layers.txt / frozen_formats.txt config overrides
(reachability and knob-reach trees also carry the entry-point sources
their walk starts from: bench/, examples/, perfbench/src/).
"""

import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
ANALYZE = REPO_ROOT / "tools" / "analyze" / "analyze.py"
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures" / "analyze"

# Files the format-freeze pass digests (surface files + version carriers);
# the mutation tests copy exactly these into a scratch tree.
SURFACE_FILES = (
    "src/serve/protocol.h",
    "src/serve/protocol.cpp",
    "src/serve/flight_recorder.cpp",
    "src/stream/checkpoint.cpp",
    "src/stream/drivers.cpp",
    "src/stream/stream_state.cpp",
    "src/core/deviation_placer.cpp",
    "src/core/incentive.cpp",
    "src/core/esharing.cpp",
)

# The trees the knob-reach pass reads: src/ and the shipped entry points.
KNOB_TREES = ("src", "perfbench/src", "bench", "examples", "tools/flightq")


def run_analyze(args):
    return subprocess.run(
        [sys.executable, str(ANALYZE), *args],
        capture_output=True, text=True, check=False)


def tree_args(pass_name, tree: Path):
    args = ["--root", str(tree), "--pass", pass_name]
    if (tree / "layers.txt").exists():
        args += ["--layers", str(tree / "layers.txt")]
    if (tree / "frozen_formats.txt").exists():
        args += ["--formats", str(tree / "frozen_formats.txt")]
    return args


class AnalyzeFixtures(unittest.TestCase):
    def fixture_trees(self, prefix):
        out = []
        for pass_dir in sorted(FIXTURES.iterdir()):
            if pass_dir.is_dir():
                for tree in sorted(pass_dir.glob(f"{prefix}_*")):
                    if tree.is_dir():
                        out.append((pass_dir.name, tree))
        return out

    def test_fixture_tree_is_complete(self):
        """Every pass has at least one bad and one good fixture tree."""
        listed = run_analyze(["--list-passes"])
        self.assertEqual(listed.returncode, 0, listed.stderr)
        passes = {line.split()[0] for line in listed.stdout.splitlines()}
        self.assertTrue(passes, "analyze.py --list-passes printed nothing")
        bad = {p for p, _ in self.fixture_trees("bad")}
        good = {p for p, _ in self.fixture_trees("good")}
        self.assertEqual(passes, bad,
                         "each pass needs a bad_* fixture tree (and each "
                         "fixture dir a matching pass)")
        self.assertEqual(passes, good,
                         "each pass needs a good_* fixture tree (and each "
                         "fixture dir a matching pass)")

    def test_bad_fixtures_are_flagged(self):
        for pass_name, tree in self.fixture_trees("bad"):
            with self.subTest(analysis=pass_name, fixture=tree.name):
                result = run_analyze(tree_args(pass_name, tree))
                self.assertEqual(
                    result.returncode, 1,
                    f"{tree.name} should be flagged by {pass_name}; "
                    f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}")
                expected = (tree / "expect.txt").read_text().split()
                self.assertTrue(expected,
                                f"{tree.name} needs a non-empty expect.txt")
                for rule_id in expected:
                    self.assertIn(f"[{rule_id}]", result.stdout)

    def test_good_fixtures_are_clean(self):
        for pass_name, tree in self.fixture_trees("good"):
            with self.subTest(analysis=pass_name, fixture=tree.name):
                result = run_analyze(tree_args(pass_name, tree))
                self.assertEqual(
                    result.returncode, 0,
                    f"{tree.name} should be clean under {pass_name}; "
                    f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}")
                self.assertEqual(result.stdout, "")

    def test_every_finding_is_parseable(self):
        """Findings follow `path:line: [rule-id] message` so editors and CI
        annotations can consume them."""
        for pass_name, tree in self.fixture_trees("bad"):
            result = run_analyze(tree_args(pass_name, tree))
            for line in result.stdout.splitlines():
                with self.subTest(analysis=pass_name, line=line):
                    m = re.match(r"^(.+):(\d+): \[([\w-]+)\] .+$", line)
                    self.assertIsNotNone(m, f"unparseable finding: {line}")

    def test_json_output(self):
        import json
        pass_name, tree = self.fixture_trees("bad")[0]
        result = run_analyze(tree_args(pass_name, tree) + ["--json"])
        self.assertEqual(result.returncode, 1)
        findings = json.loads(result.stdout)
        self.assertTrue(findings)
        for f in findings:
            self.assertEqual(set(f), {"path", "line", "rule", "message"})

    def test_spelled_type_sets_count_only_for_that_struct(self):
        """`BetaConfig{.x = 1}` and `beta.y = 2` on a local `BetaConfig
        beta` set BetaConfig's members, not AlphaConfig's namesakes."""
        tree = FIXTURES / "knob-reach" / "bad_same_name_elsewhere"
        result = run_analyze(tree_args("knob-reach", tree))
        flagged = set(re.findall(r"(\w+::\w+) is never assigned",
                                 result.stdout))
        self.assertEqual(flagged, {"AlphaConfig::x", "AlphaConfig::y"})


class AnalyzeProductionTree(unittest.TestCase):
    def test_all_passes_are_clean(self):
        result = run_analyze(["--root", str(REPO_ROOT)])
        self.assertEqual(
            result.returncode, 0,
            "production tree must analyze clean; findings:\n"
            f"{result.stdout}\n{result.stderr}")
        self.assertEqual(result.stdout, "")

    def scratch_surface_tree(self, td):
        """Copy the serialized-surface files and the production frozen
        registry into a scratch repo root."""
        scratch = Path(td)
        for rel in SURFACE_FILES:
            dst = scratch / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(REPO_ROOT / rel, dst)
        formats = scratch / "frozen_formats.txt"
        shutil.copy(REPO_ROOT / "tools" / "lint" / "frozen_formats.txt",
                    formats)
        return scratch, formats

    def run_freeze(self, scratch, formats):
        return run_analyze(["--root", str(scratch), "--pass",
                            "format-freeze", "--formats", str(formats)])

    def test_unmutated_surfaces_pass(self):
        with tempfile.TemporaryDirectory() as td:
            scratch, formats = self.scratch_surface_tree(td)
            result = self.run_freeze(scratch, formats)
            self.assertEqual(result.returncode, 0, result.stdout)

    def test_protocol_field_mutation_fails(self):
        """Reordering serialized fields in protocol.h without touching
        frozen_formats.txt must fail the format-freeze pass."""
        with tempfile.TemporaryDirectory() as td:
            scratch, formats = self.scratch_surface_tree(td)
            header = scratch / "src" / "serve" / "protocol.h"
            text = header.read_text()
            mutated = text.replace(
                "std::int64_t ref{0};\n  bool opened{false};",
                "bool opened{false};\n  std::int64_t ref{0};")
            self.assertNotEqual(text, mutated,
                                "DecisionReply layout not found; update "
                                "this test alongside protocol.h")
            header.write_text(mutated)
            result = self.run_freeze(scratch, formats)
            self.assertEqual(result.returncode, 1,
                             "field reorder must fail format-freeze")
            self.assertIn("serve.protocol.decls", result.stdout)
            self.assertIn("kProtocolVersion", result.stdout)

    def scratch_knob_tree(self, td):
        scratch = Path(td)
        for rel in KNOB_TREES:
            shutil.copytree(REPO_ROOT / rel, scratch / rel)
        return scratch

    def test_unset_serve_config_field_fails_knob_reach(self):
        """A field added to ServeConfig that no shipped binary sets must
        fail the knob-reach pass; the unmutated copy passes."""
        with tempfile.TemporaryDirectory() as td:
            scratch = self.scratch_knob_tree(td)
            args = ["--root", str(scratch), "--pass", "knob-reach"]
            clean = run_analyze(args)
            self.assertEqual(clean.returncode, 0, clean.stdout)
            header = scratch / "src" / "serve" / "daemon.h"
            text = header.read_text()
            mutated = text.replace(
                "  std::uint16_t port{0};\n",
                "  std::uint16_t port{0};\n  int unset_knob{0};\n")
            self.assertNotEqual(text, mutated,
                                "ServeConfig::port not found; update this "
                                "test alongside daemon.h")
            header.write_text(mutated)
            result = run_analyze(args)
            self.assertEqual(result.returncode, 1,
                             "an unset config field must fail knob-reach")
            self.assertIn("ServeConfig::unset_knob", result.stdout)

    def test_version_bump_without_digest_refresh_fails(self):
        with tempfile.TemporaryDirectory() as td:
            scratch, formats = self.scratch_surface_tree(td)
            header = scratch / "src" / "serve" / "protocol.h"
            text = header.read_text()
            mutated = re.sub(
                r"kProtocolVersion = (\d+)",
                lambda m: f"kProtocolVersion = {int(m.group(1)) + 1}", text)
            self.assertNotEqual(text, mutated)
            header.write_text(mutated)
            result = self.run_freeze(scratch, formats)
            self.assertEqual(result.returncode, 1,
                             "a version bump alone must still force a "
                             "frozen-registry refresh")


if __name__ == "__main__":
    unittest.main()
