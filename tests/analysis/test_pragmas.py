"""Pragma parsing, suppression and auditing."""

from pathlib import Path

import repro.analysis  # noqa: F401 — registers the rules
from repro.analysis import analyze_paths, collect_pragmas


def _write_module(root: Path, source: str, name: str = "mod.py") -> Path:
    module = root / "attacks" / name
    module.parent.mkdir(exist_ok=True)
    module.write_text(source)
    return module


class TestPragmaParsing:
    def test_trailing_pragma_covers_its_own_line(self):
        pragmas = collect_pragmas(
            "x = 1\n"
            "y = csr.toarray()  # repro: allow-densify(reviewed)\n"
        )
        assert list(pragmas) == [2]
        assert pragmas[2][0].allow == "densify"
        assert pragmas[2][0].reason == "reviewed"

    def test_comment_only_line_covers_the_next_line(self):
        pragmas = collect_pragmas(
            "# repro: allow-densify(line too long for a trailing comment)\n"
            "y = csr.toarray()\n"
        )
        assert list(pragmas) == [2]

    def test_pragma_inside_string_literal_is_ignored(self):
        pragmas = collect_pragmas(
            '"""Example::\n'
            "\n"
            "    y = csr.toarray()  # repro: allow-densify(example)\n"
            '"""\n'
            "y = 1\n"
        )
        assert pragmas == {}

    def test_allow_matches_rule_with_and_without_no_prefix(self):
        pragmas = collect_pragmas("x = 1  # repro: allow-densify(ok)\n")
        pragma = pragmas[1][0]
        assert pragma.suppresses("no-densify")
        assert pragma.suppresses("densify")
        assert not pragma.suppresses("mmap-write-safety")


class TestPragmaSuppression:
    def test_pragma_suppresses_the_finding(self, tmp_path):
        _write_module(
            tmp_path,
            "def f(csr):\n"
            "    # repro: allow-densify(small-graph helper)\n"
            "    return csr.toarray()\n",
        )
        report = analyze_paths([tmp_path], root=tmp_path)
        assert report.findings == []

    def test_pragma_without_reason_is_malformed_and_does_not_suppress(
        self, tmp_path
    ):
        _write_module(
            tmp_path,
            "def f(csr):\n"
            "    return csr.toarray()  # repro: allow-densify()\n",
        )
        report = analyze_paths([tmp_path], root=tmp_path)
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["malformed-pragma", "no-densify"]

    def test_pragma_naming_unknown_rule_is_malformed(self, tmp_path):
        _write_module(
            tmp_path,
            "x = 1  # repro: allow-no-such-rule(typo)\n",
        )
        report = analyze_paths([tmp_path], root=tmp_path)
        assert [f.rule for f in report.findings] == ["malformed-pragma"]
        assert "no known rule" in report.findings[0].message

    def test_unused_pragma_is_reported(self, tmp_path):
        _write_module(
            tmp_path,
            "def f(x):\n"
            "    # repro: allow-densify(the densify below was removed)\n"
            "    return x\n",
        )
        report = analyze_paths([tmp_path], root=tmp_path)
        assert [f.rule for f in report.findings] == ["unused-pragma"]

    def test_pragma_outside_rule_scope_is_reported(self, tmp_path):
        module = tmp_path / "experiments" / "driver.py"
        module.parent.mkdir()
        module.write_text("x = 1  # repro: allow-densify(not even in scope)\n")
        report = analyze_paths([tmp_path], root=tmp_path)
        assert [f.rule for f in report.findings] == ["unused-pragma"]
        assert "outside that rule's scope" in report.findings[0].message

