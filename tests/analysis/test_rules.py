"""Golden-file tests: each lint rule against fixture trees that must fire
(``fixtures/bad``) and must stay silent (``fixtures/good``)."""

from collections import Counter
from pathlib import Path

import repro.analysis  # noqa: F401 — registers the rules
from repro.analysis import RULE_REGISTRY, analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"


def _report(root):
    return analyze_paths([root], root=root)


class TestBadFixturesFire:
    def test_expected_rule_counts(self):
        report = _report(BAD)
        by_rule = Counter(f.rule for f in report.findings)
        assert by_rule["no-densify"] == 4
        assert by_rule["no-unseeded-random"] == 5
        assert by_rule["mmap-write-safety"] == 6
        assert set(by_rule) == {
            "no-densify", "no-unseeded-random", "mmap-write-safety"
        }
        assert not report.errors

    def test_densify_findings_point_at_the_right_lines(self):
        report = _report(BAD)
        densify = [f for f in report.findings if f.rule == "no-densify"]
        assert all(f.path == "attacks/densify.py" for f in densify)
        assert sorted(f.line for f in densify) == [9, 10, 11, 12]
        assert any(".toarray()" in f.snippet for f in densify)

    def test_unseeded_random_messages_name_the_call(self):
        report = _report(BAD)
        random_findings = [
            f for f in report.findings if f.rule == "no-unseeded-random"
        ]
        messages = " ".join(f.message for f in random_findings)
        assert "np.random.rand()" in messages
        assert "np.random.default_rng()" in messages
        assert "stdlib random" in messages

    def test_mmap_findings_cover_aliases_and_unpacks(self):
        report = _report(BAD)
        mmap_findings = [
            f for f in report.findings if f.rule == "mmap-write-safety"
        ]
        snippets = " ".join(f.snippet for f in mmap_findings)
        assert "alias.indices[0]" in snippets  # alias propagation
        assert "base.eliminate_zeros()" in snippets  # csr_with_delta unpack
        assert "mapped += 1.0" in snippets  # read-mode memmap augassign


class TestGoodFixturesStaySilent:
    def test_no_findings_at_all(self):
        report = _report(GOOD)
        assert report.findings == []
        assert report.errors == []

    def test_pragma_in_good_fixture_counts_as_used(self):
        # the good densify fixture has a real .toarray() excused by pragma;
        # if the pragma were unused the audit would have flagged it above
        report = _report(GOOD)
        assert all(f.rule != "unused-pragma" for f in report.findings)


class TestScoping:
    def test_rules_ignore_files_outside_their_scope(self, tmp_path):
        driver = tmp_path / "experiments" / "driver.py"
        driver.parent.mkdir()
        driver.write_text(
            "def plot(matrix):\n"
            "    import numpy as np\n"
            "    dense = matrix.toarray()\n"
            "    noise = np.random.rand(3)\n"
            "    return dense, noise\n"
        )
        report = analyze_paths([tmp_path], root=tmp_path)
        assert report.findings == []

    def test_every_rule_declares_scope_and_description(self):
        for rule_id, rule in RULE_REGISTRY.items():
            assert rule.id == rule_id
            assert rule.description
            assert rule.scope and rule.scope != ("*",)

    def test_unparseable_file_reported_not_crashed(self, tmp_path):
        broken = tmp_path / "attacks" / "broken.py"
        broken.parent.mkdir()
        broken.write_text("def oops(:\n")
        report = analyze_paths([tmp_path], root=tmp_path)
        assert [f.rule for f in report.errors] == ["parse-error"]
        assert not report.ok
