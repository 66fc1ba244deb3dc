"""CLI behaviour: exit codes, formats, the option set."""

from pathlib import Path

import pytest

from repro.analysis.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"


def _run(argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_repo_is_clean(self):
        # THE acceptance criterion: the shipped tree passes its own gate
        assert main([]) == 0

    def test_bad_fixture_fails(self, capsys):
        code = _run([BAD, "--root", BAD])
        assert code == 1
        out = capsys.readouterr().out
        assert "[no-densify]" in out
        assert "attacks/densify.py" in out

    def test_good_fixture_passes(self):
        assert _run([GOOD, "--root", GOOD]) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()
                  if line and not line[0].isspace()]
        assert listed == ["mmap-write-safety", "no-densify", "no-unseeded-random"]

    @pytest.mark.parametrize(
        "option", ["--baseline=x.json", "--write-baseline", "--no-audit"]
    )
    def test_removed_options_are_unknown(self, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([option])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGithubFormat:
    def test_error_annotations_emitted(self, capsys):
        code = _run([BAD, "--root", BAD, "--format", "github"])
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=attacks/densify.py" in out
        assert "title=repro.analysis no-densify" in out
