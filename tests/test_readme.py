"""README states contracts: the limits it names and its exit codes are the code's."""

import re
from pathlib import Path

from lgquot import _count, cli, oracle, verify

README = Path(__file__).resolve().parents[1] / "README.md"


def _text() -> str:
    """README with every run of whitespace as one space, so a match may span lines."""
    return " ".join(README.read_text(encoding="utf-8").split())


def _number(text: str, pattern: str) -> int:
    found = re.findall(pattern, text)
    assert len(found) == 1, f"README states {pattern!r} {len(found)} times"
    return int(found[0])


def test_readme_names_the_rank_limits_of_the_code():
    text = _text()
    assert _number(text, r"`exact` answers up to n = (\d+)") == _count._MAX_RANK["exact"]
    assert _number(text, r"`float` up to n = (\d+)") == _count._MAX_RANK["float"]
    assert _number(text, r"has its own limit, n = (\d+)") == _count._MAX_RANK["count"]
    assert _number(text, r"`build_qh_algebra` refuses ranks above (\d+)") == oracle._MAX_RANK
    assert _number(text, r"oracle checks ranks up to (\d+)") == verify.ORACLE_MAX_N


def test_readme_names_every_error_code_with_its_exit_status():
    text = _text()
    paragraph = re.search(r"Exit codes: (.*?verification-suite failure\.)", text).group(1)
    # "`0` success, `2` ... `3` ... `4` ...": the codes named after each status
    pieces = re.split(r"`(\d)` ", paragraph)
    by_status = {int(status): named for status, named in zip(pieces[1::2], pieces[2::2])}
    assert sorted(by_status) == [0, 2, 3, 4]
    named = {code: status for status, part in by_status.items()
             for code in re.findall(r"`([A-Z_]+)`", part)}
    assert named == {code: status for _kind, code, status in cli._ERRORS}
