"""README states contracts: its limits, exit codes, JSON keys and cited names are the code's."""

import importlib
import json
import re
from pathlib import Path

import lgquot
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


def _sections() -> dict[str, str]:
    """README's `## ` sections by heading, the text above the first under ''."""
    pieces = re.split(r"(?m)^## (.*)$", README.read_text(encoding="utf-8"))
    return {"": pieces[0], **dict(zip(pieces[1::2], pieces[2::2]))}


def _readme_keys() -> dict[str, list[str]]:
    """The JSON keys README lists per object, `[,key]` marking an optional one."""
    listed = re.findall(r"(?m)^\* (`\w+`(?: \w+)?|error): `([\w,\[\]]+)`$",
                        _sections()["JSON output"])
    return {label.replace("`", ""): keys.replace("[", "").replace("]", "").split(",")
            for label, keys in listed}


def _json_keys(capsys, *argv: str) -> tuple[int, dict]:
    code = cli.main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_readme_lists_the_json_keys_of_every_command_in_order(capsys):
    listed = _readme_keys()
    assert sorted(listed) == ["count", "error", "gw", "intersect", "table", "table row",
                              "verify", "verify check"]
    queries = {
        "count": ["count", "--n", "2", "--genus", "{g}", "--ell", "0"],
        "gw": ["gw", "--n", "2", "--genus", "{g}", "--degree", "{d}", "--partitions", "1;1;1"],
        "intersect": ["intersect", "--n", "2", "--genus", "{g}", "--ell", "0", "--e", "{e}",
                      "--poly", "1"],
    }
    # (genus, degree, e): below genus 2 a count and an intersection number carry a note
    for g, d, e in (2, 3, -1), (1, 2, 0):
        for command, argv in queries.items():
            code, out = _json_keys(capsys, *(a.format(g=g, d=d, e=e) for a in argv))
            assert code == 0
            expected = [k for k in listed[command] if k != "note" or "note" in out]
            assert list(out) == expected, command
            assert ("note" in out) == (g <= 1 and "note" in listed[command]), command
    code, out = _json_keys(capsys, "table", "--n", "2", "--genus-range", "0..3", "--ell", "0")
    assert code == 0 and list(out) == listed["table"]
    assert out["rows"] and all(list(row) == listed["table row"] for row in out["rows"])
    code, out = _json_keys(capsys, "verify", "--suite", "identities", "--max-n", "1",
                           "--max-genus", "1", "--cases", "1")
    assert code == 0 and list(out) == listed["verify"]
    assert out["checks"] and all(list(c) == listed["verify check"] for c in out["checks"])
    # an error keeps the keys of the command's arguments, then the error's
    refused = {
        "count": ["count", "--n", "3", "--genus", "2", "--ell", "0"],
        "gw": ["gw", "--n", "2", "--genus", "0", "--degree", "0", "--partitions", "x"],
        "intersect": ["intersect", "--n", "2", "--genus", "2", "--ell", "0", "--e", "-1",
                      "--poly", "x"],
        "table": ["table", "--n", "0", "--genus-range", "0..2", "--ell", "0"],
        "verify": ["verify", "--max-n", "0"],
    }
    for command, argv in refused.items():
        code, out = _json_keys(capsys, *argv)
        keys = list(out)
        assert code == 2 and keys[-4:] == listed["error"], command
        assert keys[:-4] == listed[command][:len(keys) - 4], command


def test_readme_cites_only_names_that_exist():
    # a backticked dotted name, with or without a call: `_count._trace_sum`,
    # `PointTable.schur`, `ExactBackend.sqrt2()`; the head is lgquot, one of its
    # modules or one of its names
    prose = re.sub(r"(?ms)^```.*?^```", "", README.read_text(encoding="utf-8"))
    cited = {m.group(1) for span in re.findall(r"`([^`]+)`", prose)
             if (m := re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?", span))}
    assert {"_ring._orbit_picks", "oracle._cache_text", "PointTable.schur"} <= cited
    for name in sorted(cited):
        head, *rest = name.split(".")
        if head == "lgquot":
            value = lgquot
        else:
            try:
                value = importlib.import_module(f"lgquot.{head}")
            except ModuleNotFoundError:
                value = getattr(lgquot, head)
        for attribute in rest:
            value = getattr(value, attribute)


def test_readme_states_figures_only_under_performance():
    # a time or a memory size: a number and its unit, a bare "s" after a space
    # (so that `4s` in a formula is not a figure)
    figure = re.compile(r"\b\d+(?:\.\d+)?(?: s|\s?(?:ms|us|µs|KB|MB|GB))\b")
    for heading, text in _sections().items():
        if heading != "Performance":
            found = figure.findall(" ".join(text.split()))
            assert not found, f"README section {heading!r} states {found}"
