"""The ``python -m repro.staticcheck`` entry point."""

import json

from repro.staticcheck.__main__ import main


def test_cli_clean_package_exits_zero(fixtures, capsys):
    assert main([str(fixtures / "cleanpkg")]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_cli_violations_exit_one(fixtures, capsys):
    assert main([str(fixtures / "statereach")]) == 1
    out = capsys.readouterr().out
    assert "[state-reach]" in out


def test_cli_json_output(fixtures, capsys):
    assert main(["--format", "json", str(fixtures / "undeclared")]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is False
    assert any(v["rule"] == "undeclared-primitive" for v in data["violations"])


def test_cli_github_output(fixtures, capsys):
    assert main(["--format", "github", str(fixtures / "statereach")]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=staticcheck state-reach" in out
    assert out.strip().splitlines()[-1].startswith("::notice title=staticcheck::")


def test_cli_github_output_clean(fixtures, capsys):
    assert main(["--format", "github", str(fixtures / "cleanpkg")]) == 0
    out = capsys.readouterr().out.strip()
    assert out.splitlines() == [
        "::notice title=staticcheck::6/6 rules passed — 0 error(s), 0 warning(s)"
    ]


def test_cli_strict_flips_warnings(fixtures, capsys):
    assert main([str(fixtures / "widepkg")]) == 0
    capsys.readouterr()
    assert main(["--strict", str(fixtures / "widepkg")]) == 1


def test_cli_max_width_override(fixtures, capsys):
    assert main(["--max-width", "8", str(fixtures / "widepkg")]) == 0


def test_cli_allow_flag(fixtures, capsys):
    assert (
        main(
            [
                "--allow",
                "layerviol.core -> layerviol.transport",
                str(fixtures / "layerviol"),
            ]
        )
        == 0
    )


def test_cli_usage_error_on_missing_package(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_self_check(src_repro, capsys):
    assert main([str(src_repro)]) == 0
