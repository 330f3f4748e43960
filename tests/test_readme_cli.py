"""Every ``beadproc ...`` line of README's CLI block runs and prints what the
README says: exit 0, files named by ``--out``/``--svg`` written (redirected
into a temporary directory), and each ``# -> value`` comment matched."""

import re
import shlex
from pathlib import Path

import pytest

from beadproc.cli import run

_README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_lines() -> list[tuple[list[str], str | None]]:
    block = re.search(r"^## CLI\n+```\n(.*?)^```", _README.read_text(), re.M | re.S)
    assert block, "README has no CLI code block"
    lines = []
    for line in block.group(1).splitlines():
        command, _, expected = line.partition("# ->")
        argv = shlex.split(command)
        assert argv[0] == "beadproc", line
        lines.append((argv[1:], expected.strip() or None))
    return lines


_LINES = _cli_lines()


def test_readme_cli_block_is_found():
    assert len(_LINES) >= 9
    assert sum(expected is not None for _, expected in _LINES) == 2


@pytest.mark.parametrize("argv,expected", _LINES, ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(_LINES)])
def test_readme_cli_line(argv, expected, tmp_path, capsys):
    argv = list(argv)
    written = []
    for i, flag in enumerate(argv[:-1]):
        if flag in ("--out", "--svg"):
            argv[i + 1] = str(tmp_path / Path(argv[i + 1]).name)
            written.append(Path(argv[i + 1]))
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    for path in written:
        assert path.stat().st_size > 0
    if expected is not None:
        assert stdout.strip() == expected
