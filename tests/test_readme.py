"""The README's examples run as written.

The command-line synopsis is what ``seshadri --help`` prints.  Each
``$ seshadri ...`` line of its command-line examples runs through
``cli.run``: the lines after it are its stdout (``...`` elides it), and
after ``; echo $?`` the last of them is its exit code, else 0.  The
"Library entry points" block runs statement by statement, and each
expression's comment states its value: the text before any ``:`` is the
value's repr, or ``name=value`` pairs naming its attributes.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from seshadri.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _shell_examples():
    """(argv, exit code, stdout or None) of each command-line example."""
    block = re.search(r"\nExamples:\n\n```sh\n(.*?)```", README, re.S)[1]
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        command = command.removeprefix("$ seshadri ")
        code = 0
        if command.endswith("; echo $?"):
            command, code = command.removesuffix("; echo $?"), int(output.pop())
        stdout = None if output == ["..."] else "".join(line + "\n" for line in output)
        yield shlex.split(command), code, stdout


SHELL_EXAMPLES = list(_shell_examples())


def test_the_shell_examples_are_the_bound_and_a_refuted_verify():
    assert [(argv[0], code) for argv, code, _ in SHELL_EXAMPLES] == [("bound", 0),
                                                                      ("verify", 1)]


@pytest.mark.parametrize("argv, code, stdout", SHELL_EXAMPLES,
                         ids=[" ".join(argv) for argv, _, _ in SHELL_EXAMPLES])
def test_shell_example(argv, code, stdout, capsys):
    assert run(argv) == code
    captured = capsys.readouterr()
    if stdout is not None:
        assert captured.out == stdout


def test_the_synopsis_is_what_help_prints(capsys):
    block = re.search(r"## Command line\n\n```\n(.*?)```", README, re.S)[1]
    assert run(["--help"]) == 0
    printed = capsys.readouterr().out
    assert block in printed
    assert [line for line in printed.splitlines() if line.startswith("seshadri ")] == \
        block.splitlines()


def _check(value, comment: str) -> None:
    claim = comment.split(":")[0].strip()
    pairs = re.findall(r"(\w+)=(\S+)", claim)
    if pairs:
        for name, want in pairs:
            assert repr(getattr(value, name)) == want, (name, comment)
    else:
        assert repr(value) == claim, comment


def test_library_entry_points_block():
    block = re.search(r"## Library entry points\n\n```python\n(.*?)```", README, re.S)[1]
    lines = block.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            comment = lines[node.end_lineno - 1].split("#", 1)[1]
            _check(value, comment)
            checked.append(comment.strip())
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert checked == ["Fraction(4, 13)", "per-piece report, overall=True",
                       "Fraction(7, 26)", "True: 4/13 lies below 1/sqrt(10)"]
