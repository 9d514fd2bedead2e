"""README's library quick start, its operator example and its ``tfode solve``
examples run as written, so the documented calls keep working."""

import pathlib
import re
import shlex

import numpy as np

from tfode import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _code_blocks(heading, lang):
    """The ``lang`` code blocks of README's section under ``heading``."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)


def test_library_quick_start():
    namespace = {}
    exec(_code_blocks("## Library quick start", "python")[0], namespace)
    trace, config = namespace["trace"], namespace["config"]
    assert trace.values.shape == (config.steps + 1,)
    assert np.isfinite(trace.values).all()


def test_library_operator_example():
    namespace = {}
    exec(_code_blocks("## Library quick start", "python")[1], namespace)
    for name in ("val", "der"):
        assert type(namespace[name]) is float and np.isfinite(namespace[name])


def test_cli_solve_examples(tmp_path, monkeypatch, capsys):
    block = _code_blocks("## CLI", "sh")[0]
    commands = [shlex.split(c) for c in block.replace("\\\n", " ").strip().split("\n\n")]
    assert [c[:2] for c in commands] == [["tfode", "solve"]] * 2
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, capsys.readouterr().err
        assert "max error" in capsys.readouterr().out
        steps = int(argv[argv.index("--steps") + 1])
        rows = (tmp_path / argv[argv.index("--out") + 1]).read_text().splitlines()
        assert rows[0] == "t,u,u_exact,abs_error" and len(rows) == steps + 2
