"""README's code examples run against the package as it is: the library
quick start prints an error below its stated accuracy, and both INI
examples pass config validation."""

import contextlib
import io
import re
from pathlib import Path

from mzgle import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(lang, text=README):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def test_library_quick_start_runs():
    section = README.split("## Library quick start", 1)[1]
    code = fenced_blocks("python", section)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    # one line per family, each ending in its max error
    errors = [float(line.split()[-1]) for line in out.getvalue().splitlines()]
    assert len(errors) == 2 and max(errors) < 0.05, errors


def test_config_examples_parse(tmp_path):
    examples = fenced_blocks("ini")
    assert len(examples) == 2
    kinds = []
    for i, text in enumerate(examples):
        path = tmp_path / f"example{i}.ini"
        path.write_text(text)
        kinds.append(cli.parse_config(path).model_kind)
    assert kinds == ["chain_bethe", "wave_annulus"]
