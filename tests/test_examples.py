"""The README's library quick start, its command-line block and the
scripts in ``scripts/`` run.

Both call the public API by name, so a change to a signature or a default
shows up here even though nothing else imports them.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from robustreg.cli import main
from robustreg.harness import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs_as_printed():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})


def test_readme_command_line_block_runs_as_printed(tmp_path, monkeypatch, capsys):
    # the block reads exp.json, which is the README's experiment config
    readme = (ROOT / "README.md").read_text()
    config = readme.split("### Experiment config (JSON)", 1)[1]
    (tmp_path / "exp.json").write_text(re.search(r"```json\n(.*?)```", config, re.S).group(1))
    block = re.search(r"```sh\n(.*?)```", readme.split("## Command line", 1)[1], re.S).group(1)
    monkeypatch.chdir(tmp_path)
    for line in block.splitlines():
        argv = shlex.split(line)
        assert argv[0] == "robustreg"
        assert main(argv[1:]) == 0, (line, capsys.readouterr().err)


# the smallest arguments of each script, "{tmp}" standing for a fresh
# directory; a script missing here fails
SMALLEST_ARGS = {
    "fatdim_sweep.py": ["--hypotheses", "8"],
    "learning_curve.py": ["--trials", "1", "--out", "{tmp}/runs.csv"],
    "noise_sweep.py": ["--trials", "1"],
}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_runs(script, tmp_path):
    args = [a.format(tmp=tmp_path) for a in SMALLEST_ARGS[script]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if "--out" in args:
        out = Path(args[args.index("--out") + 1]).read_text()
        assert out.startswith(",".join(CSV_HEADER) + "\n")
