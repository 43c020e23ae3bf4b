"""The README's example config and commands run as written."""

import re
import shlex
from pathlib import Path

from nsgms.cli import main
from nsgms.experiments import parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_config_parses():
    intro = README.index("An experiment config is line-oriented")
    block = re.search(r"```\n(.*?)```", README[intro:], re.S).group(1)
    config = parse_config(block)
    assert (config.p, config.grid, config.trials) == (8, (0.5, 1.0, 2.0), 200)


def test_readme_model_sample_and_estimate_commands_run(tmp_path, monkeypatch, capsys):
    # Each command of the CLI block, continuation lines joined, comments dropped.
    block = re.search(r"```sh\n(# generate a random.*?)```", README, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith(("nsgms model", "nsgms sample", "nsgms estimate"))]
    assert [line.split()[1] for line in lines] == ["model", "sample", "estimate", "estimate"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert Path("edges.txt").exists() and capsys.readouterr().out.startswith("rho_min_achieved=")
