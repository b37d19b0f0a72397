"""README drift guard: its commands parse, the repo paths and environment
variables it names exist, and its config example is valid."""
import json
import re
import shlex
from pathlib import Path

from fracsim import config_from_dict
from fracsim.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_commands_parse_and_paths_exist():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^\s*```sh\n(.*?)^\s*```", text, re.M | re.S)
    commands = [line.strip() for block in blocks for line in block.splitlines()
                if line.strip().startswith("fracsim ")]
    assert len(commands) >= 8
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.fn), line

    paths = re.findall(r"`((?:src|tests|scripts|perfbench)/[^`\s]*)`", text)
    assert paths
    missing = [p for p in paths if not (ROOT / p).exists()]
    assert missing == []


def test_readme_env_vars_exist_and_config_parses():
    text = (ROOT / "README.md").read_text()
    source = "".join(p.read_text() for p in (ROOT / "src" / "fracsim").glob("*.py"))
    stale = [name for name in set(re.findall(r"FRACSIM_[A-Z_]+", text))
             if name not in source]
    assert stale == []

    (block,) = re.findall(r"^```json\n(.*?)^```", text, re.M | re.S)
    config_from_dict(json.loads(block))
