import argparse
import os
import re
import shlex

from splr import cli

from .test_cli import REPORT_KEYS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_section(title):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def table_rows(section, lead):
    """The cells of each body row of the table that follows the line lead."""
    table = section.split(lead + "\n\n", 1)[1].split("\n\n", 1)[0]
    return [[cell.strip() for cell in row.strip("|").split("|")]
            for row in table.splitlines()[2:]]


def subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, action.choices


def test_readme_quick_start_runs_as_written():
    # The block is read from README.md, so a quick start that drifts from
    # the library fails here.
    section = readme_section("Library quick start")
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md (Library quick start)", "exec"), {})


def test_readme_usage_commands_parse():
    # Every example command parses as written, and every command has one.
    block = re.search(r"```sh\n(.*?)```", readme_section("Usage"), re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("splr ")]
    parser, commands = subparsers()
    shown = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert shown == set(commands)


def test_readme_flag_table_matches_parser():
    # One row per (command, flag) pair the parser accepts, and no others.
    documented = set()
    for cmds, flags, _default, _valid in table_rows(
            readme_section("Usage"),
            "Flags, with their defaults and valid values; NaN fails every numeric check."):
        documented |= {(cmd.strip(), flag)
                       for cmd in cmds.split(",") for flag in re.findall(r"`(--[\w-]+)`", flags)}
    _, commands = subparsers()
    accepted = {(name, option)
                for name, sub in commands.items()
                for action in sub._actions for option in action.option_strings
                if option.startswith("--") and option != "--help"}
    assert documented == accepted


def test_readme_report_keys_match_cli():
    rows = table_rows(readme_section("Usage"), "The `decompose` report carries exactly these keys:")
    keys = {key for row in rows for key in re.findall(r"`(\w+)`", row[0])}
    assert keys == REPORT_KEYS


def test_readme_exit_codes_match_cli():
    rows = table_rows(readme_section("Usage"), "Exit codes:")
    codes = [int(row[0]) for row in rows]
    assert sorted(codes) == sorted(value for name, value in vars(cli).items()
                                   if name.startswith("EXIT_"))
