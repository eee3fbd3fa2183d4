"""Size of the din package: the two numbers each change reports.

    python3 tests/code_size.py [CHECKOUT] [--against OTHER_CHECKOUT]

For CHECKOUT (default: the checkout this script lives in) it prints the
line count of every ``src/din/*.py`` file, their total, the number of
defaulted parameters (parameters with a default value, counted in the AST
of every function, method and lambda of those files) and the number of CLI
options (the option strings of every ``din`` subcommand, ``--help`` aside,
read from ``din.cli.build_parser()`` in a child process that imports the
checkout's ``src``). With ``--against`` it prints OTHER_CHECKOUT's numbers
beside them and the difference, CHECKOUT minus OTHER_CHECKOUT. This script
uses only the standard library; the child needs din's own dependencies.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

# Run in the child: the option strings of every din subcommand but --help.
COUNT_OPTIONS = """
import argparse
from din.cli import build_parser
sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
print(sum(len(a.option_strings) for p in sub.choices.values() for a in p._actions
          if not isinstance(a, argparse._HelpAction)))
"""


def cli_options(checkout: Path) -> int:
    """The number of option strings of every din subcommand of `checkout`."""
    src = checkout.resolve() / "src"
    done = subprocess.run([sys.executable, "-c", COUNT_OPTIONS], cwd=src, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: cannot count the CLI options:\n{done.stderr}")
    return int(done.stdout)


def measure(checkout: Path) -> dict[str, int]:
    """File name -> line count of each src/din/*.py, then "total",
    "defaulted parameters" and "cli options"."""
    counts: dict[str, int] = {}
    defaulted = 0
    for path in sorted((checkout / "src" / "din").glob("*.py")):
        text = path.read_text()
        counts[path.name] = len(text.splitlines())
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaulted += len(node.args.defaults)
                defaulted += sum(d is not None for d in node.args.kw_defaults)
    if not counts:
        raise SystemExit(f"{checkout}: no src/din/*.py files")
    counts["total"] = sum(counts.values())
    counts["defaulted parameters"] = defaulted
    counts["cli options"] = cli_options(checkout)
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).parents[1])
    parser.add_argument("--against", type=Path, help="checkout to compare with")
    args = parser.parse_args()
    ours = measure(args.checkout)
    if args.against is None:
        for name, value in ours.items():
            print(f"{name:<22} {value:>6}")
        return
    theirs = measure(args.against)
    print(f"{'':<22} {'this':>6} {'other':>6} {'diff':>6}")
    totals = ["total", "defaulted parameters", "cli options"]
    for name in [*sorted({*ours, *theirs} - {*totals}), *totals]:
        a, b = ours.get(name, 0), theirs.get(name, 0)
        print(f"{name:<22} {a:>6} {b:>6} {a - b:>+6}")


if __name__ == "__main__":
    main()
