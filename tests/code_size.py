"""Size of the din package: the two numbers each change reports.

    python3 tests/code_size.py [CHECKOUT] [--against OTHER_CHECKOUT]

For CHECKOUT (default: the checkout this script lives in) it prints the
line count of every ``src/din/*.py`` file, their total, and the number of
defaulted parameters: parameters with a default value, counted in the AST
of every function, method and lambda of those files. With ``--against`` it
prints OTHER_CHECKOUT's numbers beside them and the difference, CHECKOUT
minus OTHER_CHECKOUT. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path


def measure(checkout: Path) -> dict[str, int]:
    """File name -> line count of each src/din/*.py, then "total" and
    "defaulted parameters"."""
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
    totals = ["total", "defaulted parameters"]
    for name in [*sorted({*ours, *theirs} - {*totals}), *totals]:
        a, b = ours.get(name, 0), theirs.get(name, 0)
        print(f"{name:<22} {a:>6} {b:>6} {a - b:>+6}")


if __name__ == "__main__":
    main()
