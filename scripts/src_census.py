#!/usr/bin/env python3
"""Size census of the package source: lines and defaulted parameters.

Prints the line count of src/nsvlab/*.py and the number of function
parameters that carry a default (positional and keyword-only, counted with
ast over every def and lambda), per module and in total.

Example:
    python scripts/src_census.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nsvlab"


def defaulted_parameters(tree: ast.AST) -> int:
    """Defaulted positional and keyword-only parameters of every def and lambda."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def main():
    lines = defaults = 0
    print(f"{'module':<18}{'lines':>7}{'defaulted':>11}")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        n_lines, n_defaults = len(text.splitlines()), defaulted_parameters(ast.parse(text))
        lines, defaults = lines + n_lines, defaults + n_defaults
        print(f"{path.name:<18}{n_lines:>7}{n_defaults:>11}")
    print(f"{'total':<18}{lines:>7}{defaults:>11}")


if __name__ == "__main__":
    main()
