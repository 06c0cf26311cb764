"""Print the code size of the favlab library.

    python3 tools/code_size.py

Per module under src/favlab, the count of lines that are neither blank nor
comments, then the count of settable parameters: function parameters with
a default value.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "favlab"


def code_lines(text: str) -> int:
    """Lines that are neither blank nor comments (docstrings count)."""
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.strip().startswith("#"))


def defaulted_params(tree: ast.AST) -> int:
    """Parameters with a default, over every function and lambda."""
    return sum(len(node.args.defaults)
               + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)))


def main() -> int:
    total_lines = total_params = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = code_lines(text)
        params = defaulted_params(ast.parse(text))
        total_lines += lines
        total_params += params
        print(f"{path.name:20} {lines:5} lines {params:3} settable")
    print(f"{'total':20} {total_lines:5} lines {total_params:3} settable")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
