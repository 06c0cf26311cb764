"""Print the code size of the favlab library.

    python3 tools/code_size.py
    python3 tools/code_size.py --against REV

Per module under src/favlab, the count of lines that are neither blank nor
comments, then the count of settable parameters: function parameters with
a default value.  With --against, each module's figures at the git
revision REV (read with `git show REV:src/favlab/<module>`), at the work
tree, and the change between them; a module missing on one side counts 0.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "favlab"


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


def size(text: str) -> tuple[int, int]:
    """(code lines, settable parameters) of one module's source."""
    return code_lines(text), defaulted_params(ast.parse(text))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def sizes_at(rev: str | None) -> dict[str, tuple[int, int]]:
    """Per module name, its size at the git revision rev, or in the work
    tree when rev is None."""
    if rev is None:
        return {p.name: size(p.read_text()) for p in SRC.glob("*.py")}
    names = _git("ls-tree", "--name-only", f"{rev}:src/favlab").split()
    return {name: size(_git("show", f"{rev}:src/favlab/{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also print the sizes at git revision REV and "
                             "the change from it")
    args = parser.parse_args(argv)
    sides = [sizes_at(None)]
    if args.against is not None:
        sides.insert(0, sizes_at(args.against))
        print(f"{'':20} {args.against:>23}  {'work tree':>23}  "
              f"{'delta':>23}")
    table = {name: [side.get(name, (0, 0)) for side in sides]
             for name in sorted(set().union(*sides))}
    table["total"] = [tuple(map(sum, zip(*(cols[i] for cols in
                                           table.values()))))
                      for i in range(len(sides))]
    for name, cols in table.items():
        if args.against is not None:
            cols.append((cols[1][0] - cols[0][0], cols[1][1] - cols[0][1]))
        sign = ["", "", "+"] if args.against is not None else [""]
        print(f"{name:20} " + "  ".join(
            f"{lines:{s}5} lines {params:{s}3} settable"
            for (lines, params), s in zip(cols, sign)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
