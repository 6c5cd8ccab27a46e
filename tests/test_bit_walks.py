"""The lowest-set-bit walk has one owner: every ``X & -X`` in the library
sits in ``boolmat._mask_elems``, which splits a bit set into its
elements, and ``OWNERS`` names it alone.  The one bit walk the cell
search ``complex._search`` keeps inline, over a node's blocks with kept
entries, goes from the top bit with ``bit_length`` and has no
``X & -X``: ``_mask_elems``'s cache must not keep the search's bit sets
of blocks.  The search fills its rule tables before it walks, by block
number, so that step walks no bit set.  Everything else calls
``_mask_elems``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropface"
OWNERS = {("boolmat", "_mask_elems")}


def _lowest_bit_sites(tree: ast.Module) -> list:
    """(line, enclosing top-level function or class, else None) of every
    ``X & -X``, in either operand order, ``X`` any expression."""
    sites = []
    for top in tree.body:
        name = getattr(top, "name", None)
        for node in ast.walk(top):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.BitAnd)):
                continue
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if (isinstance(b, ast.UnaryOp) and isinstance(b.op, ast.USub)
                        and ast.dump(b.operand) == ast.dump(a)):
                    sites.append((node.lineno, name))
                    break
    return sites


def test_lowest_bit_walks_have_one_owner():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        stray += [(path.name, line, name)
                  for line, name in _lowest_bit_sites(tree)
                  if (path.stem, name) not in OWNERS]
    assert stray == []


def test_lowest_bit_walk_is_found():
    tree = ast.parse("def f(m):\n"
                     "    return m & -m\n"
                     "class C:\n"
                     "    def g(self, a):\n"
                     "        return -a[0] & a[0]\n"
                     "def h(m, k):\n"
                     "    return (m & -k, m & ~m, m & (-m + 1))\n"
                     "low = (1 << 3) & -(1 << 3)\n")
    assert _lowest_bit_sites(tree) == [(2, "f"), (5, "C"), (8, None)]
