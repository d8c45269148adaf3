"""Every public function and class of the package has a caller in the package.

A public module-level name of ``src/depthforge`` that nothing in ``src/``
references, outside its own definition, is code only the tests use.  The one
exception is a name the benchmark's tracer (``perfbench/tracing.py``) wraps
by name, which must stay until the benchmark drops it.  Those names are
listed in ``TRACER_PINNED``, and the list is exact: a listed name that gains a
caller, or leaves the tracer, fails too.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "depthforge"

TRACER_PINNED = {
    "depthlie.sigma_leading",
    "exactla.rref",
    "ncalg.ihara_bracket",
    "periodpoly.subspace_equal",
    "repcalc.character_decompose",
}


def _names(tree: ast.AST) -> list[str]:
    """Every name and attribute the tree reads or binds, as spelled."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]


def _uncalled() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    # a name is uncalled when every use of it sits in its own definition, as a recursive call does
    return {
        "%s.%s" % (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and uses[node.name] == _names(node).count(node.name)
    }


def _tracer_wrapped() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {"%s.%s" % (module, name) for module, funcs in tracing.WRAPPED.items() for name in funcs}


def test_every_public_name_has_a_caller_in_the_package():
    assert _uncalled() - TRACER_PINNED == set()


def test_the_pinned_list_is_exact():
    assert TRACER_PINNED - _uncalled() == set(), "these pinned names have a caller now; unpin them"
    assert TRACER_PINNED <= _tracer_wrapped()
