"""Every backticked private name (`_name` or `module._name`) in the README
and in the docstrings and comments of the package names something the
package defines: a function, class or assigned name, or a memo slot that
a string literal gives to `_algebra_memo` or `_kept`.  A helper that is
renamed or retired leaves no stale reference behind."""

import ast
import io
import os
import re
import tokenize

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "gentlelam")
PRIVATE = re.compile(r"`(?:[A-Za-z]\w*\.)*(_[A-Za-z]\w*)")
MEMOS = {"_algebra_memo", "_kept"}


def sources():
    out = {}
    for f in sorted(os.listdir(PACKAGE)):
        if f.endswith(".py"):
            with open(os.path.join(PACKAGE, f), encoding="utf-8") as fh:
                out[f] = fh.read()
    return out


def defined(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "id", None) in MEMOS:
                names |= {a.value for a in node.args
                          if isinstance(a, ast.Constant)}
    return names


def prose(text, tree):
    """The docstrings and comments of one module."""
    docs = [ast.get_docstring(node, clean=False) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]
    comments = [tok.string for tok in tokenize.generate_tokens(
        io.StringIO(text).readline) if tok.type == tokenize.COMMENT]
    return [d for d in docs if d] + comments


def test_every_backticked_private_name_is_defined():
    texts = sources()
    trees = {f: ast.parse(text, f) for f, text in texts.items()}
    names = defined(trees.values())
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        places = {"README.md": [fh.read()]}
    places.update({f: prose(text, trees[f]) for f, text in texts.items()})
    found = {(place, name) for place, chunks in places.items()
             for chunk in chunks for name in PRIVATE.findall(chunk)}
    assert len(found) > 50
    assert not {(place, name) for place, name in found
                if name not in names}
