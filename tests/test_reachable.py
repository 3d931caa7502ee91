"""Every public name in ``src/repro`` is reached by the running system.

The running system is ``src/repro`` (the CLI included), ``benchmarks/`` and
``examples/``: the *roots*.  ``tests/`` is not one.  The names checked are
the top-level defs and classes of ``src/repro`` and the public methods of
its top-level classes.  A name is *reached* when a root uses it as a name,
an attribute, an import alias or a word inside a string constant.  The
string rule is how ``benchmarks/perf/layers.py`` names its dotted span
targets.  Four uses do not count: a word in a docstring (prose keeps no
code alive), one inside the name's own body, an ``__init__.py`` re-export
or ``__all__`` entry, and one inside a def that is itself unreached.  So reachability is a fixpoint.  Module-level
code is live, a def turns live when live code names it, and a method can
turn live only once its class has.

A public name that only tests use is deleted, or it is listed in
``EXCEPTIONS`` with its reason.  The table must match the scan exactly, so
an entry whose name is reached again, or no longer exists, fails as well.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Set, Tuple

REPO = Path(__file__).resolve().parents[1]

EXCEPTIONS = {
    "repro.eval.stats.paired_t_test": (
        "the paper's significance marks; ROADMAP item 5 wires them into Tables 2/3"
    ),
    "repro.eval.stats.significance_marker": (
        "the mark paired_t_test's p-value becomes in Tables 2/3 (ROADMAP item 5)"
    ),
    "repro.tensor.functional.kl_divergence": (
        "the scalar Eq. 9 reference tests/helpers.py checks the batched KL trigger against"
    ),
    "repro.tensor.tensor.is_grad_enabled": (
        "the read side of no_grad, which the autograd tests assert is restored"
    ),
    "repro.cluster.net.ShardWorkerServer.start_background": (
        "the in-thread shard worker the workers= fleet tests dial instead of a process"
    ),
    "repro.core.state.NeighborTable.append_record": (
        "per-node reference: stack_states' one-record row writer (Settled, References)"
    ),
    "repro.core.state.stack_states": (
        "per-node reference: hand-built records as one table for the packer and "
        "forward tests (Settled, References)"
    ),
    "repro.graph.sampling.sample_wide": (
        "per-node reference sampler the packing and sampler tests draw from (Settled, References)"
    ),
    "repro.graph.sampling.sample_deep": (
        "per-node reference walker the packing and sampler tests draw from (Settled, References)"
    ),
    "repro.graph.halo.k_hop_out": (
        "reproduces EXPERIMENTS.md 'What a shard holds', why a shard is a full replica"
    ),
    "repro.graph.metapath.compose_adjacency": (
        "the materialized meta-path product GTN's hop-wise propagation is tested against"
    ),
    "repro.optim.optimizers.SGD": (
        "no caller; deleting it takes 8 tier-1 tests, so it goes in its own PR (ROADMAP 17)"
    ),
}

WORD = re.compile(r"[A-Za-z_]\w*")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


class Def(NamedTuple):
    qualname: str
    name: str
    owner: Optional[str]  # the class of a method
    uses: Set[str]


def _uses(tree: ast.AST, *, init_file: bool, skip=frozenset()) -> Set[str]:
    """Every word ``tree`` uses, outside docstrings and the subtrees in
    ``skip``."""
    words: Set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        docstring = None
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            if not init_file:
                words.update(node.name.split("."))
                words.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(WORD.findall(node.value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if child not in skip and child is not docstring
        )
    return words


def _module(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _read(repo: Path):
    """The defs under ``src/repro`` and the words module-level code uses."""
    src = repo / "src"
    defs = []
    live_words: Set[str] = set()
    for root in (src / "repro", repo / "benchmarks", repo / "examples"):
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            init_file = path.name == "__init__.py"
            owned = set()
            if root == src / "repro":
                module = _module(path, src)
                for node in tree.body:
                    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        continue
                    owned.add(node)
                    qualname = f"{module}.{node.name}"
                    methods = set()
                    if isinstance(node, ast.ClassDef):
                        for method in node.body:
                            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                                methods.add(method)
                                defs.append(Def(
                                    f"{qualname}.{method.name}", method.name, qualname,
                                    _uses(method, init_file=init_file),
                                ))
                    defs.append(Def(
                        qualname, node.name, None,
                        _uses(node, init_file=init_file, skip=methods),
                    ))
            live_words |= _uses(tree, init_file=init_file, skip=owned)
    return defs, live_words


def scan(repo: Path) -> Tuple[Set[str], Set[str]]:
    """``(public names, unreached public names)`` of ``repo``'s ``src/repro``."""
    defs, live_words = _read(repo)
    live: Set[str] = set()
    grew = True
    while grew:
        grew = False
        for item in defs:
            if item.qualname in live:
                continue
            if item.owner is None:
                reached = item.name in live_words
            else:  # a private or dunder method lives and dies with its class
                reached = item.owner in live and (
                    item.name.startswith("_") or item.name in live_words
                )
            if reached:
                live.add(item.qualname)
                live_words |= item.uses
                grew = True
    public = {item.qualname for item in defs if not item.name.startswith("_")}
    # A method of an unreached class is reported as its class.
    unreached = {
        item.qualname
        for item in defs
        if item.qualname in public
        and item.qualname not in live
        and (item.owner is None or item.owner in live)
    }
    return public, unreached


@lru_cache(maxsize=None)
def _repo_scan():
    return scan(REPO)


def test_every_public_name_is_reached_or_excepted():
    _, unreached = _repo_scan()
    missing = sorted(unreached - set(EXCEPTIONS))
    assert not missing, (
        "public names no root reaches (delete them, or list them in EXCEPTIONS "
        "with a reason):\n" + "\n".join(missing)
    )


def test_exceptions_are_current():
    public, unreached = _repo_scan()
    gone = sorted(set(EXCEPTIONS) - public)
    reached = sorted((set(EXCEPTIONS) & public) - unreached)
    assert not gone, "EXCEPTIONS lists names that no longer exist:\n" + "\n".join(gone)
    assert not reached, "EXCEPTIONS lists names a root now reaches:\n" + "\n".join(reached)
    for name, reason in EXCEPTIONS.items():
        assert reason.strip() and "\n" not in reason, f"{name} needs a one-line reason"


def _write(tree: Dict[str, str], base: Path) -> Path:
    for relative, text in tree.items():
        path = base / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return base


def test_scan_rules_on_a_small_tree(tmp_path):
    repo = _write(
        {
            "src/repro/__init__.py": "from repro.mod import exported\n__all__ = ['exported']\n",
            "src/repro/mod.py": (
                "def used():\n    return helper()\n\n"
                "def helper():\n    return 1\n\n"
                "def recursive():\n    return recursive()\n\n"
                "def exported():\n    return dead_chain()\n\n"
                "def dead_chain():\n    return 2\n\n"
                "def named_in_a_string():\n    return 3\n\n"
                "def named_in_a_docstring():\n    return 8\n\n"
                "class Box:\n"
                "    def open(self):\n        return 4\n\n"
                "    def unused(self):\n        return 5\n\n"
                "    def _private(self):\n        return later()\n\n"
                "def later():\n    return 6\n\n"
                "class Unused:\n    def open(self):\n        return 7\n"
            ),
            "benchmarks/bench.py": (
                '"""Calls used(); named_in_a_docstring is only mentioned."""\n'
                "from repro.mod import used\n"
                "TARGETS = ['mod.named_in_a_string']\n"
                "used()\nBox().open()\n"
            ),
            "examples/demo.py": "print('no names here')\n",
        },
        tmp_path,
    )
    public, unreached = scan(repo)
    assert "repro.mod.Unused.open" in public
    assert unreached == {
        "repro.mod.recursive",  # only its own body names it
        "repro.mod.exported",  # only a re-export and __all__ name it
        "repro.mod.dead_chain",  # only an unreached def names it
        "repro.mod.named_in_a_docstring",  # prose is not a use
        "repro.mod.Box.unused",
        "repro.mod.Unused",  # reported as the class, not its methods
    }
