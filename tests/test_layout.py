"""What src/hgm_ehr holds: code the pipeline runs, not code only tests call.

Oracles and other test-only helpers live in tests/oracles.py. A function,
class, method or class-body assignment (such as `x = property(...)`) that
no src module references is test-only, unless it is on the allowlist below.
"""

import ast
from pathlib import Path

import hgm_ehr

SRC = Path(hgm_ehr.__file__).parent

# Defined in src/ but referenced by no other src/ code, each kept on purpose.
ALLOWED_UNREFERENCED = {
    # The public loss and gradient of the training step: criterion 1 checks
    # the training path's own loss and gradient through them.
    "ns_loss",
    "ns_grad",
    # Hooked or probed by perfbench by name, so they stay until the benchmark
    # revision stops pinning them.
    "sample_negatives",
    "n_positives",
    "neg_labs",
    "neg_diagnoses",
    "neg_patients",
    "neg_temporal",
    "normalize_records",
}


def defined_and_referenced():
    """(top-level functions and classes, their methods and the names their bodies
    assign, less dunders; every name and attribute that a module other than
    __init__.py loads). Annotated class-body names, the fields of dataclasses and
    named tuples, are not counted as defined."""
    defined, referenced = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defined.add(member.name)
                    elif isinstance(member, ast.Assign):
                        defined.update(target.id for target in member.targets
                                       if isinstance(target, ast.Name))
        if path.name != "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    referenced.add(node.attr)
    dunders = {name for name in defined if name.startswith("__") and name.endswith("__")}
    return defined - dunders, referenced


def test_src_defines_nothing_only_tests_call():
    defined, referenced = defined_and_referenced()
    assert defined - referenced == ALLOWED_UNREFERENCED
