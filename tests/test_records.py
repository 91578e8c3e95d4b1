"""Record types: value equality where the code relies on it, and no class
generated by ``dataclasses`` at import but ``Scene``."""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

from isodeform.codazzi import Explicit, GHPair, MinusA, Parallel
from isodeform.expr import BinOp, Call, Num, Pi, Var, intern, parse
from isodeform.scene import parse_scene

SRC = Path(__file__).resolve().parent.parent / "src" / "isodeform"


@pytest.mark.parametrize(
    "a, b", [(Num(0.0), Var(0)), (Pi(), Num(math.pi)), (Num(1.0), Num(2.0))]
)
def test_nodes_of_another_kind_or_value_are_unequal_and_never_merged(a, b):
    assert a != b and b != a
    (row,), shared = intern(((a, b, a),), 1)
    assert row[0] is row[2] and row[1] is not row[0]
    assert (type(row[0]), type(row[1])) == (type(a), type(b))
    assert shared == {}


def test_equal_asts_with_different_spans_are_equal_and_hash_alike():
    tight, loose = parse("sin(u1)+2*u2", 2), parse("sin( u1 ) + 2 * u2", 2)
    assert tight.span != loose.span and tight.left.arg.span != loose.left.arg.span
    assert tight == loose and hash(tight) == hash(loose)
    assert tight == BinOp("+", Call("sin", Var(0)), BinOp("*", Num(2.0), Var(1)))
    assert tight != parse("sin(u1)+2*u1", 2)


def test_sources_compare_by_value_and_kind():
    assert Parallel(1.0) == Parallel(1.0) != MinusA()
    assert Parallel(1.0) != Parallel(2.0) and MinusA() == MinusA()
    used = GHPair("u1*u2", "0.1*u1")
    used.asts(2)  # the parse cache stays out of equality
    assert used == GHPair("u1*u2", "0.1*u1") != GHPair("u1*u2", "0.2*u1")
    entries = (("1", "u1"), ("u1", "1"))
    assert Explicit(entries) == Explicit(entries) != Explicit((("1", "0"), ("0", "1")))


def test_scene_stays_a_dataclass_for_replace():
    scene = parse_scene("[chart]\ncatalog = sphere3\n[codazzi]\nvariant = minusA\n")
    small = dataclasses.replace(scene, grid=(3, 3, 3))
    assert small.grid == (3, 3, 3) and scene.grid == (9, 9, 9)
    assert small.chart is scene.chart and small.spec == scene.spec


def test_scene_is_the_only_dataclass():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
                        found.append(f"{path.stem}.{node.name}")
    assert found == ["scene.Scene"]
