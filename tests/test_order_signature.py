"""Golden signatures of the nested insertion order of built models.

Numeric evaluation walks ``PPoly.terms`` -> ``Poly.terms`` ->
``ParamPoly.terms`` in dict insertion order, so the last digits of every
50-digit residual that ``verify`` prints depend on that order, not only on
the values.  These hashes pin the order and the values at every level for
``H_bar`` and ``K_bar``; a kernel change that keeps values but reorders
terms fails here before it changes a report.
"""

import hashlib

import pytest

from hamext import cage_model, ttw_model
from hamext.cli import build_model, make_config

INLINE_V = "(c1 + c2*cos(q))/sin(q)^2"


def _poly_items(poly):
    return [(m, [(pm, str(c)) for pm, c in pp.terms.items()])
            for m, pp in poly.terms.items()]


def order_signature(ppoly):
    """sha256 over the nested insertion order and values of a PPoly."""
    doc = []
    for pe, c in ppoly.terms.items():
        doc.append((pe, c.den_mono,
                    [(_poly_items(f), k) for f, k in c.den_factors],
                    _poly_items(c.num)))
    return hashlib.sha256(repr(doc).encode()).hexdigest()


def _inline(kappa):
    return build_model(make_config(
        ["build", "--model", "inline", "--c", "1", "--kappa", str(kappa),
         "--A", "1", "--omega", "sym", "--V", INLINE_V, "--eta", "sin(q)",
         "--m", "2", "--n", "1"]))


MODELS = {
    "ttw-2-1": lambda: ttw_model(2, 1),
    "cage-3-2": lambda: cage_model(3, 2),
    "inline-k+1-2-1": lambda: _inline(1),
    "inline-k-1-2-1": lambda: _inline(-1),
}

# Recorded with the construction as it stood before the kernel fast paths.
GOLDEN = {
    "cage-3-2": ("ce920fb72fffda8791e00e21574843b3344f936a8cb04efed148fb1b998c4fee",
                 "5721451c2ccce6d47f2badcacd81900e731843ae53ba7a69b7dba9f7755ee93c"),
    "inline-k+1-2-1": ("27c8e068aacbb9689e61245d592b8a7d78ce099e34bccc868425c20007add351",
                       "669de4ae8a1c977c83eb6a44bc9524c4a4be6f765dcc0a645c76dcb307882cb6"),
    "inline-k-1-2-1": ("59950be70250d6a10f55f0624f8fd0f73d6c0296d306786e071ed310e5188d16",
                       "4e35fb04888fcdf08f055aba4c5f8e72f6d5b103090fd50137fac5eb04e9f67f"),
    "ttw-2-1": ("b1fa0bf350fea0de0f6d87790b734b246da95aa158a8d0743c2ee0fa95492419",
                "cbce3f197df4cce2721a3f83cd9f2e8bb14f208cd727fbb1d43884c57a1a87de"),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_order_signature(name):
    model = MODELS[name]()
    got = (order_signature(model.Hbar), order_signature(model.Kbar.poly))
    assert got == GOLDEN[name]
