"""Golden hashes of ``hamext build`` over the benchmark's (m, n) grid.

The first hash is the sha256 of the printed build document (canonical
text of ``H``, ``H_bar`` and ``K_bar`` plus metadata); the other two are
the order signatures of ``H_bar`` and ``K_bar`` (see
``test_order_signature.py``), which also pin the nested dict insertion
order that numeric evaluation sums in.  A change to the exact ring must
keep all three.
"""

import hashlib

import pytest

from hamext import cli

from test_order_signature import order_signature

# Recorded with the ring as it stood before ParamPoly stored integer
# numerators over a common denominator (Fraction coefficients).
GOLDEN = {
    ("ttw", 1, 1): (
        "2c112f8c55a2d1bdadc7de4dbc62e31000a97a373b84bc2182222e87c79e577b",
        "46ea65537b5c050a936ec633e2b560e98cc27edd25635a77e7826db8674a3fe0",
        "7cc1f509761ee3239f2cb7b77a0286da3d5ded668093ee8d323a2e1cf0c20cd2"),
    ("ttw", 3, 2): (
        "bc621c04daa99332cbb539e2198aa1825f743496bc4d037c786c494e14394755",
        "27ef3a495c9c30067c1fc4e0e5b182df26589e8df039c8812b3a11616d82c811",
        "5d7cb0e3b12b5a388c364881abf6f78112e5c2d4d86bd34234d15537621445f9"),
    ("ttw", 5, 3): (
        "ce03c3c569e235c355942ad4995f09f8c2888b356dc99f0fa8f0d5fc0246f020",
        "f12723742ad8384547dfb01ba2834998382ff052c917d637b50943b564ca2d3f",
        "0ef83a36a58fe1d0cc705a7ddfddc1d1cec74dec2a9ca6fcbd00e572e5426f87"),
    ("ttw", 7, 4): (
        "6717f0632457bed8beec8f7f13fd19da490c6c7f50fd4302c0a60439d19b45f8",
        "329fda24ef757bdd1afbeb1fc92f6129b247b67294ebb93f96cbb6b96890193c",
        "0798271835d9c98e2f54f616869e6ab2af092b129fda9e1ff7934ee7d8d8c0f1"),
    ("cage", 3, 2): (
        "315ff2ba70a0a79f8b6b76874d805f6f12cb8ff127038d1f01430d385c6c4dd2",
        "ce920fb72fffda8791e00e21574843b3344f936a8cb04efed148fb1b998c4fee",
        "5721451c2ccce6d47f2badcacd81900e731843ae53ba7a69b7dba9f7755ee93c"),
    ("cage", 5, 4): (
        "a0b57a5761950dacac009151d11d88eb77ebf2bd25f319e4e6576f59743113d0",
        "dcbabe7ab1b5428c5949b5d0cc1b24df7c86d3c3f47acaf41c7d72233257a280",
        "6ed1338308957117416bd76db329ccdd820ccf8e2041f30f73a834299ef961ae"),
    ("cage", 7, 5): (
        "84d56368ec340db45fd87ebb4315e166fb16c74a59035aaff9b662357b74c640",
        "6b18fa2b4074395627b7fe367921c7edfb02f5986c9beadb945720ff0e5281f1",
        "8ca72e5a11740f8fe6dcb74939c55932be63a2df4adcd7da4aa341e0b0456f0a"),
    ("cage", 9, 7): (
        "5199c2cbbaea7116fff2803e98caef5fb9449bd6c1e3392d4c45104051188ff0",
        "b7c05a09459ac8e84817a15fd5c9a1cda43f6a17098f331a54f6cdf63e7b88d4",
        "adb28d91fc1edd6a391b5410b6b46072122019634fdfe9ce5d19fc046bc115d4"),
}


def build_pins(argv, capsys, monkeypatch):
    """The text sha256 and the H_bar and K_bar order signatures of a build."""
    built = []

    def keep(cfg):
        built.append(build(cfg))
        return built[-1]

    build = cli.build_model
    monkeypatch.setattr(cli, "build_model", keep)
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    spec, = built
    return (hashlib.sha256(text.encode()).hexdigest(),
            order_signature(spec.Hbar), order_signature(spec.Kbar.poly))


@pytest.mark.parametrize("model,m,n", sorted(GOLDEN))
def test_build_pin(model, m, n, capsys, monkeypatch):
    argv = ["build", "--model", model, "--m", str(m), "--n", str(n)]
    assert build_pins(argv, capsys, monkeypatch) == GOLDEN[(model, m, n)]


# The inline model of the benchmark's exact workload: its denominators carry
# Pythagorean factors (sin(u)^2 - 1) that arithmetic leaves uncancelled, and
# multi-term factors that push_factor and _divide_out work through.  The text
# hash was recorded before arithmetic cancelled the factors that divide a
# numerator; the order signatures of H_bar and K_bar, as GOLDEN's, before
# the ring took the monomial content in one pass.
INLINE_GOLDEN = {
    1: ("0c123ea919d7a5649cf561cb60e9a7690ec1d60487563c82d5ee5aaa995400d5",
        "6f25b66d5d69e12028f6611ff3441209614a1aaa6b9df345e7401a616df0b625",
        "c5677cc30ed83f1fbbf6cec2793fa2c46b864e0bd19cd3d075cdcd280af33db0"),
    -1: ("91fca1a73268d297f6390ce353ce1292307b6406bd0c13e1f6ede193ef76f62b",
         "d86a48a37c47920ba61b2d5090a1c764e4f018cbaf62aeb4540eb33a3305942a",
         "397b5e94979ebfe7b2069c73392ea60c95b27786da5c7f49db3be6bbf48089dc"),
}


@pytest.mark.parametrize("kappa", sorted(INLINE_GOLDEN))
def test_inline_build_pin(kappa, capsys, monkeypatch):
    argv = ["build", "--model", "inline", "--c", "1", "--kappa", str(kappa),
            "--A", "1", "--omega", "sym", "--V", "(c1 + c2*cos(q))/sin(q)^2",
            "--eta", "sin(q)", "--m", "4", "--n", "3"]
    assert build_pins(argv, capsys, monkeypatch) == INLINE_GOLDEN[kappa]
