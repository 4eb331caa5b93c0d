"""Seeded verification reports stay byte for byte what they were.

Each entry is the sha256 of the reprs of the reports that explicit random
mode (two seeds, 40,000 samples: two chunks) and, at n <= 10, exhaustive
and auto mode give for a circuit and two kind-swap mutants of it.  The
table was made by the verifier before auto mode could prove, so it pins
the seeded stream, the chunking and the counterexamples of the sampled
and exhaustive paths.
"""

import hashlib

import pytest

from addergen.circuit import AND, BUF, NAND, NOR, NOT, OR, XOR, Circuit
from addergen.families import AdderSpec, build_adder, build_full_adder
from addergen.semantics import verify_adder, verify_full_adder

# kind code -> the code a kind swap gives it (same arity)
SWAP = {AND: OR, OR: AND, XOR: OR, NOT: BUF, BUF: NOT, NAND: NOR, NOR: NAND}


def kind_swaps(c):
    """Two copies of c with one gate's kind swapped: the middle gate and
    the last."""
    gates = [nid for nid, code in enumerate(c._codes) if code]
    out = []
    for nid in (gates[len(gates) // 2], gates[-1]):
        codes = c._codes[:]
        codes[nid] = SWAP[codes[nid]]
        out.append(Circuit(c.name, codes, c._f0, c._f1, c.output_ids))
    return out


def report_digest(family, n, full):
    spec = AdderSpec(family, n)
    c = build_full_adder(spec) if full else build_adder(spec)
    verify = verify_full_adder if full else verify_adder
    modes = ["random"] + (["exhaustive", "auto"] if n <= 10 else [])
    reprs = [repr(verify(x, n, mode=mode, samples=40_000, seed=seed))
             for x in [c] + kind_swaps(c) for mode in modes
             for seed in (0xC0FFEE, 7)]
    return hashlib.sha256("\n".join(reprs).encode()).hexdigest()


DIGESTS = {
    "brent-kung/5/carry": "5b1a9f33447c002b001c60b9f1d1a264b882cbe5feef3f753175eb4579d403c7",
    "brent-kung/5/full": "8fafe35d4ab21e28e120265560555d61eca5cfd041f52cc33e8553d8b8534908",
    "brent-kung/33/carry": "fad00ed2e05fefe48640856d87eb311992e51f7e53591612889bfe45e6ee80ad",
    "brent-kung/33/full": "66b469e5e0f099efd708baadca790c33e9a4cb2f6477865391c1cd9579aa4876",
    "brent-kung/100/carry": "89a4993b4609097474c19d572889299fcb4d039dee70536dc0cfd10b72f644fc",
    "brent-kung/100/full": "04d73ab459ada69f018d12c00c063181c1a4122647589f5c8f19abadeb91b047",
    "kogge-stone/5/carry": "851348c1af53ee4d8d2fc689323feee6ae20ba7e5c66b0edfb5d3363ba6ba40b",
    "kogge-stone/5/full": "b3eb9826e76527b0cbdc6fd2da6428a9700a9a1aa1b3ee0b7100c8fe66a05397",
    "kogge-stone/33/carry": "49c794906ab290d6f6cfbbf5008a4636f7ee970a843866e29f75cd69c3540e7f",
    "kogge-stone/33/full": "781b2858bc4e99dcf6ebe4a8127e1b6d8d96b7bf9d504f2922217a9379afe86d",
    "kogge-stone/100/carry": "59fca084849b8a681f02292234cb8d561ba8ff3bcec99831a4dc9e20fec3d714",
    "kogge-stone/100/full": "5b936cdec278d0a44ae75f59880ea1f2d3b3eb1c814cffec411cf553bba8c684",
    "linear/5/carry": "f675938b084d79d7de421714ae1a2f5a2845931581df1a181d9cf6f90ed258e8",
    "linear/5/full": "829b50a65351959f041475e33b1eb28cb4f75361ea4ca2b21ace7ef35e08f3fc",
    "linear/33/carry": "8b4f34b87fc3345953c2547f4d70a4bd96a583e0fb448ea74c258604f1fba66b",
    "linear/33/full": "642a3b2ef6ca95f464f09e0ae195ea4680bd2dd56363c826ab2c4184e2786fa0",
    "linear/100/carry": "1ae90ae52ded2f8d9a24d6776935f4163f9fd6bc5a0c7c73ae3e6705641e72d2",
    "linear/100/full": "72aa7f860d0fc1418c83c67aa8dce70c41b78a3552635c0e1f223e03e1ecd524",
    "mig/5/carry": "8564e79ba36152a8431a8153f30d58a11b2e908067b515073fa7601fb201b6f9",
    "mig/5/full": "ab55e99bdcf51974b5d156285e827385a49decf32beb608575d72273bdcf52e9",
    "mig/33/carry": "fcafc658ec81b5b2d34561ac63daccb1cdd2cd211890c77c807bd9dbed09fe62",
    "mig/33/full": "00a1c1a46d437a59cfbb9fa9fb6fa68a6d948490bed08fcc4f56c17b39674c58",
    "mig/100/carry": "198d90bf1bbda90411fd12854972f0427530c3168c6d2c6471f6dc238a23fe46",
    "mig/100/full": "52ddd0d904c9fc92c5e5f5657e45c2d7d397c2df470dc0a06af001f69a35154f",
    "nandnor/5/carry": "e703e600ce23f8a2c4623f54568b682d0800d6f156439d1a6ef6567f8c140b65",
    "nandnor/5/full": "fa50097172c738a76406f1ad89cd46579647a2d5b1e64f04070247d715a054a1",
    "nandnor/33/carry": "58420c43d3d806796d23b634453e64a6f4932e0e4d055da53afd33dc00346c50",
    "nandnor/33/full": "12c78fc134be4d87d9081b1994d13d031db560e471b85d3d71a80b9d88387851",
    "nandnor/100/carry": "e18b136ecdcdeb6dfe3a6eb52820439404809bf81f45fa7177f77f70cc403238",
    "nandnor/100/full": "680d05bb68ab9d23358187854381e797a11353a177b888be1e02f478776bac63",
    "ripple/5/carry": "ef3effa9837f0f8329f33c30cc5abb7d728bb135deb87f274c832ffe8c6c1f34",
    "ripple/5/full": "b7f2f5304e5e8de089258380ede8f9210fae88cf69e9bc4d33b53b0068a12ee3",
    "ripple/33/carry": "6683a19a4c782895edcee771d61c07d24987bd64868df2b493702feacb3f38d1",
    "ripple/33/full": "67416203f0224ab66668ced134920c51d003976544d27514933a21f224241879",
    "ripple/100/carry": "38691a6a70788d47ce3b2032af07f8cdce2fb7f0ec6b1c5da66f248909ee65b7",
    "ripple/100/full": "cfb79f5128b0af02f2ea245960edc3dda8064ccde0cce521f26c4a8e679be0c4",
    "sklansky/5/carry": "9e171398ec734c2270fb3835f877e40393ec16cad89b91b70555608fe7b96ec4",
    "sklansky/5/full": "c6b2b67f7304eb5419e60a6689a17da31dc69177c429a7f511e06628dd8b6d01",
    "sklansky/33/carry": "1b972b71a2f55ce49c9960725dec25263b9e5aa70dc1469bdab3eea0c40d18ce",
    "sklansky/33/full": "6bc168d05778f649ff122804a2af43be92d05bf830bf05e88b2ee3a4ddafb5ed",
    "sklansky/100/carry": "4474c2c5619ce76339c4f023b89bc42cb0f4393f9ace7a9862ff87867e91e7e0",
    "sklansky/100/full": "2a8fd35e22f6ff36de8b57842d840873f61833bd9545241d44ddcc9831597ee5",
}


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_seeded_report_is_unchanged(key):
    family, n, kind = key.split("/")
    assert report_digest(family, int(n), kind == "full") == DIGESTS[key]
