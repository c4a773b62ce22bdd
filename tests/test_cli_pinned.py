"""Pinned CLI output: the SHA-256 of stdout and of every file written by a
fixed set of `scx` runs, on inputs made from fixed seeds.

The runs cover the verbs whose output goes through the S-map constructors:
`suspend --n` ±1..3, `tensor`, `cone`, `atomic --n` −3..4, `heights-compose`
(text and `--json`), `triangle-verify`, `froyshov --json` and `equivariant
--exactness`.  Inputs and outputs use paths relative to the working
directory, so "wrote ..." lines do not depend on where the test runs.  The
input documents are hashed as well: they pin `morphism_to_json`,
`height_to_json` and `triangle_to_json` of the seeded objects.  The digests
were recorded before the S-map constructors placed pieces straight into the
stored total, and every change since has kept them."""

import hashlib
import json
import random

from scx.cli import main
from scx.heights import HeightMorphism, height_to_json, iota, kappa
from scx.randgen import rand_morphism, rand_scomplex
from scx.rings import Q, Zp
from scx.scomplex import morphism_to_json, save_scomplex
from scx.triangles import cone_triangle, triangle_to_json


def _sha(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _inputs(tmp_path):
    """Write the seeded input documents; return their names."""
    rng = random.Random("pinned cli")
    x = rand_scomplex(Q, rng, max_rank=4, r_perfect=True, allow_cone=False)
    while x.delta1.is_zero or x.delta2.is_zero:
        x = rand_scomplex(Q, rng, max_rank=4, r_perfect=True, allow_cone=False)
    y = rand_scomplex(Zp(2), rng, max_rank=4, r_perfect=True, allow_cone=False)
    save_scomplex(x, tmp_path / "x.json")
    save_scomplex(y, tmp_path / "y.json")
    docs = {
        "f.json": morphism_to_json(rand_morphism(x, x, rng, 0)),
        "iota2.json": height_to_json(iota(x, 2)),
        "kappa2.json": height_to_json(kappa(x, 2)),
        "kappa1.json": height_to_json(kappa(x, 1)),
        "h.json": height_to_json(HeightMorphism.from_morphism(rand_morphism(x, x, rng, 0))),
        "tri.json": triangle_to_json(cone_triangle(rand_morphism(x, x, rng, 0))),
        "tri_y.json": triangle_to_json(cone_triangle(rand_morphism(y, y, rng, 0))),
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc, indent=1, sort_keys=True))
    return ["x.json", "y.json", *docs]


_RUNS = [
    *(("suspend", "--in", src, "--n", str(n), "--out", "out.json")
      for src in ("t6.json", "x.json") for n in (-3, -2, -1, 1, 2, 3)),
    ("tensor", "--a", "t6.json", "--b", "k5.json", "--out", "out.json"),
    ("tensor", "--a", "x.json", "--b", "x.json", "--out", "out.json"),
    ("cone", "--map", "f.json", "--out", "out.json"),
    *(("atomic", "--n", str(n), "--out", "out.json") for n in range(-3, 5)),
    ("atomic", "--n", "3", "--ring", "z2", "--modulus", "2", "--out", "out.json"),
    *(("heights-compose", "--f", f, "--g", g, *flag)
      for f, g in (("kappa2.json", "iota2.json"), ("iota2.json", "kappa2.json"),
                   ("kappa1.json", "h.json"), ("kappa2.json", "h.json"),
                   ("h.json", "iota2.json"))
      for flag in ((), ("--json",))),
    *(("triangle-verify", "--in", src, *flag)
      for src in ("tri.json", "tri_y.json") for flag in ((), ("--json",))),
    ("froyshov", "--in", "t6.json", "--ring", "frac-laurent", "--json"),
    ("froyshov", "--in", "x.json", "--json"),
    ("froyshov", "--in", "y.json", "--json"),
    ("equivariant", "--in", "x.json", "--exactness", "--json"),
    ("equivariant", "--in", "t6.json", "--ring", "frac-laurent", "--flavor", "check",
     "--n", "3", "--exactness"),
    ("equivariant", "--in", "y.json", "--flavor", "bar", "--n", "2", "--exactness", "--json"),
]


def pinned_digests(tmp_path, monkeypatch, capsys):
    """{run: (exit code, sha256 of stdout, sha256 of out.json or None)}, and
    the input documents' digests under their names."""
    monkeypatch.chdir(tmp_path)
    assert main(["family", "--name", "torus-link", "--k", "3", "--out", "t6.json"]) == 0
    assert main(["family", "--name", "torus-knot", "--k", "5", "--out", "k5.json"]) == 0
    got = {name: _sha((tmp_path / name).read_bytes())
           for name in ["t6.json", "k5.json", *_inputs(tmp_path)]}
    capsys.readouterr()
    for argv in _RUNS:
        out = tmp_path / "out.json"
        if out.exists():
            out.unlink()
        code = main(list(argv))
        written = _sha(out.read_bytes()) if out.exists() else None
        got[" ".join(argv)] = (code, _sha(capsys.readouterr().out), written)
    return got


# recorded before the one-pass placement of S-maps
_PINNED = {'t6.json': '21dec5ee6f264336d57e229899de1c6265d88127bd3ec374624e36bc9d751544',
 'k5.json': 'e9033a0f5dd56461f70950a01a20c8a3ea8341bd4cc806975c330fc00c1ce10a',
 'x.json': 'ef01ffd73659dbc2a1cff09874f5626cd94960989f737eb61157380d19d2c809',
 'y.json': 'ce880c12da03bc2b98ae5c7140f33d6c9ad731f687b82457b9509a6cb7fd3aec',
 'f.json': '77503ee0d4044d2d4caea3110379cccc9319528657cb45bd0559c3666720f02b',
 'iota2.json': 'd230663baa610972e9c20bed8b3f4d000923dcf343941e1d2c9f810b11ebcad3',
 'kappa2.json': '39764bdaac4f1a17b4934ba620c91303dd284db012a8407c08dc1badd945cab8',
 'kappa1.json': 'cb0972b26611741086b1f1e4fe232462fd8a4634bb3f0c4aece3a91d507a5d65',
 'h.json': 'af4817ffae93cd3194aba7f8691749901ed189074dfeca283277640736b22eea',
 'tri.json': 'b38320ea5c9ca9c03a948d06b8b464ee20791fde90aafed6ba0808dd31a1d709',
 'tri_y.json': 'ff2386f2cd83e5a6dd717b89574750af5347e8b658da60ce4288bc93f4422074',
 'suspend --in t6.json --n -3 --out out.json': (0,
                                                '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                                '937a2359c745aa895e1e5a98fbb28a27821c0fb6c0481fadb5a432dc5d8793cd'),
 'suspend --in t6.json --n -2 --out out.json': (0,
                                                '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                                '37e89a37c958c70ab0302af1306a4ae418feb71e44f9a1182d05c9c59b3df742'),
 'suspend --in t6.json --n -1 --out out.json': (0,
                                                '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                                '3d516e89429c85dc9e5e95b6d7048f5a9b1aeac27b2606759bd97cabb733ab6d'),
 'suspend --in t6.json --n 1 --out out.json': (0,
                                               '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                               '81eb93f52c19ba553e993d8b01b743c5c837c8fc5b1d8c24a8eaf7503809bf2f'),
 'suspend --in t6.json --n 2 --out out.json': (0,
                                               '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                               '9167b630cc260cd0161347693a241f5851dcfa3e54468ed85494f4995e8a41bf'),
 'suspend --in t6.json --n 3 --out out.json': (0,
                                               '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                               'ffc71f1e3eae3b6391dd9e0f326da69f7d0bd181217ad9037e26713b0f28b897'),
 'suspend --in x.json --n -3 --out out.json': (0,
                                               '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                               'fea0be37f367ff2c38819de60482bb9468971f1c3151c84ee91f7e6c51a6c728'),
 'suspend --in x.json --n -2 --out out.json': (0,
                                               '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                               'a3be68fb20e50364d01ae9abbcfa20cf0c378f4e6c19f81dcca1779588642283'),
 'suspend --in x.json --n -1 --out out.json': (0,
                                               '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                               '41147015cc2940c90a12460c1b4fe4b95e3eafe43632c41cf63f1415a6288192'),
 'suspend --in x.json --n 1 --out out.json': (0,
                                              '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                              '752ff0f28394c4ab26b5f95c2d666f345987a5a31063ce8db87c870b8d5f6517'),
 'suspend --in x.json --n 2 --out out.json': (0,
                                              '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                              'f767edec3e7bccf40444b2613abcfb2c1eca28688ed62385290e15679026b940'),
 'suspend --in x.json --n 3 --out out.json': (0,
                                              '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                              '8fe7f389ad7dd0afd762fe3ac47ee887a63b86a5a14a8effdfd49aa512c1444c'),
 'tensor --a t6.json --b k5.json --out out.json': (0,
                                                   '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                                   'd9773d19858cf31f7aa2692b268e483182a798a02703189961fde5fe606a2ddc'),
 'tensor --a x.json --b x.json --out out.json': (0,
                                                 '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                                 '587ad241c1999e3f7f9989547b350b3d4429221192006e351959ec5f17b22ada'),
 'cone --map f.json --out out.json': (0,
                                      '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                      '59c7fb5d91ea261ecc77f6d9c1a0633757ddd570b1acaaaa8f21f218470209e2'),
 'atomic --n -3 --out out.json': (0,
                                  '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                  'e9529c85d7d7fbb3c71f5ac2272c0f2b288db72547ce634b7ce4eb8c97f6cfeb'),
 'atomic --n -2 --out out.json': (0,
                                  '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                  '1744cffa24ad0c4444fa650d276187a5d57dd039f95748c0102482b018d31c4b'),
 'atomic --n -1 --out out.json': (0,
                                  '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                  '02487f6b57e680b3e51853833451070b7a383bb00838c753dc02201f198009fa'),
 'atomic --n 0 --out out.json': (0,
                                 '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                 '409498a1a07c78531b2303e4daa99296e8cc82a059df2642e8d6306ce01d3e5a'),
 'atomic --n 1 --out out.json': (0,
                                 '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                 'f9624a15d08abb7995347f3d131d427ee03eb3d6123f4e9303a4b1af51f9e422'),
 'atomic --n 2 --out out.json': (0,
                                 '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                 '2b2e631f49aee3802452a7bd4b5bbfdabd24eca590eadae2e31a456985b4df8c'),
 'atomic --n 3 --out out.json': (0,
                                 '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                 '8123756b4e9dea2492b78c51bde8e39ed580628f0d5aa6574b0083759ddf7986'),
 'atomic --n 4 --out out.json': (0,
                                 '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                 '3b9e0ff5bd8071ea32a22573da014e320ca45a15d638da7b69855c491b92acb3'),
 'atomic --n 3 --ring z2 --modulus 2 --out out.json': (0,
                                                       '1f1ccbb9d6dc96ab9dff04c52dffc1fb47f799c3587db194c48bf960b78efc2e',
                                                       '4b27203417dd9e5eff41abc2b47996436faaebce50d3866e74f38cb9c13ebf1d'),
 'heights-compose --f kappa2.json --g iota2.json': (0,
                                                    'b6700f4559b8f3f3d46a1d7e13ba3c8a2e0527764ba401de81e600165a9b7ef7',
                                                    None),
 'heights-compose --f kappa2.json --g iota2.json --json': (0,
                                                           '63a7098e10d7ba8163163a00702b0289087ce0af59d7814e0e5f08be7e24988c',
                                                           None),
 'heights-compose --f iota2.json --g kappa2.json': (0,
                                                    'b6700f4559b8f3f3d46a1d7e13ba3c8a2e0527764ba401de81e600165a9b7ef7',
                                                    None),
 'heights-compose --f iota2.json --g kappa2.json --json': (0,
                                                           '63a7098e10d7ba8163163a00702b0289087ce0af59d7814e0e5f08be7e24988c',
                                                           None),
 'heights-compose --f kappa1.json --g h.json': (0,
                                                '849440032a1334b803f05cf4507599f6bec5629ce4fe43423c3ed500be19374f',
                                                None),
 'heights-compose --f kappa1.json --g h.json --json': (0,
                                                       'be8050d68d43aa84770c77e5a680f420a1d9f7a32dd33b08fe3e57d1788bb7d5',
                                                       None),
 'heights-compose --f kappa2.json --g h.json': (0,
                                                '55bdcb73f3645cecd82ac6fcbe9c365ac4f0da9551b308da8aa83741efef10d7',
                                                None),
 'heights-compose --f kappa2.json --g h.json --json': (0,
                                                       '5ba6fcb65fc0b4468ad70b7c259344577be77bebd2ceb64b980acca789d096f0',
                                                       None),
 'heights-compose --f h.json --g iota2.json': (0,
                                               '55bdcb73f3645cecd82ac6fcbe9c365ac4f0da9551b308da8aa83741efef10d7',
                                               None),
 'heights-compose --f h.json --g iota2.json --json': (0,
                                                      '5ba6fcb65fc0b4468ad70b7c259344577be77bebd2ceb64b980acca789d096f0',
                                                      None),
 'triangle-verify --in tri.json': (0,
                                   'd1297e669c1c06a78bb9f2d67442664ca8b5720112e14bf16b290598628cbda6',
                                   None),
 'triangle-verify --in tri.json --json': (0,
                                          '6ad3209f5cdb082f22ea7a97c6d59215bfc3f3575e63876859da2b4a91908187',
                                          None),
 'triangle-verify --in tri_y.json': (0,
                                     'd1297e669c1c06a78bb9f2d67442664ca8b5720112e14bf16b290598628cbda6',
                                     None),
 'triangle-verify --in tri_y.json --json': (0,
                                            '6ad3209f5cdb082f22ea7a97c6d59215bfc3f3575e63876859da2b4a91908187',
                                            None),
 'froyshov --in t6.json --ring frac-laurent --json': (0,
                                                      'f138a42f1b1622173ca1c01f639632ec791c5c932cc63c4385685fb9674f9022',
                                                      None),
 'froyshov --in x.json --json': (0,
                                 '2f0c0bb8f0ce1e9b551f909c18a6c04bcc44cfc16f6f4da6f584580b159bad50',
                                 None),
 'froyshov --in y.json --json': (0,
                                 '92d419ca737eb35fb27a9c861f5497616e502685888e20cfcc8d3d84b6dce37a',
                                 None),
 'equivariant --in x.json --exactness --json': (0,
                                                '11984f7b7205019fc1932c7b6595de0bc315e13d8166a040ef1ad4a7484bd6d7',
                                                None),
 'equivariant --in t6.json --ring frac-laurent --flavor check --n 3 --exactness': (0,
                                                                                   'c3c3de5eeb7f9b7a98e8bde90a5d2d7093b649a0b06daaeefc78c0964659a010',
                                                                                   None),
 'equivariant --in y.json --flavor bar --n 2 --exactness --json': (0,
                                                                   '6e2829a3608a1e61c3b8c1532a031d557644f3f3a4b246c85b6a5399829feb5a',
                                                                   None)}


def test_cli_output_is_pinned(tmp_path, monkeypatch, capsys):
    assert pinned_digests(tmp_path, monkeypatch, capsys) == _PINNED
