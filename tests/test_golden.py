"""Golden CLI output: SHA-256 of ``combcurv --json`` standard output, and
of the ball file that ``cover --out`` writes.

The digests pin verdicts, witnesses, stats and report shapes byte for byte,
so an internal rewrite that changes any of them fails here.  Regenerate a
digest only for a change that is meant to alter the output.  CHANGES.md
records when each digest was recorded.
"""

import argparse
import hashlib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest

from combcurv.cli import main
from combcurv.formats import dump_path

from conftest import (
    FIXTURE_DIR,
    bd4_pair,
    glued_tetrahedra,
    mixed_star,
    suspended_pinched_octahedra,
    suspended_torus,
    tetrahedron_less_face,
)

GENERATED = {
    "icosahedron": ["icosahedron"],
    "gs3": ["geodesic_sphere", "3"],
    "torus66": ["tri_torus", "6", "6"],
    "bd4": ["boundary_4_simplex"],
    # flag but not 8-located: the cover report carries (Q) and (R) warnings
    "rf13_7": ["random_flag", "13", "0.35", "7"],
    "rf15_11": ["random_flag", "15", "0.35", "11"],
    "rf15_12": ["random_flag", "15", "0.35", "12"],
    "cell600": ["cell600"],
}

# built, then written as files: the first two fail the vertex-link stage
# only, the next three the edge-link stage as well; then a disk, and a
# complex of mixed dimension
BUILT = {
    "susp_torus44": suspended_torus,
    "bd4_pair": partial(bd4_pair, 1),
    "susp_pinched_octahedra": suspended_pinched_octahedra,
    "bd4_pair_edge": partial(bd4_pair, 2),
    "glued_tetrahedra": glued_tetrahedra,
    "tetra_less_face": tetrahedron_less_face,
    "mixed_star": mixed_star,
}

COMMANDS = {
    "check": ["check", "--k", "5", "--m", "8"],
    "validate": ["validate"],
    "links": ["links"],
    "theorem-b": ["theorem-b"],
    "cover": ["cover", "--base", "0", "--radius", "3"],
    "cover5": ["cover", "--base", "0", "--radius", "5"],
    "metric": ["metric", "--base", "0", "--other"],  # + FAR[input]
    "sd": ["sd", "--base", "0", "--n", "2"],
    "lemmas": ["lemmas"],
    "delta": ["metric", "--delta"],
    "sphere56": ["check", "--sphere-56"],
}

# the lowest vertex at the largest distance from vertex 0
FAR = {"disk37_r3": 29, "surf37_psl2_7": 8, "icosahedron": 3, "gs3": 3, "torus66": 16,
       "bd4": 1, "rf13_7": 3, "rf15_11": 14, "rf15_12": 3}

# (input, command, exit code, sha256 of stdout)
GOLDEN = [
    ("disk37_r3", "check", 0, "79bf52ff5f7add824ebe9f85c227d8b177ee1e1ee825acfd629b51591f98f9c0"),
    ("disk37_r3", "validate", 1, "12888f95d04038247e5cd8f508682bf554db34c13c582291f4fb46255bded370"),
    ("disk37_r3", "links", 1, "1915ed6570ef2b997324210498da4a1641fefb7c327acad73fae2f8529103412"),
    ("disk37_r3", "theorem-b", 1, "ca0158f2eca39719d9e0873cb104238a65a975e3830fb89e3d3c5868765b608a"),
    ("disk37_r3", "cover", 0, "2751cd31c70e0f8e976704b7339ea54161bb843954eb34132e3ed1f5bdc498e6"),
    ("surf37_psl2_7", "check", 0, "74ddf6bc26b14d8443f99d84d54118193acabd22297c7c935f2469b1c21c2b1a"),
    ("surf37_psl2_7", "validate", 1, "12888f95d04038247e5cd8f508682bf554db34c13c582291f4fb46255bded370"),
    ("surf37_psl2_7", "links", 1, "25c4293cb0fad1a98b59831e41d58e1f48b4c9dde0ed23b1d9998c3a646dd637"),
    ("surf37_psl2_7", "theorem-b", 1, "ca0158f2eca39719d9e0873cb104238a65a975e3830fb89e3d3c5868765b608a"),
    ("surf37_psl2_7", "cover", 0, "d4a0755a116e6c95e4bcf2317cc3b7f2d9bde9dbc5be7c5aea734bb9ac9567d7"),
    ("icosahedron", "check", 1, "d479c46ab0f3cdbd34993a87ecbb3d8f96d79d046f4497044e75d422bab71960"),
    ("icosahedron", "validate", 1, "fb8166f540653597a0488d3a28849aa092b8a868d8c86237d4003662d9486899"),
    ("icosahedron", "links", 1, "44563cf90422470de0688ced25b7e67e729e8d0da329630460c9b7ff9660039d"),
    ("icosahedron", "theorem-b", 1, "34a034e164faa053601cc80fb0f775ec1686574a1f7593f1fea0af23c8c086b6"),
    ("icosahedron", "cover", 0, "456c71f74ee46e367c3a7b5c2d953de6dbdb1746ee1e0c4709f7ac1137ca9716"),
    ("gs3", "check", 1, "d004a04f05f90d5754d75be7a94eceb7ea4db230e155ebd034f9b2c812b557d3"),
    ("gs3", "validate", 1, "7dc76968faaffa605ff64f9a0b9d376521c378df1d24447c89a80ffaefbe5624"),
    ("gs3", "links", 1, "73ee314818b64dc3b6f26e3c46812b518e4f07dbab9b25c9a271dc88465b598b"),
    ("gs3", "theorem-b", 1, "40b7a5c5822246a168add5c5ddfab6159a8e40cf729c549de668bba89a4f28b3"),
    ("gs3", "cover", 0, "a7b710bbdc6c6886c4ac3ee013a02d4dfba460e071f77243c917d3205edc3705"),
    ("torus66", "check", 1, "6d094250a6757a92c937d0d54d289ff662897bc37ecd92206baa03cfc9c4c435"),
    ("torus66", "validate", 1, "e354de718cff49621ac2591b51dc84c8aa22692a37481f4d7418060e8fc94840"),
    ("torus66", "links", 1, "ff59cc41bf4f5fbfc61f429ea12797b1aeeb06d4a66fb59a4d9b23d99b635ad0"),
    ("torus66", "theorem-b", 1, "cbb8e7c10d7f7fef57ca1853cfa76699a3e0282d2999cc7cdff5c9c7f9732a8b"),
    ("torus66", "cover", 0, "6a8203e7e84f769130f345432517f06146771d4c35886cc1b92a2d53c55cd467"),
    ("bd4", "check", 1, "d20ebd2a35e478a574b2db0d60327765c4b8bc338ec5fdde43118a0b2acd8e92"),
    ("bd4", "validate", 1, "a19eddb969fc27330a02d5823db047c4bef2050ee7fb5cd9e3e81cd606398c14"),
    ("bd4", "links", 1, "8b4208bf2e0fee5fb10ee1ce6c5ef24650aad46a6e6a018700f530f5d41d787d"),
    ("bd4", "theorem-b", 1, "1ed29c339f130a790eef9d607d487697f3e0d13d2be3fe431f626a0ca067eb2a"),
    # not flag: the cover builder refuses it, so stdout stays empty
    ("bd4", "cover", 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # warnings path: the first offender of each failing (R) check depends on
    # the iteration order of the span's face sets
    ("rf13_7", "cover", 1, "93db9d19a93692b3dca90a56843e56ab63c13031569ef2780180dd4b2516b895"),
    ("rf15_11", "cover", 1, "599aa7a61526cd671e1ff19dd49558f9c29290c1d46776039645eb98f0bbbef0"),
    ("rf15_12", "cover", 1, "2bab20bbc9cb940c01b2eb3d583f219130b52b42a26f230238b7bf50c55c3357"),
    # interval layers and the first thinness witness, and the descent report
    ("disk37_r3", "metric", 0, "6ba8f164af170b7368a088f766c5d9308bd99c4b990a32e08d0e15f9aef4730d"),
    ("disk37_r3", "sd", 0, "576c84b901b532f541c1a64e48aa537dac77c985ae9a5425e9e36bc2f34aad86"),
    ("surf37_psl2_7", "metric", 0, "4b18dc9f6e33a6e59baed6a9356b2d8580198f3543e9c460c42e33445c00923d"),
    ("surf37_psl2_7", "sd", 1, "463b4f127ed8cbdd759dcdd0019d47f37b765538d72ac47a4e98013c9d8a82c5"),
    ("icosahedron", "metric", 0, "2f456c502c9a4671f74939a473ffe1b038da0dda897ca8f950e236e2d815799f"),
    ("icosahedron", "sd", 0, "0fff5dd8432aeb839d6480dbcfbe3501ae821f243dd2ad9eb7ffab225e5c9f16"),
    ("gs3", "metric", 0, "c34bbd716ef7abfb4b9e4784f50ac6b72f928fcdb8e7ad8ae05681fbe7e5e5a8"),
    ("gs3", "sd", 0, "33fc51c86f2218620600c2d804c0a752f0d292f4a23b79b357adc54538070638"),
    ("torus66", "metric", 0, "349333dccf96b7235463f5b164e9f70e75519ba6ddd4b5373a702aa430b29aed"),
    ("torus66", "sd", 1, "108659f0efee70bfa449eb2000fd6bed3c92e05ca94d58479dd65a81e0f3ed13"),
    ("bd4", "metric", 0, "ba0991f5edd135d8ab4f389bc83f3194891bb18f108bf28304668497b4d9ebc4"),
    ("bd4", "sd", 0, "a713ea162f53522c54a286fee628270ddc6ab28522a24997c8e65bb595cc255b"),
    ("rf13_7", "metric", 0, "179afa75efe1b091b78e58fea606602b07eba968895312f22042341f33fe46b1"),
    ("rf13_7", "sd", 1, "1bbcb175b39085cefd24c8c48c228539e67f0ba627f8df569d1a01a14f59a1db"),
    ("rf15_11", "metric", 0, "597497265ae64d5ca9109ed1ac24aceb725619512f3a64fa0f4ea51ff1b6ed86"),
    ("rf15_11", "sd", 1, "97db4d914e8e570cf654e5d88439b806268882167163a2d2f85f87026afec9c0"),
    ("rf15_12", "metric", 0, "19ec8e1488a67e951f413b224bb8bde9a908c802031f9becbda423ce512fc149"),
    ("rf15_12", "sd", 1, "699039cf88ae97b4d57b23ab8abdfa0f7c13147bd06105b1e371224aac376f74"),
    # the sphere-lemma suite: gs3 passes, the rest stop at a precondition
    ("disk37_r3", "lemmas", 1, "53b775933e5a6f18a71fa12b650e74a4f638e91147b15e417ea3b6425912d4d0"),
    ("surf37_psl2_7", "lemmas", 1, "a29293beba00ab2b27c74a2b1df4353f6b99f793ad5d20f337ceeb72a178fd73"),
    ("icosahedron", "lemmas", 1, "b8a600d03632cda5f62901676f0eda76318e677d8c44e44fb38d61173545b612"),
    ("gs3", "lemmas", 0, "a802bdad755e7ad371140f453e1b863644f0895cf5a92aab42bb5b4341e99522"),
    ("torus66", "lemmas", 1, "de67d9f3732bd93c1af3ebb6e8918f4342a5b7729bb14d30c4d1c626b0d04645"),
    ("bd4", "lemmas", 1, "d25e8729e44e23ec6005951a1ac851f9ad693cd76f6a5db55b92cf24b93542cf"),
    ("rf13_7", "lemmas", 1, "165f51cf5d27358fa6170d37efef76e162d0c8cb95858f51c6ac5d909149e455"),
    ("rf15_11", "lemmas", 1, "e74078b099e2a79be8488d200d3bd3f3d06aec677389c8bf30bb7053c8a2be15"),
    ("rf15_12", "lemmas", 1, "70d2c63f7ac619aeee65cd658b0adb19467cb4dde3e5ba5432731c5f7c9f4fd2"),
    # the four-point constant
    ("disk37_r3", "delta", 0, "37b6f3eb056fd496b83bb40e18621a53928bf645ef6a0a636647c108b47e48b3"),
    ("surf37_psl2_7", "delta", 0, "37b6f3eb056fd496b83bb40e18621a53928bf645ef6a0a636647c108b47e48b3"),
    ("icosahedron", "delta", 0, "37b6f3eb056fd496b83bb40e18621a53928bf645ef6a0a636647c108b47e48b3"),
    ("gs3", "delta", 0, "0ecb44a7f989eab53863356ee1a87875d618b1f65b9da1835adc281557f9f78c"),
    ("torus66", "delta", 0, "28b0eeb3d677feeee678a882da3d195aecce8c49d469beae55036ea85367c477"),
    ("bd4", "delta", 0, "0e20ca6f5d8079ce7e7616aca23854b272e8f962a55152b4d98a67f72db3cc62"),
    ("rf13_7", "delta", 0, "37b6f3eb056fd496b83bb40e18621a53928bf645ef6a0a636647c108b47e48b3"),
    ("rf15_11", "delta", 0, "37b6f3eb056fd496b83bb40e18621a53928bf645ef6a0a636647c108b47e48b3"),
    ("rf15_12", "delta", 0, "37b6f3eb056fd496b83bb40e18621a53928bf645ef6a0a636647c108b47e48b3"),
    # the 600-cell fails 8-location at its 7 201st dwheel
    ("cell600", "check", 1, "2022d736fdbdbcaed1b884d17526f5a68c1b79f5d00288ac786e001c633452dd"),
    # a closed manifold whose every edge has degree 5, so three degree-5
    # edges on each triangle: the manifold stages all pass, 5/6* fails
    ("cell600", "validate", 1, "2819e9429d7ec3ae0f8be9778c804bb3c4df0d0dfeb033ff6311670368d49415"),
    ("cell600", "theorem-b", 1, "d8d5673cba877e2252d63a3372dfebd26580ff9335f87994d083a9a0cf1615f0"),
    # interior thinness over hundreds of intervals per ball
    ("surf37_psl2_7", "cover5", 0, "5744866ae51e6fc7e5b46f1fe182e992e5469c01152e591e3036938d84d0a5c7"),
    ("torus66", "cover5", 0, "47b839f9990cdadc3dc93ef1e1bb9e13249e27e7a7a99e7765dfc74ca7d3b576"),
    # the link of a pole is a torus; the link of the shared vertex is two spheres
    ("susp_torus44", "validate", 1, "1ca546547de581891f16f76aba2917da6bc7eef753576a63c1f5aaca1e5e5b07"),
    ("susp_torus44", "theorem-b", 1, "a0c64ba5e9c054b042480c008cf7206208543e1f48e0d0c34b3637f65c7c54d7"),
    ("bd4_pair", "validate", 1, "836085fcdd6e970891dcc2a12ea259a96f6fb5a905e527611c129c43eaeb7aa1"),
    ("bd4_pair", "theorem-b", 1, "a9bf67a3a4db2f2622162c197412690579366124d6788777dcc190493e8c70fe"),
    # past a failed edge-link stage: a pinched link, a link of Euler
    # characteristic 3, and a link edge on one triangle
    ("susp_pinched_octahedra", "validate", 1, "adc95b181a6b6c0bf2fe07b308b1721f7c0d3121f019961c290593f318dcdfe6"),
    ("bd4_pair_edge", "validate", 1, "68cbcd243aa66b2f706ad9f9bf1dd21c1e42f9657de11800f0c664076cdb6aba"),
    ("glued_tetrahedra", "validate", 1, "5a206c11ac9beea23689bceef66ffbf1d57c165c696f09d3515e188bdcbbca4c"),
    # every reason of the surface test on a link complex, with link-relabelled
    # names: Euler characteristic 0 (a torus), not connected, the pinch,
    # Euler characteristic 3, a link edge on one triangle; and the 5/6*
    # degree reason on the links that are spheres
    ("susp_torus44", "links", 1, "01b87cb5f1772f03e09331d9940337647b58d6c6d08ea072af80d021ae427739"),
    ("bd4_pair", "links", 1, "804a1486edb21efea6cebfccfc40cfb85eedd79d3e6085fcf7dc49354cd289b9"),
    ("susp_pinched_octahedra", "links", 1, "f9c5ae4016a4395764ab9f295e9146aaab094cbab6a1878a3d51bd213056aaa8"),
    ("bd4_pair_edge", "links", 1, "fd39a3968cab002941b6562e666fd717742a335a3367f6a38fccef64397cf762"),
    ("glued_tetrahedra", "links", 1, "d7b85e264cf785cc2c57f682d48e08756c7e7a52cc156efbd5783117882726c6"),
    # local largeness: a full 4-cycle in a vertex link (rf13_7 at vertex 3,
    # susp_torus44 at vertex 0), a 4-clique in the link of vertex 0 of the
    # bd4 pairs, and the hollow-triangle link of tetra_less_face, whose
    # detail names link vertices by rank, with an empty triangle of X behind
    ("rf13_7", "check", 1, "c5fb6584d1112fd869e60740ec1b1a93528fe933fae0c080938001f89af23e30"),
    ("susp_torus44", "check", 1, "8a123fbffbc3146ad2aaa912b1313ef14e7305257e7549d5da52b6f50163171c"),
    ("bd4_pair", "check", 1, "d20ebd2a35e478a574b2db0d60327765c4b8bc338ec5fdde43118a0b2acd8e92"),
    ("bd4_pair_edge", "check", 1, "d20ebd2a35e478a574b2db0d60327765c4b8bc338ec5fdde43118a0b2acd8e92"),
    ("tetra_less_face", "check", 1, "23bfdbea4409fc3d87ed3dca7a1627517bf660437f69bcfdad85a7d92894a4b2"),
    # the 5/6* degree reason on a 3-complex whose vertex links are all
    # spheres (adjacent degree-5 link vertices), and the pre-checks of the
    # surface test on links that are not pure 2-complexes: a maximal edge,
    # a maximal vertex, an edge on one triangle, dimensions 0, 1 and -1
    ("cell600", "links", 1, "04a15fcdebf3e83ff09fb1077e83c7b791e759c2bd35da8933e61c3505893118"),
    ("mixed_star", "links", 1, "fffd404d44f29b49dc8ecbb8ff5a70e0fa08029bf15323278a3a9f1fa31020b2"),    # the 5/6* sphere test on every input: a pass (gs3), adjacent degree-5
    # vertices (icosahedron), an edge on one triangle (disk37_r3,
    # tetra_less_face), a maximal edge (rf13_7), the Euler characteristic
    # (torus66, surf37_psl2_7) and the dimension of the ten 3-complexes
    ("disk37_r3", "sphere56", 1, "c7df00275e0e20cbdcbc96d905e8f7b657e6b8bbd91c9de52c7c9582cff83195"),
    ("surf37_psl2_7", "sphere56", 1, "7347a7b8ee0a6f1db6159118aae3d5c3454d29a5df881c4c86f213a9f59fb89f"),
    ("icosahedron", "sphere56", 1, "c4e72d589dbd2ea85bd7600d800b25234912d81b42533a74eef675b1260f7b67"),
    ("gs3", "sphere56", 0, "420bad8eafdf419aedf1e1d4298772176baef3cd5945d51da1a05e54ea5c3d13"),
    ("torus66", "sphere56", 1, "b45268ab4472042caaf3e414f944c57ad2237951ac9c77f202556027e375c2b4"),
    ("bd4", "sphere56", 1, "9f8f57a49615ae830889f82bbb988e8f0a683f376ef46c58d5957fafe691c516"),
    ("rf13_7", "sphere56", 1, "82058ec6aa88e2cf08c750702ad073b4f2259bb151433b3b2b1c1139fd58bde5"),
    ("rf15_11", "sphere56", 1, "9f8f57a49615ae830889f82bbb988e8f0a683f376ef46c58d5957fafe691c516"),
    ("rf15_12", "sphere56", 1, "9f8f57a49615ae830889f82bbb988e8f0a683f376ef46c58d5957fafe691c516"),
    ("cell600", "sphere56", 1, "9f8f57a49615ae830889f82bbb988e8f0a683f376ef46c58d5957fafe691c516"),
    ("susp_torus44", "sphere56", 1, "9f8f57a49615ae830889f82bbb988e8f0a683f376ef46c58d5957fafe691c516"),
    ("bd4_pair", "sphere56", 1, "9f8f57a49615ae830889f82bbb988e8f0a683f376ef46c58d5957fafe691c516"),
    ("susp_pinched_octahedra", "sphere56", 1, "9f8f57a49615ae830889f82bbb988e8f0a683f376ef46c58d5957fafe691c516"),
    ("bd4_pair_edge", "sphere56", 1, "9f8f57a49615ae830889f82bbb988e8f0a683f376ef46c58d5957fafe691c516"),
    ("glued_tetrahedra", "sphere56", 1, "9f8f57a49615ae830889f82bbb988e8f0a683f376ef46c58d5957fafe691c516"),
    ("tetra_less_face", "sphere56", 1, "418c987b8338fcbefaff4a0487a9fb1ebd157aa5abb596486e4ad9da36dfda4e"),
    ("mixed_star", "sphere56", 1, "9f8f57a49615ae830889f82bbb988e8f0a683f376ef46c58d5957fafe691c516"),
]

# (input, radius, exit code, sha256 of the ``cover --base 0 --out`` file);
# rf13_7 carries (Q) and (R) warnings
OUT_GOLDEN = [
    ("surf37_psl2_7", 3, 0, "8eeaedba87eb0f79b2ab9ad71f3ef166a974fec2c20759ad8a10950deedfe848"),
    ("surf37_psl2_7", 5, 0, "82207edc33d32d050b0e4b2def08f0cbe37511ebf71fa3cedc14e772b89a6d3d"),
    ("torus66", 5, 0, "cbae6bdaf75b184a68f0ce445bcbf9f2436548a02c2fdf63eaf6c9efef109c4f"),
    ("disk37_r3", 3, 0, "7139310b57acb5d01737751bbb0fa25f5930353b880b7b8d79e412faa216d2b1"),
    ("rf13_7", 3, 1, "7a05940bfd67da1912215d413717b9f23554930d53dd46fb3cf6cc48981ea11c"),
]


def write_inputs(work: Path) -> dict:
    """Write the generated and built inputs under ``work``; return the path
    of every input by name.  File stems become complex names, so they are
    fixed here."""
    paths = {name: FIXTURE_DIR / f"{name}.cplx" for name in ("disk37_r3", "surf37_psl2_7")}
    for name, spec in GENERATED.items():
        paths[name] = work / f"{name}.cplx"
        assert main(["gen", *spec, "-o", str(paths[name])]) == 0
    for name, build in BUILT.items():
        paths[name] = work / f"{name}.cplx"
        dump_path(build(), paths[name])
    return paths


def run(paths, name, command):
    """Exit code and stdout digest of ``combcurv --json`` on one input."""
    argv = COMMANDS[command] + ([str(FAR[name])] if command == "metric" else [])
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--json", *argv, str(paths[name])])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def run_out(paths, name, radius, out: Path):
    """Exit code and digest of the ball file ``cover --out`` writes."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["cover", "--base", "0", "--radius", str(radius),
                     "--out", str(out), str(paths[name])])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name,command,code,digest", GOLDEN,
                         ids=[f"{n}-{c}" for n, c, _, _ in GOLDEN])
def test_json_output_is_byte_identical(inputs, name, command, code, digest):
    assert run(inputs, name, command) == (code, digest)


@pytest.mark.parametrize("name,radius,code,digest", OUT_GOLDEN,
                         ids=[f"{n}-r{r}" for n, r, _, _ in OUT_GOLDEN])
def test_cover_ball_file_is_byte_identical(inputs, tmp_path, name, radius, code, digest):
    assert run_out(inputs, name, radius, tmp_path / "ball.json") == (code, digest)


if __name__ == "__main__":
    # print GOLDEN rows for the given inputs and commands, e.g.
    #   PYTHONPATH=src python tests/test_golden.py --names bd4_pair --commands validate
    parser = argparse.ArgumentParser(description="record golden digests")
    parser.add_argument("--names", nargs="+", required=True)
    parser.add_argument("--commands", nargs="+", required=True, choices=sorted(COMMANDS))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        paths = write_inputs(Path(work))
        for name in args.names:
            for command in args.commands:
                print(f"    {(name, command, *run(paths, name, command))!r},")
