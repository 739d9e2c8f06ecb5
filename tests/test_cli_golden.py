"""Golden CLI reports: every subcommand's (exit code, stdout, stderr) is
pinned by its sha256, so a change that alters any report byte fails here.

The digests were recorded by running :func:`invocations` and are
independent of the working directory: every path is relative to a
temporary directory the test changes into, so the echoed argv is stable.
The ESCAPED instances carry labels that JSON must escape (quotes,
backslashes, control and non-ASCII characters, one outside the BMP); their
digests were recorded before reports were rendered by the package's own
emitter, so they pin its escaping to that of ``json.dumps``; their
``export-dot`` digests were recorded once DOT output escaped ``"`` and ``\\``.
Every report must also round-trip through ``parse_report``.
"""

import contextlib
import hashlib
import io

from posetmodels import fixture
from posetmodels.cli import run_cli
from posetmodels.formats import InstanceFile, parse_report, print_instance, print_report

FIXTURES = ("two-structures", "forced", "s2of3-fail", "trunc-1", "trunc-2", "chain-3", "chain-8")
LARGE_FIXTURES = ("chain-16", "trunc-3", "trunc-4")  # bigger tables: P = 171, 141, 194
CAPS = ["--max-elements", "24", "--max-generators", "32"]
ESCAPED = {  # name: (fixture relabelled, its new labels in element order)
    "escaped": ("two-structures", ["\u22a5", 'A"q', "B\\s", "B\u02b9\x7f", "C\t\u2028\u00e9\x01", "\u22a4 \U0001f600"]),
    "escaped-no": ("s2of3-fail", ["\u03b1", '"b"', "c\\"]),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _write(path, inst):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_instance(inst))


def _write_structure(path, inst, s):
    """Write `inst` with the cof and fib of report structure `s`."""
    inst = InstanceFile(inst.elements, inst.leq, inst.weq, inst.add_identities)
    inst.cof, inst.fib = [tuple(p) for p in s["cof"]], [tuple(p) for p in s["fib"]]
    _write(path, inst)


def _relabelled(name, labels) -> InstanceFile:
    inst = fixture(name)
    new = dict(zip(inst.elements, labels))
    return InstanceFile(
        elements=list(labels),
        leq=[(new[a], new[b]) for (a, b) in inst.leq],
        weq=[(new[a], new[b]) for (a, b) in inst.weq],
        add_identities=inst.add_identities,
    )


def invocations() -> dict[str, str]:
    """Run every invocation in the current directory; map argv to digest."""
    digests = {}

    def run(*argv):
        code, out, err = _run(list(argv))
        digests[" ".join(argv)] = hashlib.sha256(repr((code, out, err)).encode("utf-8")).hexdigest()
        if out and argv[0] not in ("fixture", "export-dot"):
            assert print_report(parse_report(out)) == out, "report does not round-trip"
        return out

    def exercise(name, inst):
        """Every command on the instance file `name`.json holding `inst`."""
        path = f"{name}.json"
        _write(f"{name}-gens.json", InstanceFile(inst.elements, inst.leq, inst.weq[:1], inst.add_identities))
        run("validate", path)
        run("recognize", path)
        run("centers", "find", path)
        run("centers", "enumerate", "--limit", "3", path)
        for method in ("terminal", "centers", "centers-dual"):
            run("synthesize", "--method", method, path)
        run("synthesize", "--method", "genmc", "--generators", f"{name}-gens.json", path)
        run("export-dot", path)
        files = []
        for k, s in enumerate(parse_report(run("enumerate", *CAPS, path)).structures[:2]):
            files.append(f"{name}-s{k}.json")
            _write_structure(files[-1], inst, s)
        for f in files:
            run("verify", f)
            run("reduce", f)
            run("export-dot", f)
            run("synthesize", "--method", "newcofib", f)
        if files:
            run("zigzag", files[0], files[-1])
            run("zigzag", "--contract", files[0], files[-1])

    for name in FIXTURES:
        with open(f"{name}.json", "w", encoding="utf-8") as fh:
            fh.write(run("fixture", name))
        exercise(name, fixture(name))
    for name in LARGE_FIXTURES:
        path = f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(run("fixture", name))
        run("recognize", path)
        for method in ("centers", "centers-dual"):
            s = parse_report(run("synthesize", "--method", method, path)).structures[0]
            _write_structure(f"{name}-{method}.json", fixture(name), s)
            run("verify", f"{name}-{method}.json")
    for name, (base, labels) in ESCAPED.items():
        inst = _relabelled(base, labels)
        _write(f"{name}.json", inst)
        exercise(name, inst)
    return digests


def test_cli_reports_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert invocations() == DIGESTS


DIGESTS = {
    'fixture two-structures': 'eb3ecd968f9bccc7842ba3708fdaf9d4bee516a5326524eb9f604c17fd70788a',
    'validate two-structures.json': 'f546015ca35b13ba6fb43db76327a342e99a328dcb984640601c911edc9a4514',
    'recognize two-structures.json': '007bef53fdfddb869347a7f6d921530d4aeafa17e387baf8c1ba332ed14e285d',
    'centers find two-structures.json': '18c00cc2f583056afeff1f1f78438e59d2669b428a059014a3c1c3551d9c8e9d',
    'centers enumerate --limit 3 two-structures.json': '257cae874229b5910d531f9f0474549f2c230ccc1ded4a21f909da9ee9967b61',
    'synthesize --method terminal two-structures.json': '935e07a499f0e3b3acae9f119364044dadb0ce57e5ff59cbbfb5ac65c0bdf5ef',
    'synthesize --method centers two-structures.json': 'ce0bdcccdbd6e72e788b9265832135c1b39d15fe3938c53ec9dfdb6faff0b97c',
    'synthesize --method centers-dual two-structures.json': '800fb17328f004653bca26e58f4fee98520c15d7e8c625996d5fa6e9e1aea798',
    'synthesize --method genmc --generators two-structures-gens.json two-structures.json': '78dc0e41cca3bf454f35efd7ca9f83914c1637c273a62c9fe0173b24eca9dcbc',
    'export-dot two-structures.json': 'ca75e1bcb4bab74114c983b87310b68a92c3ea9b11fb72fe24dbf9c803aff69c',
    'enumerate --max-elements 24 --max-generators 32 two-structures.json': '913785241b6fa3fc97426004b43349b59505fe0d8c552c57c33b410388395827',
    'verify two-structures-s0.json': '215f3d74d78f8ef3459f2d4ea30646d23fe52da0a53e30713343507faac70c09',
    'reduce two-structures-s0.json': '4965594d21bb0e26d7b804c33e70b2461c78cc4b1c82cbfc83495c156f046ff4',
    'export-dot two-structures-s0.json': '83335afef67ada92ad41ef21a108a54de925d6e5e5cd19fbe8f3fbf9f69442ff',
    'synthesize --method newcofib two-structures-s0.json': '05583a238dab253d45c5e1ea56c8b0ca3011d3124cb03658b14b6879cf711dbe',
    'verify two-structures-s1.json': 'eff6e5f8609224ecba6fe0f7aeab890ed971dba3fc02524efa304a4543eb35f5',
    'reduce two-structures-s1.json': 'a37a3b363a7e54c874de7f423203c5817cc1f23a372089578fcfecc7ae4c4dd6',
    'export-dot two-structures-s1.json': '033930c0f642e06bf9cc597f807d96865961a60909ca11e7945869d37e9a700e',
    'synthesize --method newcofib two-structures-s1.json': '16390a46e6adbdb144d3d05f9b8d782c34aec412b6c191083b421e2d4b1de6c0',
    'zigzag two-structures-s0.json two-structures-s1.json': '17c66d8b7c19f94d0c7858d91714de9eed5e85c2f4c793df002ce4c502f4ef9a',
    'zigzag --contract two-structures-s0.json two-structures-s1.json': 'c5245b9425c0d9ba8cdd29b00228e5dbc6fef812f0070c439a37e94b5794ad47',
    'fixture forced': '1db99e3caffd32179fcd17360e8e21f17e552833c6869a5b23870a9e6ad472b6',
    'validate forced.json': '2d38b7a2b5cbe6dba42691697c87f1811796394a22c2df6b4fdbb8865d721acd',
    'recognize forced.json': 'c8f4bff413fa78fb9aa3d91eb1cd069f2ede6204439c00cde67f51d034b90ed4',
    'centers find forced.json': '788a7b3dc945af8968896809e6b2952633a36a8afbf69ed9c919663c0c9e2466',
    'centers enumerate --limit 3 forced.json': '2ed380af611ea4bedff5ce0b50aca54e2b630a4c3501c5ec46d08e9903d9d733',
    'synthesize --method terminal forced.json': 'f10265081ec5dc78386c923d7f3cfa29506281d56e503e3e73c3770317f2dc75',
    'synthesize --method centers forced.json': '9982032f3553cc03bcaba355349481849b985cf56092d5b018190c275b9f0f01',
    'synthesize --method centers-dual forced.json': '255dfb63e70b1b8e6edb2b9b39472f5c7340634b9b4d4ef3174661a097c5dc52',
    'synthesize --method genmc --generators forced-gens.json forced.json': '99ae34fb13076cb01396ff5ca318d2dcb58cd249ced0f65c7e41e694537aa77a',
    'export-dot forced.json': '7f6fe03833c07abd42c0f0c59948deade2e780baf51a9b526a02776f7188c1ff',
    'enumerate --max-elements 24 --max-generators 32 forced.json': 'f18e16ace1fb665e0f26a995d59bf33706899fc0292d5a897fc5cd015f84393c',
    'verify forced-s0.json': 'f710780556147e1d4045c1b5ae198da95b39b45d0bbb7fcb15dcd6c28b79102b',
    'reduce forced-s0.json': '4297db5ddd2b6e2b16f15248f168a768dd3d6067c87fdaca18821dc732a628b9',
    'export-dot forced-s0.json': '2554648e112a6c3db558156d961d6ee08a9ac772d789465966e454b0f0cd05a5',
    'synthesize --method newcofib forced-s0.json': '0c817f8fd2fba5c6b81b49dd81e765130d42a530935892cfdbc14fbc266136a6',
    'zigzag forced-s0.json forced-s0.json': '2f404d4313832df4da90bfc14f7fa0b06d6735605645931bdee87faab0b5e92f',
    'zigzag --contract forced-s0.json forced-s0.json': '77be547d9363b70acbd71eee34a3f52a621d32be58378f86cd1530eb5ef7e0e8',
    'fixture s2of3-fail': '45f3c2da76ab2a2e8fa56aa8ddaab5e9e65c6371eaded3931d45c164d2844b38',
    'validate s2of3-fail.json': '5ef4c65d2985abc632d1a0adfa5fe28228cf6379a09ba6dc053e6e3f0f9d1dfd',
    'recognize s2of3-fail.json': '0c09fec64956e4edcf46a2443ec561792c761771d49a32b24d180116832eb92e',
    'centers find s2of3-fail.json': '65d204132d562814eabeedc1f4a3cbc47c2868518b21cfaaaeaaee7b37d02ab9',
    'centers enumerate --limit 3 s2of3-fail.json': 'fb531621c6bd310d2977d5a4cd720626e63d62e20b7739aefe93bdb81db2443c',
    'synthesize --method terminal s2of3-fail.json': 'e221b3e4b6eaf12397ec11b8fb3c0a45dd5ee2738c0dc3809f1c34a9ac484dc1',
    'synthesize --method centers s2of3-fail.json': '9aef07b6731bd761ed417fa0c62f23fb6db89d978d4347590b9f5bb6646a1499',
    'synthesize --method centers-dual s2of3-fail.json': 'ad5cf350a1e6bb7f7797e53874c8ce0da249870ac6d736ece8eb8575bb652bd5',
    'synthesize --method genmc --generators s2of3-fail-gens.json s2of3-fail.json': 'ff9edc5fd32177205819110b8e959d8a2510749add1cf37c9c87103f36489ef3',
    'export-dot s2of3-fail.json': '20c390e0997b4189a428668bceafe924bf0ff7c569fe1c60bc7bf8716dfc11e3',
    'enumerate --max-elements 24 --max-generators 32 s2of3-fail.json': '2d9922b6149d5e217320334f9fc843bd6c2dcc588dc7d68f9bd18171c519d259',
    'fixture trunc-1': '87439d7b49bc3b4b687a6444a78395a25cf3afd6d8c2533907ef5a28bcd74611',
    'validate trunc-1.json': '676dbddbc3b33f12c2275bba691c752facf76ecb85d073396752c3d9bbded0ca',
    'recognize trunc-1.json': '1947747aacfddb04306232b8475994a98d4adadb2c1089a9acb22d278e852add',
    'centers find trunc-1.json': '0b6369cc513638f39a3fe75f8d0141e288ef795e1663a33375492be612e8b8f4',
    'centers enumerate --limit 3 trunc-1.json': '443c0c3dc90d632b2f4f44f77c7d5d7f232077e581720728f9f0fc227cd22ef4',
    'synthesize --method terminal trunc-1.json': 'ab2cc4fa1d2394d8f2c5a393eaf348d2e444978ec30cd9f9be801bdb032af977',
    'synthesize --method centers trunc-1.json': '1734fb4b3bb0e8614087a90519267b40dfb850b403439e8e76bdb5c846b301dc',
    'synthesize --method centers-dual trunc-1.json': 'a373fc57a07f2f8c42bd87e3a918292aed05b56a585774b70241b7bd4e9d6526',
    'synthesize --method genmc --generators trunc-1-gens.json trunc-1.json': '55eba1d9dbd2b468c8af9e1e2b31bf7876b63aabaf6a966202554735900e285b',
    'export-dot trunc-1.json': '40199cb821976abd11730354fd6f49ab8641fd8ac0becb653e71f75846dc64e7',
    'enumerate --max-elements 24 --max-generators 32 trunc-1.json': '9d76ed192c46d1bdcd0025365d575b1da78ee5817c4dc7895a827f41908792e5',
    'verify trunc-1-s0.json': '9f661f41df64285a7b68c7bb6fb197a5857b750db5198777931061ce73c105f3',
    'reduce trunc-1-s0.json': '836afe0dac1fa729c293050cd917ac5d09bec5a5c10bab1ccac72368e0cfc155',
    'export-dot trunc-1-s0.json': 'f662e5a71ca2d738f8342179b7e211def3d86287dfe57ea2e9db70a23a8d8208',
    'synthesize --method newcofib trunc-1-s0.json': 'b45609919e02a472d5eccd55aafad31a634d78a2fface065321dd7530fb53686',
    'zigzag trunc-1-s0.json trunc-1-s0.json': '2934a3babd258cb5116a161ff9ed7ad25b9ab69b653a23dc3704985d84772a21',
    'zigzag --contract trunc-1-s0.json trunc-1-s0.json': '0ded9bc72b1ed25ff8ed757c4517458571059663ea1bd187dde8bc1dd5d99cbb',
    'fixture trunc-2': '75240ba9c987eab1474a4bc9d108634fbcae02d5b3021a1d1235317f29826951',
    'validate trunc-2.json': 'db2b6e4f1abd1843a4e1ef4da9888df5e1a35ecbd11c14b7f104aa8c39424887',
    'recognize trunc-2.json': '912133bbfa34c7c31360db6a64bc03a69403188e65bd58d2dc8a1f2dcedc3897',
    'centers find trunc-2.json': '917972e4d7d644635f031a5c8577227915e18e988b22afc794e3043239f96159',
    'centers enumerate --limit 3 trunc-2.json': '372dfdb588f95c5384b473a82e47147ec918a29c48c9ce85c64e8c2685ce30b6',
    'synthesize --method terminal trunc-2.json': '33b210be9bfa081981eaab3ef25a0dd24c7b6d610af9a863419cfe141dca3d24',
    'synthesize --method centers trunc-2.json': '726dfcb7c5aa0f732cb31ecbb5964bbf97c5d160882ee9c4e158c091f368c0be',
    'synthesize --method centers-dual trunc-2.json': '1f1ba10260cabe7448777d5ef7dca8c1a3bdc95ba61c531f83d85ad637f24808',
    'synthesize --method genmc --generators trunc-2-gens.json trunc-2.json': 'b9d40b186946ea10caa6fd919b45fe16c667e21c42de1d52f8c8f9d1523c994c',
    'export-dot trunc-2.json': '03c3c558ac8b861984444d7516af14aa919385440c8538e4a5d890280363bf3e',
    'enumerate --max-elements 24 --max-generators 32 trunc-2.json': 'eedc3e7ba9cacc7be8c2a554cc2265d320a00a60e7c9e9dbaa1c877ca3e50f14',
    'verify trunc-2-s0.json': '1d20251845168ee63ea0bc13f9ad30286b656d5da3271d2d2dba49e2d8d63195',
    'reduce trunc-2-s0.json': '77ed2cea210c73f11aa477cd2c938864f6adbdd2d4643f4490a8978b15b50b5a',
    'export-dot trunc-2-s0.json': '3a749b069224faa8c72b4cd615f81fd7ae22b156d7c39b8797ed4f3642d00bfb',
    'synthesize --method newcofib trunc-2-s0.json': 'e36bddcb25159e999d454dc0704764ec91dbeefae15c21bfdb23489ea8a46bd6',
    'zigzag trunc-2-s0.json trunc-2-s0.json': 'd3326e090e508b6ab849531764353ab9e04acef955c8f5409c86116dcfbb83cf',
    'zigzag --contract trunc-2-s0.json trunc-2-s0.json': 'd84f136037074cf42d444bbec386df74cd94f69f1d2329713ac20dcdfbbcd06e',
    'fixture chain-3': '551f553bfa35e2240f99fd8e1f07c2c0c52876e75cf786f9f27e79ff281fd971',
    'validate chain-3.json': 'df8f7fe917695bd96ca5ce52e335b05c524f780490ea23c582923bc1df594ada',
    'recognize chain-3.json': '14746fa5866f2c864f7a071fc0d4a893baa1d57774199e5807ff1a4a1f92c868',
    'centers find chain-3.json': '37cd3b7cd5279262e4ddf7716cc0c185441518a691b4669a9d0c3679579969e3',
    'centers enumerate --limit 3 chain-3.json': '59782fefa16f87f52488ec9ed5b8bc5f31a960cb3b59a3ab677f45e50dea7a2d',
    'synthesize --method terminal chain-3.json': '4e76cdc8c6b11b5fb229c3002b967012e4f188874a4d0b3c1f7fb049605ccc6e',
    'synthesize --method centers chain-3.json': '73c9e1d82600f7104539a9b78a30fb6ac21d3f84af08814dd2ed348eeda4218f',
    'synthesize --method centers-dual chain-3.json': '02fe9e388098e90de528c9fb90e46a3e9a38a105637bf7e117f93eeb25ec0fc2',
    'synthesize --method genmc --generators chain-3-gens.json chain-3.json': 'f3a2f7b1ebbf29b9691075375a0a2b9c4a9a0a5b4ffc70bfe8eeb933e80840b4',
    'export-dot chain-3.json': '755c3ade3894eb4c76f95f5973567fd13fbe3c62f7544084ac3e97d00a5fe3b7',
    'enumerate --max-elements 24 --max-generators 32 chain-3.json': '171d11cd1ff419f4a64acb86ae9bee50352f3b1f6209e2a7008740cbadb305f8',
    'verify chain-3-s0.json': 'b1e8eb53bd9b7414d4615bf8501cbc5846bd6890f234d2477e304c668f41b72d',
    'reduce chain-3-s0.json': 'ecbe3d6c1184ab219eaf5733963960da6ca4718b945849f2884881b90f4bbb78',
    'export-dot chain-3-s0.json': '2be8dccf3992b8baa25d9fa4c1e47d19e5ccbc6ac01aedcbc38a28a2cc8c30c0',
    'synthesize --method newcofib chain-3-s0.json': '78a97843c09d1a7278f0ee3042dca845b3c105a21cc72f97d21e6df0d666fff7',
    'verify chain-3-s1.json': '7c25dd0fbf0ebf3dfbf12d3df6db76b59c4f9321925a94ccee941cfae0ac818f',
    'reduce chain-3-s1.json': '26dc490a6dcbd2b0a9f48b9dc04889225fd0c106b6e46c0a0674047de97f4978',
    'export-dot chain-3-s1.json': 'c9911ac42900354bd20948d9d75723c94790f70df1de58a00eb0057e91d9a2b1',
    'synthesize --method newcofib chain-3-s1.json': '92d73abbee754f253a40003bb7548cbccd350b433ab25382346bd16902175bde',
    'zigzag chain-3-s0.json chain-3-s1.json': '68affe007a86a74bcbb076d97b29398316f5c1093d1cf9135bc3b65c08cc4aff',
    'zigzag --contract chain-3-s0.json chain-3-s1.json': '9813fc5b737221776d223e290760ab548e3c2c74e0232d57d4be481672b9a560',
    'fixture chain-8': 'db77e1b85a4fe902006d0e41d494894ed1e37eea89afa9af46b6251071e40c9b',
    'validate chain-8.json': 'f3294e96f19a664dd1797fb2ece4f803a0d78235fcece84f675d566208d1655f',
    'recognize chain-8.json': 'aef5ccec12d7c12ce5f911d1e1a6a7ab617f17b0a487bdc78c5a842ba71eb2e8',
    'centers find chain-8.json': 'd5db0e98b4b381a0af933b40bc2e9da721e1ad79cca946b8e3fd0827e37d9489',
    'centers enumerate --limit 3 chain-8.json': '804bf3c9f4376028522984a3a068ae48fa8f3fa4f533dfa789bc26bb2b155904',
    'synthesize --method terminal chain-8.json': '79dfa63cdc756656a3ae88a30536ba6f22497ee284e21988711f0a222c2565c0',
    'synthesize --method centers chain-8.json': '2b2c6a2ee82f5add43899f39bf591c96b29e48b1c1517000b32d54bdf01d2906',
    'synthesize --method centers-dual chain-8.json': '925631b73c637508850caa56bf70f43f12382b64964d3bcc9aa643ed5229e7ec',
    'synthesize --method genmc --generators chain-8-gens.json chain-8.json': '4f6e956b0874056d91caf7f983262de15e0d25d22cbe1a49331b24d022be6df3',
    'export-dot chain-8.json': 'cd85b0fd9bf3b232c00b8bc9f9e2f7a6cdfa5d18ea4509dd67eed6c52fb0c816',
    'enumerate --max-elements 24 --max-generators 32 chain-8.json': 'b1c4e9c5940f010207bd3d1a5a46adff6b7594c34085587dc6343c2660dcbed0',
    'verify chain-8-s0.json': '9824cc48caa9af6218f20256888c7009b6f5cfea069daf0f5d2a401b53eb40e4',
    'reduce chain-8-s0.json': 'b28fd9910d6a442b3fa7f8e55c1335dd027947f0f6cc74a3abb1a5e3bfbe05ea',
    'export-dot chain-8-s0.json': '66a4780e692bf234faa8048d74e6cc867c20481be73a1b3321e69fbf61be9f64',
    'synthesize --method newcofib chain-8-s0.json': '5591c4869b0d432bb3fd5443fff6902296f0a0855efee6e93f62f3677d268a96',
    'verify chain-8-s1.json': 'ebae7f1aeae07df29be2b07acc72d2cdb52412bca359664dbbc1f19a47d0a7e4',
    'reduce chain-8-s1.json': 'db9ad9f537734cd0ccf934d395033ac11f34f73111db1b83fb4c285325dad447',
    'export-dot chain-8-s1.json': '79f52159fb2a03fdc8fe1c4ead8dde507265e2cc35d4d6f393b54931afe4b3f3',
    'synthesize --method newcofib chain-8-s1.json': '367f311af10047c1a2198336a7b6a39309757e12ded596ebe412703ea766fa15',
    'zigzag chain-8-s0.json chain-8-s1.json': 'b174661df3437ba25e0c0ee921b7265c43bb5f7bc2632eff1357ead6487f634b',
    'zigzag --contract chain-8-s0.json chain-8-s1.json': '1fdbe6bcab94c749d54fdba43bb44ae2cdcaee5bb35bdab0442f75e8b689c67a',
    'fixture chain-16': '822cacd60df2f732ae8575b4fd0c33e603555bf94ca913e2916f5b69083c2934',
    'recognize chain-16.json': '875ce53fed2fe5c42b8edc2e8fca284810de0bcef55b18d3e18227212d20ef82',
    'synthesize --method centers chain-16.json': 'd63e0a31c1da191014c7609248212399850d51185141de41f6297483f73eed45',
    'verify chain-16-centers.json': '0270628b99f91916caeccd92eb6c0e13b410eb681b1d3cb7eb94617e1575e7f3',
    'synthesize --method centers-dual chain-16.json': '889c979daae71b81fee2bbc28a609f44559f592b64aaba1fa1e30966ba487379',
    'verify chain-16-centers-dual.json': '74176d3bba7fe6b9341fc334bfacc11482607c1e587bdc430b3a9d8d19b1173b',
    'fixture trunc-3': '17640dc718ac099078f8587cd5290932da3ad3c3c97297509b32ed94f13f9992',
    'recognize trunc-3.json': '7ec0f6556acdb274ac2a16aa001fb596a36061baddeb7d5bb312324156611365',
    'synthesize --method centers trunc-3.json': '6bb9b1cf62a8fd65b54e9428eaa23ac013479df07facc0741c14351b66e2e6b4',
    'verify trunc-3-centers.json': 'f5404b0090584763b66b94808d171992993ca5ca0b366eefc17bd161d9d55462',
    'synthesize --method centers-dual trunc-3.json': '238868a7832d5b5595b1ce61def843d75a28f0cc6fbffddfc4dd32bd70a0dfe8',
    'verify trunc-3-centers-dual.json': '459a3d85b9c7b34efd698949d85654b803a9582f80a329f9e22a3078ff728a15',
    'fixture trunc-4': 'b0cb101b378dc994700cc4476ecadcb5f455f9de8a695dfa27f100317daa4c4f',
    'recognize trunc-4.json': '97a4b0ddcdaf9ca802d058b4cafe44e895bca2b315d1780571d80be8e57566f2',
    'synthesize --method centers trunc-4.json': 'd9d84578845c761a6a54bf4f38a7ef0d4bc548200934960050cba608a924c0d8',
    'verify trunc-4-centers.json': '2e801503c10962dcf8dbfab43ae42bf2f658791c86d3dbde70178a69aed2ced2',
    'synthesize --method centers-dual trunc-4.json': 'bdf1ab50b49e8732fe88981ddecf9379f45e9dad9d7c60f710e508ca09e91e00',
    'verify trunc-4-centers-dual.json': 'e84541cefec28a5b1444a0d962534857f1e2f9e4ed4ee72a5c87d0ab58facfe9',
    'validate escaped.json': '75e335c8a4bc3a15447849d230892a32446ffc2a2c75463074e76a8786435224',
    'recognize escaped.json': 'f908b1ca54c58011bbc3e04fecc5b330990725068d8e0277f9b3871f07802387',
    'centers find escaped.json': '67325d61a9303f5b8eda78c4b132efdea0dc4c09e2e0bdfc95c12d8827d4042e',
    'centers enumerate --limit 3 escaped.json': '90857df0b25bbdfb0ba462112c8a52065f63f1150e3d30a7be3edf8e315ab90c',
    'synthesize --method terminal escaped.json': '35e86b52071cc97994f8a80a8b33de8f8b1e2201ebcffe9ea2f003c7abee81c1',
    'synthesize --method centers escaped.json': '8eb72b1ab320576e485c43fbdfc4ad6d6ba14cd42a48851e1478d6adee4614cf',
    'synthesize --method centers-dual escaped.json': '5ecd0f086385e09257f2955d47f9826133b738d03f13207131eabdcfd991d204',
    'synthesize --method genmc --generators escaped-gens.json escaped.json': 'df779dcd56e5346b920c28bba9f2ebbdeba8bc2808db0e06fa5304232f244349',
    'export-dot escaped.json': '77b7bea990b95de7fdafd75b6a214aa4573ff4d54ebcb5f4542d7ca70542866f',
    'enumerate --max-elements 24 --max-generators 32 escaped.json': '43361940c52f5fa6246e6c6ebe6144938d9684c51d5ce63e10d94e77e88d8995',
    'verify escaped-s0.json': '707f3f4dad570ffd33a2efe93fb670daea2c7de5704ad1d86b75921f06cff272',
    'reduce escaped-s0.json': '4949fe400050895d484da40ba9afa2f785b81445151a614da5fc3309a8ee55e1',
    'export-dot escaped-s0.json': '97c5e536b5275db1bc18516ac2c6d48c8fa78bf3458892fd7528ee607607491e',
    'synthesize --method newcofib escaped-s0.json': '9bb6b1c1287a0650c2ce76a824006411514b572f82f53ad318d4941ebe9d178b',
    'verify escaped-s1.json': '1b0a871e1f07306349d8b4003979652bdace7b267ce4aeed950ef8029e3e37c8',
    'reduce escaped-s1.json': 'a65a08bd121521f22b5724bfa60b9bb0008f06be57336a7ef0381e00c02e6a63',
    'export-dot escaped-s1.json': 'd48c888033cbf3d03f092fdc635b7c3acbac71c43d115fffd6af17d00a241254',
    'synthesize --method newcofib escaped-s1.json': '67edd5b977fcd24d7b0e596c4e17c9d0e79eca819bbc224c9304cdc71debdcf1',
    'zigzag escaped-s0.json escaped-s1.json': '993b124dc1a63cba8257a7dd2db4e209b2a4cfc278380a2ed30007dd6f8c45e4',
    'zigzag --contract escaped-s0.json escaped-s1.json': '91a4921c7f28dea9bdc0977c5d2762c8dd275e555d88410f43cfcfd97fbd8a23',
    'validate escaped-no.json': 'b721a3bf9857be5188f53a3e6a2ca93c90e3ff2864519fc99c1d9ac24a1594de',
    'recognize escaped-no.json': 'fe9e59b38b1340cbd9da523da9684a210a3a309aa50ba7d53141d4eb14315734',
    'centers find escaped-no.json': '7ae563380d5d244bc021b256c570aa1057c55b491a604724c0cc9406c61228f7',
    'centers enumerate --limit 3 escaped-no.json': '052f9cbebae0c118cc2eb5cd95fa2f4830980b87316960147fd8574d5727b4b5',
    'synthesize --method terminal escaped-no.json': '8abbc57869fb8780d04ad1afa80942334d19bcc64ccd485b5b1e11f5c66cca99',
    'synthesize --method centers escaped-no.json': 'de70e6e6a5b1371351daf1acd4b1521ac5936c89c7dde2ac0206024fd999f44e',
    'synthesize --method centers-dual escaped-no.json': 'e52b327bbb4019bf01106ad2fb99f4369708b73008798bbd2d82ef7a22cec22e',
    'synthesize --method genmc --generators escaped-no-gens.json escaped-no.json': '041be0a8709ce8d4f2ada2bd906f9141c5e7327a599e44c798a24f56ceafa3a2',
    'export-dot escaped-no.json': '2a72158a66741c8becf589c67ec3773de8931982d09dfa74f303de91e32f6a76',
    'enumerate --max-elements 24 --max-generators 32 escaped-no.json': '564283499fa39f7535a7ffd4d5e7bc8f23843b405f734e180f5281b3eb5d0e35',
}
