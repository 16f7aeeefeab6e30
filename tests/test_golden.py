"""Byte-identity guard: the SHA-256 of the graph6 file and of the JSON
report that `bbcage construct` writes, for every family at small
parameters.  A change that alters any output byte fails here; when the
change is meant, replace the digests and say why in CHANGES.md."""

import hashlib

import pytest

from bbcage.cli import main

# construct arguments -> (graph6 digest, report digest)
GOLDEN = {
    "--family q4 --q 2": (
        "6c53c4e6111f40819d56ba844e0f0ed7d520774162467020e4045444a57a68fe",
        "051ef8308f895aaf72317036616f99ff5dd81ad36ba4050ba34e78da5f9189ff",
    ),
    "--family q4 --q 3": (
        "4acaee883437caa9b63784b548454005a3daf6a63b185ef652ec7ad91f5b4f38",
        "f237e5a7b0ee93437dbd0b3178bfd5f87e572709b6aaac51c84ce598ea9d796a",
    ),
    "--family q5 --q 2": (
        "c923c6ba04efa3eede48d485de5880edfede82546962fc1eb0158a8bb555544f",
        "09aef3a9e15859764b8814c83fe8999a1fd19abe4a63f0ae9e90b1495bfbbcf9",
    ),
    "--family q5 --q 3": (
        "0db609aad47a92e83485ffe50f1b6a0c15c752a4b434dbaaa356a44c6fa45550",
        "238e687d1d68e890d80c461a3bba58be743458471966d83ad84f85045e4cf031",
    ),
    # GF(4): characteristic 2, where field addition is XOR
    "--family q5 --q 4": (
        "e1156ec66b091dd1e2042afedea6396ed16ef20b823c38e11bf589c64f91f911",
        "cb53ba6e9fc9a0f89ea3c1783f53b1b57ee2bd7651457147028e7879eec0ea0f",
    ),
    # the size cap GQ_MAX_Q
    "--family q5 --q 5": (
        "059644ed837239978098576e9cf08a327dac926c1c749301564f57d1082ef352",
        "6717db915ad55c8358215860fa93ccf87bd0b7a7e9f5e30603253799adad995f",
    ),
    "--family hexagon --q 2": (
        "eddf6cadb0d468535254d8d0aceb2bf6e2608d7471a8dd16220a8d649c207fa9",
        "db8f68339692c6dd6c6110fcfa0ed3a6971ddb1f1d790d41d0edf21ca49b1d17",
    ),
    "--family hexagon --q 3": (
        "30d4e902706a5c1fd8e44ea0a1039a4f90e7374daaecdbd5a6ba0a50726a3aaa",
        "dcd43e882a5aead28908595233f647741ae894c32bd2fc66b4b46af10926f338",
    ),
    "--family q4-hyperbolic-prune --q 2": (
        "dde9cef48d84975ce1d47a6509bfbe1003f0d9240ef217632db73c69475339fd",
        "03f5c22fbda8a86d691d8cc728d35299cda2fa9af99cf544345c617127595608",
    ),
    "--family q4-hyperbolic-prune --q 3": (
        "8243bd5fc9c95230216073d2fc95d0f4ad6995d8c7de88c6cd5edac9b30f9d1b",
        "4e2578b5c3cdb4895f4e97b925d9c2a7522f037edd92e759928bd9ca01b9d445",
    ),
    "--family q5-parabolic-prune --q 2": (
        "1831042525d2eaeaaae6cc06b316d266b5c368fed98f248cd45391c115fb84ad",
        "6b1d0fc969de3ac5236bcbaafa95dd1ce6523d3e7d82b38aa3b5c53c7a660d25",
    ),
    "--family q5-parabolic-prune --q 3": (
        "d2cf9075025403e8ff51cfdb2a404742786d8df46979992dd48630885b0888c7",
        "db6d6d3a3ace9548073d86e34bc0924c7b403456694fd2c5e63142dc8f399e57",
    ),
    "--family hexagon-hyperbolic-prune --q 2": (
        "842cc300b7cbf9bbe0f4e0c43bb2db28a17496609788f0e1891f8e05b1d37292",
        "d1deaadc2b4ccb606bde3cda8be1205e3702dfa4bd12ea42046731d26836a3d7",
    ),
    "--family hexagon-hyperbolic-prune --q 3": (
        "b6b713193373699406d8acbe5535e5f04ab47667b50c7a37202a8d47096516be",
        "fea7010f3fc6e95a58f2c0584634c9cb09f70b75a50f64c02fda686d5d103203",
    ),
    "--family q4-ovoid-delete --q 2": (
        "23e28adefd94631d662144ebced488142c9b227fdf75c528150e962b7927757a",
        "2e17290443d45fa2d23dba336c4da60080b6429474afe951675c10d43e1c48d8",
    ),
    "--family q4-ovoid-delete --q 3": (
        "14379c7477179f4fa76ce6a4b532e6f64aa8315f05fb6c65b0c1c8280efaa04f",
        "ed1866f76dbe6864e726ded6c974053e3530dfe127c6a20a2d51dde9384f968c",
    ),
    "--family q4-ovoid-delete --q 5": (
        "e2ce2da20c76869f2d8d01bdcaefc260761cc939d2c8dc0075f448afca5130b9",
        "4abb9b29271f25cc111475997e7be09b92ff104457fd4f6255d3198b703783e5",
    ),
    "--family q5-subgq-delete --q 2": (
        "1831042525d2eaeaaae6cc06b316d266b5c368fed98f248cd45391c115fb84ad",
        "aef78a4e4b79f6510b4140fdc90c4aeeee44e27fae9453259353d62205a570ae",
    ),
    "--family q5-subgq-delete --q 3": (
        "d2cf9075025403e8ff51cfdb2a404742786d8df46979992dd48630885b0888c7",
        "94d040c8f38a48d6372084930f41ac18d59dfc7d88e3d08ad01502f041a8c518",
    ),
    "--family mixed-prune --host q4 --q 3 --edge lex": (
        "c80fd5bac15e987e2f755549d756e2c8d5d3e059ca21fb0f6555671c4ad29c13",
        "aff51b3347282adc8a0305f978d34fdc897d9439c507c8fe95f374153392b360",
    ),
    "--family mixed-prune --host q5 --q 3 --edge lex": (
        "027c59b675b91cdd59aabe59f1b0346c0221888a5dee7126ab34dd55184bc12a",
        "1647e6d84338a109a15ffb59a72100f199c075357a21be2f1565d1f572bc4826",
    ),
    "--family mixed-prune --host hexagon --q 3 --edge lex": (
        "d1680b58800c9fa7e735909ac7a06720f8d152ab58c6297edf4910a3682d0309",
        "e613f1ca3b8bbb7b0180cba9de1f802ef22b078b5cc550525d75cba6d7006a9e",
    ),
    "--family branch-prune --q 4 --m1 3 --n1 4 --edge auto": (
        "c3aa5262b10a79e66b692b21f8eccaa668810b0f4ad1149a9be5c8e929232151",
        "32a63b6e6d4babfc9b2a3e4aba15fa56eae5f1ec5da927ad507f3800c08e9cba",
    ),
    "--family t2-slab --q 5 --m1 3 --n1 4": (
        "f50027864e4bf912a262ba5db5e348dccdf2b43a01d7e3e636a934835ea1c262",
        "901da92cb292352455c6a5c9d176918c33e28e5c98199d032662d6043853de3e",
    ),
    "--family ag2-girth6 --q 5 --m1 3 --n1 4": (
        "2bfaea47547c64e10304682558375e5ac2d9de5ca393d578a27b35343ff6145a",
        "d6612eead953c04299c5cca44feb4f041ed1578ee234d0bcba6c3fe4cfbf1a17",
    ),
    "--family steiner-cage --v 13": (
        "ab99fee7ec7fbc0d57dc23638e4ae218d1d8f2ace2bf6658564b619e7bbb2c57",
        "013db2cbc8a455a42b2ef0dc0a1958131388b78ed033a25583b2ce4b91f81865",
    ),
    "--family steiner-cage --v 31": (
        "34748d026a25e9edd2696c6b9c122c8e6977276cad8a8c6578ca521f7d48645c",
        "3378145f7be988dd9d6baa014622be3afe582aea17f62e740af9edfc93e2e84e",
    ),
}


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_construct_bytes_match_golden(tmp_path, capsys, args):
    graph, report = tmp_path / "g.g6", tmp_path / "r.json"
    argv = ["construct", *args.split(), "--out", str(graph), "--report", str(report)]
    code = main(argv)
    assert code == 0, capsys.readouterr().err
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (graph, report))
    assert digests == GOLDEN[args]
