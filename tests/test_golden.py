"""Byte-for-byte pins of CLI output.

Each command's stdout is hashed with sha256 and compared, together with its
exit code, against values recorded before the mod-2 obstruction path was
rewritten; the ``group``, ``closed-form``, even-degree ``complement`` and
``nori`` entries were recorded before the Hermite transform and the
invariant-factor memo were removed; the ``snf`` entries after the first and the
``group`` entry on ``[[2,1,0],[0,0,3]]`` were recorded before the Smith
elimination was rewritten to carry its transforms as appended blocks; the
naive, nori and second even-degree ``classify`` tables were recorded while
``classify_all`` still ran ``decide`` once per row, before it was made to decide
once per parity class; the nori ``complement`` entries at j = 2 and 3 and the
non-ample one were recorded while ``complement_group`` still returned its
certificate alongside the presentation; the two domain-error entries were
recorded while ``classify`` still wrote its own output; the last six
``obstruct`` entries were recorded while the verdict rule still built a
degree-3 presentation to read its relation rows; the four ``classify``
entries of the wide P^1 x P^3 boxes were recorded while a box group's cosets
were still listed one coordinate-sum level at a time; the six before them, of label
shapes, while the sweep still built each coset's label and parity mask in
two passes; the six of coset runs while the sweep still labelled one
coset at a time; the last four, of near-square boxes, while the square
CH^2 boxes of P^1 x P^3 were still labelled one coset at a time; the
``complement`` entry with a zero weight while the lower bound z*CH^{j-1}
still took z as a ``ChowClass``.  A refactor that
changes any verdict, justification, class string, JSON key order or row order
changes a hash here.

To re-record after an intended output change, print
``(exit_code, sha256(stdout))`` for each entry of ``COMMANDS`` and explain the
change in CHANGES.md.
"""

import hashlib
import json

import pytest

from chowobstruct import cli
from chowobstruct.cli import main

_BASE_COMMANDS = (
    ("obstruct", "--example", "bidegree34"),
    ("obstruct", "--example", "totaro48"),
    ("classify", "--example", "bidegree34"),
    ("classify", "--example", "totaro48"),
    *(
        ("complement", "--ambient", ambient, "--degree", degree, "--j", str(j))
        for ambient, degree in (("1,3", "3,4"), ("4", "48"))
        for j in range(1, 5)
    ),
    ("snf", "--matrix", "[[4,3],[0,4]]"),
    ("cup", "--ambient", "1,3", "--a", "3*x1 + 4*x2", "--b", "x2"),
    ("sq2", "--ambient", "1,3", "--class", "x1*x2"),
    ("obstruct", "--ambient", "2,2", "--degree", "2,3", "--c1", "x2", "--c2", "x1*x2 - 3*x2^2",
     "--assumption", "naive"),
    ("obstruct", "--ambient", "1,1,2", "--degree", "1,2,3", "--c1", "x1 + x3", "--c2", "x3^2 + x1*x2",
     "--assumption", "naive"),
    ("obstruct", "--ambient", "1,1,1,1", "--degree", "1,1,1,1", "--c1", "-x2", "--c2", "x1*x2 + x3*x4",
     "--assumption", "naive"),
    ("group", "--generators", "x,y", "--relations", "[[3,0],[0,4]]"),
    ("group", "--presentation", '{"generators":["a","b","c"],"relations":[[2,4,6],[0,3,9]]}'),
    ("closed-form", "--d1", "3", "--d2", "4"),
    ("closed-form", "--d1", "12", "--d2", "18"),
    ("complement", "--ambient", "1,3", "--degree", "3,4", "--j", "3", "--assumption", "even-degree"),
    ("obstruct", "--example", "nori:7"),
    # one branch of the Smith elimination each: divisibility carrier, row and
    # column swaps, negative pivot, 2x3, 3x2, and the two empty shapes
    ("snf", "--matrix", "[[2,0],[0,3]]"),
    ("snf", "--matrix", "[[0,5],[3,0]]"),
    ("snf", "--matrix", "[[-4,6],[6,9]]"),
    ("snf", "--matrix", "[[0,0,2],[0,3,0]]"),
    ("snf", "--matrix", "[[2,4],[6,8],[1,3]]"),
    ("snf", "--matrix", "[]"),
    ("snf", "--matrix", "[[]]"),
    # Z/3 + Z with the free generator between the torsion ones
    ("group", "--relations", "[[2,1,0],[0,0,3]]"),
    # classify tables under naive and nori, and a second even-degree one
    ("classify", "--example", "nori:6"),
    ("classify", "--ambient", "4", "--degree", "6", "--assumption", "naive"),
    ("classify", "--ambient", "4", "--degree", "25", "--assumption", "naive"),
    ("classify", "--ambient", "1,3", "--degree", "2,2", "--assumption", "naive"),
    ("classify", "--ambient", "1,3", "--degree", "2,2", "--assumption", "nori"),
    ("classify", "--ambient", "1,3", "--degree", "2,4", "--assumption", "even-degree"),
    # certificates: EXACT and ASSUMED_EXACT under nori, and the non-ample note
    ("complement", "--ambient", "1,3", "--degree", "3,4", "--j", "2", "--assumption", "nori"),
    ("complement", "--ambient", "1,3", "--degree", "3,4", "--j", "3", "--assumption", "nori"),
    ("complement", "--ambient", "1,3", "--degree", "0,4", "--j", "2"),
    # domain errors: an infinite group and an unsupported dimension
    ("classify", "--ambient", "2,2", "--degree", "1,1", "--assumption", "naive"),
    ("obstruct", "--ambient", "3", "--degree", "2", "--c1", "0", "--c2", "0", "--assumption", "naive"),
    # obstruct on the rest of the benchmark's (ambient, assumption) pairs
    ("obstruct", "--example", "trento"),
    ("obstruct", "--ambient", "1,3", "--degree", "3,4", "--c1", "x2", "--c2", "x1*x2", "--assumption", "naive"),
    ("obstruct", "--ambient", "1,3", "--degree", "3,4", "--c1", "x2", "--c2", "x1*x2", "--assumption", "nori"),
    ("obstruct", "--ambient", "2,2", "--degree", "2,3", "--c1", "x2", "--c2", "x1*x2 - 3*x2^2",
     "--assumption", "nori"),
    ("obstruct", "--ambient", "1,1,2", "--degree", "1,2,3", "--c1", "x1 + x3", "--c2", "x3^2 + x1*x2",
     "--assumption", "nori"),
    ("obstruct", "--ambient", "1,1,1,1", "--degree", "1,1,1,1", "--c1", "-x2", "--c2", "x1*x2 + x3*x4",
     "--assumption", "nori"),
    # P^1 x P^3 tables whose CH^1 is a wide two-generator box: CH^2 a box
    # too, then CH^2 through the breadth-first search
    ("classify", "--ambient", "1,3", "--degree", "178,2", "--assumption", "even-degree"),
    ("classify", "--ambient", "1,3", "--degree", "40,3", "--assumption", "naive"),
    # label shapes: three-digit coefficients on P^4, two-digit x1 coefficients
    # beside a 2 on x2, and one-row chunks over 300 CH^1 cosets
    ("classify", "--ambient", "4", "--degree", "120", "--assumption", "even-degree"),
    ("classify", "--ambient", "1,3", "--degree", "13,3", "--assumption", "naive"),
    ("classify", "--ambient", "1,3", "--degree", "300,1", "--assumption", "even-degree"),
    # coset runs: a CH^1 box whose short side is 3, a square CH^1 box, and
    # one moving CH^1 generator beside a fixed one
    ("classify", "--ambient", "1,3", "--degree", "3,11", "--assumption", "even-degree"),
    ("classify", "--ambient", "1,3", "--degree", "7,7", "--assumption", "naive"),
    ("classify", "--ambient", "1,3", "--degree", "1,9", "--assumption", "naive"),
    # near-square CH^1 boxes in both orientations, over square CH^2 boxes of
    # sizes 10 and 12
    ("classify", "--ambient", "1,3", "--degree", "12,10", "--assumption", "naive"),
    ("classify", "--ambient", "1,3", "--degree", "10,12", "--assumption", "even-degree"),
    # a zero weight in the multidegree on a three-factor ambient
    ("complement", "--ambient", "1,1,2", "--degree", "2,0,3", "--j", "3"),
)

# Every command in text and in --json.
COMMANDS = tuple(cmd + extra for cmd in _BASE_COMMANDS for extra in ((), ("--json",)))

# (exit code, sha256 of stdout), in COMMANDS order.
GOLDEN = (
    (0, "cb973b4932661bcf1dcea6405ac82fb12719ef0605c0cd5dbfa839efab13da85"),
    (0, "59490eb280832b0cd86da4bd1bc3f3eb7762835811ae919e12ca1d823b85f0c4"),
    (0, "8639bce700621ccb1814398dd37c9b12a9074c6583e9a3c0e8316c8e353bf520"),
    (0, "4ee6a4b5b05318a1262ebe3257f60d7822ac84e1d5611da022da76a237c3fded"),
    (0, "b200e84aa198ba88c6c38960d3abf64b25445a65ee969ba609492bf786f26ad9"),
    (0, "cd62251e751ec626e0733087ea3aa76846e626526d4b15bd9cca0722ac9cba8b"),
    (0, "affd376e0dd34f8ff0f32c42bab1cc45397e678ded8a490e2e8a280db3d162f5"),
    (0, "0b58dafe8e662aed9f824418265cd482d9c23dcb7be3cd48081470c8b3026f3b"),
    (0, "0b0da83002b650931ea8ff8b56ea08405af7a6cb79898bd010327c5e7e963fb7"),
    (0, "9c535f85ef4b77e4960c4317d654c0817e1db64900fac181008e5ae19f595178"),
    (0, "3021ffd0e4d146fb9ad6979e5decfbb2798a10b8e90ed63ddff887f401a80875"),
    (0, "25cb6431c247c07ebcabdf9b204ecfbe223495906394741b1ba3d611a4d572aa"),
    (0, "8a63757f4b5cc023e1ea19a0bcfdca722e50231e7944ff34ba0ce6d57370d619"),
    (0, "324573a77e2a1b9755263f9054bdfe502a6200c70447797257685c4a4f877a02"),
    (0, "f78fa561fa7baae0153fdfaec267f300f41e291d7c53a894c8338bcfe593b59d"),
    (0, "138bd27d4891b6b2a2a9858f5d4c808b122d1ae731d2a15b05030d519d26eece"),
    (0, "04eff9516494daecc6183e2deeec74baf0cdcbafb32da6b38e82f389160c599e"),
    (0, "a11b24a183a3c5701f7042480c8fca33521cbddaf7fb359ce75b497d4d358e4d"),
    (0, "0fc67970577df103a1411b9335aa33301a46fc09fc32260d3224d698900dc902"),
    (0, "0643606640808b9193db2231b4592b12f73cdacc9960f8c813556c72e5a3564b"),
    (0, "e703b21a64be7f63855c8aea145aa64cb69f4c7400480867aa7d9f272e0bfd12"),
    (0, "ef7d623f9fc4b5e3827be18f42476e4c895f1d1251e7afd4899b0063a1917177"),
    (0, "757c7d7b8ab96c1bdbcecb150dd01190a3be4fa2968c6cb67ac6796c7ce9ee43"),
    (0, "7fd05e52e15a30ee4feb56a70e37744b4f797ccd15a901697f3f036dada6f84f"),
    (0, "80b8a9f3ee1811dcaadc1f8e9ca1c8eb0b236447beb3b980c7647feb8ae5b6e0"),
    (0, "0417d59aa29ab83ad65bd3e8a25241a30cbc9d79db91a1046524f9ad5eb30d76"),
    (0, "57d42a0ce8453e0c8b36de052ef10a16190d3b6e1f9cf54bcdf5887c493abb0d"),
    (0, "abc7fa2f170475990cdfc591dcb945af94c00363490f34c182fd7f950bace2d8"),
    (0, "e503d4ab61b0192042ac4f9e455d2999aa86a7f644e9d256531207d851d91e50"),
    (0, "cd9f5a5cbca1ab0b3a5f33a7ba050a5a668e1b5bcbc6c2963c302d211714f903"),
    (0, "9f87e0390606efc85ba7a41fc967780ca22399cca717236ea9819a6bee3f795e"),
    (0, "7319e80e444b6f7eae8fe75f408975a121b6b3e8c97311df4377a006948f2dc6"),
    (0, "6997c112d71ec149a9bf3ef9f0b9b4d276f72cc567a4e9bfda0994d973cda029"),
    (0, "0f9de4fd989f2d7e25a40490482625cb9653da6fed8ec3dd7205b41c4a603fde"),
    (0, "62cc851e469db0fe793ef4284d9df90a2e464f297a992a6b8d765f1cde69166e"),
    (0, "f25e5fe3bdc51c575823b15ef8c5b61f0455f3d0999610a710faeab61f159363"),
    (0, "5311960c6ddb00432b2dbf8218ac0923fe5d383dc7d9089b5590cb25025ab79c"),
    (0, "4baef498c7d89dd4defbfa387b130f035504a872e38bd7c293584e7473bd4cbb"),
    (0, "388fdb0b424958ef286d40915958be483d44c687819087f9fd8ba8f1fb7c6918"),
    (0, "aaf53d8e6056d4e5548e1165c787573346389aa3ac7de7b53d4083b3019409b1"),
    (0, "0f8b6494bf4c6152b4324375f8582ee34e2f2a0e895fc4d8d62dfbf8fbaed7c7"),
    (0, "786650f63a60e994c85de5109921f516daf4555f6aecdabf8193f992ce2ffd23"),
    (0, "ba4599c2da5a14357ccd898606f5d76d89c5b30a110fb025c2f91ba16a1f8ca3"),
    (0, "729c4ee185c1741a9754f07fe7b99227786a32d4fb194062eeecb7d88d57840e"),
    (0, "db95221e075c92cebeb40dc6fef9080aa02d07e5c0483acd7fc399ce28f1d210"),
    (0, "a1b18e9e58bb9a99ad9d7c78829b2de07ee9a00ecbf556763827ee88f258b9c9"),
    (0, "7c668f2675b7ed11e9001a65fbd9040e675b776fbeae5e2eee17a57c66643519"),
    (0, "a96d7cf19f62063eb9e787d85c0863e95e55fb9e4f3a35c0113a669ad65d1854"),
    (0, "9cbb60b14b6ea7f17f101f09b1d913f12df1ea3022747ff5c78d26c82530a89e"),
    (0, "f3c4fa030828a006723c9fcd7c7ef312cf4021af394b40ca79a0a3bf5320d8e5"),
    (0, "9581b05ea3bd55709b057423e9584e4359a03672b023e4aabc090a9dc15e93cf"),
    (0, "61255120f29c4ef5015873af35517da0805bdebf965e175d6ffdb427c40603c4"),
    (0, "cdf99825532cbab42c77340e3b082273fae8458bd8310a39d7628656bb08fda3"),
    (0, "b3169b4fe797c4e24abace23f64912fc5df8aac930c456f2a9aaab59a12a9ff2"),
    (0, "6fd78bb8307b73e51c59c97b9057b228fad7ac9aaf2bbef66e3276a32a1ebb3b"),
    (0, "fa066400648eff22ddf0d8d6e17ca1ed1a38873dad1bd9fd199d4410af85e41f"),
    (0, "2d0c9d0e16e33ae3302f03d6b9f15d581a4d5a186bab4ebe1577217fc1214fb5"),
    (0, "543b51c9d24fe0da554a353d24adda03deb6d32e010889ca1de9780fa349d94f"),
    (0, "f17b0efbe70fef37d16998254123ee96a510f0397bc7ad9ad6967898de5c7df6"),
    (0, "ac240390a92c17e5b8848077282ab74e067b59d8b096ecdb92fd5996eee37c4a"),
    (0, "9c061d9ec0b7d65542df48db36900f2135435278846dbbbcd67c630e1819feb9"),
    (0, "8358ed2dd0a9cfee7f8b31a64bf2a14f5937639f51e1e459514be915657181b3"),
    (0, "363d2d0dcc0ce370a83379ee205bef872e22e725760d3046edf4dfa535705980"),
    (0, "08ec98631eb59d11e0938b0696805e2e2a3b400902c9e00859671f4e82dd56ee"),
    (0, "6c81b26d226f82fcf4c1f6c0ddb42f571d3ac2b1bb74bac696d7b32e3820ea17"),
    (0, "35d14a69098e1148b4963bfc02f2b568c5d6097555dca7fe4fc3b11e7ea3c5d0"),
    (0, "6b8bcc03b54aaeaa8da94b46d98014a4eb82c67089b066636e1345de00d7210d"),
    (0, "e2d54b8ef99c8ebb9b9ce42c47e1926bb3ffcafa763262681c29d6d47f7f6568"),
    (0, "22ffd4911bebcf9d2a90399307bd9bb301d2fbf3cfc1695b2350328579c6c1d1"),
    (0, "7dcda1653f804fc90ad9bdfe7cfc0318bf388cbcae0ca000a0255d183cf005a4"),
    (0, "08e09778396e7d0d4a4c5822b164ac2e7147c9ea13cc31194f8fe594eebc4ab0"),
    (0, "8795793cdb895fdd31d9b77a6a8553088fd3faa0edd5e11c3f45dedc369f19b7"),
    (0, "f73f8ac796527402e5c159553ff8678fe124bf65f032ca1d18375128a8f48e91"),
    (0, "8ce77bad7e0bb488d44ec7dc46a3d4c8304b3b378febbc7fcbdc40ca8dfac148"),
    (0, "a6d95a09f6f6e726c8505f3de3f49f0c483c67747cc607b938245167bd4c8c10"),
    (0, "b6c589fd4c54a2fccbe56f7b28c1b09cb02c8834d26fe97551806b54d2e2a1ba"),
    (0, "3021ffd0e4d146fb9ad6979e5decfbb2798a10b8e90ed63ddff887f401a80875"),
    (0, "25cb6431c247c07ebcabdf9b204ecfbe223495906394741b1ba3d611a4d572aa"),
    (0, "cce877e9e07649af9b155a5644aed58acd3f1d721f010121f0f8bc2bd8d9fcec"),
    (0, "95ab2d63beb9669ae6e0fee1908947589deb16d4084c2fa5142c418a28d1de1c"),
    (0, "5767a32a7aec6b9739956143a5f6ce862ac028d08f9e2bcb65a2ce6480689e8d"),
    (0, "c573c9c6fdf4469543dff156cf3bd61b215e89d25abbdb4babf3a2d25cfd8fa8"),
    (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, "9c003ddda5bd035eb7159d26f9b89ca703f2c87ca6f72c9f4b974d02813b3024"),
    (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, "bf9b3a28a7ce5ae030e604cbc565ae903716e20693f1f1067811046f5a48b897"),
    (0, "af4954683dd8c6bb6c12b92bb086b0c4b34bcda743e592f8c112bce8e8d0d288"),
    (0, "cc534568196afef83f9e545d2a27e790ba2c0a1a9022dfb6b77c93914235af34"),
    (0, "bf88519eb8af1f8bb00941304710b5f3c736185abc89c78654f499e43afaafb6"),
    (0, "73c64556a4e8fa0cebfaf22149ef01840b9ef948ff698eb974f8e871c559808c"),
    (0, "3170d3bbe3db8ccf4bdddc35a9f036ecb2142cd10250a098bb3c3e6050660d3b"),
    (0, "cd9446da10bdb6b29736765dc10cb5ab8d3f0aa66bd80586f61c27da2c5ec14a"),
    (0, "5385e4fd280de90744da0f320d02b6166a4706d0e1ad9ff6b58b1395acab1fa6"),
    (0, "08aa319983c47d3bee2e1ac818972f57e77a5b1b7f6c01d400bd201f60ca3111"),
    (0, "b4085f26c3718b5ad004052472081469b6b12aa8cf5c879cad10d7944f571cd5"),
    (0, "81254584443cd2e1c8858f1102981343440ee4cb94b59afb08de3c7c54701d15"),
    (0, "8087ae103c82a416cdec4ea86689cd78ab22b0d10ccd6429df2e4cd338aa39c6"),
    (0, "e2e283b51ea0b577a5349c96cbbf228f2e6d32e4b4925ba07173ad0efda6c305"),
    (0, "04801ac9db753b7bf4be73812d9ee46b9298444e2856bd644274931e441f9536"),
    (0, "120652895a6437af0d8318f69e0c7c4c1c5f68bb75ef6bd08606160477c84b66"),
    (0, "b2d700eadaf260c266c15678d189375489cba5f79b42590094659237a8e9f83a"),
    (0, "c416d90594a991da82e6bdcabc76fc9b993de742d8898292419677e50f3c5d47"),
    (0, "5e3407dec1dcfaa83e0eff08d8868063429e42085a687ef28e025c7cb1f13c45"),
    (0, "c0bf00e0ebdd570fed59d5c17865575d92f98e4bcc50a0b0c97607e72c687f6c"),
    (0, "b75a5a4a60383473754599a9c900fb8bba7facec3657b21f13534eebac7d9a43"),
    (0, "6edf532cbe3810b29d4bc21bea8a518f4a68fe9ef3a14264b6c04240ebe9ad54"),
    (0, "985fc48eb0ee5581d0223bac3b9414c7e49318ab47ff3da522e410e0a23fbcf9"),
    (0, "6bf1672f961db6b39649acabe1cda0ab266a875f89a9c1e5ba9c83e6665e33ac"),
    (0, "3a149d39f51963e5ef50b172680727cc2fe490e9c7cf493e81fa343fb02deee4"),
    (0, "5e6a50a9864c06c0ad2d4283036954d3e9b6360bb66d5a7f9b3cb8950f513d18"),
    (0, "3c4bcc42267c3af3c1e97ed2ebcc46e2fb283aa22f21bc10675652a1a09ed43a"),
    (0, "30a4510c8302dd01b2eec67522f4c33b2f7997a459a5a0a5cfc407fe03068bfe"),
    (0, "8e784e890bf119b907ab23e5c67500b230471c262e4e7d50c6e830dd1f94e316"),
    (0, "5a97dc42ce60226c54c5c704b074b1820fb635896c293f0e4fcdaa2e1a63ebe3"),
    (0, "5ec03a5b05c1f58ef6af62dcf75b35943bc154727c022e1e43e09ce635d4eded"),
    (0, "1e0e15e18c97814d3aa892f7f072a5e5447c8aaa7c33c8f6de86cdb06862d100"),
    (0, "401eac7b29a07bb4685f8d5785972f1b902d026fb62c20d8f67263451d7ffa15"),
    (0, "bd12bb4d99faff3d2e67b51533c80cd71f1f1cdb5a11824c7531056f34217816"),
    (0, "32281fdaf3fa3e9985c5b7c0de8a7b381c4d19df4a8c3a5369be2e807c7b8f61"),
    (0, "1f67fda81295dae4a39221cfdb5185e42ffa283e81b7599fc34df3a7a8ec25a4"),
)


def test_golden_table_matches_commands():
    assert len(GOLDEN) == len(COMMANDS)


def _refuse_number(token: str):
    raise AssertionError(f"JSON number {token} in canonical output")


def test_cli_output_is_pinned(capsys):
    mismatches = []
    for argv, expected in zip(COMMANDS, GOLDEN):
        code = main(list(argv))
        out = capsys.readouterr().out
        if "--json" in argv:
            # every integer is a decimal string, at any depth
            json.loads(out, parse_int=_refuse_number, parse_float=_refuse_number,
                       parse_constant=_refuse_number)
        got = (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
        if got != expected:
            mismatches.append(" ".join(argv))
    assert not mismatches, mismatches


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


def test_reused_parser_keeps_no_state(capsys):
    # reverse order, with a usage error, a missing option and --help between entries
    failing = (
        (("obstruct", "--example", "nosuch"), 2, "unknown example"),
        (("classify", "--ambient", "4"), 2, "--degree is required"),
        (("--help",), 0, ""),
    )
    mismatches = []
    for n, (argv, expected) in enumerate(reversed(tuple(zip(COMMANDS, GOLDEN)))):
        code = main(list(argv))
        out = capsys.readouterr().out
        if (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) != expected:
            mismatches.append(" ".join(argv))
        bad_argv, bad_code, message = failing[n % len(failing)]
        assert _exit_code(bad_argv) == bad_code
        assert message in capsys.readouterr().err
    assert not mismatches, mismatches


def test_preset_does_not_leak_into_the_next_call(capsys):
    assert main(["obstruct", "--example", "totaro48"]) == 0
    capsys.readouterr()
    assert _exit_code(["obstruct", "--ambient", "4", "--degree", "48", "--c1", "x1", "--c2", "x1^2"]) == 2
    assert "--assumption" in capsys.readouterr().err


def test_run_does_not_build_a_parser(monkeypatch, capsys):
    def refuse():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert cli.main(list(COMMANDS[0])) == GOLDEN[0][0]
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == GOLDEN[0][1]
