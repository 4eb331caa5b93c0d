"""Golden netlist hashes: refactors must keep every netlist byte for byte.

Each entry is the sha256 of the netlist text one construction emits.
The table was generated before the builders were restructured around a
single circuit-copy primitive, one fan-out chain, and one demand count,
so any change in gate order, gate kinds, wiring or header shows up here.
A hash may change only with a deliberate, documented change of the
construction it covers.
"""

import hashlib

import pytest

from addergen.families import (
    FAMILIES, AdderSpec, build_adder, build_full_adder,
)
from addergen.netlist import dumps_netlist
from addergen.techmap import _demorgan, demorgan_map, levelize

WIDTHS = list(range(1, 17)) + [100, 1024]
MAPPED_FAMILIES = ["ripple", "brent-kung", "linear", "kogge-stone", "mig"]
MAPPED_WIDTHS = [5, 16, 64]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(key: str) -> str:
    """Hash of the netlist text named by key.

    "family/n/carry" and "family/n/full" hash the adder with its spec in
    the header; "demorgan/family/n" hashes the normalized inverting-gate
    map of the levelized carry circuit, and "demorgan-raw/family/n" the
    unnormalized map together with its output parities.
    """
    parts = key.split("/")
    if parts[0] in ("demorgan", "demorgan-raw"):
        lc = levelize(build_adder(AdderSpec(parts[1], int(parts[2]))))
        if parts[0] == "demorgan":
            return _sha(dumps_netlist(demorgan_map(lc)))
        mapped, parities = _demorgan(lc)
        return _sha(dumps_netlist(mapped) + repr(parities))
    family, n, shape = parts[0], int(parts[1]), parts[2]
    spec = AdderSpec(family, n)
    full = shape == "full"
    c = build_full_adder(spec) if full else build_adder(spec)
    return _sha(dumps_netlist(c, spec, full_adder=full))


def golden_keys():
    keys = [f"{fam}/{n}/{shape}" for fam in sorted(FAMILIES)
            for n in WIDTHS for shape in ("carry", "full")]
    keys += [f"{fam}/4096/carry" for fam in sorted(FAMILIES) if fam != "mig"]
    keys += [f"{kind}/{fam}/{n}" for kind in ("demorgan", "demorgan-raw")
             for fam in MAPPED_FAMILIES for n in MAPPED_WIDTHS]
    return keys


GOLDEN = {
    "brent-kung/1/carry":
        "a1d5e4b7d37f4d0b2983ce3b232cbc00b2e8cc9a018941d9ef669ddec7ac408d",
    "brent-kung/1/full":
        "be3018cdf64e2e5bcd49d6c95699ecaf0ba3e3506f1ee96a92773c725d3a969a",
    "brent-kung/2/carry":
        "95f7e45cce4d813d8caedfdb669342a0d5a60aaff811cae22a9282eba46a3121",
    "brent-kung/2/full":
        "4bffd3f156b6ce1eed1db9afbd71a8f8b7f22ebd6970d394beb75a8ac8f9fa19",
    "brent-kung/3/carry":
        "257fea8743a7f79ff76efd3ca470e8d3e188c06d28529ee5dd759e0069f48eb9",
    "brent-kung/3/full":
        "d7f1354ae3ce82bd6cb27688e27f7e29643b27235bbc2c937b2cc355b940dade",
    "brent-kung/4/carry":
        "a1a8627843f415cb232ca7d56357985ea6c9eb01ff28a6696517188360c5f8bb",
    "brent-kung/4/full":
        "55d965071156c04347ac5dbab6aa0a28e7ff42293ec732711064a38d072ac0dc",
    "brent-kung/5/carry":
        "7cfbc4b1dff378dbbe22f4c93cf8bfe5b5fc3379fd1d641fb841eec0ef2fa44d",
    "brent-kung/5/full":
        "da35c4f8e957c3127875cb09ced75c94f7cee72eea4c73b85a1b74646f024641",
    "brent-kung/6/carry":
        "4168641ee1455dbb5aa90e988e91f9d86d89a6fcfcf91042bfcbb84a6f741382",
    "brent-kung/6/full":
        "9bc6173859808730ffedc971af9a0faf0579ff506937af7a4be93b25055b5317",
    "brent-kung/7/carry":
        "92450c7bbb12e5b8c986c46adf0ad4aa41591bfc08ec789666826bdbe74cd6d5",
    "brent-kung/7/full":
        "96d6dea1501d69fac2a14d511f9ccbcfed3393bb566fc57207789f0530758037",
    "brent-kung/8/carry":
        "d7bc2c598f7ff255bf0eb1055e07a59e7e4e865cd2670e4800d58a6d5d03a337",
    "brent-kung/8/full":
        "cb36c60fdb3bf27440c71550f29b3397cd80a799a2aa8f2b051e161e7c58dcc5",
    "brent-kung/9/carry":
        "0575437e0520413e1b7c1734c8fe2732fbf40ebf21c3183d8c7ec364b2269059",
    "brent-kung/9/full":
        "0aaca836118fa0155175245e593d53dd8224f4c98c4456f91cb1df0e5422f5d9",
    "brent-kung/10/carry":
        "1ab4e8ccf9337a209705ae0d18b2579657ec0ddb13aa8bd2cb8278f799d5eb5e",
    "brent-kung/10/full":
        "eb1ec1f79d06b8486e8ba67be33029559a92555ca4700d23c8b060812f89caa9",
    "brent-kung/11/carry":
        "ad3237d1a313834c05912a06c8be49ccd5a6f2c91a305dbe1f696370a97d5287",
    "brent-kung/11/full":
        "bee3ece9089f355ed8c165c04cdd3ec1c629ff6af1a7322ebbaa2f0ec5a9e8b9",
    "brent-kung/12/carry":
        "68d27156dd82f7507bb0cec82f1801aa8a76897ab55893baa1faacddd4912ace",
    "brent-kung/12/full":
        "8ef4cf43b26ed2dbd95ba2e67eafda6b78fdc67c7637c8beb63d7a97ad6322b1",
    "brent-kung/13/carry":
        "0c8b55d6fad213c8cf380953c8b898ec8a39848bd6ed48a48ec5e453aed1fc50",
    "brent-kung/13/full":
        "8d54a4e29302f7009f50fecdb96c5617ae6d82cb6935d008cab23a6c4da12db5",
    "brent-kung/14/carry":
        "2404dc2567505918185eae4b8aa7cd82b864848e8c18b96ca3c712184fc504c7",
    "brent-kung/14/full":
        "c458f48eb018fc9fac3a11fb5e148c48f8d0c48ad3669abcf565b26ae53c4c54",
    "brent-kung/15/carry":
        "3e703472bfaa3b359fab9045d76d3620a9118f124bb9f0aab2e847e2cb6c32e3",
    "brent-kung/15/full":
        "636b406c222a0f712de2a4a4d3e2f8eb16a2435c810e4cde82ae05891a282d02",
    "brent-kung/16/carry":
        "1be29339914ee51d1da5196336a97d12c425489e84cda7143512a8d343577a85",
    "brent-kung/16/full":
        "908f52bab83ca625e5b61d908c7fbe3fa6ab628b6ea092e7c28cbf8fdd5a9230",
    "brent-kung/100/carry":
        "36676ab29848c242b1d315190b8ff765ea6fe7927569a11586499b62c7f96c15",
    "brent-kung/100/full":
        "9092ca79d72ae4c455b3ad933790c6ab2f6dd8ff66357335db68bf53898f7ca0",
    "brent-kung/1024/carry":
        "57629eeeadd23885179a49d89114ebc79dc3603ac792247370ea381c71e9c011",
    "brent-kung/1024/full":
        "77f8bf4b741b3d68d6dfd69bac38a2e9b8b9de883dc9dde22cf6e6bbc23072d4",
    "kogge-stone/1/carry":
        "70d2f3ff22951449d7896016556b645e40d037662e4570e6d69a284adff09e89",
    "kogge-stone/1/full":
        "9972aa0cfba997bde342badee131eea4937c7a57ecdea1de4ec0bb1fe0664f84",
    "kogge-stone/2/carry":
        "a397f4f2ba099ee450ea1b5b3cee1a75e80b51ca2b4c654fc1ce3f246a3171fd",
    "kogge-stone/2/full":
        "f5fc4175a3e759785eae81160ce6e4b092bb8468523d26329120fd724301d3bf",
    "kogge-stone/3/carry":
        "7172213d5ddc2b02786a5b19e1c6c3ec6ee69b7fb245a7b50195b2d9e2e00385",
    "kogge-stone/3/full":
        "49551ece8617f9243323be8ca60beba69769463cd4149afde1cb125863216043",
    "kogge-stone/4/carry":
        "a306c6f82aee3cbaa33ae365197c2943e342dd8594586e23fbdfe048cda9aabf",
    "kogge-stone/4/full":
        "fdaa6931387c17cfb5eae4219eef5c9fc16c2b744a1263e66cff47617fd12eb6",
    "kogge-stone/5/carry":
        "986f8ce234196f107e12532236fbefef308664d7dda47d5de01933b09f4929e4",
    "kogge-stone/5/full":
        "2e22c3a89f2e479271b87de2780668c906bd958f42d5aa3301cc4822c3ed05b3",
    "kogge-stone/6/carry":
        "97f67abf8286bdc3714f33f63d3a35aa7ac08c95c163f978b92e93f492e39a02",
    "kogge-stone/6/full":
        "93cb2618f2cbca62fd48c750d17fef323697d855cad333e3be3a8ced685be219",
    "kogge-stone/7/carry":
        "79fd53f374f15cd6803b2cf768bf7b4ce98d2582c6dac85ed682afc6053a6be3",
    "kogge-stone/7/full":
        "22ed764cd2856f81b7106dd28d63c5c06ec90db2400b546de99b2e5cf86e0722",
    "kogge-stone/8/carry":
        "b2ec473899fc5b3b7f80d8a8a4dd419319fc49ee88715fa5b3721aecbf17942c",
    "kogge-stone/8/full":
        "be76a2683b9e215eda95ad53f02422db0b2f5a2b7a505ac31298cc2eaff74b05",
    "kogge-stone/9/carry":
        "0a508c1fe54d6b3cb79ca9b70ca83a714484f552de7fb53c0964c5e5156c2572",
    "kogge-stone/9/full":
        "1d80842f6ec9a14f76dc37e70cfe2ee07aea6ef02052d6aa8e4f8ab33d497c8e",
    "kogge-stone/10/carry":
        "16bfaa9347742fa39cbd908cde967e0295d65aa3ba134f66f82aceeda55c8a5b",
    "kogge-stone/10/full":
        "6e469255d65833c3b891d111254b19f50d755d3387d8042545d011a5a8b642df",
    "kogge-stone/11/carry":
        "40c6f1b7d16b2eeddff9b823e70addb421d7469bd96aacdd792d6d4a3fa9c2e4",
    "kogge-stone/11/full":
        "fc660c786d4985187169b1eb31a3187f82e7254290ac0715201d1232f0d40758",
    "kogge-stone/12/carry":
        "ab1f6e3872584323bfe494db89a259243f891c1862b48ecbf3e5176e9a9b0dc5",
    "kogge-stone/12/full":
        "9956e5adc5d0270f0e2cf66ec620e45b9eb947b2d17ecadb1f1891cccbc0aa9c",
    "kogge-stone/13/carry":
        "694f909825a7d2425da75b1e08ebf7cb36d4561f1355f8257d0c34abb393c393",
    "kogge-stone/13/full":
        "1993b0bab4c26c9123c8997450982a325f24f84763b97db41dd53c71fd85d500",
    "kogge-stone/14/carry":
        "9249f8dbceac67d808080f3f11503f8f575c02f8cb4e2f3436d5cee595105072",
    "kogge-stone/14/full":
        "d9e6e1de66d99a619f552e62f238618199a374bda50af681fd46400e4e7bb5b2",
    "kogge-stone/15/carry":
        "2ec33792480fa7143623760535b1f6ac802da6ae8939f84279a9013a18892b33",
    "kogge-stone/15/full":
        "02317e93f095af94e4d3f675d19b4925d6781a6b4159e474e033ff77e9414b76",
    "kogge-stone/16/carry":
        "d569f9c3e9b7f028b7cfa1aadbafde91938bbb94ebb89ad40f1413a032f2e35e",
    "kogge-stone/16/full":
        "e879a58dedad310b25b73f8ca62af0fbd076c9fb3805319d72b27f889e8b13e8",
    "kogge-stone/100/carry":
        "82eb7d253fecd27d667accd71781df50aac7071a2b7e30aa89337e2dd43d8512",
    "kogge-stone/100/full":
        "aa33425aa57500c174ab2ad5d4883dce6a08736991e008918719f4dbf3c2edd6",
    "kogge-stone/1024/carry":
        "ae47f8c787f48d153a7ae21a9e38231d00da762c64d8c40750af1c7620d9e5cd",
    "kogge-stone/1024/full":
        "e432779b6b6d5e8051b9c45353ef64200668f35086832944edd37b64b3e21113",
    "linear/1/carry":
        "eed853b34012a49d78f64a8a0c2de5d4e98be0f7ace166fbbfb185a83bed805f",
    "linear/1/full":
        "5df41e97c0e56fbca83c0487a7ed1168478119f100f65381a3af0a605f648039",
    "linear/2/carry":
        "eede0568df5ec0e28a3532ead2b4e836899a9124b09397941a2b8001555a9056",
    "linear/2/full":
        "68e462dc822920bec5fef8b3752d0fbf4fb39380868115f501ebbd0bc218a0a8",
    "linear/3/carry":
        "799545ccd1d1aee07768af704a3f09ef4fd4505e03d4be898ba89b6d70663ac5",
    "linear/3/full":
        "5addbc85958ab31c3f3e96699aed1c190dc8bea21f3ff87f11540c3a61888150",
    "linear/4/carry":
        "736ca3c88a6b61cf0d81ca1782595dff574155abd70660a7df0df4f563e6749f",
    "linear/4/full":
        "ed6cb0378b07da0d4ca55a8e3fc3a4aed924edec41e5354dfbeab1f55618321a",
    "linear/5/carry":
        "0b303ade03fb6da183f39e0f863a09f668d3ca18ffd5b64df55f4c8cc95bf886",
    "linear/5/full":
        "125168619a399ac68cd8b9952933d3170c616e901475e8d0db1bcef3cac08227",
    "linear/6/carry":
        "d5d294bd7c03b145f285933f95468bcfa3a6678253f7e7c7bb2f565ff466a171",
    "linear/6/full":
        "05b2977e8f856e7f7b7ef836b7a541edb1dd1b14368529c133e12d325d803752",
    "linear/7/carry":
        "438db5eec7fa374876985bf1b1265013deb9321c0bbf000158413273b99059c4",
    "linear/7/full":
        "f90ed1be5c7fbdf352984d4016cbe193f044ab353d9f3b4581d764e3982cdf18",
    "linear/8/carry":
        "66c23e5464640150025351508b27360805d2cc5b298ea2fedc5503fb6c8940be",
    "linear/8/full":
        "5e515e04ca4b3563fc2b1b6b0bf1d9e08d7630134a261f4788e5691cbed4ffa9",
    "linear/9/carry":
        "7af06512c16f8d7a47e4d2b5e0ea7c4fa41a48691c6bbf875930113f56207d9b",
    "linear/9/full":
        "abefdca7b3297529effd043ff55950751f6723e3553b69076f23ecea5ca38981",
    "linear/10/carry":
        "a375aa8f64ee94f68cc6defb646c8ba8b35f3191df0bd58cc2d90e63fcb1052d",
    "linear/10/full":
        "1816298d9fb1cdaeb71102b1ceb9f11e292ef51982dd10b8980425b15efc580b",
    "linear/11/carry":
        "8a84883d0cee29af3534d464313348e88e0a80373d22df862d7fd9c7d294a77e",
    "linear/11/full":
        "f08545ff67dc90456c7949fc3ea7a208b90e59bc901cd6552e4acf5be199b8d0",
    "linear/12/carry":
        "21caa751a297d46090c3003ce5d7a118cfb46a876ac1622a7bbc04606c343f79",
    "linear/12/full":
        "76b4099a12732afc56ec1610b0139adf8a5b526a377877c5a2cca24ba1c0c739",
    "linear/13/carry":
        "27c69c8c5e3f0f2e68eaccff0587141105b4affbda406d57e5ef9aff0318a792",
    "linear/13/full":
        "78e2edbbfacccc7bad1ae7c12d783a5f9af43e137b4691675abe93c3ac22f0b5",
    "linear/14/carry":
        "d2c16bfdccadae01fb4f5dde58da45c37bb42258613a35aeda80a77d8da1a2d1",
    "linear/14/full":
        "efe10212b89815a25fcbf39ef7159fbd260647bc5a3ef31465cc26a5315da137",
    "linear/15/carry":
        "a9ed73c3a36661496757a11b768fcb7d39d8a66f174eae7f39c4c193caa2dd2f",
    "linear/15/full":
        "127ec8b51e3510072b4e97d8e453b75db3766d843a850c2c6a661e81d1a71fb2",
    "linear/16/carry":
        "073b6791d0f512b788be95065620838ae1be0046cdaebdc09eca12318ccbefe6",
    "linear/16/full":
        "363bc915cc071412b9a2dcac9228248a56ce1a6d33827ef787e9b707fb4fd991",
    "linear/100/carry":
        "5c6f79e1d5c0aa9963e1e58e67a0b471a810d105247afe58bc5ec6fba0edbe28",
    "linear/100/full":
        "b8a3e408905fdf2028a7c30395279b8dd88702be0efb629033862fba62276c45",
    "linear/1024/carry":
        "b8b97041c8126a1da95796bef657f7a3031739e3ed63d1f90b72f4f6866b0657",
    "linear/1024/full":
        "ad7bd7cd2e52588a257eca0b11484f86c88db0e26eab29e1e22652efdcf0dfc0",
    "mig/1/carry":
        "c95272673dd10b685f35c5b0715c0743ab46965263f6166ab33fb264984bec74",
    "mig/1/full":
        "d6e2f41166aca2621119e1b8e852603cec9e6de3517d7199fe693fb2df316c38",
    "mig/2/carry":
        "c1a744e2fad18062a83707de4c1aac17a633530d396be4bed2f42f4eec4277b1",
    "mig/2/full":
        "99d0ee6f7a702f57493382fabd1f1abab2abb47a1d42848cf08552202497a544",
    "mig/3/carry":
        "4d0ff8879c35874827b6da0a2d6286b043e16c96ea7f8213824f7d3679c1825b",
    "mig/3/full":
        "85d3b3caa4bce780a9ec13eeca9c19d8904e15dbe3b5b087368ffd95c5af3f92",
    "mig/4/carry":
        "cf1f41315f2bfd3bc9c7d20ed48e7cc7547c6c3a36d57137c4562a515bead96f",
    "mig/4/full":
        "cd0f2a8bfedd3b6f8a4b6b4560f3ae8e76a437a607bc31a16b7f857d27813e71",
    "mig/5/carry":
        "309aff3e9cbe4e287e1ad1046e9615fb19f7e464a517f1d8cd72886f2dcf13b7",
    "mig/5/full":
        "af86c98b57f4db05a396aea96ee41019ae1aa8613bef992b6df019824b841ec3",
    "mig/6/carry":
        "5f620bd876a363ca6ec04d6be4f8b85b09142c79d230800a1d9d4ebf2fba29af",
    "mig/6/full":
        "649f311695fcfc6e488753286af273ac317dcd80ab95ab53b088ee987ed2df5f",
    "mig/7/carry":
        "ba690c277fa0c73fee3a3b6b27e3294882c08dec5d201b0aa09311e74a64a2f5",
    "mig/7/full":
        "2b73e63683c39543f2a3353a1df338b460e077acd4952ce902c47e501400b0be",
    "mig/8/carry":
        "a0e73897d4e4a929c08c9fb511afe98ac4512488691384805c8b6d3d63820b24",
    "mig/8/full":
        "35608e064792c68bc3f402599c47392f09811592481ed557da4026bae6bba91a",
    "mig/9/carry":
        "894194a83043db7d8075d3e415cafbdca85eb0a297f7d71573fae58f90b8afa6",
    "mig/9/full":
        "45ef2cb4d17908c2e736382ea583add447215d5e1379399a80fd57a39ea5dd02",
    "mig/10/carry":
        "ed07db6ece4ee34784394f29777dd8cf56de564dc843326569f90b3e061ca19d",
    "mig/10/full":
        "7c23371a1e759239e54fe285a78ed8b4233949dae2aaef521132c70d03b4d17a",
    "mig/11/carry":
        "19b65647a0b515266204d65413c41113169e8770c3a89fae4f3a828d719acfe7",
    "mig/11/full":
        "69b26eea077a2dfdc46e6fcd2c9b752adf95e4528cd7b7d5ce8dd4f4610bb532",
    "mig/12/carry":
        "2549dae720170f1a1beb9300dcaec1d99baceedd937dab11f7567bec4bb10c97",
    "mig/12/full":
        "649d12ceacb730edc32e465c6c54dfb9cff25a5ec79f8366c7fedd52a5039ad4",
    "mig/13/carry":
        "161718d8598a07505f5161761c3ba8e4f15f3b7dd5fac9772d484c259780df13",
    "mig/13/full":
        "14788046a0861480be4c26670e3ac9ee72199ec422e08e181acccba4af3212fb",
    "mig/14/carry":
        "bcf3968ef52ef7952601d1004b74d85dc25bd4af5c5895c59fa614a7d0ec22be",
    "mig/14/full":
        "350b3d5f2783ef1bf7d49f1e833cb0ee9961b4c4734cc97b3c0e0a6328fe1581",
    "mig/15/carry":
        "9d00d9fd535b5c819a61d6799fc4d9db12bbf01a01dda062150e6ab17d008128",
    "mig/15/full":
        "03c94d3b68d942f5dad977c66d61d5a8a6aed47268135c9cd2533db4083d5590",
    "mig/16/carry":
        "fac321b3933533f094564558593190bfd8f7299010396986dcfe3b521a5d11f1",
    "mig/16/full":
        "c356b2c77c07692a3a7788504224b3d18ffc5e374f1aeb665d263b9df6b1b91a",
    "mig/100/carry":
        "29fc3103000fcb0e3ae3ad44d4622224c61f635d8a4ad2a4fbdf0773a5a93b97",
    "mig/100/full":
        "f8a23ffce1ad9b092adeae0be2ae40fa9942f649094165b20003a91ebc8f63de",
    "mig/1024/carry":
        "1ae034943052fedf0c11315f86e16ca8657f099a68d72aa70f2b770c57e83b50",
    "mig/1024/full":
        "b2ba1771117bddb909e223becbdde2fce65284b3e0941b3e6e754329ea4f45ab",
    "nandnor/1/carry":
        "2452aebfa850a2aebac0591838e4a7304c22a33986cd31bb6f21ff1eddb2ef13",
    "nandnor/1/full":
        "739ed869a88c74065564041a55328e92a53b5bac6b74640b6da1a3df98e484bc",
    "nandnor/2/carry":
        "d41e5a8e27558bfe6e4103b83d9f386711390582a98fa985703f610b4bf3815d",
    "nandnor/2/full":
        "0c3cea6741167a109634f7888fa8e7dd4901ef1cdd0855c96f30078cb2e5b503",
    "nandnor/3/carry":
        "0566af545bafb457e2f6d81218edd57e51f2a75381ed695caf7ded387910a71d",
    "nandnor/3/full":
        "a96173abf53ee51e71a21c227cab830841c1401c54857ea0deab6ea80741abfc",
    "nandnor/4/carry":
        "9913e1f3fd342d3255072d75abdd8b8bb77effee9ce003b205545189d8de258e",
    "nandnor/4/full":
        "92916e0135a657344c5e0d0547bbdbc582fd38e5ced0994cae704102083c8874",
    "nandnor/5/carry":
        "038c1ecfd94de51c7c9b7d5daf90584b5d33cd2fbeb40f6c7f0af35de8b07717",
    "nandnor/5/full":
        "cf95686315579510ede0772c1227a5087adad4d938884913de29daeb4626eacf",
    "nandnor/6/carry":
        "7415a399082ba32396bf506021a019394ddf7f6a1cb25c211092f62cbca717b9",
    "nandnor/6/full":
        "664c51d649098583359586f155aeb47efe13645a1b2ede289c8ca5d47cddfc49",
    "nandnor/7/carry":
        "119dace234fe71d0a78f82c9f83a1113c9eccb575bb19df807725dd19cf9046c",
    "nandnor/7/full":
        "bfe3714bd40d65dac165a488d740e3716e3d2dd76126fbcc35e2eef482b6d6ef",
    "nandnor/8/carry":
        "1ca99294725184876b2fe4bce0f028621c1e159b1501963164c8fda2748bb20c",
    "nandnor/8/full":
        "2af5be4ee2a95815f4921dab25efd9675f596b67fb8e25f8c44d320395d67528",
    "nandnor/9/carry":
        "30cf9c54c5d413e6e46f6cc857d8a524fed2935b361e27135b6daaee7b5e89c0",
    "nandnor/9/full":
        "40b3c1e596afa4654859fbce22e355c6602673c1991454f24dcfb4141b413644",
    "nandnor/10/carry":
        "0923059788a5868dd024d39dcbe79b0209ffd26da0be3199d96116c253eb607d",
    "nandnor/10/full":
        "a10c0100f63b93b02760bc71cebffab5d3c17b7bbd55638faea947de517a2687",
    "nandnor/11/carry":
        "fb46f54bf69fafe887930a55ab5cec408fc5d443e5da975bcc52a2cd7b37a1bf",
    "nandnor/11/full":
        "2fdb7a52cf697848f6a6b313a8589f19b0a147b76f60bbe7fe1884b59b8a1c3c",
    "nandnor/12/carry":
        "954e84a6ae7bc756c43adece67a7fc75a2d19b9f190a885ee532fee8972be28d",
    "nandnor/12/full":
        "f522a8c6bf6f666fd9a7707af89428b3690e6f790848f37bcb65e20468af64e5",
    "nandnor/13/carry":
        "f19fde4393ee1afe10ac88cc67c3be7fe26e43667c89bcc887239e0b0e990d36",
    "nandnor/13/full":
        "7291f99456a006ed3719659e6e61b20d491484ae73324201af916705c27e6d58",
    "nandnor/14/carry":
        "d896539c041a91e7e4109185a5a0d74c5ecc209a185e8fca0eb3b96019caa7f6",
    "nandnor/14/full":
        "28479a391c2f109e011fadc9ab525e554009a9ff14168b18963df0fc68143ab1",
    "nandnor/15/carry":
        "f6cbb55b85c3a0347a8baaa68a0051e560c920b364bbf95991a2bf4618a75e5c",
    "nandnor/15/full":
        "bd8bb35db182bc30598e8efda4247c7c1d36103b1d1901e2c3d30f752b01a759",
    "nandnor/16/carry":
        "5cf9540a69bf198c3e73dd9cc27177fd79824b03a5feb1f51312cadf6c5862d1",
    "nandnor/16/full":
        "e21c524e7ccdad6ed0f51787c5edc9ee10b4bee124325eda9771a7cfb114fc81",
    "nandnor/100/carry":
        "08955e84378101f25985bd1e2887c24645b6934d4c268ae987d5397c2964de61",
    "nandnor/100/full":
        "21f85d3b9a6c940da8f300af52aee56eb3df7b14b21218ade3b308b742008ae1",
    "nandnor/1024/carry":
        "a9391088260575cf57dc4d0d159cdf91c3888735465483ede99bdbb5cfb9df54",
    "nandnor/1024/full":
        "7399fba22ca32334d987cc885118645eba1c07dae8be06cbac6ca7105a286916",
    "ripple/1/carry":
        "904f8b04945f6afd9e41fea1e97f794cdc98f804a0d0ad44632d75c4de5bcabc",
    "ripple/1/full":
        "ae09f77a16ac13afbd6e444d8b5480c2a256fa91dc15c4e616317310ab02be58",
    "ripple/2/carry":
        "adb95ebf626cffa16ed2be16452488bcf9e132dfa9a9e79dcaeefe4e4acbb355",
    "ripple/2/full":
        "54bc877901a37302a5be7c50c05a74288035e63718a42168fe89864d7f50ca1f",
    "ripple/3/carry":
        "b362b69e8cb54c0cbd44e0bcda09bdc14c6dce819151985b54e5b63dee7f47ab",
    "ripple/3/full":
        "a184136c87f0169d6f5b33ba98c2893bf3b2420d23dc0bdafe6e729452947eb5",
    "ripple/4/carry":
        "565ff013defe751e4537e8ce2d4398761f5ac5a46fd88a694f6aa0c6ed14bb90",
    "ripple/4/full":
        "c17940a44eb761122df1d8ae4db8023cf0b6aed4825e5a09dc9cc81c7c5f65e3",
    "ripple/5/carry":
        "eb85a6263175d15bd9640749e99eac31738463213feca2cee32c13d840fe69d5",
    "ripple/5/full":
        "420e58234b04613ab060010b6f731b582300cfd0d40f8d9408252f300d21e12d",
    "ripple/6/carry":
        "3de5532bf4365eb8911e9b553db07dbd51b7f3366d3bf03112297a2cc9e06205",
    "ripple/6/full":
        "7fcfb77e53944c4f2f05ffa25c795ead836ee03827ce6f682ade1e88d4bf6789",
    "ripple/7/carry":
        "c09ee6f2c69c2d686e373c0ad6d059af46a2773b2cce6d45cd9945bbf0008e0f",
    "ripple/7/full":
        "ede59defea7bee10f6232e50f793ea94d2678ea2f50adc2d395906e2544b909d",
    "ripple/8/carry":
        "285211899f24d6af8c87c457d107bbe3ebb04553bd04a483a45a6f257d7bc52c",
    "ripple/8/full":
        "a434defb12e7d313a833e991a501481115b4e58ce6ed6ba45e095da4962c65fc",
    "ripple/9/carry":
        "7169f78d967c118c13589eb00f7f2397d6d95550898a266dac3e36e8b6a682a5",
    "ripple/9/full":
        "3fd242453f7b4ca13eb4d7750794d79ad99a25a13e0d4af2188537578db55210",
    "ripple/10/carry":
        "8c9ac6142f0e229d2fae5bae8790616f141ab1e98e093f5cbfd71ab2978249f8",
    "ripple/10/full":
        "472af7c320b1a8114c6acb52de6e75aa97b16c36c3434d143c3699d12753fba8",
    "ripple/11/carry":
        "3f622bfbd17cd3fe418be1a89f3ad36e51a74f8fbceb7c96ed71c4eecd71b01a",
    "ripple/11/full":
        "66e86410dae6e0e0416ba596698344b6225855c206b08c06efc2ab296e9c5993",
    "ripple/12/carry":
        "86c634f48108bbb9e551b62d0365b1c1421aa7523d017f5597c80c4bdb5d403f",
    "ripple/12/full":
        "191e03de919dae6663439b96125d49ca1773eb0670060efe77ed6e497fe14b6c",
    "ripple/13/carry":
        "b39603367c8faa0c1c83060440645d2e2b9763b374cd93528ed901e628fa3208",
    "ripple/13/full":
        "381a619643fd60d9faee27d24dd66c79a0947dc6c84f1b7714d1fc047e57d1d7",
    "ripple/14/carry":
        "caaa10c4794b337a0a0feaa4bbe9340fb8b9f5a05de9c0ffd2fcd5002026ef77",
    "ripple/14/full":
        "648d683f49b7c395c944867d17d7133c9f557cb2624096558713efe42fcd983f",
    "ripple/15/carry":
        "783b626c330978fd64ed25cfdd5c0529d48c546d69ae022b87cb8b971395cb48",
    "ripple/15/full":
        "4886b40ce15cff5ebf55ad4eba7f8ac8a4e21f57d4ec00088d70ef8436dccb37",
    "ripple/16/carry":
        "dda493cec6da4db676b7f66989cf62c868d03b49f9e2252b7a242030e2d12c12",
    "ripple/16/full":
        "250147d4d450cb647f6e232cd99ea37932c73098f38c93f9fcb76f21ee49cfab",
    "ripple/100/carry":
        "3eda4927b39a57cccb81e0ee4b6fd6f156e4030a4afe4a156c572ab058f1fa04",
    "ripple/100/full":
        "e54de8a81058d60ac01f2af1d40e8badb240d5f310b37816df99aa14d12d27f2",
    "ripple/1024/carry":
        "7f1b1fb196035bb39a16966eee93360cfdcae4ba79454f0d7778b6cb72b137e5",
    "ripple/1024/full":
        "b7099d4a0923d7d6f74bffae497f4e72c2205af24ea750ad885395cb951e0e81",
    "sklansky/1/carry":
        "eea63c7ba892594dfc3d602f2619f02d1e9186f3ca461a03b0c3098201f18879",
    "sklansky/1/full":
        "5f788b9c6d788b19714bac26ae1a83b8074503350226fb657be5290841dd099e",
    "sklansky/2/carry":
        "bc0df155a8b023edf204d9b9f8ac5c5aeb75f579ef15872ddda2c94c59d80e5e",
    "sklansky/2/full":
        "c175619d0f34ea1cdf0dcbb0313cb85a31b758dae21ee7def768e920b69990df",
    "sklansky/3/carry":
        "926bbe90cb651694a20a2b06aabf56774a6fe0690ce30683ba163d0854f3933e",
    "sklansky/3/full":
        "8098060debf8e0b8999a648ffc3379579221c1c4eaae5419f83b025e44251b96",
    "sklansky/4/carry":
        "38bfb357fbe4511d4e243e6da8d1fafce9964d7657aeb9c20ac19bebcf167250",
    "sklansky/4/full":
        "11b3b442b8ca4aca5d2cf222ec429c40b9448ad2ec895ecbcf9a8fef201ab398",
    "sklansky/5/carry":
        "423e2732f510ccceae47d2b4b2316852274cd51fa60d8cb6ae97469b14df98ca",
    "sklansky/5/full":
        "acc530339767d30c50cb82c1fee766d305e2f862dec1cba003613f57879cf498",
    "sklansky/6/carry":
        "10658c9085fad4e40476bc3d2c96605c48f71cf8b02313679f336b786aa3f369",
    "sklansky/6/full":
        "5300e7e0fcacc8b8edc3a539c410374fd528ea9466b8e71ba37e1147621ab577",
    "sklansky/7/carry":
        "2723c2f4f6c80f348e3720b6b29e7fbca253699e17314cf28e0fbadbe37f84b5",
    "sklansky/7/full":
        "91ea3b6dd9d19d053084be6ac77322bd5d8c450e95f15f8b85ef02058d73e7b8",
    "sklansky/8/carry":
        "528ef083f6228f903862a1bacffac23b22dc2d5e09b6cf4d029260996497dced",
    "sklansky/8/full":
        "270f7cf293a3eb394031af7ba7ac736f824a5d4600f2e93a544f8a0f1099b24d",
    "sklansky/9/carry":
        "442a4cbeaf6cc8ccdf7bab752256503cf9788e13458fe7f1ee85f063b8a8fa07",
    "sklansky/9/full":
        "200fc8db1262506eef426acea750b63def9b1b865c3e30f5c51e6b0e9f6e2240",
    "sklansky/10/carry":
        "139472bb0043b21035d49048382e5ffe0ab98294e5c5e156d16ea930e355aefa",
    "sklansky/10/full":
        "385736a18e004fab29a1a09cee2ed9f438f92347da91fb5fbcf10bd2d84dc066",
    "sklansky/11/carry":
        "91e8a8e52cee9c1f32210083ecf422a790928870a8b99cc1ddceb8493116c114",
    "sklansky/11/full":
        "e39851acd926ebd1084befdfa40bd044b3ce0d779012c5b87250751822fe9114",
    "sklansky/12/carry":
        "a6f32b900888b679898530c5e80fe871dd57660ab8c3108b936cc177a5142747",
    "sklansky/12/full":
        "44b3184d5db64c07a9e0f004e1678dfae346a3e02de1b6d5d15b7739bc78ac9f",
    "sklansky/13/carry":
        "ac847c259f016a243f1d35202443d5d85cb96d271a14f0615388ab4a36410e61",
    "sklansky/13/full":
        "3d0933d2d8cc62910f45b80dc64bff189ef3fff2ab6228e7f0956e7b9a6b2cb3",
    "sklansky/14/carry":
        "7f7b995763d7cbc2300a47eb279f3bb100bad38e56f8196ea7b78c43ae9e2a46",
    "sklansky/14/full":
        "f29011e3b5b18c8ee5126e0d35964038f070715f6393c62f913db4da5f0667e2",
    "sklansky/15/carry":
        "80626ff056020c49bf4dd3825a07072990e50880b72deb9365f36176bbe24bbc",
    "sklansky/15/full":
        "aa1f5811bbee7bf42d593940edee3d3f260848c02b768baa2ee61ffcadfbc887",
    "sklansky/16/carry":
        "3c965bbd0156c21e3f21e870f7c9e180846b7e88e1b92a2fa27156c1831a3755",
    "sklansky/16/full":
        "5e613968a3ba2398cfa2019fef85ff22b85170929f837d1130e39b80aee69a04",
    "sklansky/100/carry":
        "0686c6b390679be6c1642d516f3bf7158e926f6d688a7612fe357810e7543447",
    "sklansky/100/full":
        "78eafae360fd87dac090ad67e5534608b7674e2614542955cd84c8e22e84fbf8",
    "sklansky/1024/carry":
        "0521f6137c9623e6561a9af80c4e57feb8f274e5666ae9264d626632eb3d5f55",
    "sklansky/1024/full":
        "f54cb5313e88ffaac4a2416aac51c75746ef67523d5cb39f07a6e3c190c1ed8f",
    "brent-kung/4096/carry":
        "ad6c30678ed6c71d284ab4dfb5ec3469b5a04045eef76fa96ce8f91377941194",
    "kogge-stone/4096/carry":
        "e9e77a557939a2a1396b06772c1420bdfb5759c3b256a3db7f5b4c5e1a2e9ae3",
    "linear/4096/carry":
        "68032293f1fa085e40afed53109060c651860137dacdb69ccabd683a4a9b586d",
    "nandnor/4096/carry":
        "785ef095c1dad2f6b38c10441714903b0e9591fe494665f7bc7d63b704dbd57b",
    "ripple/4096/carry":
        "7456b53588522f12ec42d131c0ca0da4a221dfa7bf7c2f3da3a8707d8e876048",
    "sklansky/4096/carry":
        "1960f805a2c51a1a246946615de456ec1c3adc1b27550c075230cf46f8bc41e2",
    "demorgan/ripple/5":
        "6fc4269be113c1383853a8f886a14e84cb42ea24679c34f2c96d0b35c3ccac95",
    "demorgan/ripple/16":
        "f027a8ceb47b5492eae67a5cc1cc1bdd0f656c58d1a38f3520111dd8019f1ba1",
    "demorgan/ripple/64":
        "268feb4bd6cc8b75cc213d72463c79a5622cbea91a51c03276e797bee550f3e7",
    "demorgan/brent-kung/5":
        "4d1929fb782ea2e7b04dba80fe11c917af3a9c81543c0e1fa7088e9dea6335a5",
    "demorgan/brent-kung/16":
        "0317dc9f2a351209a285d011e5acd031e62dd80774c51d84217453b19b49556c",
    "demorgan/brent-kung/64":
        "02ea6b73996d9bf49100f802f81833aab4765d11d80a19a5588bc23ddd1987e9",
    "demorgan/linear/5":
        "e2fd299c805d711736b9e04f22c85fcc0df6272c1bcdf0690c948cf431fdf26f",
    "demorgan/linear/16":
        "95e0087e988e0b347ed78ab03a9a227ab405725ca3ce506b69b5d65ea0f9f43e",
    "demorgan/linear/64":
        "21a1f88ea93224495d8d0ab80c837e20e0d477f5f91ddd98eb77ddc98f186830",
    "demorgan/kogge-stone/5":
        "37c075c2d696c5c89e54880ed265dd2225eb99b76973f8a3fd19d015b3681d98",
    "demorgan/kogge-stone/16":
        "468182412f2e85f188cfc1981d2c15f08a09849bcb4546f055dc2dd6db54c62f",
    "demorgan/kogge-stone/64":
        "938cb56ecf88c677a045fc445bc625b626502d422e8a308dd3d2d56980331c61",
    "demorgan/mig/5":
        "23107d73f931da2ed3d7c9c85b83489822ff598a72f37a10d4010083b00aba43",
    "demorgan/mig/16":
        "6668554c18ffdc4a5df125453aea5ff8b7065ce0e524f6909a3c8031c12fc2c0",
    "demorgan/mig/64":
        "ccf86074fca0c69527377797f1e05689299f59e6a2ed3bb2fd1d202470a8b47a",
    "demorgan-raw/ripple/5":
        "6be2d22271535bf5ad6776268590a46979a8541b061f4a0f93c7f4671ced5641",
    "demorgan-raw/ripple/16":
        "3de5be3f628cf9aa6666c2132b6b8c3787d1f72e33dc7d55bd29152bba1e9502",
    "demorgan-raw/ripple/64":
        "002dbc5de30cf4f0b18652d5439b058d8dbb46c37eb4a71de2dc9348e536d805",
    "demorgan-raw/brent-kung/5":
        "1e927c9b24b71cb361917e05b49dd1de240548b2b4ea9ff674cc6516caccac41",
    "demorgan-raw/brent-kung/16":
        "1380362d3cef8a86f05dce4f3207ae26f9923256d2bf206e5c0ae16a6410169d",
    "demorgan-raw/brent-kung/64":
        "8a6ba02657153fe420aadcc487967a508f889588699d3e330621e4bc65363d60",
    "demorgan-raw/linear/5":
        "24f0a78ad1b840438b7df406ba46c25ed599f53980bb3b120f47a9553a8128da",
    "demorgan-raw/linear/16":
        "d550e80e441b580e9d0f48c2a3fd84af45e39158d22218875330bea552f15e81",
    "demorgan-raw/linear/64":
        "bf3fa90a5251c954582813a889c99455cb9bda3de9e8575ed75e5ca5dc9d65b3",
    "demorgan-raw/kogge-stone/5":
        "249a6a1d5792d9e2b3fd0d8c4cbf6df897de9f180d2ee406204e2b094d79fe37",
    "demorgan-raw/kogge-stone/16":
        "d2bdcef97f8434fd07d1e2b14e4eb35c98526d869f468526049d094363f41d6a",
    "demorgan-raw/kogge-stone/64":
        "0a7384c6998f1133679693d2c771a2601637c25af3474674a76ff83a76bb6526",
    "demorgan-raw/mig/5":
        "038e44d2e7af2d167ba4243299f740b64dba1e087fc6b7ff9ee3c40548db9298",
    "demorgan-raw/mig/16":
        "6c34ea475b40157b7936b03f488334e14830f0a8b226e31c6834285c670acd02",
    "demorgan-raw/mig/64":
        "6778b7ac765e7f4ad906be9b4e270406e2e941faed63ec3f69e9b75040982916",
}


def test_table_covers_every_key():
    assert sorted(GOLDEN) == sorted(golden_keys())


@pytest.mark.parametrize("key", golden_keys())
def test_netlist_bytes_unchanged(key):
    assert digest(key) == GOLDEN[key]


# The benchmark's large cells that the table above leaves out: their cores
# use other block parameters than any golden width (the linear and nandnor
# cores at 16384 are mig 64 with r = k = 3; golden's largest is mig 16 with
# r = k = 2), and linear 3000 is built at 4096 and cut.
LARGE = {
    "linear/16384/carry":
        "899e2df2b33b20641a6162794cc68ff80462f673f8a04266357c88142299717e",
    "nandnor/16384/carry":
        "58591185d19b0a9980b44abd5d2c6ddb0e577eca1a53c64c0d179c3aeea4e1bb",
    "mig/2048/carry":
        "30265cdf8d682474fffdb37c3ae548ecc32d55fbceeef853db2fee2b46d80123",
    "linear/3000/carry":
        "64b5c9da80871f17d87cae5abb85291d39445d54e14ab9875215a472887e1a1e",
}


@pytest.mark.parametrize("key", sorted(LARGE))
def test_large_netlist_bytes_unchanged(key):
    assert digest(key) == LARGE[key]
