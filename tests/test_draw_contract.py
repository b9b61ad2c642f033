"""The draw contract: every check's reported numbers, pinned to the bit.

For all 20 registered checks at dims 2 and 8, seeds 0 and 7, 30 trials,
with each check's own function pool and with the `quartic` override, and
at dims 3, 4 and 5, seed 1, 100 trials with the pools (the shape of the
`registry_sweep` benchmark's traffic), the report's worst margin (as
`float.hex`), violation count and digest of the worst trial's instance.
Any change to how a trial is drawn or built that moves one RNG call or
one float bit fails here.

The report shows only the worst trial, so every trial's margin and
violation flag is pinned too, as one digest per dimension over all
checks, and so is every margin and tolerance of every link of each
trial, which the fold into a trial's worst would hide.
"""

import hashlib

import pytest

from opdiv import kernels, lab
from opdiv.funcatalog import quartic
from opdiv.lab import GenConfig, check_ids, run_check

# (dim, seed, function, trials) -> [(check id, float.hex(worst_margin), violations, digest)]
_PINS = {
    (2, 0, 'pool', 30): [
        ('THM2_1', '-0x1.0922b5df708f2p-46', 0, '086bc496c0d192af'),
        ('COR2_2_SUBADD', '-0x1.480a3d2d8b67fp-47', 0, '290754750e5f7d71'),
        ('COR2_2_II', '-0x1.8e8d04a629d74p-48', 0, 'b3bc958e6f56e45a'),
        ('COR2_3_SPLIT', '-0x1.d1614a1f1433ep-47', 0, '55569728ed8f601c'),
        ('THM2_4_MIXTURE', '-0x1.a207795ba072ap-46', 0, '72f0c067328fa950'),
        ('THM2_6_CDJ_DELTA', '-0x1.86ff679701f14p-51', 0, 'cd9942bcc8d1d102'),
        ('COR2_7_SINGLE', '-0x1.8f057f1f3e8d0p-47', 0, '24df76fe01ccea4a'),
        ('EX2_8_POWER', '-0x1.0af45c681f8e1p-49', 0, '682888f4b0907a12'),
        ('COR2_9_VECTOR', '-0x1.e000000000000p-49', 0, '807d205962530ff7'),
        ('THM2_10_DOM', '0x1.db5d8fed1501ep-5', 0, '770b1505d00831ed'),
        ('THM_DELTA_NABLA', '0x1.a9329b3907c52p-4', 0, 'b8abce3d0736bf95'),
        ('THM2_12_GRAD', '0x1.bcad7e5a32a1ap-5', 0, '18392a1fe72c9aa9'),
        ('THM3_1_CHAIN', '-0x1.d017fe802ff88p-47', 0, 'd5c8c977ee73ef7a'),
        ('THM3_1_II', '-0x1.a8275ebc4e80dp-48', 0, 'dc9d895c2451eef8'),
        ('COR3_4_ISOM', '-0x1.3f96cf9b23c26p-46', 0, '887909709264d4d7'),
        ('THM3_8_NORM', '0x1.c9cd048081000p-9', 0, 'ab417498010936a0'),
        ('LEMMA_JADJIT', '0x1.486a7044a16cap-8', 0, '4b2c31a053160c68'),
        ('KL_SUITE', '0x1.e15595ae70b68p-9', 0, '6f121bc6f41bb1f5'),
        ('SCALAR_CSISZAR', '0x0.0p+0', 0, '51bded11563c594a'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
    (2, 0, 'quartic', 30): [
        ('THM2_1', '-0x1.275ba46e367d0p-1', 1, '83129481573bc439'),
        ('COR2_2_SUBADD', '0x1.30ec76a40926cp-4', 0, 'e43ebe92725d4486'),
        ('COR2_2_II', '-0x1.c79c651ee30d2p+1', 1, 'd03ed8f14a5bcd79'),
        ('COR2_3_SPLIT', '-0x1.92ad2c05d76c0p+1', 8, '525ad58bf5b02e8e'),
        ('THM2_4_MIXTURE', '-0x1.78c7faccf3380p+2', 2, 'f544f9d5e01e48af'),
        ('THM2_6_CDJ_DELTA', '0x1.af3a8e2684800p-9', 0, 'f62ef25e24b5e0f5'),
        ('COR2_7_SINGLE', '-0x1.148c1ffe850d8p-8', 3, 'bf77788e9705f147'),
        ('EX2_8_POWER', '-0x1.0af45c681f8e1p-49', 0, '682888f4b0907a12'),
        ('COR2_9_VECTOR', '0x1.9b8b2690654f8p-8', 0, '58b4192a85fed186'),
        ('THM2_10_DOM', '0x1.db5d8fed1501ep-5', 0, '770b1505d00831ed'),
        ('THM_DELTA_NABLA', '0x1.2881fca97d664p-2', 0, '737d7a71d6809994'),
        ('THM2_12_GRAD', '0x1.345548fcf5baap+0', 0, '383a3f8e22c40ad7'),
        ('THM3_1_CHAIN', '-0x1.7bb2931463780p-3', 6, 'df2faf2d801694d2'),
        ('THM3_1_II', '-0x1.66882d873f680p-6', 1, 'dc2558406714d38d'),
        ('COR3_4_ISOM', '-0x1.939099d747768p-1', 5, '29fcdbd9770eb3dc'),
        ('THM3_8_NORM', '0x1.340163d460800p-5', 0, '8b354b1d097ae16d'),
        ('LEMMA_JADJIT', '0x1.486a7044a16cap-8', 0, '4b2c31a053160c68'),
        ('KL_SUITE', '0x1.e15595ae70b68p-9', 0, '6f121bc6f41bb1f5'),
        ('SCALAR_CSISZAR', '0x1.cd8d43c293500p-4', 0, '5bc005316c637e6f'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
    (2, 7, 'pool', 30): [
        ('THM2_1', '-0x1.2c20ab7592e82p-47', 0, 'e1c22e8798ffb642'),
        ('COR2_2_SUBADD', '-0x1.3ffffffffffffp-50', 0, '59521c11bab34306'),
        ('COR2_2_II', '-0x1.35f8e35ad71fbp-47', 0, 'f4b671e5f77a1bce'),
        ('COR2_3_SPLIT', '-0x1.00a92088106fep-45', 0, 'b26af12704fab559'),
        ('THM2_4_MIXTURE', '-0x1.6a0c0b9ecd3d8p-46', 0, '8138b17aab9171af'),
        ('THM2_6_CDJ_DELTA', '-0x1.4d0e1e9ecf3ebp-50', 0, '4d42a423d18b2574'),
        ('COR2_7_SINGLE', '-0x1.2af1383203ef1p-46', 0, 'b4af69f3dd8e03c0'),
        ('EX2_8_POWER', '-0x1.399f9f8a486f7p-50', 0, 'b54dbb46c3bde62d'),
        ('COR2_9_VECTOR', '-0x1.a000000000000p-48', 0, '0a883947287cc763'),
        ('THM2_10_DOM', '0x1.4b22dc93c3e4cp-5', 0, 'ce48c6ddf0a9f7c7'),
        ('THM_DELTA_NABLA', '0x1.569b8fba03423p-3', 0, '4616c16748895883'),
        ('THM2_12_GRAD', '0x1.aecbbed403da4p-5', 0, 'cfd3dfdfc45afd95'),
        ('THM3_1_CHAIN', '-0x1.7876c23e558e0p-47', 0, 'a2acdf05028a9630'),
        ('THM3_1_II', '-0x1.309a2ec190fbdp-46', 0, 'df1e743c4b5e35d8'),
        ('COR3_4_ISOM', '-0x1.3cbf80a99047ap-45', 0, 'b379707396149335'),
        ('THM3_8_NORM', '0x1.cccaf565d8c00p-9', 0, '613bd1498142a3b8'),
        ('LEMMA_JADJIT', '0x1.4e4381c8f9700p-12', 0, 'e592880611bed0dd'),
        ('KL_SUITE', '0x1.3c10863d46460p-8', 0, '1e4fc7c642d268b9'),
        ('SCALAR_CSISZAR', '0x0.0p+0', 0, '2cb754e04b8361ce'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
    (2, 7, 'quartic', 30): [
        ('THM2_1', '-0x1.5614fae833100p-2', 2, 'a2724e82e935339b'),
        ('COR2_2_SUBADD', '-0x1.b7d83c3cce2d0p-4', 3, '5c415c074128c608'),
        ('COR2_2_II', '-0x1.841598d2cd244p+4', 4, '0e8a06de48e5116e'),
        ('COR2_3_SPLIT', '-0x1.66a75c9a10b00p-1', 6, 'd14f258438c0790f'),
        ('THM2_4_MIXTURE', '0x1.b436911bdfe40p+0', 0, 'd81e038fe2171310'),
        ('THM2_6_CDJ_DELTA', '-0x1.339e8fd48cb00p-4', 3, 'be5ca5bb76b2801f'),
        ('COR2_7_SINGLE', '-0x1.0869ed9143000p-2', 2, '294a698aafb4d686'),
        ('EX2_8_POWER', '-0x1.399f9f8a486f7p-50', 0, 'b54dbb46c3bde62d'),
        ('COR2_9_VECTOR', '0x1.437ad598e0e00p-16', 0, 'bd51b9555a55cc5d'),
        ('THM2_10_DOM', '0x1.4b22dc93c3e4cp-5', 0, 'ce48c6ddf0a9f7c7'),
        ('THM_DELTA_NABLA', '0x1.d28c672380d74p+1', 0, '0dbb5126a2acb5a4'),
        ('THM2_12_GRAD', '0x1.ea1638bd83cafp-1', 0, '8282c79b2442b65e'),
        ('THM3_1_CHAIN', '-0x1.2e22f449caac0p-3', 4, 'a0d70cf5ce84ca8b'),
        ('THM3_1_II', '-0x1.caf0f0726eb0ep-43', 0, '0b9fdb8957be753f'),
        ('COR3_4_ISOM', '-0x1.61be6cc266150p-2', 2, '84a97de979970444'),
        ('THM3_8_NORM', '0x1.8fceb9a64b22ep-8', 0, 'd7e107217af04415'),
        ('LEMMA_JADJIT', '0x1.4e4381c8f9700p-12', 0, 'e592880611bed0dd'),
        ('KL_SUITE', '0x1.3c10863d46460p-8', 0, '1e4fc7c642d268b9'),
        ('SCALAR_CSISZAR', '0x1.5bbba90068498p-3', 0, '092b1db37025de9f'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
    (8, 0, 'pool', 30): [
        ('THM2_1', '-0x1.19217a390a37ap-44', 0, '7e9dd5660308bddd'),
        ('COR2_2_SUBADD', '-0x1.6f763a4d59f9ep-45', 0, '4b56576ee11277fc'),
        ('COR2_2_II', '-0x1.9dd7bd252c450p-46', 0, '22c8c2c2e39d566e'),
        ('COR2_3_SPLIT', '-0x1.96f89761a81dcp-44', 0, '4ee12ada55c3ddca'),
        ('THM2_4_MIXTURE', '-0x1.9fc70dd65ba98p-44', 0, '6dbce906c7129df1'),
        ('THM2_6_CDJ_DELTA', '-0x1.02fc2edd985bep-46', 0, '7964635483182ac5'),
        ('COR2_7_SINGLE', '-0x1.cdca7e7f2fad8p-42', 0, '748404a4e0549e10'),
        ('EX2_8_POWER', '-0x1.1b6f5c60bbfc3p-44', 0, '1abcafd651486265'),
        ('COR2_9_VECTOR', '0x1.8000000000000p-51', 0, '9b1bcb8622b51c51'),
        ('THM2_10_DOM', '0x1.63675a8e376c8p-4', 0, '8a3c0d3a959ac6f9'),
        ('THM_DELTA_NABLA', '0x1.04953e766c1c2p-4', 0, '834501a5f5a6a0e8'),
        ('THM2_12_GRAD', '0x1.b5c8d06111882p-4', 0, '03c1402d5c68254d'),
        ('THM3_1_CHAIN', '-0x1.03ff0b108dc9ap-42', 0, 'cf75d0ac638ef243'),
        ('THM3_1_II', '-0x1.f9a9909d94f42p-44', 0, '47b3e1ed2e3abc8b'),
        ('COR3_4_ISOM', '-0x1.4df7e07103f50p-44', 0, 'd4f761f4816fc46a'),
        ('THM3_8_NORM', '0x1.0adc50b8adb4dp+1', 0, 'd8e68f5ea3998136'),
        ('LEMMA_JADJIT', '0x1.1e40dbc523ee0p-3', 0, '6cc7fcbb5bc71db9'),
        ('KL_SUITE', '0x1.ff1cbaba72516p-9', 0, '06f06bc2818535f7'),
        ('SCALAR_CSISZAR', '0x0.0p+0', 0, '51bded11563c594a'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
    (8, 0, 'quartic', 30): [
        ('THM2_1', '-0x1.8039915bd7cb2p+1', 8, '14e6482792358285'),
        ('COR2_2_SUBADD', '-0x1.161edd7587f3fp+1', 10, '1853dc02be6872fd'),
        ('COR2_2_II', '-0x1.8dbd1f7a33a3dp+4', 11, 'd698a6092f323dc5'),
        ('COR2_3_SPLIT', '-0x1.6aa055b885401p+4', 29, '0395e44cb392d315'),
        ('THM2_4_MIXTURE', '-0x1.c848fb9d7f105p+4', 4, 'dac672ea7a31c21e'),
        ('THM2_6_CDJ_DELTA', '-0x1.73337bb7c1dd5p+0', 5, '364d91a4e1d261aa'),
        ('COR2_7_SINGLE', '-0x1.ca610320597e6p+1', 20, '34599f85589dbebf'),
        ('EX2_8_POWER', '-0x1.1b6f5c60bbfc3p-44', 0, '1abcafd651486265'),
        ('COR2_9_VECTOR', '0x1.c56b36446e586p-1', 0, '32355347bf677750'),
        ('THM2_10_DOM', '0x1.63675a8e376c8p-4', 0, '8a3c0d3a959ac6f9'),
        ('THM_DELTA_NABLA', '0x1.05e0a800ea9ccp-1', 0, 'aa8383665b983133'),
        ('THM2_12_GRAD', '0x1.c03bbdc32cda0p-1', 0, '02b0c4594d21eb7d'),
        ('THM3_1_CHAIN', '-0x1.2223f0d497ff7p+0', 28, '7f7e4247744c60bf'),
        ('THM3_1_II', '-0x1.aa2633c61544cp-2', 20, '2bf90fed004b9dd8'),
        ('COR3_4_ISOM', '-0x1.99588a67bd149p-1', 28, 'e71a42cb774bd902'),
        ('THM3_8_NORM', '0x1.ba18236a10682p+3', 0, '934660096591bec8'),
        ('LEMMA_JADJIT', '0x1.1e40dbc523ee0p-3', 0, '6cc7fcbb5bc71db9'),
        ('KL_SUITE', '0x1.ff1cbaba72516p-9', 0, '06f06bc2818535f7'),
        ('SCALAR_CSISZAR', '0x1.cd8d43c293500p-4', 0, '5bc005316c637e6f'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
    (8, 7, 'pool', 30): [
        ('THM2_1', '-0x1.01df9859cb194p-44', 0, 'f8d79c8e72184cbb'),
        ('COR2_2_SUBADD', '-0x1.be222e6dae738p-45', 0, '5f60d887f0d39419'),
        ('COR2_2_II', '-0x1.2aae33b043b1bp-45', 0, 'c14c48ffbe3645fe'),
        ('COR2_3_SPLIT', '-0x1.a8b14ce509ef6p-43', 0, 'c50227e9284b53f6'),
        ('THM2_4_MIXTURE', '-0x1.103fd1a477c38p-43', 0, 'dd4fe7617c849bdc'),
        ('THM2_6_CDJ_DELTA', '-0x1.b80a16ce83d6cp-47', 0, 'c66b65ae5d59940e'),
        ('COR2_7_SINGLE', '-0x1.4a9160b25cbb3p-42', 0, '137f78dd36a4d302'),
        ('EX2_8_POWER', '-0x1.327908f7e895dp-46', 0, '38cc9f2cbb74d6a3'),
        ('COR2_9_VECTOR', '-0x1.2000000000000p-47', 0, '96f97f17c86d227d'),
        ('THM2_10_DOM', '0x1.0db65feddb89dp-5', 0, '1c0ec3c0cd25927a'),
        ('THM_DELTA_NABLA', '0x1.2525602d17b5bp-3', 0, 'c4242423d8d0f3af'),
        ('THM2_12_GRAD', '0x1.4648f2c0b07f5p-4', 0, '11ad3e79989fd8aa'),
        ('THM3_1_CHAIN', '-0x1.26d8a3b7bbe20p-44', 0, '28c0382d7886c418'),
        ('THM3_1_II', '-0x1.d841faf4ac51ap-45', 0, '65fdab8df33435b4'),
        ('COR3_4_ISOM', '-0x1.1f09e1a6e463fp-44', 0, '4fb5f988ea9c5c1a'),
        ('THM3_8_NORM', '0x1.02f4a73ebbe1ep+1', 0, '00991cf98f2fcbe0'),
        ('LEMMA_JADJIT', '0x1.51c0c8fa07420p-2', 0, '0a24a10b6db27745'),
        ('KL_SUITE', '0x1.b3d79773e2713p-9', 0, 'e2234e1ba5c6bc42'),
        ('SCALAR_CSISZAR', '0x0.0p+0', 0, '2cb754e04b8361ce'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
    (8, 7, 'quartic', 30): [
        ('THM2_1', '-0x1.080b6f4c11328p+6', 11, '13a7755c67773197'),
        ('COR2_2_SUBADD', '-0x1.0b3c553743146p+4', 9, '8df7e1eaf1050aaf'),
        ('COR2_2_II', '-0x1.b480690fc6411p+4', 14, 'a0fc83e7e8506f19'),
        ('COR2_3_SPLIT', '-0x1.694a3e35b912fp+3', 29, 'b33dbbe0750ae273'),
        ('THM2_4_MIXTURE', '-0x1.55930756da48ep-1', 2, '5a07a08a582b180d'),
        ('THM2_6_CDJ_DELTA', '-0x1.91a5c095b763cp+0', 6, 'b5c75d69337fcf36'),
        ('COR2_7_SINGLE', '-0x1.9a9f7ece886e4p+4', 18, 'fc12833e588fa61c'),
        ('EX2_8_POWER', '-0x1.327908f7e895dp-46', 0, '38cc9f2cbb74d6a3'),
        ('COR2_9_VECTOR', '0x1.26b9ef15d64eap-1', 0, 'e4c1f8b11267b688'),
        ('THM2_10_DOM', '0x1.0db65feddb89dp-5', 0, '1c0ec3c0cd25927a'),
        ('THM_DELTA_NABLA', '0x1.3f1ab8587b89cp-1', 0, '7b2265282a7ea13d'),
        ('THM2_12_GRAD', '0x1.3c99ab050cf78p-1', 0, '050de696c8ba873f'),
        ('THM3_1_CHAIN', '-0x1.f7c993b95f2adp-1', 30, '79b2395dfb589c18'),
        ('THM3_1_II', '-0x1.074fb0475f54ep-1', 20, 'cb8af33f7c37c7ae'),
        ('COR3_4_ISOM', '-0x1.22e34af5369d1p-1', 30, '7c8cd961e1a7cd8c'),
        ('THM3_8_NORM', '0x1.af7391dd0e992p+2', 0, '5b66879ebce8a72c'),
        ('LEMMA_JADJIT', '0x1.51c0c8fa07420p-2', 0, '0a24a10b6db27745'),
        ('KL_SUITE', '0x1.b3d79773e2713p-9', 0, 'e2234e1ba5c6bc42'),
        ('SCALAR_CSISZAR', '0x1.5bbba90068498p-3', 0, '092b1db37025de9f'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
    (3, 1, 'pool', 100): [
        ('THM2_1', '-0x1.12b3af110d6ecp-44', 0, '6d8973284cc64dc1'),
        ('COR2_2_SUBADD', '-0x1.56e00872b9d1ap-45', 0, '47ee52160112e709'),
        ('COR2_2_II', '-0x1.6da9a61885c9cp-46', 0, '075b98e02302aecc'),
        ('COR2_3_SPLIT', '-0x1.7c4590b93b64bp-41', 0, 'fed66310c362bce0'),
        ('THM2_4_MIXTURE', '-0x1.0efe743998e06p-44', 0, '9ebddebbdfbeb5e5'),
        ('THM2_6_CDJ_DELTA', '-0x1.10b77779d4d9fp-47', 0, '29ddf6c2d8d9de74'),
        ('COR2_7_SINGLE', '-0x1.526adda35aa76p-45', 0, 'c5f722513fd9c31a'),
        ('EX2_8_POWER', '-0x1.cb5fc1de9bb12p-46', 0, '6f2f6a41b546b934'),
        ('COR2_9_VECTOR', '-0x1.4800000000000p-47', 0, '7641c4645704fa56'),
        ('THM2_10_DOM', '0x1.f177ea8a8daadp-6', 0, 'ae5a7deb2c80f93f'),
        ('THM_DELTA_NABLA', '0x1.0e42cb8274a9ap-4', 0, 'fc3833e105807488'),
        ('THM2_12_GRAD', '0x1.336245285bc6dp-5', 0, '266874b88c32fb91'),
        ('THM3_1_CHAIN', '-0x1.5d5fbbf1a2eb0p-45', 0, '1d69e9491c293ba7'),
        ('THM3_1_II', '-0x1.ef9179d4a4b80p-46', 0, 'fd7d6ba0d3aabf47'),
        ('COR3_4_ISOM', '-0x1.aed673e56a407p-45', 0, '25c44c302b420fb8'),
        ('THM3_8_NORM', '0x1.efedf52917860p-7', 0, '5430116899c8d5f2'),
        ('LEMMA_JADJIT', '0x1.d3c339562ed9ap-6', 0, '380b7805b22d66d0'),
        ('KL_SUITE', '0x1.92578c38a934fp-11', 0, '611af8194331516d'),
        ('SCALAR_CSISZAR', '-0x1.0000000000000p-50', 0, 'f508c5ead33019d1'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
    (4, 1, 'pool', 100): [
        ('THM2_1', '-0x1.27d6f8c07675dp-44', 0, '14e383b072b840a9'),
        ('COR2_2_SUBADD', '-0x1.13795e65970ecp-44', 0, 'e754cd5adb50835b'),
        ('COR2_2_II', '-0x1.11dd9774f4685p-45', 0, '6fe3fe3b07599ca6'),
        ('COR2_3_SPLIT', '-0x1.b957c67a80aa2p-44', 0, '1e2ee8804b1458ab'),
        ('THM2_4_MIXTURE', '-0x1.f96ad8bbe79dcp-44', 0, 'a9c27bdc57e24860'),
        ('THM2_6_CDJ_DELTA', '-0x1.d4bd57da8145ep-48', 0, 'ced3088ca6cf68f9'),
        ('COR2_7_SINGLE', '-0x1.8b2c691ed3390p-44', 0, 'fa82f2e1bc1389fb'),
        ('EX2_8_POWER', '-0x1.ed6e1e92c570cp-45', 0, 'd7a639074cc4373b'),
        ('COR2_9_VECTOR', '-0x1.f000000000000p-48', 0, 'e050ee5c2a6f853d'),
        ('THM2_10_DOM', '0x1.c78f885dd3179p-6', 0, 'af0b86f8af7289f9'),
        ('THM_DELTA_NABLA', '0x1.f98c28d28f48dp-4', 0, '69e4d74e3d2e248f'),
        ('THM2_12_GRAD', '0x1.399f915b06107p-6', 0, '5102a197a9fe1a58'),
        ('THM3_1_CHAIN', '-0x1.6a20c179f2e6ep-44', 0, '6ed0417c60b8e82d'),
        ('THM3_1_II', '-0x1.637d46067f540p-45', 0, '0c026e9ba6d37bfb'),
        ('COR3_4_ISOM', '-0x1.210a3c650da57p-44', 0, '3db7164017e27807'),
        ('THM3_8_NORM', '0x1.3e656567ff52cp-2', 0, '3864c5292744a33d'),
        ('LEMMA_JADJIT', '0x1.c3f992df91c70p-6', 0, '51cadba3c1263ad3'),
        ('KL_SUITE', '0x1.134e48e979aebp-9', 0, '95b038cd0e3c362d'),
        ('SCALAR_CSISZAR', '-0x1.0000000000000p-50', 0, 'f508c5ead33019d1'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
    (5, 1, 'pool', 100): [
        ('THM2_1', '-0x1.cba6c3171e9cdp-44', 0, '0bfa15ad139b80b7'),
        ('COR2_2_SUBADD', '-0x1.d3acc8cbb391ap-45', 0, '19a69eefda193d31'),
        ('COR2_2_II', '-0x1.569fb4cc6fe90p-45', 0, 'f4990e2b94b07371'),
        ('COR2_3_SPLIT', '-0x1.2060c452c1b34p-42', 0, '76bc3eafac6d2ef5'),
        ('THM2_4_MIXTURE', '-0x1.3aaff4129c0f2p-44', 0, '48665ee1aaefa16a'),
        ('THM2_6_CDJ_DELTA', '-0x1.ba2f1ba718e47p-47', 0, 'e5e5c93695a456ed'),
        ('COR2_7_SINGLE', '-0x1.0cfbd4bd65768p-44', 0, 'fce463b2bae50f75'),
        ('EX2_8_POWER', '-0x1.755b52a1ea0a9p-46', 0, 'ddd7efa224a71d99'),
        ('COR2_9_VECTOR', '-0x1.d000000000000p-48', 0, 'f7366200feef58ea'),
        ('THM2_10_DOM', '0x1.3718d7900e109p-5', 0, '09cd75cfccb1fceb'),
        ('THM_DELTA_NABLA', '0x1.13644a1f23278p-3', 0, '7ee8f8f5c947da96'),
        ('THM2_12_GRAD', '0x1.faa74d10feee5p-5', 0, 'bd7fe18468d685e7'),
        ('THM3_1_CHAIN', '-0x1.dc92821c8ef66p-45', 0, '4fe44ce95415eac4'),
        ('THM3_1_II', '-0x1.32361f7256249p-43', 0, 'fe68ebd21b9ef942'),
        ('COR3_4_ISOM', '-0x1.807bcf61324c7p-44', 0, '2f4613f23addf5da'),
        ('THM3_8_NORM', '0x1.4328563955be8p-2', 0, '7b820e904a519bcb'),
        ('LEMMA_JADJIT', '0x1.32febe430c9f8p-5', 0, 'e1ab9853610a058b'),
        ('KL_SUITE', '0x1.c4c67759e0736p-10', 0, 'c2397282a57aa383'),
        ('SCALAR_CSISZAR', '-0x1.0000000000000p-50', 0, 'f508c5ead33019d1'),
        ('EX3_3_EXACT', '0x1.5f619980c4380p-3', 0, '6df504f0e8f7fdd0'),
    ],
}


@pytest.mark.parametrize(
    "dim, seed, function, trials",
    [pytest.param(*key, id=f"{key[0]}-{key[1]}-{key[2]}") for key in sorted(_PINS)],
)
def test_every_check_is_pinned_to_the_bit(dim, seed, function, trials):
    override = quartic() if function == "quartic" else None
    gen = GenConfig(dim=dim, seed=seed, trials=trials)
    got = []
    for check_id in check_ids():
        result = run_check(check_id, gen, function=override)
        got.append(
            (
                check_id,
                float.hex(result.worst_margin),
                result.violations,
                result.instance_digest_of_worst,
            )
        )
    assert got == _PINS[dim, seed, function, trials]


def _evaluated(dim, function):
    """(margins, used) of every check's evaluate, in registry order, over
    the check's 30 trials at seed 0 with its pool or the `quartic`
    override."""
    gen = GenConfig(dim=dim, seed=0, trials=30)
    override = quartic() if function == "quartic" else None
    for check_id in check_ids():
        margins, used, _ = lab.evaluate(check_id, lab.records(check_id, gen, override))
        yield margins, used


# (dim, function) -> sha256 (first 32 hex digits) of every trial's worst
# margin and violation flag, check after check in registry order, at seed
# 0 with 30 trials.
_TRIAL_PINS = {
    (2, 'pool'): '81fe4c5fe5ddad03f223bd8463b2a013',
    (3, 'pool'): '7cac2cf67735748c53c56e27777ee6f6',
    (4, 'pool'): 'a6ed65c30db646df40056d555f36dc1f',
    (5, 'pool'): '1a465a889cd6a6267fab83abcb008217',
    (6, 'pool'): 'f25b0f2b84b258a672e4022a7cf7073f',
    (7, 'pool'): 'bdb61db9bc823391d11abdd2a7728e0f',
    (8, 'pool'): 'dd9f3ca398e7f1a10b1c38d325b9cb4f',
    (2, 'quartic'): '4307897bab5afcc2e54b6bc064e2b1b7',
    (3, 'quartic'): 'e8aa88fc5c21f661b59cc47b5796de54',
    (4, 'quartic'): '0fdf50a50365bcb25a19b9187a579a5b',
    (5, 'quartic'): 'd9191f0c84b1dc9ec1f0c7ec4655e834',
    (6, 'quartic'): 'f0ce9ba58d9e89137f46ea2164d01d97',
    (7, 'quartic'): '33fb287ddb0f39c70da69a6d773359ae',
    (8, 'quartic'): '462379f8178f133f868cb44a82e613e2',
}


@pytest.mark.parametrize("dim, function", sorted(_TRIAL_PINS), ids=lambda v: str(v))
def test_every_trial_is_pinned_to_the_bit(dim, function):
    digest = hashlib.sha256()
    for margins, used in _evaluated(dim, function):
        worst, violated = kernels.fold(margins, used)
        digest.update(worst.tobytes() + violated.tobytes())
    assert digest.hexdigest()[:32] == _TRIAL_PINS[dim, function]


# (dim, function) -> sha256 (first 32 hex digits) of every check's (T, L)
# link margins and tolerances, with their shape, in registry order, at
# seed 0 with 30 trials. A trial's folded worst hides every link that is
# not its worst, such as COR2_7_SINGLE's second link or THM2_10_DOM's
# calculus link; these pins see each one.
_LINK_PINS = {
    (2, 'pool'): '2457cc14531b6f50ca0277bbc851127d',
    (3, 'pool'): 'a7e2066d6fb5cee800af6f0ef76e9319',
    (4, 'pool'): '1b33da1c849bf93e1a3732f874e7e398',
    (5, 'pool'): 'c5a6237541c77d2e8d306993be5476c3',
    (6, 'pool'): '1b36261ebbc1e12535f366f0774c4c87',
    (7, 'pool'): '081c1850800bd25938f9041fc1adbac1',
    (8, 'pool'): '73aa9c23270803ea156bd0095d153891',
    (2, 'quartic'): 'd861f89e10457ac8258a099a3063c7ea',
    (3, 'quartic'): '97dc54df90ee30a1a1c1f60032252f9e',
    (4, 'quartic'): 'adb8f0db5c9e0016c9ad7676974f4f6c',
    (5, 'quartic'): 'b5c0d6724cf5b13f53c4e801435551dc',
    (6, 'quartic'): 'a8284d6f1580b7ec09eefaa9f6f834e7',
    (7, 'quartic'): '48f07ec7b6a6ffd6b26d84655ba6c27b',
    (8, 'quartic'): '3ae8ad1f685a71d6bb8b569fcd4d5921',
}


@pytest.mark.parametrize("dim, function", sorted(_LINK_PINS), ids=lambda v: str(v))
def test_every_link_is_pinned_to_the_bit(dim, function):
    digest = hashlib.sha256()
    for margins, used in _evaluated(dim, function):
        digest.update(repr(margins.shape).encode() + margins.tobytes() + used.tobytes())
    assert digest.hexdigest()[:32] == _LINK_PINS[dim, function]


# function -> sha256 (first 32 hex digits) of SCALAR_CSISZAR's 1 x 1
# divergence functional, the (T, 1, 1) Θ array its evaluate sums, over
# dims 2-8 in order, at seed 0 with 30 trials. Θ feeds only a deviation
# flag against 1e-12, which no reported number shows, so no other pin
# sees the order of that sum. The draw reads no dim, so every dim sums
# the same terms; the dims walk `run_check`'s chunking.
_SCALAR_THETA_PINS = {
    "pool": "fced73c667580cee248e9c160aa1abd7",
    "quartic": "d7703e8dacb48d175d593290c56d9d98",
}


@pytest.mark.parametrize("function", sorted(_SCALAR_THETA_PINS))
def test_scalar_csiszar_theta_is_pinned_to_the_bit(function, monkeypatch):
    sums = []
    field_sum = kernels.field_sum

    def recorded(x, mask=None, w=None):
        out = field_sum(x, mask, w)
        if out.ndim == 3:  # the one matrix sum; the scalar sums are (T,)
            sums.append(out)
        return out

    monkeypatch.setattr(kernels, "field_sum", recorded)
    override = quartic() if function == "quartic" else None
    digest = hashlib.sha256()
    for dim in range(2, 9):
        run_check("SCALAR_CSISZAR", GenConfig(dim=dim, seed=0, trials=30), function=override)
        (theta,) = sums
        digest.update(repr(theta.shape).encode() + theta.tobytes())
        sums.clear()
    assert digest.hexdigest()[:32] == _SCALAR_THETA_PINS[function]
