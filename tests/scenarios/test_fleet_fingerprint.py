"""Pin what every scenario in the fleet builds, at both sample sizes.

The conformance gates were tuned against these exact builds, so a change
to how the registry assembles its scenarios must leave every one of them
untouched.  For each scenario and each of ``smoke=True`` / ``smoke=False``
this pins the sha256 of the scenario's metadata (seed, max_order, sample
sizes, gates, full_gates, tags, tier, attributes and description), the
sha256 of ``table.counts`` (with its dtype and shape), the sha256 of the
sorted truth keys (with their count) and the sha256 of
``population.joint``.  The names must also come in registry order.

A builder that iterated a set would break the pin under another
``PYTHONHASHSEED``; CI runs this file under two.  Print the current
fingerprints (only for an intended change to a scenario) with::

    PYTHONPATH=src python tests/scenarios/test_fleet_fingerprint.py
"""

import hashlib
import json

import numpy as np
import pytest

from repro.scenarios import all_scenarios, get_scenario


FINGERPRINTS = {
    ("independence", True): (
        "ec5f3c74ef8cc790ea5ba8ecf50d75760ec41e12b0a1561dedad3d54c4435306",
        "int64",
        (2, 4, 4, 3),
        "f2625197066b7a8931d7b07b2db9d4feccbefc2dd23aea1b17025c820ab8ea3c",
        0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "6540dcfeec2b33e582929e6606f54a27dc0e03d50a9ca8f1f8d700f1d2db6a2c",
    ),
    ("independence", False): (
        "ec5f3c74ef8cc790ea5ba8ecf50d75760ec41e12b0a1561dedad3d54c4435306",
        "int64",
        (2, 4, 4, 3),
        "51761fb2e6dbeb8f94b85d3aa5d8f827845981b912886c68e5ccb8f0480e5c55",
        0,
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "6540dcfeec2b33e582929e6606f54a27dc0e03d50a9ca8f1f8d700f1d2db6a2c",
    ),
    ("single-pairwise", True): (
        "8486d11b26b0503ed59fdc0fc0236abf2fdd2718c8ffd4fe349b603c4e7e829d",
        "int64",
        (2, 3, 3, 3),
        "708f7105e4196197dcb673048c3af159313df63a77e81a321a0a5a592de2acbe",
        1,
        "52c38ea123deb391af7e90d2c2025ed62bd4aec1d9f323b152f6526e8934e2c5",
        "e43e50242d96d4f5f71db8c83019d43cf7d89f8af4c58587230f98bd0e029741",
    ),
    ("single-pairwise", False): (
        "8486d11b26b0503ed59fdc0fc0236abf2fdd2718c8ffd4fe349b603c4e7e829d",
        "int64",
        (2, 3, 3, 3),
        "7f681da79355eb1463b6d4cfef9847aef62e501070c3e44383b21951cc8f90df",
        1,
        "52c38ea123deb391af7e90d2c2025ed62bd4aec1d9f323b152f6526e8934e2c5",
        "e43e50242d96d4f5f71db8c83019d43cf7d89f8af4c58587230f98bd0e029741",
    ),
    ("chained-pairwise", True): (
        "ddaf26a160c1219ead0f1483c2c37584ce3a1d64814c60b87a8da7ac9245715e",
        "int64",
        (3, 2, 4, 3, 3),
        "0881cc152529d990de50f84dd482a436d5dfe918bbc9aff890bb1444a89cd65a",
        4,
        "592e5a07796ea3bcad20af9d16b8123a0e27b4b9ae6173122b5cef12b47b8870",
        "5db1f0a81ae72d37cabd231f82776b78f841e07d7095f0113c0424263d16baa2",
    ),
    ("chained-pairwise", False): (
        "ddaf26a160c1219ead0f1483c2c37584ce3a1d64814c60b87a8da7ac9245715e",
        "int64",
        (3, 2, 4, 3, 3),
        "c43a6638c268bce8093e01956b0c4c08381fdf1ccb30bd8099959b2b1ad08683",
        4,
        "592e5a07796ea3bcad20af9d16b8123a0e27b4b9ae6173122b5cef12b47b8870",
        "5db1f0a81ae72d37cabd231f82776b78f841e07d7095f0113c0424263d16baa2",
    ),
    ("order3-interaction", True): (
        "dc4076a623a23f30686e56c484574ddee1ba71093454445ea862729ee888092b",
        "int64",
        (3, 2, 2, 2, 2),
        "747834832be117c7df84c20cb51116a4fd97b821f2dbc13da17323d0f1cb50cc",
        3,
        "9076f66a0b9d36ccdcf0422d4ec1fefdeeec34985f9d79521f2995d8b2553a14",
        "19be754e22e5b9c5a58c3eb76c3effcb1401d5581827eeb45ba9ae5943ac00a7",
    ),
    ("order3-interaction", False): (
        "dc4076a623a23f30686e56c484574ddee1ba71093454445ea862729ee888092b",
        "int64",
        (3, 2, 2, 2, 2),
        "ada4ea98f11b37a35fe4b51e8bd786b75bd08f7a8032e8df98d1432adf27aacb",
        3,
        "9076f66a0b9d36ccdcf0422d4ec1fefdeeec34985f9d79521f2995d8b2553a14",
        "19be754e22e5b9c5a58c3eb76c3effcb1401d5581827eeb45ba9ae5943ac00a7",
    ),
    ("near-deterministic", True): (
        "e3a4ce882581d51c4d8a88e7c006adc6e55ec09f512ec4e3d2fe650a32a052a8",
        "int64",
        (3, 3, 2),
        "1ab6d82d86b0fa20346926c6013f154e4dab9c6157ae45c5fe8ca175a9d03e2e",
        1,
        "52d6e3b52ffcfbdb7a8057b0ac9c06f5dd2cee254c06fb9ec3891693856675f3",
        "f9bbb0e68ef6735249287dc9b15d74e2b63575c33f50ee0aad95cbfc60e77b76",
    ),
    ("near-deterministic", False): (
        "e3a4ce882581d51c4d8a88e7c006adc6e55ec09f512ec4e3d2fe650a32a052a8",
        "int64",
        (3, 3, 2),
        "8c7b9db05307e64abc2e6c4df788edf30313d2a74c5e255af53e4a7ba45eb986",
        1,
        "52d6e3b52ffcfbdb7a8057b0ac9c06f5dd2cee254c06fb9ec3891693856675f3",
        "f9bbb0e68ef6735249287dc9b15d74e2b63575c33f50ee0aad95cbfc60e77b76",
    ),
    ("skewed-marginals", True): (
        "7d1bc185c451ec75ebf17ad2ecfbf41bb966e612512ce684c54032ce1c26fad1",
        "int64",
        (4, 4, 3, 4),
        "ac38ee0fcb70557051086104895c7b0bee6a675fce0ced59ed2670f47756d6b2",
        1,
        "a1f6de362a6c81c1687ce90d993f40a3ed88a1b8fe17869cf0104c615fc61410",
        "838a44eb8f733b92b5f52b9670af8b46b3557ea301c42618b6e828d1c97fbb30",
    ),
    ("skewed-marginals", False): (
        "7d1bc185c451ec75ebf17ad2ecfbf41bb966e612512ce684c54032ce1c26fad1",
        "int64",
        (4, 4, 3, 4),
        "861ceae10567e4fca8b0f51dde0e2f4e3437ee7b2fa3f7aceca09689ed13477b",
        1,
        "a1f6de362a6c81c1687ce90d993f40a3ed88a1b8fe17869cf0104c615fc61410",
        "838a44eb8f733b92b5f52b9670af8b46b3557ea301c42618b6e828d1c97fbb30",
    ),
    ("high-cardinality", True): (
        "f4a95b9669fd05d3ce2598a827dddef3ef0148de1056fa82ad607ae9f2f52358",
        "int64",
        (5, 6, 6),
        "94b9c8edfe4cdac6f2d39fefe1d649de002fe6f10e475dd9193c4b5b4dcf90b9",
        2,
        "b66168ab8205743cec827fe4366d58124f39b75d8e4ff0ab5277eeec4cf16a44",
        "44830243a19123af16bd34767fd18403ece8a86d7a6d129f823ffc0929aebdfb",
    ),
    ("high-cardinality", False): (
        "f4a95b9669fd05d3ce2598a827dddef3ef0148de1056fa82ad607ae9f2f52358",
        "int64",
        (5, 6, 6),
        "daaac50d69d781d38612f338c12689fed7b8f75e89e6bf515f253a7b28f72959",
        2,
        "b66168ab8205743cec827fe4366d58124f39b75d8e4ff0ab5277eeec4cf16a44",
        "44830243a19123af16bd34767fd18403ece8a86d7a6d129f823ffc0929aebdfb",
    ),
    ("sparse-counts", True): (
        "0fb431abfeaf4c7f257a8cf83b096a424533de1c7c2d964e59f976b9cb903c96",
        "int64",
        (4, 3, 3, 3, 2),
        "d84353f18bc411962ab26c2289cc138cefd12b9511519df1a2c0efdf7569d920",
        2,
        "a83a36470fb30a42c1f25e04ac8702d4ac12cf8952a7e36712b78ae21c46ac2d",
        "a0e1583ce6480e7e71d9d260f57ba6ff679992a07c71a7b68e88ab80c9ae74ae",
    ),
    ("sparse-counts", False): (
        "0fb431abfeaf4c7f257a8cf83b096a424533de1c7c2d964e59f976b9cb903c96",
        "int64",
        (4, 3, 3, 3, 2),
        "fc6b315f3e3e53cbfbff7f24b0b534cf844f9d43eccf60856d937f6d903b7d70",
        2,
        "a83a36470fb30a42c1f25e04ac8702d4ac12cf8952a7e36712b78ae21c46ac2d",
        "a0e1583ce6480e7e71d9d260f57ba6ff679992a07c71a7b68e88ab80c9ae74ae",
    ),
    ("missing-data", True): (
        "5bc61db13e692fe3eb3e98c2117c61121d2e8d9a7d78040148bb24746c2d1478",
        "int64",
        (3, 2, 2, 2),
        "90cd14c175c1e202b270a4f336ec6dab6f1d9c8898ed866f7f910f181a88e17f",
        2,
        "e7791a8a39264a20d5b16e3cab7dd2aea288e8f79cd826e82b9e3b2faf493347",
        "1a57b71b789e7fd1564d273580b07a7f6029425ec2cd23304d4541b9494e112a",
    ),
    ("missing-data", False): (
        "5bc61db13e692fe3eb3e98c2117c61121d2e8d9a7d78040148bb24746c2d1478",
        "int64",
        (3, 2, 2, 2),
        "acf75af5d826f8639431e8f9d982eb6be0d5a8711a59a43d280e18ea812773b9",
        2,
        "e7791a8a39264a20d5b16e3cab7dd2aea288e8f79cd826e82b9e3b2faf493347",
        "1a57b71b789e7fd1564d273580b07a7f6029425ec2cd23304d4541b9494e112a",
    ),
    ("streaming-drift", True): (
        "90fc032d2358faa4065bdafbdc67332a6dbb9226c792e6e86f595e8356dd8dc8",
        "int64",
        (4, 2, 4, 3),
        "322a320e10ea294b8c2ca8d17e887f83f130f4159bee19abdf611c7959502e33",
        3,
        "9769caa4d06b832fa2c37df7932e0579f66a89cd7d654e3620464b3c537cf8de",
        "18c7dfab546b11b91c6206369a9dcb2fad183c8193b2b019b2ef3955dc7edec4",
    ),
    ("streaming-drift", False): (
        "90fc032d2358faa4065bdafbdc67332a6dbb9226c792e6e86f595e8356dd8dc8",
        "int64",
        (4, 2, 4, 3),
        "55e1b211c4627d789ef727cf731c0df8c5da74751747887c367707bceb3387fe",
        3,
        "9769caa4d06b832fa2c37df7932e0579f66a89cd7d654e3620464b3c537cf8de",
        "18c7dfab546b11b91c6206369a9dcb2fad183c8193b2b019b2ef3955dc7edec4",
    ),
    ("wide-order2", True): (
        "74f324905818bbdf7c338c560a4696e19634a5a02f6fe975c222f5ea3e1397d4",
        "int64",
        (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
        "12b89f16ca99b758876aa52bd8fcd801750eebeae5f868a2bf571ec4b9480934",
        12,
        "a024e54e65de4de442ca26893c79f456ea6bcb5254dd80e7e3f19bb9f5d728c5",
        "8a06ec42f49ad0a83097e49e4abefad5ee66245ddc9704c9afcd775f67b6815b",
    ),
    ("wide-order2", False): (
        "74f324905818bbdf7c338c560a4696e19634a5a02f6fe975c222f5ea3e1397d4",
        "int64",
        (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
        "e3bab6197a7fc69933b39785f4045d19bed23dff67808ea249d480de9d844df0",
        12,
        "a024e54e65de4de442ca26893c79f456ea6bcb5254dd80e7e3f19bb9f5d728c5",
        "8a06ec42f49ad0a83097e49e4abefad5ee66245ddc9704c9afcd775f67b6815b",
    ),
    ("wide-chain", True): (
        "9af45ea008285031c7b1debb77898dfcf79b388c8a0a4a780791d0cedcb9291f",
        "int64",
        (2, 2, 3, 4, 3, 2, 3, 2),
        "9947d67d2a0c24effad9739b23f55ef9332803c250a602978ed546b58ddcca73",
        7,
        "93f165651e36bc09228a7f237b2db0b1ad019eec4490e644c9bb258603c1c0dc",
        "d925087296903480c8dea9e338bcf82bb2721958e1bf2625ccf6a8cf9aa17f5c",
    ),
    ("wide-chain", False): (
        "9af45ea008285031c7b1debb77898dfcf79b388c8a0a4a780791d0cedcb9291f",
        "int64",
        (2, 2, 3, 4, 3, 2, 3, 2),
        "3b8f8d13a5f4bb83a154a257949a3dcd1ee8dd0f38d556bac89df922213864b5",
        7,
        "93f165651e36bc09228a7f237b2db0b1ad019eec4490e644c9bb258603c1c0dc",
        "d925087296903480c8dea9e338bcf82bb2721958e1bf2625ccf6a8cf9aa17f5c",
    ),
    ("order4-interaction", True): (
        "70e11665379b24a344c430dfb64280bddd6ff97e23c375d8f5f04152d12bee56",
        "int64",
        (2, 2, 2, 2, 2, 2),
        "613f49f578458f4ac9c90bb037deb21b955693ac8605d8e691a3dfaec72d7f04",
        72,
        "a198f4fc436cfce428b88b40d71743b08501e3e4d58bbc87ada5d451c70fc5c2",
        "4b0045a2dddd7be8986f3bf3f437d2864cabf20145b71190fd219f0b386e42a8",
    ),
    ("order4-interaction", False): (
        "70e11665379b24a344c430dfb64280bddd6ff97e23c375d8f5f04152d12bee56",
        "int64",
        (2, 2, 2, 2, 2, 2),
        "657432702ef791f57ca888300134268c57b521f6a9f008bd410e19c6a99ef8f1",
        72,
        "a198f4fc436cfce428b88b40d71743b08501e3e4d58bbc87ada5d451c70fc5c2",
        "4b0045a2dddd7be8986f3bf3f437d2864cabf20145b71190fd219f0b386e42a8",
    ),
    ("zipf-cardinality", True): (
        "a3dec7833b44559ea3d897a56d8fbb50724c73a930f654f09ead8ed9174e9bdf",
        "int64",
        (8, 2, 6, 8),
        "df3b731bcd70ab38d2118c7634f4f33a3e736d3afc8da941534353e8d5e8b5e4",
        2,
        "f2a679b45b4ce8cf609e6f230d95afcbd5d01b29f4758ad7bc4e4d2b9fa2bc67",
        "1ff2eef4ea0855abee3e28a9125d9232ae03d3d399f3618704aa1ef64d5b0cc5",
    ),
    ("zipf-cardinality", False): (
        "a3dec7833b44559ea3d897a56d8fbb50724c73a930f654f09ead8ed9174e9bdf",
        "int64",
        (8, 2, 6, 8),
        "3b0e2f0842191ec84562a8ada6361fa5af82a76ec33a0a731f0d09306ba3a78f",
        2,
        "f2a679b45b4ce8cf609e6f230d95afcbd5d01b29f4758ad7bc4e4d2b9fa2bc67",
        "1ff2eef4ea0855abee3e28a9125d9232ae03d3d399f3618704aa1ef64d5b0cc5",
    ),
    ("zipf-head-tail", True): (
        "e5a8f542c2afb9d2fa7e3967e599ef5c22a5a18d5cbd3a85990a812c64d875dd",
        "int64",
        (12, 8, 2, 4, 10),
        "3976b24b4f5eb751161a4037fba849b2028d9c33713e32ec08d0c7b226afcfa7",
        3,
        "2f2bd8db7b08d7a3d8df2b1c6cb99a456972cc26f7bee721c40fb42ce59d47fc",
        "0f03457f7f89636a3222804de1f9cd83f5b2add101e7e92110290c92f5b9156e",
    ),
    ("zipf-head-tail", False): (
        "e5a8f542c2afb9d2fa7e3967e599ef5c22a5a18d5cbd3a85990a812c64d875dd",
        "int64",
        (12, 8, 2, 4, 10),
        "e863f48d6bfb697e25619d4effc370cc6ec0cbb9851ffbed0c2a6fc24c9f79ca",
        3,
        "2f2bd8db7b08d7a3d8df2b1c6cb99a456972cc26f7bee721c40fb42ce59d47fc",
        "0f03457f7f89636a3222804de1f9cd83f5b2add101e7e92110290c92f5b9156e",
    ),
    ("correlated-drift", True): (
        "d322462b83c911af34bf12117a3c391d3680c7068a8e093bfb28cd3be446ab8d",
        "int64",
        (2, 4, 3, 3),
        "ae3b40f17f2cdcef409161466b50cd0c96a31d8cb19c5cc1c0bd578deb17037b",
        3,
        "769b48b77455232329133f2725e7289fa5c1a95e80226414db887da62a43c093",
        "09d79afa806e920779af5f0b443aeff6ae6a7b190b19960e8903102babec9638",
    ),
    ("correlated-drift", False): (
        "d322462b83c911af34bf12117a3c391d3680c7068a8e093bfb28cd3be446ab8d",
        "int64",
        (2, 4, 3, 3),
        "ccca5aa96fec50619fe4edeb5044d566c6282cd4372f4b9bed075231f533391a",
        3,
        "769b48b77455232329133f2725e7289fa5c1a95e80226414db887da62a43c093",
        "09d79afa806e920779af5f0b443aeff6ae6a7b190b19960e8903102babec9638",
    ),
    ("near-singular", True): (
        "f41d82e6f653730c49738a0bd79a8dc8cbb7c56cf32e1110e2baade4f4bd5556",
        "int64",
        (3, 3, 4, 3),
        "1ca4d6c18ac44a772c27568ae4d7d983a358b97ace45d422e4401c5038a72fcb",
        9,
        "efb9efa0e5d64f2011105bfc05d95da9fd286568e5cc8c4053fb5f32f24e0587",
        "c7442513648c817276451c16f75a348814252a906d20aa2b62bccd057229c1ba",
    ),
    ("near-singular", False): (
        "f41d82e6f653730c49738a0bd79a8dc8cbb7c56cf32e1110e2baade4f4bd5556",
        "int64",
        (3, 3, 4, 3),
        "f8d57238b0b3a7a46377e742be0842b92646b8145ffb07c7d0128544ed77f432",
        9,
        "efb9efa0e5d64f2011105bfc05d95da9fd286568e5cc8c4053fb5f32f24e0587",
        "c7442513648c817276451c16f75a348814252a906d20aa2b62bccd057229c1ba",
    ),
    ("label-noise", True): (
        "12ec0421ccef2d99eb544b4a7da005c8d4a99a39cb7386e57b6230e09f77bea3",
        "int64",
        (3, 4, 2, 2),
        "04c21b2362b56371fba7c7c42951dff08b01cea7b4e3db3e952515ed7cf52bd3",
        1,
        "997a12f354b6d6e54bec89ccd96f2338a52af74d4b2178d0fcc46b6711f00275",
        "68b3347e5d01ab06987a6ce3097f6ca49ec1e1c58913a3fe5bc7d4bdd7f3ec29",
    ),
    ("label-noise", False): (
        "12ec0421ccef2d99eb544b4a7da005c8d4a99a39cb7386e57b6230e09f77bea3",
        "int64",
        (3, 4, 2, 2),
        "b3b5f0eb2c5ebcc4dab9eb2e25216b85e98b81933c26b6cbec10eaba147ac263",
        1,
        "997a12f354b6d6e54bec89ccd96f2338a52af74d4b2178d0fcc46b6711f00275",
        "68b3347e5d01ab06987a6ce3097f6ca49ec1e1c58913a3fe5bc7d4bdd7f3ec29",
    ),
    ("duplicate-rows", True): (
        "f4ed71f1e15dfc7a0fc0e1f02f7fc67ec85090756b3f8b89a15b6758a031ac40",
        "int64",
        (3, 3, 2, 4),
        "589e38036ff7569865053ad99955031430ca823be4c3176ce2babd98020e6c3f",
        1,
        "da5cf4903907f9cfcfb2af55c690e6edb605b042de862588d7e8554ff6e825cb",
        "8d04c611e885bb27d1c26cdc3b612cf290bfa5c1d02f298f367c73f9759f53fe",
    ),
    ("duplicate-rows", False): (
        "f4ed71f1e15dfc7a0fc0e1f02f7fc67ec85090756b3f8b89a15b6758a031ac40",
        "int64",
        (3, 3, 2, 4),
        "758fb8ef974a93d8dd0905b12ea85c8da4a74942f17a9e40f889ca772494b59e",
        1,
        "da5cf4903907f9cfcfb2af55c690e6edb605b042de862588d7e8554ff6e825cb",
        "8d04c611e885bb27d1c26cdc3b612cf290bfa5c1d02f298f367c73f9759f53fe",
    ),
    ("dense-pairs", True): (
        "4169714ca1858139ccece62615a865505eed5ec74b8a2e3acc8de2b4aea19f55",
        "int64",
        (2, 3, 4, 3, 4),
        "b6cc35e0c86894fe06143b07b116dd69a94076327be933e8706329ac534ac345",
        4,
        "8134a779fb715ae9372dad96a4175e60f0b180ab69f21edca84a0ea622045ade",
        "c0ed66dd5ce95f33d7e91943ddb09b4348c1e4b3f1172c67b8759718c655d55c",
    ),
    ("dense-pairs", False): (
        "4169714ca1858139ccece62615a865505eed5ec74b8a2e3acc8de2b4aea19f55",
        "int64",
        (2, 3, 4, 3, 4),
        "a59633747eb8da61ef311415b738aff0a47b20470bb060a6b552187646939869",
        4,
        "8134a779fb715ae9372dad96a4175e60f0b180ab69f21edca84a0ea622045ade",
        "c0ed66dd5ce95f33d7e91943ddb09b4348c1e4b3f1172c67b8759718c655d55c",
    ),
    ("excess-deficit", True): (
        "5057142b87cde4471eb965076e9c22dad3a7958f94fdbf4429e12b9602397ce5",
        "int64",
        (2, 3, 3, 2),
        "6be9b439ad84d4bc7e340259f7364b2918beb6cb0a8da19d070a2458e2a336d2",
        2,
        "f6a44d0116440a3abadebbd6abb0a1a6cfac90266a6e8f78f059fe0c507dfa31",
        "806144735f2c46310e7450dabfd6524cc7f81e0e0d46324918cf652f98662cfb",
    ),
    ("excess-deficit", False): (
        "5057142b87cde4471eb965076e9c22dad3a7958f94fdbf4429e12b9602397ce5",
        "int64",
        (2, 3, 3, 2),
        "c234a8cbf72ad01f959cdb4a8d6b5a6e7e5bc0b7ff3bac23707acf8ee2c8527a",
        2,
        "f6a44d0116440a3abadebbd6abb0a1a6cfac90266a6e8f78f059fe0c507dfa31",
        "806144735f2c46310e7450dabfd6524cc7f81e0e0d46324918cf652f98662cfb",
    ),
    ("mixed-order", True): (
        "3d0c772368ff42fc3a19cc1d9d1c663e9c78371955881117160f9a00fa9232c4",
        "int64",
        (3, 2, 2, 2, 3),
        "4b1d2965f04bcbed66035005d87de83c8f86e06f10f7e920a5510c1a4591d6ff",
        29,
        "0992348c39b5aca09ed0d5c5a0994744997211feecce36b1da3a802573699c9a",
        "986a5023b42a2e20406ee3cf5fd8bf204cef076b00b2c15d077ffccbf60653ba",
    ),
    ("mixed-order", False): (
        "3d0c772368ff42fc3a19cc1d9d1c663e9c78371955881117160f9a00fa9232c4",
        "int64",
        (3, 2, 2, 2, 3),
        "3cab503f845d00253bc60c8ef9eb3f58f6439389cf3be66ccf4fe8c803a75cfd",
        29,
        "0992348c39b5aca09ed0d5c5a0994744997211feecce36b1da3a802573699c9a",
        "986a5023b42a2e20406ee3cf5fd8bf204cef076b00b2c15d077ffccbf60653ba",
    ),
    ("star-hub", True): (
        "f24c190e683515554be563dbe6dd383a7e67d6463b28dec8dd4b83836c1ec111",
        "int64",
        (2, 2, 3, 2, 3),
        "30dcb29966ee4055193dcef18804d853aefb038aad957807826ef464c8f0ba6c",
        4,
        "83237d8f2468bc182e6221748d1cec1b1ac8e92899720e8559569a6bfd277d57",
        "1227dd2a438cd884ee708f661e0d3dbdfb1aa0a630bcd289c4a73d73dc4d77bb",
    ),
    ("star-hub", False): (
        "f24c190e683515554be563dbe6dd383a7e67d6463b28dec8dd4b83836c1ec111",
        "int64",
        (2, 2, 3, 2, 3),
        "aad24324b2691fb901ba0b89fb3b7d02071cfc40497ae26a80145996574839b1",
        4,
        "83237d8f2468bc182e6221748d1cec1b1ac8e92899720e8559569a6bfd277d57",
        "1227dd2a438cd884ee708f661e0d3dbdfb1aa0a630bcd289c4a73d73dc4d77bb",
    ),
    ("stress-wide-16", True): (
        "8e2b584f491ee66bce137da4eb3365e5e79113a5808928a99c61321c5fa040d7",
        "int64",
        (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
        "2867ff99ba79653491876cf4871af2424263448d4291045d9c460f3b610a8b27",
        16,
        "2d35c029ee0d4d710aa2bdafd9d18deb00658d6e8241e98c999bfcb02dee9b9c",
        "6828a20563cd4347b017a05b2619f3f8e225fc68bdd67a6f50570cc49ce0f242",
    ),
    ("stress-wide-16", False): (
        "8e2b584f491ee66bce137da4eb3365e5e79113a5808928a99c61321c5fa040d7",
        "int64",
        (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
        "5a4109c8738053499056147bea9a426ba73817b0d533b1f220be552cff349c48",
        16,
        "2d35c029ee0d4d710aa2bdafd9d18deb00658d6e8241e98c999bfcb02dee9b9c",
        "6828a20563cd4347b017a05b2619f3f8e225fc68bdd67a6f50570cc49ce0f242",
    ),
    ("stress-wide-order3", True): (
        "2ffb2b38253e28a654a909563a7d27bd5460744703b3c5cb3ff5223d024d9c46",
        "int64",
        (2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
        "ee2345265894ae55177906e11f9cb01608b7b4676e965980c6b0c68ed57ef263",
        40,
        "c147f305763519c762a88107ef2518cdfdcf709379175ab3d88ddfe2168372e1",
        "c16b35d4b6158ba2c890e0799822a6e1fdb064e617b865eb40cd3932e6e90dd6",
    ),
    ("stress-wide-order3", False): (
        "2ffb2b38253e28a654a909563a7d27bd5460744703b3c5cb3ff5223d024d9c46",
        "int64",
        (2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
        "2d82a8be40a69b80176bb61292f50679eb5376e536612a01e7980c9f22bc81c3",
        40,
        "c147f305763519c762a88107ef2518cdfdcf709379175ab3d88ddfe2168372e1",
        "c16b35d4b6158ba2c890e0799822a6e1fdb064e617b865eb40cd3932e6e90dd6",
    ),
    ("stress-zipf-wide", True): (
        "5acd44c29526c8f31cfd4611cd04fb7cb5ea2cac002b9f6ea0d5ff5ce839168f",
        "int64",
        (10, 2, 2, 4, 2, 2),
        "91edd3af87ba7dcc657e009eb5ba10764db6aca2c63da55213e50a623fe2625d",
        3,
        "2cff09927537ad6869934d0ac40967aa50d8bb673e5fe699bad314366cb1dc51",
        "eec459d60908d9d51e39c56fb623c530d242ddd19560c5faff44fa973f755f1f",
    ),
    ("stress-zipf-wide", False): (
        "5acd44c29526c8f31cfd4611cd04fb7cb5ea2cac002b9f6ea0d5ff5ce839168f",
        "int64",
        (10, 2, 2, 4, 2, 2),
        "1f72f9e15a3f0e23cd4ddf385d5792328e26181eb79bbbf22ed30c4d95214bb0",
        3,
        "2cff09927537ad6869934d0ac40967aa50d8bb673e5fe699bad314366cb1dc51",
        "eec459d60908d9d51e39c56fb623c530d242ddd19560c5faff44fa973f755f1f",
    ),
    ("stress-order5", True): (
        "7f923135d7ab500e7689cb928a23df866a89e5503c71f2dca337f6ceece3507c",
        "int64",
        (2, 2, 2, 2, 2, 2, 2),
        "55aac1d2f2c6e4991b50290ae9bdd4ed845b734044f7bb752591b81e5868a790",
        232,
        "c8d595d45f540c501481911dacd5bec404b763fa49202a9c971bd6ac9337fae1",
        "f56e6ecb9d09d45d6a04cd85134277066eead54b5091f9608a5f2586c5fd8e52",
    ),
    ("stress-order5", False): (
        "7f923135d7ab500e7689cb928a23df866a89e5503c71f2dca337f6ceece3507c",
        "int64",
        (2, 2, 2, 2, 2, 2, 2),
        "64f66beb518791f3f7d66bc544ae44fde63baff50f91a67edc5a69e2cb0e651a",
        232,
        "c8d595d45f540c501481911dacd5bec404b763fa49202a9c971bd6ac9337fae1",
        "f56e6ecb9d09d45d6a04cd85134277066eead54b5091f9608a5f2586c5fd8e52",
    ),
    ("stress-near-singular", True): (
        "98d19231f6ce665be10f9fedd9006cffb031e44bb15ed7bbd61a1e95a6072ac2",
        "int64",
        (3, 4, 4, 4, 3),
        "69bfcf2842b471e72954be033c4037c679d25beec39366165e5d6483c5577abc",
        12,
        "1fb18fa1a172fff89be164520e505820aeb37e6473757a04a304d21efcd6dbc4",
        "a45aae720270e0a778fc1a837f61e0efc1f45de9f0555b0d837cddfde896c6c0",
    ),
    ("stress-near-singular", False): (
        "98d19231f6ce665be10f9fedd9006cffb031e44bb15ed7bbd61a1e95a6072ac2",
        "int64",
        (3, 4, 4, 4, 3),
        "076f102a8f87e28bbbc81d0573bde8fa00e2ffec0b4d2ebd159e385eac9611c9",
        12,
        "1fb18fa1a172fff89be164520e505820aeb37e6473757a04a304d21efcd6dbc4",
        "a45aae720270e0a778fc1a837f61e0efc1f45de9f0555b0d837cddfde896c6c0",
    ),
    ("stress-corrupted", True): (
        "d75abd20aa2fabf46bbf6e71bd8a97fccf6fdaead96e293ca5c4ff3df8cbb411",
        "int64",
        (2, 2, 2, 2),
        "da5bd087ca73e0452fd03b38d38c2bd94ef81ad28c0c59a0a3391cbc10006dec",
        3,
        "58c67024fe96128f3e67f734eee27c124bd5c61da37134e6788186d54633c547",
        "efbc14c2e400cb5be361d76632870cd9ee98468a07863bb9014c6587e7e33efd",
    ),
    ("stress-corrupted", False): (
        "d75abd20aa2fabf46bbf6e71bd8a97fccf6fdaead96e293ca5c4ff3df8cbb411",
        "int64",
        (2, 2, 2, 2),
        "507bb529300ad9bd17c415ffa2222b657eabfec3b0f2102c7a514a7a89deccd4",
        3,
        "58c67024fe96128f3e67f734eee27c124bd5c61da37134e6788186d54633c547",
        "efbc14c2e400cb5be361d76632870cd9ee98468a07863bb9014c6587e7e33efd",
    ),
    ("stress-correlated-drift", True): (
        "7cbcfba10bd5289f7417a8cbc4bc9762d6636c9e9c8b5f90e6c23a2807a0e993",
        "int64",
        (2, 4, 2, 3, 4),
        "c06c4bf3aa9a63b792740f27aa0ccb67744aaebc952889fc7d6159ba9f7d3411",
        4,
        "eeb8cfd57805ed99a557276bd62d4bc3288442899f9c5ecc8ecc959f7c5d7c08",
        "139b7fbfe2a75f9a4b4dcdf2eb663151d3f828ed119094545f2e5e2fea182e79",
    ),
    ("stress-correlated-drift", False): (
        "7cbcfba10bd5289f7417a8cbc4bc9762d6636c9e9c8b5f90e6c23a2807a0e993",
        "int64",
        (2, 4, 2, 3, 4),
        "1dce5c741848fa40c7b761740ef0ef2b9ba1e19bbc172f5aa4c705d36b1e3add",
        4,
        "eeb8cfd57805ed99a557276bd62d4bc3288442899f9c5ecc8ecc959f7c5d7c08",
        "139b7fbfe2a75f9a4b4dcdf2eb663151d3f828ed119094545f2e5e2fea182e79",
    ),
    ("stress-churn", True): (
        "2df965899672ffa5db55143301cf1644420d3394e733aa25709190edb7ab758f",
        "int64",
        (2, 3, 4, 4),
        "298dba7fcf9246de9715cccb3ed024bf21f7e68cb8703b621169fc999914b432",
        3,
        "8442fb8830d0063246d0e3a061beaba91879d4288af5a5e96935a00e87830381",
        "6e4513ba994c73370a7ff338638c75b7a1afab581f0a8ef618292eb7a69c17c5",
    ),
    ("stress-churn", False): (
        "2df965899672ffa5db55143301cf1644420d3394e733aa25709190edb7ab758f",
        "int64",
        (2, 3, 4, 4),
        "224cf495024340281a020c57e433f57ded0ffa2b3ead881a2a5f02e49bfc8dd3",
        3,
        "8442fb8830d0063246d0e3a061beaba91879d4288af5a5e96935a00e87830381",
        "6e4513ba994c73370a7ff338638c75b7a1afab581f0a8ef618292eb7a69c17c5",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha256(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    header = f"{array.dtype.str}{array.shape}".encode()
    return _sha256(header + array.tobytes())


def _fingerprint(scenario, smoke: bool) -> tuple:
    """Metadata sha, counts dtype, shape and sha, truth size and sha, joint sha."""
    metadata = (
        scenario.seed,
        scenario.max_order,
        scenario.smoke_samples,
        scenario.full_samples,
        scenario.gates,
        scenario.full_gates,
        scenario.tags,
        scenario.tier,
        scenario.attributes,
        scenario.description,
    )
    instance = scenario.build(smoke=smoke)
    counts = instance.table.counts
    keys = sorted(
        (list(attributes), [int(value) for value in values])
        for attributes, values in instance.truth
    )
    return (
        _sha256(repr(metadata).encode()),
        str(counts.dtype),
        tuple(counts.shape),
        _array_sha256(counts),
        len(keys),
        _sha256(json.dumps(keys).encode()),
        _array_sha256(instance.population.joint),
    )


def test_fleet_names_in_registry_order():
    names = list(dict.fromkeys(name for name, _ in FINGERPRINTS))
    assert [scenario.name for scenario in all_scenarios("all")] == names


@pytest.mark.parametrize(
    "name, smoke",
    list(FINGERPRINTS),
    ids=[f"{name}-{'smoke' if smoke else 'full'}" for name, smoke in FINGERPRINTS],
)
def test_build_matches_fingerprint(name, smoke):
    assert _fingerprint(get_scenario(name), smoke) == FINGERPRINTS[name, smoke]


if __name__ == "__main__":
    print("FINGERPRINTS = {")
    for scenario in all_scenarios("all"):
        for smoke in (True, False):
            print(f'    ("{scenario.name}", {smoke}): (')
            for item in _fingerprint(scenario, smoke):
                print(f"        {item!r},".replace("'", '"'))
            print("    ),")
    print("}")
