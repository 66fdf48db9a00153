"""Pinned front-end output: KM dumps and orbit ids, byte for byte.

The digests were taken from the object-based front end (every subspace
imaged and ranked one at a time, superspaces grown vector by vector).
Any rewrite of orbits or the KM build must reproduce them exactly: the
same orbit ids in first-seen order, the same rows, columns and values.
An orbit id list is hashed as its decimal ids joined by newlines, so the
digest does not depend on the container type.
"""

import hashlib

import pytest

from gf2designs import catalog
from gf2designs.gf2 import GF2Matrix
from gf2designs.km import build_km_matrix, dump_km
from gf2designs.orbits import group_closure, orbits

# group -> (dump_km digest, t-layer orbit_of digest, k-layer orbit_of digest)
CATALOG_DIGESTS = {
    "G_2": (
        "099e8feac23ebf2261cb2a0e7d1fd09257d89bd335d83a69b9763916bafdb0fb",
        "8c3563cc796333e551d323ebfeb3f4625fde8438305cf6477c99dad84422c243",
        "49a5becd0005eced8c67a41b57cf680f252945b1330e72cfe1a71ec0849b3270",
    ),
    "G_{3,1}": (
        "9011b431521fb9f2c745631fb06393574a9e45dd20a2cdcac52df8ce1a15477a",
        "69ba9593be98731b2a0b48f694be8cf5ead5b63d60b5384e3e0173cb915e8b47",
        "6106b90aeb6e34b4fa4c66211871e5835a9c3d77f9c76819b06b7e776de68439",
    ),
    "G_{3,2}": (
        "2fb4e6335c5116d29d8c44561f19eb4b8235f3223ecf1cf5bfcfde836d0fce2c",
        "543d9968672929947c6bdde8265864a961ac48354909fa2de042c81a769f9381",
        "4c04679b0615e20c22cd65026bc12b6f2d06dc34d2021db5510c5af9195df805",
    ),
    "G_{3,3}": (
        "f65e25ce25ced0cefc96155f2f99e067a751419768dfdeb36a5df044d2dad3d7",
        "6aa979d762e0a4896c71bdfd12d7d087df877db7938548ff1348ac1b9806215f",
        "432d564b3a9733631ebd04969c81dd30fcc960d3419410d79e321297fc98f8fc",
    ),
    "G_{4,1}": (
        "bdadd25da3f17bf484ae49854b93d05c91aa1b8243d0bea9d1cf00b2945dfcae",
        "2ec02f8c17a13e3d01145b1d3bce250bdece059f0457797bf0b11832d204e194",
        "4e309af1f532e50d5471c7c44b0d248b96da013b4e11a36fe8544f979e7c2c26",
    ),
    "G_{4,2}": (
        "7a5911abc2deb927013ef25202e607b4b761b68afcc7edc36201da03dd196fcc",
        "6b50f8cda2311abf771f1af9b95aab62c901e5e6516f0cd3cbe38d79e1638b55",
        "3d5e35b7991a12ea3601b6bd26791481cd3b07901f14c62b3c6d48e2de2ec616",
    ),
    "G_{4,3}": (
        "17e318408ff82d8c07ed9fe43a50e6f380a4020c9224eb1cb8979369f1cd0e06",
        "d443bd2e6b52758385fdf95edbdb658dcae2dbece608a988b7be61a4f1ef8433",
        "4ed0a017e168084dd412711fca03babe11311e65c98c13c283ace5843c717f49",
    ),
    "G_{4,4}": (
        "4a6a7dab9aeb838028bcd1bd7d5b86093b706522114d5452f3dc6c1114b08378",
        "87877bc8e896eee4f4339227ad77d65f222a05c8e595fea5919c4f9cfe8f9c80",
        "b47a86eb723449974480d4a6c73199bedff908548a46540e6c43ccb1f0e3db5c",
    ),
    "G_{4,5}": (
        "1df9c6e0e959815efd7917a7db6a143199e2c095dbb35069a0b720edce5a43a3",
        "87dc36894fc87e6bc277fa1f484ce598891f7fa774d215801540375a2b1189c9",
        "7c1b735a9673ebb205a20c8d4d78390268b38b94beadd84bd67daf885a175d95",
    ),
    "G_{4,6}": (
        "f761f49ba8606fdb4fdab2f131da1d0f020009e877fd7384889dd7ddef7b6cf4",
        "189b5769d652261a9c8e151ca5d79ef563c7b7441b3b9ad482890cc2cb955879",
        "ae7d81336c42bd17386dc100481ef26388a2c24acfa7bdc9b3e958e66d625126",
    ),
    "G_{4,7}": (
        "f7d594fa62886dc5923490e422198885af89104ba98e1205e54b0fb8d2717b24",
        "fd5351445ad210bec96d5102b0864d5bf3225fe60af54c2f54db8d012a38b85a",
        "ba1f7e78744567df97ea11989ea317b3507786fc3bda0058222a46627d9e49d1",
    ),
    "G_{4,8}": (
        "77ececec63c505abb451569b7259757dec97877a0ddcd58e17701118d86698ea",
        "ac4bce9a8ece9f63a5fe2cfb3a834d422c4f013b89f253a9c42d2284d0aa7b9e",
        "872eb327e2505c42ea7145eeb8f489408abf3d9bc69fbff7a6add8878d90102d",
    ),
    "G_5": (
        "fc4274867edab738e8c05f8968fca23081db5b5a01df33ee9e2115ce03543f42",
        "800c8ea37dc402f132a10684060302db0c2ca601883379fa3322e29f13de8e89",
        "acf18697fb515a603b79377627558b4f1d09cf98da876ed87ba57c50f141316c",
    ),
    "G_{6,1}": (
        "1e843304258a61257eccdc9188fefc4f8f9f14cefafb51aea00029cd0d52e37e",
        "3904e714eed79c9df045069f497a67d86a9cb7cb9d23e3fc87a8670878303073",
        "5c0c34fcfa77dfe269b0c05b712c09e02a0107052c3e7892895f658658279dcb",
    ),
    "G_{6,2}": (
        "fd75d7b3c71f99a4959039b8f831e0d22f7abf10ca5c9aaee6bef4edccfea59f",
        "75c2aed5e864ef0289d66fa07c4294e0fd820f3beef45b804bef983f06547888",
        "c0ad5d997e1c41f7a87e85be0cf0e20daa5710cdd510397e20c7cdf9d08e99c6",
    ),
    "G_{6,3}": (
        "08e71be1dfe9ec5e8b749c80c5922f31b29bdf2626e7df0188fbbfc01213bd4b",
        "c22eb7ef6c74954005ca7d4bcb0b1b0e65eed3fc91e295633230a1a695b6e017",
        "f03d6af1c4967c3d78f9a3c2205ab28f4e8cc94eb14f328ec6762a3d492df8d9",
    ),
    "G_{7,1}": (
        "0cda771d2de8d21d1f1e68950b95bc5928aa47768f6fd3669daa44af8fd0de93",
        "44ba0868fb6e0f5c423ee7d96774b7b52ebd5c3812373050f4f91a58e12c88bc",
        "94445a98eb24219efdfb3530308437d1d212cbf7205bc477cbb566bfb0f79d1b",
    ),
    "G_{7,2}": (
        "19a0b946fac9d2ffaa304da84d333f9e88bf4a15d89d0618184be3ff9780a109",
        "1c8fbcbda5bfd66fbb00adea8bb87a8fdee6673fa351ba3be3cc2e906bcf5ba3",
        "14d1559deadb6a4ec0260923a51fbb5a494eec94d5c8ae809d23e8194a73a154",
    ),
    "G_{7,3}": (
        "346589e9211a426adaf3e567e8e9ecbb4445616b15f840e049e98fe92ea756c3",
        "a7e377677f35f5c9c9115ef788ca56733c1c3ab8af92e41760f3712f938c38bc",
        "248db02fd95fa7aee085b622ed0a10b1eef877089aff4a0d1337c7209bda64a5",
    ),
    "G_{8,1}": (
        "b89ef59e91c4553db2b0746ecd26becfcebaa7e968a8c5effad27bfbb030bd9e",
        "dcb0db1875d409769c4185468c6f5f1748d46c8efcffbccde1050b6bb7baeadc",
        "c1494b17dcd1febe6c10ca701b057f25888afa3ebf5c4c5056041b2db9a57d20",
    ),
    "G_{8,2}": (
        "cc656f5343e221f9b63754659090158a227d8f550ee370adaad2a0a089d6e6c9",
        "a81ee3f5bc152a0e90b5a5b97e833c6171b0529bf8931b8ed01a719f7dd37e97",
        "7af560cc4b1fdd4c5d61d4c254138a5d60d9d9d367b6bc807fa18c8543d9d1e9",
    ),
    "G_{8,3}": (
        "8623e835d310ba31b1c6001c6ee753e1234d32d71fbf1af671d2d30ab8b8a472",
        "786b110c01c549220ae8ef479a980fb6dda23e81e9322d39ee27ca5c20a835cb",
        "9b6c99d6b7fca86201ab2186d7ee31da7105543c7fdf57a5788e5ea7ccb343e2",
    ),
    "G_{9,1}": (
        "70b8dac76a5b9f78558b72a5daadff213f07dc30d632a565aeced0f19b541b1f",
        "635b97dce416fd363e4fd80345cc4fbf64a226a4a5f7a5e2a9e1cd5c8fd3144e",
        "a68b65911e36ffb2ad029145b975bf3ad4002f6beb432a25c190dde9611241cd",
    ),
    "G_{9,2}": (
        "aaff098147ca5686d8900b288a4ec26fd4b7c4ec3845f79c26c4d9342934ee29",
        "a591ac187cc7b5203177ec0c02336bb067fc8fd8b66b62147a95dccc569a725a",
        "255aed6cc1c404f090b12b52a764880e438a4b856007832b51693bc449de6b3e",
    ),
    "G_{31}": (
        "1b50409b538873d5930178a1a211c54b58b0ffd71f6d30ec8d3b1072fd234f93",
        "db03b7407cf2deac4c1b2bef63f56c6362659ce75e9da0c2cd7abefb8d7c528e",
        "603fe2626a6faf7f48eb90d20c4ba52720ba1703d9cbc71d64614327b5e19b3d",
    ),
}

# the plane-spread system 1-(6,3,1)_2 under the trivial group
SPREAD_DIGESTS = (
    "22af0be608a2816e222a81a07b4135d6878d1076103c251d4220ea11bd8c10a6",
    "4c2ecf6da870a082159af5fbcb1780784e062a4aaea4db3e6d3ceae25e743378",
    "e5ff5c0ff7129c0bde85a7ba49a41e2016bc39d204078f191324ff478895ee0b",
)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digests(group, t, k, v):
    t_part = orbits(group, v, t)
    k_part = orbits(group, v, k)
    m = build_km_matrix(group, t, k, v, row_part=t_part, col_part=k_part)
    return (
        sha256(dump_km(m, 1)),
        sha256("\n".join(map(str, t_part.orbit_of))),
        sha256("\n".join(map(str, k_part.orbit_of))),
    )


def test_catalog_covers_every_group():
    assert sorted(CATALOG_DIGESTS) == sorted(catalog.catalog_names())


@pytest.mark.parametrize("name", sorted(CATALOG_DIGESTS))
def test_catalog_front_end_is_unchanged(name):
    group = catalog.load_group(name).closure()
    assert digests(group, 2, 3, 7) == CATALOG_DIGESTS[name]


def test_spread_system_is_unchanged():
    group = group_closure((GF2Matrix.identity(6),), name="trivial-6")
    assert digests(group, 1, 3, 6) == SPREAD_DIGESTS
