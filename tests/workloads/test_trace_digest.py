"""Golden digests of the emulator's output.

Each digest is a sha256 over the bytes of the compiled columnar array
(``TRACE_DTYPE`` rows) that :func:`repro.workloads.suite.generate`
yields, recorded while the emulator still built one
instruction object per committed instruction and compiled the list in
a second pass.  The table covers every benchmark at the default length
and seed, every benchmark at a length that stops mid-loop, and six
benchmarks (one per suite) at two non-default seeds.  A change to the
generator that moves any row fails here; a deliberate one bumps
``GENERATOR_VERSION`` and re-records the table.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.isa.compiled import OPCLASS_LIST
from repro.workloads.emulator import GENERATOR_VERSION
from repro.workloads.suite import BENCHMARKS, generate

GOLDEN = {
    ('gzip', 20000, None):
        "eb6e81d1739b1f23d08548747d22fd36b8e4d5bd20a25a39dfbf33085fa1621e",
    ('crafty', 20000, None):
        "5dbe40d2cab2415979999ce28b4f6ebeed311fb7f0ec641963369edb0b3c5e7c",
    ('mcf', 20000, None):
        "69759a53693a717a1c2adcc5bada153c6eb041613ab2cabf847f50d3905e773b",
    ('gcc', 20000, None):
        "64b8a16073052d667e288db617edf3a8ae3a694ad03963bbb257244988934a2d",
    ('swim', 20000, None):
        "8fd3c7062fb0670c3dbfda47696b473bd30a9da6af9b54c03d32e69a6cf65bb1",
    ('art', 20000, None):
        "7eeac0469754eeed2e4078ae4a5e6764af410b49d8db1880e7c395eb4a1ae34b",
    ('equake', 20000, None):
        "3548ac8a769a187b6e21e736e4b828b7cd3e4ab3c3f4397068803fc271f5a46d",
    ('applu', 20000, None):
        "f3c235ea2829db485b11b1b7989242c5dbe71eece566d68368defe0a86f79c80",
    ('mpeg2', 20000, None):
        "475a7d493c69d43fd65bdf21390066abd0e7511b80eaf19fb7c969bde4246ea9",
    ('jpeg', 20000, None):
        "8e6c2c36f9ff39541a8824d1d0c204be2e82f176e72dd2b488f0e5d1f0e76c38",
    ('adpcm', 20000, None):
        "89666092794165453bd3b444d3d181e689ca39aec50a2dc3081ce7752aa64c6a",
    ('g721', 20000, None):
        "c34c818c6874601dea391e25be2c08dbf47b13eb1ba468f9ad80036b843475eb",
    ('susan', 20000, None):
        "444642e6dbbd53ea525070a986a5b5ac0f9a27f71ac6c2998fea7814d961c727",
    ('patricia', 20000, None):
        "5b9b25ef7526272aff13458ad230f6468ce69150b346186e582353b379b0acb7",
    ('dijkstra', 20000, None):
        "f4f87448b2ebd1bb5d858efac9414235cb9dace08448f5a5ba23d829b0ec4be9",
    ('qsort', 20000, None):
        "e652c5db031d0bc9b1d3812be884470a000ebbce032f817e8937b70da8ff3675",
    ('yacr2', 20000, None):
        "764c474db082ca97ec8e26be9b448c7fe0ab0d44983e84667545bcea8641f30a",
    ('ft', 20000, None):
        "049e2131516c62e311174d092a37b2041ecc8884a3d480242a6306d02a2b2313",
    ('ks', 20000, None):
        "8673eee56aa41eb76d75561a16c4d1d898f813dc60a7cc0ac211060e833b8a5e",
    ('tsp', 20000, None):
        "1a38078a3db84f94e686d214847ac045b6e3c1c2ff14c43fe0e7cc3dbfe165ab",
    ('blast', 20000, None):
        "34270249427eda983b4fd2e05db43015593252d7968fcd406e2c61b39851578d",
    ('hmmer', 20000, None):
        "9e88096d95de46620cac33525e2bf4acd7ebe5d5bceb5794c880d8d74a5139d1",
    ('fasta', 20000, None):
        "19f2b49fde29ff5bff287de0bc8d1b7fe8c97134f95fd77988e2774473bf7439",
    ('clustalw', 20000, None):
        "251e7fab2eaea94e4ea276c4a4a232bb89b1566c57d0c430ebd2cb1f7bf9cc42",
    ('gzip', 137, None):
        "d489e587d1504f71f8a3d665f6e6f31f433a51aa9246915514b2114341a31e7a",
    ('crafty', 137, None):
        "ccc7ca8ac9cc6f1c00dd829550fdf2e05f49e69c9efbd51ae81c134a0bbabdfd",
    ('mcf', 137, None):
        "db710e6fa6be387f4e9504b0cb93605f9fc3093fae0e95b10797ae15cadcfc76",
    ('gcc', 137, None):
        "e8343213286f7e41cb75d06bcd1779e5197bc85479fb06fadd40a8cf924d3a18",
    ('swim', 137, None):
        "545520ae67ba78ef11aea5cdb121fa8e935fd42c55a23f9c70d3cd8b281e4806",
    ('art', 137, None):
        "d27578d07fd071e704e95665ae270ea01a0c9eabe70bfd503bb8fa7040d77587",
    ('equake', 137, None):
        "3f7ec8157107262e793c3cc720d670d9c75cc5b35466ec16199f35fa16b01188",
    ('applu', 137, None):
        "4d1a3d5c7cb00168c805442dd6be30bdfd7927ea734a7a93e43dcda88495cb3e",
    ('mpeg2', 137, None):
        "f2087d361dfb5f309945e662d0e74fc4dc917d497c9a52f1b46ee70cbf547d16",
    ('jpeg', 137, None):
        "da059f3d45e372b008c9c360e532dd7cdedf34a67c1680908e0c0702db2a986b",
    ('adpcm', 137, None):
        "d14444380b05784460fe83e21743109c7b28a9e716dfcfbb025faf12efcd3df8",
    ('g721', 137, None):
        "99b1cead34c136e319d07c97c1a7a7fc1c9bb795964d534411b872c634306f2c",
    ('susan', 137, None):
        "ffc76a8688ac07afb0c0314bb6facf4eabdf09abbece7ed3e22fe77f91922909",
    ('patricia', 137, None):
        "47e2e6f6c076d1ca1e171f7a0a4aec372e725e38832088412b0f8235def998bd",
    ('dijkstra', 137, None):
        "5446f6709d6f68b382894d004c797cddf0bdc55c2fcc2114b7a257203e8c5602",
    ('qsort', 137, None):
        "9fa17ff84bf3cdf4419b8352034e4daa622687c22411c558054a4fb1e76b57c4",
    ('yacr2', 137, None):
        "b844bdf0c397951ebd691638af6a5e6e25b13e120994b40fae10fc02197fd50b",
    ('ft', 137, None):
        "8ccc1ff87a99ce932aeccd8532412fb4b539e5d4ff0317cdfd457bcd11d20bdc",
    ('ks', 137, None):
        "286e11c15892b4f256079a5700dce561ceaa30d2cd51348efc47a09528bead7d",
    ('tsp', 137, None):
        "52dff44ce35d7216a00606a14e47c83d34c13e60045c2c25c6091e067a95d3bb",
    ('blast', 137, None):
        "4077b200486323810fc9be12959d4874a333d23432737245ef9b71adf11f5e52",
    ('hmmer', 137, None):
        "cff8cb2fec64d28637882d17ebd91225d203056c8d61b23cec8d10f7a05bebc9",
    ('fasta', 137, None):
        "0e09c59b1b5123c495a5252036e8723547b4400af0d43f998e9868d76ac9ba55",
    ('clustalw', 137, None):
        "023820ea511711fd4a92348983a40a7c23644b70607bb3702487133a6d7284e1",
    ('gcc', 20000, 0):
        "9582b89d0b42ba660a0a18bffdf38e45a13a1bf58a05565ea549c5158b8b1e5b",
    ('gcc', 20000, 3):
        "76c77b4c3bb8e4c4ce427c80fae0527ad28a2c0c7fc54f488fe9c1e4c97031d0",
    ('swim', 20000, 0):
        "284fb2430b63a22b2c53b6b5ed427c56fe9f0e9441e21d10584260dfcc8042a2",
    ('swim', 20000, 3):
        "77954f34e9f9d4d4a95926364c31a41687d4fd141795357b3cbb2c3197a4c4c3",
    ('mpeg2', 20000, 0):
        "9cf26b6617dbb40bbdee0937ccb8f843353c9e381f9a27230ee18ec1594c1134",
    ('mpeg2', 20000, 3):
        "0b0e3e0b9012f0cf114d9073f6c0b97d8135f1ee69e2919089cab1fa3e6adf8d",
    ('susan', 20000, 0):
        "cb28b1eaddd4766b0023f0339126e159a9eda50a5157b7ead174d8f9d9dda3f8",
    ('susan', 20000, 3):
        "ccc7e6131f20e5884e261330aadbac5af0453d5ccd760670ddc5443859bc35a8",
    ('mcf', 20000, 0):
        "63164596e9339f5712d8aad56866501e8239b749b261e76ba9b67dc692ce8d8d",
    ('mcf', 20000, 3):
        "1a1dbd3b0e72699922481a328a9529983478a2261a6e40ceeb6cfdbe420735a4",
    ('blast', 20000, 0):
        "ecb30435e59c5c4f6116fa1a2c0483c81a71f1a63e61ee59194341a1f99d18b5",
    ('blast', 20000, 3):
        "d1c9ef411ae8c5b98717e9bcb2128fc941e9b929acaec43243a18b89110ac9ae",
}

#: sha256 of the field tuples of ``generate("mpeg2")``'s instructions,
#: recorded from the eagerly built instruction list.
MPEG2_INSTRUCTIONS = (
    "83b73df2a20a91fa24a99820abb578ca4ecd6b746d3285e49eed369ce62024ad"
)


def _digest(name, length, seed):
    trace = generate(name, length, seed=seed)
    return hashlib.sha256(trace.array.tobytes()).hexdigest()


def test_generator_version_unchanged():
    assert GENERATOR_VERSION == 1


def test_every_benchmark_is_covered():
    assert {name for name, _, _ in GOLDEN} == set(BENCHMARKS)


@pytest.mark.parametrize("name,length,seed", list(GOLDEN))
def test_emulator_digest(name, length, seed):
    assert _digest(name, length, seed) == GOLDEN[name, length, seed]


def test_materialized_instructions_match_eager_list():
    """Each row, read back as the instruction record it replaced
    (``None`` for absent fields, tuples of sources and their values),
    matches that record field for field."""
    trace = generate("mpeg2", 20_000)
    rows = [
        (pc, OPCLASS_LIST[op].value, (src0, src1)[:nsrcs],
         None if dst < 0 else dst, result, (sval0, sval1)[:nvals],
         mem_addr if has_mem_addr else None,
         mem_value if has_mem_value else None, taken,
         target if has_target else None)
        for (pc, op, nsrcs, nvals, src0, src1, dst, result, sval0, sval1,
             has_mem_addr, mem_addr, has_mem_value, mem_value, taken,
             has_target, target) in trace.array.tolist()
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        MPEG2_INSTRUCTIONS
