import pytest

import gen
import oracle

XOR_AND_PLA = """\
.i 3
.o 2
.ilb a b c
.ob x y
.type fd
000 00
011 10
101 10
110 10
111 11
001 00
010 -0
100 1-
.e
"""

GOOD = """\
.model m
.inputs a b c
.outputs x y
.names a b c x
011 1
101 1
110 1
111 1
010 1
100 1
.names a b c y
111 1
.end
"""


def flip_first_row(blif: str) -> str:
    lines = blif.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(".names"):
            cube, value = lines[i + 1].split()
            flipped = cube[:-1] + ("0" if cube[-1] == "1" else "1")
            lines[i + 1] = f"{flipped} {value}"
            return "\n".join(lines) + "\n"
    raise AssertionError("no .names block")


def test_accepts_a_correct_network_using_dont_cares():
    assert oracle.check(oracle.PlaReference(XOR_AND_PLA), GOOD) == []


def test_rejects_one_flipped_lut_row():
    bad = flip_first_row(GOOD)
    assert oracle.check(oracle.PlaReference(XOR_AND_PLA), bad) == ["x"]


def test_rejects_a_mapped_circuit_with_one_flipped_row():
    registry = pytest.importorskip("repro.bench.registry")
    api = pytest.importorskip("repro.core.api")
    func = registry.benchmark("rd84")
    reference = oracle.WireReference(func.to_wire())
    blif = api.map_to_xc3000(func).network.to_blif()
    assert oracle.check(reference, blif) == []
    assert oracle.check(reference, flip_first_row(blif)) != []


def test_random_vectors_above_the_exhaustive_limit():
    registry = pytest.importorskip("repro.bench.registry")
    api = pytest.importorskip("repro.core.api")
    func = registry.benchmark("misex2")
    assert func.num_inputs > oracle.EXHAUSTIVE_MAX
    reference = oracle.WireReference(func.to_wire())
    blif = api.map_to_xc3000(func).network.to_blif()
    assert oracle.check(reference, blif) == []
    assert oracle.check(reference, flip_first_row(blif)) != []


def test_dc_plane_reference_matches_its_base_where_it_cares():
    registry = pytest.importorskip("repro.bench.registry")
    base = oracle.WireReference(registry.benchmark("rd84").to_wire())
    text = gen.dc_plane_pla(base, 0.3, gen.rng_for(7, "dc"))
    variant = oracle.PlaReference(text)
    patterns, mask = oracle.exhaustive_patterns(base.num_inputs)
    for (lo, hi), (vlo, vhi) in zip(base.values(patterns, mask),
                                    variant.values(patterns, mask)):
        assert lo == hi
        assert vlo & ~lo == 0 and lo & ~vhi == 0
        assert vhi & ~vlo  # some don't cares were made


def test_unsimulatable_blif_is_a_mismatch():
    broken = GOOD.replace(".names a b c y", ".names a q c y")
    assert oracle.check(oracle.PlaReference(XOR_AND_PLA), broken)
