import hashlib

import pytest

from gpwork import catalog
from gpwork.classify import (CENSUS_HEADER, NO, UNKNOWN, YES, census,
                             census_text, racg_surface_subgroup,
                             raag_surface_subgroup, witness_complex)
from gpwork.complexes import euler_characteristic, is_closed_surface
from gpwork.graphs import (enumerate_graphs, induced_subgraph,
                           is_weakly_chordal, opposite)

import oracles


def test_racg_verdicts_named_graphs():
    assert racg_surface_subgroup(catalog.cycle(5)).verdict == YES
    assert racg_surface_subgroup(catalog.cycle(6)).verdict == YES
    assert racg_surface_subgroup(opposite(catalog.cycle(7))).verdict == YES
    assert racg_surface_subgroup(catalog.path(7)).verdict == NO
    assert racg_surface_subgroup(catalog.p1_7()).verdict == NO
    assert racg_surface_subgroup(catalog.p2_7()).verdict == NO
    assert racg_surface_subgroup(opposite(catalog.path(6))).verdict == NO
    assert racg_surface_subgroup(opposite(catalog.path(7))).verdict == NO
    for i in range(12):
        assert racg_surface_subgroup(catalog.lambda_graph(i)).verdict == NO
    # the Phi graphs have eight vertices, outside the decisive range
    for i in range(1, 6):
        assert racg_surface_subgroup(catalog.phi_graph(i)).verdict == UNKNOWN


def test_racg_fig8_unknown_with_note():
    c = racg_surface_subgroup(catalog.fig8())
    assert c.verdict == UNKNOWN
    assert "right-angled Artin" in c.note


def test_raag_verdicts_named_graphs():
    assert raag_surface_subgroup(catalog.cycle(5)).verdict == YES
    assert raag_surface_subgroup(opposite(catalog.cycle(6))).verdict == YES
    assert raag_surface_subgroup(opposite(catalog.path(6))).verdict == YES
    assert raag_surface_subgroup(catalog.p1_7()).verdict == YES
    assert raag_surface_subgroup(catalog.p2_7()).verdict == YES
    assert raag_surface_subgroup(catalog.path(7)).verdict == NO
    # P7opp contains an induced P6opp (drop an endpoint), hence YES
    assert raag_surface_subgroup(opposite(catalog.path(7))).verdict == YES


def test_raag_racg_divergence():
    for g in (opposite(catalog.path(6)), catalog.p1_7(), catalog.p2_7()):
        assert raag_surface_subgroup(g).verdict == YES
        assert racg_surface_subgroup(g).verdict == NO


def test_racg_matches_weakly_chordal_up_to_six():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            wc, _ = is_weakly_chordal(g)
            verdict = racg_surface_subgroup(g).verdict
            assert verdict == (NO if wc else YES)


def test_yes_witnesses_validate():
    for g in enumerate_graphs(6):
        c = racg_surface_subgroup(g)
        if c.verdict != YES:
            continue
        kind, verts = c.witness
        base = g if kind == "hole" else opposite(g)
        sub = induced_subgraph(base, verts)
        assert oracles.brute_force_hole(sub, len(verts)) is not None


def test_census_row_counts():
    assert [len(census(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    with pytest.raises(ValueError):
        census(0)


def test_census_text_shape():
    text = census_text(4)
    lines = text.rstrip("\n").split("\n")
    assert lines[0] == CENSUS_HEADER
    assert len(lines) == 12
    for line in lines[1:]:
        cols = line.split("\t")
        assert len(cols) == 7
        assert cols[2] in ("true", "false")
        assert cols[3] in (YES, NO) and cols[5] in (YES, NO)
        # the verdict equivalence, column-wise
        assert (cols[2] == "false") == (cols[3] == YES)


def test_witness_complex_hole():
    g = catalog.cycle(5)
    c = racg_surface_subgroup(g)
    X, report = witness_complex(g, c.witness)
    assert report == "surface=yes chi=-8"
    assert is_closed_surface(X) and euler_characteristic(X) == -8


def test_witness_complex_rejects_square():
    with pytest.raises(ValueError):
        witness_complex(catalog.cycle(4), ("hole", ("v1", "v2", "v3", "v4")))
    with pytest.raises(ValueError):
        witness_complex(catalog.path(5), ("hole", ("a", "b", "c", "d", "e")))


def test_witness_complex_antihole_chain():
    g = opposite(catalog.cycle(7))
    c = racg_surface_subgroup(g)
    assert c.witness[0] == "antihole"
    X, report = witness_complex(g, c.witness)
    assert X is None
    assert "relators=PASS" in report and "FAIL" not in report
    assert report.startswith("antihole length 7")


def test_census_n7_bytes_pinned():
    # every representative, verdict and witness of the seven-vertex census
    text = census_text(7)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "177d64e44c9880d0f5368d5a58ef9cbd111386c3cf6cd2fb270458c5adc562ab")
