import json
from fractions import Fraction

import numpy as np
import pytest

from randtile.errors import StructuralError
from randtile.substitution import (Branch, SubstitutionRule,
                                   builtin_families, builtin_family,
                                   family_from_json, family_to_json,
                                   load_family, one_d_pair, save_family,
                                   solenoid_family, substitution_matrix,
                                   validate_rule)


def test_half_hex_prototiles(hh):
    assert hh.n_prototiles == 6
    for p in hh.prototiles:
        assert p.volume == Fraction(3, 4)


def test_half_hex_rule1_matrix(hh):
    a = substitution_matrix(hh.rules[0], 6)
    # circulant with first row (1, 0, 1, 1, 1, 0)
    row = (1, 0, 1, 1, 1, 0)
    for i in range(6):
        for j in range(6):
            assert a[i, j] == row[(j - i) % 6]
    assert (a == a.T).all()
    assert (a.sum(axis=1) == 4).all()


def test_half_hex_rule2_matrix(hhp):
    a = substitution_matrix(hhp.rules[1], 6)
    row = (6, 2, 1, 4, 2, 1)
    for i in range(6):
        for j in range(6):
            assert a[i, j] == row[(j - i) % 6]
    assert (a.sum(axis=1) == 16).all()


def test_geometric_flags(hh, hhp, odp, sol1, sol2):
    assert hh.geometric
    assert not hhp.geometric          # rule 2 is matrix-only
    assert hhp.rules[0].is_geometric
    assert odp.geometric and sol1.geometric and sol2.geometric


@pytest.mark.parametrize("fam_name", ["half-hex-classical", "solenoid-2-1d",
                                      "solenoid-2x3-2d", "solenoid-2-3d",
                                      "one-d-pair"])
def test_validate_rule_exact(fam_name):
    fam = builtin_family(fam_name)
    for rule in fam.rules:
        rep = validate_rule(rule, fam.prototiles)
        assert rep.passed
        assert rep.max_overlap == 0
        assert all(r == 0 for r in rep.residuals.values())


def _broken_one_d_rule(taus):
    """Rule 1 of one-d-pair with parent 0's branch to child 1 placed at each
    translation in `taus` instead of at 1/3."""
    rule = one_d_pair().rules[0]
    branches = [b for b in rule.branches
                if not (b.parent == 0 and b.child == 1)]
    branches += [Branch(0, 1, (t,)) for t in taus]
    return SubstitutionRule(rule.id, rule.theta, tuple(branches))


def test_validate_rule_rejects_overlapping_branch(odp):
    # [0, 1/3] overlaps the middle image [-1/6, 1/6] and leaves a gap
    rep = validate_rule(_broken_one_d_rule((Fraction(1, 6),)),
                        odp.prototiles)
    assert not rep.passed
    assert rep.max_overlap == Fraction(1, 6)
    assert rep.residuals[0] == 0 and not rep.notes


def test_validate_rule_rejects_missing_branch(odp):
    rep = validate_rule(_broken_one_d_rule(()), odp.prototiles)
    assert not rep.passed
    assert rep.residuals == {0: Fraction(1, 3), 1: 0}
    assert rep.max_overlap == 0 and not rep.notes


def test_validate_rule_rejects_leaking_branch(odp):
    # [1/2, 5/6] lies outside the parent [-1/2, 1/2]; volumes still add up
    rep = validate_rule(_broken_one_d_rule((Fraction(2, 3),)),
                        odp.prototiles)
    assert not rep.passed
    assert rep.residuals[0] == 0 and rep.max_overlap == 0
    assert len(rep.notes) == 1 and "leaks" in rep.notes[0]


def test_validate_rule_rejects_matrix_only(hhp):
    with pytest.raises(StructuralError):
        validate_rule(hhp.rules[1], hhp.prototiles)


def test_volume_eigenvector_identity():
    """A · vol = theta^{-d} · vol for every rule of every built-in family."""
    for fam in builtin_families():
        vols = np.array(fam.volumes(), dtype=object)
        for rule in fam.rules:
            a = substitution_matrix(rule, fam.n_prototiles).astype(object)
            scale = Fraction(1) / rule.theta ** fam.dim
            assert (a @ vols == scale * vols).all()


def test_rule_symbol_indexing(odp):
    assert odp.rule(1).id == 1
    assert odp.rule(2).id == 2
    with pytest.raises(StructuralError):
        odp.rule(0)
    with pytest.raises(StructuralError):
        odp.rule(3)


def test_solenoid_family_structure():
    fam = solenoid_family([2, 3], 2)
    assert fam.n_prototiles == 1
    assert len(fam.rules[0].branches) == 4
    assert len(fam.rules[1].branches) == 9
    assert fam.rules[0].theta == Fraction(1, 2)
    assert fam.rules[1].theta == Fraction(1, 3)


def test_builtin_family_lookup():
    assert builtin_family("half-hex-pair").name == "half-hex-pair"
    assert builtin_family("solenoid-5-1d").rules[0].theta == Fraction(1, 5)
    with pytest.raises(StructuralError):
        builtin_family("no-such-family")
    assert builtin_family("solenoid-2x3-2d").name == "solenoid-2x3-2d"
    # each parses to solenoid-2-1d, a family with another name
    for name in ("solenoid-2-1", "solenoid-02-1d", "solenoid-2-1dd"):
        with pytest.raises(StructuralError, match=f"'{name}'"):
            builtin_family(name)


def test_builtin_family_builds_the_listed_family():
    """Looking one family up builds only that family, and it is the one
    `builtin_families` lists, in the listed order."""
    fams = builtin_families()
    assert [f.name for f in fams] == ["half-hex-classical", "half-hex-pair",
                                      "solenoid-2-1d", "solenoid-2x3-2d",
                                      "one-d-pair"]
    for fam in fams:
        assert family_to_json(builtin_family(fam.name)) == family_to_json(fam)


def test_json_round_trip(tmp_path):
    for fam in builtin_families():
        path = tmp_path / f"{fam.name}.json"
        save_family(fam, path)
        back = load_family(path)
        assert family_to_json(back) == family_to_json(fam)
        assert back.geometric == fam.geometric
        assert back.volumes() == fam.volumes()


def test_json_is_plain_data(tmp_path, hh):
    path = tmp_path / "fam.json"
    save_family(hh, path)
    data = json.loads(path.read_text())
    assert data["dimension"] == 2
    assert len(data["prototiles"]) == 6
    assert all("theta" in r for r in data["rules"])
    assert family_from_json(data).n_prototiles == 6


def test_family_from_json_names_the_fault(odp):
    with pytest.raises(StructuralError, match="a JSON object, not a list"):
        family_from_json([])
    data = family_to_json(odp)
    data["rules"][1]["theta"] = "half"
    with pytest.raises(StructuralError, match="malformed family data"):
        family_from_json(data)
    # rule 1's branch from parent 0 to child 1, moved from 1/3 to 2/3 or
    # dropped: an image that leaks out, or a parent left short by 1/3
    data = family_to_json(odp)
    data["rules"][0]["branches"][2]["tau"] = ["2/3"]
    with pytest.raises(StructuralError, match="rule 1 .*child 1 leaks"):
        family_from_json(data)
    del data["rules"][0]["branches"][2]
    with pytest.raises(StructuralError,
                       match="rule 1 .*parent 0 is off by volume 1/3"):
        family_from_json(data)


def test_family_from_json_checks_the_volume_identity(hhp):
    """A matrix-only rule has no images to validate, so A·vol = θ^-d·vol is
    checked: half-hex-pair loads, and with one branch of rule 2 dropped it
    used to load too."""
    data = family_to_json(hhp)
    assert family_from_json(data).rules == hhp.rules
    del data["rules"][1]["branches"][0]
    with pytest.raises(StructuralError, match="rule 2 breaks the volume "
                       r"identity: parent 0 has A·vol = 45/4, not θ\^-d·vol "
                       "= 12$"):
        family_from_json(data)


def _recount_edges(rule):
    """Brute force: each branch's index among the earlier branches with the
    same parent and child."""
    return tuple(
        (b.parent, b.child,
         sum((c.parent, c.child) == (b.parent, b.child)
             for c in rule.branches[:k]), b)
        for k, b in enumerate(rule.branches))


def test_edges_match_brute_force_recount():
    repeated = SubstitutionRule(7, Fraction(1, 3), (
        Branch(0, 1), Branch(1, 0), Branch(0, 1), Branch(0, 0),
        Branch(1, 0), Branch(0, 1)))
    rules = [r for fam in builtin_families() for r in fam.rules] + [repeated]
    for rule in rules:
        assert rule.edges == _recount_edges(rule)
        assert rule.edges is rule.edges
    assert [e[:3] for e in repeated.edges] == [
        (0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 0, 0), (1, 0, 1)]


def test_family_matrix_is_cached_and_read_only():
    for fam in builtin_families():
        for symbol in range(1, fam.n_rules + 1):
            a = fam.matrix(symbol)
            want = substitution_matrix(fam.rule(symbol), fam.n_prototiles)
            assert a.dtype == want.dtype and (a == want).all()
            assert fam.matrix(symbol) is a
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] += 1
        with pytest.raises(StructuralError):
            fam.matrix(fam.n_rules + 1)
