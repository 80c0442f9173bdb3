"""Generator sets, certificates, and the tight/slack classifiers."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoineq import shannon
from infoineq.core import LinExpr, cond_entropy, entropy_of, mask_label, mutual_info
from infoineq.parser import default_names
from infoineq.refuter import Budget, refute
from infoineq.shannon import (MONOTONICITY, SLACK, SUBMODULARITY, TIGHT, UNKNOWN, Generator,
                              ProofCertificate, classify_tight, elemental, joint_slack, prove,
                              verify)
from infoineq.simplex import solve_lp

from conftest import as_rational, modular_candidate, parse_expr, sparse

F = Fraction
XYZ = ["X", "Y", "Z"]


def matus_expr(k: int) -> LinExpr:
    """The k-th member of the Matus family on four variables A,B,C,D
    (indices 0..3), written so that expr >= 0:

        I(C;D|A) + (k+3)/2 I(C;D|B) + I(A;B)
            + (k-1)/2 I(B;C|D) + (1/k) I(B;D|C) - I(C;D) >= 0

    Not provable over the elemental cone for k = 1, 2, 3.  Not valid
    either, at least at k = 1: `refute` at s=2, D=6 finds a binary pmf
    on which the k = 1 member is negative.  So this does not transcribe
    the published family faithfully; the tests keep it as an expression
    that is neither provable nor refuted at small budgets.
    """
    n = 4
    a, b, c, d = 1, 2, 4, 8
    return (mutual_info(n, c, d, a)
            + mutual_info(n, c, d, b).scale(Fraction(k + 3, 2))
            + mutual_info(n, a, b)
            + mutual_info(n, b, c, d).scale(Fraction(k - 1, 2))
            + mutual_info(n, b, d, c).scale(Fraction(1, k))
            - mutual_info(n, c, d))


def schema_count(n: int) -> int:
    # independent oracle: enumerate the schema directly
    mono = n
    subm = sum(1 for _i, _j in combinations(range(n), 2)) * 2 ** (n - 2)
    return mono + subm


def reference_elemental(n: int) -> list[Generator]:
    """The elemental set built by `LinExpr` arithmetic on cond_entropy and
    mutual_info: an independent reference for the items `elemental`
    writes directly."""
    names = default_names(n)
    gens = []
    everything = (1 << n) - 1
    for i in range(n):
        rest = everything & ~(1 << i)
        label = f"H({names[i]}|{mask_label(rest, names)})" if rest else f"H({names[i]})"
        gens.append(Generator(label, MONOTONICITY, cond_entropy(n, 1 << i, rest)))
    for i, j in combinations(range(n), 2):
        others = [k for k in range(n) if k not in (i, j)]
        for bits in range(1 << len(others)):
            mask = sum(1 << k for t, k in enumerate(others) if (bits >> t) & 1)
            label = (f"I({names[i]};{names[j]}|{mask_label(mask, names)})" if mask
                     else f"I({names[i]};{names[j]})")
            gens.append(Generator(label, SUBMODULARITY, mutual_info(n, 1 << i, 1 << j, mask)))
    order = {MONOTONICITY: 0, SUBMODULARITY: 1}
    return sorted(gens, key=lambda g: (order[g.kind], g.name))


class TestElemental:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_linexpr_construction(self, n):
        def exact(gens):
            return [(g.name, g.kind, g.provenance, g.expr.n,
                     [(type(m), m, type(c), c) for m, c in g.expr.items]) for g in gens]

        gens = elemental(n)
        assert gens.n == n
        assert exact(gens.generators) == exact(reference_elemental(n))

    @pytest.mark.parametrize("n,count", [(2, 3), (3, 9), (4, 28), (5, 85)])
    def test_counts_match_schema(self, n, count):
        gens = elemental(n)
        assert len(gens.generators) == count == schema_count(n)

    def test_kinds(self, gens3):
        kinds = [g.kind for g in gens3.generators]
        assert kinds.count("elemental-monotonicity") == 3
        assert kinds.count("elemental-submodularity") == 6

    def test_exprs_distinct(self, gens4):
        exprs = [tuple(g.expr.items) for g in gens4.generators]
        assert len(set(exprs)) == len(exprs)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            elemental(0)
        with pytest.raises(ValueError):
            elemental(17)

    def test_user_generators_carry_provenance(self, gens4):
        extended = gens4.with_user(matus_expr(1), "matus-k1", "published family")
        (user,) = [g for g in extended.generators if g.kind == shannon.USER]
        assert user.provenance == "published family"
        with pytest.raises(ValueError, match="duplicate"):
            extended.with_user(matus_expr(1), "matus-k1", "again")


class TestProve:
    def test_join_bound_certificate(self, gens4):
        expr = parse_expr("H(XY) + H(YZ) + H(ZU) + H(X|YU) + H(U|XZ) - 2*H(XYZU)",
                          ["X", "Y", "Z", "U"])
        cert = prove(expr, gens4)
        assert cert is not None
        assert verify(cert, expr, gens4)

    def test_three_term_sum_certificate(self, gens3):
        expr = parse_expr(
            "2*H(XY) + 2*H(YZ) + 2*H(XZ) - H(X) - H(Y) - H(Z) - 3*H(XYZ)", XYZ)
        cert = prove(expr, gens3)
        assert cert is not None and verify(cert, expr, gens3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nonelemental_family_not_provable(self, gens4, k):
        assert prove(matus_expr(k), gens4) is None

    def test_monotone_in_generators(self, gens4):
        target = matus_expr(1)
        extended = gens4.with_user(target, "matus-k1", "published family")
        cert = prove(target, extended)
        assert cert is not None and verify(cert, target, extended)
        assert cert.to_json(extended)["trusted_user_generators"] == [
            {"name": "matus-k1", "provenance": "published family"}]
        # and everything elemental-provable stays provable
        expr = mutual_info(4, 1, 2, 4)
        assert prove(expr, extended) is not None

    def test_trusted_generators_follow_from_the_multipliers(self, gens4):
        target = matus_expr(1)
        extended = gens4.with_user(target, "matus-k1", "published family")
        cert = prove(target, extended)
        data = cert.to_json(extended)
        assert ProofCertificate.from_json({**data, "trusted_user_generators": []},
                                          extended) == cert
        assert ProofCertificate.from_json(data, extended).to_json(extended) == data

    def test_a_generator_outside_the_set_is_rejected(self, gens3):
        data = prove(mutual_info(3, 1, 2), gens3).to_json(gens3)
        data["generator_multipliers"]["I(bogus)"] = "5"
        with pytest.raises(ValueError, match=r"not in the set: I\(bogus\)$"):
            ProofCertificate.from_json(data, gens3)

    def test_zero_target_zero_certificate(self, gens3):
        cert = prove(LinExpr.zero(3), gens3)
        assert cert is not None
        assert all(m == 0 for m in cert.generator_multipliers)
        assert verify(cert, LinExpr.zero(3), gens3)

    def test_tampered_certificate_rejected(self, gens3):
        expr = mutual_info(3, 1, 2)
        cert = prove(expr, gens3)
        bad = ProofCertificate(cert.target, cert.antecedent_multipliers,
                               tuple(-m for m in cert.generator_multipliers))
        assert not verify(bad, expr, gens3)
        off = ProofCertificate(cert.target, cert.antecedent_multipliers,
                               cert.generator_multipliers[:-1] + (F(1, 3),))
        assert not verify(off, expr, gens3)
        # each of these is an exact identity, rejected by its shape or sign alone
        extra_antecedent = ProofCertificate(cert.target, (F(0),), cert.generator_multipliers)
        assert not verify(extra_antecedent, expr, gens3)
        extra_generator = ProofCertificate(cert.target, (), cert.generator_multipliers + (F(0),))
        assert not verify(extra_generator, expr, gens3)
        zeros = (F(0),) * len(gens3.generators)
        negative = ProofCertificate(cert.target, (F(-1),), zeros)
        assert verify(ProofCertificate(cert.target, (F(1),), zeros), expr, gens3, [expr])
        assert not verify(negative, expr, gens3, [-expr])

    def test_conditional_certificate(self, gens3):
        # I(X;Z) <= I(X;Y) + I(X;Z|Y): contraction as antecedent reduction
        antecedents = [-mutual_info(3, 1, 2), -mutual_info(3, 1, 4, 2)]
        target = -mutual_info(3, 1, 4)
        cert = prove(target, gens3, antecedents=antecedents)
        assert cert is not None
        assert verify(cert, target, gens3, antecedents)

    def test_dimension_mismatch(self, gens3):
        with pytest.raises(ValueError, match="mismatch"):
            prove(entropy_of(4, 1), gens3)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_random_conic_combinations_are_provable(self, seed):
        rng = random.Random(seed)
        gens = elemental(3)
        combo = LinExpr.zero(3)
        for g in rng.sample(gens.generators, k=rng.randint(1, 4)):
            combo = combo + g.expr.scale(F(rng.randint(0, 3), rng.randint(1, 2)))
        cert = prove(combo, gens)
        assert cert is not None and verify(cert, combo, gens)


def dense_lp(target, gens, antecedents):
    """The LP of `prove`, from dense Fraction columns, transposed."""
    columns = [a.dense() for a in antecedents] + [g.expr.dense() for g in gens.generators]
    k = len(antecedents)
    a = [[col[i] for col in columns] for i in range(1 << target.n)]
    cost = [F(1)] * k + [F(0)] * (len(columns) - k)
    return a, target.dense(), cost


@pytest.mark.parametrize("target,antecedents", [
    # I(X;YZ|U) from I(X;Y|U) and I(X;Z|YU), with an unneeded third antecedent
    (-mutual_info(4, 1, 6, 8),
     (-mutual_info(4, 1, 2, 8), -mutual_info(4, 1, 4, 10), -mutual_info(4, 1, 6, 0))),
    (mutual_info(6, 1, 2) + mutual_info(6, 4, 48, 8), ()),
], ids=["n4-conditional", "n6"])
def test_prove_hands_solve_lp_the_sparse_rows(monkeypatch, target, antecedents):
    lps = []

    def recording(a, b, c):
        lps.append((a, b, c))
        return solve_lp(a, b, c)

    monkeypatch.setattr(shannon, "solve_lp", recording)
    gens = elemental(target.n)
    cert = prove(target, gens, antecedents)
    assert cert is not None and verify(cert, target, gens, antecedents)
    ((rows, b, c),) = lps
    ref_a, ref_b, ref_c = dense_lp(target, gens, antecedents)
    assert len(rows) == 1 << target.n
    # row m: the (column, coefficient) items of the columns that mention m,
    # in column order, and no zero value
    columns = list(antecedents) + gens.exprs()
    for m, row in enumerate(rows):
        assert row == [(j, v) for j, col in enumerate(columns) for mask, v in col.items
                       if mask == m]
        assert all(v != 0 for _, v in row)
    assert rows == sparse(ref_a) and b == ref_b and c == ref_c
    # the certificate is the one the densified LP yields
    res = solve_lp(sparse(ref_a), ref_b, ref_c)
    k = len(antecedents)
    dense_cert = ProofCertificate(target, res.x[:k], res.x[k:])
    assert cert.to_json(gens) == dense_cert.to_json(gens)
    if antecedents:
        assert any(cert.antecedent_multipliers) and not all(cert.antecedent_multipliers)


class TestClassify:
    def test_negated_mutual_information_is_tight(self, gens2):
        assert classify_tight(-mutual_info(2, 1, 2), gens2, Budget()) == TIGHT
        # tight because the negation has a certificate
        assert verify(prove(mutual_info(2, 1, 2), gens2), mutual_info(2, 1, 2), gens2)

    def test_unbalanced_expression_has_slack(self, gens3):
        c = parse_expr("3*H(X) - 4*H(YZ)", XYZ)
        assert classify_tight(c, gens3, Budget()) == SLACK
        # the modular LP's witness: least total weight with c.h >= 1
        assert joint_slack([c], Budget()).weights == (F(1, 3), F(0), F(0))

    def test_zero_is_tight(self, gens3):
        assert classify_tight(LinExpr.zero(3), gens3, Budget()) == TIGHT

    def test_unknown_for_undetected(self, gens4):
        # matus_expr(1) is not provable at the elemental set, and neither a
        # modular vector nor a pmf with s=2, D=2 makes it negative, so the
        # negation is neither tight nor slack here.  This holds only at this
        # budget: at s=2, D=6 a pmf makes it negative (test_refuter).
        assert classify_tight(-matus_expr(1), gens4, Budget(2, 2)) == UNKNOWN

    def test_unverified_proof_is_not_tight(self, gens2, monkeypatch):
        one_wrong_multiplier(monkeypatch)
        assert classify_tight(-mutual_info(2, 1, 2), gens2, Budget()) == UNKNOWN


def one_wrong_multiplier(monkeypatch):
    """Make `shannon.prove` add 1 to the first nonzero generator multiplier
    of each certificate it returns, which `verify` then rejects."""
    real = shannon.prove

    def wrong(c, gens, antecedents=()):
        cert = real(c, gens, antecedents)
        if cert is None:
            return None
        nu = list(cert.generator_multipliers)
        i = next(i for i, m in enumerate(nu) if m)
        nu[i] += 1
        return ProofCertificate(cert.target, cert.antecedent_multipliers, tuple(nu))

    monkeypatch.setattr(shannon, "prove", wrong)


class TestJointSlack:
    def test_conditional_antecedents_witness(self, gens3):
        a1 = parse_expr("H(XYZ) + H(X) - 2*H(XY)", XYZ)
        a2 = parse_expr("H(XYZ) + H(Y) - 2*H(YZ)", XYZ)
        w = joint_slack([a1, a2], Budget())
        assert w is not None and w.kind == "modular"
        assert w.weights == (F(2), F(0), F(1))
        h = modular_candidate(w.weights)
        assert as_rational(a1.eval(h)) == 1
        assert as_rational(a2.eval(h)) == 1

    def test_contradictory_pair(self, gens3):
        e = entropy_of(3, 1)
        assert joint_slack([e, -e], Budget()) is None

    def test_single_entropy(self, gens3):
        w = joint_slack([entropy_of(3, 1)], Budget())
        assert w.weights == (F(1), F(0), F(0))

    def test_provably_nonpositive_expression_skips_the_scan(self, monkeypatch):
        # -I(X;Y) <= 0 is elemental, so no candidate can make it positive
        def no_scan(*args):
            raise AssertionError("joint_slack scanned distributions")

        monkeypatch.setattr(shannon, "refute", no_scan)
        assert joint_slack([entropy_of(2, 1), -mutual_info(2, 1, 2)], Budget()) is None

    def test_unverified_proof_does_not_skip_the_scan(self, monkeypatch):
        one_wrong_multiplier(monkeypatch)
        scans = []

        def recording(*args):
            scans.append(args)
            return refute(*args)

        monkeypatch.setattr(shannon, "refute", recording)
        assert joint_slack([entropy_of(2, 1), -mutual_info(2, 1, 2)], Budget()) is None
        assert len(scans) == 1

    def test_distribution_fallback(self):
        # strictly positive only away from modular vectors: I(X;Y) > 0 needs
        # correlation, which no modular vector provides
        w = joint_slack([mutual_info(2, 1, 2)], Budget())
        assert w is not None and w.kind == "distribution"
        assert mutual_info(2, 1, 2).eval(w.distribution.entropic_vector()).sign() == 1
