"""Tests for the a-function, gamma, the asymptotic rings, cells, and Q-suite."""

import collections
import functools
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affschur import asymptotic
from affschur.affperm import AffPerm, ball, from_word, generator, identity, rho, rho_conjugate
from affschur.cli import main
from affschur.errors import BasisMismatch, UncertifiedAValue, UncertifiedBoundary
from affschur.asymptotic import (
    AValue,
    JElt,
    a_bounded,
    based_ring_checks,
    cell_preorder,
    certified_a,
    delta_cap,
    delta_small,
    dinv_schur,
    dinv_schur_colored,
    distinguished_involutions,
    gamma,
    gamma_expansion,
    gamma_mat,
    gamma_mat_expansion,
    hecke_sim_L,
    j_elt,
    j_identity_hecke,
    j_identity_schur,
    j_mul,
    lowest_cell,
    lusztig_phi_elt,
    lusztig_phi_hecke,
    lusztig_phi_schur,
    nu,
    q_suite,
)
from affschur.hecke import HeckeElt, h_expansion, h_mul, c_elt, t_to_c
from affschur.laurent import ONE, T, LaurentPoly
from affschur.parabolic import (
    Composition,
    PeriodicMatrix,
    compositions,
    enumerate_theta,
    matrix_of,
    plus_rep,
)
from affschur.schur import SchurElt, basis_convert, g_expansion, theta_elt, theta_mul

E2 = identity(2)
S0 = generator(2, 0)
S1 = generator(2, 1)
OMEGA = Composition(2, (1, 1))
TWO0 = Composition(2, (2, 0))


def test_a_examples():
    av = a_bounded(E2, 4)
    assert av.value == 0 and av.certified
    av = a_bounded(S0, 4)
    assert av.value == 1 and av.certified
    assert av.witness == (S0, S0)
    for k in (-2, 1, 3):
        av = a_bounded(rho(2, k), 4)
        assert av.value == 0 and av.certified


@functools.cache
def _a_by_pair_scan(z, radius):
    """The per-z scan the shared one replaced: every pair of the ball, x before
    y, against the r rho-conjugates of z, stopping at the ceiling."""
    _, zf = z.omega_split()
    r = z.r
    cap = min(nu(r), delta_cap(zf))
    conjugates = sorted({rho_conjugate(zf, b) for b in range(r)}, key=lambda w: w.sort_key)
    best, witness = 0, (identity(r), zf)
    for x, y in itertools.product(ball(r, radius), repeat=2):
        if best == cap:
            break
        if x.length + y.length < zf.length:
            continue
        exp = h_expansion(x, y)
        for zc in conjugates:
            h = exp.get(zc)
            if h is not None and h.degree() > best:
                best, witness = int(h.degree()), (x, y)
    return asymptotic.AValue(best, best == cap, witness, cap, radius)


A_QUERIES = (
    [(z, L) for L in range(1, 7) for z in ball(2, 6)]
    + [(z, L) for L in (4, 5) for z in ball(3, 4)]
    + [(z, 3) for z in ball(4, 3)]
)


@settings(max_examples=12, deadline=None, database=None)
@given(st.permutations(A_QUERIES))
def test_shared_scan_matches_pair_scan(queries):
    for table in (asymptotic._A_CACHE, asymptotic._SCANS, asymptotic._CERTIFIED):
        table.clear()
    for z, L in queries:
        assert a_bounded(z, L) == _a_by_pair_scan(z, L), (z, L)


def test_a_monotone_and_capped():
    for w in ball(2, 4):
        prev = -1
        for L in (1, 2, 3, 4):
            av = a_bounded(w, L)
            assert av.value >= prev
            assert av.value <= av.upper_bound
            prev = av.value


def test_delta_examples():
    assert delta_small(E2) == 0 and delta_cap(E2) == 0
    w = from_word(2, 0, [0, 1, 0])
    assert delta_small(w) == 0 and delta_cap(w) == 3
    assert delta_small(S0) == 0 and delta_cap(S0) == 1
    assert delta_cap(rho(2, 5)) == 0


def test_certified_a_widens_radius():
    z = from_word(2, 0, [0, 1] * 4)  # length 8; no degree-1 witness at radius 4
    assert not a_bounded(z, 4).certified
    av = certified_a(z, 4)
    assert av.certified and av.value == 1 and av.scan_radius > 4


def test_distinguished_involutions_r2():
    assert distinguished_involutions(2, 4) == (E2, S0, S1)
    for z in distinguished_involutions(2, 4):
        assert (z * z).is_identity()


def test_gamma_examples():
    assert gamma(S0, S0, S0) == 1
    assert gamma(S0, S1 * S0, S0) == 0
    D = matrix_of(TWO0, E2, TWO0)
    assert gamma_mat(D, D, D) == 1


def test_gamma_stable_under_larger_window():
    for L in (3, 4, 5):
        assert gamma(S0, S0, S0, L) == 1
        assert gamma(S0, S1 * S0, S0, L) == 0


def test_gamma_cell_constraints():
    # gamma_{x,y,z} != 0 forces matching descents and equal a-values
    for x in ball(2, 3):
        for y in ball(2, 3):
            for z, g in gamma_expansion(x, y, 4).items():
                ax, ay, az = (certified_a(w, 4).value for w in (x, y, z))
                assert ax == ay == az
                assert z.right_descents == y.right_descents
                assert z.left_descents == x.left_descents


def test_j_mul_hecke_examples():
    ts0 = j_elt(S0)
    assert j_mul(ts0, ts0) == ts0
    ident = j_identity_hecke(2, 4)
    assert sorted(w.window for w in ident.terms) == [(0, 3), (1, 2), (2, 1)]
    for w in ball(2, 4):
        tw = j_elt(w)
        assert j_mul(ident, tw, 4) == tw
        assert j_mul(tw, ident, 4) == tw


def test_j_ring_associativity():
    elems = [j_elt(w) for w in ball(2, 3)]
    for a in elems:
        for b in elems:
            ab = j_mul(a, b)
            for c in elems[:4]:
                assert j_mul(ab, c) == j_mul(a, j_mul(b, c))


def test_j11_group_ring():
    # J(1,1) is the group ring of Z: t_{A_j} t_{A_k} = t_{A_{j+k-1}}
    def single(j):
        return PeriodicMatrix(1, ((1, j, 1),))

    for j in range(-2, 4):
        for k in range(-2, 4):
            prod = j_mul(j_elt(single(j)), j_elt(single(k)), 2)
            assert prod == j_elt(single(j + k - 1)), (j, k)
    ident = j_identity_schur(1, 1, 2)
    assert ident == j_elt(single(1))


def test_j_schur_identity_window22():
    ident = j_identity_schur(2, 2, 4)
    assert len(ident.terms) == 5
    for A in enumerate_theta(2, 2, 3, (-1, 1)):
        ta = j_elt(A)
        assert j_mul(ident, ta, 4) == ta
        assert j_mul(ta, ident, 4) == ta


def test_dinv_schur_window():
    dd = dinv_schur(2, 2, 3, (-1, 1))
    assert len(dd) == 5
    assert all(A.ro == A.co for A in dd)
    assert all(A.transpose() == A for A in dd)
    # the colored version agrees, color by color
    per_color = [D for lam in compositions(2, 2) for D in dinv_schur_colored(2, 2, lam, 4)]
    assert sorted(per_color, key=lambda A: A.sort_key) == sorted(dd, key=lambda A: A.sort_key)


def test_lusztig_phi_hecke():
    # phi(C_e) collects exactly the distinguished involutions with coefficient 1
    img = lusztig_phi_hecke(E2, 4)
    assert img == j_identity_hecke(2, 4)
    # multiplicativity on C-basis products within the window
    for x in ball(2, 2):
        for y in ball(2, 2):
            prod = t_to_c(h_mul(c_elt(x), c_elt(y)))
            lhs = lusztig_phi_elt(prod, 4)
            rhs_terms = {}
            a_img = lusztig_phi_hecke(x, 4)
            b_img = lusztig_phi_hecke(y, 4)
            for u, cu in a_img.terms.items():
                for v, cv in b_img.terms.items():
                    for z, g in gamma_expansion(u, v, 4).items():
                        rhs_terms[z] = rhs_terms.get(z, ONE - ONE) + cu * cv * g
            rhs = j_elt(E2).__class__("J_W", 2, 0, rhs_terms)
            assert lhs == rhs, (x, y)


def test_lusztig_phi_schur_on_diagonals():
    for lam in compositions(2, 2):
        diag = PeriodicMatrix.diagonal(lam)
        img = lusztig_phi_schur(diag, 4)
        expected = {D: ONE for D in dinv_schur_colored(2, 2, lam, 4)}
        assert dict(img.terms) == expected


def test_lusztig_phi_schur_multiplicative_window():
    win = enumerate_theta(2, 2, 2, (-1, 1))
    pairs = [(A, B) for A in win for B in win if A.co == B.ro][:40]
    for A, B in pairs:
        prod = theta_mul(theta_elt(A), theta_elt(B))
        lhs = lusztig_phi_elt(prod, 4)
        ja, jb = lusztig_phi_schur(A, 4), lusztig_phi_schur(B, 4)
        acc = {}
        for u, cu in ja.terms.items():
            for v, cv in jb.terms.items():
                for z, g in gamma_mat_expansion(u, v, 4).items():
                    acc[z] = acc.get(z, ONE - ONE) + cu * cv * g
        rhs = lhs.__class__("J_Schur", 2, 2, acc)
        assert lhs == rhs, (A, B)


def test_hecke_cells_r2():
    report = cell_preorder(ball(2, 4), "L")
    nonunit = [i for i, w in enumerate(report.elements) if not w.is_identity()]
    cells = [c for c in report.cells if set(c) <= set(nonunit)]
    assert len(cells) == 2
    # the identity sits alone
    assert [i for i, w in enumerate(report.elements) if w.is_identity()] in report.cells
    # cells refine right-descent sets
    for c in cells:
        descents = {report.elements[i].right_descents for i in c}
        assert len(descents) == 1


def test_hecke_cell_criterion_matches_scc():
    # 2.4(a): y ~L w iff t_y t_{w^{-1}} != 0, against the SCC partition
    elems = ball(2, 4)
    report = cell_preorder(elems, "L")
    cls = {}
    for ci, cell in enumerate(report.cells):
        for i in cell:
            cls[report.elements[i]] = ci
    for y in elems:
        for w in elems:
            assert hecke_sim_L(y, w, 4) == (cls[y] == cls[w]), (y, w)
    # 2.4(b): y ~LR w iff t_y t_x t_w != 0 for some x, against the LR SCCs
    lr = cell_preorder(elems, "LR")
    lr_cls = {}
    for ci, cell in enumerate(lr.cells):
        for i in cell:
            lr_cls[lr.elements[i]] = ci
    for y in elems:
        for w in elems:
            witness = any(
                not j_mul(j_mul(j_elt(y), j_elt(x), 4), j_elt(w), 4).is_zero()
                for x in elems
            )
            assert witness == (lr_cls[y] == lr_cls[w]), (y, w)


def test_j_schur_associativity():
    win = enumerate_theta(2, 2, 2, (-1, 1))
    elems = [j_elt(A) for A in win[:10]]
    for a in elems:
        for b in elems:
            ab = j_mul(a, b, 4)
            for c in elems[:5]:
                assert j_mul(ab, c, 4) == j_mul(a, j_mul(b, c, 4), 4)


def test_lowest_cell_counts():
    rep22 = lowest_cell(2, 2, 3, (-1, 1))
    assert rep22.extra["left_cell_count"] == 4
    rep12 = lowest_cell(1, 2, 3, (-1, 1))
    assert rep12.extra["left_cell_count"] == 1
    assert PeriodicMatrix.diagonal(OMEGA) not in rep22.elements  # a = 0 there
    # n^r left cells at n = 3 and 4 too
    rep32 = lowest_cell(3, 2, 4)
    assert (rep32.extra["left_cell_count"], rep32.extra["member_count"]) == (9, 810)
    rep42 = lowest_cell(4, 2, 2, (-1, 1))
    assert (rep42.extra["left_cell_count"], rep42.extra["member_count"]) == (16, 768)


def _flipped_r_edges(elements) -> list[tuple[int, int]]:
    """The R edges by the flip construction: the L edges of the inverses (or
    transposes), flipped back; an oracle independent of the R side."""
    elements = sorted(set(elements), key=lambda k: k.sort_key)
    index = {k: i for i, k in enumerate(elements)}
    flip = (lambda w: w.inverse) if isinstance(elements[0], AffPerm) else (lambda A: A.transpose())
    rep = cell_preorder([flip(k) for k in elements], "L")
    return sorted(
        (index[flip(rep.elements[a])], index[flip(rep.elements[b])]) for a, b in rep.edges
    )


@pytest.mark.parametrize("elements", [
    ball(2, 4),
    ball(3, 3),
    enumerate_theta(2, 2, 2, (0, 1)),  # not transpose-closed
    enumerate_theta(3, 2, 2, (-1, 0)),  # not transpose-closed
], ids=["ball24", "ball33", "win222", "win322"])
def test_right_preorder_matches_the_flipped_left_preorder(elements):
    left = cell_preorder(elements, "L")
    right = cell_preorder(elements, "R")
    assert right.edges == _flipped_r_edges(elements)
    assert cell_preorder(elements, "LR").edges == sorted(set(left.edges) | set(right.edges))


def _closure_by_search(n, edges) -> set:
    """The reflexive-transitive closure as index pairs, by a depth-first search
    from each node: the oracle for the bitset closure."""
    succ = {i: set() for i in range(n)}
    for a, b in edges:
        succ[a].add(b)
    closed = set()
    for start in range(n):
        seen, stack = {start}, [start]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closed.update((start, t) for t in seen)
    return closed


@st.composite
def digraphs(draw):
    """(n, edges) with n <= 12; self-loops, cycles and isolated nodes included."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    return n, draw(st.sets(st.tuples(node, node), max_size=3 * n))


@settings(max_examples=300, deadline=None, database=None)
@given(digraphs())
def test_reach_and_cells_match_the_search_closure(graph):
    n, edges = graph
    reach = asymptotic._reach(n, edges)
    closed = _closure_by_search(n, edges)
    assert {(i, j) for i in range(n) for j in range(n) if reach[i] >> j & 1} == closed
    # the strongly-connected components, by a scan of the closure for mutual pairs
    sccs = {tuple(j for j in range(n) if (i, j) in closed and (j, i) in closed) for i in range(n)}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(asymptotic, "_one_step_edges", lambda elements, side: edges)
        report = cell_preorder(ball(2, 6)[:n], "L")
    assert report.cells == sorted(map(list, sccs))


def test_lusztig_phi_elt_is_the_per_key_sum():
    h = HeckeElt(2, "C", {E2: ONE, S0: T + 1, S1 * S0: LaurentPoly(3)})
    expected = JElt("J_W", 2)
    for w, c in h.terms.items():
        expected = expected + lusztig_phi_hecke(w, 4).scale(c)
    assert lusztig_phi_elt(h, 4) == expected and not expected.is_zero()
    mats = enumerate_theta(2, 2, 2, (-1, 1))[:6]
    a = SchurElt(2, 2, "theta", {A: LaurentPoly({i - 2: i + 1}) for i, A in enumerate(mats)})
    expected = JElt("J_Schur", 2, 2)
    for A, c in a.terms.items():
        expected = expected + lusztig_phi_schur(A, 4).scale(c)
    assert lusztig_phi_elt(a, 4) == expected and not expected.is_zero()
    with pytest.raises(BasisMismatch):
        lusztig_phi_elt(HeckeElt(2, "T", {S0: ONE}), 4)
    with pytest.raises(BasisMismatch):
        lusztig_phi_elt(SchurElt(2, 2, "phi", {mats[0]: ONE}), 4)


@pytest.mark.parametrize("phi,key", [
    (lusztig_phi_hecke, S0),
    (lusztig_phi_schur, PeriodicMatrix.diagonal(TWO0)),
], ids=["hecke", "schur"])
def test_lusztig_maps_refuse_uncertified_terms(monkeypatch, phi, key):
    exact = certified_a

    def uncertified(z, length_bound):
        av = exact(z, length_bound)
        return AValue(av.value, False, av.witness, av.upper_bound, av.scan_radius)

    monkeypatch.setattr(asymptotic, "certified_a", uncertified)
    with pytest.raises(UncertifiedAValue):
        phi(key, 4)


def test_lemma55_equivalences_window22():
    # the ~L and ~R predicates that Q8-Q10 and Q13 run
    w = asymptotic._Window(2, 2, 2, (-1, 1))
    win = enumerate_theta(2, 2, 2, (-1, 1))
    for A in win:
        for B in win:
            lhs = w.sim_L(A, B)
            rhs = A.co == B.co and hecke_sim_L(plus_rep(A), plus_rep(B), 4)
            assert lhs == rhs, (A, B)
            # the right-handed statement is the transpose of the left-handed one
            rhs_r = A.ro == B.ro and hecke_sim_L(
                plus_rep(A).inverse, plus_rep(B).inverse, 4
            )
            assert w.sim_R(A, B) == rhs_r, (A, B)


def test_based_ring_checks_window22():
    report = based_ring_checks(2, 2, 2, (-1, 1))
    assert report["ok"], report["failures"]


# (window, q15_cap) -> (window size, checked count per property, Q15's
# (checked, tuples_enumerated, held without hypothesis)); nothing is skipped
Q_SUITE_COUNTS = {
    ((1, 2, 3, (-1, 1)), 600): (
        4,
        dict(Q1=4, Q2=4, Q3=4, Q4=16, Q5=4, Q6=1, Q7=26, Q8=26, Q9=12, Q10=12, Q11=12, Q13=1,
             Q14=4),
        (81, 81, 0),
    ),
    ((2, 2, 2, (-1, 1)), 600): (
        51,
        dict(Q1=51, Q2=51, Q3=51, Q4=2457, Q5=51, Q6=5, Q7=1407, Q8=757, Q9=534, Q10=534,
             Q11=2262, Q13=5, Q14=51),
        (600, 131625, 60),
    ),
    ((2, 2, 3, (-1, 1)), 120): (
        73,
        dict(Q1=73, Q2=73, Q3=73, Q4=5119, Q5=73, Q6=5, Q7=3593, Q8=1937, Q9=1164, Q10=1164,
             Q11=4836, Q13=5, Q14=73),
        (120, 131625, 20),
    ),
}


@pytest.mark.parametrize(
    "window,cap", list(Q_SUITE_COUNTS), ids=["n1-r2-L3", "n2-r2-L2", "n2-r2-L3-cap120"]
)
def test_q_suite_small_window(window, cap):
    out = q_suite(*window, q15_cap=cap)
    assert out["ok"], out["counterexamples"]
    assert out["results"]["Q12"] == "absent-in-paper"
    assert all(
        out["results"][f"Q{i}"] == "pass" for i in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15)
    ), out["results"]
    size, checked, (q15_checked, enumerated, held) = Q_SUITE_COUNTS[window, cap]
    assert _q15_tuples_by_walk(*window) == enumerated
    expected = {"window_size": size, "uncertified": 0}
    expected.update({q: {"checked": c, "skipped": 0} for q, c in checked.items()})
    expected["Q15"] = {
        "checked": q15_checked,
        "skipped": 0,
        "tuples_enumerated": enumerated,
        "without_hypothesis": {"held": held, "failed": 0},
    }
    assert out["details"] == expected


def test_q_suite_skips_what_the_window_cannot_decide(capsys):
    # 2 of the 4 matrices of this (2,3) window have uncertified a-values, so
    # some a-values and products are undecidable: those are skips, not failures
    out = q_suite(2, 3, 2, (0, 0))
    assert out["details"]["uncertified"] == 2
    assert out["ok"] and out["failures"] == [] and "fail" not in out["results"].values()
    counts = {q: (d["checked"], d["skipped"]) for q, d in out["details"].items() if q[0] == "Q"}
    assert counts == dict(
        Q1=(2, 2), Q2=(2, 0), Q3=(2, 0), Q4=(4, 12), Q5=(2, 0), Q6=(2, 0), Q7=(2, 0), Q8=(2, 0),
        Q9=(0, 0), Q10=(0, 0), Q11=(0, 2), Q13=(2, 0), Q14=(2, 0), Q15=(2, 0),
    )
    assert [q for q, s in out["results"].items() if s == "skipped"] == ["Q9", "Q10", "Q11"]
    assert main(["qsuite", "--n", "2", "--r", "3", "--L", "2", "--omega-window=0:0"]) == 0
    assert json.loads(capsys.readouterr().out) == out


def test_q_suite_reports_counterexamples(monkeypatch, capsys):
    # a fault in the gamma-coefficients: every gamma_{A,A,C} is one too large
    exact = gamma_mat_expansion

    def faulty(A, B, length_bound=4):
        gm = exact(A, B, length_bound)
        return {C: g + 1 for C, g in gm.items()} if A == B else gm

    monkeypatch.setattr(asymptotic, "gamma_mat_expansion", faulty)
    out = q_suite(1, 2, 3, (-1, 1))
    failed = [q for q, s in out["results"].items() if s == "fail"]
    assert len(failed) >= 2 and {"Q5", "Q7"} <= set(failed)
    assert out["ok"] is False and out["failures"] == sorted(failed)
    assert sorted(out["counterexamples"]) == out["failures"]
    assert all(out["counterexamples"][q] for q in failed)
    pinned = {"A": {"n": 1, "r": 2, "entries": [[1, 0, 1], [1, 2, 1]]},
              "D": {"n": 1, "r": 2, "entries": [[1, 1, 2]]}, "gamma": 2}
    assert pinned in out["counterexamples"]["Q5"]
    code = main(["qsuite", "--n", "1", "--r", "2", "--L", "3", "--omega-window=-1:1"])
    assert code == 3
    assert json.loads(capsys.readouterr().out) == out


def _q15_tuples_by_walk(n, r, length_bound, omega_window):
    """Q15's on-hypothesis tuple count, by walking every (A, A', B, C)."""
    w = asymptotic._Window(n, r, length_bound, omega_window)
    sub = [A for A in w.certified if plus_rep(A).length <= asymptotic._Q15_SUB_LENGTH]
    a = {A: w.aval[A].value for A in sub}
    return sum(
        1
        for C in sub
        for Ap in sub
        if Ap.ro == C.co
        for A in sub
        if A.co == C.ro
        for B in sub
        if (B.ro, B.co) == (A.ro, Ap.co) and a[B] == a[C]
    )


@st.composite
def q15_windows(draw):
    """(n, 2, L, omega_window) with n <= 3 and L <= 3; the walk is quartic in
    the window, so n = 3 keeps to rho-power 0 (70,146 tuples at L = 2)."""
    n, L = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if n == 3:
        return n, 2, L, (0, 0)
    lo = draw(st.integers(-1, 1))
    return n, 2, L, (lo, lo + draw(st.integers(0, 1)))


@settings(max_examples=10, deadline=None, database=None)
@given(q15_windows())
@example((3, 2, 2, (0, 0)))
@example((2, 2, 2, (-1, 1)))
def test_q15_count_matches_the_walk(window):
    assert asymptotic._q15_count(asymptotic._Window(*window)) == _q15_tuples_by_walk(*window)


@pytest.mark.parametrize("window", [(1, 2, 3, (-1, 1)), (2, 2, 2, (-1, 1))])
def test_gamma_mat_expansion_matches_gamma_per_term(window):
    mats = asymptotic._Window(*window).mats
    for A in mats:
        for B in mats:
            try:
                expected = {}
                for C, _ in g_expansion(A, B):
                    g = gamma(plus_rep(A), plus_rep(B), plus_rep(C), window[2])
                    if g:
                        expected[C] = g
            except UncertifiedAValue:
                with pytest.raises(UncertifiedAValue):
                    gamma_mat_expansion(A, B, window[2])
                continue
            assert list(gamma_mat_expansion(A, B, window[2]).items()) == list(expected.items())


def test_window_computes_gamma_once_per_pair(monkeypatch):
    calls = collections.Counter()

    def counting(A, B, length_bound=4):
        calls[A, B] += 1
        return gamma_mat_expansion(A, B, length_bound)

    monkeypatch.setattr(asymptotic, "gamma_mat_expansion", counting)
    for run in (q_suite, based_ring_checks):
        calls.clear()
        run(2, 2, 2, (-1, 1))
        assert calls and max(calls.values()) == 1, run.__name__


def test_cell_preorder_multiplies_only_composable_pairs(monkeypatch):
    pairs = []

    def recording(A, B):
        pairs.append((A, B))
        return g_expansion(A, B)

    monkeypatch.setattr(asymptotic, "g_expansion", recording)
    cell_preorder(enumerate_theta(2, 2, 2, (-1, 1)), "LR")
    assert pairs and all(A.co == B.ro for A, B in pairs)


def test_gamma_refuses_uncertifiable_values():
    # at r = 3, a(s0 s1) = 1 sits strictly below both ceilings (nu = 3,
    # Delta = 2), so no scan radius can ever certify it
    s0, s1 = generator(3, 0), generator(3, 1)
    z = s0 * s1
    assert not certified_a(z, 5).certified
    with pytest.raises(UncertifiedAValue):
        gamma(s0, z, z, 3)
    # J_W refuses such a product term with the same class as gamma and J_Schur
    with pytest.raises(UncertifiedAValue):
        gamma_expansion(s0, z, 3)
    with pytest.raises(UncertifiedAValue):
        j_mul(j_elt(s0), j_elt(z), 3)
    # and so do Lusztig's phi and the Schur Phi, on a term of uncertified a-value
    with pytest.raises(UncertifiedAValue):
        lusztig_phi_hecke(z, 1)
    with pytest.raises(UncertifiedAValue):
        lusztig_phi_schur(PeriodicMatrix(2, ((1, 1, 1), (1, 2, 1), (2, 2, 1))), 1)
    with pytest.raises(UncertifiedBoundary):
        distinguished_involutions(3, 2)
    # at radius 1 the r = 3 ball still certifies completely
    assert len(distinguished_involutions(3, 1)) == 4


def test_q14_explicit_witness():
    # A ~LR A^t via the chain through A's distinguished involution
    from affschur.affperm import from_word

    A = matrix_of(OMEGA, from_word(2, 0, [0, 1]), OMEGA)
    gm = gamma_mat_expansion(A.transpose(), A, 4)
    ds = [D for D in gm if D.ro == D.co]
    assert len(ds) >= 1
    D = ds[0]
    prod = j_mul(j_mul(j_elt(A), j_elt(D), 4), j_elt(A.transpose()), 4)
    assert not prod.is_zero()
