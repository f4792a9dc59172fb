"""Randomized invariant suites over a corpus of generated friezes.

All generators are seeded, so failures replay deterministically.  Each suite
mirrors one of the structural facts the library is built on: the product
rule for the penultimate row, the local mesh/transvection/backward-row
relations, section reconstruction round trips, the sign-flip and scaling
transformation laws, and positivity propagation from positive sections.
"""

import random
from fractions import Fraction as F

from cfrieze import (
    DOWN_RIGHT,
    Frieze,
    FriezeParams,
    SectionValues,
    classify,
    extract_section,
    flip_sign_seed,
    flip_sign_value_check,
    gamma,
    is_positive,
    oblique_section,
    positivity_from_section,
    reconstruct,
    scale_seed,
    sqrt_exact,
)
from conftest import (
    random_frieze,
    random_nonzero_section_values,
    random_repetitive_frieze,
    random_section,
)


def _corpus(seed: int, count: int, **kwargs):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        frieze = random_frieze(rng, **kwargs)
        if frieze is not None:
            out.append(frieze)
    return rng, out


class TestPenultimateRowProduct:
    def test_st_product_on_corpus(self):
        _, friezes = _corpus(101, 200, max_n=6)
        for f in friezes:
            s, t = f.s_t()
            assert s != 0 and t != 0
            assert s * t == (-f.c) ** (f.n + 1)

    def test_row_alternates_s_t(self):
        _, friezes = _corpus(102, 30, max_n=5)
        for f in friezes:
            for i in range(-2, 4):
                expected = f.s if i % 2 == 0 else f.t
                assert f.value(i, i + f.n) == expected

    def test_boundary_rows(self):
        _, friezes = _corpus(103, 20, max_n=5)
        for f in friezes:
            for i in range(-2, 5):
                assert f.value(i, i - 2) == 0
                assert f.value(i, i - 1) == 1
                assert f.value(i, i + f.n + 1) == 0


class TestLocalRelations:
    def test_windows_of_forty_points(self):
        # mesh + transvection + backward-row expansion, exact, per frieze
        _, friezes = _corpus(104, 200, max_n=6)
        for f in friezes:
            anchors = max(4, -(-40 // (f.n + 4)))  # at least 40 band points
            assert f.check_local_relations(0, anchors) is None


class TestDiagonalKernel:
    """Frieze.diagonal sweeps a whole diagonal at once; every entry must
    match the per-cell evaluation by the tail recurrence and by the
    determinant oracle, 40 anchors beyond the seed on either side."""

    @staticmethod
    def _friezes():
        from cfrieze import seed_from_free

        _, friezes = _corpus(110, 8, max_n=5, rational_c=True)
        for c, free, base in (
            (F(3, 2), [1, 2, -1, 3], 1),          # n = 3, non-periodic
            (F(3, 2), [2, 1, 1, -2, 1, 1], -2),   # n = 5
            (F(-5, 3), [1, 3, 2], 0),             # n = 2, periodic
            (F(-5, 3), [2, -1, 1, 3], 3),         # n = 3
        ):
            params = FriezeParams(c, len(free) - 1)
            friezes.append(Frieze(seed_from_free(params, free, base)))
        return friezes

    def test_diagonal_matches_per_cell_continuants(self):
        from cfrieze import NON_PERIODIC, continuant_det, continuant_eval

        friezes = self._friezes()
        kinds = {f.period_report().kind == NON_PERIODIC for f in friezes}
        assert kinds == {True, False}
        for f in friezes:
            n, base = f.n, f.base_index
            for i in range(base - 40, base + n + 3 + 40):
                diag = f.diagonal(i)
                xs = [f.first_row(m) for m in range(i, i + n + 1)]
                assert len(diag) == n + 4
                assert diag[0] == 0 and diag[-1] == 0
                for k in range(0, n + 2):
                    window = xs[:k]
                    assert diag[k + 1] == continuant_eval(f.c, window)
                    assert diag[k + 1] == continuant_det(f.c, window)

    def test_period_report_is_computed_once(self):
        for f in self._friezes():
            report = f.period_report()
            assert f.period_report() is report


class TestClosedFormFirstRow:
    """Frieze.first_row is a closed form in the seed; it must agree with the
    step-by-step endpoint solve three periods out on either side, and no
    query may change the frieze."""

    @staticmethod
    def _pinned(rng, n, c, root, base):
        """A frieze whose first row-(n+1) value is +-root^(n+1) with
        c = +-root^2; the other one, (-c)^(n+1) divided by it, then has the
        same absolute value, so s = t or s = -t."""
        from cfrieze import DegenerateSeed, continuant_eval, seed_from_free

        head = [F(rng.randint(-4, 4)) for _ in range(n)]
        pen = continuant_eval(c, head)
        if pen == 0:
            return None
        target = rng.choice([1, -1]) * root ** (n + 1)
        last = (target - c * continuant_eval(c, head[:-1])) / pen
        try:
            return Frieze(seed_from_free(FriezeParams(c, n), head + [last], base))
        except DegenerateSeed:
            return None

    def _friezes(self):
        from cfrieze import DegenerateSeed, seed_from_free

        rng = random.Random(112)
        out = []
        for n in range(1, 9):
            for base in (-3, 2):
                root = rng.choice([F(1), F(2), F(3, 2), F(2, 3)])
                for c in (-root * root, root * root):
                    f = self._pinned(rng, n, c, root, base)
                    if f is not None:
                        out.append(f)
                for den in (1, 2, 3):
                    params = FriezeParams(F(rng.choice([-5, -3, -2, 2, 3, 4]), den), n)
                    free = [F(rng.randint(-4, 4)) for _ in range(n + 1)]
                    try:
                        out.append(Frieze(seed_from_free(params, free, base)))
                    except DegenerateSeed:
                        pass
        return out

    @staticmethod
    def _walk(f, reach):
        """x_i for i within reach of the seed, by repeated endpoint solves:
        forward on the row, backward on the reversed row (continuants are
        symmetric under reversal, so the reversed row is admissible too)."""
        from cfrieze import seed_from_free

        n, base = f.n, f.base_index
        row, rev = list(f.seed.values), list(reversed(f.seed.values))
        for _ in range(reach):
            row.append(seed_from_free(f.params, row[-(n + 1):]).values[n + 1])
            rev.append(seed_from_free(f.params, rev[-(n + 1):]).values[n + 1])
        walked = {base + m: v for m, v in enumerate(row)}
        walked.update({base + n + 2 - m: v for m, v in enumerate(rev)})
        return walked

    def test_matches_the_step_walk(self):
        from cfrieze import NON_PERIODIC, ODD_ROWS_ANTIPERIODIC, PERIODIC

        friezes = self._friezes()
        assert {f.period_report().kind for f in friezes} == \
            {PERIODIC, ODD_ROWS_ANTIPERIODIC, NON_PERIODIC}
        assert {(f.n, f.base_index % 2) for f in friezes} == \
            {(n, p) for n in range(1, 9) for p in (0, 1)}
        assert any(f.c.denominator != 1 for f in friezes)
        for f in friezes:
            for i, v in self._walk(f, 3 * (f.n + 3)).items():
                assert f.first_row(i) == v, (f.seed, i)

    def test_queries_leave_the_frieze_unchanged(self):
        import copy

        for f in self._friezes()[::3]:
            before = copy.deepcopy(vars(f))
            for i in (-10**3, -37, 41, 10**3 + 1):
                f.first_row(i)
                f.diagonal(i)
                f.value(i, i + f.n)
            assert vars(f) == before


class TestPseudoPeriodicity:
    def test_even_rows_shift_invariant(self):
        _, friezes = _corpus(105, 40, max_n=6)
        for f in friezes:
            n = f.n
            for k in range(0, n + 2, 2):
                for i in range(-2, 4):
                    assert f.value(i, i + k - 1) == \
                        f.value(i + n + 3, i + k + n + 2)

    def test_odd_rows_rescale(self):
        _, friezes = _corpus(106, 40, max_n=6)
        for f in friezes:
            n = f.n
            s, t = f.s_t()
            even_factor = (-f.c) ** (n + 1) / (t * t)
            odd_factor = (-f.c) ** (n + 1) / (s * s)
            for k in range(1, n + 2, 2):
                for i in range(-2, 3):
                    a = 2 * i
                    assert f.value(a, a + k - 1) == \
                        even_factor * f.value(a + n + 3, a + k + n + 2)
                    b = 2 * i + 1
                    assert f.value(b, b + k - 1) == \
                        odd_factor * f.value(b + n + 3, b + k + n + 2)

    def test_even_order_periodic_all_rows(self):
        rng = random.Random(107)
        done = 0
        while done < 25:
            f = random_frieze(rng, max_n=6)
            if f is None or f.n % 2 == 1:
                continue
            p = 2 * f.n + 6
            for k in range(-1, f.n + 3):
                for i in range(-2, 4):
                    assert f.value(i, i + k - 1) == f.value(i + p, i + k + p - 1)
            done += 1

    def test_extension_agrees_with_scaling_prediction(self):
        _, friezes = _corpus(108, 30, max_n=6)
        for f in friezes:
            n = f.n
            s, t = f.s_t()
            for i in range(-2, 4):
                factor = (-f.c) ** (n + 1) / (t * t if i % 2 == 0 else s * s)
                assert f.first_row(i) == factor * f.first_row(i + n + 3)


class TestReconstructionRoundTrip:
    def test_random_sections(self):
        rng = random.Random(109)
        done = 0
        while done < 40:
            f = random_frieze(rng, max_n=5)
            if f is None:
                continue
            sv = random_nonzero_section_values(rng, f)
            if sv is None:
                continue
            rebuilt = reconstruct(f.params, sv)
            for i in range(-3, f.n + 6):
                for k in range(-1, f.n + 3):
                    assert rebuilt.value(i, i + k - 1) == f.value(i, i + k - 1)
            done += 1

    def test_oblique_sections_both_orientations(self):
        rng = random.Random(110)
        done = 0
        while done < 30:
            f = random_frieze(rng, max_n=5)
            if f is None:
                continue
            for orientation in (DOWN_RIGHT, "up-right"):
                anchor = rng.randint(-3, 3)
                sv = extract_section(f, oblique_section(f.n, anchor, orientation))
                if any(v == 0 for v in sv.values[1:f.n + 3]):
                    continue
                rebuilt = reconstruct(f.params, sv)
                for i in range(-2, f.n + 4):
                    assert rebuilt.first_row(i) == f.first_row(i)
                done += 1


class TestTransformationLaws:
    def test_flip_sign_table(self):
        _, friezes = _corpus(111, 40, max_n=6)
        for f in friezes:
            flipped = Frieze(flip_sign_seed(f.seed), validate=False)
            assert flip_sign_value_check(f, flipped, -3, 6) is None

    def test_flip_involution(self):
        _, friezes = _corpus(112, 25, max_n=6)
        for f in friezes:
            assert flip_sign_seed(flip_sign_seed(f.seed)) == f.seed

    def test_scaling_law(self):
        rng, friezes = _corpus(113, 40, max_n=5)
        for f in friezes:
            d = F(rng.choice([v for v in range(-4, 5) if v]), rng.choice([1, 2]))
            scaled = Frieze(scale_seed(f.seed, d), validate=False)
            for i in range(-2, f.n + 4):
                for k in range(-1, f.n + 3):
                    assert scaled.value(i, i + k - 1) == \
                        d ** k * f.value(i, i + k - 1)

    def test_integer_scale_preserves_integrality(self):
        rng = random.Random(114)
        done = 0
        while done < 15:
            f = random_frieze(rng, max_n=4)
            if f is None:
                continue
            window = f.first_row_window(-2, f.n + 4)
            if any(x.denominator != 1 for x in window):
                continue
            d = rng.choice([2, 3, -2])
            scaled = Frieze(scale_seed(f.seed, d), validate=False)
            assert all(
                x.denominator == 1
                for x in scaled.first_row_window(-2, f.n + 4)
            )
            done += 1

    def test_gamma_images_are_induced(self):
        rng = random.Random(115)
        done = 0
        while done < 15:
            f = random_repetitive_frieze(rng)
            if f is None:
                continue
            lifted = Frieze(gamma(f.seed), validate=False)
            r = sqrt_exact(-f.c)
            assert lifted.s_t() == (r * f.s, r * f.s)
            assert classify(lifted).c_induced
            done += 1


class TestPositivityPropagation:
    def test_positive_sections_give_positive_friezes(self):
        rng = random.Random(116)
        done = 0
        while done < 30:
            n = rng.randint(1, 5)
            c = F(-rng.randint(1, 6), rng.choice([1, 2]))
            params = FriezeParams(c, n)
            section = random_section(rng, n)
            values = [F(0), F(1)]
            values += [F(rng.randint(1, 9)) for _ in range(n + 1)]
            values.append(F(0))
            sv = SectionValues(section, tuple(values))
            assert positivity_from_section(params, sv) is True
            done += 1

    def test_matches_direct_scan(self):
        rng = random.Random(117)
        done = 0
        while done < 10:
            n = rng.randint(1, 4)
            params = FriezeParams(F(-rng.randint(1, 5)), n)
            section = oblique_section(n, rng.randint(-2, 2), DOWN_RIGHT)
            values = (F(0), F(1)) + tuple(
                F(rng.randint(1, 8)) for _ in range(n + 1)
            ) + (F(0),)
            sv = SectionValues(section, values)
            f = reconstruct(params, sv)
            assert is_positive(f)
            done += 1


class TestIntegralityTheorem:
    """Equivalence of the two oblique-section conditions with integrality,
    for monotonic friezes with integer s and integer parameter."""

    @staticmethod
    def _conditions_hold(frieze, anchor):
        from cfrieze import (
            ZeroPivot,
            divisibility_condition,
            integrality_second_condition,
        )

        values = [frieze.value(anchor, anchor + l) for l in range(-2, frieze.n + 2)]
        try:
            if not divisibility_condition(frieze.c, values):
                return False
            return integrality_second_condition(frieze, anchor)[1]
        except ZeroPivot:
            return False

    def test_two_sided_equivalence(self):
        from cfrieze import ALL_INTEGER, is_integer_frieze

        rng = random.Random(118)
        seen_integer = seen_non_integer = 0
        while seen_integer < 8 or seen_non_integer < 8:
            f = random_repetitive_frieze(rng)
            if f is None or f.s.denominator != 1:
                continue
            period = f.period_report().period
            anchors = range(f.base_index, f.base_index + period)
            all_integer = is_integer_frieze(f).status == ALL_INTEGER
            if all_integer:
                seen_integer += 1
                # every oblique with nonzero pivots must satisfy both
                for a in anchors:
                    values = [f.value(a, a + l) for l in range(-1, f.n + 1)]
                    if all(v != 0 for v in values):
                        assert self._conditions_hold(f, a)
            else:
                seen_non_integer += 1
                # no oblique section can satisfy both conditions
                for a in anchors:
                    assert not self._conditions_hold(f, a)

    def test_first_row_remark(self):
        # monotonic with integer c: first row integer <=> all rows integer
        rng = random.Random(119)
        done = 0
        while done < 20:
            f = random_repetitive_frieze(rng)
            if f is None:
                continue
            period = f.period_report().period
            row1 = [f.first_row(i) for i in range(1, 1 + period)]
            all_rows = [
                f.value(i, i + k - 1)
                for i in range(1, 1 + period)
                for k in range(1, f.n + 2)
            ]
            assert all(x.denominator == 1 for x in row1) == \
                all(v.denominator == 1 for v in all_rows)
            done += 1

    def test_positive_integer_corollary(self):
        # c < 0, oblique section of positive integers, both conditions
        # => frieze of positive integers; the worked example fires it
        from cfrieze import ALL_INTEGER, is_integer_frieze

        params = FriezeParams(F(-4), 2)
        values = (F(0), F(1), F(1), F(2), F(8), F(0))
        sv = SectionValues(oblique_section(2, 1, DOWN_RIGHT), values)
        f = reconstruct(params, sv)
        assert self._conditions_hold(f, 1)
        assert is_integer_frieze(f).status == ALL_INTEGER
        assert is_positive(f)

        # and on random positive draws, whenever the hypotheses fire
        rng = random.Random(120)
        fired = 0
        for _ in range(150):
            n = rng.randint(1, 4)
            params = FriezeParams(F(-rng.choice([1, 4])), n)
            vals = (F(0), F(1)) + tuple(
                F(rng.randint(1, 9)) for _ in range(n + 1)
            ) + (F(0),)
            sv = SectionValues(oblique_section(n, 1, DOWN_RIGHT), vals)
            f = reconstruct(params, sv)
            s, t = f.s_t()
            if abs(s) != abs(t) or s.denominator != 1:
                continue
            if not self._conditions_hold(f, 1):
                continue
            fired += 1
            assert is_integer_frieze(f).status == ALL_INTEGER
            assert is_positive(f)
        assert fired > 0


class TestOrderLiftIntegrality:
    def test_integer_repetitive_seeds_lift_to_integer_friezes(self):
        # -c a perfect square and an integer repetitive seed give an
        # integer frieze one order up
        from cfrieze import ALL_INTEGER, is_integer_frieze

        rng = random.Random(121)
        done = 0
        while done < 10:
            f = random_repetitive_frieze(rng)
            if f is None:
                continue
            if any(v.denominator != 1 for v in f.seed.values):
                continue
            if is_integer_frieze(f).status != ALL_INTEGER:
                continue
            lifted = Frieze(gamma(f.seed), validate=False)
            assert is_integer_frieze(lifted).status == ALL_INTEGER
            done += 1


class TestReconstructionTotality:
    def test_any_nonzero_values_form_a_section_of_some_frieze(self):
        # the free data of an order-n frieze and of a section both have
        # dimension n+1, and the walk inverts the correspondence exactly,
        # so every nonzero assignment reconstructs consistently
        rng = random.Random(122)
        for _ in range(300):
            n = rng.randint(1, 5)
            c = F(rng.choice([v for v in range(-6, 7) if v]),
                  rng.choice([1, 2, 3]))
            params = FriezeParams(c, n)
            section = random_section(rng, n)
            values = [F(0), F(1)]
            values += [
                F(rng.choice([v for v in range(-9, 10) if v]),
                  rng.choice([1, 2, 3]))
                for _ in range(n + 1)
            ]
            values.append(F(0))
            sv = SectionValues(section, tuple(values))
            rebuilt = reconstruct(params, sv)
            assert extract_section(rebuilt, sv.section) == sv


class TestHypothesisFriezeLaws:
    """Small-scale hypothesis variants of the corpus suites."""

    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    small_rat = st.fractions(
        min_value=F(-6), max_value=F(6), max_denominator=3
    )

    @given(
        st.integers(1, 4),
        st.sampled_from([F(v) for v in (-4, -2, -1, 1, 2, 4)]),
        st.lists(st.integers(-4, 4), min_size=5, max_size=5),
        st.integers(-2, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_seed_completion_laws(self, n, c, raw_free, base):
        from cfrieze import DegenerateSeed, seed_from_free
        from hypothesis import assume

        params = FriezeParams(c, n)
        free = [F(v) for v in raw_free[: n + 1]]
        try:
            seed = seed_from_free(params, free, base)
        except DegenerateSeed:
            assume(False)
        f = Frieze(seed)
        s, t = f.s_t()
        assert s * t == (-c) ** (n + 1)
        assert f.check_local_relations(base - 2, base + 3) is None
