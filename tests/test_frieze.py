from fractions import Fraction as F

import pytest

from cfrieze import (
    DegenerateSeed,
    Frieze,
    FriezeParams,
    InvalidSeed,
    ODD_ROWS_ANTIPERIODIC,
    OutOfBand,
    PERIODIC,
    PolygonalSequence,
    ZeroParameter,
    continuant_det,
    frieze_from_dict,
    frieze_to_dict,
    seed_from_free,
    seed_validate,
)

# Order-2 frieze with c = 4 built from free values (2, -3, -1) at base 1.
# The full first-row cycle (period 10), computed by hand from the window
# relation P_4(x_{m-3}..x_m) = 0:
EX1_CYCLE = [
    F(2), F(-3), F(-1), F(4, 5), F(35, 8),
    F(-32, 25), F(75, 16), F(16, 25), F(-5, 4), F(-14, 5),
]


@pytest.fixture
def ex1():
    params = FriezeParams(F(4), 2)
    return Frieze(seed_from_free(params, [2, -3, -1], 1))


@pytest.fixture
def cc():
    # the classical all-positive pattern: c = -1, first row (1,2,2,1,3)
    params = FriezeParams(F(-1), 2)
    return Frieze(seed_from_free(params, [1, 2, 2], 1))


class TestSeedConstruction:
    def test_example_seed_completion(self, ex1):
        assert ex1.seed.values == (F(2), F(-3), F(-1), F(4, 5), F(35, 8))

    def test_cc_seed_completion(self, cc):
        assert cc.seed.values == (1, 2, 2, 1, 3)

    def test_valid_free_values_with_zero(self):
        seed = seed_from_free(FriezeParams(F(1), 1), [1, 0], 1)
        assert seed.values == (1, 0, -1, 0)

    def test_degenerate_free_values(self):
        with pytest.raises(DegenerateSeed):
            seed_from_free(FriezeParams(F(-1), 1), [1, 1], 1)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ZeroParameter):
            FriezeParams(F(0), 2)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            FriezeParams(F(1), 0)


class TestSeedValidate:
    def test_example_seed_ok(self):
        params = FriezeParams(F(4), 2)
        assert seed_validate(params, [F(2), F(-3), F(-1), F(4, 5), F(35, 8)]) == []

    def test_monotonic_example_ok(self):
        params = FriezeParams(F(-4), 2)
        assert seed_validate(params, [4, 3, 3, 4, F(5, 2)]) == []

    def test_all_ones_fails_with_residual(self):
        params = FriezeParams(F(-1), 2)
        violations = seed_validate(params, [1, 1, 1, 1, 1])
        assert violations
        assert violations[0].residual == -1  # P_4(1,1,1,1) with c = -1

    def test_invalid_seed_raises_on_construction(self):
        params = FriezeParams(F(-1), 2)
        seq = PolygonalSequence(params, 1, (1, 1, 1, 1, 1))
        with pytest.raises(InvalidSeed) as exc:
            Frieze(seq)
        assert exc.value.violations


class TestFirstRow:
    def test_forward_extension(self, ex1):
        assert ex1.first_row(6) == F(-32, 25)

    def test_backward_extension(self, ex1):
        assert ex1.first_row(0) == F(-14, 5)

    def test_full_cycle(self, ex1):
        for m, expected in enumerate(EX1_CYCLE):
            assert ex1.first_row(1 + m) == expected

    def test_periodic_wraparound(self, ex1):
        assert ex1.first_row(11) == 2
        assert ex1.first_row(1 - 10) == 2
        assert ex1.first_row(1 + 40) == 2

    def test_extension_windows_are_admissible(self, ex1):
        # independent oracle: the determinant route confirms P_4 = 0 on
        # every window of the extended row
        xs = ex1.first_row_window(-6, 12)
        for m in range(len(xs) - 3):
            assert continuant_det(ex1.c, xs[m:m + 4]) == 0

    def test_far_non_periodic_query(self):
        # n odd and |s| != |t|: no period, so x_{b+10^4} = seed[0] * (t/s)^q
        # with q = 10^4 / (n+3); the determinant oracle checks the windows
        f = Frieze(seed_from_free(FriezeParams(F(-2), 1), [1, 3], 0))
        s, t = f.s_t()
        assert abs(s) != abs(t)
        far = 10**4
        assert f.first_row(far) == f.seed.values[0] * (t / s) ** (far // 4)
        assert f.first_row(-far) == f.seed.values[0] * (s / t) ** (far // 4)
        xs = f.first_row_window(far - 3, far + 3)
        for m in range(len(xs) - 2):
            assert continuant_det(f.c, xs[m:m + 3]) == 0


class TestValue:
    def test_row_two_values(self, ex1):
        got = [ex1.value(i, i + 1) for i in range(1, 5)]
        assert got == [F(-2), F(7), F(16, 5), F(15, 2)]

    def test_rows_minus_one_zero(self, ex1):
        assert ex1.value(3, 1) == 0
        assert ex1.value(3, 2) == 1
        assert ex1.value(5, 8) == 0  # row n+2

    def test_row_three_alternates(self, ex1):
        for i in range(-2, 6):
            expected = F(-32, 5) if i % 2 == 0 else F(10)
            assert ex1.value(i, i + 2) == expected

    def test_row_three_products(self, ex1):
        assert ex1.value(0, 2) * ex1.value(1, 3) == F(-64)

    def test_out_of_band(self, ex1):
        with pytest.raises(OutOfBand):
            ex1.value(0, 4)
        with pytest.raises(OutOfBand):
            ex1.value(4, 1)


class TestST:
    def test_example_one(self, ex1):
        s, t = ex1.s_t()
        assert (s, t) == (F(-32, 5), F(10))
        assert s == ex1.value(0, 2) and t == ex1.value(1, 3)

    def test_monotonic_example(self):
        params = FriezeParams(F(-4), 2)
        f = Frieze(PolygonalSequence(params, 1, (4, 3, 3, 4, F(5, 2))))
        assert f.s_t() == (8, 8)

    def test_cc_frieze(self, cc):
        assert cc.s_t() == (1, 1)

    def test_product_rule(self, ex1, cc):
        for f in (ex1, cc):
            s, t = f.s_t()
            assert s * t == (-f.c) ** (f.n + 1)

    def test_anchored_at_even_indices(self, ex1):
        for i in (-2, 0, 2, 4):
            assert ex1.value(i, i + ex1.n) == ex1.s
            assert ex1.value(i + 1, i + 1 + ex1.n) == ex1.t


class TestLocalRelations:
    def test_example_window(self, ex1):
        assert ex1.check_local_relations(-5, 15) is None

    def test_cc_mesh_rule_is_unimodular(self, cc):
        # with c = -1 the mesh rule is f(b)f(c) - f(a)f(d) = 1
        for i in range(-3, 8):
            for m in range(0, cc.n + 2):
                j = i + m
                lhs = cc.value(i, j - 1) * cc.value(i + 1, j) \
                    - cc.value(i + 1, j - 1) * cc.value(i, j)
                assert lhs == 1

    def test_empty_range(self, ex1):
        assert ex1.check_local_relations(5, 4) is None


class TestPeriodReport:
    def test_example_one(self, ex1):
        rep = ex1.period_report()
        assert rep.kind == PERIODIC
        assert rep.period == 10
        assert rep.even_row_period == 5
        assert rep.odd_row_scaling_even_anchor == F(-16, 25)
        assert rep.odd_row_scaling_odd_anchor == F(-25, 16)

    def test_example_one_minimality(self, ex1):
        for d in (1, 2, 5):
            assert any(
                ex1.first_row(i + d) != ex1.first_row(i) for i in range(1, 11)
            )

    def test_cc_period_five(self, cc):
        rep = cc.period_report()
        assert rep.kind == PERIODIC
        assert rep.period == 5

    def test_scaling_formulas_predict_far_values(self, ex1):
        rep = ex1.period_report()
        n = ex1.n
        for i in (-2, 0, 2):
            assert ex1.first_row(i) == \
                rep.odd_row_scaling_even_anchor * ex1.first_row(i + n + 3)
        for i in (-1, 1, 3):
            assert ex1.first_row(i) == \
                rep.odd_row_scaling_odd_anchor * ex1.first_row(i + n + 3)

    def test_antiperiodic_kind(self):
        # c = 1, n = 4, first-row cycle (-4,1,-3,1,-3,2,-1) has s = -t
        params = FriezeParams(F(1), 4)
        f = Frieze(PolygonalSequence(params, 1, (-4, 1, -3, 1, -3, 2, -1)))
        rep = f.period_report()
        assert rep.kind == ODD_ROWS_ANTIPERIODIC
        assert rep.period == 7
        assert rep.s == -rep.t
        for i in range(1, 9):
            assert f.first_row(i + 7) == -f.first_row(i)
            assert f.value(i + 7, i + 8) == f.value(i, i + 1)  # even rows periodic


class TestDeterminedBySeed:
    def test_same_seed_same_values(self, ex1):
        params = FriezeParams(F(4), 2)
        twin = Frieze(PolygonalSequence(params, 1, ex1.seed.values))
        for i in range(-4, 8):
            for k in range(-1, 5):
                assert twin.value(i, i + k - 1) == ex1.value(i, i + k - 1)

    def test_shifted_seed_same_frieze(self, ex1):
        params = FriezeParams(F(4), 2)
        window = tuple(ex1.first_row_window(3, 7))
        shifted = Frieze(PolygonalSequence(params, 3, window))
        for i in range(-2, 12):
            assert shifted.first_row(i) == ex1.first_row(i)


class TestDescriptor:
    def test_roundtrip(self, ex1):
        data = frieze_to_dict(ex1)
        assert data == {
            "c": "4",
            "n": 2,
            "base_index": 1,
            "seed": ["2", "-3", "-1", "4/5", "35/8"],
        }
        clone = frieze_from_dict(data)
        assert clone.seed == ex1.seed

    def test_rejects_bad_seed(self):
        data = {"c": "-1", "n": 2, "base_index": 1,
                "seed": ["1", "1", "1", "1", "1"]}
        with pytest.raises(InvalidSeed):
            frieze_from_dict(data)

    def test_rejects_wrong_length(self):
        data = {"c": "-1", "n": 2, "base_index": 1, "seed": ["1", "2"]}
        with pytest.raises(InvalidSeed):
            frieze_from_dict(data)


class TestNonPeriodic:
    def test_odd_order_unequal_st_never_repeats(self):
        params = FriezeParams(F(-2), 1)
        f = Frieze(seed_from_free(params, [1, 3], 0))
        s, t = f.s_t()
        assert abs(s) != abs(t)
        rep = f.period_report()
        assert rep.kind == "non-periodic"
        assert rep.period is None
        # odd rows rescale exactly under a shift by n+3
        n = f.n
        for i in (-2, 0, 2):
            assert f.first_row(i) == \
                rep.odd_row_scaling_even_anchor * f.first_row(i + n + 3)


class TestFarQueries:
    def test_periodic_reduction_reaches_far_indices_cheaply(self, ex1):
        # period 10: indices thousands of steps away reduce into the window
        assert ex1.first_row(1 + 10 * 10**6) == ex1.first_row(1)
        assert ex1.first_row(4 - 10 * 10**6) == ex1.first_row(4)
        assert ex1.value(10**6 * 10, 10**6 * 10 + 2) == ex1.s

    def test_antiperiodic_reduction(self):
        params = FriezeParams(F(1), 4)
        f = Frieze(PolygonalSequence(params, 1, (-4, 1, -3, 1, -3, 2, -1)))
        assert f.first_row(1 + 7 * 1001) == -f.first_row(1)
        assert f.first_row(1 + 14 * 1000) == f.first_row(1)

    def test_non_periodic_growth_stays_exact(self):
        f = Frieze(seed_from_free(FriezeParams(F(-2), 1), [1, 3], 0))
        xs = f.first_row_window(40, 44)
        # windows stay admissible arbitrarily far out (determinant oracle)
        for m in range(len(xs) - 2):
            assert continuant_det(f.c, xs[m:m + 3]) == 0
        # and the values really grow: no periodicity is hiding
        assert max(abs(x) for x in xs) > 10**6
