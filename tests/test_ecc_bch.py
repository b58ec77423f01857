"""Tests for the BCH codec (GF arithmetic, encoding, decoding)."""

import numpy as np
import pytest

from repro.ecc.bch import BchCode, GaloisField


class TestGaloisField:
    def test_field_size(self):
        field = GaloisField(8)
        assert field.size == 256
        assert field.order == 255

    def test_multiplication_identity_and_zero(self):
        field = GaloisField(8)
        assert field.multiply(0, 37) == 0
        assert field.multiply(1, 37) == 37

    def test_inverse(self):
        field = GaloisField(8)
        for value in (1, 2, 77, 200, 255):
            assert field.multiply(value, field.inverse(value)) == 1

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            GaloisField(8).inverse(0)

    def test_division_consistent_with_multiplication(self):
        field = GaloisField(8)
        a, b = 100, 45
        assert field.multiply(field.divide(a, b), b) == a

    def test_alpha_powers_cycle(self):
        field = GaloisField(4)
        assert field.alpha_power(0) == 1
        assert field.alpha_power(field.order) == 1

    def test_power_operator(self):
        field = GaloisField(8)
        value = 3
        manual = 1
        for _ in range(5):
            manual = field.multiply(manual, value)
        assert field.power(value, 5) == manual

    def test_unsupported_field(self):
        with pytest.raises(ValueError):
            GaloisField(2)

    def test_poly_evaluate(self):
        field = GaloisField(4)
        # p(x) = 1 + x evaluated at alpha^0 = 1 gives 0 in GF(2^m).
        assert field.poly_evaluate([1, 1], 1) == 0


class TestBchCode:
    @pytest.fixture(scope="class")
    def code(self):
        return BchCode(m=8, t=8)

    def test_dimensions(self, code):
        assert code.n == 255
        assert code.k + code.n_parity == code.n
        assert code.k > 0

    def test_encode_is_systematic(self, code, rng):
        message = rng.integers(0, 2, code.k)
        codeword = code.encode(message)
        assert np.array_equal(code.extract_message(codeword), message)

    def test_clean_codeword_decodes_with_no_corrections(self, code, rng):
        message = rng.integers(0, 2, code.k)
        result = code.decode(code.encode(message))
        assert result.success
        assert result.corrected_bits == 0

    @pytest.mark.parametrize("num_errors", [1, 2, 4, 8])
    def test_corrects_up_to_t_errors(self, code, num_errors):
        rng = np.random.default_rng(100 + num_errors)
        for _ in range(5):
            message = rng.integers(0, 2, code.k)
            result = code.correct_random_errors(message, num_errors, rng)
            assert result.success
            assert result.corrected_bits == num_errors
            assert np.array_equal(code.extract_message(result.codeword), message)

    def test_does_not_miscorrect_far_beyond_t(self, code):
        rng = np.random.default_rng(7)
        miscorrections = 0
        for _ in range(10):
            message = rng.integers(0, 2, code.k)
            result = code.correct_random_errors(message, code.t + 8, rng)
            if result.success and np.array_equal(
                    code.extract_message(result.codeword), message):
                miscorrections += 1
        assert miscorrections == 0

    def test_wrong_length_inputs_rejected(self, code):
        with pytest.raises(ValueError):
            code.encode([0, 1])
        with pytest.raises(ValueError):
            code.decode([0] * (code.n - 1))
        with pytest.raises(ValueError):
            code.encode([2] * code.k)

    def test_smaller_code_configurations(self):
        code = BchCode(m=6, t=3)
        rng = np.random.default_rng(3)
        message = rng.integers(0, 2, code.k)
        result = code.correct_random_errors(message, 3, rng)
        assert result.success

    def test_capability_abstraction_matches_bch(self):
        """The simulator's capability rule is faithful to bounded-distance BCH.

        A codeword decodes iff it holds at most ``t`` raw bit errors: BCH
        recovers the message up to ``t`` errors and never past them.
        """
        code = BchCode(m=8, t=8)
        rng = np.random.default_rng(17)
        message = rng.integers(0, 2, code.k)
        for errors in range(code.t + 3):
            result = code.correct_random_errors(message, errors, rng)
            recovered = result.success and np.array_equal(
                code.extract_message(result.codeword), message)
            assert recovered == (errors <= code.t)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BchCode(m=8, t=0)

    def test_degenerate_high_rate_code_still_valid(self):
        # BCH(15, 1, t=7) degenerates to a near-repetition code but must
        # still round-trip its single message bit.
        code = BchCode(m=4, t=7)
        assert code.k >= 1
        result = code.correct_random_errors([1] * code.k, code.t,
                                            np.random.default_rng(0))
        assert result.success
