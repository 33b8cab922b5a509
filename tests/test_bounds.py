import math

import numpy as np
import pytest

from fourstab.bounds import (
    clump_bounds,
    dft_freq_bounds,
    instability_spectrum,
    kadec_C,
    kadec_D,
    perturbed_frame_bounds,
    vandermonde_node_bounds,
    wellsep_bounds,
    weyl_freq_bounds,
    weyl_node_bounds,
)
from fourstab.core_matrix import FrequencySet, build_instability_submatrix
from fourstab.experiments import strict_json
from fourstab.spectral import svd_values

# Frozen via a 30-digit evaluation of the closed forms.
C_ONE_SIXTH = 0.6339745962155614
C_TENTH = 0.35796047807979386
D_TENTH_2D = 0.8323382102922559


class TestKadecC:
    def test_endpoints(self):
        assert kadec_C(0.0) == 0.0
        assert kadec_C(0.25) == pytest.approx(1.0, abs=1e-15)

    def test_one_sixth_exact_trig(self):
        # 1 - sqrt(3)/2 + 1/2
        assert kadec_C(1 / 6) == pytest.approx(C_ONE_SIXTH, rel=1e-14)
        assert kadec_C(1 / 6) == pytest.approx(1.5 - math.sqrt(3) / 2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            kadec_C(-0.01)
        with pytest.raises(ValueError):
            kadec_C(0.26)


class TestKadecD:
    def test_zero_limit(self):
        for d in (1, 2, 5):
            assert kadec_D(0.0, d) == 0.0

    def test_matches_c_in_one_dimension(self):
        for t in np.linspace(0.0, 0.25, 1000):
            assert abs(kadec_D(float(t), 1) - kadec_C(float(t))) <= 1e-14

    def test_two_dimensional_value(self):
        assert kadec_D(0.1, 2) == pytest.approx(D_TENTH_2D, rel=1e-13)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            kadec_D(0.1, 0)


class TestMonotonicity:
    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 0.25, 1000)
        cvals = [kadec_C(float(t)) for t in grid]
        assert all(b > a for a, b in zip(cvals, cvals[1:]))
        for d in (1, 2, 3):
            dvals = [kadec_D(float(t), d) for t in grid]
            assert all(b > a for a, b in zip(dvals, dvals[1:]))


class TestPerturbedFrameBounds:
    def test_zero_perturbation_tight(self):
        rep = perturbed_frame_bounds(1.0, 1.0, 0.0)
        assert rep.applicable
        assert rep.sigma_min_lower == pytest.approx(1.0)
        assert rep.sigma_max_upper == pytest.approx(1.0)
        assert rep.scale == "sigma_squared"

    def test_one_sixth(self):
        rep = perturbed_frame_bounds(1.0, 1.0, 1 / 6, d=1)
        assert rep.sigma_min_lower == pytest.approx(0.13397459621556135, rel=1e-12)
        assert rep.sigma_max_upper == pytest.approx(2.669872981077807, rel=1e-12)

    def test_threshold_gate(self):
        # C(0.135) is slightly above 1/2 > sqrt(1/9)
        rep = perturbed_frame_bounds(1.0, 9.0, 0.135)
        assert not rep.applicable
        assert rep.sigma_min_lower is None and rep.sigma_max_upper is None
        assert rep.reason

    def test_quarter_rejected_as_report(self):
        rep = perturbed_frame_bounds(1.0, 1.0, 0.25)
        assert not rep.applicable and "1/4" in rep.reason

    def test_rank_one_exponent(self):
        rep = perturbed_frame_bounds(4.0, 4.0, 0.1, d=2, rank_one=True)
        c = kadec_C(0.1)
        assert rep.sigma_min_lower == pytest.approx(4.0 * (1 - c) ** 4, rel=1e-12)
        assert rep.sigma_max_upper == pytest.approx(4.0 * (1 + c) ** 4, rel=1e-12)

    def test_bad_constants(self):
        with pytest.raises(ValueError):
            perturbed_frame_bounds(2.0, 1.0, 0.1)


class TestDftFreqBounds:
    def test_zero_perturbation(self):
        rep = dft_freq_bounds((16,), 0.0)
        assert rep.sigma_min_lower == pytest.approx(4.0)
        assert rep.sigma_max_upper == pytest.approx(4.0)

    def test_one_sixth(self):
        rep = dft_freq_bounds((16,), 1 / 6)
        assert rep.sigma_min_lower == pytest.approx(1.4641016151377546, rel=1e-12)
        assert rep.sigma_max_upper == pytest.approx(6.535898384862246, rel=1e-12)

    def test_rank_one_two_dim(self):
        rep = dft_freq_bounds((2, 2), 0.1, rank_one=True)
        assert rep.sigma_min_lower == pytest.approx(0.8244294954150537, rel=1e-12)

    def test_vacuous_lower_clipped(self):
        rep = dft_freq_bounds((4, 4), 0.2)  # D(0.2, 2) > 1
        assert rep.applicable
        assert rep.sigma_min_lower == 0.0
        assert any("vacuous" in n for n in rep.notes)

    def test_out_of_range(self):
        assert not dft_freq_bounds((4,), 0.25).applicable

    def test_matches_frame_translation(self):
        # with a = b = prod(M), sqrt(A') = (1 - D) sqrt(prod(M))
        for m, ell in (((16,), 0.05), ((16,), 0.2), ((3, 3), 0.05)):
            size = math.prod(m)
            frame = perturbed_frame_bounds(float(size), float(size), ell, d=len(m))
            direct = dft_freq_bounds(m, ell)
            if frame.applicable:
                assert math.sqrt(frame.sigma_min_lower) == pytest.approx(
                    direct.sigma_min_lower, abs=1e-12
                )
                assert math.sqrt(frame.sigma_max_upper) == pytest.approx(
                    direct.sigma_max_upper, abs=1e-12
                )


class TestWeylFreqBounds:
    def test_zero_perturbation(self):
        rep = weyl_freq_bounds(2.0, 3.0, 4, 4, 1, math.inf, 0.0)
        assert rep.sigma_min_lower == 2.0 and rep.sigma_max_upper == 3.0

    def test_plug_in(self):
        rep = weyl_freq_bounds(2.0, 2.0, 4, 4, 1, math.inf, 0.01)
        assert rep.sigma_min_lower == pytest.approx(1.8743362938564083, rel=1e-12)

    def test_half_guarantee_eps(self):
        # eps = 1/(2 pi d sqrt(P)) pushes the lower bound to exactly sqrt(P)/2
        size = 16
        eps = 1.0 / (2.0 * math.pi * 1 * math.sqrt(size))
        rep = weyl_freq_bounds(4.0, 4.0, size, size, 1, math.inf, eps)
        assert rep.sigma_min_lower == pytest.approx(2.0, rel=1e-12)

    def test_p_one_exponent(self):
        # p = 1 gives p' = inf, so the dimension factor is d^0 = 1
        rep = weyl_freq_bounds(1.0, 1.0, 1, 1, 3, 1.0, 0.1)
        assert rep.sigma_max_upper == pytest.approx(1.0 + math.pi * 0.1, rel=1e-12)

    def test_vacuous_clip(self):
        rep = weyl_freq_bounds(0.1, 1.0, 100, 100, 1, math.inf, 1.0)
        assert rep.sigma_min_lower == 0.0
        assert any("vacuous" in n for n in rep.notes)


class TestWeylNodeBounds:
    def test_zero_perturbation(self):
        rep = weyl_node_bounds(2.0, 2.0, FrequencySet([0, 1, 2, 3]), 4, math.inf, 0.0)
        assert rep.sigma_min_lower == 2.0 and rep.sigma_max_upper == 2.0

    def test_constant_value(self):
        rep = weyl_node_bounds(2.0, 2.0, FrequencySet([0, 1, 2, 3]), 4, math.inf, 0.01)
        assert rep.inputs["constant"] == pytest.approx(23.509526717077996, rel=1e-12)

    def test_zero_frequency(self):
        rep = weyl_node_bounds(1.0, 1.0, FrequencySet([0]), 3, 2.0, 0.5)
        assert rep.inputs["constant"] == 0.0
        assert rep.sigma_min_lower == 1.0 and rep.sigma_max_upper == 1.0


class TestVandermondeNodeBounds:
    def test_zero_perturbation(self):
        rep = vandermonde_node_bounds(1.5, 2.5, 0.0)
        assert rep.sigma_min_lower == pytest.approx(1.5)
        assert rep.sigma_max_upper == pytest.approx(2.5)

    def test_one_sixth(self):
        rep = vandermonde_node_bounds(2.0, 2.0, 1 / 6)
        assert rep.sigma_min_lower == pytest.approx(0.7320508075688773, rel=1e-12)
        assert rep.sigma_max_upper == pytest.approx(3.267949192431123, rel=1e-12)

    def test_gate(self):
        # C(0.17) ~ 0.648 >= 0.5 = sigma_r / sigma_1
        rep = vandermonde_node_bounds(1.0, 2.0, 0.17)
        assert not rep.applicable


class TestWellsepBounds:
    def test_plug_in(self):
        rep = wellsep_bounds(4, 0.5)
        assert rep.sigma_min_lower == pytest.approx(2.0)
        assert rep.sigma_max_upper == pytest.approx(6.0)
        assert rep.scale == "sigma_squared"

    def test_larger(self):
        rep = wellsep_bounds(10, 0.2)
        assert rep.sigma_min_lower == pytest.approx(5.0)
        assert rep.sigma_max_upper == pytest.approx(15.0)

    def test_boundary_not_applicable(self):
        assert not wellsep_bounds(4, 0.25).applicable

    def test_sigma_scale_note(self):
        rep = wellsep_bounds(4, 0.5)
        assert any("sigma scale" in n for n in rep.notes)

    def test_separation_range(self):
        with pytest.raises(ValueError):
            wellsep_bounds(4, 0.6)


class TestClumpBounds:
    def test_exponent_zero_for_singletons(self):
        a = clump_bounds(60, 10, 1e-3 / 60, 1)
        b = clump_bounds(60, 10, 1e-2 / 60, 1)
        assert a.sigma_min_lower == b.sigma_min_lower == pytest.approx(math.sqrt(6.0))

    def test_upper_bound_value(self):
        rep = clump_bounds(60, 10, 1e-3, 2)
        assert rep.sigma_max_upper == pytest.approx(11.832159566199232, rel=1e-12)

    def test_alpha_out_of_range(self):
        assert not clump_bounds(60, 10, 1 / 30, 1).applicable

    def test_aspect_requirement(self):
        assert not clump_bounds(30, 10, 1e-3, 1).applicable

    def test_constants_note_mandatory(self):
        rep = clump_bounds(60, 10, 1e-3, 1)
        assert any("constants" in n for n in rep.notes)

    def test_bad_constants_raise(self):
        with pytest.raises(ValueError):
            clump_bounds(60, 10, 1e-3, 1, c_universal=0.0)


class TestInstabilitySpectrum:
    def test_small_cases(self):
        assert instability_spectrum(3) == pytest.approx([2.0, 2.0, 1.0])
        assert instability_spectrum(5) == pytest.approx([math.sqrt(6)] * 4 + [1.0])

    def test_matches_measured_condition(self):
        predicted = instability_spectrum(3)
        kappa = svd_values(build_instability_submatrix(3)).condition
        assert kappa == pytest.approx(predicted[0] / predicted[-1], rel=1e-10)

    def test_matches_measured_spectrum_up_to_61(self):
        for n in range(3, 62, 2):
            measured = np.array(svd_values(build_instability_submatrix(n)).singular_values)
            predicted = np.array(instability_spectrum(n))
            assert np.allclose(measured, predicted, rtol=1e-9)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            instability_spectrum(4)


class TestBoundReportContract:
    def test_json_fields(self):
        import json

        doc = json.loads(strict_json(dft_freq_bounds((4,), 0.1).to_dict()))
        for key in ("theorem", "applicable", "reason", "sigma_min_lower", "sigma_max_upper", "scale", "inputs"):
            assert key in doc

    def test_not_applicable_has_no_bounds(self):
        rep = dft_freq_bounds((4,), 0.3)
        assert not rep.applicable
        assert rep.sigma_min_lower is None and rep.sigma_max_upper is None
        assert rep.reason
