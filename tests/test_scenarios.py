import copy
import json

import numpy as np
import pytest

from polycam.conjunction import poc_quadrature
from polycam.dynamics import CR3BP, CR3BP_MASS_RATIO, ECI, KEPLER, SYNODIC
from polycam.errors import (CovarianceError, GenerationError,
                            ScenarioParseError, ValidationError)
from polycam.scenarios import (DEFAULT_POC_BAND, generate_synthetic_suite,
                               parse_scenario, scenario_to_event,
                               scenario_to_json)


@pytest.fixture(scope="module")
def leo_docs():
    return generate_synthetic_suite(seed=42, count=4, regime="LEO")


class TestGenerator:
    def test_deterministic_byte_for_byte(self, leo_docs):
        again = generate_synthetic_suite(seed=42, count=4, regime="LEO")
        assert [scenario_to_json(d) for d in leo_docs] == \
            [scenario_to_json(d) for d in again]

    def test_different_seed_differs(self, leo_docs):
        other = generate_synthetic_suite(seed=43, count=4, regime="LEO")
        assert scenario_to_json(other[0]) != scenario_to_json(leo_docs[0])

    def test_perpendicular_encounter(self, leo_docs):
        for doc in leo_docs:
            event = scenario_to_event(doc)
            r_rel = event.primary.r - event.secondary.r
            v_rel = event.primary.v - event.secondary.v
            cosine = abs(r_rel @ v_rel) / (np.linalg.norm(r_rel)
                                           * np.linalg.norm(v_rel))
            assert cosine <= 1e-6

    def test_poc_band_verified_by_quadrature(self, leo_docs):
        for doc in leo_docs:
            event = scenario_to_event(doc)
            bp = event.bplane
            poc = poc_quadrature(bp.r_b, bp.p_b, event.hbr_km)
            assert DEFAULT_POC_BAND[0] * (1 - 1e-6) <= poc \
                <= DEFAULT_POC_BAND[1] * (1 + 1e-6)

    def test_events_pass_invariant_checks(self, leo_docs):
        for doc in leo_docs:
            scenario_to_event(doc).check()

    def test_high_relative_speed(self, leo_docs):
        for doc in leo_docs:
            event = scenario_to_event(doc)
            v_rel = np.linalg.norm(event.primary.v - event.secondary.v)
            assert v_rel > 1.0  # km/s

    def test_cislunar_regime(self):
        docs = generate_synthetic_suite(seed=9, count=2, regime="CISLUNAR")
        for doc in docs:
            event = scenario_to_event(doc)
            assert event.dynamics.kind == CR3BP
            assert event.primary.frame == SYNODIC
            event.check()
            # near the Moon in synodic km coordinates
            moon = np.array([1 - CR3BP_MASS_RATIO, 0, 0]) * 384405.0
            assert np.linalg.norm(event.primary.r - moon) < 60000.0

    def test_custom_band(self):
        docs = generate_synthetic_suite(seed=3, count=2, regime="LEO",
                                        poc_band=(1.5e-6, 5e-6))
        for doc in docs:
            event = scenario_to_event(doc)
            bp = event.bplane
            poc = poc_quadrature(bp.r_b, bp.p_b, event.hbr_km)
            assert 1.5e-6 * (1 - 1e-6) <= poc <= 5e-6 * (1 + 1e-6)

    def test_bad_inputs(self):
        with pytest.raises(GenerationError):
            generate_synthetic_suite(seed=1, count=0)
        with pytest.raises(GenerationError, match="seed"):
            generate_synthetic_suite(seed=-1, count=1)
        with pytest.raises(GenerationError):
            generate_synthetic_suite(seed=1, count=1, regime="GEO")
        with pytest.raises(GenerationError):
            generate_synthetic_suite(seed=1, count=1, poc_band=(0.5, 0.1))


class TestParsing:
    def test_round_trip(self, leo_docs):
        doc = json.loads(scenario_to_json(leo_docs[0]))
        event, defaults = parse_scenario(doc)
        assert event.dynamics.kind == KEPLER
        assert defaults["target_poc"] == 1e-6

    def test_missing_field(self, leo_docs):
        doc = copy.deepcopy(leo_docs[0])
        del doc["conjunction"]["hbr_km"]
        with pytest.raises(ScenarioParseError):
            scenario_to_event(doc)

    def test_wrong_schema_version(self, leo_docs):
        doc = copy.deepcopy(leo_docs[0])
        doc["schema_version"] = 99
        with pytest.raises(ScenarioParseError):
            scenario_to_event(doc)

    def test_bad_vector_shape(self, leo_docs):
        doc = copy.deepcopy(leo_docs[0])
        doc["conjunction"]["primary"]["r_km"] = [1.0, 2.0]
        with pytest.raises(ScenarioParseError):
            scenario_to_event(doc)

    def test_absent_frame_follows_dynamics(self, leo_docs):
        doc = copy.deepcopy(leo_docs[0])
        assert doc["conjunction"].pop("frame") == ECI
        assert scenario_to_event(doc).primary.frame == ECI
        doc["conjunction"]["dynamics"] = "cr3bp"
        event = scenario_to_event(doc)
        assert event.primary.frame == event.secondary.frame == SYNODIC

    def test_bad_dynamics_name(self, leo_docs):
        doc = copy.deepcopy(leo_docs[0])
        doc["conjunction"]["dynamics"] = "sgp4"
        with pytest.raises(ScenarioParseError):
            scenario_to_event(doc)

    def test_negative_hbr(self, leo_docs):
        doc = copy.deepcopy(leo_docs[0])
        doc["conjunction"]["hbr_km"] = -0.01
        with pytest.raises(ValidationError):
            scenario_to_event(doc)

    def test_non_psd_covariance_caught_by_check(self, leo_docs):
        doc = copy.deepcopy(leo_docs[0])
        doc["conjunction"]["cov_primary_km2"][0][0] = -5.0
        with pytest.raises(CovarianceError):
            scenario_to_event(doc)
