import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widecap.bounds import critical_coefficients
from widecap.scenario import (
    ChannelScenario,
    FadingFamily,
    ParseError,
    ValidationError,
    _parse_flat,
    kurtosis,
    parse_scenario,
    serialize_scenario,
)

FLAT_DOC = """
# example scenario
snr_density_hz = 1e7
coherence_time_s = 1e-3
coherence_bandwidth_hz = 1e6
nt = 2
nr = 2
fading = rayleigh
"""

JSON_DOC = """{
  "snr_density_hz": 1e7,
  "coherence_time_s": 1e-3,
  "coherence_bandwidth_hz": 1e6,
  "nt": 2,
  "nr": 2,
  "fading": "rice:0.5"
}"""


def make_scenario(**overrides):
    base = dict(
        snr_density=100.0,
        coherence_time=1e-3,
        coherence_bandwidth=1e6,
        nt=1,
        nr=1,
        fading=FadingFamily.rayleigh(),
    )
    base.update(overrides)
    return ChannelScenario(**base)


class TestKurtosis:
    def test_rayleigh(self):
        assert kurtosis(FadingFamily.rayleigh()) == 2.0

    def test_rice_zero_degenerates_to_rayleigh(self):
        assert kurtosis(FadingFamily.rice(0.0)) == 2.0

    def test_nakagami_one_recovers_rayleigh(self):
        assert kurtosis(FadingFamily.nakagami(1.0)) == 2.0

    def test_rice_continuity_near_zero(self):
        # |kappa(k) - 2| = 4k^2/(1+2k)^2 <= 4k^2
        for exponent in range(-6, -1):
            k = 10.0**exponent
            assert abs(kurtosis(FadingFamily.rice(k)) - 2.0) <= 4.0 * k * k

    def test_rice_decreasing_in_k(self):
        grid = [10.0**e for e in range(-3, 4)]
        values = [kurtosis(FadingFamily.rice(k)) for k in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(1.0 < v <= 2.0 for v in values)

    def test_nakagami_decreasing_to_one(self):
        grid = [10.0**e for e in range(-2, 7)]
        values = [kurtosis(FadingFamily.nakagami(m)) for m in grid]
        assert all(v > 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            FadingFamily.rice(-0.1)
        with pytest.raises(ValidationError):
            FadingFamily.nakagami(0.0)
        with pytest.raises(ValidationError):
            FadingFamily("weibull")

    # Rice kurtosis 2 - 4k^2/(1+2k)^2 overflows for k above about 6.7e153 and
    # Nakagami 1 + 1/m for m below about 5.6e-309.
    @pytest.mark.parametrize("kind, param", [
        ("rice", math.inf), ("rice", 6.8e153), ("rice", 1e200),
        ("nakagami", math.inf), ("nakagami", 5.5e-309), ("nakagami", 5e-309),
    ])
    def test_parameter_needs_a_finite_kurtosis(self, kind, param):
        with pytest.raises(ValidationError, match=r": the parameter and its kurtosis must be finite$"):
            FadingFamily(kind, param)
        doc = FLAT_DOC.replace("rayleigh", f"{kind}:{param!r}")
        with pytest.raises(ValidationError, match="must be finite"):
            parse_scenario(doc)

    def test_largest_parameters_kept(self):
        assert kurtosis(FadingFamily.rice(6.7e153)) == 1.0
        assert kurtosis(FadingFamily.nakagami(5.6e-309)) == 1.0 + 1.0 / 5.6e-309 < math.inf

    def test_rayleigh_param_is_dropped(self):
        # Rayleigh has no parameter, so every Rayleigh family is one value.
        fading = FadingFamily("rayleigh", 3.0)
        assert fading == FadingFamily.rayleigh()
        assert hash(fading) == hash(FadingFamily.rayleigh())
        assert (fading.param, fading.label) == (0.0, "rayleigh")


class TestScenarioInvariants:
    def test_coherence_product(self):
        scenario = parse_scenario(FLAT_DOC)
        assert scenario.coherence_product == pytest.approx(1000.0)
        assert scenario.nt == 2 and scenario.nr == 2
        assert scenario.fading == FadingFamily.rayleigh()

    def test_wideband_limit(self):
        assert make_scenario(nr=3).wideband_limit == 300.0

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(snr_density=0.0), "snr_density"),
            (dict(coherence_time=-1.0), "coherence_time"),
            (dict(coherence_bandwidth=0.0), "coherence_bandwidth"),
            (dict(nt=0), "nt"),
            (dict(nr=0), "nr"),
            (dict(coherence_time=1e-6, coherence_bandwidth=5e5), "coherence product"),
            (dict(snr_density=math.inf), "^snr_density must be finite$"),
            (dict(coherence_time=math.inf), "^coherence_time must be finite$"),
            (dict(coherence_bandwidth=math.inf), "^coherence_bandwidth must be finite$"),
            (dict(coherence_time=1e200, coherence_bandwidth=1e200),
             "^coherence_product must be finite$"),
        ],
    )
    def test_invariant_violations(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            make_scenario(**overrides)

    @pytest.mark.parametrize("snr", [5e-324, 1e-315, 2.2250738585072009e-308])
    def test_subnormal_snr_density_refused(self, snr):
        # Up to 0.13.0 it was accepted, and `critical` wrote cells that had
        # lost digits (2.811383074e-315 at P/N0 = 1e-315) with exit 0.
        message = (f"^snr_density {snr!r} is subnormal: it must be >= "
                   r"2\.2250738585072014e-308, the smallest normal float64$")
        with pytest.raises(ValidationError, match=message):
            make_scenario(snr_density=snr)
        # -3080 dB is 1e-308, subnormal too.
        with pytest.raises(ValidationError, match="^snr_density 1e-308 is subnormal"):
            parse_scenario(FLAT_DOC.replace("snr_density_hz = 1e7", "snr_density_db_hz = -3080"))

    def test_smallest_normal_snr_density_accepted(self):
        smallest = 2.2250738585072014e-308
        assert make_scenario(snr_density=smallest).snr_density == smallest


class TestParsing:
    def test_flat_and_json_forms(self):
        flat = parse_scenario(FLAT_DOC)
        as_json = parse_scenario(JSON_DOC)
        assert flat.snr_density == as_json.snr_density == 1e7
        assert as_json.fading == FadingFamily.rice(0.5)

    def test_db_input_converted_at_boundary(self):
        doc = FLAT_DOC.replace("snr_density_hz = 1e7", "snr_density_db_hz = 20")
        assert parse_scenario(doc).snr_density == pytest.approx(100.0)

    def test_missing_field_names_it(self):
        doc = "\n".join(
            line for line in FLAT_DOC.splitlines() if not line.startswith("nt")
        )
        with pytest.raises(ValidationError, match="nt"):
            parse_scenario(doc)

    def test_coherence_product_violation(self):
        doc = FLAT_DOC.replace("coherence_bandwidth_hz = 1e6", "coherence_bandwidth_hz = 500")
        with pytest.raises(ValidationError, match="coherence product <= 1"):
            parse_scenario(doc)

    @pytest.mark.parametrize("doc, message", [
        (JSON_DOC.replace('"nt": 2', '"nt": 1e999'),
         r"^field 'nt': cannot convert float infinity to integer$"),
        (FLAT_DOC.replace("snr_density_hz = 1e7", "snr_density_db_hz = 4000"),
         r"^field 'snr_density_db_hz': 4000\.0 dB overflows a float$"),
        (FLAT_DOC.replace("nt = 2", "nt = " + "1" * 401),
         r"^field 'nt': int too large to convert to float$"),
    ], ids=["json-nt-1e999", "db-4000", "nt-401-digits"])
    def test_overflowing_value_names_the_field(self, doc, message):
        with pytest.raises(ParseError, match=message):
            parse_scenario(doc)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_scenario("bogus = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_scenario(FLAT_DOC + "nt = 3\n")

    def test_both_snr_spellings_rejected(self):
        with pytest.raises(ParseError, match="not both"):
            parse_scenario(FLAT_DOC + "snr_density_db_hz = 70\n")

    def test_bad_fading(self):
        with pytest.raises(ParseError, match="fading"):
            parse_scenario(FLAT_DOC.replace("rayleigh", "weibull"))
        with pytest.raises(ParseError):
            parse_scenario(FLAT_DOC.replace("rayleigh", "rice:abc"))

    def test_flat_skips_blank_and_comment_lines(self):
        text = ("\n   \n# a comment = 1\n  # indented = 2\n"
                "nt = 2 # two\nnr=3#\nfading =  rayleigh  \n")
        assert _parse_flat(text) == {"nt": "2", "nr": "3", "fading": "rayleigh"}

    @pytest.mark.parametrize("text, message", [
        ("nt = 2\nfoo # x=1\n", "line 2: expected 'key = value', got 'foo # x=1'"),
        ("\n = 3\n", "line 2: unknown key ''"),
        ("nt = 2\n\nnt = 3\n", "line 3: duplicate key 'nt'"),
        ("# head\nbogus = 1\n", "line 2: unknown key 'bogus'"),
        ("nt=1=2\nnt = 2\n", "line 2: duplicate key 'nt'"),
    ], ids=["no-equals", "empty-key", "duplicate", "unknown", "second-equals-in-value"])
    def test_flat_refusals_keep_their_messages(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            _parse_flat(text)

    def test_value_keeps_text_after_the_first_equals(self):
        assert _parse_flat("fading = rice:1 = x # note\n") == {"fading": "rice:1 = x"}

    def test_rayleigh_is_one_instance(self):
        rayleigh = FadingFamily.rayleigh()
        assert rayleigh is FadingFamily.rayleigh()
        assert rayleigh == FadingFamily("rayleigh", 3.0)
        assert hash(rayleigh) == hash(FadingFamily("rayleigh", 3.0))
        assert parse_scenario(FLAT_DOC).fading is rayleigh

    def test_critical_coefficients_memo_matches_uncached(self):
        for nt in range(1, 17):
            for nr in range(1, 17):
                assert critical_coefficients(nt, nr) == critical_coefficients.__wrapped__(nt, nr)

    def test_round_trip_example(self):
        scenario = parse_scenario(FLAT_DOC)
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    @settings(max_examples=50, deadline=None)
    @given(
        snr=st.floats(1e-3, 1e12),
        tc=st.floats(1e-6, 10.0),
        lc=st.floats(1.5, 1e8),
        nt=st.integers(1, 8),
        nr=st.integers(1, 8),
        fading=st.one_of(
            st.just(FadingFamily.rayleigh()),
            st.floats(0.0, 100.0).map(FadingFamily.rice),
            st.floats(0.01, 100.0).map(FadingFamily.nakagami),
        ),
    )
    def test_round_trip_property(self, snr, tc, lc, nt, nr, fading):
        scenario = ChannelScenario(
            snr_density=snr,
            coherence_time=tc,
            coherence_bandwidth=lc / tc,
            nt=nt,
            nr=nr,
            fading=fading,
        )
        assert parse_scenario(serialize_scenario(scenario)) == scenario
