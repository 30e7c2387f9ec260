import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsps.config import (
    ChannelExtras,
    ConfigError,
    ConfigWarning,
    DetectorSpec,
    FiberSpec,
    FilterSpec,
    GainParameter,
    NormalizedBandwidths,
    PumpSpec,
    config_from_dict,
    config_to_dict,
    fwhm_nm_to_sigma,
    load_config,
    make_symmetric_config,
    normalize,
    sigma_to_fwhm_nm,
    with_gain,
)
from hsps import montecarlo as mc

C_NM_PER_S = 2.99792458e17


def _demo_doc() -> dict:
    with open("configs/demo.json", encoding="utf-8") as fh:
        return json.load(fh)


def _numeric_paths(node, prefix=()) -> list[tuple]:
    """Key paths of every number in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [prefix] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [path for key, child in items for path in _numeric_paths(child, prefix + (key,))]


def _container_paths(node, prefix=()) -> list[tuple]:
    """Key paths of every object and array in a JSON document, the root ()
    included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [prefix] + [path for key, child in items for path in _container_paths(child, prefix + (key,))]


def _readme_schema() -> dict:
    """The JSON example under "Configuration schema" in README.md."""
    with open("README.md", encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Configuration schema"):]
    return json.loads(section[section.index("```json") + 7:section.index("\n```\n")])


# Each JSON key against the field it fills, written out independently of the
# key tables in hsps.config; fwhm_nm fills the sigma through its conversion.
_NAMED_FIELDS = [
    (("pump",), lambda c: c.pump,
     {"center_nm": "center_wavelength", "fwhm_nm": "bandwidth_sigma", "peak_power_w": "peak_power",
      "rep_rate_hz": "repetition_rate"}),
    (("fiber",), lambda c: c.fiber,
     {"length_m": "length", "gamma_per_w_km": "nonlinear_coefficient",
      "transmission": "transmission"}),
    (("gain",), lambda c: c.gain, {"g_squared": "g_squared"}),
    (("filters", "signal"), lambda c: c.signal_filter,
     {"center_nm": "center_wavelength", "fwhm_nm": "sigma", "transmission": "transmission"}),
    (("filters", "idler"), lambda c: c.idler_filter,
     {"center_nm": "center_wavelength", "fwhm_nm": "sigma", "transmission": "transmission"}),
    (("detectors", 2), lambda c: c.detectors[2],
     {"efficiency": "efficiency", "dark_count_prob": "dark_count_prob",
      "gate_divisor": "gate_divisor", "dead_time_gates": "dead_time_gates",
      "gate_width_ns": "gate_width_ns"}),
    (("channels",), lambda c: c.channels, {"signal_extra": "signal", "idler_extra": "idler"}),
]


_SCHEMA_WORDS = st.sampled_from(["efficiency", "center_nm", "fwhm_nm", "signal", "g_squared"])


class TestConversions:
    def test_hand_computed_value(self):
        # independent route: delta_omega_fwhm = 2 pi c dl / l^2, sigma = fwhm / 2.3548
        fwhm, center = 0.6, 1531.9
        expected = 2 * math.pi * C_NM_PER_S * fwhm / center**2 / 2.3548200450309493
        assert fwhm_nm_to_sigma(fwhm, center) == pytest.approx(expected, rel=1e-14)

    def test_linearity(self):
        assert fwhm_nm_to_sigma(0.6, 1540.0) == pytest.approx(
            2 * fwhm_nm_to_sigma(0.3, 1540.0), rel=1e-14
        )

    @given(
        fwhm=st.floats(1e-3, 10.0),
        center=st.floats(400.0, 2000.0),
    )
    @settings(max_examples=200)
    def test_round_trip(self, fwhm, center):
        sigma = fwhm_nm_to_sigma(fwhm, center)
        assert sigma_to_fwhm_nm(sigma, center) == pytest.approx(fwhm, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            fwhm_nm_to_sigma(0.0, 1550.0)
        with pytest.raises(ConfigError):
            sigma_to_fwhm_nm(1e9, -1.0)


class TestNormalize:
    def test_identity_ratio(self):
        config = make_symmetric_config(1.0, 1.0, 0.01)
        bands = normalize(config)
        assert bands.sigma_s_prime == pytest.approx(1.0, rel=1e-12)
        assert bands.sigma_i_prime == pytest.approx(1.0, rel=1e-12)

    def test_narrowband_setting(self):
        bands = normalize(make_symmetric_config(0.3, 0.3, 0.01))
        assert bands.sigma_s_prime == pytest.approx(0.3, rel=1e-12)
        assert bands.sigma_i_prime == pytest.approx(0.3, rel=1e-12)

    def test_direct_ratio(self):
        bands = normalize(make_symmetric_config(2.0, 0.5, 0.01))
        assert (bands.sigma_s_prime, bands.sigma_i_prime) == pytest.approx((2.0, 0.5))

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigError):
            NormalizedBandwidths(0.0, 1.0)
        with pytest.raises(ConfigError):
            FilterSpec(center_wavelength=1550.0, sigma=-1.0)


class TestSpecValidation:
    def test_pump_positive_fields(self):
        with pytest.raises(ConfigError):
            PumpSpec(center_wavelength=1550.0, bandwidth_sigma=0.0)

    def test_pump_narrowband_guard(self):
        omega = 2 * math.pi * C_NM_PER_S / 1550.0
        with pytest.raises(ConfigError):
            PumpSpec(center_wavelength=1550.0, bandwidth_sigma=0.2 * omega)

    def test_gain_guard_warns(self):
        with pytest.warns(ConfigWarning):
            GainParameter(0.2)
        with pytest.raises(ConfigError):
            GainParameter(-1e-3)

    def test_detector_ranges(self):
        with pytest.raises(ConfigError):
            DetectorSpec(efficiency=1.2)
        with pytest.raises(ConfigError):
            DetectorSpec(efficiency=0.5, dark_count_prob=1.0)
        with pytest.raises(ConfigError):
            DetectorSpec(efficiency=0.5, gate_divisor=0)
        with pytest.raises(ConfigError):
            DetectorSpec(efficiency=0.5, dead_time_gates=-1)

    def test_fiber_and_channel_ranges(self):
        with pytest.raises(ConfigError):
            FiberSpec(transmission=0.0)
        with pytest.raises(ConfigError):
            ChannelExtras(signal=1.5)

    def test_center_mismatch_warns(self):
        # 0.5 pump sigmas of mismatch against the 0.01 default tolerance
        config = make_symmetric_config(1.0, 1.0, 0.01)
        doc = config_to_dict(config)
        omega_i = 1e4 - 60.0 + 0.5
        doc["filters"]["idler"]["center_nm"] = 2 * math.pi * C_NM_PER_S / omega_i
        with pytest.warns(ConfigWarning, match="energy conservation"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "build",
        [lambda: load_config("configs/demo.json"), lambda: make_symmetric_config(1, 1, 0.2)],
        ids=["load_config", "make_symmetric_config"],
    )
    def test_warning_names_a_source_line(self, build):
        # the caller's line: not the dataclass-generated __init__, whose file
        # reads <string>, nor the config module's loader or builder
        with pytest.warns(ConfigWarning) as caught:
            build()
        assert [w.filename for w in caught] == [__file__] * len(caught)

    def test_direct_construction_warns_at_the_caller(self):
        with pytest.warns(ConfigWarning) as caught:
            GainParameter(0.2)
        assert [w.filename for w in caught] == [__file__]

    def test_gain_copy_warns_at_its_caller(self):
        config = load_config("configs/demo.json")  # warns: centers 11.2 sigmas off
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConfigWarning)
            with_gain(config, 0.2)
            mc.build_pulse_model(config, raman=(0.061, 0.027, 6.0))  # |G|^2 = 0.108
        assert all("low-gain guard" in str(w.message) for w in caught)
        assert [w.filename for w in caught] == [__file__, mc.__file__]

    def test_gain_copy_checks_only_the_new_gain(self):
        config = load_config("configs/demo.json")  # warns: centers 11.2 sigmas off
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConfigWarning)
            copy = with_gain(config, 0.02)
        assert copy == config_from_dict({**_demo_doc(), "gain": {"g_squared": 0.02}})
        with pytest.warns(ConfigWarning, match="low-gain guard") as caught:
            with_gain(config, 0.2)
        assert len(caught) == 1

    def test_mixed_gate_divisors_rejected(self):
        config = make_symmetric_config(1.0, 1.0, 0.01)
        doc = config_to_dict(config)
        doc["detectors"][1]["gate_divisor"] = 4
        with pytest.raises(ConfigError, match="gate_divisor"):
            config_from_dict(doc)


class TestJsonBoundary:
    def test_round_trip(self, tmp_path):
        config = make_symmetric_config(
            1.4, 0.7, 0.004, det_efficiencies=(0.2, 0.12, 0.17),
            dark=(1.9e-5, 2.1e-5, 5.9e-5), gate_divisor=16, dead_time_gates=26,
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(config)))
        loaded = load_config(path)
        assert normalize(loaded).sigma_s_prime == pytest.approx(1.4, rel=1e-9)
        assert loaded.detectors[0].dark_count_prob == 1.9e-5
        assert loaded.detectors[2].efficiency == 0.17
        assert loaded.gate_divisor == 16

    def test_demo_config_loads(self):
        with pytest.warns(ConfigWarning):
            config = load_config("configs/demo.json")
        bands = normalize(config)
        # 0.6 nm filters behind a 0.3 nm pump sit close to twice its width
        assert bands.sigma_s_prime == pytest.approx(2.0, rel=0.02)
        assert bands.sigma_i_prime == pytest.approx(2.0, rel=0.02)
        assert config.signal_channel_transmission == pytest.approx(0.7 * 0.24 * 0.9)

    def test_benchmark_config_is_energy_matched(self):
        config = load_config("configs/symmetric.json")
        assert abs(config.center_mismatch_sigmas) < 1e-3
        assert config.gate_divisor == 1

    @pytest.mark.parametrize("doc", [_demo_doc(), _readme_schema()], ids=["demo.json", "README"])
    def test_writer_emits_exactly_the_documented_keys(self, doc):
        # both documents carry every key of the schema
        written = config_to_dict(config_from_dict(doc))
        assert set(_numeric_paths(written)) == set(_numeric_paths(doc))
        assert set(_container_paths(written)) == set(_container_paths(doc))

    def test_each_key_fills_its_named_field(self):
        doc = _demo_doc()
        doc["channels"]["idler_extra"] = 0.8  # every value of an object distinct
        config = config_from_dict(doc)
        for path, spec_of, named in _NAMED_FIELDS:
            node = doc
            for step in path:
                node = node[step]
            for key, name in named.items():
                want = node[key]
                if key == "fwhm_nm":
                    want = fwhm_nm_to_sigma(want, node["center_nm"])
                assert getattr(spec_of(config), name) == want, (path, key)

    def test_missing_key_is_actionable(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"pump": {"center_nm": 1550.0}}')
        with pytest.raises(ConfigError, match="fwhm_nm"):
            load_config(path)

    def test_informational_fiber_fields_are_optional(self):
        doc = _demo_doc()
        full = config_from_dict(doc)
        del doc["fiber"]["length_m"], doc["fiber"]["gamma_per_w_km"]
        assert config_from_dict(doc) == full  # demo carries the defaults
        doc["fiber"]["length_m"] = -1.0
        with pytest.raises(ConfigError, match="fiber length"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "path, key, where",
        [
            ((), "comment", "config"),
            (("pump",), "fwhm", "pump"),
            (("fiber",), "lenght_m", "fiber"),
            (("gain",), "g2", "gain"),
            (("filters",), "pump", "filters"),
            (("filters", "signal"), "transmision", "filters.signal"),
            (("filters", "idler"), "sigma", "filters.idler"),
            (("detectors", 1), "dark_count", "detectors[1]"),
            (("channels",), "signal", "channels"),
        ],
        ids=["config", "pump", "fiber", "gain", "filters", "filters.signal", "filters.idler",
             "detectors[1]", "channels"],
    )
    def test_unknown_key_names_section_and_key(self, path, key, where):
        doc = _demo_doc()
        node = doc
        for step in path:
            node = node[step]
        node[key] = 0.5
        with pytest.raises(ConfigError, match=re.escape(f"unknown key '{key}' in {where};")):
            config_from_dict(doc)

    @pytest.mark.parametrize("key", ["gate_divisor", "dead_time_gates"])
    def test_count_fields_must_be_integral(self, key):
        doc = _demo_doc()
        doc["detectors"][0][key] = 16.0
        value = getattr(config_from_dict(doc).detectors[0], key)
        assert value == 16 and type(value) is int
        doc["detectors"][0][key] = 2.5
        with pytest.raises(ConfigError, match=re.escape(f"detectors[0].{key} must be an integer")):
            config_from_dict(doc)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("filters", "center_nm", 1e-320),  # center_nm**2 underflows to 0
            ("pump", "center_nm", 1e200),  # center_nm**2 overflows
            ("gain", "g_squared", 10**400),  # a JSON integer no float holds
        ],
    )
    def test_out_of_range_number_is_a_config_error(self, section, key, value):
        doc = _demo_doc()
        (doc[section]["signal"] if section == "filters" else doc[section])[key] = value
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("detectors", 5),
            ("channels", None),
            ("detectors", ["efficiency", "dark_count_prob", "gate_divisor"]),
            ("filters", {"signal": 3, "idler": 3}),
        ],
    )
    def test_wrong_json_type_names_the_key(self, key, value):
        doc = _demo_doc()
        doc[key] = value
        with pytest.raises(ConfigError, match=key):
            config_from_dict(doc)

    @given(
        path=st.sampled_from(_numeric_paths(_demo_doc())),
        value=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([5e-324, 1e-320, 1e-300, 1e200, 1.7e308, -0.0]),
            st.integers(),
            st.none(),
            st.text(max_size=8),
            st.booleans(),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_numeric_field_loads_or_raises_config_error(self, path, value):
        doc = _demo_doc()
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        if value is None or isinstance(value, (str, bool)):
            # not a JSON number, whatever float() would make of it
            where = "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path)[1:]
            with pytest.raises(ConfigError, match=re.escape(f"{where} must be a finite number")):
                config_from_dict(doc)
            return
        try:
            config_from_dict(doc)
        except ConfigError:
            pass

    @given(
        path=st.sampled_from(_container_paths(_demo_doc())),
        value=st.one_of(
            st.integers(),
            st.none(),
            st.booleans(),
            st.floats(allow_nan=True, allow_infinity=True),
            st.text(max_size=8),
            _SCHEMA_WORDS,
            st.lists(st.one_of(_SCHEMA_WORDS, st.integers(), st.none()), max_size=4),
            st.dictionaries(_SCHEMA_WORDS, st.one_of(st.integers(), st.none()), max_size=3),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_container_node_loads_or_raises_config_error(self, path, value):
        # the document itself, each section, each filter and each detector
        # entry replaced by a value of another JSON type (or another shape)
        doc = _demo_doc()
        if path:
            node = doc
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = value
        else:
            doc = value
        try:
            config_from_dict(doc)
        except ConfigError:
            pass
