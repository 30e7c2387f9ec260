"""Source configuration: pump, fiber, filters, detectors and unit conversions.

All statistics in this package are computed in normalized units: bandwidths
enter as ratios to the pump bandwidth (sigma_s/sigma_p, sigma_i/sigma_p), the
parametric gain as the dimensionless |G|^2, and losses as plain transmission
factors.  Physical units (nm, W, Hz) exist only here, at the configuration
boundary, and are converted on load.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields

# 2*pi*c with c in nm/s, so that omega [rad/s] = TWO_PI_C_NM / lambda [nm]
TWO_PI_C_NM = 2.0 * math.pi * 2.99792458e17

# FWHM = 2*sqrt(2*ln 2) * sigma for a Gaussian amplitude profile
GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

# filter centers that miss energy conservation by more pump sigmas than this warn
CENTER_TOLERANCE_SIGMAS = 0.01


class ConfigError(ValueError):
    """Raised when a configuration value violates its invariants."""


class ConfigWarning(UserWarning):
    """Soft configuration issues: suspicious but not fatal."""


class ModelValidityError(ValueError):
    """A computed probability left [0, 1]: the low-gain model does not apply."""


def _caller_stacklevel() -> int:
    """The stacklevel at which a warning raised by the calling function names
    the first frame outside this module and the dataclass-generated __init__
    (whose file reads <string>): the code that asked for the config, not the
    line here that built it."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename in (__file__, "<string>"):
        frame, level = frame.f_back, level + 1
    return level


def omega_from_wavelength_nm(wavelength_nm: float) -> float:
    """Angular frequency (rad/s) of a vacuum wavelength given in nm."""
    if wavelength_nm <= 0:
        raise ConfigError(f"wavelength must be positive, got {wavelength_nm}")
    return TWO_PI_C_NM / wavelength_nm


def fwhm_nm_to_sigma(fwhm_nm: float, center_nm: float) -> float:
    """Convert a FWHM in wavelength (nm) to a Gaussian sigma in rad/s.

    A narrow line of width d_lambda at center lambda spans an angular
    frequency interval 2*pi*c*d_lambda/lambda^2; dividing by the Gaussian
    FWHM factor 2*sqrt(2 ln 2) gives sigma.
    """
    if fwhm_nm <= 0 or center_nm <= 0:
        raise ConfigError("fwhm and center wavelength must be positive")
    try:
        sigma = TWO_PI_C_NM * fwhm_nm / center_nm**2 / GAUSSIAN_FWHM_FACTOR
    except (OverflowError, ZeroDivisionError):  # center_nm**2 out of double range
        sigma = 0.0
    if not 0.0 < sigma < math.inf:
        raise ConfigError(
            f"fwhm_nm {fwhm_nm} at center_nm {center_nm} gives no finite positive bandwidth"
        )
    return sigma


def sigma_to_fwhm_nm(sigma: float, center_nm: float) -> float:
    """Inverse of :func:`fwhm_nm_to_sigma`; round-trips to 1e-12 relative."""
    if sigma <= 0 or center_nm <= 0:
        raise ConfigError("sigma and center wavelength must be positive")
    return sigma * GAUSSIAN_FWHM_FACTOR * center_nm**2 / TWO_PI_C_NM


@dataclass(frozen=True)
class PumpSpec:
    """Pulsed pump: center wavelength (nm), spectral sigma (rad/s), power, rate."""

    center_wavelength: float
    bandwidth_sigma: float
    peak_power: float = 1.0
    repetition_rate: float = 41e6

    def __post_init__(self):
        for name in ("center_wavelength", "bandwidth_sigma", "peak_power", "repetition_rate"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"pump {name} must be strictly positive")
        if self.bandwidth_sigma / self.center_omega >= 0.1:
            raise ConfigError("pump bandwidth_sigma must be small against the carrier frequency")

    @property
    def center_omega(self) -> float:
        return omega_from_wavelength_nm(self.center_wavelength)


@dataclass(frozen=True)
class FiberSpec:
    """Nonlinear fiber: length (m), gamma (1/(W km)), passive transmission."""

    length: float = 20.0
    nonlinear_coefficient: float = 11.0
    transmission: float = 1.0

    def __post_init__(self):
        if self.length <= 0:
            raise ConfigError("fiber length must be positive")
        if self.nonlinear_coefficient <= 0:
            raise ConfigError("fiber nonlinear coefficient must be positive")
        if not 0 < self.transmission <= 1:
            raise ConfigError("fiber transmission must be in (0, 1]")


@dataclass(frozen=True)
class GainParameter:
    """Dimensionless squared gain amplitude |G|^2 of the pair-producing process.

    The absolute constants relating |G|^2 to pump power, gamma and fiber
    length are not pinned down here; |G|^2 is a direct input.  Values above
    0.05 leave the low-gain regime the closed forms assume and trigger a
    warning.
    """

    g_squared: float

    LOW_GAIN_GUARD = 0.05

    def __post_init__(self):
        if self.g_squared < 0:
            raise ConfigError("g_squared must be nonnegative")
        if self.g_squared > self.LOW_GAIN_GUARD:
            warnings.warn(
                f"|G|^2 = {self.g_squared} exceeds the low-gain guard "
                f"{self.LOW_GAIN_GUARD}; closed forms lose accuracy",
                ConfigWarning,
                stacklevel=_caller_stacklevel(),
            )

    @property
    def amplitude(self) -> float:
        """|G|, the gain amplitude (phase absorbed into the pump)."""
        return math.sqrt(self.g_squared)


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian bandpass: center wavelength (nm), sigma (rad/s), peak transmission."""

    center_wavelength: float
    sigma: float
    transmission: float = 1.0

    def __post_init__(self):
        if self.center_wavelength <= 0:
            raise ConfigError("filter center wavelength must be positive")
        if self.sigma <= 0:
            raise ConfigError("filter sigma must be positive")
        if not 0 < self.transmission <= 1:
            raise ConfigError("filter transmission must be in (0, 1]")

    @property
    def center_omega(self) -> float:
        return omega_from_wavelength_nm(self.center_wavelength)


@dataclass(frozen=True)
class DetectorSpec:
    """Gated single-photon detector.

    gate_divisor: the detector gate fires every Nth pump pulse.
    dead_time_gates: gates vetoed after a click (10 us at a 2.58 MHz gate
    rate is about 26 gates).
    """

    efficiency: float
    dark_count_prob: float = 0.0
    gate_divisor: int = 1
    dead_time_gates: int = 0
    gate_width_ns: float = 2.5

    def __post_init__(self):
        if not 0 <= self.efficiency <= 1:
            raise ConfigError("detector efficiency must be in [0, 1]")
        if not 0 <= self.dark_count_prob < 1:
            raise ConfigError("dark_count_prob must be in [0, 1)")
        if self.gate_divisor < 1:
            raise ConfigError("gate_divisor must be >= 1")
        if self.dead_time_gates < 0:
            raise ConfigError("dead_time_gates must be >= 0")
        if self.gate_width_ns <= 0:
            raise ConfigError("gate_width_ns must be positive")


@dataclass(frozen=True)
class ChannelExtras:
    """Passive transmissions not covered by fiber and filter peaks (splices,
    coupler excess loss).  The 50/50 split itself is not included here."""

    signal: float = 1.0
    idler: float = 1.0

    def __post_init__(self):
        if not 0 < self.signal <= 1 or not 0 < self.idler <= 1:
            raise ConfigError("channel extras must be in (0, 1]")


@dataclass(frozen=True)
class NormalizedBandwidths:
    """Filter sigmas divided by the pump sigma."""

    sigma_s_prime: float
    sigma_i_prime: float

    def __post_init__(self):
        if self.sigma_s_prime <= 0 or self.sigma_i_prime <= 0:
            raise ConfigError("normalized bandwidths must be strictly positive")


@dataclass(frozen=True)
class SourceConfig:
    """Complete source description.

    detectors holds (herald detector on the idler band, then the two signal
    arm detectors behind the 50/50 coupler).  Filter centers should satisfy
    omega_s0 + omega_i0 = 2*omega_p0; a mismatch beyond
    CENTER_TOLERANCE_SIGMAS pump sigmas only warns, since real filter
    centers are approximate.
    """

    pump: PumpSpec
    fiber: FiberSpec
    gain: GainParameter
    signal_filter: FilterSpec
    idler_filter: FilterSpec
    detectors: tuple[DetectorSpec, DetectorSpec, DetectorSpec]
    channels: ChannelExtras = field(default_factory=ChannelExtras)

    def __post_init__(self):
        if len(self.detectors) != 3:
            raise ConfigError("exactly three detectors are required (herald, arm2, arm3)")
        object.__setattr__(self, "detectors", tuple(self.detectors))
        divisors = {d.gate_divisor for d in self.detectors}
        if len(divisors) != 1:
            raise ConfigError("all detectors must share one gate_divisor for coincidence gating")
        mismatch = abs(self.center_mismatch_sigmas)
        if mismatch > CENTER_TOLERANCE_SIGMAS:
            warnings.warn(
                f"filter centers miss energy conservation by {mismatch:.3g} pump sigmas",
                ConfigWarning,
                stacklevel=_caller_stacklevel(),
            )

    @property
    def center_mismatch_sigmas(self) -> float:
        """(omega_s0 + omega_i0 - 2 omega_p0) / sigma_p."""
        return (
            self.signal_filter.center_omega
            + self.idler_filter.center_omega
            - 2.0 * self.pump.center_omega
        ) / self.pump.bandwidth_sigma

    @property
    def signal_channel_transmission(self) -> float:
        """Full passive transmission of the signal channel (no 50/50 split)."""
        return self.fiber.transmission * self.signal_filter.transmission * self.channels.signal

    @property
    def idler_channel_transmission(self) -> float:
        return self.fiber.transmission * self.idler_filter.transmission * self.channels.idler

    @property
    def gate_divisor(self) -> int:
        return self.detectors[0].gate_divisor


def normalize(config: SourceConfig) -> NormalizedBandwidths:
    """Normalized filter bandwidths (sigma_s/sigma_p, sigma_i/sigma_p)."""
    sp = config.pump.bandwidth_sigma
    return NormalizedBandwidths(
        sigma_s_prime=config.signal_filter.sigma / sp,
        sigma_i_prime=config.idler_filter.sigma / sp,
    )


def make_symmetric_config(
    sigma_s_prime: float,
    sigma_i_prime: float,
    g_squared: float,
    *,
    eta_signal: float = 1.0,
    eta_idler: float = 1.0,
    det_efficiencies: tuple[float, float, float] = (1.0, 1.0, 1.0),
    dark: tuple[float, float, float] = (0.0, 0.0, 0.0),
    gate_divisor: int = 1,
    dead_time_gates: int = 0,
) -> SourceConfig:
    """Build an exactly energy-matched config in normalized units.

    Used by tests and oracles: the pump width is 1, and the filter centers
    sit symmetrically about the pump carrier at +-60 pump widths, so the
    closed forms apply with no center-mismatch correction.  The carrier is
    placed at a tiny angular frequency (1e4 pump widths) so center symmetry
    survives the nm round-trip at double precision.
    """
    omega_p = 1e4
    pump = PumpSpec(center_wavelength=TWO_PI_C_NM / omega_p, bandwidth_sigma=1.0)
    signal = FilterSpec(
        center_wavelength=TWO_PI_C_NM / (omega_p + 60.0),
        sigma=float(sigma_s_prime),
        transmission=eta_signal,
    )
    idler = FilterSpec(
        center_wavelength=TWO_PI_C_NM / (omega_p - 60.0),
        sigma=float(sigma_i_prime),
        transmission=eta_idler,
    )
    detectors = tuple(
        DetectorSpec(
            efficiency=eff,
            dark_count_prob=dk,
            gate_divisor=gate_divisor,
            dead_time_gates=dead_time_gates,
        )
        for eff, dk in zip(det_efficiencies, dark)
    )
    return SourceConfig(
        pump=pump,
        fiber=FiberSpec(),
        gain=GainParameter(g_squared),
        signal_filter=signal,
        idler_filter=idler,
        detectors=detectors,
    )


# ---------------------------------------------------------------------------
# JSON boundary.  The document is {"pump", "fiber", "gain", "filters":
# {"signal", "idler"}, "detectors": [three entries], ["channels"]}.  Each
# object is read and written through one key table below, whose keys name
# the fields of the object's dataclass in field order.  A key is optional
# when its field has a default, and a key that is present is validated
# either way.  Fiber length and gamma, peak power, repetition rate and gate
# width are informational: no formula reads them.  Any other key is an
# error, since a misspelt optional key would otherwise load its default
# silently.
# ---------------------------------------------------------------------------

_PUMP_KEYS = ("center_nm", "fwhm_nm", "peak_power_w", "rep_rate_hz")
_FIBER_KEYS = ("length_m", "gamma_per_w_km", "transmission")
_GAIN_KEYS = ("g_squared",)
_FILTER_KEYS = ("center_nm", "fwhm_nm", "transmission")
_DETECTOR_KEYS = ("efficiency", "dark_count_prob", "gate_divisor", "dead_time_gates",
                  "gate_width_ns")
_CHANNEL_KEYS = ("signal_extra", "idler_extra")


def _object(node, where: str, keys: tuple[str, ...]) -> dict:
    """node, checked to be a JSON object that holds only keys of the schema.
    Every object of the document is read through here."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a JSON object, got {node!r}")
    for key in node:
        if key not in keys:
            raise ConfigError(f"unknown key '{key}' in {where}; expected one of {', '.join(keys)}")
    return node


def _require(mapping: dict, key: str, where: str, default=None):
    """mapping[key], required unless a default is given."""
    if key in mapping:
        return mapping[key]
    if default is None:
        raise ConfigError(f"missing key '{key}' in {where}")
    return default


def _spec_from_dict(cls, node, where: str, keys: tuple[str, ...]):
    """cls from the JSON object node, whose keys name cls's fields in order.

    Every value must be a finite JSON number, not text or a boolean (JSON
    admits NaN and Infinity, which no field of the model can hold), an int
    field an integral one, and fwhm_nm is converted to a sigma at the
    object's own center_nm.
    """
    node = _object(node, where, keys)
    values = {}
    for key, f in zip(keys, fields(cls), strict=True):
        value = _require(node, key, where, None if f.default is MISSING else f.default)
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        try:
            number = float(value) if is_number else math.nan
        except OverflowError:  # a JSON integer no float holds
            number = math.nan
        if not math.isfinite(number):
            raise ConfigError(f"{where}.{key} must be a finite number, got {value!r}")
        if f.type == "int":
            if not number.is_integer():
                raise ConfigError(f"{where}.{key} must be an integer, got {number!r}")
            number = int(number)
        if key == "fwhm_nm":
            number = fwhm_nm_to_sigma(number, values["center_wavelength"])
        values[f.name] = number
    return cls(**values)


def _spec_to_dict(spec, keys: tuple[str, ...]) -> dict:
    """Inverse of :func:`_spec_from_dict`."""
    doc = {key: getattr(spec, f.name) for key, f in zip(keys, fields(spec), strict=True)}
    if "fwhm_nm" in doc:
        doc["fwhm_nm"] = sigma_to_fwhm_nm(doc["fwhm_nm"], spec.center_wavelength)
    return doc


def config_from_dict(doc: dict) -> SourceConfig:
    doc = _object(doc, "config", ("pump", "fiber", "gain", "filters", "detectors", "channels"))
    pump = _spec_from_dict(PumpSpec, _require(doc, "pump", "config"), "pump", _PUMP_KEYS)
    fiber = _spec_from_dict(FiberSpec, _require(doc, "fiber", "config"), "fiber", _FIBER_KEYS)
    gain = _spec_from_dict(GainParameter, _require(doc, "gain", "config"), "gain", _GAIN_KEYS)
    bands = ("signal", "idler")
    filters = _object(_require(doc, "filters", "config"), "filters", bands)
    detectors = _require(doc, "detectors", "config")
    if not isinstance(detectors, list):
        raise ConfigError(f"detectors must be a JSON array, got {detectors!r}")
    if len(detectors) != 3:
        raise ConfigError("config needs exactly three detector entries")
    detectors = tuple(_spec_from_dict(DetectorSpec, d, f"detectors[{i}]", _DETECTOR_KEYS)
                      for i, d in enumerate(detectors))
    channels = _spec_from_dict(ChannelExtras, _require(doc, "channels", "config", {}),
                               "channels", _CHANNEL_KEYS)
    signal, idler = (
        _spec_from_dict(FilterSpec, _require(filters, band, "filters"), f"filters.{band}",
                        _FILTER_KEYS)
        for band in bands
    )
    return SourceConfig(pump, fiber, gain, signal, idler, detectors, channels)


def config_to_dict(config: SourceConfig) -> dict:
    return {
        "pump": _spec_to_dict(config.pump, _PUMP_KEYS),
        "fiber": _spec_to_dict(config.fiber, _FIBER_KEYS),
        "gain": _spec_to_dict(config.gain, _GAIN_KEYS),
        "filters": {
            "signal": _spec_to_dict(config.signal_filter, _FILTER_KEYS),
            "idler": _spec_to_dict(config.idler_filter, _FILTER_KEYS),
        },
        "detectors": [_spec_to_dict(d, _DETECTOR_KEYS) for d in config.detectors],
        "channels": _spec_to_dict(config.channels, _CHANNEL_KEYS),
    }


def load_config(path) -> SourceConfig:
    """Load a SourceConfig from a JSON file (schema above)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def with_gain(config: SourceConfig, g_squared: float) -> SourceConfig:
    """Copy of config with a different |G|^2.  Only the new gain is checked:
    dataclasses.replace would re-run SourceConfig.__post_init__ on fields the
    copy shares with config and repeat its center warning."""
    copy = object.__new__(SourceConfig)
    copy.__dict__.update(vars(config), gain=GainParameter(g_squared))
    return copy
