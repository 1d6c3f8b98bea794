"""Physical scenario definitions: power budget, coherence, antennas, fading law.

Everything downstream (bounds, channel synthesis, Monte-Carlo checks) is
parameterized by a :class:`ChannelScenario`.  All quantities are kept in SI
units (hertz, seconds) and all rates produced from them are in nats/s; the
only unit conversion in the package is the optional dB input at the parse
boundary.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass

__all__ = [
    "ScenarioError",
    "ParseError",
    "ValidationError",
    "FadingFamily",
    "ChannelScenario",
    "kurtosis",
    "parse_scenario",
    "serialize_scenario",
]

RAYLEIGH = "rayleigh"
RICE = "rice"
NAKAGAMI = "nakagami"


class ScenarioError(ValueError):
    """Base class for scenario construction/parsing failures."""


class ParseError(ScenarioError):
    """Malformed scenario document (syntax, unknown or duplicate key)."""


class ValidationError(ScenarioError):
    """Well-formed document whose values violate a scenario invariant."""


@dataclass(frozen=True)
class FadingFamily:
    """Small-scale fading law of the channel coefficients.

    ``kind`` is one of ``rayleigh``, ``rice`` (``param`` = line-of-sight
    factor k >= 0) or ``nakagami`` (``param`` = shape m > 0).  Rayleigh has
    no parameter: any given one is replaced by 0.0, so every Rayleigh family
    is one value.  The parameter and its kurtosis must be finite: Rice k up to
    about 6.7e153, where 4k^2 overflows, and Nakagami m from about 5.6e-309.
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in (RAYLEIGH, RICE, NAKAGAMI):
            raise ValidationError(f"unknown fading kind {self.kind!r}")
        if self.kind == RAYLEIGH:
            object.__setattr__(self, "param", 0.0)
        if self.kind == RICE and not self.param >= 0:
            raise ValidationError("rice factor k must be >= 0")
        if self.kind == NAKAGAMI and not self.param > 0:
            raise ValidationError("nakagami shape m must be > 0")
        try:
            finite = math.isfinite(self.param) and math.isfinite(kurtosis(self))
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(f"{self.label}: the parameter and its kurtosis must be finite")

    @classmethod
    @functools.cache  # one Rayleigh family, made once
    def rayleigh(cls) -> "FadingFamily":
        return cls(RAYLEIGH)

    @classmethod
    def rice(cls, k: float) -> "FadingFamily":
        return cls(RICE, float(k))

    @classmethod
    def nakagami(cls, m: float) -> "FadingFamily":
        return cls(NAKAGAMI, float(m))

    @property
    def label(self) -> str:
        """Scenario-file spelling: ``rayleigh``, ``rice:<k>`` or ``nakagami:<m>``."""
        if self.kind == RAYLEIGH:
            return RAYLEIGH
        return f"{self.kind}:{self.param!r}"


def kurtosis(fading: FadingFamily) -> float:
    """Kurtosis of the fading coefficients, E|h|^4 / (E|h|^2)^2.

    Rayleigh gives 2, Rice with factor k gives 2 - 4k^2/(1+2k)^2 and
    Nakagami-m gives 1 + 1/m.
    """
    if fading.kind == RAYLEIGH:
        return 2.0
    if fading.kind == RICE:
        k = fading.param
        return 2.0 - 4.0 * k * k / (1.0 + 2.0 * k) ** 2
    return 1.0 + 1.0 / fading.param


@dataclass(frozen=True, init=False)
class ChannelScenario:
    """Block-fading wideband MIMO setup.

    P/N0, Tc, Bc and Bc*Tc must be finite: the bounds have no finite value at
    an infinite one.  P/N0 must also be a normal float64, at least
    2.2250738585072014e-308: every bound and occupancy is proportional to it,
    and a subnormal one has lost digits before any formula runs.

    Attributes:
        snr_density: P/N0 in hertz (received power over noise PSD).
        coherence_time: Tc in seconds.
        coherence_bandwidth: Bc in hertz.
        nt: number of transmit antennas.
        nr: number of receive antennas.
        fading: fading law of the channel coefficients.
        coherence_product: Bc*Tc, the number of time-frequency units per fading block.
        wideband_limit: infinite-bandwidth AWGN capacity Nr*P/N0 in nats/s.
        moment_factor: K = kappa-2+Nt+Nr, the fourth-moment factor of the coherent term.

    The last three are set in construction and are not dataclass fields:
    ``==``, ``hash`` and ``repr`` read the six fields, and
    ``dataclasses.replace`` derives them afresh.
    """

    snr_density: float
    coherence_time: float
    coherence_bandwidth: float
    nt: int
    nr: int
    fading: FadingFamily

    def __init__(self, snr_density, coherence_time, coherence_bandwidth, nt, nr, fading):
        # Fills __dict__ directly: a frozen dataclass's generated __init__
        # calls object.__setattr__ once per field.
        tc, bc = coherence_time, coherence_bandwidth
        if not snr_density > 0:
            raise ValidationError("snr_density must be > 0")
        if snr_density < sys.float_info.min:
            raise ValidationError(f"snr_density {snr_density!r} is subnormal: it must be "
                                  f">= {sys.float_info.min!r}, the smallest normal float64")
        if not tc > 0:
            raise ValidationError("coherence_time must be > 0")
        if not bc > 0:
            raise ValidationError("coherence_bandwidth must be > 0")
        if not (isinstance(nt, int) and nt >= 1):
            raise ValidationError("nt must be a positive integer")
        if not (isinstance(nr, int) and nr >= 1):
            raise ValidationError("nr must be a positive integer")
        if not (product := bc * tc) > 1:
            raise ValidationError("coherence product <= 1")
        for name, value in (("snr_density", snr_density), ("coherence_time", tc),
                            ("coherence_bandwidth", bc), ("coherence_product", product)):
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
        d = self.__dict__
        d["snr_density"], d["coherence_time"], d["coherence_bandwidth"] = snr_density, tc, bc
        d["nt"], d["nr"], d["fading"] = nt, nr, fading
        d["coherence_product"], d["wideband_limit"] = product, nr * snr_density
        d["moment_factor"] = kurtosis(fading) - 2.0 + nt + nr


# Scenario-file keys.  snr_density_hz and snr_density_db_hz are mutually
# exclusive spellings of the same quantity.
_KEYS = {
    "snr_density_hz",
    "snr_density_db_hz",
    "coherence_time_s",
    "coherence_bandwidth_hz",
    "nt",
    "nr",
    "fading",
}


def _parse_fading(text: str) -> FadingFamily:
    text = text.strip().lower()
    if text == RAYLEIGH:
        return FadingFamily.rayleigh()
    for kind in (RICE, NAKAGAMI):
        if text.startswith(kind + ":"):
            try:
                param = float(text[len(kind) + 1:])
            except ValueError:
                raise ParseError(f"bad {kind} parameter in {text!r}") from None
            return FadingFamily(kind, param)
    raise ParseError(f"unknown fading spec {text!r}")


def _parse_flat(text: str) -> dict:
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, equals, value = raw.partition("#")[0].partition("=")
        key = key.strip()
        if key and not equals:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if not equals:
            continue
        if key not in _KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in fields:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value.strip()
    return fields


def _field(fields: dict, key: str, convert):
    if key not in fields:
        raise ValidationError(f"missing required field {key!r}")
    try:
        return convert(fields[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"field {key!r}: {exc}") from None


def _as_int(value) -> int:
    """An integer field; OverflowError for infinity or beyond the float range."""
    if isinstance(value, bool) or isinstance(value, float) and value != int(value):
        raise ValueError("expected integer")
    number = int(value) if isinstance(value, (int, float)) else int(str(value).strip())
    float(number)  # the bounds take nt and nr as floats
    return number


def _from_db(value) -> float:
    """10^(value/10); ValueError when that overflows a float."""
    db = float(value)
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db!r} dB overflows a float") from None


def parse_scenario(text: str) -> ChannelScenario:
    """Parse a scenario document (flat ``key = value`` form or JSON object).

    Raises ParseError on malformed input and ValidationError when a field is
    missing or violates a scenario invariant.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            fields = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON scenario: {exc}") from None
        if not isinstance(fields, dict):
            raise ParseError("JSON scenario must be an object")
        unknown = set(fields) - _KEYS
        if unknown:
            raise ParseError(f"unknown keys {sorted(unknown)}")
    else:
        fields = _parse_flat(text)

    if "snr_density_hz" in fields and "snr_density_db_hz" in fields:
        raise ParseError("give either snr_density_hz or snr_density_db_hz, not both")
    if "snr_density_db_hz" in fields:
        snr_density = _field(fields, "snr_density_db_hz", _from_db)
    else:
        snr_density = _field(fields, "snr_density_hz", float)

    fading = fields.get("fading")
    if fading is None:
        raise ValidationError("missing required field 'fading'")
    fading = _parse_fading(str(fading))

    return ChannelScenario(
        snr_density=snr_density,
        coherence_time=_field(fields, "coherence_time_s", float),
        coherence_bandwidth=_field(fields, "coherence_bandwidth_hz", float),
        nt=_field(fields, "nt", _as_int),
        nr=_field(fields, "nr", _as_int),
        fading=fading,
    )


def serialize_scenario(scenario: ChannelScenario) -> str:
    """Render a scenario in the canonical flat form; parse round-trips exactly."""
    lines = [
        f"snr_density_hz = {scenario.snr_density!r}",
        f"coherence_time_s = {scenario.coherence_time!r}",
        f"coherence_bandwidth_hz = {scenario.coherence_bandwidth!r}",
        f"nt = {scenario.nt}",
        f"nr = {scenario.nr}",
        f"fading = {scenario.fading.label}",
    ]
    return "\n".join(lines) + "\n"
