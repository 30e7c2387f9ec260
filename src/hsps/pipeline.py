"""Experimental data-reduction chain, parameter sweeps and the filter
strategies read off them.

Count records taken as a function of average pump power are fitted with the
two-origin model

    N_i(P) = s1 * P + s2 * P^2        (counts per gated pulse, P in mW)

whose linear part is spontaneous Raman background and whose quadratic part
is the pair process.  The Raman part is then subtracted from the herald
singles and from every accidental-bearing quantity, giving corrected CAR,
heralded g2 and heralding efficiency that can be compared against the
closed forms.  See docs/raman_correction.md for the subtraction algebra;
the correction adjusts two-fold coincidences and triples as well as
singles, which ``hsps correct`` records in its manifest.

CSV schema for power records (header mandatory, comma separated, UTF-8):

    p_ave_mw, gates, s1_counts, s2_counts, s3_counts,
    c12, c13, c23, acc12, acc13, t123
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from .config import ConfigWarning, SourceConfig, config_from_dict, normalize
from .montecarlo import (
    EstimationError,
    EstimatorResult,
    TallyCounters,
    build_pulse_model,
    estimate,
    simulate,
)
from .stats import (
    car as car_closed_form,
    collection_efficiency,
    heralded_g2_approx,
    pair_rate,
    unconditional_g2,
)


class PipelineError(ValueError):
    """Malformed input data or an ill-posed reduction step."""


class CorrectionRegimeError(EstimationError):
    """The estimate of one power point failed, mostly because Raman
    subtraction left nonpositive counts: the fit does not describe these
    records."""


# After p_ave_mw, the columns are the fields of TallyCounters in its order
# (gates, singles_1..3, coinc_12/13/23, acc_12/13, triples_123).
RECORD_COLUMNS = (
    "p_ave_mw", "gates", "s1_counts", "s2_counts", "s3_counts",
    "c12", "c13", "c23", "acc12", "acc13", "t123",
)


@dataclass(frozen=True)
class PowerPointRecord:
    p_ave: float                   # average pump power, mW
    tallies: TallyCounters

    def __post_init__(self):
        if self.p_ave <= 0:
            raise PipelineError(f"p_ave must be positive, got {self.p_ave}")


@dataclass(frozen=True)
class QuadraticFit:
    """Through-origin quadratic fit N = s1 P + s2 P^2.

    Units: s1 in counts/pulse/mW, s2 in counts/pulse/mW^2.  covariance is
    the 2x2 parameter covariance from the residual variance.
    """

    s1: float
    s2: float
    residual_rms: float
    covariance: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        if self.residual_rms < 0:
            raise PipelineError("residual_rms must be nonnegative")


def write_power_records(path, records: list[PowerPointRecord]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS)
        for rec in records:
            writer.writerow([f"{rec.p_ave:.10g}", *astuple(rec.tallies)])


def read_power_records(path) -> list[PowerPointRecord]:
    """Parse and validate a power-record CSV, sorted by increasing power.

    Schema violations and tallies that contradict each other name the
    offending row (and column, for a cell); duplicate power points only
    warn.
    """
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            warnings.warn(f"{path}: empty file, no records", ConfigWarning, stacklevel=2)
            return []
        if [h.strip() for h in header] != list(RECORD_COLUMNS):
            raise PipelineError(
                f"{path}: bad header {header!r}, expected {','.join(RECORD_COLUMNS)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(RECORD_COLUMNS):
                raise PipelineError(f"{path}:{line_no}: expected {len(RECORD_COLUMNS)} columns")
            values = {}
            for col, cell in zip(RECORD_COLUMNS, row):
                try:
                    values[col] = float(cell) if col == "p_ave_mw" else int(cell)
                except ValueError:
                    raise PipelineError(
                        f"{path}:{line_no}: column {col}: cannot parse {cell!r}"
                    ) from None
            if not math.isfinite(values["p_ave_mw"]):
                raise PipelineError(f"{path}:{line_no}: column p_ave_mw: {row[0]!r} is not finite")
            if values["gates"] < 1:
                raise PipelineError(f"{path}:{line_no}: column gates: {row[1]!r} is not a positive count")
            try:
                tallies = TallyCounters(*(values[c] for c in RECORD_COLUMNS[1:]))
                records.append(PowerPointRecord(p_ave=values["p_ave_mw"], tallies=tallies))
            except ValueError as exc:  # tallies that contradict each other, p_ave <= 0
                raise PipelineError(f"{path}:{line_no}: {exc}") from None
    powers = [r.p_ave for r in records]
    if len(set(powers)) != len(powers):
        warnings.warn(f"{path}: duplicate power points", ConfigWarning, stacklevel=2)
    return sorted(records, key=lambda r: r.p_ave)


def _band_counts_per_gate(record: PowerPointRecord, band: str) -> float:
    t = record.tallies
    if band == "idler":
        return t.singles_1 / t.gates
    if band == "signal":
        return (t.singles_2 + t.singles_3) / t.gates
    raise PipelineError(f"band must be 'idler' or 'signal', got {band!r}")


def fit_quadratic(records: list[PowerPointRecord], band: str = "idler") -> QuadraticFit:
    """Least-squares fit of counts/gate vs power through the origin.

    Solved by the normal equations of the design [P, P^2]; needs at least
    three distinct power points so the residual variance has a degree of
    freedom.
    """
    if len({r.p_ave for r in records}) < 3:
        raise PipelineError("need at least 3 distinct power points for the quadratic fit")
    p = np.array([r.p_ave for r in records])
    y = np.array([_band_counts_per_gate(r, band) for r in records])
    design = np.column_stack([p, p**2])
    gram = design.T @ design
    if np.linalg.cond(gram) > 1e12:
        raise PipelineError("power points are degenerate: quadratic fit is rank deficient")
    coeffs = np.linalg.solve(gram, design.T @ y)
    residuals = y - design @ coeffs
    dof = len(records) - 2
    sigma2 = float(residuals @ residuals) / dof
    cov = sigma2 * np.linalg.inv(gram)
    return QuadraticFit(
        s1=float(coeffs[0]),
        s2=float(coeffs[1]),
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
        covariance=tuple(map(tuple, cov.tolist())),
    )


@dataclass(frozen=True)
class CorrectedEstimates:
    """Raman-subtracted figures for one power point."""

    p_ave: float
    p_pair: float
    car: EstimatorResult
    g_c2: EstimatorResult
    h: EstimatorResult
    raw_h: EstimatorResult
    raman_fraction: float          # Raman share of the herald singles


def raman_correct(
    records: list[PowerPointRecord],
    fit: QuadraticFit,
    config: SourceConfig,
) -> list[CorrectedEstimates]:
    """Remove the linear (Raman) background from each record.

    Per record, with beta = s1 * p_ave the fitted Raman counts per gate in
    the herald band and rates per gate n1, n2, ..., c12, ..., t123:

        n1'   = n1  - beta                  herald singles
        c12'  = c12 - beta * n2             two-fold coincidences
        a12'  = a12 - beta * n2             accidentals
        t123' = t123 - beta * c23           triples

    (same for the 1-3 pair).  Raman clicks are independent of the signal
    band, so they enter every herald-bearing rate through products with the
    unconditioned signal-side rate; subtraction is first order in beta.
    The corrected CAR, g2 and H are :func:`estimate` with this beta and the
    fit variance of s1 * p_ave as var_beta, and raw_h is the H of
    :func:`estimate` on the raw tallies.  An estimate that fails raises
    :class:`CorrectionRegimeError` naming the power point.
    """
    eta_i, eta_1 = config.idler_channel_transmission, config.detectors[0].efficiency
    if eta_i * eta_1 <= 0:
        raise PipelineError("herald-path detection efficiency is zero: no pair rate")
    bands = normalize(config)
    xi = collection_efficiency(bands.sigma_s_prime, bands.sigma_i_prime)
    var_s1 = fit.covariance[0][0]

    out = []
    for rec in records:
        t = rec.tallies
        beta = fit.s1 * rec.p_ave
        try:
            figures = estimate(t, config, beta=beta, var_beta=var_s1 * rec.p_ave**2)
        except EstimationError as exc:
            raise CorrectionRegimeError(f"p_ave={rec.p_ave}: {exc}") from None
        n1 = t.singles_1 / t.gates
        out.append(
            CorrectedEstimates(
                p_ave=rec.p_ave,
                p_pair=pair_rate(n1 - beta, eta_i, eta_1, xi),
                car=figures.car,
                g_c2=figures.g_c2,
                h=figures.h,
                raw_h=estimate(t, config).h,
                raman_fraction=beta / n1,
            )
        )
    return out


def power_slope(p_values, values, std_errors) -> tuple[float, float]:
    """Weighted straight-line slope of values vs power, with its standard
    error; used to test whether a corrected quantity still trends with
    pump power."""
    p = np.asarray(p_values, dtype=float)
    y = np.asarray(values, dtype=float)
    w = 1.0 / np.clip(np.asarray(std_errors, dtype=float), 1e-300, None) ** 2
    if p.size < 3:
        raise PipelineError("need at least 3 points for a slope test")
    sw = w.sum()
    pbar = (w * p).sum() / sw
    ybar = (w * y).sum() / sw
    spp = (w * (p - pbar) ** 2).sum()
    if spp == 0.0:
        raise PipelineError("all powers equal: slope undefined")
    slope = (w * (p - pbar) * (y - ybar)).sum() / spp
    return float(slope), float(1.0 / math.sqrt(spp))


# ---------------------------------------------------------------------------
# synthetic power sweeps (ground truth for the reduction chain)
# ---------------------------------------------------------------------------


def synthesize_power_sweep(
    config: SourceConfig,
    s1: float,
    s2: float,
    powers,
    pulses_per_point: int,
    seed: int,
    config_id: str = "synthetic",
    workers: int = 1,
) -> list[PowerPointRecord]:
    """Simulated power sweep with Raman background on, one record per power.

    s1 and s2 are photon-level coefficients (mean photons per pulse reaching
    the idler band, per mW and per mW^2); detected-count coefficients come
    out scaled by the herald path efficiency, which is what the quadratic
    fit recovers.  The simulation runs on one thread; config_id and workers
    have no effect and are kept only because the benchmark's sweep_reduce
    workload passes them.
    """
    records = []
    for k, p_ave in enumerate(powers):
        model = build_pulse_model(config, source="analytic", raman=(s1, s2, float(p_ave)))
        tallies = simulate(model, pulses_per_point, seed=seed + 7919 * k)
        records.append(PowerPointRecord(p_ave=float(p_ave), tallies=tallies))
    return records


# The paper's filter pairs behind its 0.3 nm pump, label -> (signal, idler) FWHM
# in nm, and their photon-level Raman/pair coefficients (s1 per mW, s2 per mW^2)
# keyed by the idler FWHM
PAPER_FILTER_PAIRS = {"F_I": (0.6, 0.6), "F_II": (1.1, 0.6), "F_III": (1.1, 1.1)}
RAMAN_BY_IDLER_FWHM = {0.6: (0.030, 0.012), 1.1: (0.061, 0.027)}


def paper_filter_pair(label: str) -> tuple[SourceConfig, float, float]:
    """(config, s1, s2) of the paper's filter pair label (F_I, F_II, F_III).

    The centers are the quoted lab wavelengths, which miss energy
    conservation by ~11.2 pump sigmas, so the config warns.  |G|^2 is a
    placeholder that synthesize_power_sweep replaces by the power model's.
    """
    signal_fwhm, idler_fwhm = PAPER_FILTER_PAIRS[label]
    config = config_from_dict({
        "pump": {"center_nm": 1538.9, "fwhm_nm": 0.3},
        "fiber": {},
        "gain": {"g_squared": 1e-3},
        "filters": {"signal": {"center_nm": 1544.53, "fwhm_nm": signal_fwhm},
                    "idler": {"center_nm": 1531.9, "fwhm_nm": idler_fwhm}},
        "detectors": [{"efficiency": eff} for eff in (0.5, 0.8, 0.8)],
    })
    return (config, *RAMAN_BY_IDLER_FWHM[idler_fwhm])


# ---------------------------------------------------------------------------
# contour sweeps over normalized bandwidths
# ---------------------------------------------------------------------------

MAX_CONTOUR_POINTS = 1001      # per bandwidth axis; each surface holds its square


@dataclass(frozen=True)
class ContourGrid:
    sigma_values: np.ndarray    # the one normalized-bandwidth axis, signal and idler
    surfaces: dict              # name -> matrix indexed [sigma_s, sigma_i]
    p_pair: float

    def __post_init__(self):
        shape = (len(self.sigma_values),) * 2
        for name, surf in self.surfaces.items():
            if surf.shape != shape:
                raise PipelineError(f"surface {name} has shape {surf.shape}, expected {shape}")

    def value_at(self, name: str, sigma_s: float, sigma_i: float) -> float:
        ks = int(np.argmin(np.abs(self.sigma_values - sigma_s)))
        ki = int(np.argmin(np.abs(self.sigma_values - sigma_i)))
        return float(self.surfaces[name][ks, ki])


def sweep_contour(
    p_pair: float,
    sigma_range: tuple[float, float] = (0.1, 3.0),
    step: float = 0.05,
) -> ContourGrid:
    """CAR, approximate heralded g2 and heralding efficiency surfaces over
    the normalized-bandwidth plane at fixed pair rate; both bandwidth axes
    run over sigma_range = (min, max).

    H carries no p_pair dependence, so its surface is identical across
    sweeps at different pair rates.
    """
    lo, hi = sigma_range
    if p_pair <= 0:
        raise PipelineError("p_pair must be positive")
    if not (step > 0 and 0 < lo <= hi):
        raise PipelineError(f"need 0 < min <= max and step > 0, got {lo}:{hi}:{step}")
    # the length of np.arange below, checked before anything is allocated
    if not (hi - lo) / step + 0.5 <= MAX_CONTOUR_POINTS:
        raise PipelineError(f"grid {lo}:{hi}:{step} has over {MAX_CONTOUR_POINTS} points per axis")
    sig = np.arange(lo, hi + step / 2, step)
    car_surf = car_closed_form(p_pair, sig[:, None], sig[None, :])
    g2_surf = heralded_g2_approx(unconditional_g2(sig)[:, None], car_surf)
    h_surf = collection_efficiency(sig[:, None], sig[None, :])
    return ContourGrid(
        sigma_values=sig,
        surfaces={"car": car_surf, "g_c2": g2_surf, "h": h_surf},
        p_pair=p_pair,
    )


def write_contour_csv(grid: ContourGrid, path):
    """Long-form CSV (sigma_s_prime, sigma_i_prime, car, g_c2, h)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma_s_prime", "sigma_i_prime", "car", "g_c2", "h"])
        for a, ss in enumerate(grid.sigma_values):
            for b, si in enumerate(grid.sigma_values):
                writer.writerow(
                    [
                        f"{ss:.6g}", f"{si:.6g}",
                        f"{grid.surfaces['car'][a, b]:.8g}",
                        f"{grid.surfaces['g_c2'][a, b]:.8g}",
                        f"{grid.surfaces['h'][a, b]:.8g}",
                    ]
                )


# ---------------------------------------------------------------------------
# narrowband-filter strategies for indistinguishable heralded photons
# ---------------------------------------------------------------------------

NARROW_IDLER = "narrow_idler"      # single-mode herald, free signal bandwidth
NARROW_SIGNAL = "narrow_signal"    # single-mode heralded photon, free idler
NARROW_SIGMA = 0.3                 # normalized bandwidth of the pinned band


def strategy_curves(grid: ContourGrid) -> dict:
    """The two single-mode filter strategies, read off the contour surfaces.

    Returns strategy -> {surface name -> curve over grid.sigma_values, the
    free band's bandwidth}.  "narrow_idler" pins the herald band at the
    grid point nearest NARROW_SIGMA = 0.3 pump widths (the column of every
    surface) and "narrow_signal" pins the signal band (the row).  Both give
    the same CAR at mirrored bandwidths (the CAR is symmetric in the two
    bands) but different heralding efficiency, which favors narrowing the
    heralding band.
    """
    k = int(np.argmin(np.abs(grid.sigma_values - NARROW_SIGMA)))
    return {
        NARROW_IDLER: {name: surf[:, k] for name, surf in grid.surfaces.items()},
        NARROW_SIGNAL: {name: surf[k, :] for name, surf in grid.surfaces.items()},
    }


def better_strategies(grid: ContourGrid) -> tuple[str, str]:
    """(the strategy reaching the lower g_c2, the one reaching the higher
    H) over the grid; a tie goes to narrow_idler."""
    idler, signal = strategy_curves(grid).values()
    better_g2 = NARROW_IDLER if idler["g_c2"].min() <= signal["g_c2"].min() else NARROW_SIGNAL
    better_h = NARROW_IDLER if idler["h"].max() >= signal["h"].max() else NARROW_SIGNAL
    return better_g2, better_h


def write_strategy_csv(grid: ContourGrid, path):
    """Long-form CSV of both strategy curves: sigma_free, g_c2, h, strategy."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma_free", "g_c2", "h", "strategy"])
        for strategy, curve in strategy_curves(grid).items():
            for sig, g2v, hv in zip(grid.sigma_values, curve["g_c2"], curve["h"]):
                writer.writerow([f"{sig:.6g}", f"{g2v:.8g}", f"{hv:.8g}", strategy])


def write_corrected_csv(corrected: list[CorrectedEstimates], path):
    """Corrected estimates per power point, one row each."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "p_ave_mw", "p_pair", "car", "car_err", "g_c2", "g_c2_err",
                "h", "h_err", "raw_h", "raw_h_err", "raman_fraction",
            ]
        )
        for c in corrected:
            writer.writerow(
                [
                    f"{c.p_ave:.10g}", f"{c.p_pair:.8g}",
                    f"{c.car.value:.8g}", f"{c.car.std_error:.4g}",
                    f"{c.g_c2.value:.8g}", f"{c.g_c2.std_error:.4g}",
                    f"{c.h.value:.8g}", f"{c.h.std_error:.4g}",
                    f"{c.raw_h.value:.8g}", f"{c.raw_h.std_error:.4g}",
                    f"{c.raman_fraction:.6g}",
                ]
            )
