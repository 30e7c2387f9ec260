"""Per-layer metrics derived from the spans of a traced run.

Every metric is a per-pass number: a self time summed over the pass, a call
count, or a work counter the workload reports.  A workload's value is the
median over its traced passes; ``config.load_s`` and ``config.calls`` also
add the workload's set-up, where configs are loaded.  A metric takes its
value from the requested workload when that workload exercises it, and
otherwise from the first other workload (in benchmark order) that does;
the sources are recorded with the result.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS
from workloads import WORKLOADS

GRID_SUFFIXES = ("", "_n64", "_n128", "_n256")

# metric -> traced function(s), the self time of whose spans it reports
FUNCTION_METRICS = {
    "stats.full_report_s": "stats.full_report",
    "montecarlo.build_pulse_model_s": "montecarlo.build_pulse_model",
    "montecarlo.simulate_s": "montecarlo.simulate",
    "montecarlo.estimate_s": "montecarlo.estimate",
    "modes.mode_report_s": "modes.mode_report",
    "modes.filtered_jsa_s": "modes.filtered_jsa",
    "modes.schmidt_s": "modes.schmidt",
    "modes.marginal_mode_number_s": "modes.marginal_mode_number",
    "pipeline.synthesize_power_sweep_s": "pipeline.synthesize_power_sweep",
    "pipeline.write_power_records_s": "pipeline.write_power_records",
    "pipeline.read_power_records_s": "pipeline.read_power_records",
    "pipeline.fit_quadratic_s": "pipeline.fit_quadratic",
    "pipeline.raman_correct_s": "pipeline.raman_correct",
    "pipeline.write_corrected_csv_s": "pipeline.write_corrected_csv",
}
for _suffix in GRID_SUFFIXES:
    # unsuffixed: default grids; _nN: the explicit N-point scaling calls, whose
    # span names carry the suffix the workload sets on the tracer
    FUNCTION_METRICS.update({
        f"oracle.build_correlations{_suffix}_s": f"oracle.build_correlations{_suffix}",
        f"oracle.numeric_counts{_suffix}_s": f"oracle.numeric_counts{_suffix}",
        f"oracle.gaussian_low_gain{_suffix}_s": f"oracle.gaussian_click_probs[low_gain]{_suffix}",
        f"oracle.gaussian_all_order{_suffix}_s": (f"oracle.gaussian_click_probs[all_order]{_suffix}",
                                                  f"oracle.click_probs_from_pair_kernel{_suffix}"),
    })

COUNTER_METRICS = (
    "montecarlo.gates",
    "montecarlo.click_density",
    "montecarlo.deadtime_thinning_1",
    "oracle.max_rel_err_quadrature",
    "oracle.max_rel_err_low_gain",
    "pipeline.bytes_written",
)


def _pass_profiles(tracer):
    """{pass id: {span name: [self s, inclusive s, calls, cpu s]}}."""
    names, parent, passes, start, end = tracer.spans()
    inclusive = end - start
    self_time = tracer.self_times(parent, inclusive)
    profiles = defaultdict(dict)
    for i, (nid, pass_id) in enumerate(zip(names.tolist(), passes.tolist())):
        row = profiles[pass_id].setdefault(tracer.names[nid], [0.0, 0.0, 0, 0.0])
        row[0] += float(self_time[i])
        row[1] += float(inclusive[i])
        row[2] += 1
        row[3] += tracer.cpu.get(i, 0.0)
    return profiles


def _pass_metrics(profile, counters):
    out = {}
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    for fname, (self_s, _, calls, _) in profile.items():
        layer = fname.split(".", 1)[0]
        if layer in LAYERS:
            layer_self[layer] += self_s
            layer_calls[layer] += calls
    for layer in LAYERS:
        if layer_calls[layer]:
            out[f"{layer}.self_s"] = layer_self[layer]
    if layer_calls["config"]:
        out["config.calls"] = layer_calls["config"]
    if layer_calls["stats"]:
        out["stats.closed_form_calls"] = layer_calls["stats"]
    for metric, fnames in FUNCTION_METRICS.items():
        fnames = (fnames,) if isinstance(fnames, str) else fnames
        if any(f in profile for f in fnames):
            out[metric] = sum(profile[f][0] for f in fnames if f in profile)
    for metric in COUNTER_METRICS:
        if metric in counters:
            out[metric] = counters[metric]
    simulate = profile.get("montecarlo.simulate")
    if simulate and "montecarlo.gates" in counters:
        out["montecarlo.gates_per_s"] = counters["montecarlo.gates"] / simulate[1]
        out["montecarlo.cpu_util"] = simulate[3] / simulate[1]
    return out


def per_layer_metrics(tracer, pass_counters, requested):
    """Metric values and, per metric, the workload it came from."""
    profiles = _pass_profiles(tracer)
    by_workload = {}
    for name in WORKLOADS:
        passes = [pid for pid, label in tracer.pass_labels.items() if label == f"{name}:pass"]
        setup = [pid for pid, label in tracer.pass_labels.items() if label == f"{name}:setup"]
        rows = [_pass_metrics(profiles.get(pid, {}), pass_counters.get(pid, {})) for pid in passes]
        values = {}
        for metric in {m for row in rows for m in row}:
            values[metric] = statistics.median(row[metric] for row in rows if metric in row)
        setup_row = _pass_metrics(profiles.get(setup[0], {}), {}) if setup else {}
        values["config.load_s"] = values.pop("config.self_s", 0.0) + setup_row.get("config.self_s", 0.0)
        values["config.calls"] = values.get("config.calls", 0) + setup_row.get("config.calls", 0)
        if not values["config.calls"]:
            del values["config.load_s"], values["config.calls"]
        by_workload[name] = values

    order = [requested] + [name for name in WORKLOADS if name != requested]
    metrics, sources = {}, {}
    for metric in sorted({m for values in by_workload.values() for m in values}):
        source = next(name for name in order if metric in by_workload[name])
        metrics[metric] = by_workload[source][metric]
        sources[metric] = source
    return metrics, sources
