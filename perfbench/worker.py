"""One workload process: set up, report readiness, then run timed passes.

Started by run.py, which times set-up from process start to the ``ready``
line.  With ``--setup-only`` the process exits there.  Otherwise it runs
untraced passes until ``--seconds`` have passed (at least one), with
``--trace 1`` adds one traced pass, and checks the outputs of every pass.  The last stdout line
is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracer
from workloads import WORKLOADS

MAX_FAILURES_SHOWN = 20


def versions() -> dict[str, str]:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def layer_metrics(spans: dict, values: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-module metrics of one traced pass; times are self times in seconds."""

    def get(name, key="self_s"):
        return spans.get(name, {}).get(key, 0)

    fits = sorted(spans.get("estimate.estimate_rlm", {}).get("durations", [])
                  + spans.get("estimate.estimate_ulm", {}).get("durations", []))
    objective_calls = sum(values.get(f"estimate.calls.{k}", 0) for k in ("rlm", "ulm", "tensor"))
    infeasible = get("estimate.nll", "raised") + get("estimate.grad", "raised")
    out = {}
    for name in ("estimate.nll", "estimate.grad", "estimate.cholesky", "kernels.cov_matrix",
                 "kernels.grad_cov_matrix", "kernels.cross_cov", "gp.fit_gp",
                 "bench.lhs_maximin"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.s"] = get(name)
    out["estimate.lbfgsb.runs"] = get("estimate.lbfgsb", "calls")
    out["estimate.lbfgsb.s"] = get("estimate.lbfgsb")
    out["estimate.fit_s.p50"] = float(np.percentile(fits, 50)) if fits else 0.0
    out["estimate.fit_s.p80"] = float(np.percentile(fits, 80)) if fits else 0.0
    for k in ("rlm", "ulm", "tensor"):
        out[f"estimate.calls.{k}"] = values.get(f"estimate.calls.{k}", 0)
    out["estimate.infeasible_ratio"] = infeasible / objective_calls if objective_calls else 0.0
    out["estimate.rlm.improving_ratio"] = values.get("estimate.rlm.improving_ratio", 0.0)
    out["kernels.cross_cov.cells"] = get("kernels.cross_cov", "cells")
    out["gp.degenerate.count"] = get("gp.degenerate", "calls")
    for name in ("gp.predict_mean", "gp.predict_var", "gp.sub_model", "gp.centered_effect",
                 "bench.sample_gp_path", "cli.predict", "cli.effects"):
        out[f"{name}.s"] = get(name)
    out["cli.bytes_written"] = values.get("cli.bytes_written", 0)
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="gzip CSV file for the traced pass's spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    clock = time.perf_counter
    pass_s, outs, per_pass = [], [], []
    attempted, failures = 0, []
    start = clock()
    while not pass_s or clock() - start < args.seconds:
        t0 = clock()
        out = workload.run()
        pass_s.append(clock() - t0)
        n, bad = workload.check(out)
        attempted += n
        failures += bad
        per_pass.append(workload.values(out))
        outs.append(out)
    values = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    result = {"pass_s": pass_s, "values": values, "versions": versions()}

    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        traced_run = tr.span("pass", workload.run)
        t0 = clock()
        try:
            out = traced_run()
        finally:
            traced_s = clock() - t0
            tr.uninstall()
        n, bad = workload.check(out)
        attempted += n
        failures += bad
        outs.append(out)
        result["layers"] = layer_metrics(
            tr.summary(), workload.values(out), traced_s, statistics.median(pass_s))
        if args.spans:
            tr.write(args.spans)
    failures += workload.check_repeat(outs)
    result.update(
        attempted=attempted,
        failed=min(len(failures), attempted),  # a failed gate counts as one failed attempt
        failures=failures[:MAX_FAILURES_SHOWN],
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
