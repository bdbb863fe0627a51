"""tools/same_outputs.py tells a sweep's exact_tv drift and a Monte Carlo run's
new stream from a changed record."""

import importlib.util
from pathlib import Path

SAME_OUTPUTS = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
HEADER = "problem,params,lambda,exact_tv,mc_tv,mc_stderr,bound,convention,surrogate,verdict,seconds"


def _module():
    spec = importlib.util.spec_from_file_location("same_outputs", SAME_OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep(*exact_tvs, verdict="pass"):
    rows = [f'coloring,"c=2 k=2 n={i}",1.5,{tv},,,0.5,tv,false,{verdict},0.01'
            for i, tv in enumerate(exact_tvs)]
    return _module().mask_seconds("\n".join(["# schema=stein-poisson-cert-v1", HEADER, *rows]))


def test_exact_tv_drift_counts_moved_records():
    drift = _module().exact_tv_drift
    a = _sweep("0.25", "0.125", "0.5")
    b = _sweep("0.25000000000000006", "0.125", "0.4999999999999999")
    moved, largest = drift(a, b)
    assert moved == 2
    assert largest == abs(0.5 - 0.4999999999999999)
    assert drift(a, a) == (0, 0.0)


def test_other_changes_are_not_drift():
    drift = _module().exact_tv_drift
    a = _sweep("0.25", "0.125")
    assert drift(a, _sweep("0.25", "0.126", verdict="fail")) is None
    assert drift(a, _sweep("0.25")) is None
    assert drift("seconds: <masked>\nvalue: 1", "seconds: <masked>\nvalue: 2") is None


VERIFY = """mode: monte-carlo, 100000 trials
max standardized deviation: {dev} (gate 4.0)
  up z: {dev}  down z: 0.9  balance z: 0.5
verdict: {verdict}"""
MC_TV = "problem: matching\nmc_tv: {dev}\nmc_stderr: 0.001\nbound: 0.01\nverdict: {verdict}"


def test_sample_values_alone_are_a_stream():
    stream = _module().stream_only
    for report in (VERIFY, MC_TV):
        a = report.format(dev="1.415", verdict="pass")
        assert stream(a, report.format(dev="1.654", verdict="pass"))
        assert not stream(a, report.format(dev="1.654", verdict="fail"))
    assert not stream(VERIFY.format(dev="1.4", verdict="pass"),
                      VERIFY.format(dev="1.4", verdict="pass").replace("100000", "50000"))
    assert not stream("up z: 1.0", "up z: 2.0")  # no verdict line
