"""Acceptance gate: one test per selftest criterion.

Each test delegates to the corresponding criterion function in
``isodeform.selftest`` (the same functions the ``isodeform selftest``
subcommand runs), prints its pass/fail line, and asserts the verdict.
The criterion functions pin every chart, operator, grid, and tolerance.
"""

import dataclasses

from isodeform import selftest


def _run(name):
    fn = dict(selftest.CRITERIA)[name]
    ok, detail = fn()
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail


def test_structure_equations():
    _run("structure-equations")


def test_sphere_parallel_offset():
    _run("sphere-parallel-offset")


def test_gauss_translation():
    _run("gauss-translation")


def test_metric_realization():
    _run("metric-realization")


def test_deformed_connection_curvature():
    _run("deformed-connection-curvature")


def test_loop_and_path_integration():
    _run("loop-and-path-integration")


def test_wedge_and_kernel():
    _run("wedge-and-kernel")


def test_gauss_map_congruence():
    _run("gauss-map-congruence")


def test_roundtrip_gauge():
    _run("roundtrip-gauge")


def test_negative_controls():
    _run("negative-controls")


def test_oracle_agreement():
    _run("oracle-agreement")


def test_selftest_runner_reports_all_pass(capsys):
    assert selftest.run_selftest()
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(selftest.CRITERIA)
    assert all(ln.startswith("PASS ") for ln in lines)


def test_suite_criterion_fails_with_its_checks(monkeypatch):
    # a criterion read off the suites fails as soon as one named check does
    scene = selftest._SCENES["roundtrip"]()
    strict = dataclasses.replace(scene, tol={"gauge_recovery": 1e-30})
    monkeypatch.setitem(selftest._SCENES, "roundtrip", lambda: strict)
    selftest._report.cache_clear()
    try:
        ok, detail = dict(selftest.CRITERIA)["roundtrip-gauge"]()
    finally:
        selftest._report.cache_clear()
    assert not ok
    assert "gauge_recovery" in detail and "(tol 1e-30)" in detail
