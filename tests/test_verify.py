"""The named check suites should all pass at their default seed."""

import pytest

from kplane import verify
from kplane.verify import SUITE_NAMES, run_suite


@pytest.mark.parametrize("suite", ("rearrange", "lorentz", "symmetry", "drury", "flow"))
def test_suite_passes(suite, verify_run):
    results, _ = verify_run(suite)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    assert results, "suite returned no checks"
    assert all(r.passed for r in results)


def test_suite_names():
    assert SUITE_NAMES == ("all", "rearrange", "lorentz", "symmetry", "drury", "flow")


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nosuch")


def test_all_runs_every_suite_in_order(verify_run, monkeypatch):
    # run_suite("all") dispatches to every suite in turn; each suite hands
    # back its shared session run instead of running again. The runs are
    # made before the suites are replaced: verify_run itself calls run_suite
    runs = {name: verify_run(name)[0] for name in SUITE_NAMES[1:]}
    calls = []
    for name in runs:

        def recorded(seed, name=name, **kwargs):
            calls.append((name, seed))
            return runs[name]

        monkeypatch.setitem(verify._SUITES, name, recorded)
    results = run_suite("all", seed=0)
    assert calls == [(name, 0) for name in SUITE_NAMES[1:]]
    names = [r.name for r in results]
    # 7 rearrange + 3 lorentz + 5 symmetry + 3 drury + 6 flow
    assert len(names) == 24
    assert len(set(names)) == 24
    prefixes = [n.split("-")[0] for n in names]
    order = []
    for p in prefixes:
        if not order or order[-1] != p:
            order.append(p)
    assert order == ["rearrange", "lorentz", "s", "inversion", "drury", "flow"]
    assert all(r.passed for r in results)
