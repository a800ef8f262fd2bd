"""The benchmark's workloads run on the library as it stands.

`perfbench/workloads.py` calls the library by name (`theorems.reciprocal_sum`,
`cli.main`, ...) and parses some of its messages (a guard's term name). A
library change that breaks a call shows here, on the first items of seed 1,
rather than only in a benchmark run. Nothing under `perfbench/` is changed.
"""
import itertools
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
# the first items of seed 1: three fuzz trials, every theorem selector once,
# and one full block of large-index requests
ITEMS = {"catalog_fuzz": 3, "theorem_sums": 66, "large_index": 20}


@pytest.fixture(scope="module")
def workloads():
    path, modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
        yield workloads
    finally:
        sys.path[:] = path
        # only perfbench's own modules: a library module imported first here
        # stays, so later tests patch the one copy the library uses
        for name in set(sys.modules) - modules:
            file = getattr(sys.modules[name], "__file__", None)
            if file and pathlib.Path(file).parent == PERFBENCH:
                del sys.modules[name]


@pytest.mark.parametrize("name", sorted(ITEMS))
def test_first_items_of_each_workload_confirm(workloads, name):
    wl = workloads.WORKLOADS[name]()
    items = wl.items(1)
    failed = []
    for _ in range(ITEMS[name]):
        item = next(items)
        try:
            result, exc = wl.call(item), None
        except Exception as e:  # noqa: BLE001 - the workload's confirm judges it
            result, exc = None, e
        verdict = wl.confirm(item, result, exc)
        if not verdict.ok:
            failed.append(verdict.reason)
    assert not failed, failed


def test_every_large_index_argv_is_read_directly(workloads):
    # the benchmark's CLI requests take main's direct parse: a change that
    # sends them back to argparse fails here, not only in a benchmark run
    from horadam import cli
    items = itertools.islice(workloads.WORKLOADS["large_index"]().items(1), 280)
    argvs = [item[1] for item in items if not item[0].startswith("gf_")]
    refused = [argv for argv in argvs
               if cli._direct_parse(cli._command_parsers()[argv[0]], argv[1:]) is None]
    assert len(argvs) == 196 and not refused, refused
