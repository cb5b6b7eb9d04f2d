"""Every ``functools`` memo in the package is bounded, and the test helper
that clears the caches reaches all of them but the argument parser's."""

import importlib
import io
import pkgutil

import equidim
from conftest import clear_solver_caches
from equidim import cli
from equidim.families import fish_graph
from equidim.fileio import format_edge_list

#: Kept by ``clear_solver_caches``: one parser per process, no graph in it.
KEPT = {"equidim.cli._parser"}


def package_memos():
    """``{"module.name": memo}`` for every module-level object of the
    package that carries ``cache_info``, aliases included."""
    memos = {}
    for info in pkgutil.iter_modules(equidim.__path__):
        module = importlib.import_module(f"equidim.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)):
                memos[f"{module.__name__}.{name}"] = obj
    return memos


def test_every_memo_has_a_finite_bound():
    memos = package_memos()
    assert {
        "equidim.cli._parser",
        "equidim.cli._parse_args",
        "equidim.fileio.parse_edge_list",
        "equidim.equalizers._xi_solve",
        "equidim.equalizers.beta_star",
        "equidim.equalizers._staircase",
        "equidim.suites._corpus",
    } <= set(memos)
    for name, memo in memos.items():
        maxsize = memo.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0, name


def test_each_cache_has_one_name():
    # Group the memos by the cache their ``cache_info`` reads.  An import
    # under the same name (``cli.parse_edge_list``) counts once.  The
    # staircase keeps the two extra names the benchmark harness reads.
    names = {}
    for name, memo in package_memos().items():
        names.setdefault(id(memo.cache_info.__self__), set()).add(name.rsplit(".", 1)[1])
    shared = [sorted(group) for group in names.values() if len(group) > 1]
    assert shared == [["_staircase", "beta_star", "xi_corona_structured"]]


def test_clearing_the_caches_empties_every_memo_but_the_parser(monkeypatch, capsys):
    # A corpus suite and a graph command from stdin fill every memo.
    assert cli.main(["verify", "g-vs-ghat", "--seed", "1"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(format_edge_list(fish_graph())))
    assert cli.main(["xi-corona", "-", "--nh", "2"]) == 0
    capsys.readouterr()
    memos = package_memos()
    assert [name for name, memo in memos.items() if not memo.cache_info().currsize] == []
    clear_solver_caches()
    assert [name for name, memo in memos.items() if memo.cache_info().currsize] == sorted(KEPT)
