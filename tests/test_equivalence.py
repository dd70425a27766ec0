"""The equivalence runner's catalogue and comparison (checks/equivalence.py)."""
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import kuralim
from kuralim import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "checks"))
import equivalence as eq  # noqa: E402

LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@pytest.fixture(scope="module")
def entries():
    return eq.catalogue()


@pytest.fixture(scope="module")
def configs(entries):
    """``(entry id, document)`` of every config outside the bad-config group."""
    return [(entry.id, yaml.load(text, Loader=LOADER)) for entry in entries if not entry.id.startswith("bad-config/")
            for name, text in entry.files.items() if name.endswith(".yaml")]


def _inside(name):
    """Whether ``name`` is a plain name in the run directory; a non-string names no file."""
    return not isinstance(name, str) or os.path.dirname(name) == "" and name not in (".", "..")


def test_ids_are_unique(entries):
    assert len({entry.id for entry in entries}) == len(entries)


def test_every_file_is_named_inside_its_entry_directory(entries, configs):
    for entry in entries:
        assert all(map(_inside, entry.files)), entry.id
        for args in entry.commands:
            flags = zip(args, args[1:])
            assert all(_inside(value) for flag, value in flags if flag in ("--config", "--input", "--output")), entry.id
    for id, doc in configs:
        initial = doc.get("initial")
        assert _inside(doc.get("output")) and _inside(initial.get("path") if isinstance(initial, dict) else None), id


def test_every_config_loads_as_a_yaml_mapping(configs):
    assert len(configs) > 8500
    assert all(isinstance(doc, dict) for _, doc in configs)


def test_catalogue_holds_every_group(entries):
    groups = {}
    for entry in entries:
        groups.setdefault(entry.id.split("/")[0], []).append(entry.id)
    assert set(groups) == set(eq.GROUPS)
    assert len(groups["simulate"]) == 4 * 3 * 4 * 3  # mode x kernel x initial x size
    assert {f"oa/eval/0.5/{beta}/4" for beta in ("0.4", "0.9", "0.99", "1")} <= set(groups["oa"])
    assert "oa/flow/0/1e-320/1000/--output-every/100" in groups["oa"]
    assert {f"verify/{suite}/negative-control" for suite in eq.SUITES} | {"verify/all", "verify/bogus"} <= set(groups["verify"])
    assert {f"workload/{name}/{seed}" for name in ("ensembles-verify", "density-pipeline")
            for seed in (1, 2, 3, 7)} <= set(groups["workload"])
    assert len(groups["one-change"]) > 8500
    # quantile 5 x 3, spectral-rhs 2 x 4 x 5, mean-interaction 4 x 7 x 3, ds and cl 2 x 4 x 3,
    # mfl-spectral 3 x 3, mfl-grid 3 x 3
    assert len(groups["library"]) == 15 + 40 + 84 + 24 + 9 + 9
    assert {"library/quantile/1.0000000000000002/64", "library/spectral-rhs/random/100/1e-300",
            "library/mean-interaction/odd0,-2.5/257/-40.0", "library/cl/tab/stride-4",
            "library/mfl-spectral/overflow-last-mode/remainder",
            "library/mfl-grid/tab/exact-multiple"} <= set(groups["library"])
    assert {entry.commands[0][1] for entry in entries if entry.id.startswith("library/")} == set(eq.LIBRARY)
    assert eq.MAX_SIZE == cli.MAX_SIZE  # the one-change values sit on the CLI's size limit
    assert eq.SUITES == tuple(cli.SUITES)
    assert eq.MODES == {mode: key for mode, (key, *_) in cli.MODES.items()}


def test_one_change_bases_are_valid():
    for base in eq.BASES.values():
        assert isinstance(cli.parse_config(eq._config(base)), cli.RunConfig)


def test_comparison_reports_each_difference_and_honours_expect():
    parent = {
        "a": eq.Result([(0, "", "")], {"run.csv": b"t,x_0\n1.0\n"}),
        "b": eq.Result([(2, "", "error: one\n")], {}),
        "c": eq.Result([(0, "{\n  \"runtime_s\": 0.1\n}\n", "")], {"v.json": b'"runtime_s": 0.2,\n'}),
    }
    change = {
        "a": eq.Result([(0, "", "")], {"run.csv": b"t,x_0\n1.5\n"}),
        "b": eq.Result([(1, "", "error: two\n")], {}),
        "c": eq.Result([(0, "{\n  \"runtime_s\": 0.3\n}\n", "")], {"v.json": b'"runtime_s": 0.4,\n'}),
    }
    differences = eq.compare(["a", "b", "c"], parent, change)
    assert differences == [
        ("a", "file run.csv: line 2, column 3: b'0\\n' (parent) != b'5\\n' (change)"),
        ("b", "command 1: exit code 2 (parent) != 1 (change)"),
        ("b", "command 1: stderr: line 1, column 8: b'one\\n' (parent) != b'two\\n' (change)"),
    ]
    assert eq.verdict(differences, [], [])[1] == 1
    lines, status = eq.verdict(differences, [], ["a", "b"])
    assert status == 0 and all(line.endswith("(expected)") for line in lines)
    lines, status = eq.verdict(differences, [], ["a", "b", "c"])
    assert status == 1 and lines[-1] == "--expect c: no difference; remove the id"


def test_contract_reports_each_violation_and_expect_never_excuses_one():
    faults = {
        "raises": ("ValueError: boom", "", ""),
        "exit-3": (3, "", ""),
        "two-lines": (2, "", "error: one\nerror: two\n"),
        "no-prefix": (2, "", "usage: kuralim\n"),
        "warns": (0, "", "warning: RuntimeWarning: overflow encountered in exp\n"),
    }
    clean = eq.Result([(0, "", ""), (1, "{}\n", "spectrum: FAIL\n"), (2, "", "error: bad value\n")], {})
    parent = {"clean": clean, **{id: eq.Result([(0, "", "")], {}) for id in faults}}
    change = {"clean": clean, **{id: eq.Result([run], {}) for id, run in faults.items()}}
    violations = eq.contract(list(change), change)
    assert violations == [
        ("raises", "command 1: raised ValueError: boom"),
        ("exit-3", "command 1: exit code 3"),
        ("two-lines", "command 1: exit code 2 without one 'error: ' line: 'error: one\\nerror: two\\n'"),
        ("no-prefix", "command 1: exit code 2 without one 'error: ' line: 'usage: kuralim\\n'"),
        ("warns", "command 1: warning: RuntimeWarning: overflow encountered in exp"),
    ]
    differences = eq.compare(list(change), parent, change)
    assert {id for id, _ in differences} == set(faults)
    for expect in ([], list(faults)):
        lines, status = eq.verdict(differences, violations, expect)
        assert status == 1
        assert [line for line in lines if ": contract: " in line] == [f"{id}: contract: {what}" for id, what in violations]
    assert eq.contract(["clean"], change) == []


def test_contract_reads_the_csv_and_json_files_of_runs_that_exit_0_or_1():
    nan_cell = {"out.csv": b"t,x_0\n0.0,nan\n"}
    faults = {
        "nan-cell": ([0], nan_cell),
        "inf-cell": ([0, 1], {"out.csv": b"t,x_0\n0.0,1.0\n-inf,2.0\n"}),
        "json-nan": ([0], {"out.drift.json": b'{"times": [0.0], "drift": [NaN]}\n'}),
        "json-infinity": ([1], {"verify.json": b'{"max_residual": -Infinity}\n'}),
        "json-malformed": ([0], {"out.meta.json": b'{"seed": 3\n'}),
    }
    clean = {
        # the rule reads cells, not text; only .csv and .json files are read
        "clean": ([0], {"out.csv": b"t,info,nano\n1.0e+00,-0.0,2.5e-01\n", "out.json": b'{"nan": "inf"}\n',
                        "values": b"nan"}),
        # a run that exits 2 is refused; the files it leaves are not outputs
        "refused": ([0, 2], nan_cell),
    }
    results = {id: eq.Result([(code, "", "error: no\n" if code == 2 else "") for code in codes], files)
               for id, (codes, files) in {**faults, **clean}.items()}
    assert eq.contract(list(results), results) == [
        ("nan-cell", "file out.csv: non-finite cell 'nan' in line 2"),
        ("inf-cell", "file out.csv: non-finite cell '-inf' in line 3"),
        ("json-nan", "file out.drift.json: not strict JSON: NaN"),
        ("json-infinity", "file verify.json: not strict JSON: -Infinity"),
        ("json-malformed", "file out.meta.json: not strict JSON: Expecting ',' delimiter: line 2 column 1 (char 11)"),
    ]


def test_library_file_difference_names_the_element_and_both_values():
    stdout = "values: ndarray float64 (3, 2)\nscalars: tuple of complex complex128 (2,)\nnone: ndarray float64 (0,)\n"
    values, scalars = np.arange(6.0).reshape(3, 2), np.array([1j, 2.0])
    changed_values, changed_scalars = values.copy(), scalars.copy()
    changed_values[2, 0], changed_scalars[1] = 4.000000000000001, 2.0 - 0.5j
    parent = {"library/x": eq.Result([(0, stdout, "")], {"values": values.tobytes(), "scalars": scalars.tobytes(),
                                                           "none": b""}),
              "cli": eq.Result([(0, "values: ndarray float64 (3, 2)\n", "")], {"values": values.tobytes()})}
    change = {"library/x": eq.Result([(0, stdout, "")], {"values": changed_values.tobytes(),
                                                           "scalars": changed_scalars.tobytes(), "none": b"\0"}),
              "cli": eq.Result([(0, "values: ndarray float64 (3, 2)\n", "")], {"values": changed_values.tobytes()})}
    differences = eq.compare(["library/x", "cli"], parent, change)
    assert differences[:3] == [
        # a length that does not fit the layout, and any file outside library/, is read as text
        ("library/x", "file none: line 1, column 1: b'' (parent) != b'\\x00' (change)"),
        ("library/x", "file scalars: element (1,) of complex128 (2,): (2+0j) (parent) != (2-0.5j) (change)"),
        ("library/x", "file values: element (2, 0) of float64 (3, 2): 4.0 (parent) != 4.000000000000001 (change)"),
    ]
    assert differences[3][0] == "cli" and differences[3][1].startswith("file values: line 1, column ")


def test_library_call_is_recorded_as_a_command_under_the_same_contract(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = eq._run_command(kuralim, ("library", "mfl-grid", "sin1", "stride-4"))
    assert (code, err) == (0, "") and out == (
        "times: ndarray float64 (13,)\nvalues: ndarray float64 (13, 64)\ndrift: ndarray float64 (13,)\n"
    )
    assert sorted(os.listdir()) == ["drift", "times", "values"] and len(Path("values").read_bytes()) == 13 * 64 * 8
    # a KuralimError is the CLI's one error line and exit 2
    assert eq._run_command(kuralim, ("library", "mfl-spectral", "tail", "t-6")) == (
        2, "", "error: TailBlowup: last mode reached |c_N| = 0.5 at t = 1.95; increase n_modes or shorten the run\n"
    )
    # any other exception, and any warning, breaks the contract
    monkeypatch.setitem(eq.LIBRARY, "raises", lambda k: {}["x"])
    monkeypatch.setitem(eq.LIBRARY, "warns", lambda k: warnings.warn("late") or {})
    results = {name: eq.Result([eq._run_command(kuralim, ("library", name))], {}) for name in ("raises", "warns")}
    assert eq.contract(list(results), results) == [
        ("raises", "command 1: raised KeyError: 'x'"), ("warns", "command 1: warning: UserWarning: late")
    ]
