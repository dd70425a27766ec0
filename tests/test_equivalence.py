"""The equivalence runner's catalogue and comparison (checks/equivalence.py)."""
import os
import sys
from pathlib import Path

import pytest
import yaml

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
