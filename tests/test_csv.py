"""Shared CSV reader and atomic writer tests."""

import ast
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hmts
from hmts._csv import atomic_writer, write_rows
from hmts.capacity import ModCod, load_thresholds, save_thresholds
from hmts.channel import Population, WeatherCdf, read_population, write_population
from hmts.constellation import Constellation, EnergySolution
from hmts.errors import ParameterError, TableError
from hmts.sim import GainRecord, GainReport

# Each writer gets one good row, then a row that cannot be formatted, so
# the write fails after output has started.
BAD = "not a number"


def _record(gain):
    return GainRecord(snr_max_db=10.0, strategy="A", share=0.0, trial=0,
                      classical_rate=1.0, hier_rate=1.1, gain=gain)


WRITERS = {
    "write_rows": lambda path: write_rows(
        path, ["x"], ([float(x)] for x in ("1.5", BAD))
    ),
    "save_thresholds": lambda path: save_thresholds(
        SimpleNamespace(entries=[
            ModCod("QPSK", Fraction(1, 2), "single", 1.0),
            SimpleNamespace(modulation="QPSK", code_rate=Fraction(2, 3),
                            stream="single", threshold_db=BAD),
        ]),
        path,
    ),
    "write_population": lambda path: write_population(
        Population(np.array([5.0, BAD], dtype=object), np.array([1, 1]), np.array([False, False])),
        path,
    ),
    "Constellation.to_csv": lambda path: Constellation.to_csv(
        SimpleNamespace(symbols=[1 + 0j, BAD], labels=["0", "1"]), path
    ),
    "EnergySolution.to_csv": lambda path: EnergySolution.to_csv(
        SimpleNamespace(curve=[(1.0, 20.0), (BAD, 10.0)]), path
    ),
    "GainReport.to_csv": lambda path: GainReport(
        records=(_record(0.1), _record(BAD))
    ).to_csv(path),
    "GainReport.summary_to_csv": lambda path: GainReport.summary_to_csv(
        SimpleNamespace(summary_rows=lambda: [
            (10.0, "A", 0.0, 0.1, 0.1, 0.1), (10.0, "A", 0.0, BAD, 0.1, 0.1),
        ]),
        path,
    ),
}


@pytest.mark.parametrize("old", [None, b"old,bytes\r\n"], ids=["absent", "existing"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_target_untouched(tmp_path, writer, old):
    path = tmp_path / "out.csv"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises((ValueError, TypeError, AttributeError)):
        WRITERS[writer](path)
    if old is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == old
    assert not list(tmp_path.glob("*.tmp"))


def test_writer_replaces_target_and_creates_directories(tmp_path):
    path = tmp_path / "new" / "dir" / "out.csv"
    rows_path = tmp_path / "rows" / "dir" / "out.csv"
    for text in ("first", "second"):
        with atomic_writer(path) as fh:
            fh.write(f"{text}\n")
        assert path.read_text() == f"{text}\n"
        write_rows(rows_path, [text, "x"], iter([[1, 2.5]]))
        assert rows_path.read_bytes() == f"{text},x\r\n1,2.5\r\n".encode()
    for written in (path, rows_path):
        assert sorted(p.name for p in written.parent.iterdir()) == ["out.csv"]


def test_only_the_csv_module_writes_csv():
    """The CSV dialect and the temp-file-and-rename protocol live in
    ``_csv`` alone: no other package module imports ``csv`` or names
    ``atomic_writer``, so every writer goes through ``write_rows``."""
    found = []
    for path in sorted(Path(hmts.__file__).parent.glob("*.py")):
        if path.name == "_csv.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
                if node.level == 0:
                    names.append(node.module.split(".")[0])
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found.extend(f"{path.name}:{node.lineno}: {name}"
                         for name in names if name in ("csv", "atomic_writer"))
    assert found == []


@pytest.mark.parametrize(
    "reader, header, error",
    [
        (load_thresholds, "modulation,code_rate,stream,threshold_db", TableError),
        (WeatherCdf.from_csv, "attenuation_db,cumulative_probability", ParameterError),
        (read_population, "snr_db,class,weight", ParameterError),
    ],
)
def test_readers_skip_comments_and_check_the_header(tmp_path, reader, header, error):
    path = tmp_path / "in.csv"
    path.write_text("# comment\n\n  # indented comment\nwrong,header\n")
    with pytest.raises(error, match=f"line 4: expected header {header}$"):
        reader(path)


def test_population_round_trip_through_comments(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("# generated\nsnr_db,class,weight\n\n# trial 0\n4.5,personal,1\n9,professional,3\n")
    pop = read_population(path)
    assert pop.snr_db.tolist() == [4.5, 9.0]
    assert pop.weight.tolist() == [1, 3]
    assert pop.professional.tolist() == [False, True]
