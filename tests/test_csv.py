"""Shared CSV reader and atomic writer tests."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hmts._csv import atomic_writer
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
    for text in ("first\n", "second\n"):
        with atomic_writer(path) as fh:
            fh.write(text)
        assert path.read_text() == text
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.csv"]


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
