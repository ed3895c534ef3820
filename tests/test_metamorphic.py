"""Metamorphic relations: changes to an input that may not move an output bit.

Mirroring every track across the x axis (y -> -y, vy -> -vy) leaves every
squared distance and speed as it was, so ``report.json``, ``windows.csv``
and ``centrality.csv`` stay byte-identical. Renaming the agents without
changing the order of their ids leaves those files identical once the
new ids are mapped back to the old ones. An order-reversing renaming does
not hold bit for bit: closeness adds path costs in id order, so the last
bits of a sum may move (ROADMAP item 23).

``check_relations`` is also run on longer recordings outside tier-1.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frame
from drivestyle.centrality import compute_series, series_to_csv
from drivestyle.errors import ValidationError
from drivestyle.pipeline import AnalysisParams, analyze_table, report_to_json, windows_to_csv
from oracles import records_table

RATE_HZ = 10.0


def outputs(table, params):
    """(report.json, windows.csv, centrality.csv) texts of ``table``, or the error's text."""
    try:
        series = compute_series(table, params.mu, capacity=params.capacity)
        report = analyze_table(table, params, series=series)
    except ValidationError as exc:
        return str(exc)
    return report_to_json(report), windows_to_csv(report), series_to_csv(series)


def mirrored(table):
    """``table`` with every track reflected across the x axis."""
    return replace(table, y=-table.y, vy=-table.vy)


def renamed(table, names):
    """``table`` with each id replaced by ``names[id]``."""
    return replace(table, agent_ids=[names[agent_id] for agent_id in table.agent_ids])


def with_ids(texts, names):
    """``outputs`` texts with each id replaced by ``names[id]``."""
    report, windows, series = texts

    def column(text, k):
        lines = text.splitlines(keepends=True)
        cells = (line.split(",") for line in lines[1:])
        return lines[0] + "".join(",".join([*c[:k], names[c[k]], *c[k + 1:]]) for c in cells)

    report = re.sub(r'"agent_id":"([^"]*)"', lambda m: f'"agent_id":"{names[m[1]]}"', report)
    return report, column(windows, 0), column(series, 1)


def check_relations(table, params, names):
    """Assert both relations on ``table``; ``names`` must keep the ids' order."""
    old = sorted(table.agent_ids)
    assert sorted(old, key=names.__getitem__) == old
    expected = outputs(table, params)
    assert outputs(mirrored(table), params) == expected
    texts = outputs(renamed(table, names), params)
    if isinstance(expected, str):  # an error: the renamed table fails as well
        assert isinstance(texts, str)
    else:
        assert with_ids(texts, {new: k for k, new in names.items()}) == expected


@st.composite
def dense_tables(draw):
    """3-13 agents on a 30 x 12 m patch for 1-6 s at 10 Hz, each on a track of 3+ frames."""
    frames = draw(st.integers(10, 60))
    coordinate = st.floats(-15.0, 15.0, allow_nan=False).map(lambda v: round(v, 3))
    speed = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 3))
    by_frame = {}
    for n in range(draw(st.integers(3, 13))):
        first = draw(st.integers(0, frames - 3))
        length = draw(st.integers(3, frames - first))
        x0, y0 = draw(coordinate), draw(coordinate) * 0.4
        vx, vy = draw(speed) + 10.0, draw(speed)
        for k in range(first, first + length):
            t = (k - first) / RATE_HZ
            by_frame.setdefault(k, []).append(
                make_frame(f"a{n:02d}", x0 + vx * t, y0 + vy * t, vx, vy, t=k / RATE_HZ))
    return records_table(by_frame, RATE_HZ)


ID_TEXT = st.text(alphabet="abcxyzABZ019_-.", min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(table=dense_tables(), data=st.data())
def test_mirrored_and_order_keeping_renamed_tables_give_the_same_outputs(table, data):
    old = sorted(table.agent_ids)
    new = sorted(data.draw(st.lists(ID_TEXT, min_size=len(old), max_size=len(old), unique=True)))
    check_relations(table, AnalysisParams(window_s=1.0), dict(zip(old, new)))


def test_mirror_holds_on_a_table_with_zero_and_negative_y():
    # agents on y = 0 mirror to -0.0; one pair crosses the axis
    tracks = {"p": (0.0, 0.0, 12.0, 0.0), "q": (4.0, -2.0, 10.0, 0.8),
              "r": (-3.0, 1.5, 11.0, -0.5), "s": (6.0, 0.0, 9.0, 0.0)}
    by_frame = {}
    for name, (x0, y0, vx, vy) in tracks.items():
        for k in range(40):
            t = k / RATE_HZ
            by_frame.setdefault(k, []).append(make_frame(name, x0 + vx * t, y0 + vy * t,
                                                         vx, vy, t=t))
    table = records_table(by_frame, RATE_HZ)
    assert np.any(table.y == 0.0) and np.any(table.y < 0.0)
    check_relations(table, AnalysisParams(window_s=1.0),
                    {"p": "car-1", "q": "car-2", "r": "car-3", "s": "car-4"})
