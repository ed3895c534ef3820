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

import json
import math
import re
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_frame
from drivestyle.centrality import compute_series, series_to_csv
from drivestyle.errors import ValidationError
from drivestyle.graph import DEFAULT_MU
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


COORDINATE = st.floats(-15.0, 15.0, allow_nan=False).map(lambda v: round(v, 3))
SPEED = st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 3))


def draw_track(draw, by_frame, agent_id, first, last, dy=0.0):
    """One agent on frames first..last of ``by_frame``, from a spot on a 30 x 12 m
    patch centred on (0, dy), at 7-13 m/s along x and at most 3 m/s across."""
    x0, y0 = draw(COORDINATE), draw(COORDINATE) * 0.4 + dy
    vx, vy = draw(SPEED) + 10.0, draw(SPEED)
    for k in range(first, last + 1):
        t = (k - first) / RATE_HZ
        by_frame.setdefault(k, []).append(
            make_frame(agent_id, x0 + vx * t, y0 + vy * t, vx, vy, t=k / RATE_HZ))


def draw_tracks(draw, by_frame, name, lo, hi, dy=0.0):
    """3-13 agents ``name.format(n)``, each on a track of 3+ frames within lo..hi."""
    for n in range(draw(st.integers(3, 13))):
        first = draw(st.integers(lo, hi - 2))
        draw_track(draw, by_frame, name.format(n), first, draw(st.integers(first + 2, hi)), dy)


@st.composite
def dense_tables(draw):
    """3-13 agents on a 30 x 12 m patch for 1-6 s at 10 Hz, each on a track of 3+ frames."""
    by_frame = {}
    draw_tracks(draw, by_frame, "a{:02d}", 0, draw(st.integers(10, 60)) - 1)
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


@st.composite
def separated_groups(draw):
    """A dense group, a second group, and the two together, as records by frame.

    The second group covers the first's frame span (one of its agents
    spans it) and rides more than sqrt(mu) away in y at every frame; its
    ids sort before the group's, after them or between them.
    """
    group = {}
    draw_tracks(draw, group, "a{:02d}", 0, draw(st.integers(10, 60)) - 1)
    lo, hi = min(group), max(group)
    # each group keeps within 0.4 * 15 m + 3 m/s * t of its own centre line
    reach = 0.4 * 15.0 + 3.0 * (hi - lo) / RATE_HZ
    dy = draw(st.sampled_from([-1.0, 1.0])) * (
        2 * reach + math.sqrt(DEFAULT_MU) + draw(st.floats(0.01, 100.0)))
    name = draw(st.sampled_from(["A{:02d}", "b{:02d}", "a{:02d}x"]))
    other = {}
    draw_track(draw, other, name.format(99), lo, hi, dy)
    draw_tracks(draw, other, name, lo, hi, dy)
    first, second = (group, other) if draw(st.booleans()) else (other, group)
    both = {k: first.get(k, []) + second.get(k, []) for k in range(lo, hi + 1)}
    return group, other, both


@settings(max_examples=60, deadline=None)
@given(separated_groups())
def test_a_group_far_from_all_others_analyses_as_it_does_alone(groups):
    # closeness is taken per component and degree counts only neighbours,
    # so a second group beyond the proximity radius, on the same frames and
    # under the capacity, moves no byte of the first group's summaries,
    # windows.csv rows or centrality.csv rows
    group, other, both = (records_table(g, RATE_HZ) for g in groups)
    params = AnalysisParams(window_s=1.0)
    assert len(both.agent_ids) < params.capacity
    alone, beside = outputs(group, params), outputs(both, params)
    if isinstance(alone, str) or isinstance(beside, str):
        # two agents of one group on one spot: the table with that group fails
        assert isinstance(beside, str)
        assert isinstance(alone, str) or isinstance(outputs(other, params), str)
        return
    ids = set(group.agent_ids)

    def own_rows(texts):
        report, windows, series = texts
        agents = [json.dumps(entry, separators=(",", ":"))
                  for entry in json.loads(report)["agents"] if entry["agent_id"] in ids]
        return (agents, [row for row in windows.splitlines() if row.split(",")[0] in ids],
                [row for row in series.splitlines() if row.split(",")[1] in ids])

    assert own_rows(beside) == own_rows(alone)
