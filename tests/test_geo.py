"""Geodesy: distances, snapping vs brute force, reference joins, fit metrics."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadsense import geo
from roadsense.errors import ValidationError
from roadsense.geo import (
    EARTH_RADIUS_M,
    FitMetrics,
    GpsAccuracySummary,
    Polyline,
    ReferenceIriRecord,
    haversine,
    join_reference,
    load_reference_csv,
    regression_metrics,
    snap_to_polyline,
    trace_accuracy,
)
from roadsense.drivesim import default_route
from roadsense.kinematics import SegmentReport
from roadsense.model import GpsFix

COLUMBIA = (38.9517, -92.3341)
KANSAS_CITY = (39.0997, -94.5786)
M_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0

_coords = st.tuples(
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


def test_haversine_columbia_to_kansas_city():
    # spherical law of cosines, R = 6371 km: 194579.4 m
    assert haversine(COLUMBIA, KANSAS_CITY) == pytest.approx(194579.4, rel=0.005)


def test_haversine_zero_and_known_arc():
    assert haversine(COLUMBIA, COLUMBIA) == 0.0
    # one degree of latitude along a meridian is R * pi/180
    assert haversine((0.0, 10.0), (1.0, 10.0)) == pytest.approx(M_PER_DEG, rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(_coords, _coords)
def test_haversine_symmetry(p, q):
    assert haversine(p, q) == pytest.approx(haversine(q, p), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(_coords, _coords, _coords)
def test_haversine_triangle_inequality(p, q, r):
    assert haversine(p, r) <= haversine(p, q) + haversine(q, r) + 1e-6


# -- polyline -------------------------------------------------------------------


def straight_line(n=5, step_deg=0.001):
    # due north along a meridian; segments of ~111 m each
    return Polyline([(38.0 + i * step_deg, -92.0) for i in range(n)])


def test_polyline_length_and_chainage():
    line = straight_line()
    segs = [haversine(a, b) for a, b in zip(line.vertices, line.vertices[1:])]
    assert line.length_m == pytest.approx(sum(segs), rel=1e-12)
    expect = [0.0]
    for s in segs:
        expect.append(expect[-1] + s)
    assert list(line.chainage) == pytest.approx(expect, rel=1e-12)


def test_polyline_rejects_degenerate_input():
    with pytest.raises(ValidationError):
        Polyline([(38.0, -92.0)])
    with pytest.raises(ValidationError):
        Polyline([(38.0, -92.0), (38.0, -92.0)])


@pytest.mark.parametrize("bad", [
    (math.nan, -92.0), (38.0, math.nan), (math.inf, -92.0), (38.0, -math.inf),
    (90.5, -92.0), (-90.5, -92.0), (38.0, 180.5), (38.0, -180.5),
])
def test_polyline_rejects_non_finite_and_out_of_range_vertices(bad):
    with pytest.raises(ValidationError, match=r"^vertex 2 ") as e:
        Polyline([(38.0, -92.0), (38.001, -92.0), bad, (38.002, -92.0)])
    assert e.value.field == "vertices"


def test_polyline_accepts_vertices_on_the_range_limits():
    line = Polyline([(-90.0, -180.0), (0.0, 0.0), (90.0, 180.0)])
    assert line.length_m == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)


def test_from_geojson_rejects_non_finite_and_out_of_range_vertices():
    # json.loads reads NaN and Infinity, so a route file can carry them
    for coord in ("NaN", "Infinity"):
        text = (
            '{"type": "LineString", "coordinates": '
            f'[[-92.0, 38.0], [-92.0, {coord}], [-92.0, 38.002]]}}'
        )
        with pytest.raises(ValidationError, match=r"^vertex 1 "):
            Polyline.from_geojson(text)
    geom = {"type": "LineString", "coordinates": [[-92.0, 38.0], [-92.0, 38.001], [181.0, 38.0]]}
    with pytest.raises(ValidationError, match=r"^vertex 2 "):
        Polyline.from_geojson(geom)


def test_from_geojson_unwraps_wrappers(tmp_path):
    coords = [[-92.0, 38.0], [-92.0, 38.001]]  # lon, lat order on the wire
    geom = {"type": "LineString", "coordinates": coords}
    for doc in (
        geom,
        {"type": "Feature", "geometry": geom, "properties": {}},
        {"type": "FeatureCollection", "features": [{"type": "Feature", "geometry": geom}]},
    ):
        line = Polyline.from_geojson(doc)
        assert line.vertices[0] == (38.0, -92.0)  # flipped to (lat, lon)
    line = Polyline.from_geojson(json.dumps(geom))
    assert line.vertices[1] == (38.001, -92.0)
    p = tmp_path / "route.geojson"
    p.write_text(json.dumps(geom))
    assert Polyline.from_geojson(p).length_m == line.length_m
    assert Polyline.from_geojson(str(p)).length_m == line.length_m


def test_from_geojson_parses_text_longer_than_a_file_name():
    route = default_route()
    text = json.dumps(
        {"type": "LineString", "coordinates": [[lon, lat] for lat, lon in route.vertices]}
    )
    assert len(text) > 255  # longer than a file name may be
    assert Polyline.from_geojson(text).vertices == route.vertices


def test_from_geojson_missing_path_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        Polyline.from_geojson(tmp_path / "missing.geojson")


def test_from_geojson_rejects_other_geometries():
    with pytest.raises(ValidationError):
        Polyline.from_geojson({"type": "Point", "coordinates": [0, 0]})
    with pytest.raises(ValidationError):
        Polyline.from_geojson({"type": "FeatureCollection", "features": []})


def test_point_at_interpolates_and_clamps():
    line = straight_line()
    lat, lon = line.point_at(line.chainage[1])
    assert (lat, lon) == pytest.approx((38.001, -92.0), abs=1e-9)
    mid = line.point_at(line.chainage[1] / 2)
    assert mid[0] == pytest.approx(38.0005, abs=1e-7)
    assert line.point_at(-10.0) == pytest.approx((38.0, -92.0))
    assert line.point_at(1e9) == pytest.approx((38.004, -92.0))


# -- snapping -------------------------------------------------------------------


def offset_point(lat, lon, east_m):
    return (lat, lon + east_m / (M_PER_DEG * math.cos(math.radians(lat))))


def test_snap_point_on_line_has_zero_cross_track():
    line = straight_line()
    snap = snap_to_polyline((38.0015, -92.0), line)
    assert snap.cross_track_m == pytest.approx(0.0, abs=0.01)
    assert snap.chainage_m == pytest.approx(1.5 * haversine((38.0, -92.0), (38.001, -92.0)), rel=1e-3)
    assert snap.segment_index == 1


def test_snap_known_offset():
    line = straight_line()
    snap = snap_to_polyline(offset_point(38.002, -92.0, 25.0), line)
    assert snap.cross_track_m == pytest.approx(25.0, rel=1e-3)
    assert snap.segment_index in (1, 2)  # vertex point: either adjacent segment


def test_snap_beyond_ends_clamps_to_endpoints():
    line = straight_line()
    south = snap_to_polyline((37.999, -92.0), line)
    assert south.chainage_m == 0.0
    north = snap_to_polyline((38.005, -92.0), line)
    assert north.chainage_m == pytest.approx(line.length_m, rel=1e-12)


def bent_line():
    return Polyline([
        (38.0000, -92.0000),
        (38.0010, -92.0004),
        (38.0018, -92.0015),
        (38.0020, -92.0030),
        (38.0014, -92.0042),
    ])


def brute_force_snap(p, line, step_m=0.1):
    """Densify every segment at ~step_m and take the nearest sample point."""
    best = (math.inf, 0.0)
    chain0 = 0.0
    for a, b in zip(line.vertices, line.vertices[1:]):
        seg = haversine(a, b)
        n = max(1, int(seg / step_m))
        for k in range(n + 1):
            w = k / n
            q = (a[0] + w * (b[0] - a[0]), a[1] + w * (b[1] - a[1]))
            d = haversine(p, q)
            if d < best[0]:
                best = (d, chain0 + w * seg)
        chain0 += seg
    return best  # (cross_track, chainage)


def test_snap_matches_densified_brute_force():
    line = bent_line()
    rng = np.random.default_rng(3)
    for _ in range(12):
        u = rng.uniform(0.0, line.length_m)
        on_line = line.point_at(u)
        p = offset_point(on_line[0], on_line[1], rng.uniform(-30.0, 30.0))
        snap = snap_to_polyline(p, line)
        cross, chain = brute_force_snap(p, line)
        assert abs(snap.cross_track_m - cross) < 1.0
        assert abs(snap.chainage_m - chain) < 1.0


def test_cross_track_never_exceeds_vertex_distance():
    line = bent_line()
    rng = np.random.default_rng(4)
    for _ in range(25):
        p = (38.0 + rng.uniform(0, 0.002), -92.0 - rng.uniform(0, 0.0045))
        snap = snap_to_polyline(p, line)
        nearest_vertex = min(haversine(p, v) for v in line.vertices)
        assert snap.cross_track_m <= nearest_vertex * (1 + 1e-6) + 1e-9


def snap_rows(line, points):
    """snap_many's columns as (chainage_m, cross_track_m, segment_index) rows."""
    return list(zip(*(col.tolist() for col in line.snap_many(points))))


def scalar_snap_rows(line, points):
    snaps = [snap_to_polyline(p, line) for p in points]
    return [(s.chainage_m, s.cross_track_m, s.segment_index) for s in snaps]


def dense_snap_rows(line, points, rows_per_block=64):
    """The snap that compares every point with every segment, in the same
    arithmetic as snap_many's per-pair kernel: each segment in its own
    equirectangular frame, the first minimum over all segments."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    lat = np.radians([v[0] for v in line.vertices])
    lon = np.radians([v[1] for v in line.vertices])
    alat, alon, blat, blon = lat[None, :-1], lon[None, :-1], lat[None, 1:], lon[None, 1:]
    coslat = np.cos((alat + blat) / 2.0)
    ax = (alon * coslat) * EARTH_RADIUS_M
    ay = alat * EARTH_RADIUS_M
    dx = (blon * coslat) * EARTH_RADIUS_M - ax
    dy = blat * EARTH_RADIUS_M - ay
    seg_sq = dx * dx + dy * dy
    span = line.chainage[1:] - line.chainage[:-1]
    rows = []
    for r0 in range(0, len(pts), rows_per_block):
        plat = np.radians(pts[r0 : r0 + rows_per_block, 0])[:, None]
        plon = np.radians(pts[r0 : r0 + rows_per_block, 1])[:, None]
        px = (plon * coslat) * EARTH_RADIUS_M
        py = plat * EARTH_RADIUS_M
        w = np.clip(((px - ax) * dx + (py - ay) * dy) / seg_sq, 0.0, 1.0)
        dist = np.hypot(px - (ax + w * dx), py - (ay + w * dy))
        best = np.argmin(dist, axis=1)
        i = np.arange(best.size)
        chainage = line.chainage[best] + w[i, best] * span[best]
        rows += zip(chainage.tolist(), dist[i, best].tolist(), best.tolist())
    return rows


def test_snap_many_empty():
    chainage, cross_track, segment = straight_line().snap_many([])
    assert chainage.shape == cross_track.shape == segment.shape == (0,)
    assert (chainage.dtype, cross_track.dtype, segment.dtype) == (
        np.float64, np.float64, np.int64,
    )


def test_snap_many_returns_one_entry_per_point_in_each_column():
    line = bent_line()
    points = np.array([(38.0005, -92.0001), (38.0019, -92.002), (38.0016, -92.0041)])
    chainage, cross_track, segment = line.snap_many(points)
    assert chainage.shape == cross_track.shape == segment.shape == (3,)
    assert (chainage.dtype, cross_track.dtype, segment.dtype) == (
        np.float64, np.float64, np.int64,
    )
    assert snap_rows(line, points) == dense_snap_rows(line, points)


def zigzag_line(n):
    return Polyline([(38.0 + i * 0.0005, -92.0 + (i % 2) * 0.0004) for i in range(n)])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=37.999, max_value=38.003),
                  st.floats(min_value=-92.005, max_value=-91.999)),
        min_size=1, max_size=40,
    ),
    st.lists(st.integers(min_value=0, max_value=4), max_size=5),
    st.integers(min_value=1, max_value=13),
)
def test_blocked_snap_matches_per_point_snap(points, vertex_ids, block_elems):
    line = bent_line()
    # vertices are equidistant from their two segments: the earlier one wins
    points = points + [line.vertices[i] for i in vertex_ids]
    with mock.patch.object(geo, "_SNAP_BLOCK_ELEMS", block_elems):
        got = snap_rows(line, points)
    assert got == scalar_snap_rows(line, points) == dense_snap_rows(line, points)


def test_snap_ties_go_to_the_lowest_segment():
    # segments 0 and 2 are the same A->B, so they tie exactly on every point
    a, b = (38.0, -92.0), (38.001, -92.0005)
    line = Polyline([a, b, a, b])
    rng = np.random.default_rng(6)
    points = [
        (38.0 + rng.uniform(-2e-4, 1.2e-3), -92.0 + rng.uniform(-8e-4, 3e-4)) for _ in range(50)
    ]
    with mock.patch.object(geo, "_SNAP_BLOCK_ELEMS", 7):
        _, _, segment = line.snap_many(points)
    assert set(segment.tolist()) <= {0, 1}
    assert 0 in segment


def test_snap_many_spans_several_blocks():
    line = zigzag_line(1200)
    rng = np.random.default_rng(5)
    points = [
        (38.0 + rng.uniform(0.0, 0.6), -92.0 + rng.uniform(-0.001, 0.0014)) for _ in range(2000)
    ]
    assert len(points) > 2 * (geo._SNAP_BLOCK_ELEMS // (len(line.vertices) - 1))
    assert snap_rows(line, points) == dense_snap_rows(line, points)


def walk(start, legs):
    """Vertices of a walk from *start* over (heading_deg, length_m) legs."""
    lat, lon = start
    vertices = [start]
    for heading, length in legs:
        lat += length * math.cos(math.radians(heading)) / M_PER_DEG
        lon += length * math.sin(math.radians(heading)) / (M_PER_DEG * math.cos(math.radians(lat)))
        vertices.append((lat, lon))
    return vertices


# 10 m legs beside multi-km ones, in any direction, so routes cross themselves
_legs = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=360.0),
              st.one_of(st.sampled_from([10.0, 8.7, 2_500.0, 9_000.0]),
                        st.floats(min_value=1.0, max_value=6_000.0))),
    min_size=1, max_size=25,
)


@st.composite
def routes_and_points(draw):
    vertices = walk(COLUMBIA, draw(_legs))
    if draw(st.booleans()):  # the same segments twice over: exact ties
        vertices = vertices + vertices
    line = Polyline(vertices)
    lat0, lon0 = np.mean(vertices, axis=0)
    along = st.builds(
        lambda c, east: offset_point(*line.point_at(c), east_m=east),
        st.floats(0.0, line.length_m), st.floats(-40.0, 40.0),
    )
    vertex = st.builds(
        lambda i, east: offset_point(*line.vertices[i], east_m=east),
        st.integers(0, len(vertices) - 1), st.sampled_from([0.0, 3.0, -12.0]),
    )
    far = st.tuples(st.floats(lat0 - 0.5, lat0 + 0.5), st.floats(lon0 - 0.5, lon0 + 0.5))
    points = draw(st.lists(st.one_of(along, vertex, far),
                           min_size=1, max_size=40))
    return line, points


@settings(max_examples=200, deadline=None)
@given(routes_and_points(), st.sampled_from([1, 5, 64, geo._SNAP_BLOCK_ELEMS]))
def test_snap_many_matches_the_dense_oracle(route_points, block_elems):
    line, points = route_points
    with mock.patch.object(geo, "_SNAP_BLOCK_ELEMS", block_elems):
        got = snap_rows(line, points)
    assert got == dense_snap_rows(line, points)


def snap_grid(line):
    lat = np.radians([v[0] for v in line.vertices])
    lon = np.radians([v[1] for v in line.vertices])
    return geo._SegmentGrid.build(geo._SegmentFrames(lat, lon))


def test_a_nearest_segment_outside_the_point_cells_is_found():
    # 60 one-degree legs up a meridian (mean latitude about 31 degrees),
    # then T east along 60 N to longitude b and S south along b
    def route(b):
        return Polyline([(float(lat), 0.0) for lat in range(61)] + [(60.0, b), (56.0, b)])

    grid = snap_grid(route(10.0))

    def lon_at(cells):
        return math.degrees(cells * grid.cell / (grid.cos_g * EARTH_RADIUS_M))

    # P near the east edge of cell column 3, 0.8 cells south of T; S just
    # inside column 5, so outside P's 3 x 3 cells but only 1.02 cells east
    line = route(lon_at(grid.x0 + 5.01))
    assert snap_grid(line).cell == grid.cell
    p = (60.0 - math.degrees(0.8 * grid.cell / EARTH_RADIUS_M), lon_at(grid.x0 + 3.99))
    # at 58 N a segment's own frame shrinks x to about 0.62 of the global
    # one: S is nearer than T, which a bound of one full cell would settle
    [(_, cross_track, segment)] = snap_rows(line, [p])
    assert segment == 61 and cross_track < 0.7 * grid.cell
    assert grid.bound < 0.8 * grid.cell
    assert snap_rows(line, [p]) == dense_snap_rows(line, [p])


def test_a_long_diagonal_leg_widens_the_cells_instead_of_filling_them():
    # 200 legs of 10 m, then one of 50 km at 45 degrees: at 40 m cells its
    # bounding box alone would cover about 780k of them
    line = Polyline(walk(COLUMBIA, [(90.0 + 180.0 * (k % 2), 10.0) for k in range(200)]
                         + [(45.0, 50_000.0)]))
    grid = snap_grid(line)
    assert grid.seg.size <= geo._SNAP_CELLS_PER_SEGMENT * 201
    rng = np.random.default_rng(8)
    points = [offset_point(*line.point_at(c), east_m=rng.uniform(-30.0, 30.0))
              for c in rng.uniform(0.0, line.length_m, 50)]
    assert snap_rows(line, points) == dense_snap_rows(line, points)


def test_non_finite_points_snap_as_the_first_minimum_over_all_segments():
    line = bent_line()
    points = [(math.nan, -92.0), (38.001, math.inf), (38.0005, -92.0001)]
    got = line.snap_many(points)
    want = [np.array(col) for col in zip(*dense_snap_rows(line, points))]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@settings(max_examples=100, deadline=None)
@given(_legs, st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12),
                                 st.sampled_from([0.0, 1e-9, -1e-9, 0.5])),
                       min_size=1, max_size=30))
def test_points_on_grid_cell_boundaries_match_the_dense_oracle(legs, cells):
    line = Polyline(walk(COLUMBIA, legs))
    grid = snap_grid(line)
    points = [
        (math.degrees((grid.y0 + j + f) * grid.cell / EARTH_RADIUS_M),
         math.degrees((grid.x0 + i + f) * grid.cell / (grid.cos_g * EARTH_RADIUS_M)))
        for i, j, f in cells
    ]
    assert snap_rows(line, points) == dense_snap_rows(line, points)


def test_a_long_corridor_matches_the_dense_oracle_on_a_subsample():
    # 20k vertices 8.7 m apart (about 174 km) and 36k fixes along them
    rng = np.random.default_rng(12)
    heading = 270.0 + np.cumsum(rng.normal(0.0, 0.4, 19_999))
    line = Polyline(walk(COLUMBIA, zip(heading.tolist(), [8.7] * 19_999)))
    along = np.sort(rng.uniform(0.0, line.length_m, 36_000))
    points = np.array([line.point_at(c) for c in along])
    points += rng.normal(0.0, 4.0, points.shape) / M_PER_DEG
    got = snap_rows(line, points)
    sample = np.sort(rng.choice(len(points), 400, replace=False))
    assert [got[i] for i in sample] == dense_snap_rows(line, points[sample])


# -- trace accuracy -------------------------------------------------------------


def test_trace_accuracy_mean_and_nearest_rank_p95():
    line = straight_line(n=8)
    fixes = []
    for i in range(1, 21):  # cross-track 1..20 m
        lat = 38.0005 + i * 0.0003
        p = offset_point(lat, -92.0, float(i))
        fixes.append(GpsFix(t=i * 1000, lat=p[0], lon=p[1], alt_m=0.0))
    acc = trace_accuracy(fixes, line)
    assert acc.n_fixes == 20
    assert acc.mean_cross_track_m == pytest.approx(10.5, rel=1e-3)
    assert acc.p95_cross_track_m == pytest.approx(19.0, rel=1e-3)  # rank ceil(0.95*20)=19


def test_trace_accuracy_requires_fixes():
    with pytest.raises(ValueError):
        trace_accuracy([], straight_line())


# -- reference records -----------------------------------------------------------


def seg(start, end, rms=1.0, n=10):
    return SegmentReport(chainage_start_m=start, chainage_end_m=end, rms=rms,
                         mean_speed_mps=None, n_samples=n)


def test_join_weights_by_covered_length():
    refs = [
        ReferenceIriRecord(0.0, 50.0, 1.0),
        ReferenceIriRecord(50.0, 150.0, 2.0),
        ReferenceIriRecord(150.0, 400.0, 5.0),
    ]
    joined = join_reference([seg(0.0, 100.0), seg(100.0, 200.0)], refs)
    assert joined[0].reference_iri == pytest.approx(1.5)           # 50*1 + 50*2 over 100
    assert joined[1].reference_iri == pytest.approx((50 * 2 + 50 * 5) / 100)


def test_join_matches_metre_integration_oracle():
    refs = [
        ReferenceIriRecord(0.0, 37.0, 1.2),
        ReferenceIriRecord(37.0, 81.0, 3.4),
        ReferenceIriRecord(120.0, 260.0, 0.7),  # gap 81..120
    ]
    segments = [seg(0.0, 80.0), seg(80.0, 160.0), seg(160.0, 240.0), seg(300.0, 380.0)]
    joined = join_reference(segments, refs)
    for s in joined:
        covered = []
        m = s.chainage_start_m
        while m < s.chainage_end_m - 1e-9:  # 1 m strips, midpoint sampled
            mid = m + 0.5
            for r in refs:
                if r.begin_log_m <= mid < r.end_log_m:
                    covered.append(r.iri_value)
                    break
            m += 1.0
        expect = sum(covered) / len(covered) if covered else None
        if expect is None:
            assert s.reference_iri is None
        else:
            assert s.reference_iri == pytest.approx(expect, abs=1e-9)


def test_join_constant_iri_is_conserved():
    refs = [ReferenceIriRecord(0.0, 175.0, 2.5), ReferenceIriRecord(175.0, 500.0, 2.5)]
    joined = join_reference([seg(i * 100.0, (i + 1) * 100.0) for i in range(5)], refs)
    for s in joined:
        assert s.reference_iri == pytest.approx(2.5, abs=1e-12)


def double_loop_join(segments, refs):
    """Every reference row against every segment, in begin order."""
    ordered = sorted(refs, key=lambda r: r.begin_log_m)
    out = []
    for s in segments:
        covered = weighted = 0.0
        for r in ordered:
            lo = max(s.chainage_start_m, r.begin_log_m)
            hi = min(s.chainage_end_m, r.end_log_m)
            if hi > lo:
                covered += hi - lo
                weighted += (hi - lo) * r.iri_value
        out.append(s.with_reference_iri(weighted / covered if covered > 0.0 else None))
    return out


@st.composite
def refs_and_segments(draw):
    """Non-overlapping reference rows in any order, some touching, and
    segments that start or end on row bounds or lie outside every row."""
    refs = []
    at = draw(st.floats(min_value=-500.0, max_value=500.0))
    rows = st.tuples(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=80.0)),
        st.floats(min_value=1e-3, max_value=300.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    for gap, length, iri in draw(st.lists(rows, max_size=12)):
        begin = at + gap
        at = begin + length
        refs.append(ReferenceIriRecord(begin, at, iri))
    bounds = [b for r in refs for b in (r.begin_log_m, r.end_log_m)] or [0.0]
    ends = st.one_of(st.sampled_from(bounds), st.floats(min_value=-1500.0, max_value=4500.0))
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), max_size=12))
    segments = [seg(min(p), max(p)) for p in pairs]
    return draw(st.permutations(refs)), segments


@settings(max_examples=300, deadline=None)
@given(refs_and_segments())
def test_join_equals_the_double_loop(case):
    refs, segments = case
    assert join_reference(segments, refs) == double_loop_join(segments, refs)
    if refs:
        # a row duplicated anywhere still overlaps
        with pytest.raises(ValidationError, match="overlap"):
            join_reference(segments, refs + [refs[len(refs) // 2]])


def test_join_rejects_overlapping_references():
    refs = [ReferenceIriRecord(0.0, 100.0, 1.0), ReferenceIriRecord(90.0, 200.0, 2.0)]
    with pytest.raises(ValidationError):
        join_reference([seg(0.0, 50.0)], refs)


def test_reference_record_validation():
    with pytest.raises(ValidationError):
        ReferenceIriRecord(10.0, 10.0, 1.0)
    with pytest.raises(ValidationError):
        ReferenceIriRecord(0.0, 10.0, -1.0)


def test_load_reference_csv(tmp_path):
    p = tmp_path / "iri.csv"
    p.write_text(
        "# ARAN export\n"
        "# units: in/mi\n"
        "begin_log_m,end_log_m,iri\n"
        "0,160.9,95.2\n"
        "160.9,321.8,120.0\n"
    )
    records, units = load_reference_csv(p)
    assert units == "in/mi"
    assert records == [
        ReferenceIriRecord(0.0, 160.9, 95.2),
        ReferenceIriRecord(160.9, 321.8, 120.0),
    ]
    assert load_reference_csv(str(p)) == (records, units)
    with pytest.raises(ValidationError):
        load_reference_csv("a,b\n1,2\n")
    with pytest.raises(FileNotFoundError):
        load_reference_csv(tmp_path / "missing.csv")


def test_load_reference_csv_parses_text_longer_than_a_file_name():
    rows = "".join(f"{i * 100},{(i + 1) * 100},{1.0 + i / 10}\n" for i in range(40))
    # no "/": a missing first path component would hide the long name
    text = "# ARAN export\nbegin_log_m,end_log_m,iri\n" + rows
    assert len(text) > 255  # longer than a file name may be
    records, units = load_reference_csv(text)
    assert units is None
    assert len(records) == 40
    assert records[-1] == ReferenceIriRecord(3900.0, 4000.0, 4.9)


# -- regression metrics ------------------------------------------------------------


def test_metrics_match_direct_formulas():
    truth = np.array([2.0, 3.5, 1.25, 4.0, 2.75])
    pred = np.array([2.2, 3.1, 1.5, 4.4, 2.5])
    m = regression_metrics(truth, pred)
    assert m.rmse == pytest.approx(float(np.sqrt(np.mean((truth - pred) ** 2))), abs=1e-12)
    assert m.rmspe_percent == pytest.approx(
        float(100 * np.sqrt(np.mean(((truth - pred) / truth) ** 2))), abs=1e-12
    )
    r = float(np.corrcoef(truth, pred)[0, 1])
    assert m.r_squared == pytest.approx(r * r, abs=1e-12)


def test_self_fit_is_perfect():
    v = [1.0, 2.0, 3.0, 5.0]
    m = regression_metrics(v, list(v))
    assert (m.rmse, m.rmspe_percent, m.r_squared) == (0.0, 0.0, 1.0)


def test_metrics_guards():
    with pytest.raises(ValueError):
        regression_metrics([1.0], [1.0])  # too short
    with pytest.raises(ValueError):
        regression_metrics([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        regression_metrics([0.0, 1.0], [1.0, 2.0])  # rmspe undefined at zero truth
    with pytest.raises(ValueError):
        regression_metrics([1.0, 1.0], [1.0, 2.0])  # zero variance


def test_r_squared_is_scale_invariant():
    truth = [1.0, 2.0, 3.0, 4.0]
    pred = [10.0, 20.0, 30.0, 40.0]  # biased but perfectly correlated
    assert regression_metrics(truth, pred).r_squared == pytest.approx(1.0, abs=1e-12)
