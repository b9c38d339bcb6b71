import json

import pytest
from hypothesis import settings

from prevmap.data_model import IndividualRecord, RegionBoundary

# `pytest --hypothesis-profile=ci`: more examples for every property test
# that leaves max_examples unset
settings.register_profile("ci", max_examples=300)


def square(x0: float, y0: float, size: float = 1.0):
    """Closed unit-square ring starting at (x0, y0)."""
    return (
        (x0, y0),
        (x0 + size, y0),
        (x0 + size, y0 + size),
        (x0, y0 + size),
        (x0, y0),
    )


def boundary(region_id: str, ring, country: str = "") -> RegionBoundary:
    return RegionBoundary(region_id=region_id, geometry=((ring,),), country=country)


def record(region="R1", cluster="R1-c0", weight=1.0, outcome=0, stratum=""):
    return IndividualRecord(region, cluster, weight, outcome, stratum)


def geojson_feature(region_id, rings, country="", gtype="Polygon"):
    coords = [list(list(pt) for pt in ring) for ring in rings]
    return {
        "type": "Feature",
        "properties": {"region_id": region_id, "country": country},
        "geometry": {"type": gtype, "coordinates": coords},
    }


@pytest.fixture
def two_squares(tmp_path):
    """GeoJSON file with two horizontally adjacent unit squares R1, R2."""
    doc = {
        "type": "FeatureCollection",
        "features": [
            geojson_feature("R1", [square(0, 0)], "A"),
            geojson_feature("R2", [square(1, 0)], "B"),
        ],
    }
    path = tmp_path / "two_squares.geojson"
    path.write_text(json.dumps(doc))
    return path
