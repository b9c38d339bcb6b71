import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from prevmap.data_model import IndividualRecord, RegionBoundary

# `pytest --hypothesis-profile=ci`: more examples for every property test
# that leaves max_examples unset
settings.register_profile("ci", max_examples=300)

TESTS = Path(__file__).resolve().parent


def _runs_haswell_kernels() -> bool:
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__.get("AVX2", False) and __cpu_features__.get("FMA3", False)


def haswell_sha256(out: Path, script: str) -> dict[str, str]:
    """The sha256 of each file that ``script`` writes to ``out``, its working directory.

    ``script`` runs in a child interpreter on OpenBLAS's Haswell kernels and
    one BLAS thread, with src/ and tests/ on its path. The bytes of a fit
    depend on the kernel family OpenBLAS picks for the CPU, so byte pins are
    recorded on one family that every x86-64 CPU with AVX2 and FMA runs.
    """
    if not _runs_haswell_kernels():
        pytest.skip("OpenBLAS's Haswell kernels need an x86-64 CPU with AVX2 and FMA")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    done = subprocess.run([sys.executable, "-c", script], cwd=out, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


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
