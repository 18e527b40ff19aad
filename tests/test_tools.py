"""Scripts under tools/."""

import importlib.util
from pathlib import Path

from conftest import FIXTURE_DIR

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_make_fixtures_reproduces_the_fixtures(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures", TOOLS / "make_fixtures.py")
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "FIXTURES", tmp_path)
    make_fixtures.main()
    names = ["disk37_r3.cplx", "surf37_psl2_7.cplx"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / name).read_bytes(), name
