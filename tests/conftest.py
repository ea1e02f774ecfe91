import pytest


@pytest.fixture(autouse=True)
def no_partial_output(request):
    """Fail a test that leaves a `.part` file under its tmp_path: a stage,
    failed or not, leaves no partial output behind."""
    tmp_path = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if tmp_path is not None:
        left = sorted(map(str, tmp_path.rglob("*.part")))
        if left:
            pytest.fail(f"partial output left behind: {left}")
