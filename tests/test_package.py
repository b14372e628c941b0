import liftervc


def test_every_exported_name_resolves():
    assert [n for n in liftervc.__all__ if not hasattr(liftervc, n)] == []
