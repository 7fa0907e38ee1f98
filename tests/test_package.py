import decenopt


def test_every_export_resolves():
    missing = [name for name in decenopt.__all__ if not hasattr(decenopt, name)]
    assert missing == []
