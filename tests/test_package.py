import wsnlife


def test_all_exports_resolve_sorted_and_unique():
    names = wsnlife.__all__
    missing = [name for name in names if not hasattr(wsnlife, name)]
    assert missing == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)
