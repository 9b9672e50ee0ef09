from grmjacobi._parallel import split


def test_split_is_contiguous_and_bounded():
    for n in range(10):
        items = list(range(n))
        for workers in (1, 2, 3):
            chunks = split(items, workers)
            assert [x for chunk in chunks for x in chunk] == items
            assert len(chunks) <= 4 * workers
        assert len(split(items, 1)) == 1
