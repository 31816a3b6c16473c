"""Tests for physical page addressing."""

import pytest

from repro.nvm import Geometry, PhysicalPageAddress, index_to_ppa, ppa_to_index


@pytest.fixture
def geometry():
    return Geometry(channels=4, banks_per_channel=2, blocks_per_bank=8,
                    pages_per_block=8, page_size=256)


def test_roundtrip_all_pages(geometry):
    for index in range(geometry.total_pages):
        ppa = index_to_ppa(index, geometry)
        assert ppa_to_index(ppa, geometry) == index


def test_index_zero_is_origin(geometry):
    assert index_to_ppa(0, geometry) == PhysicalPageAddress(0, 0, 0, 0)


def test_linearization_is_channel_major(geometry):
    last_of_channel0 = PhysicalPageAddress(0, 1, 7, 7)
    first_of_channel1 = PhysicalPageAddress(1, 0, 0, 0)
    assert (ppa_to_index(first_of_channel1, geometry)
            == ppa_to_index(last_of_channel0, geometry) + 1)


def test_out_of_range_index(geometry):
    with pytest.raises(ValueError):
        index_to_ppa(geometry.total_pages, geometry)
    with pytest.raises(ValueError):
        index_to_ppa(-1, geometry)


def test_validate(geometry):
    PhysicalPageAddress(3, 1, 7, 7).validate(geometry)
    with pytest.raises(ValueError):
        PhysicalPageAddress(4, 0, 0, 0).validate(geometry)
    with pytest.raises(ValueError):
        PhysicalPageAddress(0, 2, 0, 0).validate(geometry)
    with pytest.raises(ValueError):
        PhysicalPageAddress(0, 0, 8, 0).validate(geometry)
    with pytest.raises(ValueError):
        PhysicalPageAddress(0, 0, 0, 8).validate(geometry)


def test_ordering_is_lexicographic():
    a = PhysicalPageAddress(0, 0, 0, 1)
    b = PhysicalPageAddress(0, 0, 1, 0)
    c = PhysicalPageAddress(1, 0, 0, 0)
    assert a < b < c


class TestTupleContract:
    """A PPA is a named tuple with the fields of the old frozen, ordered
    dataclass: same construction, same order, and the plain tuple's
    hash, so set and dict iteration orders are those of the tuples."""

    def test_fields_in_declaration_order(self):
        assert PhysicalPageAddress._fields == ("channel", "bank", "block",
                                               "page")

    def test_keyword_construction(self):
        ppa = PhysicalPageAddress(channel=3, bank=1, block=6, page=2)
        assert ppa == PhysicalPageAddress(3, 1, 6, 2)
        assert (ppa.channel, ppa.bank, ppa.block, ppa.page) == (3, 1, 6, 2)

    def test_equal_and_hash_equal_to_the_plain_tuple(self):
        ppa = PhysicalPageAddress(2, 1, 5, 7)
        assert ppa == (2, 1, 5, 7)
        assert hash(ppa) == hash(tuple(ppa)) == hash((2, 1, 5, 7))
        assert {ppa: "x"}[(2, 1, 5, 7)] == "x"

    def test_immutable(self):
        ppa = PhysicalPageAddress(0, 0, 0, 0)
        with pytest.raises(AttributeError):
            ppa.page = 1

    def test_sort_order_is_the_old_field_wise_order(self, geometry):
        ppas = [index_to_ppa(index, geometry)
                for index in range(geometry.total_pages)]
        ppas = ppas[::7] + ppas[3::5] + ppas[::-3]

        def field_wise(p):
            return (p.channel, p.bank, p.block, p.page)

        assert sorted(ppas) == sorted(ppas, key=field_wise)
        # channel-major linearization sorts the same way
        assert sorted(ppas) == sorted(
            ppas, key=lambda p: ppa_to_index(p, geometry))

    def test_index_round_trip(self, geometry):
        for index in range(geometry.total_pages):
            ppa = index_to_ppa(index, geometry)
            assert type(ppa) is PhysicalPageAddress
            assert ppa.index(geometry) == ppa_to_index(ppa, geometry) == index
            assert index_to_ppa(ppa_to_index(ppa, geometry), geometry) == ppa

    @pytest.mark.parametrize("field,value", [
        ("channel", 4), ("channel", -1), ("bank", 2), ("bank", -1),
        ("block", 8), ("block", -1), ("page", 8), ("page", -1)])
    def test_validate_range_errors(self, geometry, field, value):
        ppa = PhysicalPageAddress(0, 0, 0, 0)._replace(**{field: value})
        with pytest.raises(ValueError, match=f"{field} {value} out of range"):
            ppa.validate(geometry)
